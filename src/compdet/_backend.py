"""Sparse term kernel.

A polynomial is a dict mapping a packed monomial key (a Python int, see
compdet.laurent for the packing) to a nonzero coefficient (int or Fraction).
Multiplying monomials is integer addition of keys minus the shared bias
vector ``unit``.  These three functions are the only hot loops in the
package.
"""

# Public name for callers that record which kernel ran; this is the only one.
BACKEND = "pure"


def add_terms(acc, b, coeff):
    """In place: acc += coeff * b.  Drops entries that cancel to zero."""
    if not coeff:
        return
    for k, c in b.items():
        v = acc.get(k)
        if v is None:
            acc[k] = coeff * c
        else:
            v = v + coeff * c
            if v:
                acc[k] = v
            else:
                del acc[k]


def muladd_terms(acc, a, b, unit, coeff):
    """In place: acc += coeff * a * b."""
    if not coeff or not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    for kb, cb in b.items():
        shift = kb - unit
        cc = coeff * cb
        for ka, ca in a.items():
            k = ka + shift
            v = acc.get(k)
            if v is None:
                acc[k] = cc * ca
            else:
                v = v + cc * ca
                if v:
                    acc[k] = v
                else:
                    del acc[k]


def mul_terms(a, b, unit):
    """Product of two term dicts."""
    acc = {}
    muladd_terms(acc, a, b, unit, 1)
    return acc
