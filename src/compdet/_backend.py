"""Sparse term kernel.

A polynomial is a dict mapping a packed monomial key (a Python int, see
compdet.laurent for the packing) to a nonzero coefficient (int or Fraction).
Multiplying monomials is integer addition of keys minus the shared bias
vector ``unit``, the key of the constant monomial.  These three functions
are the hot loops of polynomial arithmetic; the other hot loops of a
symbolic check are in compdet.laurent: LaurentPoly.canonical, which renders
every term, and the grouping of terms in LaurentPoly.substitute.

Each key has one 16-bit field per variable, the stored exponent plus 2**14,
so the top bit of every field is clear; ``unit << 1`` sets exactly those
guard bits.  A field of a product key is the sum of two fields minus 2**14,
in [-2**14, 3 * 2**14), so it never carries into the next field, and it
lies in the packable range exactly when its guard bit is clear (the lowest
field that leaves the range shows its guard bit, borrow included).
muladd_terms raises DomainError on a product key with a guard bit set, so
an exponent that leaves the range is an error, never a carry into the next
variable.
"""

from .errors import DomainError

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
    """In place: acc += coeff * a * b.  Raises DomainError when a product's
    exponent leaves the packable range."""
    if not coeff or not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    guard = unit << 1
    for kb, cb in b.items():
        shift = kb - unit
        cc = coeff * cb
        for ka, ca in a.items():
            k = ka + shift
            if k & guard:
                raise DomainError("a product's exponent left the packable range")
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
