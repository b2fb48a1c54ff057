"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: permutation-sum determinants,
tableau enumeration, hand-derived closed forms.  The point is that none
of it shares code paths with the package, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm

from compdet.laurent import LaurentPoly


def perm_sign(perm):
    """Sign of a permutation given as a tuple of 0-based positions."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(rows):
    """Permutation-sum determinant over any ring with + and *."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    total = None
    for perm in permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term * perm_sign(perm)
        total = term if total is None else total + term
    return total


def det_bareiss_reference(rows):
    """Integer Bareiss determinant of a square nested list of rationals.

    This is the elimination pmatrix.det_fractions replaced: each row is
    cleared of denominators by its lcm, every step divides exactly by the
    previous pivot, and the row scales are divided out once at the end.
    Pivots are the first row with a nonzero entry in the column.
    """
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return Fraction(1)
    work = []
    scale = 1
    for row in rows:
        row = [Fraction(v) for v in row]
        row_scale = lcm(*(v.denominator for v in row))
        work.append([v.numerator * (row_scale // v.denominator) for v in row])
        scale *= row_scale
    sign = 1
    prev = 1
    while len(work) > 1:
        r = next((r for r, row in enumerate(work) if row[0]), None)
        if r is None:
            return Fraction(0)
        if r:
            work[0], work[r] = work[r], work[0]
            sign = -sign
        top = work.pop(0)
        pivot = top[0]
        rest = top[1:]
        for i, row in enumerate(work):
            a = row[0]
            work[i] = [(pivot * x - a * y) // prev for x, y in zip(row[1:], rest)]
        prev = pivot
    return Fraction(sign * work[0][0], scale)


def semistandard_tableaux(shape, max_entry):
    """All fillings of the shape with entries 1..max_entry, weakly
    increasing along rows and strictly increasing down columns."""
    shape = tuple(v for v in shape if v > 0)
    if not shape:
        yield ()
        return

    rows = len(shape)

    def fill(tableau, r, c):
        if r == rows:
            yield tuple(tuple(row) for row in tableau)
            return
        if c == shape[r]:
            yield from fill(tableau, r + 1, 0)
            return
        lo = 1
        if c > 0:
            lo = max(lo, tableau[r][c - 1])
        if r > 0:
            lo = max(lo, tableau[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            tableau[r].append(v)
            yield from fill(tableau, r, c + 1)
            tableau[r].pop()

    yield from fill([[] for _ in range(rows)], 0, 0)


def schur_tableau_poly(shape, num_vars):
    """Schur polynomial as a tableau-weight sum, directly."""
    total = LaurentPoly.const(num_vars, 0)
    for tableau in semistandard_tableaux(shape, num_vars):
        exps = [0] * num_vars
        for row in tableau:
            for entry in row:
                exps[entry - 1] += 2
        total = total + LaurentPoly.monomial(num_vars, 1, exps)
    return total


def schur_tableau_value(shape, values):
    """Schur polynomial evaluated at explicit values, via tableaux."""
    values = tuple(Fraction(v) for v in values)
    total = Fraction(0)
    for tableau in semistandard_tableaux(shape, len(values)):
        term = Fraction(1)
        for row in tableau:
            for entry in row:
                term *= values[entry - 1]
        total += term
    return total


def row_coefficient_ratio(q, t):
    """Hand-derived coefficient of the squarefree monomial vector in the
    weight-two monic basis element indexed by the single row."""
    q = Fraction(q)
    t = Fraction(t)
    return (1 + q) * (1 - t) / (1 - q * t)


def crossing_sign(left, right):
    """Interleaving sign computed by explicit bubble sort, as a check on
    the inversion-count implementation."""
    if set(left) & set(right):
        return 0
    merged = list(left) + list(right)
    sign = 1
    for i in range(len(merged)):
        for j in range(len(merged) - 1 - i):
            if merged[j] > merged[j + 1]:
                merged[j], merged[j + 1] = merged[j + 1], merged[j]
                sign = -sign
    return sign


def canonical_reference(poly):
    """The canonical text form, rendered term by term from unpacked exponents.

    This is the renderer LaurentPoly.canonical replaced; the fast one must
    produce the same string for every polynomial.
    """
    if poly.is_zero():
        return "0"
    parts = []
    for exps2, c in poly.terms():
        factors = []
        for i, e2 in enumerate(exps2, start=1):
            if e2 == 0:
                continue
            if e2 == 2:
                factors.append(f"x{i}")
            elif e2 % 2 == 0:
                factors.append(f"x{i}^{e2 // 2}")
            else:
                factors.append(f"x{i}^({e2}/2)")
        cf = Fraction(c)
        if not factors:
            text = str(cf)
        elif cf == 1:
            text = "*".join(factors)
        elif cf == -1:
            text = "-" + "*".join(factors)
        else:
            text = str(cf) + "*" + "*".join(factors)
        parts.append(text)
    out = parts[0]
    for text in parts[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out
