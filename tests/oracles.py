"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: permutation-sum determinants,
tableau enumeration, hand-derived closed forms.  The point is that none
of it shares code paths with the package, so agreement is meaningful.
The one exception is the symbolic character, a quotient of two polynomial
alternants built with the package's char_matrix: it is the reference the
numeric character grids are checked against, and the tableau sums check it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

from compdet.characters import (
    EVEN_ORTH,
    _padded_partition,
    char_matrix,
    family_shift,
    variable_power,
)
from compdet.laurent import LaurentPoly
from compdet.pmatrix import det


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


def character(family, lam, num_vars):
    """Character of the family at partition lam in the variables
    x_1..x_num_vars, as a Laurent polynomial: the exact quotient of the
    numerator alternant at lam + delta by the denominator alternant at
    delta (times 2 for even-orth when the last part of lam is nonzero)."""
    xs = range(1, num_vars + 1)
    lam = _padded_partition(lam, num_vars)
    delta = family_shift(family, num_vars)
    alpha = tuple(part + shift for part, shift in zip(lam, delta))
    power = variable_power(num_vars)
    numerator = det(char_matrix(family, alpha, xs, power))
    denominator = det(char_matrix(family, delta, xs, power))
    if family == EVEN_ORTH and lam[-1] != 0:
        numerator = numerator * 2
    return numerator.exquo(denominator)


def row_coefficient_ratio(q, t):
    """Hand-derived coefficient of the squarefree monomial vector in the
    weight-two monic basis element indexed by the single row."""
    q = Fraction(q)
    t = Fraction(t)
    return (1 + q) * (1 - t) / (1 - q * t)


def _partitions(weight, largest=None):
    """Partitions of the weight as non-increasing tuples."""
    if weight == 0:
        return [()]
    if largest is None:
        largest = weight
    return [
        (k,) + rest
        for k in range(min(weight, largest), 0, -1)
        for rest in _partitions(weight - k, k)
    ]


@lru_cache(maxsize=None)
def expand_p_in_m(lam):
    """Power-sum product expanded in the monomial basis, by brute force: a
    dict mapping partitions to integer coefficients.

    The product is expanded in as many variables as the weight, and one
    representative monomial per partition is read off.
    """
    lam = tuple(lam)
    nv = sum(lam)
    poly = {(0,) * nv: 1}
    for r in lam:
        nxt = {}
        for exps, coeff in poly.items():
            for i in range(nv):
                key = exps[:i] + (exps[i] + r,) + exps[i + 1 :]
                nxt[key] = nxt.get(key, 0) + coeff
        poly = nxt
    out = {}
    for mu in _partitions(nv):
        coeff = poly.get(mu + (0,) * (nv - len(mu)), 0)
        if coeff:
            out[mu] = coeff
    return out


def p_to_m(pdict):
    """Power-sum vector in the monomial basis: the sum of c_rho times the
    brute-force expansion of p_rho, with zeros dropped."""
    out = {}
    for rho, c in pdict.items():
        for mu, coeff in expand_p_in_m(rho).items():
            out[mu] = out.get(mu, 0) + c * coeff
    return {mu: coeff for mu, coeff in out.items() if coeff}


@lru_cache(maxsize=None)
def monomial_sym_value(mu, values):
    """Monomial symmetric function at explicit values: one term per
    distinct rearrangement of the exponent vector."""
    nv = len(values)
    if len(mu) > nv:
        return Fraction(0)
    padded = tuple(mu) + (0,) * (nv - len(mu))
    total = Fraction(0)
    for perm in set(permutations(padded)):
        term = Fraction(1)
        for v, e in zip(values, perm):
            term *= Fraction(v) ** e
        total += term
    return total


def evaluate_monomial_vector(mdict, values):
    """Monomial-basis vector at explicit values, term by term."""
    values = tuple(values)
    return sum(
        (c * monomial_sym_value(mu, values) for mu, c in mdict.items()), Fraction(0)
    )


def _invert_matrix(matrix):
    """Inverse of a small square Fraction matrix by Gauss-Jordan."""
    n = len(matrix)
    work = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


@lru_cache(maxsize=None)
def _m_in_p(weight):
    """Each monomial function of the weight in power sums: the inverse of
    the brute-force power-sum-to-monomial matrix."""
    plist = sorted(_partitions(weight))
    inv = _invert_matrix(
        [[expand_p_in_m(lam).get(mu, 0) for mu in plist] for lam in plist]
    )
    return {mu: dict(zip(plist, row)) for mu, row in zip(plist, inv)}


@lru_cache(maxsize=None)
def _qt_norm(rho, q, t):
    """z_rho times the product of (1 - q**part) / (1 - t**part)."""
    norm = Fraction(1)
    for part in set(rho):
        count = rho.count(part)
        norm *= part**count * factorial(count)
    for part in rho:
        norm *= (1 - q**part) / (1 - t**part)
    return norm


def inner_product_m(f, g, weight, q, t):
    """q,t inner product of two monomial-basis vectors of one weight, by
    converting both to power sums."""
    q = Fraction(q)
    t = Fraction(t)
    table = _m_in_p(weight)
    fp = {}
    gp = {}
    for vec, out in ((f, fp), (g, gp)):
        for mu, coeff in vec.items():
            for rho, c in table[mu].items():
                out[rho] = out.get(rho, 0) + coeff * c
    return sum(
        (c * gp.get(rho, 0) * _qt_norm(rho, q, t) for rho, c in fp.items()),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def _monomial_route_basis(weight, q, t):
    basis = {}
    norms = {}
    for lam in sorted(_partitions(weight)):
        unit = {lam: Fraction(1)}
        f = dict(unit)
        for mu, prev in basis.items():
            c = inner_product_m(unit, prev, weight, q, t) / norms[mu]
            for nu, coeff in prev.items():
                f[nu] = f.get(nu, 0) - c * coeff
        f = {nu: coeff for nu, coeff in f.items() if coeff}
        basis[lam] = f
        norms[lam] = inner_product_m(f, f, weight, q, t)
    return basis


def macdonald_P_monomial_route(lam, q, t):
    """Monic two-parameter basis element in the monomial basis, by
    Gram-Schmidt over monomial vectors in ascending lex order, which
    extends dominance."""
    lam = tuple(lam)
    return dict(_monomial_route_basis(sum(lam), Fraction(q), Fraction(t))[lam])


def support_permutation_count(pattern):
    """Count the permutations inside the support of a boolean matrix by
    backtracking, stopping at 2.  Returns (count_capped_at_2,
    identity_in_support)."""
    size = len(pattern)
    identity_ok = all(pattern[i][i] for i in range(size))
    count = 0

    def rec(col, used):
        nonlocal count
        if count >= 2:
            return
        if col == size:
            count += 1
            return
        for row in range(size):
            if pattern[row][col] and not (used >> row) & 1:
                rec(col + 1, used | (1 << row))
                if count >= 2:
                    return

    rec(0, 0)
    return count, identity_ok


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
    if not poly:
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
