"""Classical-group characters as exact alternant quotients.

Four families are supported, tagged "gl", "sp", "odd-orth" and "even-orth".
Each character is a quotient of two determinants built from power matrices
(x_i ** a_j), optionally folded with the reciprocal power.  The quotients
divide exactly in the Laurent ring, so everything here is exact: symbolic
characters come out as Laurent polynomials, numeric ones as Fractions.
Numerically, all the alternants at one tuple of values are maximal minors
of a single power matrix, one row per exponent they use, and one
pmatrix.minor_table of it yields every numerator and the denominator.

The verification entry points check the four denominator product formulas,
the determinant identity for the grid of characters evaluated at nested
variable subsets, and the smaller single-alphabet determinant identity.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from .combin import binom_nonneg, compositions, iota, partitions_in_box, subsets_lex
from .errors import DomainError, ParameterError, UsageError
from .laurent import LaurentPoly, pow_stored, sqrt_fraction
from .pmatrix import det, det_fractions, minor_table
from .report import VerifyReport, canonical_hash, hash_parts, render
from .sampling import (
    MAX_RETRIES,
    SplitMix64,
    point_is_admissible,
    sample_point,
    square_rational,
)

GL = "gl"
SP = "sp"
ODD_ORTH = "odd-orth"
EVEN_ORTH = "even-orth"
FAMILIES = (GL, SP, ODD_ORTH, EVEN_ORTH)

# How each family folds the reciprocal power into a matrix entry.
_FOLD = {GL: "plain", SP: "minus", ODD_ORTH: "minus", EVEN_ORTH: "plus"}


def _require_family(family):
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}, expected one of {FAMILIES}")


def staircase_delta(top, length):
    """Decreasing staircase (top, top-1, ..., top-length+1) of Fractions.

    top may be an integer or a half-integer; the final entry must be
    non-negative.
    """
    top = Fraction(top)
    if length < 1:
        raise UsageError("staircase length must be positive")
    if top - (length - 1) < 0:
        raise DomainError(f"staircase from {top} of length {length} goes negative")
    return tuple(top - i for i in range(length))


def family_shift(family, n):
    """Staircase added to a partition before forming the numerator."""
    _require_family(family)
    if family == SP:
        return staircase_delta(n, n)
    if family == ODD_ORTH:
        return staircase_delta(Fraction(2 * n - 1, 2), n)
    return staircase_delta(n - 1, n)


def _stored_exponent(alpha):
    """Half-unit stored form of an integer or half-integer exponent."""
    a = Fraction(alpha)
    if a.denominator not in (1, 2):
        raise DomainError(f"exponent {alpha} is not a half-integer")
    return int(a * 2)


def _padded_partition(lam, n):
    lam = tuple(int(v) for v in lam)
    if len(lam) > n:
        raise DomainError(f"partition {lam} has more than {n} parts")
    if any(v < 0 for v in lam):
        raise DomainError(f"partition {lam} has a negative part")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise DomainError(f"{lam} is not weakly decreasing")
    return lam + (0,) * (n - len(lam))


def char_matrix(family, alpha, var_indices, num_vars):
    """Power matrix of the family at exponents alpha, rows over the chosen
    variables and columns over alpha.  Entries are x**a, x**a - x**-a or
    x**a + x**-a depending on the family fold."""
    _require_family(family)
    fold = _FOLD[family]
    rows = []
    for idx in var_indices:
        row = []
        for a in alpha:
            a2 = _stored_exponent(a)
            if a2 == 0:
                if fold == "plain":
                    row.append(LaurentPoly.const(num_vars, 1))
                elif fold == "minus":
                    row.append(LaurentPoly.zero(num_vars))
                else:
                    row.append(LaurentPoly.const(num_vars, 2))
                continue
            entry = LaurentPoly.variable(num_vars, idx, a2)
            if fold == "minus":
                entry = entry - LaurentPoly.variable(num_vars, idx, -a2)
            elif fold == "plus":
                entry = entry + LaurentPoly.variable(num_vars, idx, -a2)
            row.append(entry)
        rows.append(row)
    return rows


def char_matrix_values(family, alpha, values):
    """Same grid as char_matrix but evaluated at explicit rational values."""
    _require_family(family)
    fold = _FOLD[family]
    rows = []
    for v in values:
        v = Fraction(v)
        row = []
        for a in alpha:
            a2 = _stored_exponent(a)
            if fold == "plain":
                row.append(pow_stored(v, a2))
            elif fold == "minus":
                row.append(pow_stored(v, a2) - pow_stored(v, -a2))
            else:
                row.append(pow_stored(v, a2) + pow_stored(v, -a2))
        rows.append(row)
    return rows


def character(family, lam, var_indices=None, num_vars=None):
    """Character of the family at partition lam, as a Laurent polynomial.

    Defaults to the first n variables of an n-variable ring where n is the
    number of chosen variables.  The quotient of alternants is exact.
    """
    if var_indices is None:
        if num_vars is None:
            raise UsageError("need var_indices or num_vars")
        var_indices = tuple(range(1, num_vars + 1))
    var_indices = tuple(var_indices)
    n = len(var_indices)
    if num_vars is None:
        num_vars = max(var_indices)
    lam = _padded_partition(lam, n)
    delta = family_shift(family, n)
    alpha_num = tuple(lam[j] + delta[j] for j in range(n))
    numerator = det(char_matrix(family, alpha_num, var_indices, num_vars))
    denominator = det(char_matrix(family, delta, var_indices, num_vars))
    if family == EVEN_ORTH and lam[n - 1] != 0:
        numerator = numerator * 2
    return numerator.exquo(denominator)


def character_value(family, lam, values):
    """Character evaluated at explicit rational values, as a Fraction."""
    values = tuple(Fraction(v) for v in values)
    return _character_grid(family, [lam], [values])[0][0][0]


def _character_grid(family, partitions, col_values):
    """Characters at each partition (rows) and value tuple (columns), as
    Fractions, with the numerator alternants they were divided from.

    Every alternant of a column is a maximal minor of one power matrix,
    whose row r holds the column's entries at the r-th largest exponent
    any of the grid's alternants uses.  Each lambda + delta, and delta
    itself, then sits on an increasing row set, so one minor_table per
    column gives each numerator and the column's denominator with no sign
    change.  On the verifiers' grids the exponents form one consecutive
    run and every minor of the table is an alternant of the grid.  Every
    value tuple must have the same length n."""
    n = len(col_values[0])
    padded = [_padded_partition(lam, n) for lam in partitions]
    delta = family_shift(family, n)
    alphas = [tuple(lam[j] + delta[j] for j in range(n)) for lam in padded]
    exponents = sorted(set(delta).union(*alphas), reverse=True)
    row_of = {a: r for r, a in enumerate(exponents, 1)}
    tables = []
    denominators = []
    for values in col_values:
        power_rows = list(zip(*char_matrix_values(family, exponents, values)))
        table = minor_table(power_rows, range(1, n + 1))
        denominator = table[tuple(row_of[a] for a in delta)]
        if denominator == 0:
            raise ParameterError("character denominator vanished at the sample point")
        tables.append(table)
        denominators.append(denominator)
    grid = []
    numerators = []
    for lam, alpha in zip(padded, alphas):
        cell = tuple(row_of[a] for a in alpha)
        row = [table[cell] for table in tables]
        factor = 2 if family == EVEN_ORTH and lam[n - 1] != 0 else 1
        grid.append([factor * v / d for v, d in zip(row, denominators)])
        numerators.append(row)
    return grid, numerators


def verify_denominators(n):
    """Check the four closed product formulas for the alternant
    denominators in n variables, exactly."""
    if n < 1:
        raise UsageError("need at least one variable")
    t0 = time.perf_counter()
    one = LaurentPoly.const(n, 1)

    def var(i, e2=2):
        return LaurentPoly.variable(n, i, e2)

    pair_prod = one
    for i, j in combinations(range(1, n + 1), 2):
        d = (var(j) - var(i)) * (one - var(i) * var(j)) * var(i, -2) * var(j, -2)
        pair_prod = pair_prod * d

    vandermonde = one
    for i, j in combinations(range(1, n + 1), 2):
        vandermonde = vandermonde * (var(i) - var(j))

    # Multiply the binomial factors into the large pair product one at a
    # time: each step is a two-term product.
    sign = (-1) ** n
    odd_rhs = pair_prod * sign
    sp_rhs = pair_prod * sign
    for i in range(1, n + 1):
        odd_rhs = odd_rhs * ((one - var(i)) * var(i, -1))
        sp_rhs = sp_rhs * ((one - var(i) * var(i)) * var(i, -2))

    even_rhs = pair_prod * 2

    rhs_by_family = {
        GL: vandermonde,
        ODD_ORTH: odd_rhs,
        SP: sp_rhs,
        EVEN_ORTH: even_rhs,
    }
    indices = tuple(range(1, n + 1))
    detail = {}
    lhs_parts = []
    rhs_parts = []
    for family in FAMILIES:
        delta = family_shift(family, n)
        lhs = det(char_matrix(family, delta, indices, n))
        rhs = rhs_by_family[family]
        detail[family] = lhs == rhs
        text = render(lhs)
        lhs_parts.append(text)
        rhs_parts.append(text if detail[family] else render(rhs))
    equal = all(detail.values())
    return VerifyReport(
        identity="denominators",
        mode="symbolic",
        equal=equal,
        lhs_hash=hash_parts(lhs_parts),
        rhs_hash=hash_parts(rhs_parts),
        n=n,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail=detail,
    )


def delta_prefactor(family, mu, n):
    """Denominator alternant at the variables a composition selects (the
    first mu_k of each group of n, iota(mu, n)), written as the closed
    product: single-variable factors for sp and odd-orth, and a
    difference-reflection factor for every pair, in selection order."""
    _require_family(family)
    nv = len(mu) * n
    sel = iota(mu, n)
    one = LaurentPoly.const(nv, 1)
    out = one

    def var(i, e2=2):
        return LaurentPoly.variable(nv, i, e2)

    if family == SP:
        for i in sel:
            out = out * (var(i) - var(i, -2))
    elif family == ODD_ORTH:
        for i in sel:
            out = out * (var(i, 1) - var(i, -1))
    for p, q in combinations(range(len(sel)), 2):
        u, v = sel[p], sel[q]
        if family == GL:
            out = out * (var(u) - var(v))
        else:
            out = out * (var(v) - var(u)) * (one - var(u) * var(v)) * var(u, -2) * var(v, -2)
    return out


def _pair_factor_value(family, u, v):
    if family == GL:
        return u - v
    return (v - u) * (1 - u * v) / (u * v)


def _delta_prefactor_value(family, mu, n, point):
    """delta_prefactor(family, mu, n).eval(point), a Fraction, taken
    factor by factor without building the polynomial."""
    values = [Fraction(point[i - 1]) for i in iota(mu, n)]
    out = Fraction(1)
    if family in (SP, ODD_ORTH):
        for x in values:
            root = x if family == SP else sqrt_fraction(x)
            out *= root - 1 / root
    for u, v in combinations(values, 2):
        out *= _pair_factor_value(family, u, v)
    return out


def rhs_pair_product(family, s, n, point):
    """Closed-form product over variable pairs from distinct groups, with
    the binomial exponent depending only on the in-group positions."""
    out = Fraction(1)
    for k in range(1, s + 1):
        for l in range(k + 1, s + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    e = binom_nonneg(s + n - i - j - 1, s - 2)
                    if e == 0:
                        continue
                    u = point[(k - 1) * n + i - 1]
                    v = point[(l - 1) * n + j - 1]
                    out *= _pair_factor_value(family, u, v) ** e
    return out


def _substitution_point(s, n, rng, retries=MAX_RETRIES):
    """Grid point of the shape (geometric in j) * (group constant), built
    from squared rationals so half powers stay rational."""
    for _ in range(retries):
        ratio = square_rational(rng, bits=8)
        group = [square_rational(rng, bits=16) for _ in range(s)]
        point = tuple(
            group[k] * ratio ** j for k in range(s) for j in range(n)
        )
        if point_is_admissible(point):
            return point
    raise ParameterError(f"no admissible substituted point after {retries} attempts")


def verify_theorem_schur(family, s, n, seed, substitution=False):
    """Numeric check of the character-grid determinant identity.

    Rows are the partitions inside the (s-1)^n box in decreasing
    lexicographic order, columns the head-heavy compositions of s into n
    parts; the entry is the family character at the partition, evaluated
    at the variables selected by the composition.  The determinant must
    equal the closed pair product.  A second, independent bookkeeping
    check ties the undivided alternant grid to the same determinant.
    """
    _require_family(family)
    if s < 1 or n < 1:
        raise UsageError("need positive s and n")
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    if substitution:
        point = _substitution_point(s, n, rng)
    else:
        point = sample_point(s * n, rng)

    rows = partitions_in_box(n, s - 1)
    cols = compositions(s, n)
    col_values = [tuple(point[i - 1] for i in iota(mu, n)) for mu in cols]

    matrix, raw = _character_grid(family, rows, col_values)
    lhs = det_fractions(matrix)
    rhs = rhs_pair_product(family, s, n, point)
    equal_main = lhs == rhs

    det_raw = det_fractions(raw)
    prefactor = Fraction(1)
    for mu in cols:
        prefactor *= _delta_prefactor_value(family, mu, n, point)
    two_power = 0
    if family == EVEN_ORTH:
        two_power = binom_nonneg(s + n - 2, n - 1)
    bookkeeping_ok = det_raw == lhs * prefactor * 2**two_power

    detail = {
        "family": family,
        "substitution": substitution,
        "bookkeeping_ok": bookkeeping_ok,
        "rows": len(rows),
    }
    if family == EVEN_ORTH:
        detail["two_power"] = two_power
    return VerifyReport(
        identity="schur-det",
        mode="numeric",
        equal=equal_main and bookkeeping_ok,
        lhs_hash=canonical_hash(render(lhs)),
        rhs_hash=canonical_hash(render(rhs)),
        s=s,
        n=n,
        seed=seed,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail=detail,
    )


def verify_prop_detS(kind, s, n, seed):
    """Numeric check of the single-alphabet determinant identity, up to a
    recorded global sign.

    Rows are the partitions inside the (s-n)^n box in decreasing
    lexicographic order, columns the n-element subsets of the s variables
    in lexicographic order; the entry is the character at the subset.
    """
    if kind not in (GL, SP):
        raise UsageError(f"kind must be {GL!r} or {SP!r}, got {kind!r}")
    if not 1 <= n <= s:
        raise UsageError("need 1 <= n <= s")
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    point = sample_point(s, rng)

    rows = partitions_in_box(n, s - n)
    cols = subsets_lex(s, n)
    col_values = [tuple(point[i - 1] for i in subset) for subset in cols]
    matrix, _ = _character_grid(kind, rows, col_values)
    lhs = det_fractions(matrix)

    base = Fraction(1)
    for i, j in combinations(range(s), 2):
        base *= _pair_factor_value(kind, point[i], point[j])
    exponent = comb(s - 2, n - 1) if s >= 2 else 0
    rhs = base**exponent

    if lhs == rhs:
        equal, sign = True, 1
    elif lhs == -rhs:
        equal, sign = True, -1
    else:
        equal, sign = False, None
    return VerifyReport(
        identity="prop12",
        mode="numeric",
        equal=equal,
        lhs_hash=canonical_hash(render(lhs)),
        rhs_hash=canonical_hash(render(rhs)),
        s=s,
        n=n,
        seed=seed,
        sign=sign,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail={"kind": kind, "exponent": exponent, "matrix_size": len(rows)},
    )
