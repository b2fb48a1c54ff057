"""Classical-group characters as exact alternant quotients.

Four families are supported, tagged "gl", "sp", "odd-orth" and "even-orth".
Each character is a quotient of two determinants built from power matrices
(x_i ** a_j), optionally folded with the reciprocal power.  The verifiers
evaluate characters at exact rational points, as Fractions; the symbolic
character, a Laurent polynomial, is a test oracle (tests/oracles.py).
Both rings share one power-matrix builder, char_matrix, and one closed
product form of the denominator alternant, alternant_product (a pair factor
per variable pair times a single-variable factor); each takes a power
function, pow_stored on rational values or variable_power on variable
indices.  Numerically, all the alternants at one tuple of values are maximal
minors of a single power matrix, one row per exponent they use, and one
pmatrix.minor_table of it yields every numerator and the denominator; the
grid determinants go to pmatrix.det.

The verification entry points check the four denominator product formulas,
the determinant identity for the grid of characters evaluated at nested
variable subsets, and the smaller single-alphabet determinant identity.
"""

import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

from .combin import binom_nonneg, compositions, iota, partitions_in_box, subsets_lex
from .errors import CapabilityError, DomainError, ParameterError, UsageError
from .laurent import LaurentPoly, pow_stored
from .pmatrix import det, minor_table
from .report import VerifyReport, compare_sides
from .sampling import (
    MAX_RETRIES,
    SplitMix64,
    point_is_admissible,
    sample_point,
    sample_seed,
    square_rational,
)

GL = "gl"
SP = "sp"
ODD_ORTH = "odd-orth"
EVEN_ORTH = "even-orth"
FAMILIES = (GL, SP, ODD_ORTH, EVEN_ORTH)

# Beyond this many variables the odd-orth and sp sides of denominators
# (n! * 2**n terms) no longer fit in memory.
DENOMINATORS_CAP = 7

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


def variable_power(num_vars):
    """The power of char_matrix and alternant_product over num_vars-variable
    Laurent polynomials: (i, e2) -> x_i^(e2/2) for a variable index i."""
    return partial(LaurentPoly.variable, num_vars)


def char_matrix(family, alpha, xs, power):
    """Power matrix of the family at exponents alpha, one row per coordinate
    x in xs and one column per exponent a.  Entries are x**a, x**a - x**-a
    or x**a + x**-a depending on the family fold, with power(x, e2) raising
    x to the stored half-unit exponent e2: pow_stored over rational values,
    variable_power(num_vars) over variable indices."""
    _require_family(family)
    fold = _FOLD[family]
    exponents = [_stored_exponent(a) for a in alpha]
    rows = []
    for x in xs:
        row = []
        for a2 in exponents:
            entry = power(x, a2)
            if fold == "minus":
                entry = entry - power(x, -a2)
            elif fold == "plus":
                entry = entry + power(x, -a2)
            row.append(entry)
        rows.append(row)
    return rows


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
        power_rows = list(zip(*char_matrix(family, exponents, values, pow_stored)))
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


def _single_factor(family, x, power):
    """x^(1/2) - x^(-1/2) for odd-orth, x - 1/x for sp."""
    e2 = 1 if family == ODD_ORTH else 2
    return power(x, e2) - power(x, -e2)


def _pair_factor(family, u, v, power, one):
    """u - v for gl, (v - u)(1 - uv)/(uv) for the folded families."""
    if family == GL:
        return power(u, 2) - power(v, 2)
    uv = power(u, 2) * power(v, 2)
    return (power(v, 2) - power(u, 2)) * (one - uv) * power(u, -2) * power(v, -2)


def alternant_product(family, xs, power, one):
    """Closed product form of the denominator alternant
    det char_matrix(family, family_shift(family, len(xs)), xs, power): the
    pair factor over every pair of xs in order, then for sp and odd-orth the
    single factor of each x.  The even-orth alternant is twice this product,
    the pair product alone.  one is the one of power's ring."""
    _require_family(family)
    out = one
    for u, v in combinations(xs, 2):
        out = out * _pair_factor(family, u, v, power, one)
    if family in (SP, ODD_ORTH):
        for x in xs:
            out = out * _single_factor(family, x, power)
    return out


def verify_denominators(n):
    """Check the four closed product formulas for the alternant
    denominators in n variables, exactly."""
    if n > DENOMINATORS_CAP:
        raise CapabilityError(f"denominators supports n <= {DENOMINATORS_CAP}")
    if n < 1:
        raise UsageError("need at least one variable")
    t0 = time.perf_counter()
    xs = range(1, n + 1)
    power = variable_power(n)
    one = LaurentPoly.const(n, 1)
    # sp, odd-orth and even-orth share the pair product; the single factors
    # go into it one two-term product at a time
    pairs = alternant_product(EVEN_ORTH, xs, power, one)
    rhs_by_family = {GL: alternant_product(GL, xs, power, one), EVEN_ORTH: pairs * 2}
    for family in (SP, ODD_ORTH):
        rhs = pairs
        for x in xs:
            rhs = rhs * _single_factor(family, x, power)
        rhs_by_family[family] = rhs
    lhs = [det(char_matrix(f, family_shift(f, n), xs, power)) for f in FAMILIES]
    flags, lhs_hash, rhs_hash = compare_sides(lhs, [rhs_by_family[f] for f in FAMILIES])
    return VerifyReport(
        identity="denominators",
        mode="symbolic",
        equal=all(flags),
        lhs_hash=lhs_hash,
        rhs_hash=rhs_hash,
        n=n,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail=dict(zip(FAMILIES, flags)),
    )


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
                    out *= _pair_factor(family, u, v, pow_stored, 1) ** e
    return out


def _substitution_point(s, n, rng):
    """Grid point of the shape (geometric in j) * (group constant), built
    from squared rationals so half powers stay rational."""
    for _ in range(MAX_RETRIES):
        ratio = square_rational(rng, bits=8)
        group = [square_rational(rng, bits=16) for _ in range(s)]
        point = tuple(
            group[k] * ratio ** j for k in range(s) for j in range(n)
        )
        if point_is_admissible(point):
            return point
    raise ParameterError(
        f"no admissible substituted point after {MAX_RETRIES} attempts"
    )


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
    seed = sample_seed("numeric", seed)
    rng = SplitMix64(seed)
    if substitution:
        point = _substitution_point(s, n, rng)
    else:
        point = sample_point(s * n, rng)

    rows = partitions_in_box(n, s - 1)
    cols = compositions(s, n)
    col_values = [tuple(point[i - 1] for i in iota(mu, n)) for mu in cols]

    matrix, raw = _character_grid(family, rows, col_values)
    lhs = det(matrix)
    rhs = rhs_pair_product(family, s, n, point)
    (equal_main,), lhs_hash, rhs_hash = compare_sides([lhs], [rhs])

    det_raw = det(raw)
    prefactor = Fraction(1)
    for values in col_values:
        prefactor *= alternant_product(family, values, pow_stored, Fraction(1))
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
        lhs_hash=lhs_hash,
        rhs_hash=rhs_hash,
        s=s,
        n=n,
        seed=seed,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail=detail,
    )


def verify_prop_detS(kind, s, n, seed):
    """Numeric check of the single-alphabet determinant identity, sign
    included.

    Rows are the partitions inside the (s-n)^n box in decreasing
    lexicographic order, columns the n-element subsets of the s variables
    in lexicographic order; the entry is the character at the subset.  In
    these orders the determinant equals the power of the pair product
    exactly, so a grid with permuted rows or columns fails.  The report's
    sign is the observed ratio of the two sides: 1, -1, or None when they
    differ by more than a sign.
    """
    if kind not in (GL, SP):
        raise UsageError(f"prop12 supports the {GL} and {SP} families, got {kind!r}")
    if not 1 <= n <= s:
        raise UsageError("need 1 <= n <= s")
    t0 = time.perf_counter()
    seed = sample_seed("numeric", seed)
    point = sample_point(s, SplitMix64(seed))

    rows = partitions_in_box(n, s - n)
    cols = subsets_lex(s, n)
    col_values = [tuple(point[i - 1] for i in subset) for subset in cols]
    matrix, _ = _character_grid(kind, rows, col_values)
    lhs = det(matrix)

    # the pair product alone: even-orth's closed product has no single factors
    pair_family = GL if kind == GL else EVEN_ORTH
    base = alternant_product(pair_family, point, pow_stored, Fraction(1))
    exponent = comb(s - 2, n - 1) if s >= 2 else 0
    rhs = base**exponent

    (equal,), lhs_hash, rhs_hash = compare_sides([lhs], [rhs])
    sign = 1 if equal else -1 if lhs == -rhs else None
    return VerifyReport(
        identity="prop12",
        mode="numeric",
        equal=equal,
        lhs_hash=lhs_hash,
        rhs_hash=rhs_hash,
        s=s,
        n=n,
        seed=seed,
        sign=sign,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        detail={"kind": kind, "exponent": exponent, "matrix_size": len(rows)},
    )
