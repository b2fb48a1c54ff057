"""Classical-group characters as exact alternant quotients.

Four families are supported, tagged "gl", "sp", "odd-orth" and "even-orth".
Each character is a quotient of two determinants built from power matrices
(x_i ** a_j), optionally folded with the reciprocal power.  Exponents are
integers or half-integers and are carried in half-units, as in
compdet.laurent: the stored int e2 stands for the exponent e2/2.  The
verifiers evaluate characters at exact rational points given by the square
roots r_i of their coordinates (compdet.sampling), so x_i**(e2/2) is the
integer power r_i**e2, as a Fraction; the symbolic character, a Laurent
polynomial, is a test oracle (tests/oracles.py).  Both rings share one
power-matrix builder, char_matrix, and one closed product form of the
denominator alternant, alternant_product (a pair factor per variable pair
times a single-variable factor).  Each takes the roots themselves, Fractions
or the Laurent roots x_i^(1/2) of symbolic_roots, and raises them with **;
the product starts from the zeroth power, so no ring's one is passed.
Numerically, every alternant of a grid is a maximal minor of one power
matrix per point, one row per exponent the grid uses and one column per
root, and one pmatrix.minor_matrix of it yields every numerator and each
column's denominator; the grid determinants go to pmatrix.det.

The verification entry points check the four denominator product formulas,
the determinant identity for the grid of characters evaluated at nested
variable subsets, and the smaller single-alphabet determinant identity.
"""

from fractions import Fraction
from itertools import combinations

from .combin import binom_nonneg, compositions, iota, partitions_in_box, subsets_lex
from .errors import CapabilityError, DomainError, ParameterError, UsageError
from .laurent import LaurentPoly
from .pmatrix import det, minor_matrix
from .report import run_check
from .sampling import (
    admissible_draw,
    point_is_admissible,
    random_rational,
    sample_point,
)

GL = "gl"
SP = "sp"
ODD_ORTH = "odd-orth"
EVEN_ORTH = "even-orth"
FAMILIES = (GL, SP, ODD_ORTH, EVEN_ORTH)

# Beyond this many variables the odd-orth and sp sides of denominators
# (n! * 2**n terms) no longer fit in memory.  n = 7 peaks at about 530 MB
# resident; at n = 8 each of those sides holds 10,321,920 terms, 16 times as
# many, so n = 8 would need about 8 GB (an estimate; it is not run).
DENOMINATORS_CAP = 7

# How each family folds the reciprocal power into a matrix entry.
_FOLD = {GL: "plain", SP: "minus", ODD_ORTH: "minus", EVEN_ORTH: "plus"}


def _require_family(family):
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}, expected one of {FAMILIES}")


def family_shift(family, n):
    """Staircase added to a partition before forming the numerator, in
    half-units: n entries falling by 2 from 2n for sp, 2n - 1 for odd-orth
    and 2n - 2 for gl and even-orth."""
    _require_family(family)
    top = {SP: 2 * n, ODD_ORTH: 2 * n - 1}.get(family, 2 * n - 2)
    return tuple(range(top, top - 2 * n, -2))


def _padded_partition(lam, n):
    lam = tuple(int(v) for v in lam)
    if len(lam) > n:
        raise DomainError(f"partition {lam} has more than {n} parts")
    if any(v < 0 for v in lam):
        raise DomainError(f"partition {lam} has a negative part")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise DomainError(f"{lam} is not weakly decreasing")
    return lam + (0,) * (n - len(lam))


def symbolic_roots(num_vars):
    """The roots x_i^(1/2), i = 1..num_vars, as num_vars-variable Laurent
    polynomials."""
    return tuple(LaurentPoly.variable(num_vars, i, 1) for i in range(1, num_vars + 1))


def char_matrix(family, alpha2, roots):
    """Power matrix of the family at the half-unit exponents alpha2, one row
    per root r and one column per exponent a2.  Entries are r**a2,
    r**a2 - r**-a2 or r**a2 + r**-a2 depending on the family fold, for
    Fraction roots or the Laurent roots of symbolic_roots."""
    _require_family(family)
    fold = _FOLD[family]
    rows = []
    for r in roots:
        row = []
        for a2 in alpha2:
            entry = r**a2
            if fold == "minus":
                entry = entry - r**-a2
            elif fold == "plus":
                entry = entry + r**-a2
            row.append(entry)
        rows.append(row)
    return rows


def character_value(family, lam, roots):
    """Character evaluated at the point whose coordinates are the squares
    of the rationals roots (ints or Fractions), as a Fraction."""
    point = tuple(map(Fraction, roots))
    return _character_grid(family, [lam], point, [range(1, len(point) + 1)])[0][0][0]


def _character_grid(family, partitions, point, col_sets):
    """Characters at each partition (rows) and at the roots of point on
    each column set (columns), as Fractions, with each column's denominator
    alternant: the cell at lambda is f_lambda times its numerator alternant
    over the denominator, f_lambda = 2 for an even-orth lambda with n
    nonzero parts and 1 otherwise.

    Every alternant is a minor of one power matrix, whose row r holds the
    point's entries at the r-th largest exponent the grid uses, one column
    per root.  delta and each lambda + delta sit on increasing row sets,
    so one minor_matrix on them gives each column's denominator and every
    numerator with no sign change.  On the verifiers' grids the exponents
    form one consecutive run.  Every column set has the same length n."""
    n = len(col_sets[0])
    padded = [_padded_partition(lam, n) for lam in partitions]
    delta = family_shift(family, n)
    alphas = [tuple(2 * lam[j] + delta[j] for j in range(n)) for lam in padded]
    exponents = sorted(set(delta).union(*alphas), reverse=True)
    row_of = {a: r for r, a in enumerate(exponents, 1)}
    power_rows = list(zip(*char_matrix(family, exponents, point)))
    row_sets = [tuple(row_of[a] for a in alpha) for alpha in (delta, *alphas)]
    denominators, *numerators = minor_matrix(power_rows, row_sets, col_sets)
    if 0 in denominators:
        raise ParameterError("character denominator vanished at the sample point")
    grid = []
    for lam, row in zip(padded, numerators):
        factor = 2 if family == EVEN_ORTH and lam[n - 1] != 0 else 1
        grid.append([factor * t / d for t, d in zip(row, denominators)])
    return grid, denominators


def _single_factor(family, r):
    """x^(1/2) - x^(-1/2) for odd-orth, x - 1/x for sp, at the root r of x."""
    e2 = 1 if family == ODD_ORTH else 2
    return r**e2 - r**-e2


def _pair_factor(family, u, v):
    """x - y for gl, (y - x)(1 - xy)/(xy) for the folded families, at the
    roots u of x and v of y."""
    if family == GL:
        return u**2 - v**2
    uv = u**2 * v**2
    return (v**2 - u**2) * (1 - uv) * u**-2 * v**-2


def alternant_product(family, roots):
    """Closed product form of the denominator alternant
    det char_matrix(family, family_shift(family, len(roots)), roots): the
    pair factor over every pair of roots in order, then for sp and odd-orth
    the single factor of each root.  The even-orth alternant is twice this
    product, the pair product alone.  The product starts from roots[0]**0,
    the one of the roots' ring, so roots must not be empty."""
    _require_family(family)
    if not roots:
        raise UsageError("need at least one root")
    out = roots[0] ** 0
    for u, v in combinations(roots, 2):
        out = out * _pair_factor(family, u, v)
    if family in (SP, ODD_ORTH):
        for r in roots:
            out = out * _single_factor(family, r)
    return out


def denominator_products(n):
    """The closed products of the four denominator alternants in n
    variables, by family, even-orth's doubled: the right-hand sides of
    verify_denominators.

    The gl product is the Vandermonde.  The folded pair factor
    (v - u)(1 - uv)/(uv) is y_u - y_v at y = x + 1/x, so the pair product
    is the Vandermonde with each power x_i^a replaced by y_i^a, and the sp
    product, the pair product times x_i - 1/x_i for each i, replaces it by
    (x_i - 1/x_i) y_i^a.  Odd-orth multiplies the pair product by its
    single factors x_i^(1/2) - x_i^(-1/2) one at a time.

    Under the reflection x_i -> 1/x_i, y_i is fixed and both single
    factors change sign, so the pair product is invariant under each
    reflection and the sp and odd-orth products change sign.  Each is
    therefore fixed by its terms with every exponent >= 0, and those are
    all that is built: each substitution image is cut to its terms with
    x_i-exponent >= 0 (the rest of a term holds no x_i), and each odd-orth
    step keeps the product's terms with x_i-exponent >= 0, which come only
    from terms of the previous step with x_i-exponent >= 0.
    LaurentPoly.unfold then mirrors each side into all of its n! * 2**n
    terms.  At n = 6 the four sides take 73,247 term products."""
    roots = symbolic_roots(n)
    gl = alternant_product(GL, roots)
    pairs = sp = gl
    for i, r in enumerate(roots, 1):
        y = r**2 + r**-2
        single = _single_factor(SP, r)
        pairs = pairs.substitute(i, lambda e2: (y ** (e2 // 2)).nonnegative(i))
        sp = sp.substitute(i, lambda e2: (single * y ** (e2 // 2)).nonnegative(i))
    odd = pairs
    for i, r in enumerate(roots, 1):
        odd = (odd * _single_factor(ODD_ORTH, r)).nonnegative(i)
    return {GL: gl, SP: sp.unfold(-1), ODD_ORTH: odd.unfold(-1), EVEN_ORTH: (pairs * 2).unfold(1)}


def verify_denominators(n):
    """Check the four closed product formulas for the alternant
    denominators in n variables, exactly."""

    def build(_):
        if n > DENOMINATORS_CAP:
            raise CapabilityError(f"denominators supports n <= {DENOMINATORS_CAP}")
        if n < 1:
            raise UsageError("need at least one variable")
        roots = symbolic_roots(n)
        rhs_by_family = denominator_products(n)
        lhs = [det(char_matrix(f, family_shift(f, n), roots)) for f in FAMILIES]
        rhs = [rhs_by_family[f] for f in FAMILIES]

        def verdict(flags):
            return {"equal": all(flags), "detail": dict(zip(FAMILIES, flags))}

        return lhs, rhs, verdict

    return run_check("denominators", "symbolic", None, build, n=n)


def rhs_pair_product(family, s, n, point):
    """Closed-form product over variable pairs from distinct groups, with
    the binomial exponent depending only on the in-group positions; point
    holds the square roots of the coordinates."""
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
                    out *= _pair_factor(family, u, v) ** e
    return out


def nested_subset_grid(s, n):
    """Rows and columns of the grids on nested variable subsets of s
    groups of n variables: the partitions inside the (s-1)^n box in
    decreasing lexicographic order, and for each head-heavy composition mu
    of n into s parts the 1-based column set iota(mu, n) of the variables
    at which its column is evaluated."""
    return partitions_in_box(n, s - 1), [iota(mu, n) for mu in compositions(s, n)]


def _substitution_point(s, n, rng):
    """Roots of a grid point of the shape (geometric in j) * (group
    constant); the roots have the same shape."""

    def draw():
        ratio = random_rational(rng, 8)
        group = [random_rational(rng, 16) for _ in range(s)]
        return tuple(group[k] * ratio**j for k in range(s) for j in range(n))

    return admissible_draw(draw, point_is_admissible, "substituted point")


def verify_theorem_schur(family, s, n, seed, substitution=False):
    """Numeric check of the character-grid determinant identity.

    Rows and columns are those of nested_subset_grid; the entry is the
    family character at the row partition, evaluated at the roots of the
    column's variables.  The determinant must
    equal the closed pair product.  The bookkeeping check asks each
    column's denominator alternant to equal alternant_product, doubled for
    even-orth.  Since each cell is f_lambda times a numerator alternant over
    its column's denominator, that fixes the determinant of the undivided
    alternant grid at det grid * prod alternant_product * 2^two_power
    (2^two_power * prod f_lambda = 2^(number of columns) for even-orth).
    """

    def build(rng):
        _require_family(family)
        if s < 1 or n < 1:
            raise UsageError("need positive s and n")
        if substitution:
            point = _substitution_point(s, n, rng)
        else:
            point = sample_point(s * n, rng)

        rows, col_sets = nested_subset_grid(s, n)
        matrix, denominators = _character_grid(family, rows, point, col_sets)
        lhs = det(matrix)
        rhs = rhs_pair_product(family, s, n, point)

        two = 2 if family == EVEN_ORTH else 1
        bookkeeping_ok = all(
            den == two * alternant_product(family, [point[i - 1] for i in J])
            for den, J in zip(denominators, col_sets)
        )

        detail = {
            "family": family,
            "substitution": substitution,
            "bookkeeping_ok": bookkeeping_ok,
            "rows": len(rows),
        }
        if family == EVEN_ORTH:
            detail["two_power"] = binom_nonneg(s + n - 2, n - 1)

        def verdict(flags):
            return {"equal": flags[0] and bookkeeping_ok, "detail": detail}

        return [lhs], [rhs], verdict

    return run_check("schur-det", "numeric", seed, build, s=s, n=n)


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

    def build(rng):
        if kind not in (GL, SP):
            raise UsageError(f"prop12 supports the {GL} and {SP} families, got {kind!r}")
        if not 1 <= n <= s:
            raise UsageError("need 1 <= n <= s")
        point = sample_point(s, rng)

        rows = partitions_in_box(n, s - n)
        matrix, _ = _character_grid(kind, rows, point, subsets_lex(s, n))
        lhs = det(matrix)

        # the pair product alone: even-orth's closed product has no single factors
        pair_family = GL if kind == GL else EVEN_ORTH
        base = alternant_product(pair_family, point)
        exponent = binom_nonneg(s - 2, n - 1)
        rhs = base**exponent

        def verdict(flags):
            (equal,) = flags
            sign = 1 if equal else -1 if lhs == -rhs else None
            detail = {"kind": kind, "exponent": exponent, "matrix_size": len(rows)}
            return {"equal": equal, "sign": sign, "detail": detail}

        return [lhs], [rhs], verdict

    return run_check("prop12", "numeric", seed, build, s=s, n=n)
