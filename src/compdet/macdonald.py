"""Two-parameter symmetric functions with concrete rational parameters.

The basis is built by Gram-Schmidt in power-sum coordinates, where the
inner product is diagonal: p_rho has norm z_rho times the product of
(1 - q**part) / (1 - t**part).  Each vector starts from a product of
elementary symmetric functions, written in power sums by the generating
formula for e_k (Macdonald, Symmetric Functions and Hall Polynomials,
ch. I §2).  The basis stays in power sums: P_lam is the sum of c_rho p_rho
(ibid., ch. VI), and it is evaluated at a point from the power sums of the
point.  Everything is exact Fraction arithmetic; q and t are concrete
rationals, never indeterminates, so each basis is a small cacheable table
per weight.

The verification entry point evaluates the basis on nested variable
subsets, takes the determinant of the resulting grid, and compares it with
the closed product forms, for both the monic and the dual normalization.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .characters import GL, nested_subset_grid, rhs_pair_product
from .combin import conjugate, partitions_of
from .errors import CapabilityError, ParameterError, UsageError
from .pmatrix import _cleared, det
from .report import run_check
from .sampling import qt_is_admissible, sample_point, sample_qt

# Bases are cached per weight, for one (q, t) at a time.  Weights 10 and
# 12 reach `macdonald (6,2)`, `(3,5)` and `(4,4)`, whose reports render
# integers past Python's int-to-str digit limit.
MAX_WEIGHT = 8


def _normalize_partition(lam):
    lam = tuple(int(v) for v in lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(v <= 0 for v in lam):
        raise UsageError(f"{lam} is not a partition")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise UsageError(f"{lam} is not weakly decreasing")
    return lam


def z_lambda(lam):
    """Centralizer size: product of part**count * count! over part values."""
    lam = _normalize_partition(lam)
    out = 1
    for part in set(lam):
        count = lam.count(part)
        out *= part**count * factorial(count)
    return out


def pochhammer(a, x, k):
    """Finite product (1 - a)(1 - a*x)...(1 - a*x**(k-1))."""
    if k < 0:
        raise UsageError("pochhammer length must be non-negative")
    out = Fraction(1)
    a = Fraction(a)
    x = Fraction(x)
    for i in range(k):
        out *= 1 - a * x**i
    return out


def b_lambda(lam, q, t):
    """Cellwise arm-leg product relating the two normalizations."""
    lam = _normalize_partition(lam)
    q = Fraction(q)
    t = Fraction(t)
    conj = conjugate(lam)
    out = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - (j + 1)
            leg = conj[j] - (i + 1)
            den = 1 - q ** (arm + 1) * t**leg
            if den == 0:
                raise ParameterError("degenerate parameters in cell product")
            out *= (1 - q**arm * t ** (leg + 1)) / den
    return out


def inner_product_p(lam, mu, q, t):
    """Inner product of two power-sum basis elements: diagonal, with weight
    z_lambda times the product of (1 - q**part) / (1 - t**part)."""
    lam = _normalize_partition(lam)
    mu = _normalize_partition(mu)
    if lam != mu:
        return Fraction(0)
    q = Fraction(q)
    t = Fraction(t)
    norm = Fraction(z_lambda(lam))
    for part in lam:
        den = 1 - t**part
        if den == 0:
            raise ParameterError("inner product degenerates at this t")
        norm *= Fraction(1 - q**part, 1) / den
    return norm


@lru_cache(maxsize=None)
def _product_in_p(parts):
    """Product of e_k over the parts k, in power sums: a dict mapping
    partitions rho to the Fraction coefficient of p_rho.

    Uses e_k = sum over rho of eps_rho p_rho / z_rho, with
    eps_rho = (-1)**(k - len(rho)), and p_rho p_sigma = p_(rho u sigma)."""
    if not parts:
        return {(): Fraction(1)}
    head = _product_in_p(parts[:-1])
    k = parts[-1]
    out = {}
    for rho in partitions_of(k):
        c = Fraction((-1) ** (k - len(rho)), z_lambda(rho))
        for sigma, d in head.items():
            key = tuple(sorted(sigma + rho, reverse=True))
            out[key] = out.get(key, 0) + c * d
    return out


@lru_cache(maxsize=MAX_WEIGHT)
def _basis_for_weight(weight, q, t):
    """Monic basis of one weight, as power-sum dicts keyed by partition.

    Gram-Schmidt runs on power-sum vectors, where the inner product is
    diagonal, over the partitions in ascending lex order, which extends
    dominance order.  The vector for lam starts from e_(lam'), which is
    m_lam plus terms lower in dominance, hence earlier in that order; so it
    spans the same flag as m_lam and leaves the same residual."""
    plist = partitions_of(weight)[::-1]
    norms_p = [inner_product_p(rho, rho, q, t) for rho in plist]

    def pair(f, g):
        return sum(a * b * w for a, b, w in zip(f, g, norms_p))

    done = []
    basis = {}
    for lam in plist:
        vec = _product_in_p(conjugate(lam))
        start = [vec.get(rho, 0) for rho in plist]
        f = start
        for g, norm in done:
            c = pair(start, g) / norm
            if c:
                f = [a - c * b for a, b in zip(f, g)]
        norm = pair(f, f)
        if norm == 0:
            raise ParameterError("isotropic basis vector; unusable parameters")
        done.append((f, norm))
        basis[lam] = {rho: c for rho, c in zip(plist, f) if c}
    return basis


def macdonald_P(lam, q, t):
    """Monic basis element at concrete parameters, in power sums.

    Returns a dict mapping partitions rho to the Fraction coefficient of
    p_rho.  Weight is capped at MAX_WEIGHT.
    """
    lam = _normalize_partition(lam)
    weight = sum(lam)
    if weight == 0:
        return {(): Fraction(1)}
    if weight > MAX_WEIGHT:
        raise CapabilityError(f"weight {weight} exceeds the cap of {MAX_WEIGHT}")
    q = Fraction(q)
    t = Fraction(t)
    return dict(_basis_for_weight(weight, q, t)[lam])


def evaluate_symfunc(pdict, values):
    """Evaluate a homogeneous power-sum vector at explicit rational values.

    The values are cleared once by the lcm D of their denominators, so
    p_k = N_k / D**k with integer N_k, and the coefficients once by the lcm
    C of theirs; every term of the vector's weight w is then an integer
    over C * D**w: one integer sum, divided by C * D**w once."""
    scale, ints = _cleared(values)
    coeff_scale, coeffs = _cleared(list(pdict.values()))
    weight = sum(next(iter(pdict), ()))
    psums = [sum(x**k for x in ints) for k in range(weight + 1)]
    total = sum(c * prod(psums[k] for k in rho) for rho, c in zip(pdict, coeffs))
    return Fraction(total, coeff_scale * scale**weight)


def printed_prefactor(s, n, q, t):
    """Closed-form scalar printed in front of the dual-normalization
    product: a ratio of four finite pochhammer products.

    It equals b_lambda of the full (s-1)^n rectangle alone: for each arm
    the product over legs telescopes, and the product over arms collapses
    to this ratio.  So it matches the product of cell factors over all
    non-empty row partitions only when the box holds at most one of them,
    that is s == 1 or (s, n) == (2, 1); elsewhere the gap is the product
    of b_lambda over the other non-empty row partitions."""
    q = Fraction(q)
    t = Fraction(t)
    num = pochhammer(t**n, q, s - 1) * pochhammer(t, t, n - 1)
    den = pochhammer(q, q, s - 1) * pochhammer(t * q ** (s - 1), t, n - 1)
    if den == 0:
        raise ParameterError("prefactor denominator vanishes at these parameters")
    return num / den


def verify_corollary_macdonald(s, n, seed, q=None, t=None):
    """Numeric check of the determinant identities for the two-parameter
    basis evaluated on nested variable subsets.

    Four sub-results are reported: the monic identity, the dual identity
    with the printed scalar, the claim that the printed scalar equals the
    product of cell factors over the row partitions, and the dual identity
    with that product instead.  The overall flag is the conjunction of the
    two claims as printed.

    The dual determinant is the monic one times the cell product, the
    product of b_lambda over the rows, so q_equal_bproduct is p_equal
    scaled by that nonzero product; only these two hold at every size.
    The printed scalar is the cell factor of the (s-1)^n rectangle alone
    (see printed_prefactor), so the two printed claims, and with them the
    overall flag, hold only for s == 1 or (s, n) == (2, 1).
    """

    def build(rng):
        if s < 1 or n < 1:
            raise UsageError("need positive s and n")
        if (q is None) != (t is None):
            raise UsageError("provide both parameters or neither")
        max_weight = (s - 1) * n
        if max_weight > MAX_WEIGHT:
            raise CapabilityError(
                f"row partitions reach weight {max_weight}, above the cap of {MAX_WEIGHT}"
            )
        if q is None:
            qt = sample_qt(rng)
        else:
            qt = Fraction(q), Fraction(t)
            if not qt_is_admissible(*qt):
                raise ParameterError("parameters must lie strictly in (0, 1) and differ")
        point = sample_point(s * n, rng)

        rows, col_sets = nested_subset_grid(s, n)
        col_values = [tuple(point[i - 1] ** 2 for i in J) for J in col_sets]
        p_rows = [macdonald_P(lam, *qt) for lam in rows]
        p_grid = [[evaluate_symfunc(row, values) for values in col_values] for row in p_rows]
        # Q_lam = b_lam * P_lam scales row lam of the grid, so by multilinearity
        # the Q grid's determinant is the P grid's times the cell product
        b_product = prod((b_lambda(lam, *qt) for lam in rows), start=Fraction(1))
        det_p = det(p_grid)
        det_q = b_product * det_p
        # the gl pair factor at roots u, v is u**2 - v**2, the coordinates'
        # difference
        rhs = rhs_pair_product(GL, s, n, point)
        printed = printed_prefactor(s, n, *qt)

        def verdict(flags):
            p_equal, q_equal_printed_prefactor = flags
            detail = {
                "p_equal": p_equal,
                "q_equal_printed_prefactor": q_equal_printed_prefactor,
                "prefactor_identity": b_product == printed,
                # det_q is b_product * det_p, and no cell factor vanishes
                "q_equal_bproduct": p_equal,
                "q": qt[0],
                "t": qt[1],
                "printed_prefactor": printed,
                "cell_product": b_product,
            }
            return {"equal": p_equal and q_equal_printed_prefactor, "detail": detail}

        return [det_p, det_q], [rhs, printed * rhs], verdict

    return run_check("macdonald", "numeric", seed, build, s=s, n=n)
