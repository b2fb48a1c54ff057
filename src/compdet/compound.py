"""Compound matrices of minors and their determinant identities.

The central object: given an (s+n-1) x sn matrix A, form the square matrix
whose rows are indexed by n-subsets I of [s+n-1] (lex order), columns by
weight-n compositions mu with s parts (head-heavy order), and whose (I, mu)
entry is the minor det A^I restricted to the block-prefix columns of mu.
Its determinant factors as a product of maximal minors of A; the verifiers
here check that factorization and the pairing structure behind it, either
with fully symbolic entries or at exact random rational samples.

A is a list of rows (see compdet.pmatrix): Laurent polynomial entries in
symbolic mode, Fractions in numeric mode, so a numeric check runs on plain
rationals from sampling to hash.  Every construction here works on both.
Every minor here comes from pmatrix.minor_matrix: M, the n-th compound,
the complementary minors of vec_Vbar, each maximal minor of A and
sylvester's det A.
"""

from collections import Counter
from functools import reduce
from graphlib import CycleError, TopologicalSorter
from math import comb
from operator import mul

from .combin import (
    compositions,
    compositions_positive,
    epsilon,
    format_composition,
    format_subset,
    iota,
    partner_slots_colored,
    partner_slots_pinned,
    subsets_lex,
)
from .errors import CapabilityError, UsageError
from .laurent import LaurentPoly
from .pmatrix import det, minor_matrix, products, symbolic
from .report import run_check
from .sampling import random_rational

# (s, n) pairs with both s, n >= 2 where fully symbolic verification is
# affordable; one-dimensional families (s == 1 or n == 1) are always fine.
SYMBOLIC_CASES = {(2, 2), (2, 3), (3, 2)}
SYMBOLIC_LINE_CAP = 8


class CompoundSpec:
    """Shape bundle: parameters (s, n) and the rows of the (s+n-1) x sn
    matrix A."""

    __slots__ = ("s", "n", "A", "row_sets", "col_comps", "col_sets")

    def __init__(self, s, n, A):
        if s < 1 or n < 1:
            raise UsageError("s and n must be positive")
        if len(A) != s + n - 1 or any(len(row) != s * n for row in A):
            raise UsageError(
                f"matrix must be {s + n - 1} x {s * n} for s={s}, n={n}"
            )
        self.s = s
        self.n = n
        self.A = A
        self.row_sets = subsets_lex(s + n - 1, n)
        self.col_comps = compositions(s, n)
        self.col_sets = [iota(mu, n) for mu in self.col_comps]

    @classmethod
    def symbolic(cls, s, n):
        """All entries independent variables, row-major."""
        return cls(s, n, symbolic(s + n - 1, s * n))

    @classmethod
    def sampled(cls, s, n, rng):
        """Entries drawn as random rationals u/v with 16-bit u, v."""
        return cls(s, n, _random_matrix(s + n - 1, s * n, rng))


def _random_matrix(nrows, ncols, rng):
    """Rows of random Fractions u/v with u, v in 1..2^16, drawn row-major."""
    return [[random_rational(rng, 16) for _ in range(ncols)] for _ in range(nrows)]


def _maximal_minor(A, colset):
    """det A_colset over all the rows of A."""
    return minor_matrix(A, [tuple(range(1, len(A) + 1))], [colset])[0][0]


def vec_Vbar(spec, K):
    """Signed complementary minors: entry at I is
    (-1)^(sum(I) - n(n+1)/2) * det A^(complement of I)_K."""
    K = tuple(K)
    if len(K) != spec.s - 1:
        raise UsageError(f"column set must have {spec.s - 1} elements")
    full = set(range(1, spec.s + spec.n))
    base = spec.n * (spec.n + 1) // 2
    complements = [tuple(sorted(full - set(I))) for I in spec.row_sets]
    minors = minor_matrix(spec.A, complements, [K])
    return [-d if (sum(I) - base) % 2 else d for I, (d,) in zip(spec.row_sets, minors)]


def build_M(spec):
    """The compound matrix: rows I lex, columns mu head-heavy."""
    return minor_matrix(spec.A, spec.row_sets, spec.col_sets)


def gram_matrix(spec, partner_map):
    """T = transpose(M) * Mhat: the product of column lam of M with column
    mu of Mhat, the signed complementary minors vec_Vbar at partner_map[mu]."""
    M = build_M(spec)
    return products(
        list(zip(*M)), [vec_Vbar(spec, partner_map[mu]) for mu in spec.col_comps]
    )


def partner_map_for_variant(spec, k0=None):
    """The partner-column choice for the Gram verification: with k0 fixed,
    successor slots pinned at k0 (with the special rule for concentrated
    compositions); without, successor slots at each first maximal part."""
    if k0 is None:
        return {mu: partner_slots_colored(mu, spec.n) for mu in spec.col_comps}
    if not 1 <= k0 <= spec.s:
        raise UsageError(f"k must be in 1..{spec.s}")
    return {mu: partner_slots_pinned(mu, k0, spec.n) for mu in spec.col_comps}


def _support_is_triangular(pattern):
    """True when the digraph i -> j over the nonzero off-diagonal cells of
    a boolean matrix has no cycle, found by graphlib's topological sort
    (Kahn 1962).

    Then some order of the indices makes the support triangular.  With a
    zero-free diagonal this holds exactly when the identity is the only
    permutation inside the support: a cycle plus fixed points would be a
    second one."""
    indices = range(len(pattern))
    graph = {j: [i for i in indices if i != j and pattern[i][j]] for j in indices}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True


def check_symbolic_envelope(s, n):
    """Raise unless (s, n) is affordable fully symbolically."""
    if s == 1 or n == 1:
        if s + n - 1 > SYMBOLIC_LINE_CAP:
            raise CapabilityError(
                f"symbolic mode supports s+n-1 <= {SYMBOLIC_LINE_CAP} "
                "on the one-dimensional families"
            )
        return
    if (s, n) not in SYMBOLIC_CASES:
        supported = sorted(SYMBOLIC_CASES)
        raise CapabilityError(
            f"symbolic mode supports s=1, n=1, or (s,n) in {supported}; "
            f"got ({s},{n}) - use numeric mode"
        )


def _spec_for_mode(s, n, mode, rng):
    """The spec of a check, sampled from rng in numeric mode."""
    if s < 1 or n < 1:
        raise UsageError("s and n must be positive")
    if mode == "symbolic":
        check_symbolic_envelope(s, n)
        return CompoundSpec.symbolic(s, n)
    return CompoundSpec.sampled(s, n, rng)


def verify_main(s, n, mode="symbolic", seed=None):
    """det of the compound matrix equals the product of maximal minors of A
    over the all-parts-positive compositions of s+n-1."""

    def build(rng):
        spec = _spec_for_mode(s, n, mode, rng)
        M = build_M(spec)
        lhs = det(M)
        rhs_sets = [iota(nu, n) for nu in compositions_positive(s, s + n - 1)]
        rhs = reduce(mul, (_maximal_minor(spec.A, cols) for cols in rhs_sets))
        detail = {"rhs_factors": [format_subset(c) for c in rhs_sets]}
        return [lhs], [rhs], lambda flags: {"equal": flags[0], "detail": detail}

    return run_check("main", mode, seed, build, s=s, n=n)


SYLVESTER_SYMBOLIC_CAP = 4


def verify_sylvester(s, n, mode="symbolic", seed=None):
    """Classical compound identity for square A of size s:
    det(det A^I_J)_{I,J in n-subsets, lex} = (det A)^binom(s-1, n-1)."""

    def build(rng):
        if not 1 <= n <= s:
            raise UsageError("need s >= n >= 1")
        if mode == "symbolic":
            if s > SYLVESTER_SYMBOLIC_CAP:
                raise CapabilityError(
                    f"symbolic mode supports s <= {SYLVESTER_SYMBOLIC_CAP}; use numeric"
                )
            A = symbolic(s, s)
        else:
            A = _random_matrix(s, s, rng)
        subsets = subsets_lex(s, n)
        lhs = det(minor_matrix(A, subsets, subsets))
        rhs = _maximal_minor(A, range(1, s + 1)) ** comb(s - 1, n - 1)
        detail = {"exponent": comb(s - 1, n - 1)}
        return [lhs], [rhs], lambda flags: {"equal": flags[0], "detail": detail}

    return run_check("sylvester", mode, seed, build, s=s, n=n)


def verify_gram(s, n, k0=None, mode="symbolic", seed=None):
    """Check the pairing structure behind the compound factorization on a
    fresh matrix.

    Without k0 the partner slots are chosen by the first maximal part of
    each composition; with k0 they are pinned to that coordinate, with the
    special rule for the concentrated compositions.  Builds T =
    gram_matrix(spec, partner_map) and checks each entry:
    T[lam, mu] = epsilon(iota(lam), partner(mu)) * det A_(iota(lam) u partner(mu)),
    which also pins the zero pattern exactly.  The support of T must admit
    only the identity permutation, so that det T is literally the product
    of the diagonal entries, giving
    det T = sign * prod_mu det A_(iota(mu) u partner(mu))
    with sign the product of the diagonal epsilons.  A T whose support
    admits a second permutation is reported unequal: the predicted pattern
    has a zero-free diagonal and no cycle, and a support inside it has
    none either.
    """

    def build(rng):
        spec = _spec_for_mode(s, n, mode, rng)
        partner_map = partner_map_for_variant(spec, k0)
        T = gram_matrix(spec, partner_map)
        pattern = [[bool(cell) for cell in row] for row in T]
        union_dets = {}
        expected = []
        for J in spec.col_sets:
            for mu in spec.col_comps:
                K = partner_map[mu]
                sign = epsilon(J, K)
                if sign:
                    # J and K are disjoint
                    union = tuple(sorted(J + K))
                    if union not in union_dets:
                        union_dets[union] = _maximal_minor(spec.A, union)
                    expected.append(union_dets[union] * sign)
                else:
                    expected.append(0)

        def verdict(cell_ok):
            entries_ok = all(cell_ok)
            # A partner set never meets its own prefix: a successor slot lies
            # in its block just past the prefix, and the concentrated pinned
            # slots lie in blocks whose prefix is empty.  So every predicted
            # diagonal sign is +-1, and the diagonal holds up to its first
            # zero cell.
            diagonal = [row[i] for i, row in enumerate(pattern)]
            run = (diagonal + [False]).index(False)
            held = [(J, partner_map[mu]) for J, mu in zip(spec.col_sets[:run], spec.col_comps)]
            full = run == len(T)
            unique_support = full and _support_is_triangular(pattern)
            # det T is then its single surviving Leibniz term, the diagonal one
            equal = entries_ok and unique_support
            detail = {
                "variant": "pinned" if k0 is not None else "colored",
                "entry_identity_ok": entries_ok,
                "zero_pattern": ["".join("*" if c else "." for c in row) for row in pattern],
                "unique_support_permutation": unique_support,
                "det_method": "unique-support-permutation" if equal else None,
                "factor_multiplicity": Counter(format_subset(sorted(J + K)) for J, K in held),
            }
            if k0 is not None:
                detail["k"] = k0
            if not entries_ok:
                i, j = divmod(cell_ok.index(False), len(T))
                detail["first_bad_cell"] = [
                    format_composition(spec.col_comps[i]),
                    format_composition(spec.col_comps[j]),
                ]
            sign = reduce(mul, (epsilon(J, K) for J, K in held), 1) if full else None
            return {"equal": equal, "sign": sign, "detail": detail}

        return [c for row in T for c in row], expected, verdict

    return run_check("gram", mode, seed, build, s=s, n=n)


def verify_leading_term(s, n):
    """Specialize a_ij = x_j^(s+n-i) and compare the lex-leading term of the
    compound determinant with the predicted diagonal monomial, coefficient 1."""

    def build(_):
        check_symbolic_envelope(s, n)
        nv = s * n
        rows = [
            [LaurentPoly.variable(nv, j, 2 * (s + n - i)) for j in range(1, nv + 1)]
            for i in range(1, s + n)
        ]
        spec = CompoundSpec(s, n, rows)
        M = build_M(spec)
        d = det(M)
        expected_exps = [0] * nv
        for k in range(1, s + 1):
            for j in range(1, n + 1):
                expected_exps[(k - 1) * n + j - 1] = 2 * (s + 1 - k) * comb(s + n - j, s)
        lead_exps, lead_coeff = d.leading_term()
        expected = LaurentPoly.monomial(nv, 1, expected_exps)
        actual = LaurentPoly.monomial(nv, lead_coeff, list(lead_exps))
        return [actual], [expected], lambda flags: {"equal": flags[0]}

    return run_check("leading-term", "symbolic", None, build, s=s, n=n)
