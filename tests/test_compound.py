"""Compound matrices: minor vectors, expansion pairings, factorizations."""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import dominated_except, laplace_pair, vec_V
from oracles import support_permutation_count

from compdet import cli, compound, pmatrix
from compdet.combin import (
    compositions,
    epsilon,
    format_composition,
    iota,
    partner_slots_pinned,
    subsets_lex,
    successor_slots,
)
from compdet.compound import (
    CompoundSpec,
    SYMBOLIC_CASES,
    _support_is_triangular,
    build_M,
    check_symbolic_envelope,
    partner_map_for_variant,
    vec_Vbar,
    verify_gram,
    verify_leading_term,
    verify_main,
    verify_sylvester,
)
from compdet.errors import CapabilityError, DomainError, UsageError
from compdet.laurent import LaurentPoly
from compdet.pmatrix import det, det_fractions, minor, symbolic
from compdet.sampling import SplitMix64


def full_rows(spec):
    return tuple(range(1, spec.s + spec.n))


def maximal_minor(spec, cols):
    return det(minor(spec.A, full_rows(spec), cols))


def test_spec_shape_validation():
    with pytest.raises(UsageError):
        CompoundSpec(2, 2, symbolic(3, 3), LaurentPoly.const(9, 1))
    spec = CompoundSpec.symbolic(2, 2)
    assert len(spec.A) == 3 and all(len(row) == 4 for row in spec.A)
    assert spec.row_sets == subsets_lex(3, 2)
    assert spec.col_sets == [(1, 2), (1, 3), (3, 4)]


def test_minor_vector_validation():
    spec = CompoundSpec.symbolic(2, 2)
    with pytest.raises(UsageError):
        vec_V(spec, (1,))
    with pytest.raises(UsageError):
        vec_Vbar(spec, (1, 2))


def test_complementary_vector_sign_sequence():
    # offsets sum(I) - n(n+1)/2 over the six row pairs of a 4-line matrix
    spec = CompoundSpec.symbolic(3, 2)
    K = (4, 6)
    signs = []
    for I, entry in zip(spec.row_sets, vec_Vbar(spec, K)):
        comp = tuple(sorted(set(range(1, 5)) - set(I)))
        d = det(minor(spec.A, comp, K))
        if entry == d:
            signs.append(1)
        elif entry == -d:
            signs.append(-1)
        else:
            raise AssertionError("entry is not the complementary minor up to sign")
    assert signs == [1, -1, 1, 1, -1, 1]


def test_expansion_pairing_worked_case():
    spec = CompoundSpec.symbolic(3, 2)
    J, K = (1, 3), (4, 6)
    union = tuple(sorted(set(J) | set(K)))
    expected = maximal_minor(spec, union)
    assert epsilon(J, K) == 1
    assert laplace_pair(spec, J, K) == expected


def test_expansion_pairing_exhaustive_small():
    spec = CompoundSpec.symbolic(3, 2)
    vs = {J: vec_V(spec, J) for J in subsets_lex(6, 2)}
    vbars = {K: vec_Vbar(spec, K) for K in subsets_lex(6, 2)}
    for J, v in vs.items():
        for K, w in vbars.items():
            total = None
            for a, b in zip(v, w):
                term = a * b
                total = term if total is None else total + term
            sign = epsilon(J, K)
            if sign == 0:
                assert not total
            else:
                union = tuple(sorted(set(J) | set(K)))
                assert total == maximal_minor(spec, union) * sign


def test_partner_overlap_forces_combinatorial_zero():
    # whenever lam exceeds mu somewhere off the pinned slot, the partner
    # slots collide with the prefix slots of lam
    for s in range(2, 6):
        for n in range(2, 6):
            for k in range(1, s + 1):
                for mu in compositions(s, n):
                    if mu[k - 1] == 0:
                        continue
                    slots = successor_slots(mu, k, n)
                    for lam in compositions(s, n):
                        if not dominated_except(lam, mu, k):
                            assert set(iota(lam, n)) & set(slots)


def _pairing_zero_cases(spec, use_pinned_table=False):
    checked = 0
    vbar_cache = {}
    v_cache = {lam: vec_V(spec, iota(lam, spec.n)) for lam in spec.col_comps}
    for k in range(1, spec.s + 1):
        for mu in spec.col_comps:
            if mu[k - 1] == 0:
                continue
            slots = (
                partner_slots_pinned(mu, k, spec.n)
                if use_pinned_table
                else successor_slots(mu, k, spec.n)
            )
            if slots not in vbar_cache:
                vbar_cache[slots] = vec_Vbar(spec, slots)
            w = vbar_cache[slots]
            for lam in spec.col_comps:
                if dominated_except(lam, mu, k):
                    continue
                v = v_cache[lam]
                total = None
                for a, b in zip(v, w):
                    term = a * b
                    total = term if total is None else total + term
                assert total == 0
                checked += 1
    return checked


def test_pairing_vanishes_outside_dominance_symbolic():
    for s, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        spec = CompoundSpec.symbolic(s, n)
        assert _pairing_zero_cases(spec) > 0


def test_pairing_vanishes_outside_dominance_numeric():
    rng = SplitMix64(424242)
    for s, n in [(4, 2), (2, 4), (4, 3), (3, 4), (4, 4)]:
        spec = CompoundSpec.sampled(s, n, rng)
        assert _pairing_zero_cases(spec) > 0


def test_expansion_pairing_exhaustive_numeric_small_sizes():
    # every (J, K) pair, including the empty K column set when s == 1
    rng = SplitMix64(2026)
    for s in range(1, 4):
        for n in range(1, 4):
            spec = CompoundSpec.sampled(s, n, rng)
            vs = {J: vec_V(spec, J) for J in subsets_lex(s * n, n)}
            vbars = {K: vec_Vbar(spec, K) for K in subsets_lex(s * n, s - 1)}
            for J, v in vs.items():
                for K, w in vbars.items():
                    total = None
                    for a, b in zip(v, w):
                        term = a * b
                        total = term if total is None else total + term
                    sign = epsilon(J, K)
                    if sign == 0:
                        assert total == 0
                    else:
                        union = tuple(sorted(set(J) | set(K)))
                        assert total == maximal_minor(spec, union) * sign


def test_main_identity_frozen_factor_lists():
    expected = {
        (2, 2): ["{1,2,3}", "{1,3,4}"],
        (2, 3): ["{1,2,3,4}", "{1,2,4,5}", "{1,4,5,6}"],
        (3, 2): ["{1,2,3,5}", "{1,3,4,5}", "{1,3,5,6}"],
    }
    for (s, n), factors in expected.items():
        report = verify_main(s, n)
        assert report.equal, (s, n)
        assert report.detail["rhs_factors"] == factors
        assert report.mode == "symbolic"


def test_main_identity_trivial_families():
    for s, n in [(1, 4), (4, 1), (1, 1), (5, 1), (1, 5)]:
        report = verify_main(s, n)
        assert report.equal, (s, n)


def test_main_identity_numeric():
    for s, n in [(3, 3), (4, 2), (2, 4)]:
        report = verify_main(s, n, mode="numeric", seed=99)
        assert report.equal, (s, n)
        assert report.seed == 99 and report.mode == "numeric"


def test_symbolic_envelope_gate():
    with pytest.raises(CapabilityError):
        verify_main(3, 3)
    with pytest.raises(CapabilityError):
        check_symbolic_envelope(1, 9)
    check_symbolic_envelope(1, 8)
    for s, n in SYMBOLIC_CASES:
        check_symbolic_envelope(s, n)


def test_column_swap_flips_compound_determinant():
    spec = CompoundSpec.symbolic(2, 2)
    m = build_M(spec)
    d = det(m)
    swapped = [[m[i][[1, 0, 2][j]] for j in range(3)] for i in range(3)]
    assert det(swapped) == -d


def test_gram_colored_worked_example():
    report = verify_gram(3, 2)
    assert report.equal
    assert report.sign == -1
    assert report.detail["variant"] == "colored"
    assert report.detail["zero_pattern"] == [
        "***...",
        ".*....",
        "..*...",
        "...**.",
        "....*.",
        ".....*",
    ]
    assert report.detail["factor_multiplicity"] == {
        "{1,2,3,5}": 1,
        "{1,3,4,5}": 2,
        "{1,3,5,6}": 3,
    }
    assert report.detail["unique_support_permutation"]


def test_gram_pinned_worked_example():
    report = verify_gram(3, 2, k0=1)
    assert report.equal
    assert report.sign == 1
    assert report.detail["variant"] == "pinned"
    assert report.detail["k"] == 1
    assert report.detail["zero_pattern"] == [
        "***.*.",
        ".*.**.",
        "..*.**",
        "...*..",
        "....*.",
        ".....*",
    ]
    assert report.detail["factor_multiplicity"] == {
        "{1,2,3,5}": 1,
        "{1,3,4,5}": 1,
        "{1,3,5,6}": 1,
        "{2,3,4,5}": 1,
        "{3,4,5,6}": 1,
        "{2,3,5,6}": 1,
    }


def test_gram_other_sizes_and_modes():
    for s, n in [(2, 2), (2, 3)]:
        for k0 in [None, 1, 2]:
            report = verify_gram(s, n, k0=k0)
            assert report.equal, (s, n, k0)
    rng_seed = 5
    for s, n in [(4, 2), (2, 4), (3, 3)]:
        report = verify_gram(s, n, mode="numeric", seed=rng_seed)
        assert report.equal, (s, n)
        report = verify_gram(s, n, k0=2, mode="numeric", seed=rng_seed)
        assert report.equal, (s, n)
    with pytest.raises(UsageError):
        verify_gram(2, 2, k0=3)


def _zero_diagonal_cell(monkeypatch, index):
    """Make gram_matrix return T with its index-th diagonal cell zeroed."""
    real = compound.gram_matrix

    def patched(spec, partner_map):
        T = real(spec, partner_map)
        T[index][index] = T[index][index] * 0
        return T

    monkeypatch.setattr(compound, "gram_matrix", patched)


@pytest.mark.parametrize("k0", [None, 1])
@pytest.mark.parametrize(
    "index, counted",
    [
        # the factors of the diagonal cells before the failing one, only
        (2, {"{1,2,3,5}": 1, "{1,3,4,5}": 1}),
        (0, {}),
    ],
)
def test_gram_diagonal_failure_counts_the_cells_before_it(monkeypatch, k0, index, counted):
    _zero_diagonal_cell(monkeypatch, index)
    report = verify_gram(3, 2, k0=k0)
    cell = format_composition(compositions(3, 2)[index])
    assert not report.equal
    assert report.sign is None
    assert report.detail["factor_multiplicity"] == counted
    assert report.detail["first_bad_cell"] == [cell, cell]
    assert report.detail["det_method"] is None
    assert report.detail["unique_support_permutation"] is False


@pytest.mark.parametrize(
    "call, cell",
    [
        # cell ((2,0,0), (1,1,0)) alone uses the 2nd maximal minor
        (2, ["(2,0,0)", "(1,1,0)"]),
        # the diagonal cells at (1,1,0) and (0,2,0) share the 4th
        (4, ["(1,1,0)", "(1,1,0)"]),
    ],
)
def test_gram_entry_failure_names_the_first_bad_cell(monkeypatch, call, cell):
    real = compound._maximal_minor
    calls = 0

    def off(A, cols):
        nonlocal calls
        calls += 1
        value = real(A, cols)
        return value + 1 if calls == call else value

    monkeypatch.setattr(compound, "_maximal_minor", off)
    report = verify_gram(3, 2, mode="numeric", seed=0)
    assert not report.equal
    assert report.detail["entry_identity_ok"] is False
    assert report.detail["first_bad_cell"] == cell
    # a bad entry leaves the diagonal and its support intact
    assert report.sign == -1
    assert report.detail["factor_multiplicity"] == {
        "{1,2,3,5}": 1,
        "{1,3,4,5}": 2,
        "{1,3,5,6}": 3,
    }
    assert report.detail["unique_support_permutation"] is True
    assert report.detail["det_method"] is None


@st.composite
def boolean_patterns(draw):
    """Square boolean matrices of size 0 to 7: random, or restricted to a
    triangle of a random order; either kind with or without a full
    diagonal."""
    size = draw(st.integers(0, 7))
    row = st.lists(st.booleans(), min_size=size, max_size=size)
    pattern = draw(st.lists(row, min_size=size, max_size=size))
    if draw(st.booleans()):
        order = draw(st.permutations(range(size)))
        pattern = [
            [cell and order[i] <= order[j] for j, cell in enumerate(cells)]
            for i, cells in enumerate(pattern)
        ]
    if draw(st.booleans()):
        for i in range(size):
            pattern[i][i] = True
    return pattern


@settings(max_examples=400, deadline=None)
@given(boolean_patterns())
def test_support_order_test_matches_backtracking(pattern):
    count, identity_ok = support_permutation_count(pattern)
    full_diagonal = all(pattern[i][i] for i in range(len(pattern)))
    assert full_diagonal == identity_ok
    if full_diagonal:
        assert _support_is_triangular(pattern) == (count == 1)
    unique = full_diagonal and _support_is_triangular(pattern)
    assert unique == (count == 1 and identity_ok)


def test_gram_at_35_columns_takes_the_unique_support_route():
    # the support test is polynomial: a backtracking search over the
    # permutations inside the 35 x 35 pattern took minutes here
    report = verify_gram(4, 4, k0=2, mode="numeric", seed=0)
    assert report.equal
    assert report.detail["unique_support_permutation"]
    assert report.detail["det_method"] == "unique-support-permutation"


def test_predicted_gram_support_admits_only_the_identity():
    # the lemma behind gram's one determinant route: every cell of T equals
    # its prediction, so the support of T lies inside the predicted sign
    # pattern; with a zero-free diagonal and no cycle there, only the
    # identity permutation fits inside either support
    patterns = 0
    for s in range(1, 6):
        for n in range(1, 6):
            spec = CompoundSpec(s, n, [[0] * (s * n)] * (s + n - 1), Fraction(1))
            for k0 in [None, *range(1, s + 1)]:
                try:
                    partner_map = partner_map_for_variant(spec, k0)
                except DomainError:
                    # pinned partners need blocks of width >= 2
                    assert n == 1 and k0 is not None
                    continue
                pattern = [
                    [bool(epsilon(J, partner_map[mu])) for mu in spec.col_comps]
                    for J in spec.col_sets
                ]
                assert all(pattern[i][i] for i in range(len(pattern))), (s, n, k0)
                assert _support_is_triangular(pattern), (s, n, k0)
                patterns += 1
    assert patterns == 86


def test_gram_support_with_a_second_permutation_is_unequal(monkeypatch, capsys):
    monkeypatch.setattr(compound, "_support_is_triangular", lambda pattern: False)
    argv = ["verify", "gram", "--s", "3", "--n", "2", "--mode", "numeric", "--seed", "0"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["equal"] is False
    assert report["detail"]["entry_identity_ok"] is True
    assert report["detail"]["unique_support_permutation"] is False
    assert report["detail"]["det_method"] is None


def test_sylvester_identity():
    for s, n in [(2, 1), (3, 2), (3, 3), (4, 2)]:
        report = verify_sylvester(s, n)
        assert report.equal, (s, n)
        assert report.detail["exponent"] == comb(s - 1, n - 1)
    for s, n in [(4, 3), (5, 2), (5, 4)]:
        report = verify_sylvester(s, n, mode="numeric", seed=21)
        assert report.equal, (s, n)
    with pytest.raises(CapabilityError):
        verify_sylvester(5, 2)
    with pytest.raises(UsageError):
        verify_sylvester(2, 3)


def test_degree_balance_small_grid():
    # both sides of the main identity are homogeneous of the same degree:
    # each term of det M multiplies C(s+n-1, n) minors of degree n, and the
    # right side multiplies C(s+n-2, n-1) maximal minors of degree s+n-1
    for s in range(1, 13):
        for n in range(1, 13):
            assert n * comb(s + n - 1, n) == (s + n - 1) * comb(s + n - 2, n - 1)


def test_leading_term_specialization():
    for s, n in [(1, 4), (4, 1), (2, 2), (3, 2), (2, 3)]:
        report = verify_leading_term(s, n)
        assert report.equal, (s, n)


def test_numeric_reports_record_the_seed_they_sampled_with():
    # a library caller that gives no seed samples at seed 0, and says so
    for verify in (verify_main, verify_sylvester, verify_gram):
        unseeded = verify(3, 2, mode="numeric", seed=None)
        seeded = verify(3, 2, mode="numeric", seed=0)
        assert unseeded.seed == 0 == seeded.seed, verify.__name__
        assert unseeded.lhs_hash == seeded.lhs_hash, verify.__name__
        assert unseeded.rhs_hash == seeded.rhs_hash, verify.__name__
        assert verify(3, 2, mode="numeric", seed=7).seed == 7, verify.__name__
        assert verify(2, 2).seed is None, verify.__name__


@pytest.mark.parametrize(
    "verify, s, n, calls",
    [
        # det M and the C(s+n-2, s-1) maximal minors
        (verify_main, 4, 3, 1 + 10),
        (verify_main, 5, 3, 1 + 15),
        # one maximal minor per distinct column union; the support is unique
        (verify_gram, 4, 3, 34),
        # the compound and det A
        (verify_sylvester, 6, 3, 2),
    ],
)
def test_numeric_small_minors_come_from_minor_tables(monkeypatch, verify, s, n, calls):
    sizes = []

    def counting(rows):
        sizes.append(len(rows))
        return det_fractions(rows)

    monkeypatch.setattr(pmatrix, "det_fractions", counting)
    assert verify(s, n, mode="numeric", seed=0).equal
    assert len(sizes) == calls


@pytest.mark.parametrize(
    "argv",
    [
        ["main", "--mode", "numeric", "--s", "3", "--n", "3"],
        ["main", "--mode", "numeric", "--s", "1", "--n", "3"],
        ["gram", "--mode", "numeric", "--s", "3", "--n", "2"],
        ["gram", "--mode", "numeric", "--s", "3", "--n", "2", "--k", "2"],
        ["gram", "--mode", "numeric", "--s", "2", "--n", "3", "--k", "1"],
        ["sylvester", "--mode", "numeric", "--s", "4", "--n", "2"],
        # the largest numeric gram here: T has 4,900 cells, each checked
        ["gram", "--mode", "numeric", "--s", "5", "--n", "4", "--seed", "0"],
        *(
            ["schur-det", "--family", family, "--s", "3", "--n", "3", "--mode", "numeric"]
            for family in ("gl", "sp", "odd-orth", "even-orth")
        ),
    ],
)
def test_numeric_compound_checks_build_no_polynomial(monkeypatch, capsys, argv):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a numeric check built a LaurentPoly")

    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    assert cli.main(["verify", *argv]) == 0
    assert '"equal":true' in capsys.readouterr().out
