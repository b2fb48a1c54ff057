"""Classical-group characters and the character-grid determinant checks."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compdet import characters, cli
from compdet.characters import (
    EVEN_ORTH,
    FAMILIES,
    GL,
    ODD_ORTH,
    SP,
    _character_grid,
    alternant_product,
    char_matrix,
    character_value,
    family_shift,
    rhs_pair_product,
    staircase_delta,
    verify_denominators,
    verify_prop_detS,
    variable_power,
    verify_theorem_schur,
)
from compdet.combin import compositions, iota, partitions_in_box, partitions_of
from compdet.errors import DomainError, ParameterError, UsageError
from compdet.laurent import LaurentPoly, pow_stored
from compdet.pmatrix import det, det_fractions, minor_table
from compdet.sampling import SplitMix64, point_is_admissible, sample_point

from oracles import character, leibniz_det, schur_tableau_poly


def poly_from(num_vars, text_terms):
    """Small builder: list of (coeff, exps2) pairs."""
    out = LaurentPoly.zero(num_vars)
    for coeff, exps in text_terms:
        out = out + LaurentPoly.monomial(num_vars, coeff, exps)
    return out


def test_staircase_and_shifts():
    assert staircase_delta(2, 3) == (Fraction(2), Fraction(1), Fraction(0))
    assert family_shift(GL, 3) == (Fraction(2), Fraction(1), Fraction(0))
    assert family_shift(SP, 2) == (Fraction(2), Fraction(1))
    assert family_shift(ODD_ORTH, 2) == (Fraction(3, 2), Fraction(1, 2))
    assert family_shift(EVEN_ORTH, 2) == (Fraction(1), Fraction(0))
    with pytest.raises(UsageError):
        family_shift("so", 2)


def test_partition_validation():
    with pytest.raises(DomainError):
        character(GL, (1, 2), num_vars=2)
    with pytest.raises(DomainError):
        character(GL, (1, 1, 1), num_vars=2)
    with pytest.raises(DomainError):
        character(GL, (-1,), num_vars=1)


def test_frozen_one_variable_characters():
    x = lambda e2: LaurentPoly.variable(1, 1, e2)
    assert character(GL, (2,), num_vars=1) == x(4)
    assert character(SP, (1,), num_vars=1) == x(2) + x(-2)
    assert character(ODD_ORTH, (1,), num_vars=1) == x(2) + LaurentPoly.const(1, 1) + x(-2)
    assert character(EVEN_ORTH, (1,), num_vars=1) == x(2) + x(-2)
    assert character(EVEN_ORTH, (3,), num_vars=1) == x(6) + x(-6)
    assert character(EVEN_ORTH, (), num_vars=1) == LaurentPoly.const(1, 1)


def test_frozen_two_variable_characters():
    v = lambda i, e2: LaurentPoly.variable(2, i, e2)
    one = LaurentPoly.const(2, 1)
    assert character(GL, (1,), num_vars=2) == v(1, 2) + v(2, 2)
    assert character(GL, (1, 1), num_vars=2) == v(1, 2) * v(2, 2)
    assert character(GL, (2,), num_vars=2) == (
        v(1, 4) + v(1, 2) * v(2, 2) + v(2, 4)
    )
    five_dim = (
        v(1, 2) * v(2, 2)
        + v(1, 2) * v(2, -2)
        + v(1, -2) * v(2, 2)
        + v(1, -2) * v(2, -2)
        + one
    )
    assert character(SP, (1, 1), num_vars=2) == five_dim


def test_gl_characters_match_tableau_oracle():
    for n in (1, 2, 3):
        for weight in range(0, 5):
            for lam in partitions_of(weight, max_parts=n):
                got = character(GL, lam, num_vars=n)
                assert got == schur_tableau_poly(lam, n), (n, lam)


def test_symbolic_and_numeric_paths_agree():
    rng = SplitMix64(7)
    point = sample_point(2, rng)
    for family in FAMILIES:
        for lam in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
            sym = character(family, lam, num_vars=2).eval(point)
            num = character_value(family, lam, point)
            assert sym == num, (family, lam)


def test_folded_characters_invariant_under_inversion():
    values = (Fraction(4, 9), Fraction(25, 49))
    flipped = tuple(1 / v for v in values)
    for family in (SP, ODD_ORTH, EVEN_ORTH):
        for lam in [(1,), (2,), (1, 1), (3, 2)]:
            a = character_value(family, lam, values)
            b = character_value(family, lam, flipped)
            assert a == b, (family, lam)
    # the plain family is genuinely not inversion invariant
    assert character_value(GL, (1,), values) != character_value(GL, (1,), flipped)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(FAMILIES),
    st.lists(st.integers(0, 12), max_size=4),
    st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=3),
)
def test_char_matrix_agrees_across_rings(family, halves, roots):
    # exponent 0 and half-integer exponents, as odd-orth shifts use, on
    # rows of variables and rows of perfect squares
    alpha = [0] + [Fraction(h, 2) for h in halves]
    point = [r * r for r in roots]
    nv = len(point)
    symbolic = char_matrix(family, alpha, range(1, nv + 1), variable_power(nv))
    numeric = char_matrix(family, alpha, point, pow_stored)
    assert [[entry.eval(point) for entry in row] for row in symbolic] == numeric


def test_char_matrix_at_exponent_zero():
    for family, entry in ((GL, 1), (SP, 0), (ODD_ORTH, 0), (EVEN_ORTH, 2)):
        assert char_matrix(family, [0], [Fraction(4, 9)], pow_stored) == [[entry]]
        assert char_matrix(family, [0], [2], variable_power(3)) == [[LaurentPoly.const(3, entry)]]


def test_character_value_rejects_degenerate_point():
    with pytest.raises(ParameterError):
        character_value(SP, (1,), (Fraction(1),))


def test_denominator_product_formulas():
    for n in range(1, 5):
        report = verify_denominators(n)
        assert report.equal, n
        assert set(report.detail) == set(FAMILIES)
        assert all(report.detail.values())
        assert report.mode == "symbolic"
        assert report.identity == "denominators"


def test_selected_denominator_equals_closed_prefactor():
    for s, n in [(2, 2), (3, 2), (2, 3)]:
        nv = s * n
        point = sample_point(nv, SplitMix64(s * 10 + n))
        for family in FAMILIES:
            shift = family_shift(family, n)
            for mu in compositions(s, n):
                sel = iota(mu, n)
                matrix = char_matrix(family, shift, sel, variable_power(nv))
                value = det(matrix)
                assert value == leibniz_det(matrix), (family, s, n, mu)
                closed = alternant_product(
                    family, sel, variable_power(nv), LaurentPoly.const(nv, 1)
                )
                # the numeric check takes the same product over rationals
                values = [point[i - 1] for i in sel]
                at_point = alternant_product(family, values, pow_stored, Fraction(1))
                assert at_point == closed.eval(point), (family, s, n, mu)
                factor = 2 if family == EVEN_ORTH else 1
                alternant = det_fractions(char_matrix(family, shift, values, pow_stored))
                assert alternant == factor * at_point, (family, s, n, mu)
                assert value == closed * factor, (family, s, n, mu)


def test_pair_exponent_difference_collapse():
    # the bookkeeping behind the closed pair product: a difference of
    # adjacent binomials collapses to a single one with fixed lower index;
    # at s = 1 (no variable-group pairs) the collapse degenerates on the
    # anti-diagonal i + j = n + 1, where the difference is 1 but the
    # fixed-lower-index form is 0
    from compdet.combin import binom_nonneg

    for s in range(1, 9):
        for n in range(1, 9):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = binom_nonneg(s + n - i - j, n - i - j + 1) - binom_nonneg(
                        s + n - i - j - 1, n - i - j
                    )
                    rhs = binom_nonneg(s + n - i - j - 1, s - 2)
                    if s == 1 and i + j == n + 1:
                        assert lhs == 1 and rhs == 0
                    else:
                        assert lhs == rhs, (s, n, i, j)


def test_pair_product_matches_brute_force_gl():
    # at n = 1 the closed product is the full Vandermonde-power expression
    s, n = 3, 1
    rng = SplitMix64(11)
    point = sample_point(s * n, rng)
    value = rhs_pair_product(GL, s, n, point)
    expected = Fraction(1)
    for k in range(3):
        for l in range(k + 1, 3):
            expected *= (point[k] - point[l]) ** 1
    assert value == expected


def test_character_grid_identity_all_families():
    for family in FAMILIES:
        for s, n in [(2, 2), (3, 2), (2, 3)]:
            report = verify_theorem_schur(family, s, n, seed=3)
            assert report.equal, (family, s, n)
            assert report.detail["bookkeeping_ok"]
            assert report.detail["rows"] == len(partitions_in_box(n, s - 1))
            if family == EVEN_ORTH:
                assert report.detail["two_power"] > 0
            assert report.identity == "schur-det"
            assert report.seed == 3


def test_character_grid_identity_substituted_point():
    report = verify_theorem_schur(GL, 2, 2, seed=5, substitution=True)
    assert report.equal
    assert report.detail["substitution"] is True


def test_bookkeeping_catches_a_wrong_denominator_product(monkeypatch, capsys):
    # twice the closed product no longer matches any column's denominator;
    # the pair product of the main side does not use alternant_product
    real = characters.alternant_product
    monkeypatch.setattr(
        characters, "alternant_product", lambda *args: 2 * real(*args)
    )
    argv = ["verify", "schur-det", "--family", "sp", "--s", "2", "--n", "2", "--mode", "numeric"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["bookkeeping_ok"] is False
    assert report["equal"] is False


def test_single_alphabet_identity():
    for kind in (GL, SP):
        for s, n in [(3, 2), (4, 2), (3, 1), (4, 4)]:
            report = verify_prop_detS(kind, s, n, seed=13)
            assert report.equal, (kind, s, n)
            assert report.sign == 1
            assert report.detail["kind"] == kind
    with pytest.raises(UsageError):
        verify_prop_detS(ODD_ORTH, 3, 2, seed=0)
    with pytest.raises(UsageError):
        verify_prop_detS(GL, 2, 3, seed=0)


def run_prop12_on_permuted_grid(monkeypatch, capsys, permute, argv):
    def permuted_grid(family, partitions, col_values):
        grid, denominators = _character_grid(family, partitions, col_values)
        return permute(grid), denominators

    monkeypatch.setattr(characters, "_character_grid", permuted_grid)
    code = cli.main(["verify", "prop12", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_prop12_fails_on_reversed_columns(monkeypatch, capsys):
    # 6 subsets of 4 variables: the reversal is an odd permutation
    code, report = run_prop12_on_permuted_grid(
        monkeypatch, capsys, lambda grid: [row[::-1] for row in grid],
        ["--family", "gl", "--s", "4", "--n", "2"],
    )
    assert code == 1
    assert report["equal"] is False and report["sign"] == -1


def test_prop12_fails_on_swapped_rows(monkeypatch, capsys):
    code, report = run_prop12_on_permuted_grid(
        monkeypatch, capsys, lambda grid: [grid[1], grid[0], *grid[2:]],
        ["--family", "sp", "--s", "5", "--n", "2"],
    )
    assert code == 1
    assert report["equal"] is False and report["sign"] == -1


def test_grid_verifiers_compute_each_alternant_once(monkeypatch):
    tables = []
    sizes = []

    def counting_table(rows, colset):
        tables.append(len(rows))
        return minor_table(rows, colset)

    def counting(rows):
        sizes.append(len(rows))
        return det_fractions(rows)

    monkeypatch.setattr("compdet.characters.minor_table", counting_table)
    monkeypatch.setattr("compdet.pmatrix.det_fractions", counting)
    # 10 partitions by 10 compositions: one minor table per column, over
    # the 5 exponents 4..0, holds the C(5, 3) = 10 alternants of the column;
    # only the grid determinant is an elimination
    assert verify_theorem_schur(GL, 3, 3, seed=0).equal
    assert tables == [5] * 10
    assert sizes == [10]
    tables.clear()
    sizes.clear()
    # 6 partitions by 6 subsets, C(4, 2) = 6 alternants per table, and the
    # one grid determinant
    assert verify_prop_detS(SP, 4, 2, seed=0).equal
    assert tables == [4] * 6
    assert sizes == [6]
    tables.clear()
    # a lone partition takes only the exponents of its two alternants
    character_value(GL, (30,), sample_point(4, SplitMix64(1)))
    assert tables == [5]


@st.composite
def grid_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    root = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
    col_values = draw(
        st.lists(
            st.lists(root, min_size=n, max_size=n).map(lambda xs: tuple(x * x for x in xs)),
            min_size=1,
            max_size=3,
        )
    )
    for values in col_values:
        assume(point_is_admissible(values))
    parts = st.lists(st.integers(0, 4), max_size=n).map(lambda ps: tuple(sorted(ps, reverse=True)))
    partitions = draw(st.lists(parts, min_size=1, max_size=5))
    return draw(st.sampled_from(FAMILIES)), partitions, col_values


@settings(deadline=None, max_examples=150)
@given(grid_cases())
def test_character_grid_matches_per_cell_alternants(case):
    family, partitions, col_values = case
    n = len(col_values[0])
    delta = family_shift(family, n)
    # the empty partition and a lone partition are the shapes character_value
    # asks for
    for lams in (partitions, [()], partitions[:1]):
        grid, denominators = _character_grid(family, lams, col_values)
        for values, denominator in zip(col_values, denominators):
            expected = det_fractions(char_matrix(family, delta, values, pow_stored))
            assert denominator == expected, (family, values)
        for lam, grid_row in zip(lams, grid):
            padded = lam + (0,) * (n - len(lam))
            alpha = tuple(padded[j] + delta[j] for j in range(n))
            factor = 2 if family == EVEN_ORTH and padded[-1] else 1
            for values, value, denominator in zip(col_values, grid_row, denominators):
                expected = det_fractions(char_matrix(family, alpha, values, pow_stored))
                assert value * denominator / factor == expected, (family, lam, values)


def test_character_grid_matches_three_variable_characters():
    # the schur-det grids at n = 3: every cell equals the symbolic
    # character evaluated at the column's values
    n = 3
    for s in (3, 2):
        point = sample_point(s * n, SplitMix64(s))
        col_values = [tuple(point[i - 1] for i in iota(mu, n)) for mu in compositions(s, n)]
        partitions = partitions_in_box(n, s - 1)
        for family in FAMILIES:
            grid, _ = _character_grid(family, partitions, col_values)
            for lam, grid_row in zip(partitions, grid):
                symbolic = character(family, lam, num_vars=n)
                for values, value in zip(col_values, grid_row):
                    assert value == symbolic.eval(values), (family, s, lam, values)


def test_character_grid_matches_symbolic_characters():
    point = sample_point(4, SplitMix64(9))
    col_values = [(point[0], point[1]), (point[2], point[3]), (point[0], point[3])]
    partitions = [(2, 1), (1, 1), (1,), ()]
    for family in FAMILIES:
        delta = family_shift(family, 2)
        grid, denominators = _character_grid(family, partitions, col_values)
        for values, denominator in zip(col_values, denominators):
            assert denominator == det_fractions(char_matrix(family, delta, values, pow_stored))
        for lam, grid_row in zip(partitions, grid):
            padded = lam + (0,) * (2 - len(lam))
            alpha = tuple(padded[j] + delta[j] for j in range(2))
            factor = 2 if family == EVEN_ORTH and len(lam) == 2 else 1
            for values, value, denominator in zip(col_values, grid_row, denominators):
                expected = character(family, lam, num_vars=2).eval(values)
                assert value == expected, (family, lam)
                numerator = det_fractions(char_matrix(family, alpha, values, pow_stored))
                assert value * denominator / factor == numerator, (family, lam)
