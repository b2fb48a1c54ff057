"""Classical-group characters and the character-grid determinant checks."""

import json
import runpy
import sys
from fractions import Fraction
from pathlib import Path

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
    _pair_factor,
    alternant_product,
    char_matrix,
    character_value,
    denominator_products,
    family_shift,
    rhs_pair_product,
    symbolic_roots,
    verify_denominators,
    verify_prop_detS,
    verify_theorem_schur,
)
from compdet.combin import compositions, iota, partitions_in_box, partitions_of
from compdet.errors import DomainError, ParameterError, UsageError
from compdet.laurent import LaurentPoly
from compdet.pmatrix import det, det_fractions, minor_table
from compdet.sampling import SplitMix64, point_is_admissible, sample_point

from oracles import character, evaluate, leibniz_det, schur_tableau_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NUMERIC_CHARACTERS = runpy.run_path(str(PERFBENCH / "checks.py"))["WORKLOADS"][
    "numeric-characters"
]


def squares(roots):
    """The coordinates of the point with the given square roots."""
    return [r * r for r in roots]


def poly_from(num_vars, text_terms):
    """Small builder: list of (coeff, exps2) pairs."""
    out = LaurentPoly.zero(num_vars)
    for coeff, exps in text_terms:
        out = out + LaurentPoly.monomial(num_vars, coeff, exps)
    return out


def test_staircase_and_shifts():
    # half-units: the gl staircase (2, 1, 0) is stored as (4, 2, 0)
    assert family_shift(GL, 3) == (4, 2, 0)
    assert family_shift(SP, 2) == (4, 2)
    assert family_shift(ODD_ORTH, 2) == (3, 1)
    assert family_shift(EVEN_ORTH, 2) == (2, 0)
    assert family_shift(ODD_ORTH, 1) == (1,)
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
            for lam in (lam for lam in partitions_of(weight) if len(lam) <= n):
                got = character(GL, lam, num_vars=n)
                assert got == schur_tableau_poly(lam, n), (n, lam)


def test_symbolic_and_numeric_paths_agree():
    rng = SplitMix64(7)
    roots = sample_point(2, rng)
    for family in FAMILIES:
        for lam in [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]:
            sym = evaluate(character(family, lam, num_vars=2), squares(roots))
            num = character_value(family, lam, roots)
            assert sym == num, (family, lam)


def test_folded_characters_invariant_under_inversion():
    roots = (Fraction(2, 3), Fraction(5, 7))
    flipped = tuple(1 / v for v in roots)
    for family in (SP, ODD_ORTH, EVEN_ORTH):
        for lam in [(1,), (2,), (1, 1), (3, 2)]:
            a = character_value(family, lam, roots)
            b = character_value(family, lam, flipped)
            assert a == b, (family, lam)
    # the plain family is genuinely not inversion invariant
    assert character_value(GL, (1,), roots) != character_value(GL, (1,), flipped)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(FAMILIES),
    st.lists(st.integers(0, 12), max_size=4),
    st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=3),
)
def test_char_matrix_agrees_across_rings(family, halves, roots):
    # exponent 0 and half-unit exponents, odd ones as odd-orth shifts use,
    # on rows of variables and rows of roots; the symbolic entries are
    # evaluated at the squares
    alpha = [0] + halves
    nv = len(roots)
    symbolic = char_matrix(family, alpha, symbolic_roots(nv))
    numeric = char_matrix(family, alpha, roots)
    point = squares(roots)
    assert [[evaluate(entry, point) for entry in row] for row in symbolic] == numeric


def test_character_value_is_exact_at_int_roots():
    # int roots raised to negative exponents would give floats; they are
    # taken as Fractions
    for family in FAMILIES:
        for lam in [(), (1,), (2, 1), (3, 1, 1)]:
            at_ints = character_value(family, lam, (2, 3, 5))
            at_fractions = character_value(family, lam, tuple(map(Fraction, (2, 3, 5))))
            assert type(at_ints) is Fraction and at_ints == at_fractions, (family, lam)


def test_char_matrix_at_exponent_zero():
    for family, entry in ((GL, 1), (SP, 0), (ODD_ORTH, 0), (EVEN_ORTH, 2)):
        assert char_matrix(family, [0], [Fraction(2, 3)]) == [[entry]]
        root = symbolic_roots(3)[1]
        assert char_matrix(family, [0], [root]) == [[LaurentPoly.const(3, entry)]]


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


def test_folded_pair_factor_is_a_difference_at_x_plus_inverse():
    # (v - u)(1 - uv)/(uv) = y_u - y_v at y = x + 1/x, which lets the
    # denominators sides substitute y into the Vandermonde
    roots = symbolic_roots(3)
    y = [r**2 + r**-2 for r in roots]
    for family in (SP, ODD_ORTH, EVEN_ORTH):
        for u, v in [(0, 1), (0, 2), (1, 2), (2, 0)]:
            assert _pair_factor(family, roots[u], roots[v]) == y[u] - y[v], (family, u, v)


def test_denominator_products_match_the_direct_products():
    # the substituted sides against the pair-by-pair route of
    # alternant_product, which schur-det's bookkeeping still takes
    for n in range(1, 7):
        sides = denominator_products(n)
        assert set(sides) == set(FAMILIES)
        for family in FAMILIES:
            factor = 2 if family == EVEN_ORTH else 1
            direct = alternant_product(family, symbolic_roots(n))
            assert sides[family] == direct * factor, (family, n)


def test_alternant_product_rejects_no_variables():
    # the product starts from the zeroth power of its first root
    with pytest.raises(UsageError):
        alternant_product(GL, ())


def test_selected_denominator_equals_closed_prefactor():
    for s, n in [(2, 2), (3, 2), (2, 3)]:
        nv = s * n
        roots = sample_point(nv, SplitMix64(s * 10 + n))
        for family in FAMILIES:
            shift = family_shift(family, n)
            for mu in compositions(s, n):
                sel = iota(mu, n)
                sel_symbolic = [symbolic_roots(nv)[i - 1] for i in sel]
                matrix = char_matrix(family, shift, sel_symbolic)
                value = det(matrix)
                assert value == leibniz_det(matrix), (family, s, n, mu)
                closed = alternant_product(family, sel_symbolic)
                # the numeric check takes the same product over the roots
                sel_roots = [roots[i - 1] for i in sel]
                at_point = alternant_product(family, sel_roots)
                assert at_point == evaluate(closed, squares(roots)), (family, s, n, mu)
                factor = 2 if family == EVEN_ORTH else 1
                alternant = det_fractions(char_matrix(family, shift, sel_roots))
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
    roots = sample_point(s * n, rng)
    value = rhs_pair_product(GL, s, n, roots)
    point = squares(roots)
    expected = Fraction(1)
    for k in range(3):
        for l in range(k + 1, 3):
            expected *= (point[k] - point[l]) ** 1
    assert value == expected


def check_character_grid(seeds):
    """The grid identity and its bookkeeping hold in every family at three
    sizes, at each seed's sample."""
    for family in FAMILIES:
        for s, n in [(2, 2), (3, 2), (2, 3)]:
            for seed in seeds:
                report = verify_theorem_schur(family, s, n, seed=seed)
                assert report.equal, (family, s, n, seed)
                assert report.detail["bookkeeping_ok"]
                assert report.detail["rows"] == len(partitions_in_box(n, s - 1))
                if family == EVEN_ORTH:
                    assert report.detail["two_power"] > 0
                assert report.identity == "schur-det"
                assert report.seed == seed


def test_character_grid_identity_all_families():
    check_character_grid([3])


def check_character_grid_substituted(seed):
    """The gl grid identity holds at (2, 2) at the seed's substituted point."""
    report = verify_theorem_schur(GL, 2, 2, seed=seed, substitution=True)
    assert report.equal
    assert report.detail["substitution"] is True


def test_character_grid_identity_substituted_point():
    check_character_grid_substituted(5)


def test_numeric_checks_take_no_square_root(capsys):
    # every numeric point is carried as the roots of its coordinates, so no
    # check, the substituted odd-orth point included, takes a square root:
    # none of the modules these checks load binds a square root, and no
    # source file of the package names one
    for check in NUMERIC_CHARACTERS:
        try:
            cli.main(["verify", *check.split(), "--seed", "0"])
        except ValueError:
            # prop12 sp (6,3) renders past the int-to-str digit limit
            pass
    capsys.readouterr()
    assert verify_theorem_schur(ODD_ORTH, 2, 2, seed=1, substitution=True).equal
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "compdet"]
    assert characters in loaded and len(loaded) > 1
    for module in loaded:
        bound = {"sqrt_fraction", "isqrt", "sqrt"} & set(vars(module))
        assert not bound, (module.__name__, bound)
    sources = sorted(Path(characters.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        assert "sqrt" not in source.read_text(), source.name


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


def check_single_alphabet(sizes, seeds):
    """The single-alphabet identity holds with sign 1 for gl and sp at each
    size, at each seed's sample."""
    for kind in (GL, SP):
        for s, n in sizes:
            for seed in seeds:
                report = verify_prop_detS(kind, s, n, seed=seed)
                assert report.equal, (kind, s, n, seed)
                assert report.sign == 1
                assert report.detail["kind"] == kind


def test_single_alphabet_identity():
    check_single_alphabet([(3, 2), (4, 2), (3, 1), (4, 4)], [13])
    with pytest.raises(UsageError):
        verify_prop_detS(ODD_ORTH, 3, 2, seed=0)
    with pytest.raises(UsageError):
        verify_prop_detS(GL, 2, 3, seed=0)


def run_prop12_on_permuted_grid(monkeypatch, capsys, permute, argv):
    def permuted_grid(family, partitions, point, col_sets):
        grid, denominators = _character_grid(family, partitions, point, col_sets)
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

    monkeypatch.setattr("compdet.pmatrix.minor_table", counting_table)
    monkeypatch.setattr("compdet.pmatrix.det_fractions", counting)
    # 10 partitions by 10 compositions: one power matrix over the 5
    # exponents 4..0, and one minor table of it per column, which holds the
    # C(5, 3) = 10 alternants of the column; only the grid determinant is
    # an elimination
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
    """A family, partitions of at most n parts, an admissible point and
    column sets of n of its variables: disjoint blocks of n, as in a
    character_value call per block, or any n-subsets, which overlap as the
    verifiers' column sets do."""
    n = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=n, max_value=min(3 * n, 8)))
    root = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
    point = tuple(draw(st.lists(root, min_size=size, max_size=size)))
    assume(point_is_admissible(point))
    if draw(st.booleans()):
        col_sets = [tuple(range(j * n + 1, j * n + n + 1)) for j in range(size // n)]
    else:
        subset = st.lists(st.integers(1, size), min_size=n, max_size=n, unique=True)
        col_sets = draw(st.lists(subset.map(sorted).map(tuple), min_size=1, max_size=3))
    parts = st.lists(st.integers(0, 4), max_size=n).map(lambda ps: tuple(sorted(ps, reverse=True)))
    partitions = draw(st.lists(parts, min_size=1, max_size=5))
    return draw(st.sampled_from(FAMILIES)), partitions, point, col_sets


def roots_at(point, col_set):
    """The entries of point at a 1-based column set."""
    return tuple(point[i - 1] for i in col_set)


@settings(deadline=None, max_examples=150)
@given(grid_cases())
def test_character_grid_matches_per_cell_alternants(case):
    family, partitions, point, col_sets = case
    n = len(col_sets[0])
    col_roots = [roots_at(point, J) for J in col_sets]
    delta = family_shift(family, n)
    # the empty partition and a lone partition are the shapes character_value
    # asks for
    for lams in (partitions, [()], partitions[:1]):
        grid, denominators = _character_grid(family, lams, point, col_sets)
        for roots, denominator in zip(col_roots, denominators):
            expected = det_fractions(char_matrix(family, delta, roots))
            assert denominator == expected, (family, roots)
        for lam, grid_row in zip(lams, grid):
            padded = lam + (0,) * (n - len(lam))
            alpha = tuple(2 * padded[j] + delta[j] for j in range(n))
            factor = 2 if family == EVEN_ORTH and padded[-1] else 1
            for roots, value, denominator in zip(col_roots, grid_row, denominators):
                expected = det_fractions(char_matrix(family, alpha, roots))
                assert value * denominator / factor == expected, (family, lam, roots)


def test_character_grid_matches_three_variable_characters():
    # the schur-det grids at n = 3: every cell equals the symbolic
    # character evaluated at the squares of the column's roots
    n = 3
    for s in (3, 2):
        point = sample_point(s * n, SplitMix64(s))
        col_sets = [iota(mu, n) for mu in compositions(s, n)]
        col_roots = [roots_at(point, J) for J in col_sets]
        partitions = partitions_in_box(n, s - 1)
        for family in FAMILIES:
            grid, _ = _character_grid(family, partitions, point, col_sets)
            for lam, grid_row in zip(partitions, grid):
                symbolic = character(family, lam, num_vars=n)
                for roots, value in zip(col_roots, grid_row):
                    assert value == evaluate(symbolic, squares(roots)), (family, s, lam, roots)


def test_character_grid_matches_symbolic_characters():
    point = sample_point(4, SplitMix64(9))
    col_sets = [(1, 2), (3, 4), (1, 4)]
    col_roots = [roots_at(point, J) for J in col_sets]
    partitions = [(2, 1), (1, 1), (1,), ()]
    for family in FAMILIES:
        delta = family_shift(family, 2)
        grid, denominators = _character_grid(family, partitions, point, col_sets)
        for roots, denominator in zip(col_roots, denominators):
            assert denominator == det_fractions(char_matrix(family, delta, roots))
        for lam, grid_row in zip(partitions, grid):
            padded = lam + (0,) * (2 - len(lam))
            alpha = tuple(2 * padded[j] + delta[j] for j in range(2))
            factor = 2 if family == EVEN_ORTH and len(lam) == 2 else 1
            for roots, value, denominator in zip(col_roots, grid_row, denominators):
                expected = evaluate(character(family, lam, num_vars=2), squares(roots))
                assert value == expected, (family, lam)
                numerator = det_fractions(char_matrix(family, alpha, roots))
                assert value * denominator / factor == numerator, (family, lam)
