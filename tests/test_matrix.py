"""Matrices as lists of rows and the determinant algorithm family.

The in-package algorithms (cofactor recursion, polynomial fraction-free
elimination, division-free minor expansion, primitive-row elimination on
rationals) are cross-checked against a permutation-sum oracle on random
rational matrices and on small symbolic ones, and det_fractions against the
integer Bareiss elimination it replaced and against itself on the
transpose, with rows, columns or both scaled, since it clears each column
by its lcm and eliminates the transpose.  `det` must agree with
det_fractions on rational rows and with det_minor_expansion on polynomial
rows, each cell of `products` with a plain sum of products, and no verifier
may reach the test-only routines.
"""

import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import det_bareiss_reference, evaluate, leibniz_det, plain_dot, submatrix

from compdet import cli, pmatrix
from compdet.errors import CapabilityError, UsageError
from compdet.laurent import LaurentPoly
from compdet.pmatrix import (
    det,
    det_cofactor,
    det_fraction_free,
    det_fractions,
    det_minor_expansion,
    minor_matrix,
    minor_table,
    products,
    symbolic,
)
from compdet.sampling import SplitMix64


def random_constant_matrix(size, rng, dens=1 << 8):
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            num = rng.next_below(1 << 16) - (1 << 15)
            den = rng.next_below(dens) + 1
            row.append(LaurentPoly.const(0, Fraction(num, den)))
        rows.append(row)
    return rows


def check_determinant_algorithms_agree(seed, dens=1 << 8):
    """Every determinant algorithm matches the permutation sum on 200
    random matrices of sizes 2 to 5, drawn from SplitMix64(seed) with
    denominators from 1 to dens."""
    rng = SplitMix64(seed)
    for trial in range(200):
        size = 2 + trial % 4  # sizes 2..5
        m = random_constant_matrix(size, rng, dens)
        reference = leibniz_det([[m[i][j] for j in range(size)] for i in range(size)])
        ff = det_fraction_free(m)
        mx = det_minor_expansion(m)
        cf = det_cofactor(m, bound=size)
        assert ff == reference
        assert mx == reference
        assert cf == reference
        plain = det_fractions(
            [[m[i][j].coefficient(()) for j in range(size)] for i in range(size)]
        )
        assert reference == plain


def test_determinant_algorithms_agree_on_random_matrices():
    check_determinant_algorithms_agree(20240817)


def test_determinant_algorithms_agree_symbolically():
    m = symbolic(3, 3)
    reference = leibniz_det([[m[i][j] for j in range(3)] for i in range(3)])
    assert det_cofactor(m) == reference
    assert det_fraction_free(m) == reference
    assert det_minor_expansion(m) == reference
    assert det(m) == reference


def test_singular_and_structured_matrices():
    zero = LaurentPoly.const(0, 0)
    one = LaurentPoly.const(0, 1)
    two = LaurentPoly.const(0, 2)
    m = [[one, two], [one, two]]
    assert not det_fraction_free(m)
    assert not det_minor_expansion(m)
    # a leading zero pivot forces the row-swap path
    m2 = [[zero, one], [two, zero]]
    assert det_fraction_free(m2) == LaurentPoly.const(0, -2)
    assert det_fractions([[0, 1], [2, 0]]) == -2
    assert det_fractions([]) == 1


def test_cofactor_bound_enforced():
    m = random_constant_matrix(5, SplitMix64(7))
    with pytest.raises(CapabilityError):
        det_cofactor(m, bound=4)


def test_dot_matches_a_plain_sum():
    # each cell of products is the dot product of its row and column;
    # polynomial entries: (AB)^T = B^T A^T, cell by cell
    a = symbolic(2, 3)
    b = [[LaurentPoly.variable(6, i + 3 * j + 1) for j in range(2)] for i in range(3)]
    cols = [[row[j] for row in b] for j in range(2)]
    cells = products(a, cols)
    assert cells == [list(row) for row in zip(*products(cols, a))]
    for i in range(2):
        for j in range(2):
            plain = LaurentPoly.zero(6)
            for x, y in zip(a[i], cols[j]):
                plain = plain + x * y
            assert cells[i][j] == plain
    # terms that cancel across products leave no zero coefficient behind
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    [[cancelled]] = products([[x1, x2]], [[x2, -x1]])
    assert not cancelled and cancelled._terms == {}
    # an all-zero polynomial vector gives the zero of its ring
    [[value]] = products([[LaurentPoly.zero(3)] * 4], [[LaurentPoly.variable(3, 1)] * 4])
    assert not value and value.num_vars == 3
    # rational entries: a Fraction, the plain sum of products
    xs = [Fraction(1, 2), -3, Fraction(5, 7), 0]
    ys = [4, Fraction(-2, 9), Fraction(7, 5), Fraction(11, 3)]
    [[value]] = products([xs], [ys])
    assert isinstance(value, Fraction)
    assert value == sum(x * y for x, y in zip(xs, ys)) == Fraction(11, 3)
    assert products([[]], [[]]) == [[0]]


def test_rectangular_determinant_rejected():
    m = symbolic(2, 3)
    with pytest.raises(UsageError):
        det_fraction_free(m)
    with pytest.raises(UsageError):
        det_fractions([[1, 2, 3], [4, 5, 6]])


def test_eval_commutes_with_determinant():
    m = symbolic(3, 3)
    point = [Fraction(k * k, 7) for k in range(2, 11)]
    d = det_minor_expansion(m)
    evaluated = det_fractions([[evaluate(e, point) for e in row] for row in m])
    assert evaluate(d, point) == evaluated


def test_det_fractions_matches_leibniz_at_sizes_zero_and_one():
    assert det_fractions([]) == 1  # the empty product; no permutation to sum
    for value in (Fraction(-7, 3), Fraction(0), 5):
        assert det_fractions([[value]]) == leibniz_det([[Fraction(value)]])
        assert isinstance(det_fractions([[value]]), Fraction)


def test_det_fractions_pivot_swap_and_zero_column():
    swap = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
    assert det_fractions(swap) == leibniz_det(swap)
    # zero leading pivot in the second elimination step as well
    deep = [[1, 2, 3, 4], [2, 4, 7, 1], [0, 0, 5, 6], [3, 7, 1, 1]]
    assert det_fractions(deep) == leibniz_det(deep)
    zero_column = [[1, 0, 3], [4, 0, 6], [7, 0, 9]]
    assert det_fractions(zero_column) == 0
    # a column that only vanishes after elimination
    late_zero = [[1, 2, 3], [2, 4, 5], [3, 6, 7]]
    assert det_fractions(late_zero) == 0 == leibniz_det(late_zero)


def test_det_fractions_input_types_and_signs():
    ints = [[-3, 1, 4], [1, -5, 9], [2, 6, -5]]
    assert det_fractions(ints) == leibniz_det(ints)
    mixed = [
        [Fraction(-1, 2), 3, Fraction(5, 7)],
        [4, Fraction(-2, 9), -1],
        [0, 1, Fraction(3, 4)],
    ]
    as_fractions = [[Fraction(v) for v in row] for row in mixed]
    assert det_fractions(mixed) == leibniz_det(as_fractions)
    negated = [[-v for v in row] for row in mixed]
    assert det_fractions(negated) == -det_fractions(mixed)


def test_det_fractions_coprime_large_denominators():
    primes = [2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353, 2**89 - 1, 10**9 + 9]
    rng = SplitMix64(11)
    size = 3
    rows = [
        [
            Fraction(rng.next_below(1 << 40) - (1 << 39), primes[(i + j) % len(primes)])
            for j in range(size)
        ]
        for i in range(size)
    ]
    assert det_fractions(rows) == leibniz_det(rows)


matrix_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
)
# large factors a whole row shares; no verifier matrix clears to fewer bits
# by rows than by columns by more than 3%, but a general matrix may
ROW_FACTORS = (1, -1, 2**64 + 13, -(3**40), 10**30, Fraction(1, 7**20))
row_factors = st.sampled_from(ROW_FACTORS)
# pairwise-coprime denominators, so the lcm of a row or column is the
# product of all of them
COPRIME = (2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353, 2**89 - 1, 10**9 + 9)
# one denominator a whole column shares, as a character grid's value tuple
# does, or a row factor
column_factors = st.one_of(
    row_factors, st.builds(Fraction, st.sampled_from((1, -3, 5)), st.sampled_from(COPRIME))
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    rows = [draw(st.lists(matrix_entries, min_size=n, max_size=n)) for _ in range(n)]
    scaled = draw(st.sampled_from(("rows", "columns", "both")))
    if scaled != "columns":
        for row in rows:
            factor = draw(row_factors)
            row[:] = [v * factor for v in row]
    if scaled != "rows":
        for j in range(n):
            factor = draw(column_factors)
            for row in rows:
                row[j] *= factor
    if n:
        for i in draw(st.sets(st.integers(0, n - 1), max_size=1)):
            rows[i] = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=1)):
            for row in rows:
                row[j] = 0
    return rows


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
def test_det_fractions_matches_bareiss_reference(rows):
    value = det_fractions(rows)
    assert isinstance(value, Fraction)
    assert value == det_bareiss_reference(rows) == det_fractions(transpose(rows))
    if 1 <= len(rows) <= 5:
        assert value == leibniz_det([[Fraction(v) for v in row] for row in rows])


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def test_row_structured_matrix():
    base = [[3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5, -8], [9, 7, 9, -3, 2, 3],
            [8, -4, 6, 2, 6, 4], [3, 3, -8, 3, 2, 7], [9, 5, 0, 2, -8, 8]]
    rows = [[v * f for v in row] for row, f in zip(base, ROW_FACTORS)]
    assert det_fractions(rows) == det_bareiss_reference(rows) == det_fractions(transpose(rows))


def test_matrix_whose_rows_and_columns_clear_to_equal_bits():
    # rows clear to [1, 6] and [35, 1], columns to [1, 10] and [21, 1]:
    # 11 bits each
    rows = [[Fraction(1, 2), 3], [5, Fraction(1, 7)]]
    assert det_fractions(rows) == det_bareiss_reference(rows) == det_fractions(transpose(rows))
    assert det_fractions(rows) == Fraction(-209, 14)


def test_det_fractions_pivot_swap_between_rows_with_different_multipliers():
    # the first row is swapped below the second, whose lcm is 45, not 3
    rows = [
        [0, Fraction(2, 3), 1],
        [Fraction(4, 5), 6, Fraction(7, 9)],
        [Fraction(1, 2), 0, 3],
    ]
    assert det_fractions(rows) == det_bareiss_reference(rows) == Fraction(-586, 135)
    # a wider one, whose later rows share a factor after the first step
    rows = [row + [v] for row, v in zip(rows, (4, 2, 6))]
    rows.append([Fraction(3, 2), 9, Fraction(1, 3), 5])
    assert det_fractions(rows) == det_bareiss_reference(rows) == Fraction(-4229, 135)


def test_det_fractions_column_vanishing_mid_elimination():
    # column 2 is twice column 1, so after the first step it is zero
    singular = [[2, 4, 6, 1], [3, 6, 10, 5], [1, 2, 7, 7], [4, 8, 3, 3]]
    assert det_fractions(singular) == 0 == leibniz_det(singular)
    # one entry off: after the first step only the last row leads column 2
    nearly = [[2, 4, 6, 1], [3, 6, 10, 5], [1, 2, 7, 7], [4, 9, 3, 3]]
    assert det_fractions(nearly) == det_bareiss_reference(nearly) == -15


def test_det_fractions_row_with_a_later_zero_leading_entry():
    # after the second step the third row leads its block with 0: the fourth
    # row is swapped above it, and it is only shifted
    rows = [[2, 3, 5, 7], [4, 9, 10, 1], [6, 3, 15, 2], [8, 6, 4, 9]]
    assert det_fractions(rows) == det_bareiss_reference(rows) == -4320
    assert det_fractions(rows) == leibniz_det(rows)


def test_det_fractions_negative_pivot():
    rows = [[-6, 4, 2], [9, -3, 12], [3, 8, -5]]
    assert det_fractions(rows) == det_bareiss_reference(rows) == 972
    assert det_fractions(rows) == leibniz_det(rows)


def matrices_of_a_verify_run(monkeypatch, capsys, argv):
    """Every matrix a passing `compdet verify` run hands det_fractions."""
    captured = []

    def capture(rows):
        captured.append([list(row) for row in rows])
        return det_fractions(rows)

    monkeypatch.setattr(pmatrix, "det_fractions", capture)
    assert cli.main(["verify", *argv, "--seed", "0"]) == 0
    capsys.readouterr()
    return captured


def test_det_fractions_on_the_compound_matrix_of_a_verify_run(monkeypatch, capsys):
    argv = ["main", "--mode", "numeric", "--s", "4", "--n", "3"]
    compound = max(matrices_of_a_verify_run(monkeypatch, capsys, argv), key=len)
    assert len(compound) == 20
    assert det_fractions(compound) == det_bareiss_reference(compound)


@pytest.mark.parametrize("family", ["gl", "sp", "odd-orth", "even-orth"])
def test_one_grid_determinant_per_schur_det_check(monkeypatch, capsys, family):
    argv = ["schur-det", "--family", family, "--s", "3", "--n", "2", "--mode", "numeric"]
    (grid,) = matrices_of_a_verify_run(monkeypatch, capsys, argv)
    assert len(grid) == 6


def test_det_dispatches_constants_to_det_fractions():
    rng = SplitMix64(5)
    for size in (1, 2, 5):
        m = random_constant_matrix(size, rng)
        rows = [[m[i][j].coefficient(()) for j in range(size)] for i in range(size)]
        plain = det_fractions(rows)
        value = det(rows)
        assert isinstance(value, Fraction) and value == plain
        ints = [[v.numerator for v in row] for row in rows]
        value = det(ints)
        assert isinstance(value, Fraction) and value == det_fractions(ints)
    assert det([]) == 1
    with pytest.raises(UsageError):
        det(symbolic(2, 3))
    with pytest.raises(UsageError):
        det([[1, 2, 3], [4, 5, 6]])


def test_det_sends_polynomial_rows_to_minor_expansion():
    m = symbolic(3, 3)
    assert det(m) == det_minor_expansion(m) == leibniz_det(m)
    x = LaurentPoly.variable(2, 1)
    y = LaurentPoly.variable(2, 2, -1)
    rows = [[x + y, x * y, LaurentPoly.const(2, 3)], [y, x, y * y], [x, x - y, y]]
    assert det(rows) == det_minor_expansion(rows) == leibniz_det(rows)


def test_cli_paths_avoid_the_oracles_and_polynomial_division(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("verifier reached a test-only determinant path")

    # replace each function wherever a compdet module binds it
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("compdet"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is det_cofactor or value is det_fraction_free:
                monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(LaurentPoly, "exquo", refuse)
    checks = (
        ["main", "--mode", "numeric", "--s", "3", "--n", "3"],
        ["gram", "--mode", "numeric", "--s", "3", "--n", "2"],
        ["sylvester", "--mode", "numeric", "--s", "5", "--n", "2"],
        ["main", "--s", "2", "--n", "2"],
        ["denominators", "--n", "3"],
        ["schur-det", "--family", "sp", "--s", "2", "--n", "2"],
        ["prop12", "--family", "gl", "--s", "4", "--n", "2"],
        ["macdonald", "--s", "2", "--n", "1"],
    )
    for argv in checks:
        code = cli.main(["verify", *argv])
        out = capsys.readouterr().out
        assert code == 0, argv
        assert json.loads(out)["equal"] is True


table_entries = st.one_of(
    matrix_entries,
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.sampled_from(COPRIME)),
)


@st.composite
def rows_and_colsets(draw):
    height = draw(st.integers(min_value=1, max_value=7))
    width = draw(st.integers(min_value=1, max_value=6))
    rows = [draw(st.lists(table_entries, min_size=width, max_size=width)) for _ in range(height)]
    for i in draw(st.sets(st.integers(0, height - 1), max_size=1)):
        rows[i] = [0] * width
    size = draw(st.integers(min_value=1, max_value=min(height, width)))
    colset = sorted(draw(st.sets(st.integers(1, width), min_size=size, max_size=size)))
    return rows, tuple(colset)


@settings(deadline=None, max_examples=300)
@given(rows_and_colsets())
def test_minor_table_matches_each_minor(case):
    rows, colset = case
    table = minor_table(rows, colset)
    row_sets = list(combinations(range(1, len(rows) + 1), len(colset)))
    assert list(table) == row_sets
    for rowset in row_sets:
        value = table[rowset]
        assert isinstance(value, Fraction)
        assert value == det(submatrix(rows, rowset, colset)), rowset


def test_minor_table_on_polynomial_rows_and_bad_index_sets():
    x = LaurentPoly.variable(2, 1)
    y = LaurentPoly.variable(2, 2, -1)
    zero = LaurentPoly.zero(2)
    # zero entries, a zero row and minors that cancel to zero
    sparse = [[x + y, x * y, zero], [zero, zero, zero], [x, x * y, y], [x + y, x * y, y * y]]
    for m in (symbolic(4, 3), sparse):
        for colset in ((2,), (1, 3), (1, 2, 3)):
            table = minor_table(m, colset)
            assert len(table) == len(list(combinations(range(4), len(colset))))
            for rowset, value in table.items():
                assert value == leibniz_det(submatrix(m, rowset, colset)), (rowset, colset)
    # the empty column set: the 0x0 minor, the one of each ring
    m = symbolic(4, 3)
    empty = minor_table(m, ())
    assert empty == {(): 1} and empty[()].num_vars == 12
    empty = minor_table([[Fraction(1, 2), 3]], ())
    assert empty == {(): 1} and isinstance(empty[()], Fraction)
    for colset in ((3, 1), (2, 2), (1, 4), (0, 1)):
        with pytest.raises(UsageError):
            minor_table(m, colset)
    with pytest.raises(UsageError):
        minor_table([[1, 2, 3]], (1, 2))  # more columns than rows


def test_only_pmatrix_builds_minor_tables():
    # every other matrix of minors comes from minor_matrix: no other module
    # calls minor_table or binds the name
    sources = sorted(Path(pmatrix.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    callers = [path.name for path in sources if "minor_table(" in path.read_text(encoding="utf-8")]
    assert callers == ["pmatrix.py"]
    binders = [
        name for name, module in sys.modules.items()
        if name.startswith("compdet.") and "minor_table" in vars(module)
    ]
    assert binders == ["compdet.pmatrix"]


# entries of polynomial rows: small Laurent polynomials in two variables
_X = LaurentPoly.variable(2, 1)
_Y = LaurentPoly.variable(2, 2)
poly_entries = st.sampled_from(
    (LaurentPoly.zero(2), LaurentPoly.const(2, 1), _X, _Y, _X + _Y, _X * _Y ** -1, _X * _X - 3)
)


def index_sets(size, bound):
    return st.sets(st.integers(1, bound), min_size=size, max_size=size).map(
        lambda chosen: tuple(sorted(chosen))
    )


@st.composite
def minor_requests(draw, entries=None, min_height=0):
    """Rows, rational or polynomial, with at most 9 rows and 9 columns and
    sometimes a zero or a repeated row; one to three column sets of one
    height from min_height to 8; and any list of wanted row sets of that
    height."""
    height = draw(st.integers(min_height, 8))
    nrows = draw(st.integers(max(height, 1), 9))
    width = draw(st.integers(max(height, 1), 9))
    if entries is None:
        entries = draw(st.sampled_from((table_entries, poly_entries)))
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(nrows)]
    zero = 0 * rows[0][0]
    i, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
    defect = draw(st.sampled_from(("none", "zero row", "repeated row")))
    if defect == "zero row":
        rows[i] = [zero] * width
    elif defect == "repeated row":
        rows[i] = list(rows[k])
    col_sets = draw(st.lists(index_sets(height, width), min_size=1, max_size=3))
    row_sets = draw(st.lists(index_sets(height, nrows), max_size=8))
    return rows, row_sets, col_sets


@settings(derandomize=True, deadline=None, max_examples=150)
@given(minor_requests())
def test_minor_matrix_matches_minor_table_and_det_on_both_routes(case):
    rows, row_sets, col_sets = case
    height = len(col_sets[0])
    poly = isinstance(rows[0][0], LaurentPoly)
    tables = [minor_table(rows, J) for J in col_sets]
    expected = [[table[I] for table in tables] for I in row_sets]
    for I, values in zip(row_sets, expected):
        for J, value in zip(col_sets, values):
            assert value == det(submatrix(rows, I, J)), (I, J)
    wanted = len(row_sets) * len(col_sets)
    eliminated = []

    def counting(m):
        eliminated.append(len(m))
        return det_fractions(m)

    # the route the count rule picks, then each route forced; polynomial
    # rows take the table even when elimination is forced
    table_steps = sum(comb(len(rows), j) * j for j in range(1, height + 1))
    routes = (
        (pmatrix._eliminates, len(row_sets) * height**3 < table_steps),
        (lambda *_: False, False),
        (lambda *_: True, True),
    )
    with mock.patch.object(pmatrix, "det_fractions", counting):
        for rule, by_elimination in routes:
            eliminated.clear()
            with mock.patch.object(pmatrix, "_eliminates", rule):
                assert minor_matrix(rows, row_sets, col_sets) == expected, by_elimination
            assert eliminated == ([height] * wanted if by_elimination and not poly else [])


@st.composite
def refused_requests(draw):
    """A rational request with one bad column set or one bad row set among
    good ones, and the message its refusal must give."""
    rows, row_sets, col_sets = draw(minor_requests(st.integers(-9, 9), min_height=1))
    nrows, width, height = len(rows), len(rows[0]), len(col_sets[0])
    target = draw(st.sampled_from(("row", "column")))
    bound = nrows if target == "row" else width
    good = draw(index_sets(height, bound))
    faults = {
        "index 0": ((0, *good[1:]), "index out of range"),
        "index past the end": ((*good[:-1], bound + 1), "index out of range"),
    }
    if height >= 2:
        faults["decreasing"] = (good[::-1], "strictly increasing")
        faults["repeated"] = ((good[0], *good[:-1]), "strictly increasing")
    if target == "row":
        size = draw(st.sampled_from([k for k in range(nrows + 1) if k != height]))
        faults["wrong size"] = (draw(index_sets(size, nrows)), "same size")
    elif width > nrows:
        faults["more columns than rows"] = (tuple(range(1, nrows + 2)), "index out of range")
    bad, message = faults[draw(st.sampled_from(sorted(faults)))]
    sets = row_sets if target == "row" else col_sets
    spot = draw(st.integers(0, len(sets)))
    sets = [*sets[:spot], bad, *sets[spot:]]
    if target == "row":
        return rows, sets, col_sets, message
    return rows, row_sets, sets, message


@settings(derandomize=True, deadline=None, max_examples=100)
@given(refused_requests())
def test_minor_matrix_refuses_bad_index_sets_alike_on_both_routes(case):
    rows, row_sets, col_sets, message = case
    for forced in (False, True):
        with mock.patch.object(pmatrix, "_eliminates", return_value=forced):
            with pytest.raises(UsageError, match=message):
                minor_matrix(rows, row_sets, col_sets)


@st.composite
def column_lists(draw):
    length = draw(st.integers(min_value=0, max_value=6))
    column = st.one_of(
        st.lists(table_entries, min_size=length, max_size=length), st.just([0] * length)
    )
    return (
        draw(st.lists(column, min_size=1, max_size=4)),
        draw(st.lists(column, min_size=1, max_size=4)),
    )


@settings(deadline=None, max_examples=200)
@given(column_lists())
def test_products_match_dot(case):
    xcols, ycols = case
    cells = products(xcols, ycols)
    assert cells == [[plain_dot(x, y) for y in ycols] for x in xcols]
    assert all(isinstance(value, Fraction) for row in cells for value in row)


def test_products_of_polynomial_and_int_columns():
    a = symbolic(3, 2)
    xcols = [list(col) for col in zip(*a)]
    zero = LaurentPoly.zero(6)
    ycols = [[LaurentPoly.variable(6, 1), zero, a[2][0] * a[0][1]], [zero] * 3]
    assert products(xcols, ycols) == [[plain_dot(x, y) for y in ycols] for x in xcols]
    assert products([[1, -2, 3]], [[4, 5, -6], [0, 0, 0]]) == [[-24, 0]]
