"""Symbolic and numeric mode compute the same compound sides.

At each symbolic size, A is sampled with the numeric generator and each
symbolic side is evaluated at A read row-major, the order in which
pmatrix.symbolic numbers its variables.  The values must equal the numeric
sides exactly: det M and each maximal minor of `main`, every cell of T in
`gram` for every partner variant, and the compound determinant and det A
of `sylvester`.  The one-dimensional shapes stop at s+n-1 = 6: at 8, the
40,320-term det M alone takes seconds to evaluate.
"""

import pytest

from compdet.combin import compositions_positive, iota, subsets_lex
from compdet.compound import (
    SYMBOLIC_CASES,
    CompoundSpec,
    _maximal_minor,
    _random_matrix,
    build_M,
    gram_matrix,
    partner_map_for_variant,
)
from compdet.pmatrix import det, minor_matrix, symbolic
from compdet.sampling import SplitMix64

LINE_SHAPES = [(1, n) for n in range(1, 7)] + [(s, 1) for s in range(2, 7)]
SIZES = sorted(SYMBOLIC_CASES) + LINE_SHAPES


def sampled_pair(s, n, seed):
    """The symbolic spec, the numeric spec at seed, and its point."""
    numeric = CompoundSpec.sampled(s, n, SplitMix64(seed))
    point = [x for row in numeric.A for x in row]
    return CompoundSpec.symbolic(s, n), numeric, point


@pytest.mark.parametrize("s, n", SIZES)
def test_main_sides_agree_across_modes(s, n):
    symbolic_spec, numeric_spec, point = sampled_pair(s, n, seed=s + 10 * n)
    assert det(build_M(symbolic_spec)).eval(point) == det(build_M(numeric_spec))
    for nu in compositions_positive(s, s + n - 1):
        cols = iota(nu, n)
        value = _maximal_minor(symbolic_spec.A, cols).eval(point)
        assert value == _maximal_minor(numeric_spec.A, cols), cols


@pytest.mark.parametrize("s, n", SIZES)
def test_gram_cells_agree_across_modes(s, n):
    symbolic_spec, numeric_spec, point = sampled_pair(s, n, seed=s + 10 * n + 1)
    # pinned partner slots need blocks of width n >= 2
    for k0 in [None, *range(1, s + 1)] if n > 1 else [None]:
        symbolic_T = gram_matrix(symbolic_spec, partner_map_for_variant(symbolic_spec, k0))
        numeric_T = gram_matrix(numeric_spec, partner_map_for_variant(numeric_spec, k0))
        for i, (symbolic_row, numeric_row) in enumerate(zip(symbolic_T, numeric_T)):
            for j, (cell, value) in enumerate(zip(symbolic_row, numeric_row)):
                assert cell.eval(point) == value, (k0, i, j)


@pytest.mark.parametrize("s", range(1, 5))
def test_sylvester_sides_agree_across_modes(s):
    A = symbolic(s, s)
    numeric_A = _random_matrix(s, s, SplitMix64(s))
    point = [x for row in numeric_A for x in row]
    assert det(A).eval(point) == det(numeric_A)
    for n in range(1, s + 1):
        subsets = subsets_lex(s, n)
        value = det(minor_matrix(A, subsets, subsets)).eval(point)
        assert value == det(minor_matrix(numeric_A, subsets, subsets)), n
