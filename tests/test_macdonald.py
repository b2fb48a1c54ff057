"""Two-parameter symmetric function basis and its determinant identity."""

from fractions import Fraction

import pytest

from compdet import macdonald
from compdet.combin import partitions_of
from compdet.errors import CapabilityError, ParameterError, UsageError
from compdet.macdonald import (
    MAX_WEIGHT,
    b_lambda,
    evaluate_symfunc,
    inner_product_p,
    macdonald_P,
    pochhammer,
    printed_prefactor,
    verify_corollary_macdonald,
    z_lambda,
)

from lemmas import dominance_leq
from oracles import (
    evaluate_monomial_vector,
    expand_p_in_m,
    inner_product_m,
    macdonald_P_monomial_route,
    p_to_m,
    row_coefficient_ratio,
    schur_tableau_value,
)

QT_SAMPLES = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2, 5), Fraction(3, 4)),
    (Fraction(1, 7), Fraction(5, 6)),
]


def test_z_lambda_frozen():
    assert z_lambda(()) == 1
    assert z_lambda((1,)) == 1
    assert z_lambda((2,)) == 2
    assert z_lambda((1, 1)) == 2
    assert z_lambda((2, 1)) == 2
    assert z_lambda((2, 2)) == 8
    assert z_lambda((3, 2, 1)) == 6
    assert z_lambda((1, 1, 1)) == 6


def test_pochhammer_frozen():
    q = Fraction(1, 2)
    assert pochhammer(q, q, 0) == 1
    assert pochhammer(q, q, 2) == Fraction(1, 2) * Fraction(3, 4)


def test_power_sum_expansions_frozen():
    assert expand_p_in_m((1,)) == {(1,): 1}
    assert expand_p_in_m((2,)) == {(2,): 1}
    assert expand_p_in_m((1, 1)) == {(2,): 1, (1, 1): 2}
    assert expand_p_in_m((2, 1)) == {(3,): 1, (2, 1): 1}
    assert expand_p_in_m((1, 1, 1)) == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}


def test_cell_product_frozen():
    q, t = Fraction(1, 2), Fraction(1, 3)
    one_minus = lambda x: 1 - x
    assert b_lambda((1,), q, t) == one_minus(t) / one_minus(q)
    assert b_lambda((2,), q, t) == (
        one_minus(t) * one_minus(q * t) / (one_minus(q) * one_minus(q * q))
    )
    assert b_lambda((1, 1), q, t) == (
        one_minus(t) * one_minus(t * t) / (one_minus(q) * one_minus(q * t))
    )


def test_monic_row_coefficient_matches_frozen_ratio():
    for q, t in QT_SAMPLES:
        p = p_to_m(macdonald_P((2,), q, t))
        assert p[(2,)] == 1
        assert p[(1, 1)] == row_coefficient_ratio(q, t)
    q, t = Fraction(1, 2), Fraction(1, 3)
    assert p_to_m(macdonald_P((2,), q, t))[(1, 1)] == Fraction(6, 5)


def test_basis_matches_monomial_route_gram_schmidt():
    # the power-sum construction gives the very vectors of Gram-Schmidt
    # over monomial vectors, at q > t and at q < t
    for q, t in QT_SAMPLES[:2]:
        for weight in range(1, MAX_WEIGHT + 1):
            for lam in partitions_of(weight):
                expected = macdonald_P_monomial_route(lam, q, t)
                assert p_to_m(macdonald_P(lam, q, t)) == expected, lam


def test_triangularity_in_dominance_order():
    for q, t in QT_SAMPLES[:2]:
        for weight in range(0, 6):
            for lam in partitions_of(weight):
                p = p_to_m(macdonald_P(lam, q, t))
                assert p[lam] == 1
                for mu, coeff in p.items():
                    if coeff:
                        assert dominance_leq(mu, lam), (lam, mu)


def test_orthogonality_of_distinct_rows():
    for q, t in QT_SAMPLES[:2]:
        for weight in range(1, 6):
            parts = partitions_of(weight)
            basis = {lam: p_to_m(macdonald_P(lam, q, t)) for lam in parts}
            for lam in parts:
                for mu in parts:
                    ip = inner_product_m(basis[lam], basis[mu], weight, q, t)
                    if lam == mu:
                        assert ip > 0
                    else:
                        assert ip == 0


def test_dual_pairing_is_unitriangular():
    # Q_lam = b_lam * P_lam is the dual of P_lam: <P_lam, Q_lam> = 1
    q, t = QT_SAMPLES[0]
    for weight in range(1, 6):
        for lam in partitions_of(weight):
            p = p_to_m(macdonald_P(lam, q, t))
            b = b_lambda(lam, q, t)
            qq = {mu: b * coeff for mu, coeff in p.items()}
            assert inner_product_m(p, qq, weight, q, t) == 1


def test_power_sum_inner_product_values():
    q, t = Fraction(1, 2), Fraction(1, 3)
    assert inner_product_p((1,), (1,), q, t) == Fraction(3, 4)
    assert inner_product_p((2,), (2,), q, t) == Fraction(27, 16)
    assert inner_product_p((1, 1), (1, 1), q, t) == Fraction(9, 8)
    assert inner_product_p((2,), (1, 1), q, t) == 0
    assert inner_product_p((3,), (2, 1), q, t) == 0
    # Trailing zeros are cosmetic; misordered parts are rejected.
    assert inner_product_p((2, 1, 0), (2, 1), q, t) == Fraction(27, 16) * Fraction(3, 4)
    with pytest.raises(UsageError):
        inner_product_p((1, 2), (2, 1), q, t)


def test_power_sum_inner_product_matches_monomial_route():
    q, t = QT_SAMPLES[1]
    for lam in partitions_of(3):
        for mu in partitions_of(3):
            via_m = inner_product_m(expand_p_in_m(lam), expand_p_in_m(mu), 3, q, t)
            assert via_m == inner_product_p(lam, mu, q, t)


def test_power_sum_inner_product_degenerate_t():
    with pytest.raises(ParameterError):
        inner_product_p((2,), (2,), Fraction(1, 2), Fraction(-1))


def test_equal_parameters_degenerate_to_tableau_sums():
    q = Fraction(2, 7)
    values = (Fraction(3, 5), Fraction(1, 2), Fraction(4, 9))
    for weight in range(0, 5):
        for lam in partitions_of(weight, max_parts=3):
            p = macdonald_P(lam, q, q)
            got = evaluate_symfunc(p, values)
            assert got == schur_tableau_value(lam, values), lam


def test_power_sum_evaluation_matches_monomial_route():
    # distinct denominators in each tuple, so the values clear by a
    # non-trivial lcm; the short tuples have fewer values than many
    # partitions have parts
    value_tuples = [
        (),
        (Fraction(2, 3),),
        (Fraction(5, 7), Fraction(-1, 4)),
        (Fraction(2, 3), Fraction(5, 7), Fraction(1, 4)),
        tuple(Fraction(k, 2 * k + 1) for k in range(1, 9)),
    ]
    for q, t in QT_SAMPLES[:2]:
        for weight in range(0, MAX_WEIGHT + 1):
            for lam in partitions_of(weight):
                got = macdonald_P(lam, q, t)
                expected = macdonald_P_monomial_route(lam, q, t)
                for values in value_tuples:
                    assert evaluate_symfunc(got, values) == evaluate_monomial_vector(
                        expected, values
                    ), (lam, len(values))
    for values in value_tuples:
        assert evaluate_symfunc({(): Fraction(1)}, values) == 1
        assert evaluate_symfunc({}, values) == 0


def test_printed_scalar_equals_largest_row_cell_product():
    # the closed-form scalar is the cell product of the single box-shaped
    # row partition, not the product over all rows; at s = 1 the box is
    # empty and both sides are 1
    for q, t in QT_SAMPLES:
        for s in range(1, MAX_WEIGHT + 2):
            for n in range(1, MAX_WEIGHT + 1):
                if (s - 1) * n > MAX_WEIGHT:
                    continue
                box = tuple([s - 1] * n)
                assert printed_prefactor(s, n, q, t) == b_lambda(box, q, t), (s, n)


def test_column_count_one_passes_as_printed():
    for idx, (q, t) in enumerate(QT_SAMPLES):
        report = verify_corollary_macdonald(2, 1, seed=idx, q=q, t=t)
        assert report.equal
        assert report.detail["p_equal"]
        assert report.detail["q_equal_printed_prefactor"]
        assert report.detail["prefactor_identity"]
        assert report.detail["q_equal_bproduct"]


def test_larger_grid_splits_printed_and_true_scalars():
    report = verify_corollary_macdonald(2, 2, seed=0)
    assert report.detail["p_equal"]
    assert report.detail["q_equal_bproduct"]
    assert not report.detail["prefactor_identity"]
    assert not report.detail["q_equal_printed_prefactor"]
    assert not report.equal
    # the printed scalar is exactly the box partition's cell product
    q, t = report.detail["q"], report.detail["t"]
    assert report.detail["printed_prefactor"] == b_lambda((1, 1), q, t)
    assert report.detail["cell_product"] == (
        b_lambda((1, 1), q, t) * b_lambda((1,), q, t)
    )


def test_monic_determinant_identity_more_sizes():
    for s, n in [(3, 1), (2, 3), (3, 2)]:
        report = verify_corollary_macdonald(s, n, seed=4)
        assert report.detail["p_equal"], (s, n)
        assert report.detail["q_equal_bproduct"], (s, n)


def test_one_row_at_twelve_columns_and_sizes_at_the_cap():
    # s = 1 has weight 0 at every n, so the cap admits any n
    report = verify_corollary_macdonald(1, 12, seed=0)
    assert report.equal
    assert report.exit_code == 0
    for s, n in [(2, 8), (9, 1)]:
        report = verify_corollary_macdonald(s, n, seed=0)
        assert report.detail["p_equal"], (s, n)
        assert report.detail["q_equal_bproduct"], (s, n)


def test_basis_cache_holds_one_parameter_pair():
    # every seed samples a new (q, t); the cache keeps the bases of one
    for seed in range(4):
        verify_corollary_macdonald(5, 2, seed=seed)
    assert macdonald._basis_for_weight.cache_info().currsize <= MAX_WEIGHT


def test_one_grid_determinant_per_check(monkeypatch):
    calls = 0
    real = macdonald.det

    def counting(rows):
        nonlocal calls
        calls += 1
        return real(rows)

    monkeypatch.setattr(macdonald, "det", counting)
    for s, n in [(2, 1), (2, 2), (3, 2), (5, 2)]:
        calls = 0
        report = verify_corollary_macdonald(s, n, seed=0)
        assert calls == 1, (s, n)
        assert report.detail["q_equal_bproduct"] == report.detail["p_equal"]


def test_parameter_validation():
    with pytest.raises(UsageError):
        verify_corollary_macdonald(2, 2, seed=0, q=Fraction(1, 2))
    with pytest.raises(ParameterError):
        verify_corollary_macdonald(2, 2, seed=0, q=Fraction(1, 2), t=Fraction(1, 2))
    with pytest.raises(ParameterError):
        verify_corollary_macdonald(2, 2, seed=0, q=Fraction(3, 2), t=Fraction(1, 2))
    with pytest.raises(CapabilityError):
        verify_corollary_macdonald(4, 4, seed=0)
    with pytest.raises(CapabilityError):
        macdonald_P((9,), Fraction(1, 2), Fraction(1, 3))
