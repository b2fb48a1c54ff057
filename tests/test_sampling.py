"""Deterministic sampling layer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compdet.characters import verify_prop_detS, verify_theorem_schur
from compdet.errors import ParameterError
from compdet.macdonald import verify_corollary_macdonald
from compdet.sampling import (
    SplitMix64,
    point_is_admissible,
    qt_is_admissible,
    sample_point,
    sample_qt,
)


def test_reference_stream_seed_zero():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_determinism_and_seed_masking():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    wide = SplitMix64(12345 + (1 << 64))
    narrow = SplitMix64(12345)
    assert wide.next_u64() == narrow.next_u64()


def test_next_below():
    rng = SplitMix64(1)
    for bound in (1, 2, 7, 1 << 16):
        for _ in range(20):
            assert 0 <= rng.next_below(bound) < bound
    with pytest.raises(ParameterError):
        rng.next_below(0)


def test_point_admissibility_rules():
    assert point_is_admissible((Fraction(4), Fraction(9, 4)))
    assert not point_is_admissible((Fraction(1), Fraction(2)))
    assert not point_is_admissible((Fraction(0), Fraction(2)))
    assert not point_is_admissible((Fraction(-1), Fraction(2)))
    assert not point_is_admissible((Fraction(2), Fraction(2)))
    assert not point_is_admissible((Fraction(2), Fraction(1, 2)))


# small numerators and denominators, so repeats, 1 and reciprocal pairs
# come up often
positive_rationals = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@given(st.lists(positive_rationals, max_size=5))
def test_roots_are_admissible_exactly_when_their_squares_are(roots):
    assert point_is_admissible(roots) == point_is_admissible([r * r for r in roots])


def test_sample_point_properties():
    rng = SplitMix64(3)
    roots = sample_point(8, rng)
    assert len(roots) == 8
    assert all(isinstance(r, Fraction) and r > 0 for r in roots)
    assert point_is_admissible([r * r for r in roots])
    again = sample_point(8, SplitMix64(3))
    assert again == roots


def test_qt_sampling():
    assert qt_is_admissible(Fraction(1, 2), Fraction(1, 3))
    assert not qt_is_admissible(Fraction(1, 2), Fraction(1, 2))
    assert not qt_is_admissible(Fraction(0), Fraction(1, 2))
    assert not qt_is_admissible(Fraction(1, 2), Fraction(1))
    for seed in range(5):
        q, t = sample_qt(SplitMix64(seed))
        assert 0 < q < 1 and 0 < t < 1 and q != t


@pytest.mark.parametrize(
    "verify",
    [
        lambda seed: verify_theorem_schur("sp", 2, 2, seed),
        lambda seed: verify_prop_detS("gl", 4, 2, seed),
        lambda seed: verify_corollary_macdonald(2, 2, seed),
    ],
    ids=["schur-det", "prop12", "macdonald"],
)
def test_numeric_verifiers_sample_at_seed_zero_without_a_seed(verify):
    # as the compound verifiers do: no seed samples at 0, and says so
    unseeded = verify(None)
    seeded = verify(0)
    assert unseeded.seed == 0 == seeded.seed
    assert (unseeded.lhs_hash, unseeded.rhs_hash) == (seeded.lhs_hash, seeded.rhs_hash)
    assert unseeded.detail == seeded.detail
    assert verify(7).seed == 7
