"""Deterministic sampling layer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compdet.characters import _substitution_point, verify_prop_detS, verify_theorem_schur
from compdet.errors import ParameterError, UsageError
from compdet.macdonald import verify_corollary_macdonald
from compdet.sampling import (
    MASK64,
    MAX_RETRIES,
    SplitMix64,
    point_is_admissible,
    qt_is_admissible,
    sample_point,
    sample_qt,
    sample_seed,
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


class ConstantStream:
    """A stand-in generator whose every draw is 0: each rational it makes is
    1, so no point and no (q, t) pair it gives is ever admissible."""

    def next_below(self, bound):
        return 0


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: sample_point(3, rng), "no admissible point after 32 attempts"),
        (sample_qt, r"no admissible \(q, t\) after 32 attempts"),
        (
            lambda rng: _substitution_point(2, 2, rng),
            "no admissible substituted point after 32 attempts",
        ),
    ],
    ids=["point", "qt", "substituted-point"],
)
def test_each_draw_gives_up_after_max_retries(draw, message):
    assert MAX_RETRIES == 32
    with pytest.raises(ParameterError, match=f"^{message}$"):
        draw(ConstantStream())


def test_a_numeric_seed_must_lie_in_the_splitmix_range():
    assert sample_seed("numeric", 0) == 0
    assert sample_seed("numeric", MASK64) == MASK64
    assert sample_seed("numeric", None) == 0
    for seed in (-1, MASK64 + 1, MASK64 + 6):
        with pytest.raises(UsageError, match=r"outside \[0, 2\^64\)"):
            sample_seed("numeric", seed)
    # symbolic mode samples nothing and ignores the seed
    assert sample_seed("symbolic", -1) is None
    assert sample_seed("symbolic", MASK64 + 1) is None
    with pytest.raises(UsageError):
        verify_theorem_schur("sp", 2, 2, MASK64 + 1)
