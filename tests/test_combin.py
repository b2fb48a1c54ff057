"""Compositions, subsets, partner maps, partitions: frozen values and laws."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import dominance_leq, dominated_except, partition_to_rowset
from oracles import crossing_sign

from compdet.combin import (
    binom_nonneg,
    bump_except,
    color,
    compositions,
    compositions_positive,
    conjugate,
    epsilon,
    format_composition,
    format_subset,
    iota,
    partitions_in_box,
    partitions_of,
    partner_slots_colored,
    partner_slots_pinned,
    subsets_lex,
    successor_slots,
)
from compdet.errors import DomainError, UsageError


def test_compositions_head_heavy_frozen_order():
    assert compositions(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert compositions_positive(3, 4) == [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    assert compositions(1, 0) == [(0,)]


def test_compositions_order_is_descending_lex():
    for s in range(1, 5):
        for n in range(0, 5):
            out = compositions(s, n)
            assert out == sorted(out, reverse=True)
            assert len(out) == len(set(out)) == comb(s + n - 1, n)


def test_positive_composition_count():
    for s in range(1, 7):
        for n in range(1, 7):
            out = compositions_positive(s, s + n - 1)
            assert len(out) == comb(s + n - 2, s - 1)
            assert all(min(nu) >= 1 and max(nu) <= n for nu in out)
            # at each slot k, as many compositions of n have a part there
            comps = compositions(s, n)
            assert len(comps) == comb(s + n - 1, n)
            for k in range(1, s + 1):
                assert sum(1 for mu in comps if mu[k - 1] > 0) == len(out), (s, n, k)


def test_iota_frozen_values_and_validation():
    assert iota((2, 0, 0), 2) == (1, 2)
    assert iota((1, 1, 0), 2) == (1, 3)
    assert iota((0, 1, 1), 2) == (3, 5)
    assert iota((2, 1, 1), 2) == (1, 2, 3, 5)
    assert iota((), 3) == ()
    with pytest.raises(DomainError):
        iota((3, 0), 2)


def test_epsilon_frozen_values():
    assert epsilon((3, 4, 8), (1, 6, 9)) == 1
    assert epsilon((1, 2), (3, 4)) == 1
    assert epsilon((3, 4), (1, 2)) == 1  # four crossings, even
    assert epsilon((2,), (1,)) == -1
    assert epsilon((1, 3), (3, 4)) == 0
    with pytest.raises(UsageError):
        epsilon((1, 1), (2,))


@settings(deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=12), max_size=5),
    st.sets(st.integers(min_value=1, max_value=12), max_size=5),
)
def test_epsilon_matches_sorting_parity(left, right):
    left = tuple(sorted(left))
    right = tuple(sorted(right))
    assert epsilon(left, right) == crossing_sign(left, right)


def test_epsilon_concatenation_sign_symmetry():
    # swapping the blocks costs one crossing per element pair
    for left, right in [((1, 4), (2, 3)), ((2, 5, 6), (1, 3, 4))]:
        flips = len(left) * len(right)
        assert epsilon(left, right) == epsilon(right, left) * (-1) ** flips


def test_successor_slots_frozen_values():
    assert successor_slots((2, 0, 0), 1, 2) == (3, 5)
    assert successor_slots((1, 1, 0), 1, 2) == (4, 5)
    assert successor_slots((1, 0, 1), 1, 2) == (3, 6)
    with pytest.raises(DomainError):
        successor_slots((0, 2, 0), 1, 2)  # slot past a full block escapes


def test_bump_inverse_and_frozen_values():
    assert bump_except((2, 0, 0), 1) == (2, 1, 1)
    assert bump_except((1, 1, 0), 1) == (1, 2, 1)
    assert bump_except((1, 0, 1), 1) == (1, 1, 2)
    for mu in compositions(3, 2):
        for k in range(1, 4):
            # lowering every part off slot k undoes the bump
            nu = bump_except(mu, k)
            assert tuple(v - (i != k - 1) for i, v in enumerate(nu)) == mu


def test_bump_is_bijection_onto_positive_compositions():
    for s in range(1, 5):
        for n in range(1, 5):
            for k in range(1, s + 1):
                members = [mu for mu in compositions(s, n) if mu[k - 1] > 0]
                assert len(members) == comb(s + n - 2, n - 1)
                images = [bump_except(mu, k) for mu in members]
                assert sorted(images) == sorted(compositions_positive(s, s + n - 1))


def test_partner_union_gives_positive_composition_slots():
    # the defining split: iota(mu) and the partner slots are disjoint and
    # their union is exactly iota of the bumped composition
    for s in range(1, 5):
        for n in range(1, 5):
            for k in range(1, s + 1):
                for mu in compositions(s, n):
                    if mu[k - 1] == 0:
                        continue
                    left = set(iota(mu, n))
                    right = set(successor_slots(mu, k, n))
                    assert not left & right
                    assert tuple(sorted(left | right)) == iota(bump_except(mu, k), n)


def test_color_picks_first_maximal_part():
    assert color((2, 0, 0)) == 1
    assert color((0, 2, 0)) == 2
    assert color((1, 0, 1)) == 1
    assert color((0, 1, 1)) == 2


def test_partner_slots_colored_frozen_table():
    table = {
        (2, 0, 0): (3, 5),
        (1, 1, 0): (4, 5),
        (1, 0, 1): (3, 6),
        (0, 2, 0): (1, 5),
        (0, 1, 1): (1, 6),
        (0, 0, 2): (1, 3),
    }
    for mu, slots in table.items():
        assert partner_slots_colored(mu, 2) == slots


def test_partner_slots_pinned_frozen_table():
    table = {
        (2, 0, 0): (3, 5),
        (1, 1, 0): (4, 5),
        (1, 0, 1): (3, 6),
        (0, 2, 0): (2, 5),
        (0, 1, 1): (4, 6),
        (0, 0, 2): (2, 3),
    }
    for mu, slots in table.items():
        assert partner_slots_pinned(mu, 1, 2) == slots


def test_pinned_slots_disjoint_from_prefix_slots():
    for s in range(2, 5):
        for n in range(2, 5):
            for k0 in range(1, s + 1):
                for mu in compositions(s, n):
                    slots = partner_slots_pinned(mu, k0, n)
                    assert len(slots) == s - 1
                    assert not set(slots) & set(iota(mu, n))


def test_dominated_except():
    assert dominated_except((0, 1, 0), (2, 1, 0), 1)
    assert dominated_except((5, 1, 0), (0, 1, 0), 1)
    assert not dominated_except((0, 2, 0), (9, 1, 0), 1)
    with pytest.raises(UsageError):
        dominated_except((1, 0), (1, 0, 0), 1)


def test_subsets_lex_matches_combinations():
    assert subsets_lex(4, 2) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    ]
    assert subsets_lex(3, 0) == [()]


def test_partitions_of_frozen_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]


def test_partitions_in_box_frozen_order():
    assert partitions_in_box(2, 2) == [
        (2, 2),
        (2, 1),
        (2, 0),
        (1, 1),
        (1, 0),
        (0, 0),
    ]
    assert partitions_in_box(2, 0) == [(0, 0)]
    for n in range(1, 5):
        for top in range(0, 4):
            out = partitions_in_box(n, top)
            assert out == sorted(out, reverse=True)
            assert len(out) == comb(n + top, n)


def test_partition_to_rowset_order_preservation():
    for s in range(1, 7):
        for n in range(1, 7):
            rowsets = [
                partition_to_rowset(lam, s, n) for lam in partitions_in_box(n, s - 1)
            ]
            assert rowsets == subsets_lex(s + n - 1, n)
    with pytest.raises(DomainError):
        partition_to_rowset((5, 0), 2, 2)


def test_dominance_and_conjugate():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert not dominance_leq((2,), (1, 1, 1))  # different weights
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)
    assert conjugate(()) == ()


def test_binom_nonneg_convention():
    assert binom_nonneg(3, 1) == 3
    assert binom_nonneg(3, 0) == 1
    assert binom_nonneg(-1, 0) == 0
    assert binom_nonneg(2, 5) == 0
    assert binom_nonneg(4, -1) == 0


def test_format_helpers():
    assert format_composition((2, 0, 0)) == "(2,0,0)"
    assert format_subset((1, 3)) == "{1,3}"
    assert format_composition(()) == "()"
