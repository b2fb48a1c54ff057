"""Acceptance gate: the full mandated checklist, one printed line per criterion.

Every check here is exact; there are no tolerances to loosen.  Each
criterion runs the module checks it names, with its own sizes, seeds and
parameters, so every property is written once, next to the module it
tests.  Criterion 09 alone has a body here: the exact gap between the
printed scalar and the cell product is asserted nowhere else.  A criterion
that fails prints FAIL and then raises the failing check's own error, so
the summary line and the pytest outcome always agree.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import conftest
import test_characters
import test_combin
import test_compound
import test_macdonald
import test_matrix

from compdet.combin import partitions_in_box
from compdet.macdonald import b_lambda, verify_corollary_macdonald


@contextmanager
def criterion(num, name, seconds=None):
    """Announce criterion num: PASS when its body returns within seconds,
    else FAIL before the body's own error propagates."""
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert seconds is None or elapsed < seconds, f"took {elapsed:.1f}s"
        ok = True
    finally:
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
        print(line, file=sys.__stdout__, flush=True)
        conftest.record_criterion(line)


def test_criterion_01_main_identity_symbolic():
    with criterion(1, "main identity, symbolic, with frozen factor lists", seconds=60.0):
        test_compound.check_main_symbolic(test_compound.MAIN_FACTORS)


def test_criterion_02_main_identity_numeric():
    with criterion(2, "main identity, numeric, 5 seeds at three sizes", seconds=300.0):
        test_compound.check_main_numeric(range(5))


def test_criterion_03_square_compound_power():
    with criterion(3, "square-matrix compound determinant power law"):
        test_compound.check_sylvester([(2, 1), (3, 2), (4, 2)], [(4, 3), (5, 2)], seed=0)


def test_criterion_04_gram_worked_examples():
    with criterion(4, "pairing-matrix factorizations at the worked size"):
        test_compound.test_gram_colored_worked_example()
        test_compound.test_gram_pinned_worked_example()


def test_criterion_05_leading_term():
    with criterion(5, "power-substitution leading term and coefficient one"):
        test_compound.check_leading_term([(1, 4), (4, 1), (2, 2), (3, 2)])


def test_criterion_06_denominator_formulas():
    with criterion(6, "alternant denominator product formulas, n = 1..4"):
        test_characters.test_denominator_product_formulas()


def test_criterion_07_character_grid_identity():
    with criterion(7, "character-grid determinant identity, four families"):
        test_characters.check_character_grid(range(3))
        test_characters.check_character_grid_substituted(1)


def test_criterion_08_single_alphabet_identity():
    with criterion(8, "single-alphabet character determinant, sign included"):
        test_characters.check_single_alphabet([(3, 2), (4, 2)], range(3))


def test_criterion_09_two_parameter_identity():
    # Both determinant identities hold at every size.  The printed scalar is
    # the cell product of the full (s-1)^n rectangle alone, so it equals the
    # product over all non-empty box partitions only when the box holds at
    # most one of them; the gap is the product over the others, frozen here.
    gap_rows = {(2, 1): [], (2, 2): [(1, 0)], (3, 1): [(1,)]}
    bad = []
    name = "two-parameter determinant identities; printed-scalar gap stated exactly"
    with criterion(9, name):
        for (s, n), others in gap_rows.items():
            rectangle = (s - 1,) * n
            nonempty = [lam for lam in partitions_in_box(n, s - 1) if any(lam)]
            single = len(nonempty) <= 1
            for seed in range(3):
                report = verify_corollary_macdonald(s, n, seed=seed)
                detail = report.detail
                q, t = detail["q"], detail["t"]
                cell_product = Fraction(1)
                for lam in nonempty:
                    cell_product *= b_lambda(lam, q, t)
                gap = Fraction(1)
                for lam in others:
                    gap *= b_lambda(lam, q, t)
                checks = {
                    "p_equal": detail["p_equal"],
                    "q_equal_bproduct": detail["q_equal_bproduct"],
                    "printed_is_rectangle": detail["printed_prefactor"]
                    == b_lambda(rectangle, q, t),
                    "cell_product": detail["cell_product"] == cell_product,
                    "gap_rows": others == [lam for lam in nonempty if lam != rectangle],
                    "exact_gap": detail["cell_product"] == detail["printed_prefactor"] * gap,
                    "prefactor_identity": detail["prefactor_identity"] == single,
                    "q_equal_printed_prefactor": detail["q_equal_printed_prefactor"]
                    == single,
                    "equal": report.equal == single,
                }
                if not all(checks.values()):
                    bad.append((s, n, seed, checks))
        assert not bad, bad


def test_criterion_10_property_suites():
    q, t = Fraction(1, 2), Fraction(1, 3)
    with criterion(10, "property suites over the combinatorial core"):
        # determinant-oracle equivalence
        test_matrix.check_determinant_algorithms_agree(2024, dens=255)
        # expansion pairing, exhaustive at (3, 2)
        test_compound.test_expansion_pairing_exhaustive_small()
        # bump bijection, and the pairings it predicts to vanish
        test_combin.test_bump_is_bijection_onto_positive_compositions()
        test_combin.test_partner_union_gives_positive_composition_slots()
        sizes = [(s, n) for s in range(1, 5) for n in range(1, 5)]
        test_compound.check_pairing_vanishes(sizes, seed=77)
        # index-map order and counts
        test_combin.test_positive_composition_count()
        test_combin.test_partition_to_rowset_order_preservation()
        # two-parameter basis: triangular and orthogonal
        test_macdonald.check_triangularity(q, t)
        test_macdonald.check_orthogonality(q, t)
        # tableau-oracle agreement
        test_characters.test_gl_characters_match_tableau_oracle()
