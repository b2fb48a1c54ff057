"""Acceptance gate: the full mandated checklist, one printed line per criterion.

Every check here is exact; there are no tolerances to loosen.  A criterion
that fails prints FAIL and then fails its assertion with the offending
sub-results, so the summary line and the pytest outcome always agree.
"""

import sys
import time
from fractions import Fraction

import conftest

from compdet.characters import (
    FAMILIES,
    GL,
    SP,
    verify_denominators,
    verify_prop_detS,
    verify_theorem_schur,
)
from compdet.combin import (
    bump_except,
    compositions,
    compositions_positive,
    epsilon,
    iota,
    partitions_in_box,
    partitions_of,
    subsets_lex,
    successor_slots,
)
from compdet.compound import (
    CompoundSpec,
    vec_Vbar,
    verify_gram,
    verify_leading_term,
    verify_main,
    verify_sylvester,
)
from compdet.laurent import LaurentPoly
from compdet.macdonald import (
    b_lambda,
    macdonald_P,
    verify_corollary_macdonald,
)
from compdet.pmatrix import (
    det,
    det_cofactor,
    det_fraction_free,
    det_fractions,
    det_minor_expansion,
    minor,
)
from compdet.sampling import SplitMix64

from lemmas import (
    dominance_leq,
    dominated_except,
    laplace_pair,
    partition_to_rowset,
    vec_V,
)
from oracles import character, inner_product_m, leibniz_det, p_to_m, schur_tableau_poly


def _announce(num, name, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record_criterion(line)


def test_criterion_01_main_identity_symbolic():
    expected_factors = {
        (1, 4): ["{1,2,3,4}"],
        (4, 1): ["{1,2,3,4}"],
        (2, 2): ["{1,2,3}", "{1,3,4}"],
        (2, 3): ["{1,2,3,4}", "{1,2,4,5}", "{1,4,5,6}"],
        (3, 2): ["{1,2,3,5}", "{1,3,4,5}", "{1,3,5,6}"],
    }
    t0 = time.perf_counter()
    bad = []
    for (s, n), factors in expected_factors.items():
        report = verify_main(s, n)
        if not (report.equal and report.detail["rhs_factors"] == factors):
            bad.append((s, n, report.equal, report.detail["rhs_factors"]))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _announce(1, "main identity, symbolic, with frozen factor lists", ok)
    assert not bad, bad
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_main_identity_numeric():
    t0 = time.perf_counter()
    bad = []
    for s, n in [(3, 3), (4, 2), (2, 4)]:
        for seed in range(5):
            report = verify_main(s, n, mode="numeric", seed=seed)
            if not report.equal:
                bad.append((s, n, seed))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _announce(2, "main identity, numeric, 5 seeds at three sizes", ok)
    assert not bad, bad
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_03_square_compound_power():
    bad = []
    for s, n in [(2, 1), (3, 2), (4, 2)]:
        report = verify_sylvester(s, n)
        if not report.equal:
            bad.append(("symbolic", s, n))
    for s, n in [(4, 3), (5, 2)]:
        report = verify_sylvester(s, n, mode="numeric", seed=0)
        if not report.equal:
            bad.append(("numeric", s, n))
    ok = not bad
    _announce(3, "square-matrix compound determinant power law", ok)
    assert not bad, bad


def test_criterion_04_gram_worked_examples():
    colored = verify_gram(3, 2)
    pinned = verify_gram(3, 2, k0=1)
    checks = [
        colored.equal,
        colored.sign == -1,
        colored.detail["entry_identity_ok"],
        colored.detail["zero_pattern"]
        == ["***...", ".*....", "..*...", "...**.", "....*.", ".....*"],
        colored.detail["factor_multiplicity"]
        == {"{1,2,3,5}": 1, "{1,3,4,5}": 2, "{1,3,5,6}": 3},
        pinned.equal,
        pinned.sign == 1,
        pinned.detail["entry_identity_ok"],
        pinned.detail["zero_pattern"]
        == ["***.*.", ".*.**.", "..*.**", "...*..", "....*.", ".....*"],
        pinned.detail["factor_multiplicity"]
        == {
            "{1,2,3,5}": 1,
            "{1,3,4,5}": 1,
            "{1,3,5,6}": 1,
            "{2,3,4,5}": 1,
            "{3,4,5,6}": 1,
            "{2,3,5,6}": 1,
        },
    ]
    ok = all(checks)
    _announce(4, "pairing-matrix factorizations at the worked size", ok)
    assert ok, checks


def test_criterion_05_leading_term():
    bad = []
    for s, n in [(1, 4), (4, 1), (2, 2), (3, 2)]:
        report = verify_leading_term(s, n)
        if not report.equal:
            bad.append((s, n))
    ok = not bad
    _announce(5, "power-substitution leading term and coefficient one", ok)
    assert not bad, bad


def test_criterion_06_denominator_formulas():
    bad = []
    for n in range(1, 5):
        report = verify_denominators(n)
        if not report.equal:
            bad.append((n, report.detail))
    ok = not bad
    _announce(6, "alternant denominator product formulas, n = 1..4", ok)
    assert not bad, bad


def test_criterion_07_character_grid_identity():
    bad = []
    for family in FAMILIES:
        for s, n in [(2, 2), (3, 2), (2, 3)]:
            for seed in range(3):
                report = verify_theorem_schur(family, s, n, seed=seed)
                if not (report.equal and report.detail["bookkeeping_ok"]):
                    bad.append((family, s, n, seed))
    substituted = verify_theorem_schur(GL, 2, 2, seed=1, substitution=True)
    if not substituted.equal:
        bad.append(("gl-substituted", 2, 2, 1))
    ok = not bad
    _announce(7, "character-grid determinant identity, four families", ok)
    assert not bad, bad


def test_criterion_08_single_alphabet_identity():
    bad = []
    for kind in (GL, SP):
        for s, n in [(3, 2), (4, 2)]:
            for seed in range(3):
                report = verify_prop_detS(kind, s, n, seed=seed)
                if not (report.equal and report.sign in (1, -1)):
                    bad.append((kind, s, n, seed))
    ok = not bad
    _announce(8, "single-alphabet character determinant, up to recorded sign", ok)
    assert not bad, bad


def test_criterion_09_two_parameter_identity():
    # Both determinant identities hold at every size.  The printed scalar is
    # the cell product of the full (s-1)^n rectangle alone, so it equals the
    # product over all non-empty box partitions only when the box holds at
    # most one of them; the gap is the product over the others, frozen here.
    gap_rows = {(2, 1): [], (2, 2): [(1, 0)], (3, 1): [(1,)]}
    bad = []
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
    ok = not bad
    _announce(
        9,
        "two-parameter determinant identities; printed-scalar gap stated exactly",
        ok,
    )
    assert not bad, bad


def _random_constant_matrix(size, rng):
    top = 1 << 16
    return [
        [
            LaurentPoly.const(
                0, Fraction(rng.next_below(top) - (1 << 15), rng.next_below(255) + 1)
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def _det_oracle_equivalence():
    rng = SplitMix64(2024)
    for trial in range(200):
        size = 2 + trial % 4
        m = _random_constant_matrix(size, rng)
        reference = leibniz_det([[m[i][j] for j in range(size)] for i in range(size)])
        if det_cofactor(m, bound=6) != reference:
            return False
        if det_fraction_free(m) != reference:
            return False
        if det_minor_expansion(m) != reference:
            return False
        fracs = [[m[i][j].coefficient(()) for j in range(size)] for i in range(size)]
        if det_fractions(fracs) != reference.coefficient(()):
            return False
    return True


def _laplace_exhaustive():
    spec = CompoundSpec.symbolic(3, 2)
    full = tuple(range(1, 5))
    for J in subsets_lex(6, 2):
        for K in subsets_lex(6, 2):
            got = laplace_pair(spec, J, K)
            sign = epsilon(J, K)
            if sign == 0:
                if got:
                    return False
            else:
                union = tuple(sorted(set(J) | set(K)))
                want = det(minor(spec.A, full, union))
                if got != (want if sign == 1 else want * -1):
                    return False
    return True


def _pairing_zero_support(spec):
    v_cache = {lam: vec_V(spec, iota(lam, spec.n)) for lam in spec.col_comps}
    vbar_cache = {}
    for k in range(1, spec.s + 1):
        for mu in spec.col_comps:
            if mu[k - 1] == 0:
                continue
            slots = successor_slots(mu, k, spec.n)
            if slots not in vbar_cache:
                vbar_cache[slots] = vec_Vbar(spec, slots)
            w = vbar_cache[slots]
            for lam in spec.col_comps:
                if dominated_except(lam, mu, k):
                    continue
                total = None
                for a, b in zip(v_cache[lam], w):
                    term = a * b
                    total = term if total is None else total + term
                if total != 0:
                    return False
    return True


def _bump_bijection_and_pairing():
    for s in range(1, 5):
        for n in range(1, 5):
            image = set()
            for k in range(1, s + 1):
                for mu in compositions(s, n):
                    if mu[k - 1] == 0:
                        continue
                    slots = successor_slots(mu, k, n)
                    prefix = iota(mu, n)
                    if set(prefix) & set(slots):
                        return False
                    if tuple(sorted(set(prefix) | set(slots))) != iota(
                        bump_except(mu, k), n
                    ):
                        return False
                    if k == 1:
                        image.add(bump_except(mu, k))
            if image != set(compositions_positive(s, s + n - 1)):
                return False
    rng = SplitMix64(77)
    for s in range(1, 5):
        for n in range(1, 5):
            spec = (
                CompoundSpec.symbolic(s, n)
                if s <= 3 and n <= 3
                else CompoundSpec.sampled(s, n, rng)
            )
            if not _pairing_zero_support(spec):
                return False
    return True


def _index_map_order_and_counts():
    from math import comb

    for s in range(1, 7):
        for n in range(1, 7):
            comps = compositions(s, n)
            if len(comps) != comb(s + n - 1, n):
                return False
            if len(compositions_positive(s, s + n - 1)) != comb(s + n - 2, n - 1):
                return False
            for k in range(1, s + 1):
                head = sum(1 for mu in comps if mu[k - 1] > 0)
                if head != comb(s + n - 2, n - 1):
                    return False
            boxes = partitions_in_box(n, s - 1)
            rowsets = [partition_to_rowset(lam, s, n) for lam in boxes]
            if rowsets != list(subsets_lex(s + n - 1, n)):
                return False
    return True


def _two_parameter_structure():
    q, t = Fraction(1, 2), Fraction(1, 3)
    for weight in range(1, 6):
        parts = partitions_of(weight)
        basis = {lam: p_to_m(macdonald_P(lam, q, t)) for lam in parts}
        for lam in parts:
            if basis[lam][lam] != 1:
                return False
            for mu, coeff in basis[lam].items():
                if coeff and not dominance_leq(mu, lam):
                    return False
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                if inner_product_m(basis[lam], basis[mu], weight, q, t) != 0:
                    return False
    return True


def _tableau_oracle_agreement():
    for n in (1, 2, 3):
        for weight in range(0, 5):
            for lam in partitions_of(weight, max_parts=n):
                if character(GL, lam, num_vars=n) != schur_tableau_poly(lam, n):
                    return False
    return True


def test_criterion_10_property_suites():
    results = {
        "determinant-oracle-equivalence": _det_oracle_equivalence(),
        "expansion-pairing-exhaustive": _laplace_exhaustive(),
        "bump-bijection-and-vanishing": _bump_bijection_and_pairing(),
        "index-map-order-and-counts": _index_map_order_and_counts(),
        "two-parameter-triangular-orthogonal": _two_parameter_structure(),
        "tableau-oracle-agreement": _tableau_oracle_agreement(),
    }
    ok = all(results.values())
    _announce(10, "property suites over the combinatorial core", ok)
    assert ok, {k: v for k, v in results.items() if not v}
