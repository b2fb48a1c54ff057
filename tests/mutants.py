"""A small mutation ledger for the verdict code of the verifiers, the
request refusals of the command line and the kernels under both.

Each mutant names a module of the package, an exact source text that
occurs once in src/, the text that replaces it, and the tests that must
fail on the mutated code.  A mutant survives when one of its tests passes
on it: either the test no longer guards that verdict, or the ledger names
the wrong test.  tests/test_verifier_skeleton.py checks, in tier-1, that
each source text still occurs exactly once.

Usage, from the repository root:

    python tests/mutants.py    # mutate a temporary copy per mutant; list the survivors

Each mutant runs only its own tests, in a fresh copy of the repository
under the system temporary directory.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "compdet"

# The tests of the denominators sides, which LaurentPoly.nonnegative and
# LaurentPoly.unfold build.
DENOMINATOR_TESTS = (
    "tests/test_characters.py::test_denominator_products_match_the_direct_products",
    "tests/test_characters.py::test_denominator_product_formulas",
)

# (name, module under src/compdet, source text, replacement, tests that must fail)
MUTANTS = (
    (
        "compare_sides gives both sides one hash",
        "report.py",
        "return flags, canonical_hash(lhs_texts), canonical_hash(rhs_texts)",
        "return flags, canonical_hash(lhs_texts), canonical_hash(lhs_texts)",
        (
            "tests/test_render_once.py::test_differing_sides_are_rendered_on_their_own[main]",
            "tests/test_report.py::test_hash_helpers",
        ),
    ),
    (
        "reports built without detail share one dict",
        "report.py",
        "sign=None, elapsed_ms=0, detail=None):",
        "sign=None, elapsed_ms=0, detail={}):",
        ("tests/test_report.py::test_reports_built_without_detail_do_not_share_it",),
    ),
    (
        "run_check seeds the generator with the next seed",
        "report.py",
        "SplitMix64(seed)",
        "SplitMix64(seed + 1)",
        (
            "tests/test_verifier_skeleton.py::test_substituted_schur_report_bytes"
            "[gl-2ca984ac2be34f85b758b293a8a8cb577ae37e45dc2f6a6056a10d9b904d9a3c]",
        ),
    ),
    (
        "no report field is volatile",
        "report.py",
        'VOLATILE_FIELDS = ("elapsed_ms",)',
        "VOLATILE_FIELDS = ()",
        (
            "tests/test_verifier_skeleton.py::test_leading_term_report_bytes"
            "[1-4-7232b86239da9f3b0daa92bbe8fc4c4c3f94b689073fccdf56620afdb7e5f4b2]",
        ),
    ),
    (
        "a --repeats run checks its first seed, not its last, before the checks",
        "cli.py",
        "min(seeds[-1], MASK64 + 1)",
        "min(seeds[0], MASK64 + 1)",
        ("tests/test_cli.py::test_a_run_crossing_the_seed_range_is_refused_before_any_check",),
    ),
    (
        "gram's equal drops unique_support",
        "compound.py",
        "equal = entries_ok and unique_support",
        "equal = entries_ok",
        ("tests/test_compound.py::test_gram_support_with_a_second_permutation_is_unequal",),
    ),
    (
        "gram's diagonal run ignores zero cells",
        "compound.py",
        "run = (diagonal + [False]).index(False)",
        "run = len(diagonal)",
        (
            "tests/test_compound.py::test_gram_diagonal_failure_counts_the_cells_before_it"
            "[2-counted0-None]",
            "tests/test_compound.py::test_gram_diagonal_failure_counts_the_cells_before_it"
            "[0-counted1-1]",
        ),
    ),
    (
        "schur-det drops bookkeeping_ok",
        "characters.py",
        '"equal": flags[0] and bookkeeping_ok',
        '"equal": flags[0]',
        ("tests/test_characters.py::test_bookkeeping_catches_a_wrong_denominator_product",),
    ),
    (
        "prop12's sign is always 1",
        "characters.py",
        "sign = 1 if equal else -1 if lhs == -rhs else None",
        "sign = 1",
        (
            "tests/test_characters.py::test_prop12_fails_on_reversed_columns",
            "tests/test_characters.py::test_prop12_fails_on_swapped_rows",
        ),
    ),
    (
        "macdonald's equal is p_equal alone",
        "macdonald.py",
        '"equal": p_equal and q_equal_printed_prefactor',
        '"equal": p_equal',
        ("tests/test_cli.py::test_verify_macdonald_reports_honest_failure",),
    ),
    (
        "denominators uses any(flags)",
        "characters.py",
        '"equal": all(flags)',
        '"equal": any(flags)',
        (
            "tests/test_render_once.py::test_differing_sides_are_rendered_on_their_own"
            "[denominators]",
        ),
    ),
    (
        "verify lets a foreign flag through",
        "cli.py",
        'raise UsageError(f"--{flag} does not apply to {args.identity}")',
        "pass",
        (
            "tests/test_cli.py::test_verify_refuses_a_flag_the_identity_does_not_take"
            "[argv0---family]",
            "tests/test_cli.py::test_verify_refuses_a_flag_the_identity_does_not_take"
            "[argv3---s]",
        ),
    ),
    (
        "verify takes a mode outside the identity's row",
        "cli.py",
        "if mode not in modes:",
        "if False:",
        (
            "tests/test_cli.py::test_verify_rejects_symbolic_for_numeric_only",
            "tests/test_cli.py::test_denominators_rejects_numeric_mode_and_sizes_past_the_cap"
            "[argv0-denominators only supports symbolic mode]",
        ),
    ),
    (
        "the --q and --t bound is 2^64",
        "cli.py",
        "value.denominator) >= 1 << 32",
        "value.denominator) >= 1 << 64",
        (
            "tests/test_cli.py::test_cli_sweep_exits_with_a_contract_code"
            "[verify macdonald --s 5 --n 2 --q 1/18446744073709551557 --t 1/18446744073709551559]",
        ),
    ),
    (
        "enumerate takes --k on a kind without it",
        "cli.py",
        "if k is not None and not takes_k:",
        "if False:",
        (
            "tests/test_cli.py::test_enumerate_refuses_with_one_error_line[k-Z]",
            "tests/test_cli.py::test_enumerate_refuses_with_one_error_line[k-partitions]",
        ),
    ),
    (
        "canonical changes its separator",
        "laurent.py",
        'out.append(" + ")',
        'out.append(" +")',
        ("tests/test_laurent.py::test_canonical_golden_string",),
    ),
    (
        "the factor memo stores nothing",
        "laurent.py",
        "self[value] = text",
        "pass",
        ("tests/test_laurent.py::test_canonical_formats_each_factor_once_per_call",),
    ),
    (
        "muladd_terms drops its guard-bit check",
        "_backend.py",
        "if k & guard:",
        "if False:",
        (
            "tests/test_laurent.py::test_products_past_either_end_raise[1]",
            "tests/test_laurent.py::test_products_past_either_end_raise[3]",
        ),
    ),
    (
        "prop12's grid has its first two rows swapped",
        "characters.py",
        "rows = partitions_in_box(n, s - n)",
        "rows = partitions_in_box(n, s - n)\n        rows[:2] = rows[1::-1]",
        (
            "tests/test_characters.py::test_single_alphabet_identity",
            "tests/test_cli.py::test_verify_family_gate",
        ),
    ),
    (
        "det_fractions' multiplier update drops g",
        "pmatrix.py",
        "work[i] = (m * g / pivot, new)",
        "work[i] = (m / pivot, new)",
        (
            "tests/test_matrix.py::test_det_fractions_matches_bareiss_reference",
            "tests/test_matrix.py::test_det_fractions_coprime_large_denominators",
        ),
    ),
    (
        "det_fractions' multiplier update drops pivot",
        "pmatrix.py",
        "work[i] = (m * g / pivot, new)",
        "work[i] = (m * g, new)",
        (
            "tests/test_matrix.py::test_det_fractions_matches_bareiss_reference",
            "tests/test_matrix.py::test_det_fractions_coprime_large_denominators",
        ),
    ),
    (
        "the even-orth grid drops its factor 2",
        "characters.py",
        "factor = 2 if family == EVEN_ORTH and lam[n - 1] != 0 else 1",
        "factor = 1",
        (
            "tests/test_characters.py::test_character_grid_matches_per_cell_alternants",
            "tests/test_characters.py::test_character_grid_identity_all_families",
        ),
    ),
    (
        "the character grid divides by the first numerator, not by delta's minor",
        "characters.py",
        "for alpha in (delta, *alphas)]",
        "for alpha in (alphas[0], *alphas)]",
        (
            "tests/test_characters.py::test_character_grid_matches_per_cell_alternants",
            "tests/test_characters.py::test_character_grid_matches_symbolic_characters",
            "tests/test_characters.py::test_character_grid_identity_all_families",
        ),
    ),
    (
        "the even-orth denominator product drops its factor 2",
        "characters.py",
        "EVEN_ORTH: (pairs * 2).unfold(1)}",
        "EVEN_ORTH: pairs.unfold(1)}",
        ("tests/test_characters.py::test_denominator_product_formulas",),
    ),
    (
        "unfold drops its sign",
        "laurent.py",
        "mirrored[k - (2 * e2 << shift)] = sign * c",
        "mirrored[k - (2 * e2 << shift)] = c",
        DENOMINATOR_TESTS,
    ),
    (
        "unfold mirrors e2 to 0, not to -e2",
        "laurent.py",
        "k - (2 * e2 << shift)",
        "k - (e2 << shift)",
        DENOMINATOR_TESTS,
    ),
    (
        "nonnegative drops the exponent-0 terms",
        "laurent.py",
        "(k >> shift) & FIELD_MASK >= EXP_BIAS",
        "(k >> shift) & FIELD_MASK > EXP_BIAS",
        DENOMINATOR_TESTS,
    ),
    (
        "unfold skips the last variable",
        "laurent.py",
        "range(0, self.num_vars * FIELD_BITS, FIELD_BITS)",
        "range(FIELD_BITS, self.num_vars * FIELD_BITS, FIELD_BITS)",
        DENOMINATOR_TESTS,
    ),
    (
        "minor_matrix takes every column set of rational rows off a minor table",
        "pmatrix.py",
        "return wanted * height**3 < sum(comb(nrows, j) * j for j in range(1, height + 1))",
        "return False",
        (
            "tests/test_compound.py::test_numeric_small_minors_come_from_minor_tables"
            "[verify_main-5-3-16]",
            "tests/test_compound.py::test_paper_sizes_take_no_table_of_every_row_subset[argv0]",
            "tests/test_matrix.py::test_minor_matrix_matches_minor_table_and_det_on_both_routes",
        ),
    ),
    (
        # the one row-set check serves both routes: without it a table
        # raises KeyError, and elimination reads index 0 as the last row
        "minor_matrix drops its row-set check",
        "pmatrix.py",
        "row_sets = [_index_set(I, len(rows)) for I in row_sets]",
        "row_sets = [tuple(I) for I in row_sets]",
        ("tests/test_matrix.py::test_minor_matrix_refuses_bad_index_sets_alike_on_both_routes",),
    ),
    (
        "products drops the column scale",
        "pmatrix.py",
        "Fraction(sum(map(mul, x_ints, y_ints)), x_scale * y_scale)",
        "Fraction(sum(map(mul, x_ints, y_ints)), x_scale)",
        ("tests/test_matrix.py::test_products_match_dot",),
    ),
)


def occurrences(text):
    """How often text occurs across the package's source files."""
    return sum(path.read_text(encoding="utf-8").count(text) for path in SRC.glob("*.py"))


def failed_tests(name, module, source, replacement, tests):
    """The node ids among tests that fail on a copy of the repository with
    the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        path = copy / "src" / "compdet" / module
        code = path.read_text(encoding="utf-8")
        if code.count(source) != 1:
            raise SystemExit(f"{name}: source text not found once in {module}")
        path.write_text(code.replace(source, replacement), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--tb=no", "-rf", *tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True,
            text=True,
        )
    # a summary line is "FAILED <node id>", followed by " - <reason>" when
    # pytest gives one; a node id may hold spaces
    lines = run.stdout.splitlines()
    return {
        t for t in tests
        if any(line == f"FAILED {t}" or line.startswith(f"FAILED {t} - ") for line in lines)
    }


def main():
    survivors = 0
    for mutant in MUTANTS:
        name, *_, tests = mutant
        passed = [t for t in tests if t not in failed_tests(*mutant)]
        if passed:
            survivors += 1
            print(f"SURVIVED {name}: " + ", ".join(passed) + " passed")
        else:
            print(f"killed   {name}")
    print(f"{survivors} of {len(MUTANTS)} mutants survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
