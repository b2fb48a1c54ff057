"""A small mutation ledger for the verdict code of the verifiers.

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
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "compdet"

# (name, module under src/compdet, source text, replacement, tests that must fail)
MUTANTS = (
    (
        "compare_sides gives both sides one hash",
        "report.py",
        'return flags, lhs_hash, canonical_hash("\\n".join(rhs_texts))',
        "return flags, lhs_hash, lhs_hash",
        (
            "tests/test_render_once.py::test_differing_sides_are_rendered_on_their_own[main]",
            "tests/test_report.py::test_hash_helpers",
        ),
    ),
    (
        "gram's equal drops unique_support",
        "compound.py",
        "equal = entries_ok and diag_ok and unique_support",
        "equal = entries_ok and diag_ok",
        ("tests/test_compound.py::test_gram_support_with_a_second_permutation_is_unequal",),
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
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


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
