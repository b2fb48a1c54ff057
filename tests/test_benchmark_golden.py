"""The benchmark's recorded outcomes agree with the report ledger.

perfbench/golden.json records each benchmark check (perfbench/checks.py)
at one seed: the exit code and every report field but `elapsed_ms`, or the
name of the exception that `cli.main` raised.  The report ledger
(report_ledger.py) holds the same requests, and tests/test_report_ledger.py
replays them.  So each golden entry is checked against the ledger entry of
its request instead of being run again: the same exit code or exception,
an empty standard error and, for a report, the ledger's SHA-256 of the
golden report's canonical bytes.  Both perfbench files are only read.
"""

import json
import runpy

import pytest

from report_ledger import LEDGER_PATH, ROOT, canonical_json, digest

PERFBENCH = ROOT / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "checks.py"))["WORKLOADS"]
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
LEDGER = {
    tuple(entry["argv"]): entry
    for entry in json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
}
NUMERIC_CHECKS = WORKLOADS["numeric-compound"] + WORKLOADS["numeric-characters"]


def disagreements(check, golden):
    """{key: (what golden implies, what the ledger holds)} for each key of
    the ledger entry of check at the golden seed that golden contradicts."""
    ledger = LEDGER["verify", *check.split(), "--seed", str(GOLDEN["seed"])]
    if "raises" in golden:
        want = {"raises": golden["raises"], "stderr": ""}
    else:
        report = canonical_json(golden["report"])
        want = {"exit": golden["exit"], "stderr": "", "stdout_sha256": digest(report)}
    return {key: (value, ledger.get(key)) for key, value in want.items() if ledger.get(key) != value}


def test_every_golden_check_is_a_benchmark_check():
    assert sorted(GOLDEN["checks"]) == sorted(WORKLOADS["symbolic-grid"] + NUMERIC_CHECKS)


@pytest.mark.parametrize("check", WORKLOADS["symbolic-grid"])
def test_symbolic_check_matches_golden(check):
    assert disagreements(check, GOLDEN["checks"][check]) == {}


@pytest.mark.parametrize("check", NUMERIC_CHECKS)
def test_numeric_check_matches_golden(check):
    assert disagreements(check, GOLDEN["checks"][check]) == {}


def test_a_changed_golden_entry_disagrees():
    check = "main --s 2 --n 3"
    golden = GOLDEN["checks"][check]
    golden = dict(golden, report=dict(golden["report"], lhs_hash="0" * 64))
    assert set(disagreements(check, golden)) == {"stdout_sha256"}

    check = "prop12 --family sp --s 6 --n 3"
    golden = dict(GOLDEN["checks"][check], raises="ZeroDivisionError")
    assert set(disagreements(check, golden)) == {"raises"}
