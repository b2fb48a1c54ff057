"""Every request of the report ledger gives its recorded exit code, stderr
and report bytes (report_ledger.py says which requests and how)."""

import json

from report_ledger import LEDGER_PATH, differences, requests


def test_ledger_lists_every_request():
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in ledger] == requests()


def test_report_ledger_replays_unchanged():
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    diffs = differences(ledger)
    assert not diffs, "\n".join(" ".join(argv) for argv, _, _ in diffs)
