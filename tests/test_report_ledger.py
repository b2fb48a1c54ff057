"""Every request of the report ledger gives its recorded exit code, stderr
and report bytes (report_ledger.py says which requests and how)."""

import json

from compdet import cli

import report_ledger
from report_ledger import LEDGER_PATH, differences, requests, stable_stdout


def test_ledger_lists_every_request():
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in ledger] == requests()


def test_report_ledger_replays_unchanged():
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    diffs = differences(ledger)
    assert not diffs, "\n".join(" ".join(argv) for argv, _, _ in diffs)


def test_stable_stdout_drops_each_volatile_field(monkeypatch, capsys):
    monkeypatch.setattr(report_ledger, "VOLATILE_FIELDS", ("elapsed_ms", "seed"))
    check = ["verify", "prop12", "--family", "gl", "--s", "4", "--n", "2", "--seed", "5"]
    assert cli.main(check) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["seed"] == 5
    del report["elapsed_ms"], report["seed"]
    assert json.loads(stable_stdout(check, out)) == report

    text = check + ["--format", "text"]
    assert cli.main(text) == 0
    lines = capsys.readouterr().out.splitlines(True)
    kept = [line for line in lines if not line.startswith(("elapsed_ms:", "seed:"))]
    assert len(kept) == len(lines) - 2
    assert stable_stdout(text, "".join(lines)) == "".join(kept)
