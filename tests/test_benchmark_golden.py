"""The benchmark's numeric checks keep their recorded outcomes.

Each check of the `numeric-compound` and `numeric-characters` workloads
(perfbench/checks.py) runs at the golden seed through `cli.main`, and its
outcome is compared with perfbench/golden.json as the benchmark compares
it: a `raises` entry expects that exception, any other entry the exit code
and every report field but `elapsed_ms`, `detail` key by key.  Both files
are only read.
"""

import json
import runpy
from pathlib import Path

import pytest

from compdet import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "checks.py"))["WORKLOADS"]
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
CHECKS = WORKLOADS["numeric-compound"] + WORKLOADS["numeric-characters"]


@pytest.mark.parametrize("check", CHECKS)
def test_numeric_check_matches_golden(check, tmp_path, capsys):
    entry = GOLDEN["checks"][check]
    out = tmp_path / "report.json"
    argv = ["verify", *check.split(), "--seed", str(GOLDEN["seed"]), "--out", str(out)]
    if "raises" in entry:
        with pytest.raises(Exception) as caught:
            cli.main(argv)
        assert type(caught.value).__name__ == entry["raises"]
        return
    assert cli.main(argv) == entry["exit"]
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    for key, value in entry["report"].items():
        if key == "detail":
            for dkey, dvalue in value.items():
                assert report.get("detail", {}).get(dkey) == dvalue, f"detail.{dkey}"
        else:
            assert report.get(key) == value, key
