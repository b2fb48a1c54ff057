"""The report ledger: what `compdet` prints on a fixed list of requests.

Report bytes, every field but those of `report.VOLATILE_FIELDS`, are the
behavioural contract.  For each request the ledger (report_ledger.json)
holds the argv, the exit code of `cli.main` or the name of the exception it
raises, the standard error, and the SHA-256 of the standard output without
the volatile fields: their keys are dropped from every parsed JSON report,
and their lines from text output.  tests/test_report_ledger.py replays it.
`run_request` and `stable_stdout` are the one way the tests run a request
and canonicalize its bytes; tests/test_benchmark_golden.py checks
perfbench/golden.json against the ledger.

The requests:
  - the argvs of test_cli.py's sweep, which reach every identity, mode,
    family and enumerate kind, and every usage error;
  - every benchmark check (perfbench/checks.py) at seeds 0-2, except
    `denominators --n 6`, whose report does not depend on the seed: it is
    recorded at seed 0 only;
  - `denominators --n 7`, the largest size inside its cap, at seed 0;
  - `--format text --repeats 2` on one check per identity;
  - `prop12 --family sp --s 6 --n 2` at seeds 3-79 as well, whose outcome
    moves with the seed: it raises ValueError on the int-to-str digit limit
    at seeds 17, 53, 59 and 62 and exits 0 at the others
    (tests/outcome_sweep.py lists such checks);
  - numeric `main (1,18)` and `gram (16,1)` at seed 0, whose minors span
    all or all but one of the rows: each is eliminated, where a minor
    table would hold every row subset.

Usage, from the repository root:

    python tests/report_ledger.py           # replay; list the entries that differ
    python tests/report_ledger.py --write   # re-record report_ledger.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from compdet import cli  # noqa: E402
from compdet.report import VOLATILE_FIELDS  # noqa: E402

LEDGER_PATH = HERE / "report_ledger.json"
SEEDS = (0, 1, 2)
# recorded at seed 0 only; those that are not benchmark checks come after them
ONE_SEED_CHECKS = ("denominators --n 6", "denominators --n 7")
TEXT_CHECKS = (
    "main --s 3 --n 3 --mode numeric",
    "sylvester --s 3 --n 2",
    "gram --s 2 --n 2",
    "denominators --n 3",
    "schur-det --family sp --s 2 --n 2",
    "prop12 --family gl --s 4 --n 2",
    "macdonald --s 2 --n 2",
)
SEED_SWEEP_CHECK = "prop12 --family sp --s 6 --n 2"
ROW_SPANNING_CHECKS = ("main --mode numeric --s 1 --n 18", "gram --mode numeric --s 16 --n 1")


def requests():
    """Every argv of the ledger, in ledger order."""
    from test_cli import _sweep_argvs  # test_cli imports this module

    workloads = runpy.run_path(str(ROOT / "perfbench" / "checks.py"))["WORKLOADS"]
    argvs = list(_sweep_argvs())
    for checks in workloads.values():
        for check in checks:
            for seed in SEEDS[:1] if check in ONE_SEED_CHECKS else SEEDS:
                argvs.append(["verify", *check.split(), "--seed", str(seed)])
    benchmarked = {check for checks in workloads.values() for check in checks}
    for check in ONE_SEED_CHECKS:
        if check not in benchmarked:
            argvs.append(["verify", *check.split(), "--seed", str(SEEDS[0])])
    for check in TEXT_CHECKS:
        argvs.append(["verify", *check.split(), "--format", "text", "--repeats", "2"])
    for seed in range(SEEDS[-1] + 1, 80):
        argvs.append(["verify", *SEED_SWEEP_CHECK.split(), "--seed", str(seed)])
    for check in ROW_SPANNING_CHECKS:
        argvs.append(["verify", *check.split(), "--seed", str(SEEDS[0])])
    return argvs


def canonical_json(data):
    """Parsed reports serialized as the reports are: sorted keys, fixed
    separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def stable_stdout(argv, out):
    """Standard output without the fields of VOLATILE_FIELDS: JSON reports
    re-serialized by canonical_json, without those keys; text line by line,
    without their lines."""
    if argv[0] == "verify" and "text" not in argv and out:
        data = json.loads(out)
        for report in data if isinstance(data, list) else [data]:
            for field in VOLATILE_FIELDS:
                del report[field]
        return canonical_json(data)
    volatile = tuple(f"{field}:" for field in VOLATILE_FIELDS)
    return "".join(line for line in out.splitlines(True) if not line.startswith(volatile))


def digest(text):
    """Hex SHA-256 of a text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_request(argv):
    """The ledger entry of one request."""
    out = io.StringIO()
    err = io.StringIO()
    entry = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry["exit"] = cli.main(argv)
        except Exception as exc:  # a crash is an outcome the ledger records
            entry["raises"] = type(exc).__name__
    entry["stderr"] = err.getvalue()
    stdout = stable_stdout(argv, out.getvalue()) if "exit" in entry else out.getvalue()
    entry["stdout_sha256"] = digest(stdout)
    return entry


def differences(ledger):
    """(argv, recorded entry, replayed entry) of each entry that differs."""
    out = []
    for want in ledger:
        got = run_request(want["argv"])
        if got != want:
            out.append((want["argv"], want, got))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record the ledger")
    args = parser.parse_args(argv)
    if args.write:
        ledger = [run_request(argv) for argv in requests()]
        LEDGER_PATH.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(ledger)} entries to {LEDGER_PATH.name}")
        return 0
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    diffs = differences(ledger)
    for argv, want, got in diffs:
        print(" ".join(argv), json.dumps(want), json.dumps(got), sep="\n  ")
    print(f"{len(diffs)} of {len(ledger)} entries differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
