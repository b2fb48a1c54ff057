"""The outcome sweep: how each numeric benchmark check ends, seed by seed.

Runs every check of the benchmark's numeric workloads (perfbench/checks.py,
read only) in-process through `cli.main` at seeds 0-79, and prints, for each
check, the seeds of each outcome: an exit code, or the name of the exception
that `cli.main` raised.  A check whose outcome moves with the seed moves the
share of checks that a benchmark run fails.  It is not part of tier-1; it
takes about a minute.

Usage, from the repository root:

    python tests/outcome_sweep.py
"""

import runpy
import sys

from report_ledger import ROOT, run_request

SEEDS = range(80)


def outcome(argv):
    """The exit code of `cli.main(argv)`, or the name of what it raised."""
    entry = run_request(argv)
    return f"exit {entry['exit']}" if "exit" in entry else entry["raises"]


def seed_ranges(seeds):
    """Sorted seeds as runs: [0, 1, 2, 5] -> "0-2,5"."""
    runs = []
    for seed in seeds:
        if runs and runs[-1][1] == seed - 1:
            runs[-1][1] = seed
        else:
            runs.append([seed, seed])
    return ",".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def main():
    workloads = runpy.run_path(str(ROOT / "perfbench" / "checks.py"))["WORKLOADS"]
    for name, checks in workloads.items():
        if not name.startswith("numeric"):
            continue
        for check in checks:
            by_outcome = {}
            for seed in SEEDS:
                argv = ["verify", *check.split(), "--seed", str(seed)]
                by_outcome.setdefault(outcome(argv), []).append(seed)
            print(check)
            for key, seeds in sorted(by_outcome.items()):
                print(f"  {key}: seeds {seed_ranges(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
