"""Workload-grid benchmark for compdet.

Runs one workload's fixed list of `compdet verify` checks (checks.py) in this
process, through `compdet.cli.main` exactly as a user's command line would,
and checks every report against golden.json.  Checks take turns: each round
runs every check once, and a check's time is its median over the rounds.
One untimed warm-up round comes first.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.

Each check is preceded by a fixed pure-Python reference task, and grid_s
is scaled by (REFERENCE_S / the run's median reference time) **
HOST_SENSITIVITY: to a host on which the task takes REFERENCE_S.  This
takes out the drift in host speed between runs (NOTES.md).

With `--trace 0` the metrics are the end-to-end ones (grid_s, setup_s,
peak_rss_mb, pass_share).  With `--trace 1` untraced and traced rounds
alternate; the metrics are the per-layer ones, taken from the traced rounds
(spans.py), and the run record gets the tracing overhead.  NOTES.md explains
the design.

Usage, from the repository root:

    python3 perfbench/run.py --workload symbolic-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --write-golden
"""

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
from checks import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0

# Timed by the child itself, so interpreter boot and `site` are left out.
# The child then times the reference task, so its import is scaled by the
# speed of the CPU it ran on, at the time it ran.
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "t = time.perf_counter(); import compdet; t = time.perf_counter() - t; "
    "from run import reference_s; print(t, reference_s())"
)

# Median time of reference_s() on the reference host, and how strongly the
# checks' wall time follows the reference time (fitted; NOTES.md).
REFERENCE_S = 0.050
HOST_SENSITIVITY = 0.7

SELF_TIME_LAYERS = (
    "laurent.canonical",
    "report.canonical_hash",
    "kernel.muladd_terms",
    "pmatrix.det_minor_expansion",
    "pmatrix.det_fraction_free",
    "laurent.exquo",
    "pmatrix.det_fractions",
    "characters.character_value",
    "macdonald.macdonald_P",
    "macdonald.evaluate_symfunc",
    "sampling.sample_point",
    "cli.main",
)
CALL_LAYERS = (
    "kernel.muladd_terms",
    "laurent.exquo",
    "pmatrix.det_cofactor",
    "pmatrix.det_fractions",
)
OK = "ok"
CRASHED = "crashed"  # the check raised: a failure, but no wrong verdict


def load_compdet():
    """Import compdet from this checkout's sources, or exit non-zero."""
    if not (SRC / "compdet" / "__init__.py").is_file():
        sys.exit(f"error: no compdet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import compdet
    import compdet.cli

    if Path(compdet.__file__).resolve().parent != (SRC / "compdet").resolve():
        sys.exit(f"error: imported compdet from {compdet.__file__}, not {SRC}")
    return compdet


def check_argv(check, seed, out_path):
    return ["verify", *check.split(), "--seed", str(seed), "--out", str(out_path)]


def reference_s():
    """Seconds a fixed pure-Python task takes now: a gauge of host speed.

    It does the kinds of work the checks do (tuple-keyed dicts, string
    building, big-integer fractions), so a slow spell on the host slows it
    as it slows them.  It calls nothing in compdet.  The cyclic collector
    is off while it runs, so the garbage a check left behind cannot add a
    collection to its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        terms = {}
        for i in range(20_000):
            key = (i % 37, i % 101, i % 7)
            terms[key] = terms.get(key, 0) + i
        "+".join(f"{c}*x^{k[0]}y^{k[1]}z^{k[2]}" for k, c in sorted(terms.items()))
        x = Fraction(1)
        for i in range(1, 300):
            x = x * Fraction(i * i + 1, 2 * i + 3) + Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_check(cli, argv, out_path):
    """Run one check as the CLI would: (seconds, exit code, exception name)."""
    if out_path.exists():
        out_path.unlink()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is an outcome the golden file records
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, code, None


def golden_entry(code, exc, out_path):
    """What golden.json records for one outcome."""
    if exc is not None:
        return {"raises": exc}
    report = json.loads(out_path.read_text(encoding="utf-8"))
    report.pop("elapsed_ms", None)
    return {"exit": code, "report": report}


def verdict(entry, seed, code, exc, out_path):
    """OK, CRASHED, or the reason the outcome deviates from its golden entry.

    A crash is a failure but no verdict, so it is not a deviation; a check
    that completes where its golden entry records a crash is one.  Reports
    that depend on the seed are compared field by field only at the golden
    seed; at any other seed only the exit code is checked.
    """
    if exc is not None:
        return CRASHED
    if "raises" in entry:
        return f"exit {code}, expected {entry['raises']}"
    if code != entry["exit"]:
        return f"exit {code}, expected {entry['exit']}"
    want = entry["report"]
    if want["seed"] is not None and seed != GOLDEN_SEED:
        return OK
    got = json.loads(out_path.read_text(encoding="utf-8"))
    for key, value in want.items():
        if key == "detail":
            for dkey, dvalue in value.items():
                if got.get("detail", {}).get(dkey) != dvalue:
                    return f"detail.{dkey} differs from golden"
        elif got.get(key) != value:
            return f"{key} differs from golden"
    return OK


def setup_probe():
    """Seconds one fresh interpreter spends in `import compdet`, scaled by
    the reference time the same interpreter measures right after it."""
    res = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, ref_s = map(float, res.stdout.split())
    return import_s * REFERENCE_S / ref_s


def steal_ticks():
    """Host steal ticks of all CPUs so far, or None where /proc is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=60)
    return res.stdout.strip() or None


def tail(samples):
    """Highest percentile of per-round check times, each as a share of its
    check's median, that has at least ten samples beyond it."""
    ratios = sorted(t / statistics.median(ts) for ts in samples.values() for t in ts)
    k = len(ratios) - 11
    if k < 0:
        return {"percentile": None, "ratio_to_median": None, "samples": len(ratios)}
    return {"percentile": round(100 * (k + 1) / len(ratios), 1),
            "ratio_to_median": ratios[k], "samples": len(ratios)}


class Workload:
    """One run of one workload: samples, verdicts and setup probes."""

    def __init__(self, cli, checks, seed, golden):
        self.cli = cli
        self.checks = checks
        self.seed = seed
        self.golden = golden
        self.out_path = OUT / f"report-{os.getpid()}.json"
        self.attempted = 0
        self.failed = 0
        self.crashes = {}
        self.deviations = {}
        self.references = []

    def round(self, samples=None, probes=None):
        """Run every check once, each after one reference task, and add
        its time to samples; with probes, add one setup probe after each
        check."""
        for check in self.checks:
            gc.collect()
            self.references.append(reference_s())
            argv = check_argv(check, self.seed, self.out_path)
            dt, code, exc = run_check(self.cli, argv, self.out_path)
            result = verdict(self.golden[check], self.seed, code, exc, self.out_path)
            self.attempted += 1
            if result != OK:
                self.failed += 1
                if result == CRASHED:
                    self.crashes.setdefault(check, exc)
                else:
                    self.deviations.setdefault(check, result)
            if samples is not None:
                samples.setdefault(check, []).append(dt)
            if probes is not None:
                probes.append(setup_probe())

    def scale(self):
        """Factor that takes a wall time of this run to the reference host."""
        return (REFERENCE_S / statistics.median(self.references)) ** HOST_SENSITIVITY


def grid_s(samples):
    """Sum over checks of each check's median wall time."""
    return sum(statistics.median(ts) for ts in samples.values())


def measure(work, seconds, tracer=None):
    """Warm up, then run rounds until the next one would pass `seconds`.

    Untraced, every round is timed.  With a tracer, untraced and traced
    rounds alternate, at least one of each.
    """
    work.round()
    plain, traced, layers, probes = {}, {}, [], []
    t_start = time.perf_counter()
    longest = 0.0
    for i in itertools.count():
        r0 = time.perf_counter()
        if tracer is not None and i % 2:
            begin = tracer.begin()
            tracer.install()
            try:
                work.round(traced)
            finally:
                tracer.uninstall()
            layers.append((tracer.summary(begin), dict(tracer.counters)))
        else:
            work.round(plain, None if tracer else probes)
        longest = max(longest, time.perf_counter() - r0)
        done = i >= (1 if tracer else 0)
        if done and time.perf_counter() - t_start + longest > seconds:
            break
    return plain, traced, layers, probes


def layer_metrics(layers):
    """Per-layer metrics: median self time over traced rounds, and counts
    of the first traced round (the run record says if they repeated)."""
    first, counters = layers[0]
    out = {}
    for name in SELF_TIME_LAYERS:
        value = statistics.median(s["self_s"][name] for s, _ in layers)
        out[f"{name}.self_s"] = (value, "s")
    out["compound.build_M.s"] = (
        statistics.median(s["total_s"]["compound.build_M"] for s, _ in layers), "s")
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = (first["calls"][name], "count")
    out["kernel.term_products"] = (counters["kernel.term_products"], "count")
    out["laurent.canonical.chars"] = (counters["laurent.canonical.chars"], "count")
    out["det.max_coeff_bits"] = (counters["det.max_coeff_bits"], "bits")
    return out


def counts_of(summary, counters):
    return {"calls": summary["calls"], **counters}


def run(args):
    compdet = load_compdet()
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["checks"]
    OUT.mkdir(exist_ok=True)
    work = Workload(compdet.cli, WORKLOADS[args.workload], args.seed, golden)
    steal0 = steal_ticks()
    tracer = spans.Tracer() if args.trace else None
    plain, traced, layers, probes = measure(work, args.seconds, tracer)
    steal1 = steal_ticks()
    intact = spans.bindings_intact()
    if work.out_path.exists():
        work.out_path.unlink()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "backend": compdet.BACKEND,
        "steal_ticks": None if steal0 is None else steal1 - steal0,
        "rounds": len(next(iter(plain.values()))),
        "check_median_s": {c: statistics.median(ts) for c, ts in plain.items()},
        "grid_wall_s": grid_s(plain),
        "reference_median_s": statistics.median(work.references),
        "tail": tail(plain),
        "fail_share": work.failed / work.attempted,
        "crashes": work.crashes,
        "deviations": work.deviations,
        "bindings_intact": intact,
    }
    if tracer is None:
        metrics = {
            "grid_s": (grid_s(plain) * work.scale(), "s"),
            "setup_s": (statistics.median(probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_share": (1 - work.failed / work.attempted, "share"),
        }
        record["setup_probes"] = len(probes)
    else:
        metrics = layer_metrics(layers)
        record["traced_rounds"] = len(layers)
        record["tracing_overhead_s"] = (grid_s(traced) - grid_s(plain)) * work.scale()
        record["counts_repeat"] = all(
            counts_of(*pair) == counts_of(*layers[0]) for pair in layers)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("record:", json.dumps(record, sort_keys=True))
    result = {
        "correct": not work.deviations and intact,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def write_golden():
    """Record every check's outcome at the golden seed in golden.json."""
    compdet = load_compdet()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"report-{os.getpid()}.json"
    checks = {}
    for name, workload in WORKLOADS.items():
        for check in workload:
            _, code, exc = run_check(compdet.cli, check_argv(check, GOLDEN_SEED, out_path),
                                     out_path)
            if code == 2:
                sys.exit(f"error: {check} is a bad request (exit 2)")
            checks[check] = golden_entry(code, exc, out_path)
            print(f"{check}: {checks[check].get('exit', checks[check].get('raises'))}")
    out_path.unlink(missing_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"seed": GOLDEN_SEED, "checks": checks}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record every check's outcome at the golden seed")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
