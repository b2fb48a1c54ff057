"""Self-tests of the benchmark: exact counts, restored bindings, golden checks.

Run from the repository root with `python3 -m pytest perfbench`.  They use
a few cheap checks from the workloads, so they take well under a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

CHEAP = (
    "main --s 3 --n 2",
    "gram --s 2 --n 3 --k 1",
    "sylvester --s 4 --n 2",
    "denominators --n 5",
    "main --mode numeric --s 4 --n 3",
    "schur-det --family gl --s 3 --n 3 --mode numeric",
    "macdonald --s 4 --n 2",
)
COUNTS = (
    "kernel.muladd_terms.calls",
    "laurent.exquo.calls",
    "pmatrix.det_cofactor.calls",
    "pmatrix.det_fractions.calls",
    "kernel.term_products",
    "laurent.canonical.chars",
    "det.max_coeff_bits",
)


@pytest.fixture(scope="module")
def compdet():
    run.OUT.mkdir(exist_ok=True)
    yield run.load_compdet()
    (run.OUT / f"report-{os.getpid()}.json").unlink(missing_ok=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))["checks"]


def bindings(compdet):
    """Every (owner, attribute, object) the tracer may replace."""
    found = []
    modules = spans._compdet_modules()
    for _, modname, attr in spans.FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        for mod in modules:
            found += [(mod, key, value) for key, value in vars(mod).items() if value is original]
    cls = compdet.laurent.LaurentPoly
    found += [(cls, attr, vars(cls)[attr]) for _, attr in spans.METHODS]
    return found


def traced_counts(compdet, golden):
    work = run.Workload(compdet.cli, CHEAP, 0, golden)
    _, _, layers, _ = run.measure(work, 0, spans.Tracer())
    assert not work.deviations
    metrics = run.layer_metrics(layers)
    return {name: metrics[name][0] for name in COUNTS}


def test_two_traced_runs_give_identical_counts(compdet, golden):
    first = traced_counts(compdet, golden)
    second = traced_counts(compdet, golden)
    assert first == second
    assert all(first[name] > 0 for name in COUNTS)


def test_untraced_run_leaves_original_bindings(compdet, golden):
    before = bindings(compdet)
    assert len(before) > len(spans.FUNCTIONS) + len(spans.METHODS)
    for tracer in (spans.Tracer(), None):
        work = run.Workload(compdet.cli, CHEAP[:2], 0, golden)
        run.measure(work, 0, tracer)
        assert spans.bindings_intact()
        assert all(vars(owner)[key] is value for owner, key, value in before)


def test_tracer_wraps_every_binding(compdet):
    before = bindings(compdet)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not spans.bindings_intact()
        assert all(hasattr(vars(owner)[key], "traced_layer") for owner, key, _ in before)
    finally:
        tracer.uninstall()
    assert spans.bindings_intact()


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    outer, inner = spans.LAYERS.index("cli.main"), spans.LAYERS.index("laurent.exquo")
    for lid, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0),
                                    (inner, 0, 5.0, 6.0)):
        tracer.layer.append(lid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary(0)
    assert summary["self_s"]["cli.main"] == 6.0
    assert summary["self_s"]["laurent.exquo"] == 4.0
    assert summary["total_s"]["cli.main"] == 10.0
    assert summary["calls"]["laurent.exquo"] == 2


@pytest.mark.parametrize(
    "check, corrupt",
    [
        ("main --s 3 --n 2", lambda e: e["report"].update(lhs_hash="0" * 64)),
        ("main --s 3 --n 2", lambda e: e["report"]["detail"].update(rhs_factors=[])),
        ("main --mode numeric --s 4 --n 3", lambda e: e["report"].update(equal=False)),
        ("macdonald --s 4 --n 2", lambda e: e.update(exit=0)),
        ("denominators --n 5", lambda e: e.clear() or e.update(raises="ValueError")),
    ],
)
def test_corrupted_golden_entry_is_a_failure(compdet, golden, check, corrupt):
    bad = copy.deepcopy(golden)
    corrupt(bad[check])
    work = run.Workload(compdet.cli, (check,), 0, bad)
    work.round()
    assert work.failed == 1 and check in work.deviations
    clean = run.Workload(compdet.cli, (check,), 0, golden)
    clean.round()
    assert clean.failed == 0 and not clean.deviations


def test_other_seeds_check_exit_codes_only_where_reports_depend_on_the_seed(compdet, golden):
    bad = copy.deepcopy(golden)
    for check in ("main --s 3 --n 2", "main --mode numeric --s 4 --n 3"):
        bad[check]["report"].update(lhs_hash="0" * 64)
    work = run.Workload(compdet.cli, ("main --mode numeric --s 4 --n 3",), 7, bad)
    work.round()
    assert not work.deviations
    work = run.Workload(compdet.cli, ("main --s 3 --n 2",), 7, bad)
    work.round()
    assert "main --s 3 --n 2" in work.deviations


def test_a_crash_is_a_failure_but_not_a_deviation(compdet, golden):
    absent = run.OUT / "absent.json"
    for entry in ({"raises": "ValueError"}, golden["prop12 --family sp --s 6 --n 2"]):
        assert run.verdict(entry, 0, None, "ValueError", absent) == run.CRASHED
    # a check that completes where its golden entry records a crash deviates
    assert run.verdict({"raises": "ValueError"}, 0, 0, None, absent) not in (run.OK, run.CRASHED)


def test_fails_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert res.stdout == ""
