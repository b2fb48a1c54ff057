"""Command-line behavior: goldens, exit codes, output channels."""

import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import compdet
from compdet import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_compositions_golden(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "Z", "3", "2"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "(2,0,0)",
        "(1,1,0)",
        "(1,0,1)",
        "(0,2,0)",
        "(0,1,1)",
        "(0,0,2)",
    ]


def test_enumerate_positive_compositions_golden(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "Z0", "3", "2"])
    assert code == 0
    assert out.splitlines() == ["(2,1,1)", "(1,2,1)", "(1,1,2)"]


def test_enumerate_many_parts_exits_zero(capsys):
    # one composition per slot holding the single unit of weight
    code, out, err = run_cli(capsys, ["enumerate", "Z", "1200", "1"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1200
    assert lines[0] == "(" + ",".join(["1"] + ["0"] * 1199) + ")"
    assert lines[-1] == "(" + ",".join(["0"] * 1199 + ["1"]) + ")"


def test_enumerate_slot_map_golden(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "iota", "2", "2"])
    assert code == 0
    assert out.splitlines() == [
        "(2,0) -> {1,2}",
        "(1,1) -> {1,3}",
        "(0,2) -> {3,4}",
    ]


def test_enumerate_successor_slots_golden(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "phi", "3", "2", "--k", "1"])
    assert code == 0
    assert out.splitlines() == [
        "(2,0,0) -> {3,5}",
        "(1,1,0) -> {4,5}",
        "(1,0,1) -> {3,6}",
    ]


def test_enumerate_bump_golden(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "tau", "3", "2", "--k", "1"])
    assert code == 0
    assert out.splitlines() == [
        "(2,0,0) -> (2,1,1)",
        "(1,1,0) -> (1,2,1)",
        "(1,0,1) -> (1,1,2)",
    ]


def test_enumerate_box_partitions_golden(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "partitions", "3", "2"])
    assert code == 0
    assert out.splitlines() == [
        "(2,2)",
        "(2,1)",
        "(2,0)",
        "(1,1)",
        "(1,0)",
        "(0,0)",
    ]


def test_enumerate_requires_k_for_slot_families(capsys):
    code, _, err = run_cli(capsys, ["enumerate", "phi", "3", "2"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["Z", "3", "2", "--k", "1"], "--k does not apply to Z"),
        (["Z0", "3", "2", "--k", "1"], "--k does not apply to Z0"),
        (["iota", "2", "2", "--k", "1"], "--k does not apply to iota"),
        # the flag is refused before the sizes are checked
        (["partitions", "0", "2", "--k", "5"], "--k does not apply to partitions"),
        (["Z", "30", "30"], "Z 30 30 may print over 2000000 entries"),
        (["Z", "1", "2000000"], "Z 1 2000000 may print over 2000000 entries"),
    ],
    ids=("k-Z", "k-Z0", "k-iota", "k-partitions", "bound-Z-30-30", "bound-Z-1-2000000"),
)
def test_enumerate_refuses_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, ["enumerate", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", cli.ENUMERATE_KINDS)
def test_enumerate_prints_no_more_entries_than_its_bound(capsys, kind):
    # each kind prints one line per composition of n, or of n - 1 for the
    # kinds whose items have a positive part, into s parts
    drop = 1 if kind in ("Z0", "phi", "tau") else 0
    bound = cli.ENUMERATE_ROWS[kind][3]
    for s in range(1, 6):
        for n in range(1, 6):
            argv = ["enumerate", kind, str(s), str(n)]
            code, out, _ = run_cli(capsys, argv + (["--k", "1"] if kind in ("phi", "tau") else []))
            assert code == 0
            assert len(out.splitlines()) == comb(s + n - 1 - drop, n - drop)
            assert len(re.findall(r"\d+", out)) <= bound(s, n)


def test_enumerate_rejects_bad_kind():
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "W", "2", "2"])
    assert exc.value.code == 2


def test_verify_main_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "main", "--s", "2", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["identity"] == "main"
    assert data["equal"] is True
    assert data["mode"] == "symbolic"
    assert data["schema"] == 1
    assert data["detail"]["rhs_factors"] == ["{1,2,3}", "{1,3,4}"]


def test_verify_symbolic_envelope_exit(capsys):
    code, _, err = run_cli(capsys, ["verify", "main", "--s", "3", "--n", "3"])
    assert code == 2
    assert err.startswith("error:")


def test_verify_missing_flag(capsys):
    code, _, err = run_cli(capsys, ["verify", "main", "--s", "2"])
    assert code == 2
    assert "--n" in err


def test_verify_numeric_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "main", "--s", "3", "--n", "3", "--mode", "numeric", "--seed", "7"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "numeric" and data["seed"] == 7


def test_verify_repeats_produce_array(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify",
            "main",
            "--s",
            "3",
            "--n",
            "3",
            "--mode",
            "numeric",
            "--repeats",
            "2",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 2
    assert data[0]["seed"] == 0 and data[1]["seed"] == 1


def test_a_numeric_seed_outside_the_generator_range_is_refused(capsys):
    numeric = ["verify", "main", "--s", "2", "--n", "2", "--mode", "numeric"]
    code, out, err = run_cli(capsys, numeric + ["--seed", str((1 << 64) - 1)])
    assert code == 0 and json.loads(out)["seed"] == (1 << 64) - 1
    # the third seed is 2^64: no report prints, not even the first two
    code, out, err = run_cli(capsys, numeric + ["--seed", str((1 << 64) - 2), "--repeats", "3"])
    assert code == 2 and out == ""
    assert err == "error: seed 18446744073709551616 lies outside [0, 2^64)\n"
    # symbolic mode samples nothing, so it ignores the seed
    code, out, err = run_cli(capsys, ["verify", "main", "--s", "2", "--n", "2", "--seed", "-1"])
    assert code == 0 and json.loads(out)["seed"] is None


def test_a_run_crossing_the_seed_range_is_refused_before_any_check(capsys, monkeypatch):
    calls = []
    modes, required, optional, call = cli.VERIFY_ROWS["main"]

    def counted(args, mode, seed):
        calls.append(seed)
        return call(args, mode, seed)

    monkeypatch.setitem(cli.VERIFY_ROWS, "main", (modes, required, optional, counted))
    numeric = ["verify", "main", "--s", "2", "--n", "2", "--mode", "numeric"]
    for seed, repeats, first_outside in (
        ((1 << 64) - 2, 3, 1 << 64), ((1 << 64) - 3, 9, 1 << 64), (-1, 3, -1), (-5, 9, -5)
    ):
        argv = numeric + ["--seed", str(seed), "--repeats", str(repeats)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: seed {first_outside} lies outside [0, 2^64)\n"
    # a run that ends on the last seed of the range runs every check
    code, out, _ = run_cli(capsys, numeric + ["--seed", str((1 << 64) - 2), "--repeats", "2"])
    assert code == 0 and calls == [(1 << 64) - 2, (1 << 64) - 1]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "denominators", "--n", "2", "--format", "text"]
    )
    assert code == 0
    assert out.rstrip().endswith("result: EQUAL")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["verify", "gram", "--s", "3", "--n", "2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["identity"] == "gram" and data["sign"] == -1


def test_verify_rejects_symbolic_for_numeric_only(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "schur-det", "--family", "gl", "--s", "2", "--n", "2", "--mode", "symbolic"],
    )
    assert code == 2
    assert "numeric" in err


def test_verify_family_gate(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify", "prop12", "--family", "odd-orth", "--s", "3", "--n", "2"],
    )
    assert code == 2
    assert out == ""
    assert err == "error: prop12 supports the gl and sp families, got 'odd-orth'\n"
    code, out, _ = run_cli(
        capsys,
        ["verify", "prop12", "--family", "sp", "--s", "3", "--n", "2"],
    )
    assert code == 0
    assert json.loads(out)["sign"] == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["main", "--s", "2", "--n", "2", "--family", "sp"], "--family"),
        (["main", "--s", "2", "--n", "2", "--k", "1"], "--k"),
        (["prop12", "--family", "gl", "--s", "4", "--n", "2", "--q", "1/2"], "--q"),
        (["denominators", "--n", "2", "--s", "3"], "--s"),
        (["schur-det", "--family", "gl", "--s", "2", "--n", "2", "--t", "1/3"], "--t"),
    ],
)
def test_verify_refuses_a_flag_the_identity_does_not_take(capsys, argv, flag):
    code, out, err = run_cli(capsys, ["verify", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {flag} does not apply to {argv[0]}\n"


def test_verify_macdonald_reports_honest_failure(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "macdonald", "--s", "2", "--n", "2", "--seed", "0"]
    )
    assert code == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert data["detail"]["p_equal"] is True
    assert data["detail"]["q_equal_bproduct"] is True
    assert data["detail"]["q_equal_printed_prefactor"] is False


def test_verify_macdonald_explicit_parameters(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "macdonald", "--s", "2", "--n", "1", "--q", "1/2", "--t", "1/3"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["detail"]["q"] == "1/2" and data["detail"]["t"] == "1/3"
    code, _, err = run_cli(
        capsys,
        ["verify", "macdonald", "--s", "2", "--n", "1", "--q", "x", "--t", "1/3"],
    )
    assert code == 2
    assert "rational" in err


def test_reports_are_reproducible_modulo_timing(capsys):
    argv = ["verify", "schur-det", "--family", "sp", "--s", "2", "--n", "2", "--seed", "9"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert a == b


def test_module_entry_point():
    # the child imports the same compdet as this process
    src = str(Path(compdet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "compdet", "enumerate", "Z0", "2", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["(2,1)", "(1,2)"]


def test_verify_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, ["verify", "main", "--s", "2", "--n", "2", "--out", str(target)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("identity", ["main", "gram"])
@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
@pytest.mark.parametrize("s, n", [(0, 2), (2, 0), (-1, 3), (3, -2)])
def test_verify_rejects_nonpositive_sizes(capsys, identity, mode, s, n):
    code, out, err = run_cli(
        capsys,
        ["verify", identity, "--s", str(s), "--n", str(n), "--mode", mode],
    )
    assert code == 2
    assert out == ""
    assert err == "error: s and n must be positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "2", "--mode", "numeric"], "denominators only supports symbolic mode"),
        (["--n", "8"], "denominators supports n <= 7"),
    ],
)
def test_denominators_rejects_numeric_mode_and_sizes_past_the_cap(capsys, argv, message):
    code, out, err = run_cli(capsys, ["verify", "denominators", *argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _sweep_argvs():
    """Requests across every identity, mode, family and enumerate kind, with
    sizes that are 0, negative, small or outside the symbolic envelope, and
    bad --k, --q, --t and --repeats.  Each finishes well under a second."""
    cases = []
    sizes = [(0, 2), (-1, 2), (2, 0), (1, 3), (3, 1), (2, 2), (3, 2), (3, 3), (5, 2)]
    for identity in ("main", "sylvester", "gram"):
        for mode in (None, "symbolic", "numeric"):
            for s, n in sizes:
                argv = [identity, "--s", str(s), "--n", str(n)]
                cases.append(argv + (["--mode", mode] if mode else []))
    for mode in ("symbolic", "numeric"):
        for k in (-1, 0, 1, 4):
            cases.append(["gram", "--s", "3", "--n", "2", "--k", str(k), "--mode", mode])
    cases += [["denominators", "--n", str(n)] for n in (-1, 0, 1, 3, 8)]
    cases += [["denominators"], ["denominators", "--n", "2", "--mode", "numeric"]]
    for family in ("gl", "sp", "odd-orth", "even-orth"):
        for s, n in ((2, 2), (1, 1), (0, 2), (2, -1)):
            cases.append(["schur-det", "--family", family, "--s", str(s), "--n", str(n)])
    cases += [
        ["schur-det", "--s", "2", "--n", "2"],
        ["schur-det", "--family", "gl", "--s", "2", "--n", "2", "--mode", "symbolic"],
    ]
    for family in ("gl", "sp", "odd-orth", "even-orth"):
        for s, n in ((4, 2), (1, 1), (3, 0), (2, 3)):
            cases.append(["prop12", "--family", family, "--s", str(s), "--n", str(n)])
    for s, n in ((2, 1), (2, 2), (1, 3), (0, 2), (9, 2)):
        cases.append(["macdonald", "--s", str(s), "--n", str(n)])
    for q, t in (("1/2", "1/3"), ("abc", "1/3"), ("1/0", "1/3"), ("2", "1/3"),
                 ("1/2", "1/2"), ("0", "1/3"), ("1/2", None), (None, "1/3")):
        argv = ["macdonald", "--s", "2", "--n", "1"]
        argv += ["--q", q] if q else []
        argv += ["--t", t] if t else []
        cases.append(argv)
    for repeats in (-1, 0, 2):
        cases.append(["main", "--s", "2", "--n", "2", "--repeats", str(repeats)])
    # numeric seeds outside [0, 2^64), the last one reached by --repeats
    numeric = ["main", "--s", "2", "--n", "2", "--mode", "numeric"]
    for seed in (-1, 1 << 64):
        cases.append(numeric + ["--seed", str(seed)])
    cases.append(numeric + ["--seed", str((1 << 64) - 2), "--repeats", "3"])
    # a flag the identity does not take, next to the flags it needs
    for argv, foreign in (
        ("main --s 2 --n 2", ("--k 1", "--family sp", "--q 1/2", "--t 1/3")),
        ("sylvester --s 3 --n 2", ("--k 1", "--family gl", "--q 1/2")),
        ("gram --s 2 --n 2 --mode numeric", ("--family gl", "--t 1/3")),
        ("denominators --n 2", ("--s 3", "--k 3 --family gl", "--q 1/2")),
        ("schur-det --family gl --s 2 --n 2", ("--k 1", "--q 1/2", "--t 1/3")),
        ("prop12 --family gl --s 4 --n 2", ("--k 1", "--q 1/2 --t 1/3")),
        ("macdonald --s 2 --n 1", ("--k 1", "--family gl")),
    ):
        cases += [(argv + " " + flags).split() for flags in foreign]
    cases = [["verify", *argv] for argv in cases]
    for kind in cli.ENUMERATE_KINDS:
        for s, n in ((3, 2), (1, 1), (0, 2), (2, -1)):
            for k in (None, 0, 1, 5):
                argv = ["enumerate", kind, str(s), str(n)]
                cases.append(argv + (["--k", str(k)] if k is not None else []))
    # more parts than a recursion per part could reach
    cases += [["enumerate", kind, "1200", "1"] for kind in ("Z", "Z0")]
    # one long line each, inside every kind's own output bound
    cases += [["enumerate", "Z0", "2000", "1"]]
    cases += [["enumerate", kind, "2000", "1", "--k", "1"] for kind in ("phi", "tau")]
    # past the output bound, refused before any line is built
    cases += [["enumerate", kind, "30", "30", "--k", "1"] for kind in ("phi", "tau")]
    cases += [["enumerate", kind, "30", "30"] for kind in ("Z", "Z0", "partitions")]
    cases += [["enumerate", "iota", "100000", "1"]]
    return cases


@pytest.mark.parametrize("argv", _sweep_argvs(), ids=" ".join)
def test_cli_sweep_exits_with_a_contract_code(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
    else:
        assert out and err == ""
