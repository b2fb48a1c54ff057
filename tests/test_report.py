"""Report serialization: stable JSON, readable text, exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import compdet
from compdet import report as report_module
from compdet.laurent import LaurentPoly
from compdet.report import (
    SCHEMA_VERSION,
    VOLATILE_FIELDS,
    VerifyReport,
    canonical_hash,
    compare_sides,
    render,
)


def sample_report(**overrides):
    kwargs = dict(
        identity="main",
        mode="symbolic",
        equal=True,
        lhs_hash="a" * 64,
        rhs_hash="a" * 64,
        s=2,
        n=2,
        elapsed_ms=17,
    )
    kwargs.update(overrides)
    return VerifyReport(**kwargs)


# The constructor's parameters, in order: the fields of the report as it
# was first published, which to_dict keys by name.
REPORT_FIELDS = (
    "identity", "mode", "equal", "lhs_hash", "rhs_hash",
    "s", "n", "seed", "sign", "elapsed_ms", "detail",
)


def test_positional_construction_keeps_the_field_order():
    values = ("gram", "numeric", False, "a" * 64, "b" * 64, 3, 2, 7, -1, 12, {"k": 1})
    r = VerifyReport(*values)
    assert tuple(getattr(r, name) for name in REPORT_FIELDS) == values
    bare = VerifyReport("main", "symbolic", True, "c", "d")
    assert (bare.s, bare.n, bare.seed, bare.sign, bare.elapsed_ms, bare.detail) == (
        None, None, None, None, 0, {}
    )


def test_to_dict_keys_are_the_fields_and_the_schema():
    keys = set(REPORT_FIELDS) | {"schema"}
    assert set(sample_report(detail={"k": 1}).to_dict()) == keys
    # an empty detail is left out
    assert set(sample_report().to_dict()) == keys - {"detail"}


def test_reports_built_without_detail_do_not_share_it():
    a, b = sample_report(), sample_report()
    assert a.detail == b.detail == {} and a.detail is not b.detail
    a.detail["k"] = 1
    assert b.detail == {} and sample_report().detail == {}


def test_equality_is_over_every_field():
    assert sample_report() == sample_report()
    changed = {
        "identity": "gram", "mode": "numeric", "equal": False, "lhs_hash": "b" * 64,
        "rhs_hash": "c" * 64, "s": 3, "n": 3, "seed": 1, "sign": -1, "elapsed_ms": 18,
        "detail": {"k": 1},
    }
    assert set(changed) == set(REPORT_FIELDS)
    for name, value in changed.items():
        assert sample_report(**{name: value}) != sample_report(), name
    assert sample_report() != sample_report().to_dict()


def test_repr_names_every_field():
    text = repr(sample_report(seed=5))
    assert text.startswith("VerifyReport(identity='main', mode='symbolic', equal=True, ")
    assert text.endswith(", seed=5, sign=None, elapsed_ms=17, detail={})")
    assert all(f"{name}=" in text for name in REPORT_FIELDS)


def test_importing_the_cli_loads_no_code_introspection():
    """A fresh isolated interpreter imports compdet.cli without dataclasses
    and what it pulls in, and with the modules every run uses already
    loaded, so none of them is deferred into a run."""
    src = str(Path(compdet.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import compdet.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "compdet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert {"hashlib", "json", "fractions"} <= loaded


def test_json_shape_and_key_order():
    r = sample_report()
    data = json.loads(r.to_json())
    assert data["schema"] == SCHEMA_VERSION
    assert data["identity"] == "main"
    assert data["equal"] is True
    assert data["seed"] is None and data["sign"] is None
    assert "detail" not in data
    # sort_keys plus fixed separators means byte stability
    assert r.to_json() == json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_detail_appears_only_when_present():
    r = sample_report(detail={"rhs_factors": ["{1,2,3}"]})
    data = json.loads(r.to_json())
    assert data["detail"] == {"rhs_factors": ["{1,2,3}"]}
    assert "detail" not in json.loads(sample_report().to_json())


def test_fractions_become_strings():
    r = sample_report(
        detail={"q": Fraction(1, 3), "nested": {"t": Fraction(2, 5)}, "seq": [Fraction(7)]}
    )
    data = json.loads(r.to_json())
    assert data["detail"]["q"] == "1/3"
    assert data["detail"]["nested"]["t"] == "2/5"
    assert data["detail"]["seq"] == ["7"]


def test_volatile_field_is_isolated():
    a = sample_report(elapsed_ms=1).to_dict()
    b = sample_report(elapsed_ms=999).to_dict()
    for key in VOLATILE_FIELDS:
        a.pop(key)
        b.pop(key)
    assert a == b


def test_text_form():
    r = sample_report(sign=-1, detail={"variant": "colored"})
    text = r.to_text()
    lines = text.splitlines()
    assert lines[0] == "identity: main"
    assert "sign: -1" in lines
    assert "variant: colored" in lines
    assert lines[-1] == "result: EQUAL"
    failing = sample_report(equal=False)
    assert failing.to_text().splitlines()[-1] == "result: NOT EQUAL"


def test_exit_codes():
    assert sample_report().exit_code == 0
    assert sample_report(equal=False).exit_code == 1


def test_hash_helpers(monkeypatch):
    assert canonical_hash(["x"]) == canonical_hash(iter(["x"]))
    assert canonical_hash(["x"]) != canonical_hash(["y"])
    # a side's texts are hashed one per line, as their joined encoding
    texts = ["x1", "1/2", "", "é"]
    assert canonical_hash(texts) == hashlib.sha256("x1\n1/2\n\né".encode()).hexdigest()
    assert canonical_hash([]) == hashlib.sha256(b"").hexdigest()
    hashed = []

    def joined(texts):
        text = "\n".join(texts)
        hashed.append(text)
        return text

    monkeypatch.setattr(report_module, "canonical_hash", joined)
    x = LaurentPoly.variable(2, 1)
    # each side hashes its values' texts, one per line
    flags, lhs, rhs = compare_sides([x, Fraction(1, 2)], [x * 1, Fraction(1, 3)])
    assert flags == [True, False]
    assert (lhs, rhs) == ("x1\n1/2", "x1\n1/3")
    assert len(hashed) == 2
    # equal sides share one text, hashed once
    hashed.clear()
    assert compare_sides([x, Fraction(1, 2)], [x, Fraction(2, 4)]) == (
        [True, True],
        "x1\n1/2",
        "x1\n1/2",
    )
    assert len(hashed) == 1
    with pytest.raises(ValueError):
        compare_sides([x], [x, x])


rationals = st.one_of(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.fractions(),
    st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=10**30)),
)


@given(rationals)
def test_render_of_a_constant_is_the_rational_text(c):
    # a constant polynomial and its rational hash alike, so a hash does not
    # depend on which of the two holds the value
    assert render(LaurentPoly.const(0, c)) == render(c) == str(c)
    assert render(Fraction(c)) == str(c)


def test_render_of_polynomials_and_fractions_in_detail():
    x = LaurentPoly.variable(2, 1)
    poly = x * 3 - LaurentPoly.variable(2, 2, -1)
    assert render(poly) == poly.canonical() == "3*x1 - x2^(-1/2)"
    assert render(LaurentPoly.zero(4)) == render(Fraction(0)) == "0"
    r = sample_report(detail={"q": Fraction(-4, 6)})
    assert json.loads(r.to_json())["detail"]["q"] == render(Fraction(-2, 3)) == "-2/3"
