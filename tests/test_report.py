"""Report serialization: stable JSON, readable text, exit codes."""

import json
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from compdet.laurent import LaurentPoly
from compdet.report import (
    SCHEMA_VERSION,
    VOLATILE_FIELDS,
    VerifyReport,
    canonical_hash,
    hash_parts,
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


def test_hash_helpers():
    assert canonical_hash("x") == canonical_hash("x")
    assert canonical_hash("x") != canonical_hash("y")
    assert hash_parts(["a", "b"]) == canonical_hash("a\nb")


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
