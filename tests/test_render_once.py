"""Side hashes of symbolic reports: equal sides share one rendering, a
differing side is rendered on its own, and every hash is the hash of the
reference rendering of its own side."""

import json
from math import comb

import pytest

from compdet import characters, cli, compound
from compdet.characters import FAMILIES, SP
from compdet.laurent import LaurentPoly
from compdet.report import canonical_hash
from oracles import canonical_reference


@pytest.fixture
def compared(monkeypatch):
    """Every (left, right) pair of polynomials compared with ==, in order."""
    pairs = []
    original = LaurentPoly.__eq__

    def spy(self, other):
        if isinstance(other, LaurentPoly):
            pairs.append((self, other))
        return original(self, other)

    monkeypatch.setattr(LaurentPoly, "__eq__", spy)
    return pairs


@pytest.fixture
def renders(monkeypatch):
    """Counts the calls of LaurentPoly.canonical."""
    calls = []
    original = LaurentPoly.canonical

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LaurentPoly, "canonical", spy)
    return calls


def reference_hash(polys):
    """Hash of one side: its polynomials rendered by the reference, one per line."""
    return canonical_hash("\n".join(canonical_reference(p) for p in polys))


def run_verify(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main(["verify", *argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def one_off(monkeypatch, module, attr, only_call=None):
    """Make module.attr return its value + 1, on every call or on one only."""
    real = getattr(module, attr)
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        value = real(*args)
        return value + 1 if only_call in (None, calls) else value

    monkeypatch.setattr(module, attr, patched)


CASES = {
    # check; the function made one off, at which call; the sides it compares
    "main": (["main", "--s", "2", "--n", "2"], (compound, "_maximal_minor", 1), 1),
    "gram": (["gram", "--s", "2", "--n", "2"], (compound, "_maximal_minor", 1), 9),
    # one determinant per family, in FAMILIES order: only sp's is off
    "denominators": (
        ["denominators", "--n", "3"],
        (characters, "det", FAMILIES.index(SP) + 1),
        len(FAMILIES),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_differing_sides_are_rendered_on_their_own(monkeypatch, tmp_path, compared, name):
    argv, off, sides = CASES[name]
    one_off(monkeypatch, *off)
    code, report = run_verify(tmp_path, argv)
    pairs = list(compared)
    assert code == 1
    assert report["equal"] is False
    assert report["lhs_hash"] != report["rhs_hash"]
    assert len(pairs) == sides
    assert report["lhs_hash"] == reference_hash([lhs for lhs, _ in pairs])
    assert report["rhs_hash"] == reference_hash([rhs for _, rhs in pairs])
    if name == "gram":
        # the cells that use the one-off minor differ, the others agree
        assert 0 < sum(lhs == rhs for lhs, rhs in pairs) < sides
    if name == "denominators":
        assert report["detail"] == {f: f != SP for f in FAMILIES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_sides_share_one_hash(tmp_path, compared, name):
    argv, _, sides = CASES[name]
    code, report = run_verify(tmp_path, argv)
    pairs = list(compared)
    assert code == 0 and report["equal"] is True
    assert report["lhs_hash"] == report["rhs_hash"]
    assert len(pairs) == sides
    assert report["lhs_hash"] == reference_hash([lhs for lhs, _ in pairs])
    assert report["rhs_hash"] == reference_hash([rhs for _, rhs in pairs])


def test_each_side_is_rendered_once_when_equal_twice_when_not(monkeypatch, renders):
    assert compound.verify_main(2, 2).equal
    assert len(renders) == 1
    renders.clear()
    one_off(monkeypatch, compound, "det")
    assert not compound.verify_main(2, 2).equal
    assert len(renders) == 2


def test_leading_term_hashes_match_reference():
    report = compound.verify_leading_term(2, 2)
    assert report.equal and report.lhs_hash == report.rhs_hash
    exps = [0] * 4
    for k in range(1, 3):
        for j in range(1, 3):
            exps[(k - 1) * 2 + j - 1] = 2 * (3 - k) * comb(4 - j, 2)
    expected = LaurentPoly.monomial(4, 1, exps)
    assert report.lhs_hash == reference_hash([expected])
