"""What the one verifier skeleton, report.run_check, must leave as it was.

The report ledger (tests/report_ledger.py) pins every report the CLI can
print.  These tests pin what it cannot reach: the signatures of the public
verifiers, and the reports of two paths no argv selects, the leading-term
check and the substituted point of schur-det.  The hashes were recorded
before the verifiers moved onto run_check.  The last test keeps the
mutation ledger, tests/mutants.py, applicable to the source.
"""

import inspect

import pytest

import compdet
from compdet.characters import GL, ODD_ORTH, verify_theorem_schur
from compdet.compound import verify_leading_term

import mutants
from report_ledger import digest, stable_stdout

SIGNATURES = {
    "verify_main": "(s, n, mode='symbolic', seed=None)",
    "verify_sylvester": "(s, n, mode='symbolic', seed=None)",
    "verify_gram": "(s, n, k0=None, mode='symbolic', seed=None)",
    "verify_leading_term": "(s, n)",
    "verify_denominators": "(n)",
    "verify_theorem_schur": "(family, s, n, seed, substitution=False)",
    "verify_prop_detS": "(kind, s, n, seed)",
    "verify_corollary_macdonald": "(s, n, seed, q=None, t=None)",
}


def stable_hash(report):
    """SHA-256 of the report's JSON as the ledger canonicalizes it."""
    return digest(stable_stdout(["verify"], report.to_json()))


def test_public_verifier_signatures():
    public = {name for name in compdet.__all__ if name.startswith("verify_")}
    assert public == set(SIGNATURES)
    for name, signature in SIGNATURES.items():
        assert str(inspect.signature(getattr(compdet, name))) == signature, name


@pytest.mark.parametrize(
    "s, n, digest",
    [
        (1, 4, "7232b86239da9f3b0daa92bbe8fc4c4c3f94b689073fccdf56620afdb7e5f4b2"),
        (2, 2, "e48a01b2514dc98b11afa6de0e11d2795ce4b941b3c6170b77b1861fc3dbf1dd"),
        (3, 2, "d8751a97da93cd976ae63d00455114debadf347bccfd088734c7ac5d2de51a1c"),
    ],
)
def test_leading_term_report_bytes(s, n, digest):
    report = verify_leading_term(s, n)
    assert report.equal
    assert stable_hash(report) == digest


@pytest.mark.parametrize(
    "family, digest",
    [
        (GL, "2ca984ac2be34f85b758b293a8a8cb577ae37e45dc2f6a6056a10d9b904d9a3c"),
        (ODD_ORTH, "dce1d41f9722c944f7c8f8b1536233a22822cacb69415c54577acb172b8a62c8"),
    ],
)
def test_substituted_schur_report_bytes(family, digest):
    report = verify_theorem_schur(family, 2, 2, 1, substitution=True)
    assert report.equal
    assert stable_hash(report) == digest


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant[0])
def test_each_mutant_source_text_occurs_once(mutant):
    name, module, source, *_ = mutant
    assert mutants.occurrences(source) == 1
    assert source in (mutants.SRC / module).read_text(encoding="utf-8")
