"""Verification reports: one skeleton, one report class, one JSON schema,
one text form.

`run_check` is the one place a report is timed, seeded and compared: a
verifier hands it only its mathematics, a build function that validates
the request and returns the two sides and a verdict on them.

A verification never raises on mathematical disagreement; it returns a
report with equal=False and the two side hashes differing.  Exceptions are
reserved for bad usage and bad parameters.

`compare_sides` compares the two sides value by value and hashes each
side as its values' texts, one per line, fed to the hash text by text.  A
pair is compared once and an equal pair rendered once.  `render` is the
one way a verdict value becomes text, for the hashes and for the
rationals in `detail`: a Laurent polynomial renders as its canonical()
form, a rational as str().  A 0-variable
polynomial and the rational it holds render alike.

The JSON form is deterministic for a fixed (identity, parameters, seed):
keys are sorted, separators fixed, and values exact.  The elapsed_ms field
is wall-clock and therefore the one field excluded from reproducibility
comparisons.
"""

import hashlib
import json
import time
from fractions import Fraction

from .laurent import LaurentPoly
from .sampling import sample_seed

SCHEMA_VERSION = 1

# Fields whose values may differ between two runs with identical inputs.
VOLATILE_FIELDS = ("elapsed_ms",)


def render(value):
    """Canonical text of a verdict value: canonical() of a polynomial,
    str() of a rational."""
    if isinstance(value, LaurentPoly):
        return value.canonical()
    return str(value)


def canonical_hash(texts):
    """Hex sha256 of one side's texts, one per line.  Each text is encoded
    and fed to the hash on its own, so the side is never joined."""
    digest = hashlib.sha256()
    separator = b""
    for text in texts:
        digest.update(separator)
        digest.update(text.encode("utf-8"))
        separator = b"\n"
    return digest.hexdigest()


def compare_sides(lhs, rhs):
    """Compare two equal-length sides pair by pair and hash each side.

    Returns (flags, lhs_hash, rhs_hash): flags[i] is lhs[i] == rhs[i], and
    each hash is that of its side's renderings, one per line.  Each pair is
    compared once and an equal pair is rendered once.  When every pair is
    equal, one hash of the left side serves both."""
    flags = [left == right for left, right in zip(lhs, rhs, strict=True)]
    if all(flags):
        lhs_hash = canonical_hash(map(render, lhs))
        return flags, lhs_hash, lhs_hash
    lhs_texts = list(map(render, lhs))
    rhs_texts = (text if eq else render(r) for text, eq, r in zip(lhs_texts, flags, rhs))
    return flags, canonical_hash(lhs_texts), canonical_hash(rhs_texts)


def run_check(identity, mode, seed, build, **fields):
    """Run one check and report it, timed from start to end.

    The seed is resolved once, by sampling.sample_seed: None in symbolic
    mode, 0 for a numeric caller that gives none.  build(seed) validates
    the request, builds the instance and returns (lhs, rhs, verdict): two
    equal-length lists of side values for compare_sides, and a function
    of its flags that returns the report's equal and, where the identity
    has them, its sign and detail, as a dict.  fields are the report's s
    and n."""
    t0 = time.perf_counter()
    seed = sample_seed(mode, seed)
    lhs, rhs, verdict = build(seed)
    flags, lhs_hash, rhs_hash = compare_sides(lhs, rhs)
    return VerifyReport(
        identity=identity,
        mode=mode,
        lhs_hash=lhs_hash,
        rhs_hash=rhs_hash,
        seed=seed,
        **fields,
        **verdict(flags),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


class VerifyReport:
    """One check's outcome.  A plain class, compared and shown field by
    field; detail defaults to a fresh dict per report."""

    __slots__ = (
        "identity", "mode", "equal", "lhs_hash", "rhs_hash",
        "s", "n", "seed", "sign", "elapsed_ms", "detail",
    )

    def __init__(self, identity, mode, equal, lhs_hash, rhs_hash,
                 s=None, n=None, seed=None, sign=None, elapsed_ms=0, detail=None):
        self.identity = identity
        self.mode = mode
        self.equal = equal
        self.lhs_hash = lhs_hash
        self.rhs_hash = rhs_hash
        self.s = s
        self.n = n
        self.seed = seed
        self.sign = sign
        self.elapsed_ms = elapsed_ms
        self.detail = {} if detail is None else detail

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def to_dict(self):
        out = dict(zip(self.__slots__, self._values()))
        out["schema"] = SCHEMA_VERSION
        detail = out.pop("detail")
        if detail:
            out["detail"] = _plain(detail)
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self):
        lines = [f"identity: {self.identity}", f"mode: {self.mode}"]
        if self.s is not None:
            lines.append(f"s: {self.s}")
        if self.n is not None:
            lines.append(f"n: {self.n}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.sign is not None:
            lines.append(f"sign: {self.sign:+d}")
        for key in sorted(self.detail):
            lines.append(f"{key}: {_plain(self.detail[key])}")
        lines.append(f"lhs_hash: {self.lhs_hash}")
        lines.append(f"rhs_hash: {self.rhs_hash}")
        lines.append(f"elapsed_ms: {self.elapsed_ms}")
        lines.append("result: " + ("EQUAL" if self.equal else "NOT EQUAL"))
        return "\n".join(lines)

    @property
    def exit_code(self):
        return 0 if self.equal else 1


def _plain(value):
    """Recursively convert report details to JSON-safe plain values."""
    if isinstance(value, Fraction):
        return render(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value
