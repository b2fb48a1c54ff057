"""Verification reports: one dataclass, one JSON schema, one text form.

A verification never raises on mathematical disagreement; it returns a
report with equal=False and the two side hashes differing.  Exceptions are
reserved for bad usage and bad parameters.

`render` is the one way a verdict value becomes text, for the hashes and
for the rationals in `detail`: a Laurent polynomial renders as its
canonical() form, a rational as str().  A 0-variable polynomial and the
rational it holds render alike.

The JSON form is deterministic for a fixed (identity, parameters, seed):
keys are sorted, separators fixed, and values exact.  The elapsed_ms field
is wall-clock and therefore the one field excluded from reproducibility
comparisons.
"""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import LaurentPoly

SCHEMA_VERSION = 1

# Fields whose values may differ between two runs with identical inputs.
VOLATILE_FIELDS = ("elapsed_ms",)


def render(value):
    """Canonical text of a verdict value: canonical() of a polynomial,
    str() of a rational."""
    if isinstance(value, LaurentPoly):
        return value.canonical()
    return str(value)


def canonical_hash(text):
    """Hex sha256 of a canonical text rendering."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def side_hashes(lhs, rhs, equal):
    """Hashes of the renderings of two sides.  Equal sides have the same
    rendering: it is made once."""
    lhs_hash = canonical_hash(render(lhs))
    return lhs_hash, lhs_hash if equal else canonical_hash(render(rhs))


def hash_parts(parts):
    """Hash a sequence of canonical strings, one per line."""
    return canonical_hash("\n".join(parts))


@dataclass
class VerifyReport:
    identity: str
    mode: str
    equal: bool
    lhs_hash: str
    rhs_hash: str
    s: int = None
    n: int = None
    seed: int = None
    sign: int = None
    elapsed_ms: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "schema": SCHEMA_VERSION,
            "identity": self.identity,
            "mode": self.mode,
            "equal": self.equal,
            "s": self.s,
            "n": self.n,
            "seed": self.seed,
            "sign": self.sign,
            "lhs_hash": self.lhs_hash,
            "rhs_hash": self.rhs_hash,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.detail:
            out["detail"] = _plain(self.detail)
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
