"""Verification reports: one dataclass, one JSON schema, one text form.

A verification never raises on mathematical disagreement; it returns a
report with equal=False and the two side hashes differing.  Exceptions are
reserved for bad usage and bad parameters.

`compare_sides` is the one verdict step of every verifier: it compares
the two sides value by value and hashes each side as its values' texts,
one per line.  An equal pair is compared once and rendered once.  `render`
is the one way a verdict value becomes text, for the hashes and for the
rationals in `detail`: a Laurent polynomial renders as its canonical()
form, a rational as str().  A 0-variable polynomial and the rational it
holds render alike.

The JSON form is deterministic for a fixed (identity, parameters, seed):
keys are sorted, separators fixed, and values exact.  The elapsed_ms field
is wall-clock and therefore the one field excluded from reproducibility
comparisons.
"""

import hashlib
import json
from dataclasses import dataclass, field, fields
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


def compare_sides(lhs, rhs):
    """Compare two equal-length sides pair by pair and hash each side.

    Returns (flags, lhs_hash, rhs_hash): flags[i] is lhs[i] == rhs[i], and
    each hash is that of its side's renderings, one per line.  Each pair is
    compared once, an equal pair is rendered once, and when every pair is
    equal the one text is hashed once."""
    flags = []
    lhs_texts = []
    rhs_texts = []
    for left, right in zip(lhs, rhs, strict=True):
        equal = left == right
        text = render(left)
        flags.append(equal)
        lhs_texts.append(text)
        rhs_texts.append(text if equal else render(right))
    lhs_hash = canonical_hash("\n".join(lhs_texts))
    if all(flags):
        return flags, lhs_hash, lhs_hash
    return flags, lhs_hash, canonical_hash("\n".join(rhs_texts))


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
        # not dataclasses.asdict, which rebuilds a Counter in detail from
        # its (key, count) pairs
        out = {f.name: getattr(self, f.name) for f in fields(self)}
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
