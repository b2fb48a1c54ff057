"""Command-line interface.

Two subcommands: `enumerate` prints the combinatorial families (index
compositions, their slot sets, the partner maps) one item per line, and
`verify` runs one of the determinant-identity checkers and emits a report
as JSON (default) or plain text.  Exit code 0 means every requested check
came out equal, 1 means at least one did not, 2 means the request itself
was malformed or out of range.
"""

import argparse
import sys
from fractions import Fraction

from .characters import verify_denominators, verify_prop_detS, verify_theorem_schur
from .combin import (
    bump_except,
    compositions,
    compositions_positive,
    format_composition,
    format_subset,
    iota,
    partitions_in_box,
    successor_slots,
)
from .compound import verify_gram, verify_main, verify_sylvester
from .errors import CapabilityError, DomainError, ParameterError, UsageError
from .macdonald import verify_corollary_macdonald

ENUMERATE_KINDS = ("Z", "Z0", "iota", "phi", "tau", "partitions")
# The flags each identity requires, in the order they are checked, and the
# ones it may take besides.  Any other of these flags is refused; --mode,
# --seed and the output flags go with every identity.
_FLAGS = {
    "main": (("s", "n"), ()),
    "sylvester": (("s", "n"), ()),
    "gram": (("s", "n"), ("k",)),
    "denominators": (("n",), ()),
    "schur-det": (("family", "s", "n"), ()),
    "prop12": (("family", "s", "n"), ()),
    "macdonald": (("s", "n"), ("q", "t")),
}
IDENTITIES = tuple(_FLAGS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compdet",
        description="Exact verification of compound-determinant identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser(
        "enumerate", help="print a combinatorial family, one item per line"
    )
    enum_p.add_argument("what", choices=ENUMERATE_KINDS)
    enum_p.add_argument("s", type=int, help="number of parts / groups")
    enum_p.add_argument("n", type=int, help="weight / group size")
    enum_p.add_argument("--k", type=int, default=None, help="coordinate for phi/tau")

    verify_p = sub.add_parser("verify", help="run one identity check")
    verify_p.add_argument("identity", choices=IDENTITIES)
    verify_p.add_argument("--s", type=int, default=None)
    verify_p.add_argument("--n", type=int, default=None)
    verify_p.add_argument("--k", type=int, default=None, help="pin the partner coordinate (gram)")
    verify_p.add_argument(
        "--family",
        choices=("gl", "sp", "odd-orth", "even-orth"),
        default=None,
        help="character family (schur-det, prop12)",
    )
    verify_p.add_argument("--mode", choices=("symbolic", "numeric"), default=None)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--repeats", type=int, default=1)
    verify_p.add_argument("--q", type=str, default=None, help="rational, e.g. 1/3")
    verify_p.add_argument("--t", type=str, default=None)
    verify_p.add_argument("--out", type=str, default=None, help="write the report here")
    verify_p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _need(value, flag, identity):
    if value is None:
        raise UsageError(f"{flag} is required for {identity}")
    return value


def _parse_fraction(text, flag):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be a rational like 2/7, got {text!r}") from exc


def run_enumerate(args):
    s, n = args.s, args.n
    if s < 1 or n < 1:
        raise UsageError("s and n must be positive")
    what = args.what
    lines = []
    if what == "Z":
        lines = [format_composition(mu) for mu in compositions(s, n)]
    elif what == "Z0":
        lines = [format_composition(nu) for nu in compositions_positive(s, s + n - 1)]
    elif what == "iota":
        lines = [
            f"{format_composition(mu)} -> {format_subset(iota(mu, n))}"
            for mu in compositions(s, n)
        ]
    elif what in ("phi", "tau"):
        k = _need(args.k, "--k", what)
        if not 1 <= k <= s:
            raise UsageError(f"--k must lie in 1..{s}")
        for mu in compositions(s, n):
            if mu[k - 1] == 0:
                continue
            if what == "phi":
                rhs = format_subset(successor_slots(mu, k, n))
            else:
                rhs = format_composition(bump_except(mu, k))
            lines.append(f"{format_composition(mu)} -> {rhs}")
    elif what == "partitions":
        lines = [format_composition(lam) for lam in partitions_in_box(n, s - 1)]
    print("\n".join(lines))
    return 0


def _run_verify_once(args, seed):
    identity = args.identity
    required, optional = _FLAGS[identity]
    for flag in ("s", "n", "k", "family", "q", "t"):
        if getattr(args, flag) is not None and flag not in required + optional:
            raise UsageError(f"--{flag} does not apply to {identity}")
    mode = args.mode
    if identity == "denominators" and mode == "numeric":
        raise UsageError("denominators only supports symbolic mode")
    if identity in ("schur-det", "prop12", "macdonald") and mode == "symbolic":
        raise UsageError(f"{identity} only supports numeric mode")
    for flag in required:
        _need(getattr(args, flag), f"--{flag}", identity)
    s, n, family = args.s, args.n, args.family
    if identity == "main":
        return verify_main(s, n, mode=mode or "symbolic", seed=seed)
    if identity == "sylvester":
        return verify_sylvester(s, n, mode=mode or "symbolic", seed=seed)
    if identity == "gram":
        return verify_gram(s, n, k0=args.k, mode=mode or "symbolic", seed=seed)
    if identity == "denominators":
        return verify_denominators(n)
    if identity == "schur-det":
        return verify_theorem_schur(family, s, n, seed)
    if identity == "prop12":
        return verify_prop_detS(family, s, n, seed)
    # macdonald: _FLAGS[identity] raised above on any other name
    q, t = _parse_fraction(args.q, "--q"), _parse_fraction(args.t, "--t")
    return verify_corollary_macdonald(s, n, seed, q=q, t=t)


def run_verify(args):
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    reports = [_run_verify_once(args, args.seed + i) for i in range(args.repeats)]
    if args.format == "json":
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            text = "[" + ",".join(r.to_json() for r in reports) + "]"
    else:
        text = "\n\n".join(r.to_text() for r in reports)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            raise UsageError(f"cannot write --out {args.out}: {reason}") from exc
    else:
        print(text)
    return max(r.exit_code for r in reports)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "enumerate":
            return run_enumerate(args)
        return run_verify(args)
    except (UsageError, DomainError, CapabilityError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
