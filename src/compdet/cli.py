"""Command-line interface.

Two subcommands: `enumerate` prints the combinatorial families (index
compositions, their slot sets, the partner maps) one item per line, and
`verify` runs one of the determinant-identity checkers and emits a report
as JSON (default) or plain text.  Exit code 0 means every requested check
came out equal, 1 means at least one did not, 2 means the request itself
was malformed or out of range.  Each subcommand reads one table, VERIFY_ROWS
or ENUMERATE_ROWS, for every refusal, default and dispatch of a request.
"""

import argparse
import sys
from fractions import Fraction
from math import comb

from .characters import FAMILIES, verify_denominators, verify_prop_detS, verify_theorem_schur
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
from .sampling import MASK64, sample_seed


def _parse_fraction(text, flag):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be a rational like 2/7, got {text!r}") from exc


# Per identity: its modes (the first is the default), its required flags in
# the order they are checked, the flags it may take besides, and its call on
# (args, mode, seed).  Any other of these flags is refused; --mode, --seed and
# the output flags go with every identity.
VERIFY_ROWS = {
    "main": (("symbolic", "numeric"), ("s", "n"), (),
             lambda a, mode, seed: verify_main(a.s, a.n, mode, seed)),
    "sylvester": (("symbolic", "numeric"), ("s", "n"), (),
                  lambda a, mode, seed: verify_sylvester(a.s, a.n, mode, seed)),
    "gram": (("symbolic", "numeric"), ("s", "n"), ("k",),
             lambda a, mode, seed: verify_gram(a.s, a.n, a.k, mode, seed)),
    "denominators": (("symbolic",), ("n",), (), lambda a, mode, seed: verify_denominators(a.n)),
    "schur-det": (("numeric",), ("family", "s", "n"), (),
                  lambda a, mode, seed: verify_theorem_schur(a.family, a.s, a.n, seed)),
    "prop12": (("numeric",), ("family", "s", "n"), (),
               lambda a, mode, seed: verify_prop_detS(a.family, a.s, a.n, seed)),
    "macdonald": (("numeric",), ("s", "n"), ("q", "t"),
                  lambda a, mode, seed: verify_corollary_macdonald(
                      a.s, a.n, seed, _parse_fraction(a.q, "--q"), _parse_fraction(a.t, "--t"))),
}
IDENTITIES = tuple(VERIFY_ROWS)


def _with_part(s, n, k):
    return [mu for mu in compositions(s, n) if mu[k - 1]]


def _compositions_count(s, w):
    """C(s + w - 1, w), the number of compositions of w into s parts.  A
    binomial grows with its lower index up to half the upper one, so the cut
    to 64 keeps it cheap and still exceeds the cap whenever the uncut one
    does."""
    return comb(s + w - 1, min(w, s - 1, 64))


# Per kind: whether it takes --k, its items for (s, n, k), each printed as a
# composition, the image printed after it for (item, n, k), if any, and a
# bound on the entries it prints for (s, n).  Z, iota and partitions print
# C(s+n-1, n) lines, Z0, phi and tau C(s+n-2, n-1); a phi or tau line holds
# at most 2s entries, any other line at most s + n.
ENUMERATE_ROWS = {
    "Z": (False, lambda s, n, k: compositions(s, n), None,
          lambda s, n: _compositions_count(s, n) * (s + n)),
    "Z0": (False, lambda s, n, k: compositions_positive(s, s + n - 1), None,
           lambda s, n: _compositions_count(s, n - 1) * (s + n)),
    "iota": (False, lambda s, n, k: compositions(s, n), lambda x, n, k: format_subset(iota(x, n)),
             lambda s, n: _compositions_count(s, n) * (s + n)),
    "phi": (True, _with_part, lambda x, n, k: format_subset(successor_slots(x, k, n)),
            lambda s, n: _compositions_count(s, n - 1) * 2 * s),
    "tau": (True, _with_part, lambda x, n, k: format_composition(bump_except(x, k)),
            lambda s, n: _compositions_count(s, n - 1) * 2 * s),
    "partitions": (False, lambda s, n, k: partitions_in_box(n, s - 1), None,
                   lambda s, n: _compositions_count(s, n) * (s + n)),
}
ENUMERATE_KINDS = tuple(ENUMERATE_ROWS)
ENUMERATE_MAX_ENTRIES = 2_000_000  # printed parts and slots; `Z 1200 1` prints 1,440,000


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
        "--family", choices=FAMILIES, default=None, help="character family (schur-det, prop12)"
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


def run_enumerate(args):
    what, s, n, k = args.what, args.s, args.n, args.k
    takes_k, items, image, bound = ENUMERATE_ROWS[what]
    if k is not None and not takes_k:
        raise UsageError(f"--k does not apply to {what}")
    if s < 1 or n < 1:
        raise UsageError("s and n must be positive")
    if takes_k and not 1 <= _need(k, "--k", what) <= s:
        raise UsageError(f"--k must lie in 1..{s}")
    if bound(s, n) > ENUMERATE_MAX_ENTRIES:
        raise CapabilityError(f"{what} {s} {n} may print over {ENUMERATE_MAX_ENTRIES} entries")
    print("\n".join(
        format_composition(x) + (f" -> {image(x, n, k)}" if image else "") for x in items(s, n, k)
    ))
    return 0


def _verify_call(args):
    """The mode and the verifier call of a request, once its flags and mode
    pass the identity's row."""
    modes, required, optional, call = VERIFY_ROWS[args.identity]
    for flag in ("s", "n", "k", "family", "q", "t"):
        if getattr(args, flag) is not None and flag not in required + optional:
            raise UsageError(f"--{flag} does not apply to {args.identity}")
    mode = args.mode or modes[0]
    if mode not in modes:
        raise UsageError(f"{args.identity} only supports {modes[0]} mode")
    for flag in required:
        _need(getattr(args, flag), f"--{flag}", args.identity)
    return mode, call


def run_verify(args):
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    mode, call = _verify_call(args)
    seeds = range(args.seed, args.seed + args.repeats)
    # refuse a run with a seed outside the generator range before any check
    # runs, naming its first such seed: the first seed, or else 2^64
    sample_seed(mode, seeds[0])
    sample_seed(mode, min(seeds[-1], MASK64 + 1))
    reports = [call(args, mode, seed) for seed in seeds]
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
