"""Compositions, index subsets, partitions, and the block maps between them.

Conventions used across the package:

* Index sets (rows/columns of matrices, variable positions) are 1-based,
  strictly increasing tuples of ints.
* A composition is a plain tuple of non-negative ints; its weight is the sum.
* Compositions with a fixed number of parts are enumerated in "head-heavy"
  order: lambda comes before mu when, at the first position where they
  differ, lambda has the larger part.  Concretely this is descending
  lexicographic order on the raw tuples.
* Box partitions are enumerated in descending lexicographic order on their
  zero-padded tuples, the row order of the character grids.

Only the maps the verifiers and the CLI use live here.  The lemma maps the
acceptance criteria check on top of them (dominance, the partition-to-
rowset map, the dominance-off-one-slot test) live in tests/lemmas.py.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import DomainError, UsageError


def compositions(parts, weight, minimum=0):
    """All compositions of the given weight into `parts` slots, each part at
    least `minimum`, in head-heavy order.

    Stars and bars: the weight left over the minima is a row of stars cut
    by parts - 1 bars, and each part is the minimum plus the stars between
    two bars.  Bar positions in descending lex order give the parts in
    descending lex order, so the combinations are taken in reverse."""
    if parts < 1 or weight < 0:
        raise UsageError("need parts >= 1 and weight >= 0")
    free = weight - minimum * parts
    if free < 0:
        return []
    width = free + parts - 1
    out = []
    for bars in reversed(list(combinations(range(width), parts - 1))):
        edges = (-1, *bars, width)
        out.append(tuple(minimum + b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


def compositions_positive(parts, weight):
    """Compositions with every part at least 1, in head-heavy order."""
    return compositions(parts, weight, minimum=1)


def binom_nonneg(a, b):
    """Binomial coefficient under the convention that it vanishes unless
    0 <= b <= a.  Exponent bookkeeping relies on this convention."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def subsets_lex(universe_size, k):
    """All k-element subsets of {1..universe_size} as tuples, lex order."""
    return list(combinations(range(1, universe_size + 1), k))


def iota(mu, width):
    """Block prefixes: part i contributes the first mu_i slots of the i-th
    consecutive block of the given width.  Returns a sorted tuple."""
    out = []
    for i, part in enumerate(mu):
        if part < 0 or part > width:
            raise DomainError(f"part {part} does not fit a block of width {width}")
        base = i * width
        out.extend(range(base + 1, base + part + 1))
    return tuple(out)


def epsilon(left, right):
    """Shuffle sign of two index sets: 0 when they intersect, otherwise the
    parity of the number of out-of-order pairs across the two sets."""
    lset, rset = set(left), set(right)
    if len(lset) != len(tuple(left)) or len(rset) != len(tuple(right)):
        raise UsageError("index sets must not repeat elements")
    if lset & rset:
        return 0
    inversions = sum(1 for a in lset for b in rset if a > b)
    return -1 if inversions % 2 else 1


def bump_except(mu, k):
    """Add 1 to every part except the k-th (1-based)."""
    _check_slot(mu, k)
    return tuple(v + (0 if i == k - 1 else 1) for i, v in enumerate(mu))


def successor_slots(mu, k, width):
    """One slot just past each block prefix, skipping block k (1-based):
    position (i-1)*width + mu_i + 1 for every i != k.  Each such slot must
    stay inside its own block."""
    _check_slot(mu, k)
    out = []
    for i, part in enumerate(mu, start=1):
        if i == k:
            continue
        if part + 1 > width:
            raise DomainError(
                f"slot past part {part} escapes a block of width {width}"
            )
        out.append((i - 1) * width + part + 1)
    return tuple(sorted(out))


def color(mu):
    """1-based index of the first maximal part."""
    if not mu:
        raise UsageError("empty composition")
    top = max(mu)
    return mu.index(top) + 1


def partner_slots_colored(mu, width):
    """Successor slots taken relative to the first maximal part."""
    return successor_slots(mu, color(mu), width)


def partner_slots_pinned(mu, k0, width):
    """Successor slots relative to a fixed slot k0, with a corrected choice
    for the concentrated compositions (all weight on a single slot other
    than k0), where the plain successor slots would escape their block."""
    _check_slot(mu, k0)
    weight = sum(mu)
    concentrated_at = None
    if weight > 0:
        nonzero = [i for i, v in enumerate(mu, start=1) if v > 0]
        if len(nonzero) == 1 and nonzero[0] != k0 and mu[nonzero[0] - 1] == weight:
            concentrated_at = nonzero[0]
    if concentrated_at is None:
        return successor_slots(mu, k0, width)
    slots = [(k0 - 1) * width + 2]
    for i in range(1, len(mu) + 1):
        if i not in (k0, concentrated_at):
            slots.append((i - 1) * width + 1)
    if width < 2:
        raise DomainError("pinned partner slots need blocks of width >= 2")
    return tuple(sorted(slots))


def _check_slot(mu, k):
    if not 1 <= k <= len(mu):
        raise UsageError(f"slot {k} out of range for {len(mu)} parts")


def format_composition(mu):
    """Text form "(2,0,0)"."""
    return "(" + ",".join(str(v) for v in mu) + ")"


def format_subset(idx):
    """Text form "{1,3}"."""
    return "{" + ",".join(str(v) for v in idx) + "}"


def partitions_of(weight):
    """All partitions of the given weight as non-increasing tuples (no zero
    padding), descending lex order: (weight,) first, all-ones last."""
    if weight < 0:
        raise UsageError("weight must be non-negative")
    out = []

    def rec(prefix, remaining, largest):
        if remaining == 0:
            out.append(prefix)
            return
        for v in range(min(largest, remaining), 0, -1):
            rec(prefix + (v,), remaining - v, v)

    rec((), weight, weight)
    return out


def partitions_in_box(num_parts, max_part):
    """All partitions fitting a num_parts x max_part box, zero-padded to
    num_parts entries, in descending lex order on the padded tuples."""
    if num_parts < 0 or max_part < 0:
        raise UsageError("box dimensions must be non-negative")
    return list(combinations_with_replacement(range(max_part, -1, -1), num_parts))


def conjugate(lam):
    """Transpose of the Young diagram, as a partition tuple."""
    lam = tuple(v for v in lam if v > 0)
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > j) for j in range(lam[0]))
