"""The combinatorial lemmas behind the compound identities, as tests check them.

No verifier calls these maps; criterion 10 and the unit tests check the
statements they encode against the package's own maps:

* dominated_except: the dominance test, off one slot, that decides which
  pairings <V_lam, Vbar_(partner mu)> vanish;
* dominance_leq: the dominance order the macdonald basis is triangular in;
* partition_to_rowset: the map taking box partitions in descending lex
  order to row sets in ascending lex order;
* vec_V: the minor vector det A^I_J over the row sets I of a spec, the
  column of the compound matrix at J;
* laplace_pair: the inner product of a minor vector with a complementary
  one, which the Laplace expansion evaluates.
"""

from compdet.combin import _check_slot
from compdet.compound import vec_Vbar
from compdet.errors import DomainError, UsageError
from compdet.pmatrix import minor_table, products


def dominated_except(lam, mu, k):
    """True when lam_i <= mu_i at every position except the k-th (1-based),
    where anything is allowed."""
    _check_slot(mu, k)
    if len(lam) != len(mu):
        raise UsageError("compositions must have the same number of parts")
    return all(a <= b for i, (a, b) in enumerate(zip(lam, mu)) if i != k - 1)


def dominance_leq(lam, mu):
    """Dominance comparison of two partitions of the same weight: every
    prefix sum of lam is at most the matching prefix sum of mu."""
    if sum(lam) != sum(mu):
        return False
    width = max(len(lam), len(mu))
    acc_l = acc_m = 0
    for i in range(width):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l > acc_m:
            return False
    return True


def partition_to_rowset(lam, shift, num_parts):
    """Strictly increasing subset {shift + i - 1 - lam_i : i = 1..num_parts}
    built from a padded partition; the map reverses nothing, so descending
    lex order on partitions becomes ascending lex order on subsets."""
    lam = tuple(lam) + (0,) * (num_parts - len(lam))
    if len(lam) != num_parts:
        raise UsageError("partition has too many parts for the rowset")
    out = tuple(shift + i - lam[i] for i in range(num_parts))
    if any(v < 1 for v in out) or any(
        out[i] >= out[i + 1] for i in range(num_parts - 1)
    ):
        raise DomainError("partition does not fit the box for this rowset")
    return out


def vec_V(spec, J):
    """Vector of n x n minors det A^I_J over all row sets I in lex order."""
    J = tuple(J)
    if len(J) != spec.n:
        raise UsageError(f"column set must have {spec.n} elements")
    table = minor_table(spec.A, J)
    return [table[I] for I in spec.row_sets]


def laplace_pair(spec, J, K):
    """Inner product <V_J, Vbar_K>; by the Laplace expansion it equals
    epsilon(J, K) * det A_(J union K)."""
    return products([vec_V(spec, J)], [vec_Vbar(spec, K)])[0][0]
