"""The benchmark's workloads: fixed lists of `compdet verify` checks.

Each check is the argument list a user would type after `compdet verify`;
the runner appends `--seed` and `--out`.  The check string is also the key
of the check's entry in golden.json.  NOTES.md says why each workload
holds what it holds.
"""

WORKLOADS = {
    # Every identity that has a symbolic mode, at its envelope edge.
    # Rendering and hashing of large polynomials dominate, plus multi-term
    # products in the term kernel.
    "symbolic-grid": (
        "main --s 2 --n 3",
        "main --s 3 --n 2",
        "main --s 1 --n 8",
        "main --s 8 --n 1",
        "gram --s 2 --n 3",
        "gram --s 3 --n 2",
        "gram --s 2 --n 3 --k 1",
        "gram --s 3 --n 2 --k 1",
        "sylvester --s 4 --n 2",
        "sylvester --s 4 --n 3",
        "denominators --n 5",
        "denominators --n 6",
    ),
    # Compound identities at sampled rational points: polynomial Bareiss on
    # 0-variable polynomials with huge rationals, gcd-bound, little rendering.
    "numeric-compound": (
        "main --mode numeric --s 4 --n 3",
        "main --mode numeric --s 3 --n 4",
        "main --mode numeric --s 5 --n 3",
        "gram --mode numeric --s 4 --n 3",
        "sylvester --mode numeric --s 6 --n 3",
    ),
    # Character grids: plain-Fraction Bareiss, character values and the
    # macdonald basis, no multi-term polynomials.  `prop12 sp (6,3)` hits the
    # int-to-str digit limit and stays in so the crash is counted, not hidden.
    "numeric-characters": (
        "schur-det --family gl --s 3 --n 3 --mode numeric",
        "schur-det --family sp --s 3 --n 3 --mode numeric",
        "schur-det --family odd-orth --s 3 --n 3 --mode numeric",
        "schur-det --family even-orth --s 3 --n 3 --mode numeric",
        "prop12 --family gl --s 6 --n 3",
        "prop12 --family sp --s 6 --n 2",
        "prop12 --family sp --s 6 --n 3",
        "macdonald --s 3 --n 3",
        "macdonald --s 4 --n 2",
        "macdonald --s 5 --n 2",
    ),
}
