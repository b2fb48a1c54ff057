"""Deterministic random sampling for the numeric verification mode.

The generator is SplitMix64, chosen because it is tiny, portable, and fully
specified by three multiply-xorshift constants, so the same seed gives the
same evaluation points on every platform and Python version.

An evaluation point is carried as the positive rational square roots r_i of
its coordinates x_i = r_i**2, so every half-integer power x_i**(e/2) is the
integer power r_i**e (the orthogonal and symplectic characters take square
roots of the variables).  The admissibility checks reject the degenerate
configurations that would zero a denominator: repeated values, values in
{0, 1, -1}, and pairs multiplying to 1.  On positive rationals they accept
the roots exactly when they accept the squares.
"""

from fractions import Fraction

from .errors import ParameterError, UsageError

MASK64 = (1 << 64) - 1
MAX_RETRIES = 32


def sample_seed(mode, seed):
    """The seed a check samples with and reports: none in symbolic mode,
    and 0 when a numeric caller gives none.  A numeric seed must lie in
    [0, 2^64), where SplitMix64 gives each seed its own stream, so that
    the reported seed names one instance."""
    if mode == "symbolic":
        return None
    if mode != "numeric":
        raise UsageError(f"unknown mode {mode!r}")
    seed = 0 if seed is None else seed
    if not 0 <= seed <= MASK64:
        raise UsageError(f"seed {seed} lies outside [0, 2^64)")
    return seed


class SplitMix64:
    """SplitMix64 pseudo-random generator over 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_below(self, bound):
        """Uniform-ish integer in [0, bound); bound must be positive."""
        if bound <= 0:
            raise ParameterError("bound must be positive")
        return self.next_u64() % bound


def random_rational(rng, bits):
    """Random rational u/v with u, v in [1, 2**bits], u drawn first."""
    top = 1 << bits
    u = rng.next_below(top) + 1
    v = rng.next_below(top) + 1
    return Fraction(u, v)


def point_is_admissible(values):
    """True when all values are distinct, avoid {0, 1, -1}, and no pair
    multiplies to 1."""
    seen = set()
    for x in values:
        if x in (0, 1, -1) or x in seen:
            return False
        seen.add(x)
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] * values[j] == 1:
                return False
    return True


def admissible_draw(draw, admissible, what):
    """The first of up to MAX_RETRIES values of draw() that is admissible;
    ParameterError, naming what was drawn, when none is."""
    for _ in range(MAX_RETRIES):
        value = draw()
        if admissible(value):
            return value
    raise ParameterError(f"no admissible {what} after {MAX_RETRIES} attempts")


def sample_point(num_vars, rng):
    """Admissible tuple of the square roots of num_vars coordinates, as
    32-bit positive rationals."""
    return admissible_draw(
        lambda: tuple(random_rational(rng, 32) for _ in range(num_vars)),
        point_is_admissible,
        "point",
    )


def qt_is_admissible(q, t):
    """True for parameters strictly between 0 and 1 with q != t."""
    return 0 < q < 1 and 0 < t < 1 and q != t


def sample_qt(rng):
    """Admissible (q, t) pair of 16-bit rationals strictly inside (0, 1)."""

    def draw():
        den = rng.next_below((1 << 16) - 1) + 2
        return Fraction(rng.next_below(den - 1) + 1, den)

    # a tuple display evaluates left to right: q is drawn first
    return admissible_draw(lambda: (draw(), draw()), lambda qt: qt_is_admissible(*qt), "(q, t)")
