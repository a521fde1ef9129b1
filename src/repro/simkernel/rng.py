"""Lock-free splittable random number generation.

The ATS paper (section 3.1.1) reports that the original ``do_work``
implementation used the libc ``rand()``, whose thread-safe variant
serializes parallel work through a hidden lock.  ATS therefore switched
to "our own simple (but efficient, while lock-free) parallel random
generator".  This module is the Python equivalent: a per-stream 64-bit
linear congruential generator with a cheap deterministic ``spawn`` so
every simulated process/thread owns an independent stream and never
shares mutable state.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
# Knuth MMIX LCG constants.
_MULT = 6364136223846793005
_INC = 1442695040888963407
# SplitMix64 constants, used to decorrelate derived seeds.
_SM_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SM_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(parent_seed: int, index: int) -> int:
    """An independent child *seed* from a parent seed and an index.

    The integer equivalent of :meth:`Lcg64.spawn`: the child seed is
    splitmix-decorrelated from both the parent and every sibling, so
    sweep frameworks that must hand out plain ``int`` seeds (campaign
    cells, robustness cells, synthesized scenarios) never fall back to
    low-entropy ``seed + i`` arithmetic.  ``Lcg64(derive_seed(p, i))``
    draws the same stream as ``Lcg64(p).spawn(i)``.
    """
    return _splitmix64((parent_seed & _MASK64) ^ _splitmix64(index))


class Lcg64:
    """A small, fast, lock-free PRNG stream.

    Each instance is completely independent mutable state, so any number
    of simulated threads may draw numbers concurrently without
    serialization -- the property the ATS authors needed for
    ``par_do_omp_work``.
    """

    __slots__ = ("_state", "seed")

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK64
        # Run the seed through splitmix so that small consecutive seeds
        # (0, 1, 2, ...) still yield uncorrelated streams.
        self._state = _splitmix64(self.seed)

    def next_u64(self) -> int:
        """Advance the stream and return a 64-bit unsigned integer."""
        self._state = (self._state * _MULT + _INC) & _MASK64
        return self._state

    def random(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)``."""
        # Use the top 53 bits; LCG low bits have short periods.
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Return an integer uniformly distributed in ``[0, n)``."""
        if n <= 0:
            raise ValueError("randrange() argument must be positive")
        return self.next_u64() % n

    def uniform(self, lo: float, hi: float) -> float:
        """Return a float uniformly distributed in ``[lo, hi)``."""
        return lo + (hi - lo) * self.random()

    def spawn(self, index: int) -> "Lcg64":
        """Derive an independent child stream.

        Deterministic: the same parent seed and index always produce the
        same child stream, which keeps whole simulations reproducible.
        """
        return Lcg64(_splitmix64(self.seed ^ _splitmix64(index)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lcg64(seed={self.seed:#x})"
