"""Deterministic random stream used wherever the package needs randomness.

Everything random in this package (scenario generation, observation
sampling, randomized policies, sampled verification) draws from SplitMix64,
a tiny named algorithm with a published reference implementation.  Using a
fixed, self-contained generator keeps documents and traces byte-identical
across platforms, interpreter versions, and reimplementations in other
languages.

Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
generators" (the java.util.SplittableRandom mixing constants).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit SplitMix64 stream seeded with an arbitrary integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._limits: dict[int, int] = {}  # randint's rejection limit per bound

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        x = self._state
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
        return x ^ (x >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, so unbiased."""
        limit = self._limits.get(n)
        if limit is None:
            if n <= 0:
                raise ValueError(f"randint needs a positive bound, got {n}")
            limit = self._limits[n] = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]
