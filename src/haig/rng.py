"""Deterministic random stream used wherever the package needs randomness.

Everything random in this package (scenario generation, observation
sampling, randomized policies, sampled verification) draws from SplitMix64,
a tiny named algorithm with a published reference implementation.  Using a
fixed, self-contained generator keeps documents and traces byte-identical
across platforms, interpreter versions, and reimplementations in other
languages.

SplitMix64 is counter-based: output k (from 1) of the stream seeded with s
is ``mix(s + k * GOLDEN mod 2**64)``.  So the stream computes its next
``_BLOCK`` outputs at once, in wrapping numpy ``uint64`` arithmetic, and
each draw takes the next one; the outputs are bit-identical to the scalar
definition, one state advance and one mix per draw.

Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
generators" (the java.util.SplittableRandom mixing constants).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_BLOCK = 256  # outputs computed per refill
# k * GOLDEN mod 2**64 for k = _BLOCK, ..., 1: a block's counter offsets, last output first
_OFFSETS = np.arange(_BLOCK, 0, -1, dtype=np.uint64) * np.uint64(_GOLDEN)


class SplitMix64:
    """64-bit SplitMix64 stream seeded with an arbitrary integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the counter of the last output computed
        self._pending: list[int] = []  # computed outputs, the next one last
        self._limits: dict[int, int] = {}  # randint's rejection limit per bound

    def _refill(self) -> int:
        """Compute the next ``_BLOCK`` outputs into the empty pending list; take the first."""
        x = np.uint64(self._state) + _OFFSETS  # array arithmetic wraps silently
        self._state = (self._state + _BLOCK * _GOLDEN) & _MASK64
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
        self._pending += x.tolist()
        return self._pending.pop()

    def next_u64(self) -> int:
        try:
            return self._pending.pop()
        except IndexError:
            return self._refill()

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
        pending = self._pending
        while True:
            try:
                x = pending.pop()
            except IndexError:
                x = self._refill()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]
