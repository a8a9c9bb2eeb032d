"""Deterministic random stream used wherever the package needs randomness.

Everything random in this package (scenario generation, observation
sampling, randomized policies) draws from SplitMix64, a tiny named
algorithm with a published reference implementation.  Using a fixed,
self-contained generator keeps documents and traces byte-identical across
platforms, interpreter versions, and reimplementations in other languages.

SplitMix64 is counter-based: output k (from 1) of the stream seeded with s
is ``mix(s + k * GOLDEN mod 2**64)``.  ``splitmix_block`` computes any run
of outputs at once, in wrapping numpy ``uint64`` arithmetic; the stream
takes its next ``_BLOCK`` outputs from it and each draw takes the next one.
The outputs are bit-identical to the scalar definition, one state advance
and one mix per draw.  Since the stream seeded with ``counter`` continues
any stream at that counter, a caller may read draws off the counter in
bulk and resume the scalar calls anywhere, at the counter ``advance``
gives; ``randint_block`` takes a run of ``randint`` draws that way.

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


def advance(counter: int, draws: int) -> int:
    """The counter ``draws`` outputs on from ``counter``: ``SplitMix64(advance(counter, n))`` skips ``n`` outputs."""
    return (counter + draws * _GOLDEN) & _MASK64


def splitmix_block(counter: int, count: int) -> np.ndarray:
    """Outputs 1 to ``count`` of the stream at ``counter``, in stream order, as ``uint64``."""
    x = np.arange(1, count + 1, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)  # array arithmetic wraps silently
    x += np.uint64(counter & _MASK64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def rejection_limit(n: int) -> int:
    """``randint(n)`` keeps a raw draw below this limit, the largest multiple of ``n`` up to ``2**64``."""
    if n <= 0:
        raise ValueError(f"randint needs a positive bound, got {n}")
    return ((1 << 64) // n) * n


def randint_block(counter: int, n: int, count: int) -> tuple[np.ndarray, int]:
    """The next ``count`` draws of ``randint(n)`` at ``counter``, as ``uint64``, and the counter after them.

    The raw draws below ``rejection_limit(n)`` are kept in stream order, and
    the shortfall that rejected ones leave is drawn after them until
    ``count`` are kept, so the draws and the counter are the ones ``count``
    scalar calls give.  Every operand is ``uint64``, as in ``splitmix_block``.
    """
    largest = np.uint64(rejection_limit(n) - 1)
    kept, got = [np.empty(0, dtype=np.uint64)], 0
    while got < count:
        raw = splitmix_block(counter, count - got)
        counter = advance(counter, count - got)
        kept.append(raw[raw <= largest])
        got += len(kept[-1])
    return np.concatenate(kept) % np.uint64(n), counter


class SplitMix64:
    """64-bit SplitMix64 stream seeded with an arbitrary integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the counter of the last output computed
        self._pending: list[int] = []  # computed outputs, the next one last
        self._limits: dict[int, int] = {}  # randint's rejection limit per bound

    @property
    def counter(self) -> int:
        """The counter of the last output taken: ``SplitMix64(counter)`` continues this stream."""
        return advance(self._state, -len(self._pending))

    def _refill(self) -> int:
        """Compute the next ``_BLOCK`` outputs into the empty pending list; take the first."""
        self._pending += splitmix_block(self._state, _BLOCK)[::-1].tolist()
        self._state = advance(self._state, _BLOCK)
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
            limit = self._limits[n] = rejection_limit(n)
        pending = self._pending
        while True:
            try:
                x = pending.pop()
            except IndexError:
                x = self._refill()
            if x < limit:
                return x % n
