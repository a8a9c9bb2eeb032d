from __future__ import annotations

import pytest

from haig import SplitMix64


def _reference_randint(stream, n):
    """Rejection sampling with the limit recomputed on every draw."""
    limit = ((1 << 64) // n) * n
    while True:
        x = stream.next_u64()
        if x < limit:
            return x % n


def test_randint_matches_the_uncached_rejection_sampler():
    # Bounds alternate, and 2**63 + 1 rejects about half of all raw draws.
    bounds = [3, 7, 2**63 + 1, 1, 3, 10**18 + 9, 7] * 40
    fast, slow = SplitMix64(2024), SplitMix64(2024)
    assert [fast.randint(n) for n in bounds] == [_reference_randint(slow, n) for n in bounds]
    assert fast.next_u64() == slow.next_u64()


def test_randint_refuses_a_non_positive_bound():
    stream = SplitMix64(0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive bound"):
            stream.randint(n)
    assert stream.randint(5) == SplitMix64(0).randint(5)
