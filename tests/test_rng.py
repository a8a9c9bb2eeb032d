from __future__ import annotations

import pytest

from haig import SplitMix64
from haig.rng import _BLOCK, rejection_limit, splitmix_block


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


_MASK64 = (1 << 64) - 1


class _ScalarSplitMix64:
    """The scalar definition: one state advance and one mix per output."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        x = self._state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 7, 1234567])
def test_block_stream_matches_the_scalar_definition(seed):
    count = max(1000, 5 * _BLOCK + 3)
    stream, reference = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert [stream.next_u64() for _ in range(count)] == [reference.next_u64() for _ in range(count)]


def test_published_outputs():
    zero, other = SplitMix64(0), SplitMix64(1234567)
    assert [zero.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [other.next_u64() for _ in range(3)] == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_interleaved_draws_match_the_scalar_definition():
    stream, reference = SplitMix64(99), _ScalarSplitMix64(99)
    items = ("a", "b", "c", "d", "e")
    drawn, expected = [], []
    for k in range(3000):  # about 3600 raw draws, many refills
        op = k % 5
        if op == 0:
            drawn.append(stream.uniform())
            expected.append((reference.next_u64() >> 11) * 2.0**-53)
        elif op == 1:
            drawn.append(items[stream.randint(len(items))])
            expected.append(items[_reference_randint(reference, len(items))])
        else:
            n = (3, 2**63 + 1, 10**18 + 9)[op - 2]
            drawn.append(stream.randint(n))
            expected.append(_reference_randint(reference, n))
    assert drawn == expected
    assert stream.next_u64() == reference.next_u64()


def test_rejection_across_a_refill():
    bound = 2**63 + 1  # rejects raw draws from 2**63 + 1 up, about half of them
    reference = _ScalarSplitMix64(7)
    raw = [reference.next_u64() for _ in range(8 * _BLOCK)]
    # a block whose last raw draw is rejected, so randint must refill and draw again
    k = next(k for k in range(1, 8) if raw[k * _BLOCK - 1] >= bound)
    stream = SplitMix64(7)
    for _ in range(k * _BLOCK - 1):
        stream.next_u64()
    accepted = next(i for i in range(k * _BLOCK, len(raw)) if raw[i] < bound)
    assert stream.randint(bound) == raw[accepted] % bound
    assert stream.next_u64() == raw[accepted + 1]


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 7, 1234567])
def test_block_function_continues_the_stream(seed):
    """``splitmix_block`` at a stream's counter gives its next draws, from any point of its pending block."""
    stream = SplitMix64(seed)
    assert list(splitmix_block(stream.counter, 2 * _BLOCK + 5)) == [stream.next_u64() for _ in range(2 * _BLOCK + 5)]
    for taken in (1, _BLOCK - 3, _BLOCK - 1, _BLOCK):  # partly consumed blocks, then a refill boundary
        stream = SplitMix64(seed)
        for _ in range(taken):
            stream.next_u64()
        ahead = splitmix_block(stream.counter, _BLOCK + 10).tolist()
        assert SplitMix64(stream.counter).next_u64() == ahead[0]
        assert [stream.next_u64() for _ in range(_BLOCK + 10)] == ahead


def _unshift(y, k):
    """The x with ``x ^ (x >> k) == y``."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def seed_with_draw(value, index):
    """A seed whose stream draws ``value`` at ``index`` (from 0): the finalizer run backwards."""
    x = _unshift(value, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    x = _unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    x = _unshift(x, 30)
    return (x - (index + 1) * 0x9E3779B97F4A7C15) & _MASK64


def test_randint_skips_a_planted_rejected_draw():
    # 2**64 % 3 == 1, so randint(3) rejects exactly the largest draw
    assert rejection_limit(3) == _MASK64
    for index in (0, 5, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17):
        seed = seed_with_draw(_MASK64, index)
        reference = _ScalarSplitMix64(seed)
        raw = [reference.next_u64() for _ in range(index + 3)]
        assert raw[index] == _MASK64
        stream = SplitMix64(seed)
        for _ in range(index):
            stream.next_u64()
        assert stream.randint(3) == raw[index + 1] % 3
        assert stream.next_u64() == raw[index + 2]
