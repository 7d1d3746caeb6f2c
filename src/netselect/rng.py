"""Portable seeded pseudo-random numbers (SplitMix64).

Scenario generation and Monte-Carlo runs must reproduce bit-identically
across platforms and Python/numpy versions, so they use a fixed published
recurrence instead of library default generators. SplitMix64 (Steele, Lea
& Flood, 2014) advances a 64-bit state by the golden-gamma constant and
mixes it:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Doubles are built from the top 53 bits, giving uniforms in [0, 1).

The recurrence is counter-based: output k (k = 1, 2, ...) of the stream
seeded with s is ``mix(s + k * golden mod 2^64)``. So :func:`stream_uint64`
and :func:`derive_seeds` compute any outputs of many streams at once, as
numpy ``uint64`` arrays (whose arithmetic wraps mod 2^64 like the masks
here), equal bit for bit to the scalar :class:`SplitMix64` and
:func:`derive_seed`, which stay the reference.
"""

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Array constants: uint64 array arithmetic wraps silently, and shifting a
# uint64 array by a plain int promotes to float on numpy 1.x.
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MUL1, _U_MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a uint64 array."""
    z = (z ^ (z >> _U30)) * _U_MUL1
    z = (z ^ (z >> _U27)) * _U_MUL2
    return z ^ (z >> _U31)


def _outputs(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output ``counters`` (1-based, broadcast against ``seeds``) of each seed's stream."""
    return _mix_array(seeds + counters * _U_GOLDEN)


class SplitMix64:
    """Deterministic 64-bit generator; equal seeds give equal streams everywhere."""

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError("seed must be an integer")
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high); returns low when low == high."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + (high - low) * self.random()

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % n


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for the index-th independent stream of a base seed.

    Equals the index-th output of a SplitMix64 stream seeded with
    ``base_seed``: child k depends on the base seed and k alone, so
    children drawn in blocks of any size equal those drawn one by one, and
    a longer run of children extends a shorter one.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix((base_seed + (index + 1) * _GOLDEN) & _MASK)


def derive_seeds(base_seed: int, indices) -> np.ndarray:
    """:func:`derive_seed` of ``base_seed`` for every entry of an index array, as uint64."""
    indices = np.asarray(indices, dtype=np.uint64)
    return _outputs(np.uint64(base_seed & _MASK), indices + np.uint64(1))


def stream_uint64(seeds, count: int) -> np.ndarray:
    """Outputs 1..count of the stream of every seed, shape ``seeds.shape + (count,)``.

    Row ``i`` equals ``count`` calls of ``SplitMix64(seeds[i]).next_uint64()``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _outputs(seeds[..., None], np.arange(1, count + 1, dtype=np.uint64))


def unit_doubles(draws: np.ndarray) -> np.ndarray:
    """:meth:`SplitMix64.random` of each uint64 draw: its top 53 bits as a double in [0, 1)."""
    return (draws >> _U11).astype(np.float64) * 2.0**-53


def randrange_first_draws(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`SplitMix64.randrange` of n from each stream's next draw.

    Returns the integers in [0, n) and a mask that is false where the draw
    was rejected; such a stream needs further draws, which this does not take.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    reject_from = _MASK + 1 - ((_MASK + 1) % n)
    if reject_from > _MASK:  # n is a power of two: no draw is rejected
        accepted = np.ones(draws.shape, dtype=bool)
    else:
        accepted = draws < np.uint64(reject_from)
    return (draws % np.uint64(n)).astype(np.int64), accepted
