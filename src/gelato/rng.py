"""Deterministic counter-based randomness (SplitMix64).

Every stochastic choice in this package (edge splits, negative sampling,
parameter initialization, dropout masks) is drawn from the generator
defined in this module, so that identical seeds reproduce identical
results bit-for-bit on any platform and in any reimplementation. The
split and checkpoint file formats reference this definition.

Generator definition
--------------------
All arithmetic is modulo 2**64. With ``GOLDEN = 0x9E3779B97F4A7C15``:

    output(seed, i) = mix64(seed + (i + 1) * GOLDEN)        for i = 0, 1, ...

where ``mix64`` is the SplitMix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Derived quantities:

* uniform double in [0, 1):  ``(output >> 11) * 2.0**-53``
* integer below n:           ``output % n`` (modulo bias < n * 2**-64,
  negligible for any n used here and exactly reproducible)
* permutation of m items:    stable argsort of the first m outputs
  (collisions are ~2**-33 likely at m = 10**6 and resolved stably)

Child streams are namespaced with ``derive(seed, *words)`` as documented
on that function. ``Stream.at(i)`` reads from output i on: the same words
as a sequential read there, so a long read can be made in pieces.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer on a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def derive(seed: int, *words: int) -> int:
    """Derive a child seed from a parent seed and integer namespace words.

    Defined as repeated ``seed = mix64(seed + GOLDEN + mix64(word))`` over
    the words, in order. Used to key independent streams (per epoch, per
    batch, ...) off one user-facing seed.
    """
    h = seed & _MASK
    for w in words:
        h = mix64((h + GOLDEN + mix64(w)) & _MASK)
    return h


class Stream:
    """Sequential view over the counter-based stream for one seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._next = 0

    def at(self, position: int) -> "Stream":
        """A new Stream of this seed whose next output is `position`'s."""
        view = Stream(self.seed)
        view._next = position
        return view

    def u64(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit outputs."""
        idx = np.arange(self._next + 1, self._next + count + 1, dtype=np.uint64)
        self._next += count
        return mix64_array(np.uint64(self.seed) + idx * np.uint64(GOLDEN))

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` doubles in [0, 1)."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def below(self, n: int, count: int) -> np.ndarray:
        """Next `count` integers in [0, n) via modulo reduction."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.u64(count) % np.uint64(n)).astype(np.int64)

    def permutation(self, m: int) -> np.ndarray:
        """Uniform permutation of range(m): stable argsort of m outputs."""
        return np.argsort(self.u64(m), kind="stable")


def counter_words(key: int, counters: np.ndarray) -> np.ndarray:
    """The 53-bit words ``output >> 11`` (uint64) at explicit counter
    positions of the `key` stream; ``word * 2.0**-53`` is Stream.uniforms
    there. Dropout masks keep the units whose uniform is >= rate, found
    exactly as word >= ceil(rate * 2**53) (rate * 2**53 is exact)."""
    c = counters.astype(np.uint64) + np.uint64(1)
    vals = mix64_array(np.uint64(key & _MASK) + c * np.uint64(GOLDEN))
    return vals >> np.uint64(11)
