"""The numpy random draws a run makes, in pure Python and bit for bit.

``numpy.random.default_rng(entropy)`` is ``Generator(PCG64(SeedSequence(
entropy)))``. A run uses only a few of its draws: k-means++ seeds
(``random`` and ``integers``), the per-restart child seeds
(``SeedSequence.generate_state``) and the holdout split (``permutation``).
This module reproduces exactly those, so that ``run``, ``cluster`` and
``fit`` never import ``numpy.random`` (about 6 MiB in a fresh process), and
so that a manifest re-run keeps its bits whatever numpy version is installed:
NumPy's NEP 19 freezes the bit generators but not the ``Generator`` methods.

The algorithms follow numpy's ``bit_generator.pyx`` (SeedSequence),
``pcg64.h`` (PCG64 XSL-RR 128/64 with its 32-bit half-word buffer) and
``distributions.c`` (``random_standard_uniform``, the buffered Lemire bound
for 32-bit ranges and the mask rejection of ``random_interval`` behind
``shuffle``). Integer ranges here stay below 2**32.
"""

from __future__ import annotations

import functools
import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """The uint32 words SeedSequence assembles from an int (little-endian,
    0 gives one word) or a sequence of ints (their words concatenated)."""
    if isinstance(entropy, (tuple, list)):
        return [w for part in entropy for w in _words(part)]
    value = operator.index(entropy)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


def _pool(entropy) -> list[int]:
    """``SeedSequence(entropy).pool``."""
    words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def generate_state(entropy, n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` as Python ints
    (uint32 words)."""
    pool = _pool(entropy)
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out.append(value ^ (value >> 16))
    return out


@functools.lru_cache(maxsize=4096)
def _seeded(entropy) -> tuple[int, int]:
    """The (state, increment) of ``PCG64(SeedSequence(entropy))``; every
    scope of a run seeds the same restarts, so they are kept."""
    w = generate_state(entropy, 8)
    v = [w[2 * i] | (w[2 * i + 1] << 32) for i in range(4)]  # 4 uint64, little-endian
    inc = (((v[2] << 64) | v[3]) << 1 | 1) & _M128
    state = (inc + ((v[0] << 64) | v[1])) & _M128  # step from 0, add the seed
    return (state * _PCG_MULT + inc) & _M128, inc


class Stream:
    """The draws of ``numpy.random.default_rng(entropy)`` used by a run;
    ``entropy`` is a non-negative int or a tuple of them."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        self._state, self._inc = _seeded(
            tuple(entropy) if isinstance(entropy, (tuple, list)) else operator.index(entropy))
        self._half = None  # the unused upper half of the last 64-bit word

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1) from 53 bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: uniform in [0, n), for 1 <= n < 2**32."""
        if not 1 <= n <= _M32:
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        leftover = m & _M32
        if leftover < n:
            threshold = (_M32 - (n - 1)) % n
            while leftover < threshold:
                m = self._next32() * n
                leftover = m & _M32
        return m >> 32

    def permutation(self, n: int) -> list[int]:
        """``Generator.permutation(n)``: a Fisher-Yates shuffle of range(n)
        from the back, each index drawn by mask rejection; n <= 2**32."""
        if not 0 <= n <= _M32 + 1:
            raise ValueError(f"permutation(n) needs 0 <= n <= 2**32, got {n}")
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
