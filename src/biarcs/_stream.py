"""The package's random stream: the draws of ``np.random.default_rng(seed)``,
bit for bit on Python ints, so no command imports `numpy.random` and no
output moves with the installed numpy, which does not promise to keep its
stream (NEP 19). SeedSequence hashes the seed's 32-bit words into a pool of
four, and the pool into the state and increment of a PCG64 generator
(`_pcg64`), whose 64-bit XSL-RR outputs feed one `Stream` per seed:
- ``random()`` is an output's top 53 bits over 2^53; ``random(size)``, the
  first ``size`` of them, gives a jittered partition's offsets;
- ``integers(n)``, an anneal's junction, takes a 32-bit word, the low half
  of an output whose high half serves the next call, and scales it to
  [0, n) by Lemire's multiply ("Fast Random Integer Generation in an
  Interval", 2019), drawing again while the product's low half lies below
  (2^32 - n) mod n;
- ``normal(scale)``, an anneal's kick, is numpy's ziggurat on numpy's
  tables (`_ziggurat`, decoded on a stream's first normal), one output per
  try: its low byte is the layer, the next bit the sign and the 52 bits
  above it the abscissa.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# the 128-bit LCG multiplier of PCG64 (O'Neill 2014)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _check_seed(seed) -> int:
    """The seed as an int, read through `operator.index`; anything else, or
    a negative seed, is a ValueError that names it."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def _hashmix(const: int, mult: int) -> Callable[[int], int]:
    """numpy SeedSequence's hash of a 32-bit word, whose multiplier starts
    at ``const`` and is multiplied by ``mult`` on every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _pcg64(seed: int) -> Iterator[int]:
    """The 64-bit outputs of ``np.random.default_rng(seed)``'s PCG64."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # SeedSequence's INIT_A and MULT_A, then INIT_B and MULT_B below
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    # every pool word into every other, then each word past the fourth
    # into every pool word
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    half = [hashmix(pool[i % 4]) for i in range(8)]
    # eight 32-bit halves make four 64-bit words, low half first; the state
    # and the sequence each take two, high word first
    initstate, initseq = (
        (half[k] | half[k + 1] << 32) << 64 | half[k + 2] | half[k + 3] << 32 for k in (0, 4)
    )
    inc = (initseq << 1 | 1) & _MASK128
    state = (initstate + inc) * _PCG_MULTIPLIER + inc & _MASK128
    while True:
        state = state * _PCG_MULTIPLIER + inc & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (word >> rot | word << (64 - rot)) & _MASK64


class Stream:
    """The draws of ``np.random.default_rng(seed)``, for a non-negative
    integer seed."""

    def __init__(self, seed):
        self._next64 = _pcg64(_check_seed(seed)).__next__
        self._spare = None
        self._tables = None

    def random(self, size=None):
        """``Generator.random()``, or its first ``size`` doubles as a list."""
        values = [(self._next64() >> 11) * 2.0**-53 for _ in range(1 if size is None else size)]
        return values[0] if size is None else values

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 2 <= n < 2^32."""
        threshold = (0x100000000 - n) % n
        while True:
            word = self._spare
            if word is None:
                word = self._next64()
                self._spare, word = word >> 32, word & _MASK32
            else:
                self._spare = None
            m = word * n
            if m & _MASK32 >= threshold:
                return m >> 32

    def normal(self, scale: float = 1.0) -> float:
        """``Generator.normal(0, scale)``: 0 + scale x, x by the ziggurat."""
        if self._tables is None:
            from ._ziggurat import INV_R, TABLES, R

            values = struct.unpack("<256Q512d", bytes.fromhex(TABLES))
            self._tables = values[:256], values[256:512], values[512:], R, INV_R
        ki, wi, fi, r, inv_r = self._tables
        next64, random = self._next64, self.random
        while True:
            bits = next64()
            idx = bits & 0xFF
            rabs = bits >> 9 & 0xFFFFFFFFFFFFF
            x = rabs * wi[idx]
            if bits & 0x100:
                x = -x
            if rabs < ki[idx]:
                break
            if idx == 0:
                # the tail past R, by Marsaglia's exponential rejection
                while True:
                    xx = -inv_r * math.log1p(-random())
                    yy = -math.log1p(-random())
                    if yy + yy > xx * xx:
                        break
                x = -(xx + r) if rabs & 0x100 else xx + r
                break
            if (fi[idx - 1] - fi[idx]) * random() + fi[idx] < math.exp(-0.5 * x * x):
                break
        return 0.0 + scale * x
