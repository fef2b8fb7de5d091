"""Seeded draws equal bit for bit to numpy.random.Generator(PCG64(seed)).

Every sampled suite draws from Stream(seed), so reports still name "PCG64"
as their generator, without importing numpy.random (secrets, hmac, OpenSSL
and bit generators never used here), which costs a command more than all of
its sampling.  Seeding is numpy's SeedSequence.  A raw draw steps PCG64's
128-bit LCG and outputs XSL-RR (O'Neill, "PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014).  The r-step jump of the LCG is state -> JUMP_r*state +
SHIFT_r*inc, and its coefficients do not depend on the seed (Brown, "Random
number generation with arbitrary strides", 1994): tables for r = 1..B are
built at import.  n draws step their ceil(n/B) block starts in Python ints,
then one broadcast multiply-add on uint64 halves gives every state, so a call
takes the same number of array passes whatever n is.  integers is Lemire's
bounded method ("Fast random integer generation in an interval", ACM TOMACS
2019) on numpy's 32-bit words: the low half of a raw draw, then its high half.
"""

from __future__ import annotations

import math

import numpy as np

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hasher(const: int, mult: int):
    """SeedSequence's hash of 32-bit words; its constant advances with every call."""
    def hash_word(value: int) -> int:
        nonlocal const
        const, value = const * mult & M32, value ^ const
        value = value * const & M32
        return value ^ value >> 16

    return hash_word


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(8, uint32) as ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> 32 * i & M32 for i in range(max(1, (seed.bit_length() + 31) // 32))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = 0xCA01F9DD * x - 0x4973F715 * hashmix(y) & M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], word)
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    return [out(pool[i % 4]) for i in range(8)]


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 halves of 128-bit ints."""
    return np.array([v >> 64 for v in values], np.uint64), np.array([v & M64 for v in values], np.uint64)


def _mulhi(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """High 64 bits of x*c for broadcast uint64 arrays, on 32-bit limbs."""
    x0, x1, c0, c1 = x & M32, x >> 32, c & M32, c >> 32
    hi = x0 * c0
    hi >>= 32
    mid = x1 * c0
    mid += hi
    np.multiply(x0, c1, out=hi)
    hi += mid & M32
    hi >>= 32
    mid >>= 32
    hi += mid
    np.multiply(x1, c1, out=mid)
    hi += mid
    return hi


B = 64  # draws per block of the jump tables
# state k+r = JUMP[r-1] * state k + SHIFT[r-1] * inc (mod 2**128), r = 1..B
JUMP, SHIFT = [MULT], [1]
for _ in range(B - 1):
    JUMP.append(JUMP[-1] * MULT & M128)
    SHIFT.append((SHIFT[-1] * MULT + 1) & M128)
JUMP_HI, JUMP_LO = _halves(JUMP)


class Stream:
    """One seeded PCG64 stream; every draw advances it as numpy's would."""

    def __init__(self, seed: int) -> None:
        w = [lo | hi << 32 for lo, hi in zip(*[iter(_seed_words(seed))] * 2)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & M128
        self.state = ((self.inc + (w[0] << 64 | w[1])) * MULT + self.inc) & M128
        self.pending: int | None = None  # high half of the last raw draw, not yet used
        self.shift_hi, self.shift_lo = _halves([c * self.inc & M128 for c in SHIFT])

    def _raw(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs."""
        start, jump, shift = self.state, JUMP[-1], SHIFT[-1] * self.inc & M128
        starts = [start]  # the state before each block of B draws
        for _ in range(1, -(-n // B)):
            start = (start * jump + shift) & M128
            starts.append(start)
        # row q, column r - 1: JUMP[r-1] * starts[q] + SHIFT[r-1] * inc as hi:lo
        t_hi, t_lo = (half[:, None] for half in _halves(starts))
        hi = _mulhi(t_lo, JUMP_LO)
        lo = t_lo * JUMP_HI
        hi += lo
        np.multiply(t_hi, JUMP_LO, out=lo)
        hi += lo
        hi += self.shift_hi
        np.multiply(t_lo, JUMP_LO, out=lo)
        lo += self.shift_lo
        hi += lo < self.shift_lo
        hi, lo = hi.ravel()[:n], lo.ravel()[:n]
        if n:
            self.state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (64 - rot & 63)

    def uniform(self, low, high, size=None):
        """Floats low + (high - low) * u; low and high may be per-column arrays."""
        low = np.asarray(low, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.asarray(high, dtype=float) - low
        if not np.isfinite(span).all():
            raise OverflowError("Range exceeds valid bounds")
        if (span < 0).any():
            raise ValueError("high - low < 0")
        shape = span.shape if size is None else tuple(np.atleast_1d(size))
        return low + span * ((self._raw(math.prod(shape)) >> 11).reshape(shape) * 2.0**-53)

    def integers(self, low: int, high: int, size=None):
        """int64 values in [low, high), at most 2**32 of them."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError("integers draws from 1 to 2**32 values")
        shape = () if size is None else tuple(np.atleast_1d(size))
        n = math.prod(shape)
        accepted = np.zeros(0 if span > 1 else n, np.uint64)
        while len(accepted) < n:  # a rejected word is skipped, as numpy's loop skips it
            need, head = n - len(accepted), [] if self.pending is None else [self.pending]
            raw = self._raw((need - len(head) + 1) // 2)  # each gives its low, then high half
            halves = np.stack([raw & M32, raw >> 32], 1).ravel()
            words = np.concatenate([np.array(head, np.uint64), halves])
            self.pending = int(words[-1]) if len(words) > need else None
            m = words[:need] * np.uint64(span)
            accepted = np.concatenate([accepted, m[m & M32 >= (1 << 32) % span] >> 32])
        return (accepted.astype(np.int64) + low).reshape(shape)
