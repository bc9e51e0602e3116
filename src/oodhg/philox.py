"""The Philox4x64-10 stream of numpy's Generator(Philox(seed)), in-package.

make_splits and train draw from PhiloxGenerator; gen keeps numpy.random,
whose standard_normal uses numpy's ziggurat sampler. Importing
numpy.random loads every bit generator and, through secrets and hashlib,
OpenSSL, so owning the stream keeps that out of train, eval, ablate and
sweep. It also pins splits and initial weights against changes to
numpy's Generator methods (NEP 19 allows them).

The stream is bitwise numpy's:
- The key is SeedSequence(seed).generate_state(2, uint64): the seed's
  32-bit words, low first, hashed into a 4-word pool and drawn out again
  (seed_key).
- Block b = 1, 2, ... is Philox4x64-10 (Salmon et al., SC 2011) of the
  counter (b, 0, 0, 0) under that key; its four words follow each other
  in the stream.
- A double is (word >> 11) * 2**-53; uniform(low, high) is
  low + (high - low) * double.
- A 32-bit draw is the low half of a fresh word; the high half is kept
  for the next 32-bit draw, and 64-bit draws skip over it.
- integers draws with Lemire's multiply-shift on 32-bit draws, and a
  rejected draw is redrawn with the same bound.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants (O'Neill's seed_seq_fe, as numpy uses it)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64 round multipliers and the key's Weyl increments
_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)

# blocks per kernel call: one default init_params (3,168 words) is one call
_MIN_BLOCKS = 1024


def _mix(x: int, y: int) -> int:
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ out >> 16


def seed_key(seed: int) -> np.ndarray:
    """SeedSequence(seed).generate_state(2, uint64) for an int seed >= 0."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_b, state = _INIT_B, []
    for value in pool:
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    dtype=np.uint64)


def philox_blocks(key: np.ndarray, first: int, count: int) -> np.ndarray:
    """The words of blocks first, ..., first + count - 1, in stream order.

    A round maps lanes (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ k0,
    lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)). The lanes are kept as two
    (2, count) arrays, the multiplied lanes e and their xor partners o:
    e = (x0, x2) with o = (x3, x1) before even rounds, e = (x2, x0) with
    o = (x1, x3) before odd ones. So a round swaps rows only to take its
    low products as the next partners. Each 64x64 -> 128-bit product is
    built from 32-bit halves, and every constant is a full (2, count)
    array: numpy broadcasts a (2, 1) operand slowly."""
    k0, k1 = (int(k) for k in key)
    rows = []
    for mult in (_MULT, _MULT[::-1]):
        rows += [mult, [m & _MASK32 for m in mult], [m >> 32 for m in mult]]
    for r in range(_ROUNDS):
        kr = ((k0 + r * _WEYL[0]) % 2 ** 64, (k1 + r * _WEYL[1]) % 2 ** 64)
        rows.append(kr[::-1] if r % 2 == 0 else kr)
    const = np.repeat(np.array(rows, dtype=np.uint64)[:, :, None], count,
                      axis=2)
    mult, m_lo, m_hi = const[0:6:3], const[1:6:3], const[2:6:3]
    keys = const[6:]
    e = np.zeros((2, count), dtype=np.uint64)
    e[0] = np.arange(first, first + count, dtype=np.uint64)
    o = np.zeros_like(e)
    lo, t, u, v, h = (np.empty_like(e) for _ in range(5))
    for r in range(_ROUNDS):
        p = r % 2
        np.multiply(e[::-1], mult[1 - p], out=lo)
        # hi = aH bH + (u >> 32) + (v >> 32), where u = aH bL + (aL bL >> 32)
        # and v = aL bH + (u & 0xFFFFFFFF)
        np.bitwise_and(e, _LOW32, out=h)
        np.multiply(h, m_lo[p], out=t)
        np.multiply(h, m_hi[p], out=u)
        np.right_shift(e, _SHIFT32, out=h)
        np.multiply(h, m_lo[p], out=v)
        h *= m_hi[p]
        t >>= _SHIFT32
        u += t
        np.bitwise_and(u, _LOW32, out=t)
        v += t
        u >>= _SHIFT32
        v >>= _SHIFT32
        h += u
        h += v
        np.bitwise_xor(h, o, out=e)
        e ^= keys[r]
        o, lo = lo, o
    # ten rounds: e = (x0, x2) and o = (x3, x1) again
    return np.stack([e[0], o[1], e[1], o[0]], axis=1).ravel()


class PhiloxGenerator:
    """The uniform and integers draws of numpy's Generator(Philox(seed)),
    bit for bit and in the same stream order."""

    def __init__(self, seed: int):
        self._key = seed_key(seed)
        self._blocks = 0        # blocks made so far
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = 0           # next unread index of _words
        self._half = None       # high half kept by the last 32-bit draw

    def _peek(self, n: int) -> np.ndarray:
        """The next n words, made as needed but not consumed."""
        short = self._pos + n - self._words.size
        if short > 0:
            count = max(_MIN_BLOCKS, -(-short // 4))
            self._words = np.concatenate([
                self._words[self._pos:],
                philox_blocks(self._key, self._blocks + 1, count)])
            self._blocks += count
            self._pos = 0
        return self._words[self._pos:self._pos + n]

    def _peek32(self, n: int) -> np.ndarray:
        """The next n 32-bit draws, as uint64, not consumed."""
        kept = [] if self._half is None else [self._half]
        words = self._peek((n - len(kept) + 1) // 2)
        halves = np.stack([words & _MASK32, words >> 32], axis=1).ravel()
        return np.concatenate([np.array(kept, dtype=np.uint64), halves])[:n]

    def _consume32(self, n: int) -> None:
        if n and self._half is not None:
            self._half, n = None, n - 1
        words = self._peek((n + 1) // 2)
        self._pos += words.size
        if n % 2:
            self._half = words[-1] >> 32

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles in [low, high), C order, one word each."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        words = self._peek(n)
        self._pos += n
        u = (words >> 11).astype(np.float64) * 2.0 ** -53
        return (low + (high - low) * u).reshape(shape)

    def integers(self, low, high) -> np.ndarray:
        """int64 draws in [low, high), broadcast elementwise; every
        high - low must lie in 1 .. 2**32. A span of 1 draws nothing."""
        low = np.asarray(low, dtype=np.int64)
        high = np.asarray(high, dtype=np.int64)
        span = np.subtract(high, low)
        if span.size and span.min() < 1:
            raise ValueError("low >= high")
        if span.size and span.max() > 1 << 32:
            raise ValueError("high - low above 2**32 is not supported")
        flat = span.ravel().astype(np.uint64)
        drawn = np.flatnonzero(flat > 1)
        bound = flat[drawn]
        threshold = np.uint64(1 << 32) % bound
        got = np.empty(bound.size, dtype=np.uint64)
        done = 0
        while done < bound.size:
            m = self._peek32(bound.size - done) * bound[done:]
            rejected = np.flatnonzero((m & _MASK32) < threshold[done:])
            take = int(rejected[0]) if rejected.size else m.size
            got[done:done + take] = m[:take] >> 32
            # a rejected draw is used up, and its bound draws again
            self._consume32(take + (rejected.size > 0))
            done += take
        out = np.zeros(span.size, dtype=np.int64)
        out[drawn] = got
        return low + out.reshape(span.shape)
