"""numpy's seeded Philox streams, computed for many seeds in one pass.

Trajectory ``n`` of a call draws the uniforms that
``np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))``
returns from ``random()``, ``seed`` being its recorded seed.  Building one
such generator per row costs tens of microseconds, so this module computes
the same bits for every row at once, in numpy integer arithmetic:

* Hashing.  numpy's ``SeedSequence`` reads a non-negative integer as its
  little-endian ``uint32`` words, mixes them into a pool of four words
  (``mix_entropy``) and hashes the pool into output words
  (``generate_state``).  Here each word position is a column over the rows,
  and the products wrap in ``uint32``.  The hash constants advance in Python
  ints and enter each product as one ``np.uint32`` scalar, so no numpy
  scalar product overflows.  Two output words join as ``lo | hi << 32``.
* Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
  3", SC'11).  A generator seeded from a ``SeedSequence`` takes two 64-bit
  output words as its key and starts at counter 0; it increments the counter
  before it encrypts, so block ``b`` of a row is the cipher of counter
  ``b + 1`` under the row's key.  The 64 x 64 -> 128-bit products are built
  from 32-bit halves.  ``random()`` reads the four words of each block in
  order and maps a word ``x`` to ``(x >> 11) * 2**-53``.
* `Streams` holds a window of ``WINDOW_BLOCKS`` blocks per row.  A draw that
  would run past a requested row's window first refills, in one call, every
  requested row within its last block, so the number of calls grows with the
  longest row's draw count, not with the number of rows.  A counter-based
  block depends only on its key and counter, so a row's uniforms depend only
  on its seed and their position.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

PHILOX_ROUNDS = 10
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
BLOCK = 4  # 64-bit words, so uniforms, per Philox block
WINDOW_BLOCKS = 4
WINDOW = BLOCK * WINDOW_BLOCKS

_U32 = np.uint64(32)
_MASK32 = np.uint64(MASK32)
_M = np.array(PHILOX_M, dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _M & _MASK32, _M >> _U32
# the round keys' offsets from the key: r times the Weyl increments, mod 2**64
_BUMPS = np.array(
    [[r * w & (2**64 - 1) for w in PHILOX_W] for r in range(PHILOX_ROUNDS)], dtype=np.uint64
)[:, :, None]


def naturals(values, what: str) -> np.ndarray:
    """``values`` as a flat object array of Python ints, exact at any size;
    anything but a non-negative integer is refused as ``what``."""
    values = np.asarray(values, dtype=object).reshape(-1)
    for value in values:
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValidationError(f"{what} must be a non-negative integer, got {value}")
    return np.array([int(value) for value in values], dtype=object)  # numpy ints would wrap


def _words(values, what: str, columns: int = 1):
    """numpy's little-endian ``uint32`` words of each of the non-negative
    integers ``values`` (``[0]`` for 0) as the rows of a matrix of at least
    ``columns`` columns, zero-padded, and each row's own word count.

    An integer ndarray is checked and split whole, in ``uint64``; anything
    else goes through `naturals`, so Python ints of any size stay exact."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        values = values.reshape(-1)
        if values.dtype.kind == "i" and np.any(values < 0):
            raise ValidationError(f"{what} must be a non-negative integer, got {values[values < 0][0]}")
        values = values.astype(np.uint64)
    else:
        values = naturals(values, what)
    width = max(1, -(-int(values.max(initial=0)).bit_length() // 32))
    words = np.zeros((len(values), max(columns, width)), dtype=np.uint32)
    counts = np.ones(len(values), dtype=np.int64)
    for j in range(width):
        high = values >> (32 * j)
        words[:, j] = (high & MASK32).astype(np.uint32)
        if j:
            counts += high != 0
    return words, counts


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` constants of numpy's hash schedule
    ``init * mult**k mod 2**32``, advanced in Python ints: hash ``k`` XORs in
    constant ``k`` and multiplies by constant ``k + 1``."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, constants: np.ndarray, k: int, count: int) -> np.ndarray:
    """Hashes ``k .. k + count - 1`` of the schedule, of ``value`` broadcast
    against them, as a ``(count, n)`` array."""
    value = (value ^ constants[k : k + count]) * constants[k + 1 : k + count + 1]
    return value ^ (value >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return out ^ (out >> XSHIFT)


def _generate(words: np.ndarray, counts: np.ndarray, n_out: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_out, np.uint64)`` for each row
    of entropy ``words`` with ``counts`` words, as an ``(n, n_out)`` array.

    ``words`` has at least ``POOL_SIZE`` columns: a row of fewer words reads
    as zero-padded to the pool, because numpy hashes a zero for each missing
    pool word.  Each word past the pool is mixed only into the rows that
    have it.  numpy mixes one pool word into each other pool word in turn;
    the source word does not change while it is mixed into the other three,
    so those three hashes run together."""
    extra = words.shape[1] - POOL_SIZE
    constants = _hash_constants(INIT_A, MULT_A, POOL_SIZE**2 + POOL_SIZE * extra)
    words = words.T
    pool = _hashmix(words[:POOL_SIZE], constants, 0, POOL_SIZE)
    k = POOL_SIZE
    for src in range(POOL_SIZE):
        dst = [i for i in range(POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants, k, len(dst)))
        k += len(dst)
    for src in range(extra):
        mixed = _mix(pool, _hashmix(words[POOL_SIZE + src], constants, k, POOL_SIZE))
        pool = np.where(counts > POOL_SIZE + src, mixed, pool)
        k += POOL_SIZE
    n_words = 2 * n_out
    constants = _hash_constants(INIT_B, MULT_B, n_words)
    out = _hashmix(pool[np.arange(n_words) % POOL_SIZE], constants, 0, n_words).astype(np.uint64)
    return (out[0::2] | out[1::2] << _U32).T


def spawned_seeds(master_seed: int, indices) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(i,)).generate_state(1,
    np.uint64)[0]`` for each ``i`` of ``indices``."""
    head, _ = _words([master_seed], "seed", POOL_SIZE)
    index, counts = _words(indices, "trajectory index")
    words = np.concatenate([np.repeat(head, len(index), axis=0), index], axis=1)
    return _generate(words, counts + head.shape[1], 1)[:, 0]


def philox_keys(seeds: Sequence[int]) -> np.ndarray:
    """The ``(n, 2)`` keys of ``np.random.Philox(np.random.SeedSequence(s))``
    for each seed ``s``."""
    return _generate(*_words(seeds, "seed", POOL_SIZE), 2)


def _mulhilo(a: np.ndarray):
    """High and low 64-bit words of the products ``a * _M``, elementwise,
    from the 32-bit halves of ``a`` and ``_M``."""
    a_lo, a_hi = a & _MASK32, a >> _U32
    mid = a_hi * _M_LO + ((a_lo * _M_LO) >> _U32)
    mid_lo = (mid & _MASK32) + a_lo * _M_HI
    return a_hi * _M_HI + (mid >> _U32) + (mid_lo >> _U32), a * _M


def philox_blocks(schedule: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks, ``(4, *counters.shape)``, of the 64-bit
    ``counters`` (the other three counter words 0) under round keys
    ``schedule``, ``(PHILOX_ROUNDS, 2, ...)`` broadcasting against them.

    The state is held as its even words ``(c0, c2)``, which a round
    multiplies, and its odd words ``(c1, c3)``; a round maps them to
    ``(hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1)`` and ``(lo1, lo0)``."""
    even = np.zeros((2,) + counters.shape, dtype=np.uint64)
    even[0] = counters
    odd = np.zeros_like(even)
    for key in schedule:
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even, odd], axis=1).reshape((4,) + counters.shape)


class Streams:
    """The uniform streams of numpy's
    ``Generator(Philox(SeedSequence(seed))).random()`` for each of ``seeds``,
    drawn row by row."""

    def __init__(self, seeds: Sequence[int]):
        keys = philox_keys(seeds)
        n = len(keys)
        self.schedule = keys.T + _BUMPS  # (PHILOX_ROUNDS, 2, n) round keys
        self.window = np.empty((n, WINDOW))
        # The window of row r holds blocks first[r] ..; pos[r] is its next
        # unread uniform.  Every window starts spent, before block 0.
        self.first = np.full(n, -WINDOW_BLOCKS)
        self.pos = np.full(n, WINDOW)

    def take(self, rows: np.ndarray, count: int = 1) -> np.ndarray:
        """The next ``count <= BLOCK`` uniforms of each of ``rows`` (distinct
        row indices), as a ``(len(rows), count)`` array."""
        pos = self.pos[rows]
        if np.any(pos + count > WINDOW):
            self._refill(rows[pos > WINDOW - BLOCK])
            pos = self.pos[rows]
        self.pos[rows] = pos + count
        return self.window[rows[:, None], pos[:, None] + np.arange(count)]

    def _refill(self, rows: np.ndarray) -> None:
        """Move each row's window past its fully read blocks."""
        spent = self.pos[rows] // BLOCK
        first = self.first[rows] + spent
        counters = (first[:, None] + np.arange(1, WINDOW_BLOCKS + 1)).astype(np.uint64)
        blocks = philox_blocks(self.schedule[:, :, rows, None], counters)
        words = blocks.transpose(1, 2, 0).reshape(len(rows), WINDOW)
        self.window[rows] = (words >> np.uint64(11)) * 2.0**-53
        self.first[rows] = first
        self.pos[rows] -= BLOCK * spent
