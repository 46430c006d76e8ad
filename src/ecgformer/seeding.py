"""NumPy's `SeedSequence` and `PCG64` seeding, for many seeds at once.

`np.random.default_rng(np.random.SeedSequence(parts))` hashes the integer
parts into a pool of four 32-bit words, expands the pool into PCG64's 128-bit
state and increment, and builds a new generator around them. This module
computes the same words for a whole array of part rows with uint32 array
arithmetic, so that a caller can load each row's state into a generator it
keeps (`reseed`) instead of building a new one per draw. The streams are
exactly NumPy's: the tests compare every state with NumPy's own.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentRangeError

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
XSHIFT = 16
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(parts) -> list[int]:
    """The uint32 entropy words NumPy makes of a sequence of non-negative ints:
    each int least significant word first, 0 as one word."""
    words = []
    for part in parts:
        part = int(part)
        if part < 0:
            raise ArgumentRangeError(f"seed parts must be non-negative integers, got {part}")
        words.append(part & MASK32)
        while part > MASK32:
            part >>= 32
            words.append(part & MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 constants of one of SeedSequence's hashes: each is the last times mult."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of values[..., j] with the j-th of len(consts) - 1 consecutive constants."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ (result >> XSHIFT)


def _entropy(rows) -> tuple[np.ndarray, np.ndarray]:
    """The seed words of every row, zero-padded to at least POOL_SIZE columns, and each row's word count."""
    words = [seed_words(row) for row in rows]
    counts = np.array([len(w) for w in words])
    width = max(POOL_SIZE, int(counts.max(initial=0)))
    entropy = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32).reshape(len(words), width)
    return entropy, counts


def _pools(entropy: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SeedSequence's entropy pool of every row of `_entropy`: [rows, POOL_SIZE] uint32.

    NumPy hashes one word at a time; here each hash runs over every row, and
    the hashes that feed independent pool words run as one array operation.
    A row shorter than the pool hashes zeros in its place, as NumPy's zero
    padding does.
    """
    consts = _hash_constants(INIT_A, MULT_A, POOL_SIZE * entropy.shape[1])
    pool = _hashmix(entropy[:, :POOL_SIZE], consts[: POOL_SIZE + 1])
    used = POOL_SIZE
    for src in range(POOL_SIZE):
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src : src + 1], consts[used : used + POOL_SIZE]))
        used += POOL_SIZE - 1
    # Words past the pool mix into every pool word; a row with fewer words keeps its pool.
    for src in range(POOL_SIZE, entropy.shape[1]):
        mixed = _mix(pool, _hashmix(entropy[:, src : src + 1], consts[used : used + POOL_SIZE + 1]))
        pool = np.where((counts > src)[:, None], mixed, pool)
        used += POOL_SIZE
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words)` of every row: [rows, n_words] uint32."""
    return _hashmix(pool[:, np.arange(n_words) % POOL_SIZE], _hash_constants(INIT_B, MULT_B, n_words))


def stable_seeds(rows) -> np.ndarray:
    """`np.random.SeedSequence(row).generate_state(1)[0]` of every row, as uint32."""
    return _generate_state(_pools(*_entropy(rows)), 1)[:, 0]


def pcg64_states(rows) -> list[dict]:
    """`np.random.PCG64(np.random.SeedSequence(row)).state` of every row."""
    return _pcg64_states(_pools(*_entropy(rows)))


def int_seed_states(seeds: np.ndarray) -> list[dict]:
    """`np.random.default_rng(int(s)).bit_generator.state` of every uint32 s."""
    seeds = np.asarray(seeds, dtype=np.uint32)
    entropy = np.zeros((len(seeds), POOL_SIZE), dtype=np.uint32)
    entropy[:, 0] = seeds
    return _pcg64_states(_pools(entropy, np.ones(len(seeds), dtype=np.int64)))


def _pcg64_states(pool: np.ndarray) -> list[dict]:
    """PCG64's state of every pool row: four uint64 words (state high, low, increment
    high, low), then the LCG stepped twice around adding the state, as `pcg64_set_seed` does."""
    words = _generate_state(pool, 8).astype(np.uint64)
    halves = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in halves:
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * PCG64_MULT + inc) & MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def reseed(generator: np.random.Generator, state: dict) -> np.random.Generator:
    """Load a `pcg64_states` state into a PCG64 generator; it then draws the stream a new one would."""
    generator.bit_generator.state = state
    return generator
