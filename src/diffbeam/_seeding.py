"""NumPy's seeding, run over a stack of seeds at once.

`numpy.random.SeedSequence` hashes a seed's entropy, a list of uint32
words, into a pool of four words and expands the pool into state words;
`numpy.random.PCG64` keys its 128-bit generator from four such uint64
words. NumPy's stream-compatibility policy (NEP 19) fixes both
algorithms. This copy runs them over a ``(T, words)`` entropy stack in
uint32 arithmetic, so each row gets the words NumPy gives it, and one
reused `PCG64` then replays every seed's stream: ``uniform_windows(seeds,
width, skips)[t]`` is the ``width`` doubles of
``np.random.default_rng(seeds[t])`` after its first ``skips[t]``, bit for
bit (``tests/test_montecarlo.py`` and ``tests/test_geometry.py`` pin both).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an integer: uint32 words, least significant first."""
    if n < 0:
        raise ValueError(f"seed entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``count`` successive
    hashmix steps, each shaped (count, 1) to broadcast over a stack, read-only."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    table = np.array(constants, dtype=np.uint32)[:, None]
    table.setflags(write=False)
    return table[:-1], table[1:]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` of each row of a ``(T, words)`` uint32
    stack, as a (4, T) pool.

    Words past the stack's width count as zeros, as they do in NumPy, so
    rows of up to four words may be padded with zeros; longer entropy must
    have exactly its own width. NumPy mixes one pool word at a time; the
    words one source word mixes into are independent of each other, so
    each source's steps run as one.
    """
    trials, width = entropy.shape
    extra = max(0, width - _POOL_SIZE)
    before, after = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, trials), dtype=np.uint32)
    pool[: width] = entropy.T[:_POOL_SIZE]
    pool = _hashmix(pool, before[:4], after[:4])
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], before[steps], after[steps]))
    for src in range(extra):
        steps = slice(16 + 4 * src, 20 + 4 * src)
        pool = _mix(pool, _hashmix(entropy[:, _POOL_SIZE + src], before[steps], after[steps]))
    return pool


def _generate_state64(pool: np.ndarray, count: int) -> np.ndarray:
    """SeedSequence's ``generate_state(count, np.uint64)`` per pool column, shape (T, count)."""
    before, after = _hash_constants(_INIT_B, _MULT_B, 2 * count)
    halves = _hashmix(pool[np.arange(2 * count) % _POOL_SIZE], before, after).astype(np.uint64)
    return (halves[0::2] | (halves[1::2] << np.uint64(32))).T


def trial_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(1, np.uint64)[0]`` for
    ``i`` in ``range(start, stop)``, as uint64.

    Every index is one uint32 word, so ``start`` must be non-negative and
    ``stop`` at most 2**32.
    """
    if start < 0 or stop > 1 << 32:
        raise ValueError(
            f"trial indices must run from 0 to 2**32 - 1, got range({start}, {stop})"
        )
    head = _words(master_seed)
    entropy = np.empty((max(0, stop - start), len(head) + 1), dtype=np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head)] = np.arange(start, stop)
    return _generate_state64(_pool(entropy), 1)[:, 0]


def seed_array(seeds) -> np.ndarray:
    """``seeds``, non-negative integers, as a uint64 array, or as an array
    of Python ints where one lies past 2**64 - 1."""
    try:
        return np.asarray(seeds, dtype=np.uint64)
    except OverflowError:
        return np.array([operator.index(seed) for seed in seeds], dtype=object)


def uniform_windows(seeds, width: int, skips: np.ndarray) -> np.ndarray:
    """For each seed of a `seed_array`, the ``width`` doubles of
    ``np.random.default_rng(seed)`` after its first ``skips[t]``, shape
    (T, width). Each double is one 64-bit `PCG64` draw, so `PCG64.advance`
    skips exactly."""
    seeds = seed_array(seeds)
    if seeds.dtype == object:
        # a seed past 2**64 - 1 is three or more words, and entropy wider
        # than the pool is hashed at its own width, one seed at a time
        keys = [_generate_state64(_pool(np.array([_words(seed)], dtype=np.uint32)), 4)[0].tolist()
                for seed in seeds.tolist()]
    else:
        # a seed below 2**32 is one word, the zero second word is NumPy's padding
        entropy = np.stack([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)], axis=1)
        keys = _generate_state64(_pool(entropy.astype(np.uint32)), 4).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    out = np.empty((seeds.size, width))
    for row, (s_high, s_low, i_high, i_low), skip in zip(out, keys, skips.tolist()):
        # PCG64's srandom: inc from the stream key, two steps around adding the state key
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG_MULTIPLIER + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if skip:
            bit_generator.advance(skip)
        generator.random(out=row)
    return out
