"""Counter-based substreams keyed by (seed, trajectory, purpose).

Every random draw in the package comes from a Philox generator derived from
the run seed plus a spawn key, so Brownian increments, jump events, stream
extensions and auxiliary draws never share or interleave state.  Two runs
that agree on (seed, trajectory index, purpose) consume identical streams,
which is what the cross-truncation coupling tests rely on.

A Philox stream is fixed by its key (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so a block of trajectories needs no
generator of its own per row.  ``philox_keys`` derives the keys of a whole
block at once, equal word for word to ``SeedSequence(seed, spawn_key=(traj,
purpose, *extra)).generate_state(2, uint64)``: the seed's part of
``SeedSequence``'s hash is mixed once per seed in Python ints, and each
spawn word over a (4, n) uint32 array, since the four pool words take it in
independently (an index of two words asks ``SeedSequence``).
``KeyedGenerator`` is one ``Philox`` and ``Generator`` that
a row borrows by setting its key with a zero counter and an empty buffer,
which draws exactly what ``substream`` would.
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigError

POISSON = 0
BROWNIAN = 1
EXTEND = 2
AUX = 3

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_POOL = 4


def substream(seed, traj, purpose, *extra):
    """Return a fresh Generator for one (trajectory, purpose) substream."""
    key = (int(traj), int(purpose)) + tuple(int(e) for e in extra)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _words(value):
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


@lru_cache(maxsize=64)
def _hashes(init, mult, n):
    """The first n hash constants init * mult ** k (mod 2 ** 32)."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


def _hashmix(value, k):
    """SeedSequence's k-th ``hashmix`` call on value."""
    a = _hashes(_INIT_A, _MULT_A, k + 2)
    value = (value ^ a[k]) * a[k + 1] & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


_B = _hashes(_INIT_B, _MULT_B, _POOL + 1)
# generate_state's output hash of the four pool words
_OUT_X = np.array(_B[:_POOL], dtype=np.uint32)[:, None]
_OUT_M = np.array(_B[1:], dtype=np.uint32)[:, None]
# 0-d operands keep the uint32 array arithmetic in uint32
_L, _R = np.array(_MIX_L, dtype=np.uint32), np.array(_MIX_R, dtype=np.uint32)
_SHIFT, _HALF = np.array(16, dtype=np.uint32), np.array(32, dtype=np.uint64)


def _absorb(pool, k, words):
    """The pool after taking in words from hashmix call k on, and the next call."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, k))
            k += 1
    return pool, k


@lru_cache(maxsize=16)
def _seed_pool(seed):
    """The pool after the run seed's words, and the hashmix calls that took.

    Mirrors ``SeedSequence.mix_entropy`` for a non-empty spawn key: the
    seed's words padded to the pool size, the cross-mix, then any seed
    words past the pool.
    """
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    pool = [_hashmix(w, k) for k, w in enumerate(words[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    pool, k = _absorb(pool, k, words[_POOL:])
    return tuple(pool), k


@lru_cache(maxsize=64)
def _hash_columns(k):
    """The xor and multiply columns, (4, 1) uint32 each, of the hashmix calls
    k .. k + 3, which take one spawn word into the four pool words."""
    a = _hashes(_INIT_A, _MULT_A, k + _POOL + 1)
    return (np.array(a[k:k + _POOL], dtype=np.uint32)[:, None],
            np.array(a[k + 1:], dtype=np.uint32)[:, None])


@lru_cache(maxsize=64)
def _fixed_word(k, word):
    """``_MIX_R * hashmix(word)`` of the calls k .. k + 3, as a (4, 1) uint32 column."""
    return np.array([_MIX_R * _hashmix(word, k + i) & _M32 for i in range(_POOL)],
                    dtype=np.uint32)[:, None]


def _mix_keys(pool, k, first, tail):
    """Keys of the rows whose first spawn word is ``first`` ((n,) uint32),
    then the fixed words ``tail``, with the pool words as (4, n) arrays."""
    mixer = np.empty((_POOL, first.size), dtype=np.uint32)
    mixer[:] = np.array(pool, dtype=np.uint32)[:, None]
    ax, am = _hash_columns(k)
    h = first ^ ax
    h *= am
    h ^= h >> _SHIFT
    h *= _R
    mixer *= _L
    mixer -= h
    mixer ^= mixer >> _SHIFT
    for w in tail:
        k += _POOL
        mixer *= _L
        mixer -= _fixed_word(k, w)
        mixer ^= mixer >> _SHIFT
    mixer ^= _OUT_X
    mixer *= _OUT_M
    mixer ^= mixer >> _SHIFT
    out = mixer.astype(np.uint64)
    out[1::2] <<= _HALF
    return (out[0::2] | out[1::2]).T


def philox_keys(seed, trajs, purpose, *extra):
    """The (n, 2) uint64 Philox keys of ``substream(seed, traj, purpose, *extra)``
    for every traj in ``trajs`` (each in [0, 2 ** 64))."""
    pool, used = _seed_pool(int(seed))
    tail = [w for e in (purpose,) + extra for w in _words(int(e))]
    t = [int(k) for k in trajs]
    if t and not 0 <= min(t) <= max(t) < 2 ** 64:
        raise ConfigError("trajectory indices must lie in [0, 2 ** 64)")
    if t and max(t) <= _M32:
        return _mix_keys(pool, used, np.array(t, dtype=np.uint32), tail)
    # indices of two words shift the later hash calls: they take the
    # definition itself
    spawn = (int(purpose),) + tuple(int(e) for e in extra)
    keys = [np.random.SeedSequence(int(seed), spawn_key=(k,) + spawn).generate_state(2, np.uint64)
            for k in t]
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


class KeyedGenerator:
    """One Philox ``Generator`` shared by many keyed substreams, each begun by ``start``."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        self.bits = self.gen.bit_generator
        self.fresh = self.bits.state  # zero counter, empty buffer; the key is set per row

    def start(self, key):
        """The generator at the start of the substream with this key."""
        self.fresh["state"]["key"] = key
        self.bits.state = self.fresh
        return self.gen
