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
purpose, *extra)).generate_state(2, uint64)``: the seed's part of the hash
is numpy's own ``SeedSequence(seed).pool``, and one loop over (4, n) uint32
arrays takes in every spawn word, since the four pool words take each word
in independently (an index of two words asks ``SeedSequence``).
``KeyedGenerator`` is one ``Philox`` and ``Generator`` that a row borrows
by setting its key with a zero counter and an empty buffer, which draws
exactly what ``substream`` would.
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


_B = _hashes(_INIT_B, _MULT_B, _POOL + 1)
# generate_state's output hash of the four pool words
_OUT_X = np.array(_B[:_POOL], dtype=np.uint32)[:, None]
_OUT_M = np.array(_B[1:], dtype=np.uint32)[:, None]
# 0-d operands keep the uint32 array arithmetic in uint32
_L, _R = np.array(_MIX_L, dtype=np.uint32), np.array(_MIX_R, dtype=np.uint32)
_SHIFT, _HALF = np.array(16, dtype=np.uint32), np.array(32, dtype=np.uint64)


@lru_cache(maxsize=64)
def _hash_columns(k):
    """The xor and multiply columns, (4, 1) uint32 each, of the hashmix calls
    k .. k + 3, which take one spawn word into the four pool words."""
    a = _hashes(_INIT_A, _MULT_A, k + _POOL + 1)
    return (np.array(a[k:k + _POOL], dtype=np.uint32)[:, None],
            np.array(a[k + 1:], dtype=np.uint32)[:, None])


def _mix_keys(pool, k, words):
    """The (n, 2) keys once the pool, from hashmix call k on, has taken in
    the spawn ``words`` in order, each an (n,) or 0-d uint32 array."""
    mixer = np.empty((_POOL, words[0].size), dtype=np.uint32)
    mixer[:] = pool[:, None]
    for w in words:
        ax, am = _hash_columns(k)
        h = w ^ ax
        h *= am
        h ^= h >> _SHIFT
        h *= _R
        mixer *= _L
        mixer -= h
        mixer ^= mixer >> _SHIFT
        k += _POOL
    mixer ^= _OUT_X
    mixer *= _OUT_M
    mixer ^= mixer >> _SHIFT
    out = mixer.astype(np.uint64)
    out[1::2] <<= _HALF
    return (out[0::2] | out[1::2]).T


def philox_keys(seed, trajs, purpose, *extra):
    """The (n, 2) uint64 Philox keys of ``substream(seed, traj, purpose, *extra)``
    for every traj in ``trajs`` (each in [0, 2 ** 64))."""
    seed = int(seed)
    t = [int(k) for k in trajs]
    if t and not 0 <= min(t) <= max(t) < 2 ** 64:
        raise ConfigError("trajectory indices must lie in [0, 2 ** 64)")
    spawn = (int(purpose),) + tuple(int(e) for e in extra)
    if t and max(t) <= _M32:
        # the seed's pool took one hashmix call per word of the four it is
        # padded to, 12 for the cross-mix and 4 per word past the four
        used = _POOL * max(len(_words(seed)), _POOL)
        tail = [np.array(w, dtype=np.uint32) for e in spawn for w in _words(e)]
        return _mix_keys(np.random.SeedSequence(seed).pool, used,
                         [np.array(t, dtype=np.uint32)] + tail)
    # indices of two words shift the later hash calls: they take the
    # definition itself
    keys = [np.random.SeedSequence(seed, spawn_key=(k,) + spawn).generate_state(2, np.uint64)
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
