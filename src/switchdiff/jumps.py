"""Poisson mark-time streams with cutoff thinning and superposition extension.

A stream holds one realization of a unit-intensity planar Poisson measure
restricted to marks in [0, k_max) and times in [0, horizon): event times form
a rate-k_max Poisson process and marks are i.i.d. Uniform[0, k_max),
independent of the times.  Thinning to a cutoff K <= k_max keeps exactly the
events with mark < K, so every truncation level sees the same underlying
measure -- the device that makes cross-cutoff path equality bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import EXTEND, POISSON, substream


@dataclass(frozen=True)
class JumpStream:
    k_max: float
    horizon: float
    times: np.ndarray
    marks: np.ndarray

    def __len__(self):
        return self.times.size


def sample_stream(k_max, horizon, seed, traj=0):
    """Sample a master stream: Poisson(k_max * horizon) events, uniform marks.

    Events at exactly t = 0 or t = horizon are excluded (half-open window).
    Fully determined by (seed, traj).
    """
    if not k_max >= 0:
        raise ValueError("k_max must be nonnegative")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    # an empty stream takes no draws; the POISSON substream is independent of every other one
    rng = substream(seed, traj, POISSON) if k_max else None
    return _stream(rng, k_max, horizon)


def _stream(rng, k_max, horizon):
    """The stream sampled from rng, a trajectory's POISSON substream (None when k_max is 0)."""
    if k_max == 0:
        return JumpStream(float(k_max), float(horizon), np.empty(0), np.empty(0))
    n = int(rng.poisson(k_max * horizon))
    # uniform(0.0, h, n) is 0.0 + h * random(n), bit for bit
    times = rng.random(n) * horizon
    times.sort()
    lo = int(times.searchsorted(0.0, side="right"))  # the window is open at 0
    return JumpStream(float(k_max), float(horizon), times[lo:], (rng.random(n) * k_max)[lo:])


def extend_stream(stream, new_k_max, seed, traj=0, chunk=1):
    """Raise the mark ceiling by superposing an independent band of events.

    Existing events are preserved verbatim; the added events carry marks in
    [k_max, new_k_max), so thinning the extended stream at any cutoff at or
    below the old ceiling returns exactly the old thinned stream.
    """
    if new_k_max <= stream.k_max:
        return stream
    rng = substream(seed, traj, EXTEND, chunk)
    extra_rate = new_k_max - stream.k_max
    n = int(rng.poisson(extra_rate * stream.horizon))
    t2 = rng.uniform(0.0, stream.horizon, n)
    z2 = rng.uniform(stream.k_max, new_k_max, n)
    keep = t2 > 0.0
    times = np.concatenate([stream.times, t2[keep]])
    marks = np.concatenate([stream.marks, z2[keep]])
    order = np.argsort(times, kind="stable")
    return JumpStream(float(new_k_max), stream.horizon, times[order], marks[order])
