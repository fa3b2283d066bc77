"""Breakpoint-aligned Brownian grids for per-environment Euler-Maruyama.

The grid is induced by prescribed breakpoints (jump candidate times plus the
window endpoints): each inter-breakpoint span is subdivided into equal steps
no longer than dt_target, so every breakpoint is a node exactly and no step
ever straddles a jump time.  Increments are drawn once for the whole grid,
in node order, which keeps runs bit-identical whenever (generator state,
breakpoints, dt_target) agree.

Euler-Maruyama is used deliberately: coefficients may be merely measurable,
possibly degenerate, so there is no extra regularity for a higher-order
scheme to exploit, and state-adaptive stepping would consume randomness
state-dependently and break cross-cutoff coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BrownianGrid:
    nodes: np.ndarray        # all grid times, strictly increasing
    steps: np.ndarray        # np.diff(nodes)
    increments: np.ndarray   # (len(nodes)-1, dim); variance of each row = step
    break_index: np.ndarray  # positions of the input breakpoints in nodes
    dim: int


def make_grid(breakpoints, dt_target, dim, rng):
    """Build the grid and draw all its Gaussian increments.

    breakpoints must be strictly increasing; dt_target > 0 fixes the largest
    step.  Subdivision uses linspace so breakpoint floats are preserved
    exactly as nodes.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size < 2:
        raise ValueError("need at least two breakpoints")
    spans = np.diff(bp)
    if not (spans > 0).all():
        raise ValueError("breakpoints must be strictly increasing")
    if not dt_target > 0:
        raise ValueError("dt_target must be positive")
    counts = np.maximum(1, np.ceil(spans / dt_target * (1.0 - 1e-12)).astype(np.int64))
    total = int(counts.sum())
    seg = np.repeat(np.arange(spans.size), counts)
    ends = np.cumsum(counts)
    frac = (np.arange(1, total + 1) - np.repeat(ends - counts, counts)) \
        / np.repeat(counts, counts)
    vals = bp[seg] + frac * spans[seg]
    vals[ends - 1] = bp[1:]  # breakpoints survive as nodes bit-exactly
    nodes = np.concatenate((bp[:1], vals))
    bidx = np.concatenate(([0], ends)).astype(np.intp)
    steps = np.diff(nodes)
    incr = rng.standard_normal((steps.size, dim)) * np.sqrt(steps)[:, None]
    return BrownianGrid(nodes, steps, incr, bidx, dim)
