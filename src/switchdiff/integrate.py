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

import numpy as np


def _grid_block(bp, lens, dt_target, dim, draw):
    """Build the grids of several rows in one elementwise pass.

    bp holds the breakpoints of every row, one row after another, and
    ``lens`` the number of each row's breakpoints; a row's breakpoints must
    be strictly increasing, and dt_target > 0 fixes the largest step.
    ``draw(r, out)`` fills ``out``, a C-contiguous (steps of row r, dim)
    array, with row r's standard normals; it is called once per row, in row
    order.  Returns ``(nodes, steps, increments, break_index)`` over the
    rows one after another and aligned by node: ``steps[i]`` and
    ``increments[i]`` leave node i (both 0 at each row's last node), and
    ``break_index`` is the position of every breakpoint.
    """
    bp = np.asarray(bp, dtype=float)
    lens = np.asarray(lens, dtype=np.intp)
    if not (lens >= 2).all():
        raise ValueError("need at least two breakpoints")
    if not dt_target > 0:
        raise ValueError("dt_target must be positive")
    # every breakpoint closes a span from the one before it; a row's first
    # closes an empty span of one node from itself
    last = np.cumsum(lens) - 1
    start = last - lens + 1
    lo = np.empty_like(bp)
    lo[1:] = bp[:-1]
    lo[start] = bp[start]
    spans = bp - lo
    if np.count_nonzero(spans > 0) != bp.size - lens.size:
        raise ValueError("breakpoints must be strictly increasing")
    counts = np.maximum(1, np.ceil(spans / dt_target * (1.0 - 1e-12)).astype(np.int64))
    total = int(counts.sum())
    seg = np.repeat(np.arange(spans.size), counts)
    ends = np.cumsum(counts)
    frac = (np.arange(1, total + 1) - np.repeat(ends - counts, counts)) \
        / np.repeat(counts, counts)
    nodes = lo[seg] + frac * spans[seg]
    bidx = ends - 1
    nodes[bidx] = bp                           # breakpoints survive as nodes bit-exactly
    first, stop = bidx[start], bidx[last]      # each row's first and last node
    steps = np.empty(total)
    steps[:-1] = nodes[1:] - nodes[:-1]
    steps[stop] = 0.0
    z = np.zeros((total, dim))
    for r, (a, b) in enumerate(zip(first.tolist(), stop.tolist())):
        draw(r, z[a:b])
    return nodes, steps, z * np.sqrt(steps)[:, None], bidx
