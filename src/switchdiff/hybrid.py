"""Interlaced jump-diffusion solver with localization and level escalation.

One trajectory alternates per-environment Euler-Maruyama integration with
mark classification over a shared Poisson stream: integrate the current
regime's diffusion up to the next stream event, classify the event's mark
against the current regime row, apply the displacement, repeat.  The walk
runs on the Brownian grid induced by *all* master-stream events (inactive
events stay grid breakpoints), so two runs that differ only in the mark
cutoff consume identical randomness and produce bit-identical paths while
|X| + regime stays below the stop level.

When |X| + regime reaches the stop level at a grid node, the walk raises
the level in place: it extends the stream by superposition if the new
cutoff outgrows it, classifies the node's remaining marks and walks on over
a grid drawn from that node, so every lower-level path is a prefix of the
higher-level one.  Reaching the level ceiling or a non-finite state is an
operational explosion, since true blow-up is unobservable in finite
precision.  A step or a mark classification that overflows leaves a
non-finite state, which ends its row at the node the step reached.

Between events the walk is the Euler-Maruyama recursion of the current
regime on a breakpoint-aligned grid: its start time, the stream events
after it and the horizon are nodes, each span between them is cut into the
fewest equal steps no longer than ``dt_target``, and events at one time
share one node (the span between them gets no step).  Increments are drawn
in node order from the trajectory's Brownian substream, so runs that agree
in (generator state, breakpoints, dt_target) are bit-identical.
Euler-Maruyama is used deliberately: coefficients may be merely
measurable, possibly degenerate, so there is no extra regularity for a
higher-order scheme to exploit, and state-adaptive stepping would consume
randomness state-dependently and break cross-cutoff coupling.

``walk`` is the one kernel.  It steps a block of trajectories in lockstep:
each row keeps its own substreams, grid, stop level, cutoff and node, and
one vectorised Euler update moves every row that sits between events by
one node of its own grid.  Only rows on an event node, near their level,
at the end of their grid or with a non-finite state drop to per-row code,
which classifies marks, raises levels, draws grids and ends rows exactly as
a single walk would, so a row's result does not depend on its block.  The
update uses a model's batch coefficients when it has them and the per-row
``drift`` and ``dispersion`` otherwise.  ``simulate`` is a batch of one.

A block starts in one pass (``_Walk.begin``).  ``philox_keys`` derives the
Philox keys of the POISSON and BROWNIAN substreams of every distinct
trajectory at once, and one ``KeyedGenerator`` per walk draws each stream
and grid with the trajectory's key swapped in; a row counts the normals
its grids took, and a redraw restarts the key and discards that many.
Every grid, first or redrawn, comes from ``_Walk.draw``, which lays the
grids of several rows straight into the block's grid storage, all first
grids of a block in passes of at most ``GRID_NODES`` nodes.  Each piece
equals what the per-row ``substream``, ``sample_stream`` and a one-row
``lay`` give, bit for bit, so no random number depends on the block.
Coupled rows (several starts on one trajectory index) therefore draw once:
rows that share a trajectory share its stream, each extension band of it,
and its first grid, whose storage they share too unless paths are
recorded.  A walk is checked whole before its first draw: cutoffs, and
the expected sizes of each path's first stream and grid, when the walk is
built, and the starts before the first block.

Most marks fall outside the current regime's row, and the walk steps past
them without stopping.  Whenever a row gets its next target, it gets a
band: bounds on its regime's territory, from the rate matrix's
``territory``, that hold over a window of radii around its current
radius, widened by a relative margin.  A regime whose territory is finite
over every radius (every regime of a ``DenseRates``) needs no window.  A
scan then moves the target past every later mark that is thinned (at or
above the cutoff) or outside the band, to the first mark that could switch
the row or to the grid's last node.  The lockstep loop stops a row whose
radius leaves its window, and a stop re-reads the marks from its node on,
so every mark skipped is one ``mark_displacement`` would leave at 0: the
bands change no result.  Windows are made of radius cells ``WINDOW`` wide,
so a walk keeps each band it computes and reuses it for the next row of
that regime in that cell.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._rng import BROWNIAN, POISSON, KeyedGenerator, philox_keys
from .errors import ConfigError, checked_int
from .jumps import JumpStream, _stream, extend_stream
from .model import mark_displacement, radius

# Most rows stepped together; bounds a block's grid storage.
BLOCK_ROWS = 256
# Most nodes one ``_Grids.lay`` pass lays, unless one grid has more; bounds its temporaries.
GRID_NODES = 2 ** 14
# Most stream events and grid nodes one path may expect: the first level's
# cutoff (or a numeric stream_rate) times the horizon, and horizon /
# dt_target.  At 16 B an event and 24 B a 1-D node, a path's first stream
# and grid then stay within 16 and 24 MB.  Expected counts are fixed by the
# configuration, so no result depends on a count drawn at random.
MAX_STREAM_EVENTS = 2 ** 20
MAX_GRID_NODES = 2 ** 20
# Width of the radius cells a band's window is made of: the window of a
# radius spans its own cell and the one on either side, so it reaches at
# least WINDOW beyond the radius.  Wider windows give wider bands, which
# skip fewer marks; narrower ones stop rows more often.  On the powerlaw
# tail probe, 0.5 made the fewest stops of 0.25, 0.33, 0.5, 0.75 and 1.
WINDOW = 0.5


@dataclass(frozen=True)
class SimConfig:
    """Trajectory configuration.

    stop_level is the localization level: the path stops when |X| + regime
    first reaches it.  mark_cutoff "auto" selects the smallest cutoff that
    provably loses no switch below the stop level; stream_rate "auto" sizes
    the master stream to that cutoff; a number given for either must be
    finite and >= 0.  max_stop_level caps escalation (equal to stop_level by
    default: no escalation); levels are >= 1 and no greater than the largest
    float.  dt_target must be positive and finite, and the horizon (the
    model's by default) finite and >= 0.  A walk rejects a first level whose
    cutoff, or a numeric stream_rate, expects more than MAX_STREAM_EVENTS
    events over the horizon, and a horizon / dt_target above MAX_GRID_NODES.
    All randomness derives from (seed >= 0, trajectory index): trajectories
    sharing both are fully coupled.  Every count and index a run takes,
    levels and seed included, follows one integer rule (``checked_int``): an
    integer or an integral float (2.0, say) is the int it equals.  Any other
    value, or a value outside these bounds, is a ConfigError.
    """

    stop_level: int
    mark_cutoff: Union[float, str] = "auto"
    stream_rate: Union[float, str] = "auto"
    dt_target: float = 0.01
    horizon: Optional[float] = None
    max_stop_level: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_int(self.seed, "seed", 0))
        _level_schedule(self)
        if not (isinstance(self.dt_target, numbers.Real) and 0 < self.dt_target < math.inf):
            raise ConfigError("dt_target must be positive and finite")
        for name in ("mark_cutoff", "stream_rate"):
            value = getattr(self, name)
            if value != "auto" and not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise ConfigError(f"{name} must be 'auto' or a finite number >= 0")


class Switch(NamedTuple):
    time: float
    src: int
    dst: int
    mark: float


@dataclass(frozen=True)
class PathStatus:
    """How a trajectory ended.

    kind is "horizon" (ran to the time horizon) or "exploded" (operational
    explosion: either the last level was reached, with level set to it, or
    a state coordinate became non-finite, with level None; tau estimates the
    failure time).  Hits of lower levels are recorded in
    ``HybridPath.escalations``.
    """

    kind: str
    tau: Optional[float] = None
    level: Optional[int] = None

    @property
    def nonfinite(self):
        return self.kind == "exploded" and self.level is None


@dataclass
class HybridPath:
    """Time-ordered skeleton of (t, X_t, regime) plus switch events.

    regimes[k] is the regime on [times[k], times[k+1]) (right-continuous:
    a switch node carries the post-switch regime); the x-component is
    continuous across switches.  escalations records (level, tau) for every
    stop-level hit, in order.  stream is the master stream the path
    consumed, including any extension bands added for higher levels, and
    cutoffs records (level, mark cutoff) for every level the path entered.
    """

    times: np.ndarray
    states: np.ndarray
    regimes: np.ndarray
    switches: List[Switch]
    status: PathStatus
    escalations: List[Tuple[int, float]] = field(default_factory=list)
    stream: Optional[JumpStream] = None
    cutoffs: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def terminal(self):
        return float(self.times[-1]), self.states[-1], int(self.regimes[-1])


def auto_truncation(model, stop_level):
    """Smallest safe mark cutoff for a stop level: the declared ball block bound.

    Any cutoff at or above it loses no switch while |X| + regime < stop_level.
    """
    try:
        k = model.rates.block_bound(int(stop_level))
    except NotImplementedError as exc:
        raise ConfigError("rate matrix declares no ball block bound") from exc
    except OverflowError as exc:
        raise ConfigError(f"ball block bound overflows at stop level {stop_level}") from exc
    k = float(k)
    if not (np.isfinite(k) and k >= 0):
        raise ConfigError(f"invalid ball block bound {k!r}")
    return k


def _level_schedule(cfg, levels=None):
    """The checked stop levels of a walk, strictly increasing: ``levels``, or
    by default cfg.stop_level doubling up to cfg.max_stop_level."""
    if levels is not None:
        levels = [checked_int(m, "every stop level", 1) for m in levels]
        if not levels:
            raise ConfigError("levels must name at least one level")
        if not all(b > a for a, b in zip(levels, levels[1:])):
            raise ConfigError("levels must be strictly increasing")
    else:
        levels, top = [checked_int(cfg.stop_level, "stop_level", 1)], cfg.max_stop_level
        ceiling = levels[0] if top is None else checked_int(top, "max_stop_level", 1)
        if ceiling < levels[0]:
            raise ConfigError("max_stop_level must be >= stop_level")
        while levels[-1] < ceiling:
            levels.append(min(2 * levels[-1], ceiling))
    if levels[-1] > sys.float_info.max:
        raise ConfigError("stop levels must not exceed the largest float")
    return levels


def _radii(X):
    """The radius of every row of X, as the lockstep loop measures it: as ``radius``."""
    if X.shape[1] == 1:
        return np.abs(X[:, 0])
    r = np.sqrt(np.einsum("ij,ij->i", X, X))
    for i in np.flatnonzero(~np.isfinite(r)).tolist():
        r[i] = radius(X[i])
    return r


def _below(level):
    """A float threshold under ``level`` by far more than rounding error.

    The lockstep loop keeps a row stepping only while its radius is below
    this threshold less its regime; closer rows go through the exact
    scalar check ``r + lam < level``.
    """
    return float(level) * (1.0 - 2.0 ** -30)


def _band(lo, hi):
    """The band of a territory [lo, hi): marks below its first bound or at or
    above its second lie outside by far more than rounding error.

    The relative margin absorbs any difference between the batch bounds and
    the scalar ``anchor`` and ``row_sum``; a non-finite bound puts no mark
    outside, so a scalar overflow still reaches ``mark_displacement``.
    """
    if hi < math.inf:
        return lo * (1.0 - 2.0 ** -30), hi * (1.0 + 2.0 ** -30)
    return -math.inf, math.inf


def _step_terms(model, X, lam, t, dt, dW):
    """The drift and noise terms ``(b * dt, sigma @ dW)`` of one Euler step of every row.

    dt is a column of steps.  A model's batch forms give both terms at once;
    models without them, and a batch that overflows, take the per-row
    expression of ``drift`` and ``dispersion``.  Where a row's coefficients
    overflow, both of its terms are NaN: a step that overflows leaves a
    non-finite state, which ends its row at the node the step reached.
    """
    if model.drift_batch is not None:
        try:
            return model.drift_batch(X, lam, t) * dt, model.noise_batch(X, lam, t, dW)
        except (OverflowError, FloatingPointError):
            pass
    drift, dispersion = model.drift, model.dispersion
    bdt, noise = np.empty_like(X), np.empty_like(X)
    for i, (x, li, ti, hi, wi) in enumerate(zip(X, lam.tolist(), t, dt[:, 0], dW)):
        try:
            bdt[i] = drift(x, li, ti) * hi
            noise[i] = dispersion(x, li, ti) @ wi
        except (OverflowError, FloatingPointError):
            bdt[i] = noise[i] = np.nan
    return bdt, noise


def _events(stream, t, horizon):
    """The times and marks of the stream's events strictly between t and the
    horizon, in order."""
    lo = int(stream.times.searchsorted(t, side="right"))
    hi = int(stream.times.searchsorted(horizon, side="left"))
    return stream.times[lo:hi], stream.marks[lo:hi]


class _Grids:
    """Flat, node-aligned storage of the grids drawn in one block.

    A grid of n nodes takes n consecutive rows of ``table`` from its offset,
    one per node: the node time, the step leaving the node and its Brownian
    increment (both unused at the last node).  Rows on one trajectory share
    their first grid, except when paths are recorded: ``states`` then holds
    each row's state at each node.  A redrawn grid is appended, so nothing
    stored earlier moves.
    """

    def __init__(self, d, record):
        self.used = 0
        self.table = np.empty((0, 2 + d))
        self.states = np.empty((0, d)) if record else None

    def lay(self, bp, lens, dt_target, normals):
        """Lay grids end to end after the stored ones; return (offset, break_index).

        bp holds each row's breakpoints in turn and ``lens`` their counts.  A
        row's breakpoints must not decrease, and none may tie with its first
        or last.  ``normals(r, out)`` fills the C-contiguous (steps of row r,
        dim) array ``out`` with row r's standard normals, row by row.
        break_index is the node of every breakpoint, counted from offset.
        """
        last = np.cumsum(lens) - 1
        start = last - lens + 1
        # every breakpoint closes the span from the one before it; a row's
        # first closes an empty span of one node from itself
        lo = np.empty_like(bp)
        lo[1:] = bp[:-1]
        lo[start] = bp[start]
        spans = bp - lo
        if not ((spans >= 0).all() and (spans[last] > 0).all() and (spans[start + 1] > 0).all()):
            raise ValueError("breakpoints must not decrease or tie with a grid's ends")
        counts = np.ceil(spans / dt_target * (1.0 - 1e-12)).astype(np.int64)
        counts[start] = 1
        ends = np.cumsum(counts)
        n = int(ends[-1])
        off = self.used
        self.used += n
        if self.used > len(self.table):
            cap = max(2 * len(self.table), self.used, 1024)
            for name in ("table", "states"):
                old = getattr(self, name)
                if old is not None:
                    new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                    new[:off] = old[:off]
                    setattr(self, name, new)
        rows = self.table[off:off + n]
        nodes, steps = rows[:, 0], rows[:, 1]
        seg = np.repeat(np.arange(bp.size), counts)
        frac = (np.arange(1, n + 1) - np.repeat(ends - counts, counts)) / np.repeat(counts, counts)
        np.add(lo[seg], frac * spans[seg], out=nodes)
        bidx = ends - 1
        nodes[bidx] = bp                        # breakpoints survive as nodes bit-exactly
        first, stop = bidx[start], bidx[last]   # each row's first and last node
        np.subtract(nodes[1:], nodes[:-1], out=steps[:-1])
        steps[stop] = 0.0
        z = np.zeros((n, rows.shape[1] - 2))
        for r, (a, b) in enumerate(zip(first.tolist(), stop.tolist())):
            normals(r, z[a:b])
        np.multiply(z, np.sqrt(steps)[:, None], out=rows[:, 2:])
        return off, bidx


class _Row:
    """Loop state of one trajectory.

    x, r, lam and t are the state, radius, regime and time at node k of the
    current grid, which starts at flat offset ``off`` (-1 before the first
    grid); ``target`` is the node the row steps to next, and the row stops
    early once its radius leaves ``[wlo, whi)``.  li indexes the current
    level; stale is set while the grid must be drawn again from node k.
    Marks e .. n_ev - 1 of the grid are still to be classified, at nodes
    ``ev_node``; while the row is in ``_Walk.lockstep``, e is the mark its
    target stops for, past the marks its band skipped.  ``kept`` lists
    (offset, event nodes, end) of the recorded grids left behind.  bkey is the row's
    BROWNIAN key and bdrawn the number of normals its grids took from it.
    Once ``status`` is set the row has ended.
    """

    __slots__ = ("traj", "stream", "bkey", "bdrawn", "x", "r", "lam", "t", "li",
                 "level", "cutoff", "stale", "off", "k", "target", "wlo", "whi", "e", "n_ev",
                 "n_nodes", "ev_node", "ev_z", "ev_at", "kept", "switches", "escalations",
                 "cutoffs", "status", "times", "states")


class _Walk:
    """Trajectories of one model, configuration and level schedule."""

    def __init__(self, model, cfg, levels, stream, record):
        horizon = cfg.horizon if cfg.horizon is not None else model.horizon
        if not (isinstance(horizon, numbers.Real) and 0 <= horizon < math.inf):
            raise ConfigError("horizon must be finite and >= 0")
        if record not in (None, "nodes", "events"):
            raise ConfigError(f"record must be 'nodes' or 'events', got {record!r}")
        self.horizon = float(horizon) + 0.0  # numpy's uniform rejects a range up to -0.0
        self.model, self.cfg, self.levels = model, cfg, _level_schedule(cfg, levels)
        self.cutoffs = [auto_truncation(model, m) if cfg.mark_cutoff == "auto"
                        else float(cfg.mark_cutoff) for m in self.levels]
        expected = [(f"level {self.levels[0]}", self.cutoffs[0])]
        if cfg.stream_rate != "auto":
            expected.append((f"stream_rate {cfg.stream_rate!r}", float(cfg.stream_rate)))
        for key, rate in expected:
            if rate * self.horizon > MAX_STREAM_EVENTS:
                raise ConfigError(f"{key} expects {rate * self.horizon:.3g} stream events per path "
                                  f"over horizon {self.horizon:g}, more than "
                                  f"MAX_STREAM_EVENTS = {MAX_STREAM_EVENTS}")
        nodes = self.horizon / cfg.dt_target
        if nodes > MAX_GRID_NODES:
            raise ConfigError(f"dt_target {cfg.dt_target!r} expects {nodes:.3g} grid nodes per "
                              f"path over horizon {self.horizon:g}, more than "
                              f"MAX_GRID_NODES = {MAX_GRID_NODES}")
        top = max(self.cutoffs)
        if stream is not None and not (stream.horizon >= self.horizon and stream.k_max >= top):
            raise ConfigError(f"stream of horizon {stream.horizon} and ceiling {stream.k_max} "
                              f"does not cover horizon {self.horizon} and cutoff {top}")
        self.stream, self.record, self.dim = stream, record, model.dim
        self.thresholds = [_below(m) for m in self.levels]
        self.extended = {}  # (traj, level index) -> stream, within one block
        self.keyed = KeyedGenerator()
        self.grids = None
        # regime -> its band over every radius, or None when that is not
        # finite; (regime, r // WINDOW) -> its band over that radius window
        self.bands, self.cells = {}, {}

    def enter_level(self, row):
        """Set the row's cutoff for its level, extending its stream to cover it.

        A trajectory's stream at a level depends only on (seed, traj,
        horizon, level), so rows of one block that share a trajectory share
        each extension band.  A supplied stream covers every cutoff.
        """
        row.level, row.cutoff = self.levels[row.li], self.cutoffs[row.li]
        row.cutoffs.append((row.level, row.cutoff))
        if row.cutoff > row.stream.k_max:
            key = (row.traj, row.li)
            if key not in self.extended:
                self.extended[key] = extend_stream(row.stream, row.cutoff, self.cfg.seed,
                                                   row.traj, chunk=row.li)
            row.stream = self.extended[key]

    def begin(self, starts, i0, trajs):
        """Rows at time 0 in regime i0 from ``check``'s starts, with their streams,
        first levels and, below their first level and short of the horizon, first grids.

        Keys and streams are derived once per distinct trajectory: rows that
        share one (coupled starts) share its stream and BROWNIAN key, and
        unless paths are recorded they share its first grid as one group.
        One ``draw`` call lays every group's first grid.
        """
        cfg, keyed = self.cfg, self.keyed
        distinct = list(dict.fromkeys(trajs))
        bkeys = dict(zip(distinct, philox_keys(cfg.seed, distinct, BROWNIAN)))
        if self.stream is not None:
            streams = dict.fromkeys(distinct, self.stream)
        else:
            rate = self.cutoffs[0] if cfg.stream_rate == "auto" else float(cfg.stream_rate)
            pkeys = philox_keys(cfg.seed, distinct, POISSON) if rate else [None] * len(distinct)
            streams = {traj: _stream(keyed.start(key) if rate else None, rate, self.horizon)
                       for traj, key in zip(distinct, pkeys)}
        rows, groups = [], {}
        for (x, r), traj in zip(starts, trajs):
            row = _Row()
            row.traj = traj
            row.stream = streams[traj]
            row.bkey, row.bdrawn = bkeys[traj], 0
            row.x, row.r, row.lam, row.t = x, r, i0, 0.0
            row.li = 0
            row.cutoffs = []
            self.enter_level(row)
            row.stale = True
            row.off = -1
            row.k = row.e = row.n_ev = row.n_nodes = 0
            row.kept, row.switches, row.escalations = [], [], []
            row.status = None
            rows.append(row)
            if row.r + row.lam < row.level and self.horizon > 0:
                groups.setdefault(id(row) if self.record else traj, []).append(row)
        if groups:
            self.draw(list(groups.values()))
        return rows

    def advance(self, row):
        """Handle the row at its current node until it has steps to take.

        In the order of one walk: the level check (raising the level in
        place, or ending the row at the last level or a non-finite radius),
        the node's remaining marks, a grid draw when the level was raised,
        and the end of the grid.  Every row ends here, and a non-finite one
        at the level check: a step or classification that overflows leaves
        a non-finite state, which ends its row at the node the step reached.
        Returns True once ``aim`` has sent the row on to its next target,
        False once it has ended.
        """
        try:
            while True:
                if not (row.r + row.lam < row.level):
                    if not np.isfinite(row.r):
                        return self.end(row, PathStatus("exploded", float(row.t), None))
                    row.escalations.append((row.level, float(row.t)))
                    if row.li == len(self.levels) - 1:
                        return self.end(row, PathStatus("exploded", float(row.t), row.level))
                    row.stale = True
                    row.li += 1
                    self.enter_level(row)
                elif row.e < row.n_ev and row.ev_node[row.e] == row.k:
                    z = row.ev_z[row.e]
                    row.e += 1
                    if z < row.cutoff:
                        dlt = mark_displacement(self.model, row.lam, row.x, z)
                        if dlt:
                            row.switches.append(Switch(float(row.t), row.lam, row.lam + dlt, z))
                            row.lam += dlt
                elif row.stale:
                    if row.t >= self.horizon:
                        return self.end(row, PathStatus("horizon"))
                    self.draw([[row]])
                elif row.k < row.n_nodes - 1:
                    self.aim(row)
                    return True
                else:
                    return self.end(row, PathStatus("horizon"))
        except (OverflowError, FloatingPointError):
            # an overflow in in-grid classification leaves a non-finite state
            # at the next node; one at a stop node, where the level was just
            # raised, leaves it at the stop time.  The level check ends it.
            if not row.stale:
                row.k = min(row.k + 1, row.n_nodes - 1)
                row.t = self.grids.table[row.off + row.k, 0]
            row.x = np.full(self.dim, np.nan)
            row.r = math.nan
            return self.advance(row)

    def draw(self, groups):
        """Draw one grid per group of rows and put every row of a group on it.

        The rows of a group share their time, stream and BROWNIAN position:
        coupled rows at t = 0, or a single row.  A grid's breakpoints are
        that time, the horizon and the stream events in between, events at
        one time sharing a node.  Its increments continue the group's
        Brownian substream where its last grid stopped, so a grid does not
        depend on the other groups of its ``_Grids.lay`` pass, which takes at
        least one group and no more than surely fit in ``GRID_NODES`` nodes.
        """
        keyed, horizon = self.keyed, self.horizon
        events = [_events(group[0].stream, group[0].t, horizon) for group in groups]
        # a grid from t has at most (horizon - t) / dt_target nodes plus one per breakpoint
        bound = np.cumsum([(horizon - group[0].t) / self.cfg.dt_target + ev_t.size + 2
                           for group, (ev_t, _) in zip(groups, events)])
        cut = max(1, int(bound.searchsorted(GRID_NODES, side="right")))
        groups, events, rest = groups[:cut], events[:cut], groups[cut:]
        lens = np.array([ev_t.size + 2 for ev_t, _ in events])
        last = np.cumsum(lens) - 1
        start = last - lens + 1
        bp = np.empty(last[-1] + 1)
        inner = np.ones(bp.size, dtype=bool)
        inner[start] = inner[last] = False
        bp[start] = [group[0].t for group in groups]
        bp[last] = horizon
        bp[inner] = np.concatenate([ev_t for ev_t, _ in events])

        def normals(r, out):
            # the ziggurat draws in sequence: skip the normals earlier grids took
            drawn = groups[r][0].bdrawn
            rng = keyed.start(groups[r][0].bkey)
            if drawn:
                rng.standard_normal(drawn)
            rng.standard_normal(out=out)
            for row in groups[r]:
                row.bdrawn = drawn + out.size

        off, bidx = self.grids.lay(bp, lens, self.cfg.dt_target, normals)
        first = bidx[start]
        at = bidx - np.repeat(first, lens)  # every breakpoint's node in its own grid
        for group, (_, marks), f, size, b in zip(groups, events, first.tolist(),
                                                 (bidx[last] - first + 1).tolist(),
                                                 start.tolist()):
            ev_at = at[b + 1:b + 1 + marks.size]
            for row in group:
                self.place(row, off + f, size, ev_at, marks)
        if rest:
            self.draw(rest)

    def place(self, row, off, n_nodes, ev_at, marks):
        """Put the row on the first node of its new grid, stored from flat offset off.

        ev_at holds the node of each of the grid's events, and marks their
        marks.  A recorded row keeps the grid it leaves.
        """
        if self.record:
            if row.off >= 0:
                row.kept.append((row.off, row.ev_at, row.k))
            row.ev_at = ev_at
            self.grids.states[off] = row.x
        # memoryviews index to Python scalars like lists, without a copy
        row.ev_node, row.ev_z = memoryview(ev_at), memoryview(marks)
        row.n_ev, row.n_nodes = len(ev_at), n_nodes
        row.off = off
        row.t = self.grids.table[off, 0]
        row.k = row.e = 0
        row.stale = False

    def end(self, row, status):
        """Set the row's status, collect its recorded path and drop its loop state."""
        row.status = status
        if self.record:
            g = self.grids
            kept = row.kept + ([(row.off, row.ev_at, row.k)] if row.off >= 0 else [])
            T, S = [], []
            for off, ev_at, end in kept:
                if self.record == "nodes":
                    keep = np.arange(off, off + end)
                else:
                    keep = off + np.unique(np.append(0, ev_at[ev_at < end]))
                T.append(g.table[keep, 0])
                S.append(g.states[keep])
            row.times = np.concatenate(T + [[row.t]])
            row.states = np.concatenate(S + [[row.x]])
        row.bkey = row.ev_node = row.ev_z = row.ev_at = row.kept = None
        return False

    def aim(self, row):
        """Set the row's target past the marks that cannot switch it.

        The row has just been sent on by ``advance``.  Its band is its
        regime's territory (``_band``) over every radius if that is finite,
        and otherwise over the window of the row's radius r: with
        m = r // WINDOW, the radii [(m - 1) WINDOW, (m + 2) WINDOW).  Both
        kinds are kept per walk, and a missing one comes from one
        ``territory`` call.  The scan stops at the first mark below
        the cutoff and inside the band.  A row that skipped a mark on a
        window's band keeps to that window, capped by its level; every
        other row is capped by its level alone.
        """
        bands, cells, lam = self.bands, self.cells, row.lam
        territory = self.model.rates.territory
        if lam not in bands:
            if territory is None:
                bands[lam] = (-math.inf, math.inf)
            else:
                a, b = territory(lam, 0.0, math.inf)
                bands[lam] = _band(a, b) if b < math.inf else None
        key = None if bands[lam] is not None else (lam, row.r // WINDOW)
        if key is not None and key not in cells:
            m = key[1]
            cells[key] = _band(*territory(lam, max((m - 1) * WINDOW, 0.0), (m + 2) * WINDOW))
        lo, hi = bands[lam] if key is None else cells[key]
        ev_z, n_ev, e = row.ev_z, row.n_ev, row.e
        top = min(hi, row.cutoff)
        while e < n_ev and not lo <= ev_z[e] < top:
            e += 1
        room = self.thresholds[row.li] - lam
        if key is not None and e > row.e and hi < math.inf:
            m = key[1]
            row.wlo, row.whi = (m - 1) * WINDOW, min((m + 2) * WINDOW, room)
        else:
            row.wlo, row.whi = -math.inf, room
        row.e = e
        row.target = row.ev_node[e] if e < n_ev else row.n_nodes - 1

    def lockstep(self, live):
        """Step every live row to its next target node in one update per node.

        Each iteration moves all live rows one node along their own grids.
        Rows that reach their target, leave their window (which keeps them
        clear of their level) or turn non-finite drop to ``advance``, which
        either sends them on through ``aim``, past the marks that cannot
        switch them, or ends them.  A stop re-reads the marks from its node
        on, the ones the band skipped included.
        """
        g = self.grids
        X = np.array([row.x for row in live])
        pos = np.array([row.off + row.k for row in live])
        end = np.array([row.off + row.target for row in live])
        lam = np.array([row.lam for row in live])
        wlo = np.array([row.wlo for row in live])
        whi = np.array([row.whi for row in live])
        while live:
            node = g.table.take(pos, axis=0)
            bdt, noise = _step_terms(self.model, X, lam, node[:, 0], node[:, 1:2], node[:, 2:])
            X = X + bdt + noise
            pos = pos + 1
            if g.states is not None:
                g.states[pos] = X
            r = _radii(X)
            go = (wlo <= r) & (r < whi) & (pos != end)
            if np.count_nonzero(go) == len(live):
                continue
            ended = []
            for i in np.flatnonzero(~go).tolist():
                row = live[i]
                p = int(pos[i])
                row.k, row.t = p - row.off, g.table[p, 0]
                row.x = X[i].copy()
                row.r = radius(row.x)
                # the first mark not yet classified is the first at or after this node
                row.e = bisect_left(row.ev_node, row.k)
                if self.advance(row):
                    pos[i], end[i] = row.off + row.k, row.off + row.target
                    lam[i], wlo[i], whi[i] = row.lam, row.wlo, row.whi
                else:
                    ended.append(i)
            if ended:
                keep = np.ones(len(live), dtype=bool)
                keep[ended] = False
                live = [row for row, kp in zip(live, keep.tolist()) if kp]
                X, pos, end, lam, wlo, whi = (X[keep], pos[keep], end[keep], lam[keep],
                                              wlo[keep], whi[keep])

    def check(self, starts, i0):
        """Check i0 and every start; return i0 as an int and the starts as (state, radius) pairs."""
        i0 = checked_int(i0, "start regime i0", 1)
        checked = []
        for x0 in starts:
            x = np.atleast_1d(np.asarray(x0, dtype=float))
            if x.shape != (self.dim,) or not math.isfinite(r := radius(x)):
                raise ConfigError(f"initial state {x.tolist()} is not a finite {self.dim}-vector")
            checked.append((x, r))
        return i0, checked

    def run(self, i0, checked, trajs):
        """Yield the ended rows of ``check``'s starts, in blocks of at most BLOCK_ROWS."""
        for lo in range(0, len(trajs), BLOCK_ROWS):
            self.grids = _Grids(self.dim, self.record)
            self.extended = {}
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rows = self.begin(checked[lo:lo + BLOCK_ROWS], i0, trajs[lo:lo + BLOCK_ROWS])
                live = [row for row in rows if self.advance(row)]
                if live:
                    self.lockstep(live)
            self.grids = None
            yield from rows


def walk(model, starts, i0, cfg, trajs, *, levels=None, stream=None, record=None):
    """Walk trajectory ``trajs[r]`` from ``starts[r]`` for every r, in lockstep.

    Yields one ended row per trajectory, in order, with ``t``, ``x``,
    ``lam``, ``status``, ``escalations``, ``switches`` and the consumed
    ``stream``, plus ``times`` and ``states`` when ``record`` is "nodes" or
    "events".  Rows are walked in blocks of at most ``BLOCK_ROWS``; a row's
    result does not depend on the rows it shares a block with.
    """
    runner = _Walk(model, cfg, levels, stream, record)
    return runner.run(*runner.check(starts, i0), trajs)


def simulate(model, x0, i0, cfg, *, traj=0, record="nodes", levels=None,
             stream=None):
    """Full trajectory with stop-level escalation: a batch of one of ``walk``.

    Walks the trajectory once through ``levels`` (default: stop_level
    doubling up to max_stop_level).  When |X| + regime reaches the current
    level at a node, the level is raised in place: (level, t) is appended to
    ``escalations``, the node's remaining marks are classified under the new
    level's cutoff, and the walk goes on over a fresh grid drawn from that
    node.  Reaching the last level is an operational explosion.  record
    "nodes" keeps every grid node, "events" only the event nodes.

    The master stream is sampled from (cfg.seed, traj), reused across levels
    and extended by superposition when the auto-selected cutoff outgrows it.
    A caller-supplied ``stream`` is never extended: when the walk is built,
    it must cover the horizon and every level's cutoff, or ConfigError is
    raised.  Runs that share (stream, seed, traj) and differ only in a
    cutoff at or above ``auto_truncation`` at the stop level are
    bit-identical up to and including the stop time.  i0 and traj (>= 0)
    follow SimConfig's integer rule.
    """
    if record is None:
        raise ConfigError("simulate records its path: record must be 'nodes' or 'events'")
    runner = _Walk(model, cfg, levels, stream, record)
    i0, starts = runner.check([x0], i0)
    row, = runner.run(i0, starts, [checked_int(traj, "traj", 0)])
    switches = row.switches
    # each node carries the regime after the switches at its time
    dst = np.array([i0] + [s.dst for s in switches], dtype=np.int64)
    regimes = dst[np.searchsorted([s.time for s in switches], row.times, side="right")]
    return HybridPath(row.times, row.states, regimes, switches, row.status,
                      row.escalations, row.stream, row.cutoffs)
