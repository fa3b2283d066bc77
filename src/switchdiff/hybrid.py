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
precision.

``walk`` is the one kernel.  It steps a block of trajectories in lockstep:
each row keeps its own substreams, grid, stop level, cutoff and node, and
one vectorised Euler update moves every row that sits between events by
one node of its own grid.  Only rows on an event node, near their level or
at the end of their grid drop to per-row code, which classifies marks,
raises levels, draws grids and ends rows exactly as a single walk would, so
a row's result does not depend on its block.  The update uses a model's
batch coefficients when it has them and the per-row ``drift`` and
``dispersion`` otherwise.  ``simulate`` is a batch of one.

Most marks fall outside the current regime's row.  When at least
``SCREEN_ROWS`` rows reach event nodes in one iteration and the rate matrix
has a ``territory_batch``, one array pass reads each row's mark from the
block's grid storage and lets the row step on without classification when
the mark is thinned (at or above the cutoff) or lies outside the row's
territory by a relative margin, where ``mark_displacement`` would return 0.
Marks near or inside the territory, several marks at one node and
non-finite bounds go to the per-row code, so the screen changes no result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._rng import BROWNIAN, substream
from .errors import ConfigError
from .integrate import make_grid
from .jumps import JumpStream, extend_stream, sample_stream
from .model import mark_displacement

# Most rows stepped together; bounds a block's grid storage.
BLOCK_ROWS = 256
# Fewest rows at event nodes in one iteration that the mark screen takes:
# for fewer, its array pass costs more than the classifications it saves.
SCREEN_ROWS = 4


@dataclass(frozen=True)
class SimConfig:
    """Trajectory configuration.

    stop_level is the localization level: the path stops when |X| + regime
    first reaches it.  mark_cutoff "auto" selects the smallest cutoff that
    provably loses no switch below the stop level; stream_rate "auto" sizes
    the master stream to that cutoff.  max_stop_level caps escalation (equal
    to stop_level by default: no escalation).  All randomness derives from
    (seed, trajectory index): trajectories sharing both are fully coupled.
    """

    stop_level: int
    mark_cutoff: Union[float, str] = "auto"
    stream_rate: Union[float, str] = "auto"
    dt_target: float = 0.01
    horizon: Optional[float] = None
    max_stop_level: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.stop_level < 1:
            raise ConfigError("stop_level must be a positive integer")
        if not self.dt_target > 0:
            raise ConfigError("dt_target must be positive")
        if self.max_stop_level is not None and self.max_stop_level < self.stop_level:
            raise ConfigError("max_stop_level must be >= stop_level")


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
    def reached_horizon(self):
        return self.kind == "horizon"

    @property
    def exploded(self):
        return self.kind == "exploded"

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

    @property
    def max_regime(self):
        m = int(self.regimes[0])
        for s in self.switches:
            m = max(m, s.dst)
        return m


def auto_truncation(model, stop_level):
    """Smallest safe mark cutoff for a stop level: the declared ball block bound.

    Any cutoff at or above it loses no switch while |X| + regime < stop_level.
    """
    try:
        k = model.rates.block_bound(int(stop_level))
    except NotImplementedError as exc:
        raise ConfigError("rate matrix declares no ball block bound") from exc
    k = float(k)
    if not (np.isfinite(k) and k >= 0):
        raise ConfigError(f"invalid ball block bound {k!r}")
    return k


def _resolve_cutoff(cfg, model, stop_level):
    if cfg.mark_cutoff == "auto":
        return auto_truncation(model, stop_level)
    return float(cfg.mark_cutoff)


def _level_schedule(cfg):
    ceiling = cfg.max_stop_level if cfg.max_stop_level is not None else cfg.stop_level
    levels = [int(cfg.stop_level)]
    while levels[-1] < ceiling:
        levels.append(min(2 * levels[-1], int(ceiling)))
    return levels


def _radius(x):
    return abs(x[0]) if x.size == 1 else np.sqrt(x @ x)


def _radii(X):
    """The radius of every row of X, as the lockstep loop measures it."""
    return np.abs(X[:, 0]) if X.shape[1] == 1 else np.sqrt(np.einsum("ij,ij->i", X, X))


def _below(level):
    """A float threshold under ``level`` by far more than rounding error.

    The lockstep loop keeps a row stepping only while its radius is below
    this threshold less its regime; closer rows go through the exact
    scalar check ``r + lam < level``.
    """
    try:
        return float(level) * (1.0 - 2.0 ** -30)
    except OverflowError:
        return math.inf


def _outside(z, lo, hi):
    """Marks z outside their territories [lo, hi) by far more than rounding error.

    The relative margin absorbs any difference between the batch bounds and
    the scalar ``anchor`` and ``row_sum``; a non-finite bound never counts,
    so a scalar overflow still reaches ``mark_displacement``.
    """
    return ((z < lo * (1.0 - 2.0 ** -30)) | (z >= hi * (1.0 + 2.0 ** -30))) & np.isfinite(hi)


def _step_terms(model, X, lam, t, dt, dW):
    """The drift and noise terms of one Euler step of every row.

    dt is a column of steps.  Returns ``(b * dt, sigma @ dW, failed)``.  A
    model's batch forms give both terms at once; models without them, and a
    batch that overflows, take the per-row expression of ``drift`` and
    ``dispersion``, where an overflow marks only its own row as failed
    (``failed`` is None when no row failed).
    """
    if model.drift_batch is not None:
        try:
            return model.drift_batch(X, lam, t) * dt, model.noise_batch(X, lam, t, dW), None
        except (OverflowError, FloatingPointError):
            pass
    drift, dispersion = model.drift, model.dispersion
    bdt, noise = np.empty_like(X), np.empty_like(X)
    failed = None
    for i, (x, li, ti, hi, wi) in enumerate(zip(X, lam.tolist(), t, dt[:, 0], dW)):
        try:
            bdt[i] = drift(x, li, ti) * hi
            noise[i] = dispersion(x, li, ti) @ wi
        except (OverflowError, FloatingPointError):
            if failed is None:
                failed = np.zeros(len(X), dtype=bool)
            failed[i] = True
    return bdt, noise, failed


class _Grids:
    """Flat, node-aligned storage of the grids drawn in one block.

    A grid of n nodes takes n consecutive rows of ``table`` from its offset,
    one per node: the node time, the step leaving the node and its Brownian
    increment (both unused at the last node).  When paths are recorded,
    ``states`` holds the state at each node.  For the mark screen, ``mark``
    holds the mark at each event node and ``next`` the flat row of the
    row's next target (the next event node, or the grid's last node); the
    last node's mark, and every mark of a grid with two marks at one node,
    is NaN, which the screen never skips.  A redrawn grid is appended, so
    nothing stored earlier moves.
    """

    def __init__(self, d, record, screen):
        self.used = 0
        self.table = np.empty((0, 2 + d))
        self.states = np.empty((0, d)) if record else None
        self.mark = np.empty(0) if screen else None
        self.next = np.empty(0, dtype=np.intp) if screen else None

    def append(self, grid, marks):
        """Store a grid and, for the screen, the marks at its event nodes."""
        n = grid.nodes.size
        off = self.used
        self.used += n
        if self.used > len(self.table):
            cap = max(2 * len(self.table), self.used, 1024)
            for name in ("table", "states", "mark", "next"):
                old = getattr(self, name)
                if old is not None:
                    new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                    new[:off] = old[:off]
                    setattr(self, name, new)
        rows = self.table[off:off + n]
        rows[:, 0] = grid.nodes
        rows[:-1, 1] = grid.steps
        rows[:-1, 2:] = grid.increments
        if self.mark is not None:
            # the breakpoints: the first node, the event nodes, the last node
            ev = off + grid.break_index
            self.mark[ev[-1]] = np.nan
            self.mark[ev[1:-1]] = marks
            self.next[ev[1:-1]] = ev[2:]
        return off


class _Row:
    """Loop state of one trajectory.

    x, r, lam and t are the state, radius, regime and time at node k of the
    current grid, which starts at flat offset ``off`` (-1 before the first
    grid); ``target`` is the node the row steps to next.  li indexes the
    current level; stale is set while the grid must be drawn again from node
    k.  Marks e .. n_ev - 1 of the grid are still to be classified, at nodes
    ``ev_node``; while the row is in ``_Walk.lockstep``, e and target lag
    behind the marks the screen skipped.  ``kept`` lists (offset, event
    nodes, end) of the recorded grids left behind.  Once ``status`` is set
    the row has ended.
    """

    __slots__ = ("traj", "stream", "brng", "x", "r", "lam", "t", "li", "level",
                 "cutoff", "stale", "off", "k", "target", "e", "n_ev", "n_nodes",
                 "ev_node", "ev_z", "ev_at", "kept", "switches", "escalations",
                 "cutoffs", "status", "times", "states")


class _Walk:
    """Trajectories of one model, configuration and level schedule."""

    def __init__(self, model, cfg, levels, stream, record):
        if levels is None:
            levels = _level_schedule(cfg)
        else:
            levels = [int(m) for m in levels]
            if not all(b > a for a, b in zip(levels, levels[1:])):
                raise ConfigError("levels must be strictly increasing")
        horizon = cfg.horizon if cfg.horizon is not None else model.horizon
        if not horizon > 0:
            raise ConfigError("horizon must be positive")
        self.horizon = float(horizon)
        if stream is not None and stream.horizon < self.horizon:
            raise ConfigError("stream horizon does not cover the simulation horizon")
        self.model, self.cfg, self.levels = model, cfg, levels
        self.stream, self.record, self.dim = stream, record, model.dim
        self.thresholds = [_below(m) for m in levels]
        self.grids = self.screen = None

    def enter_level(self, row):
        """Set the row's cutoff for its level, extending its stream to cover it."""
        row.level = self.levels[row.li]
        row.cutoff = _resolve_cutoff(self.cfg, self.model, row.level)
        row.cutoffs.append((row.level, row.cutoff))
        if row.cutoff > row.stream.k_max:
            if self.stream is not None:
                raise ConfigError(f"stream mark ceiling {row.stream.k_max} "
                                  f"below required cutoff {row.cutoff}")
            row.stream = extend_stream(row.stream, row.cutoff, self.cfg.seed,
                                       row.traj, chunk=row.li)

    def start(self, x0, i0, traj):
        """A row at time 0 in state x0 and regime i0, with its streams and first level."""
        row = _Row()
        row.traj = traj
        if self.stream is not None:
            row.stream = self.stream
        else:
            if self.cfg.stream_rate == "auto":
                rate = max(_resolve_cutoff(self.cfg, self.model, self.levels[0]), 0.0)
            else:
                rate = float(self.cfg.stream_rate)
            row.stream = sample_stream(rate, self.horizon, self.cfg.seed, traj)
        row.brng = substream(self.cfg.seed, traj, BROWNIAN)
        x = np.atleast_1d(np.asarray(x0, dtype=float))
        if x.shape != (self.dim,):
            raise ConfigError(f"initial state shape {x.shape} does not match dim {self.dim}")
        row.x, row.r, row.lam, row.t = x, _radius(x), int(i0), 0.0
        row.li = 0
        row.cutoffs = []
        self.enter_level(row)
        row.stale = True
        row.off = -1
        row.k = row.e = row.n_ev = row.n_nodes = 0
        row.kept, row.switches, row.escalations = [], [], []
        row.status = None
        return row

    def advance(self, row):
        """Handle the row at its current node until it has steps to take.

        In the order of one walk: the level check (raising the level in
        place, or ending the row at the last level or a non-finite radius),
        the node's remaining marks, a grid draw when the level was raised,
        and the end of the grid.  Returns True with ``row.target`` set when
        the row should step on, False once it has ended.
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
                    self.draw(row)
                else:
                    row.target = row.ev_node[row.e] if row.e < row.n_ev else row.n_nodes - 1
                    if row.k < row.target:
                        return True
                    return self.end(row, PathStatus("horizon"))
        except (OverflowError, FloatingPointError):
            # an overflow in in-grid classification ends the path at a
            # non-finite next node; one at a stop node, where the level was
            # just raised, ends it at the stop time
            if not row.stale:
                row.k = min(row.k + 1, row.n_nodes - 1)
                row.t = self.grids.table[row.off + row.k, 0]
            row.x = np.full(self.dim, np.nan)
            return self.end(row, PathStatus("exploded", float(row.t), None))

    def draw(self, row):
        """Draw the row's grid from its current time to the horizon.

        The breakpoints are the current time, the horizon and the stream
        events in between; increments come from the row's Brownian
        substream, so a redrawn grid continues where the last one stopped.
        """
        if self.record and row.off >= 0:
            row.kept.append((row.off, row.ev_at, row.k))
        stream, t = row.stream, row.t
        lo = int(np.searchsorted(stream.times, t, side="right"))
        hi = int(np.searchsorted(stream.times, self.horizon, side="left"))
        ev_t, marks = stream.times[lo:hi], stream.marks[lo:hi]
        # the events lie strictly between t and the horizon, in order
        bp = np.concatenate(([t], ev_t, [self.horizon]))
        tied = ev_t.size > 1 and not (ev_t[1:] > ev_t[:-1]).all()
        if tied:
            bp = np.unique(bp)  # events at one time share a breakpoint
        grid = make_grid(bp, self.cfg.dt_target, self.dim, row.brng)
        ev_at = grid.break_index[np.searchsorted(bp, ev_t) if tied else slice(1, -1)]
        # memoryviews index to Python scalars like lists, without a copy
        row.ev_node, row.ev_z = memoryview(ev_at), memoryview(marks)
        row.n_ev, row.n_nodes = len(ev_at), grid.nodes.size
        row.off = self.grids.append(grid, np.nan if tied else marks)
        if self.record:
            row.ev_at = ev_at
            self.grids.states[row.off] = row.x
        row.t = grid.nodes[0]
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
        row.brng = row.ev_node = row.ev_z = row.ev_at = row.kept = None
        return False

    def lockstep(self, live):
        """Step every live row to its next event node in one update per node.

        Each iteration moves all live rows one node along their own grids.
        When at least SCREEN_ROWS rows clear of their level reach event
        nodes, the screen sends the ones whose mark cannot switch on to
        their next event node.  The other rows that reach their target
        node, come near their level or fail drop to ``advance``, which
        either sends them on or ends them.
        """
        g, d, screen = self.grids, self.dim, self.screen
        X = np.array([row.x for row in live])
        pos = np.array([row.off + row.k for row in live])
        end = np.array([row.off + row.target for row in live])
        lam = np.array([row.lam for row in live])
        room = np.array([self.thresholds[row.li] - row.lam for row in live])
        cut = np.array([row.cutoff for row in live])
        while live:
            node = g.table.take(pos, axis=0)
            bdt, noise, failed = _step_terms(self.model, X, lam, node[:, 0], node[:, 1:2],
                                             node[:, 2:])
            X = X + bdt + noise
            pos = pos + 1
            if g.states is not None:
                g.states[pos] = X
            r = _radii(X)
            go = (r < room) & (pos != end)
            if failed is not None:
                go &= ~failed
            n_go = np.count_nonzero(go)
            if n_go == len(live):
                continue
            if screen is not None and len(live) - n_go >= SCREEN_ROWS:
                at = np.flatnonzero((pos == end) & (r < room))
                if failed is not None:
                    at = at[~failed[at]]
                if at.size >= SCREEN_ROWS:
                    p = pos[at]
                    z = g.mark[p]
                    lo, hi = screen(lam[at], r[at])
                    skip = (z >= cut[at]) | _outside(z, lo, hi)
                    at = at[skip]
                    end[at] = g.next[p[skip]]
                    go[at] = True
                    if n_go + at.size == len(live):
                        continue
            ended = []
            for i in np.flatnonzero(~go).tolist():
                row = live[i]
                p = int(pos[i])
                row.k, row.t = p - row.off, g.table[p, 0]
                if failed is not None and failed[i]:
                    row.x = np.full(d, np.nan)
                    self.end(row, PathStatus("exploded", float(row.t), None))
                    ended.append(i)
                    continue
                row.x = X[i].copy()
                row.r = _radius(row.x)
                if screen is not None:
                    # the first mark not skipped is the first at or after this node
                    row.e = bisect_left(row.ev_node, row.k)
                if self.advance(row):
                    pos[i], end[i] = row.off + row.k, row.off + row.target
                    lam[i], room[i] = row.lam, self.thresholds[row.li] - row.lam
                    cut[i] = row.cutoff
                else:
                    ended.append(i)
            if ended:
                keep = np.ones(len(live), dtype=bool)
                keep[ended] = False
                live = [row for row, kp in zip(live, keep.tolist()) if kp]
                X, pos, end, lam, room, cut = (X[keep], pos[keep], end[keep], lam[keep],
                                               room[keep], cut[keep])

    def run(self, starts, i0, trajs):
        """Yield the ended rows, walking them in blocks of at most BLOCK_ROWS."""
        screen = getattr(self.model.rates, "territory_batch", None)
        for lo in range(0, len(trajs), BLOCK_ROWS):
            self.screen = screen if len(trajs[lo:lo + BLOCK_ROWS]) >= SCREEN_ROWS else None
            self.grids = _Grids(self.dim, self.record, self.screen is not None)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rows = [self.start(x0, i0, traj) for x0, traj in
                        zip(starts[lo:lo + BLOCK_ROWS], trajs[lo:lo + BLOCK_ROWS])]
                live = [row for row in rows if self.advance(row)]
                if live:
                    self.lockstep(live)
            self.grids = self.screen = None
            yield from rows


def walk(model, starts, i0, cfg, trajs, *, levels=None, stream=None, record=None):
    """Walk trajectory ``trajs[r]`` from ``starts[r]`` for every r, in lockstep.

    Yields one ended row per trajectory, in order, with ``t``, ``x``,
    ``lam``, ``status``, ``escalations``, ``switches`` and the consumed
    ``stream``, plus ``times`` and ``states`` when ``record`` is "nodes" or
    "events".  Rows are walked in blocks of at most ``BLOCK_ROWS``; a row's
    result does not depend on the rows it shares a block with.
    """
    return _Walk(model, cfg, levels, stream, record).run(starts, i0, trajs)


def simulate(model, x0, i0, cfg, *, traj=0, record="nodes", levels=None,
             stream=None):
    """Full trajectory with stop-level escalation: a batch of one of ``walk``.

    Walks the trajectory once through ``levels`` (default: stop_level
    doubling up to max_stop_level).  When |X| + regime reaches the current
    level at a node, the level is raised in place: (level, t) is appended to
    ``escalations``, the node's remaining marks are classified under the new
    level's cutoff, and the walk goes on over a fresh grid drawn from that
    node.  Reaching the last level is an operational explosion.  record
    "nodes" keeps every grid node, any other value only the event nodes.

    The master stream is sampled from (cfg.seed, traj), reused across levels
    and extended by superposition when the auto-selected cutoff outgrows it.
    A caller-supplied ``stream`` must cover the horizon and is never
    extended: a level whose cutoff exceeds ``stream.k_max`` raises
    ConfigError.  Runs that share (stream, seed, traj) and differ only in a
    cutoff at or above ``auto_truncation`` at the stop level are
    bit-identical up to and including the stop time.
    """
    record = "nodes" if record == "nodes" else "events"
    row, = walk(model, [x0], i0, cfg, [traj], levels=levels, stream=stream,
                record=record)
    switches = row.switches
    # each node carries the regime after the switches at its time
    dst = np.array([int(i0)] + [s.dst for s in switches], dtype=np.int64)
    regimes = dst[np.searchsorted([s.time for s in switches], row.times, side="right")]
    return HybridPath(row.times, row.states, regimes, switches, row.status,
                      row.escalations, row.stream, row.cutoffs)
