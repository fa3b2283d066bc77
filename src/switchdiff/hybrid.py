"""Interlaced jump-diffusion solver with localization and level escalation.

One trajectory alternates per-environment Euler-Maruyama integration with
mark classification over a shared Poisson stream: integrate the current
regime's diffusion up to the next stream event, classify the event's mark
against the current regime row, apply the displacement, repeat.  The walk
runs on the Brownian grid induced by *all* master-stream events (inactive
events stay grid breakpoints), so two runs that differ only in the mark
cutoff consume identical randomness and produce bit-identical paths while
|X| + regime stays below the stop level.

The path is stopped at the first grid time where |X| + regime reaches the
stop level.  ``simulate`` restarts a stopped trajectory from its stopped
state with a doubled level (extending the stream by superposition when the
required cutoff outgrows it) until the horizon is reached or the level
ceiling declares an operational explosion.  Explosion is declared
operationally -- ceiling exceeded or non-finite state -- since true blow-up
is unobservable in finite precision.

``_run_level`` holds the package's only Euler-Maruyama loop.  Between
events it is the plain fixed-regime recursion on the grid nodes, so with
zero rates a path is that recursion node for node; the tests pin this
against a reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._rng import BROWNIAN, substream
from .errors import ConfigError
from .integrate import make_grid
from .jumps import JumpStream, extend_stream, sample_stream
from .model import mark_displacement


def _as_state(x0, dim):
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (dim,):
        raise ConfigError(f"initial state shape {x.shape} does not match dim {dim}")
    return x


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

    kind is one of "horizon" (ran to the time horizon), "stopped" (hit the
    stop level; tau and level are set), "exploded" (operational explosion:
    either the escalation ceiling was exceeded, with level set to it, or a
    state coordinate became non-finite, with level None; tau estimates the
    failure time).
    """

    kind: str
    tau: Optional[float] = None
    level: Optional[int] = None

    @property
    def reached_horizon(self):
        return self.kind == "horizon"

    @property
    def stopped(self):
        return self.kind == "stopped"

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
    consumed, including any extension bands added for higher levels.
    """

    times: np.ndarray
    states: np.ndarray
    regimes: np.ndarray
    switches: List[Switch]
    status: PathStatus
    escalations: List[Tuple[int, float]] = field(default_factory=list)
    stream: Optional[JumpStream] = None

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


@dataclass
class _LevelPiece:
    times: np.ndarray
    states: np.ndarray
    regimes: np.ndarray
    switches: List[Switch]
    status: PathStatus
    end_time: float
    end_state: np.ndarray
    end_regime: int
    # marks at the stop node left unclassified because the level check fired
    # on arrival; the continuation level must process them at its start time
    pending_marks: List[float]


class _Done(Exception):
    pass


def _run_level(model, x0, lam0, t_start, stop_level, cutoff, stream, brng,
               dt_target, horizon, record, initial_marks=()):
    """Run one fixed-level trajectory piece from (t_start, x0, lam0).

    initial_marks are marks firing exactly at t_start, inherited from a
    lower level that stopped on arrival at an event node before classifying
    them; they are processed first, under this level's cutoff.
    """
    d = model.dim
    x = np.array(x0, dtype=float)
    lam = int(lam0)
    switches: List[Switch] = []
    r = abs(x[0]) if d == 1 else np.sqrt(x @ x)
    if not (r + lam < stop_level):
        kind = "stopped" if np.isfinite(r) else "exploded"
        status = PathStatus(kind, float(t_start), stop_level if kind == "stopped" else None)
        return _single_node_piece(t_start, x, lam, status, switches,
                                  list(initial_marks))
    for mi, z in enumerate(initial_marks):
        if z < cutoff:
            dlt = mark_displacement(model, lam, x, z)
            if dlt:
                switches.append(Switch(float(t_start), lam, lam + dlt, float(z)))
                lam += dlt
                if not (r + lam < stop_level):
                    status = PathStatus("stopped", float(t_start), stop_level)
                    return _single_node_piece(t_start, x, lam, status, switches,
                                              list(initial_marks[mi + 1:]))
    if t_start >= horizon:
        return _single_node_piece(t_start, x, lam, PathStatus("horizon"), switches, [])

    lo = int(np.searchsorted(stream.times, t_start, side="right"))
    hi = int(np.searchsorted(stream.times, horizon, side="left"))
    ev_t = stream.times[lo:hi]
    ev_z = stream.marks[lo:hi]
    bp = np.unique(np.concatenate((np.array([t_start, horizon]), ev_t)))
    grid = make_grid(bp, dt_target, d, brng)
    nodes, steps, incr = grid.nodes, grid.steps, grid.increments
    ev_node = grid.break_index[np.searchsorted(bp, ev_t)]
    n_nodes = nodes.size
    n_ev = ev_t.size

    drift, dispersion = model.drift, model.dispersion
    X = np.empty((n_nodes, d))
    X[0] = x
    LAM = np.empty(n_nodes, dtype=np.int64)
    status = None
    end = n_nodes - 1
    span = 0
    k = 0
    e = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            while True:
                target = int(ev_node[e]) if e < n_ev else n_nodes - 1
                t = nodes[k]
                while k < target:
                    x = x + drift(x, lam, t) * steps[k] + dispersion(x, lam, t) @ incr[k]
                    k += 1
                    X[k] = x
                    t = nodes[k]
                    r = abs(x[0]) if d == 1 else np.sqrt(x @ x)
                    if not (r + lam < stop_level):
                        end = k
                        if np.isfinite(r):
                            status = PathStatus("stopped", float(t), stop_level)
                        else:
                            status = PathStatus("exploded", float(t), None)
                        raise _Done
                if e >= n_ev:
                    end = k
                    status = PathStatus("horizon")
                    raise _Done
                z = float(ev_z[e])
                e += 1
                if z < cutoff:
                    dlt = mark_displacement(model, lam, x, z)
                    if dlt:
                        LAM[span:k] = lam
                        span = k
                        switches.append(Switch(float(nodes[k]), lam, lam + dlt, z))
                        lam += dlt
                        # x is unchanged since r was last computed
                        if not (r + lam < stop_level):
                            end = k
                            status = PathStatus("stopped", float(nodes[k]), stop_level)
                            raise _Done
        except _Done:
            pass
        except (OverflowError, FloatingPointError):
            # a coefficient evaluation failed mid-step: non-finite next node
            end = min(k + 1, n_nodes - 1)
            X[end] = np.nan
            status = PathStatus("exploded", float(nodes[end]), None)
    LAM[span:end + 1] = lam
    pending = [float(ev_z[i]) for i in range(e, n_ev) if ev_node[i] == end]

    if record == "nodes":
        keep = np.arange(end + 1)
    else:
        keep = np.unique(np.concatenate(
            (np.array([0, end], dtype=np.intp), ev_node[ev_node <= end])))
    return _LevelPiece(nodes[keep].copy(), X[keep].copy(), LAM[keep].copy(),
                       switches, status, float(nodes[end]), X[end].copy(), lam,
                       pending)


def _single_node_piece(t, x, lam, status, switches=None, pending=None):
    return _LevelPiece(np.array([float(t)]), np.array([x], dtype=float),
                       np.array([lam], dtype=np.int64), list(switches or []),
                       status, float(t), np.array(x, dtype=float), int(lam),
                       list(pending or []))


def _assemble(pieces, status, escalations, stream):
    # later pieces win the junction node, so a switch applied at a restart
    # time keeps the path right-continuous in the regime
    times = [p.times[:-1] for p in pieces[:-1]] + [pieces[-1].times]
    states = [p.states[:-1] for p in pieces[:-1]] + [pieces[-1].states]
    regimes = [p.regimes[:-1] for p in pieces[:-1]] + [pieces[-1].regimes]
    switches = [s for p in pieces for s in p.switches]
    return HybridPath(np.concatenate(times), np.vstack(states),
                      np.concatenate(regimes), switches, status, escalations,
                      stream)


def _resolve_horizon(cfg, model):
    h = cfg.horizon if cfg.horizon is not None else model.horizon
    if not h > 0:
        raise ConfigError("horizon must be positive")
    return float(h)


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


def simulate(model, x0, i0, cfg, *, traj=0, record="nodes", levels=None,
             stream=None):
    """Full trajectory with stop-level escalation.

    Runs fixed-level pieces through ``levels`` (default: stop_level doubling
    up to max_stop_level), restarting each stopped piece from its stopped
    state.  A stop at the last level is an operational explosion.

    The master stream is sampled from (cfg.seed, traj), reused across levels
    and extended by superposition when the auto-selected cutoff outgrows it.
    A caller-supplied ``stream`` must cover the horizon and is never
    extended: a level whose cutoff exceeds ``stream.k_max`` raises
    ConfigError.  Runs that share (stream, seed, traj) and differ only in a
    cutoff at or above ``auto_truncation`` at the stop level are
    bit-identical up to and including the stop time.
    """
    if levels is None:
        levels = _level_schedule(cfg)
    else:
        levels = [int(m) for m in levels]
        if not all(b > a for a, b in zip(levels, levels[1:])):
            raise ConfigError("levels must be strictly increasing")
    horizon = _resolve_horizon(cfg, model)
    supplied = stream is not None
    if not supplied:
        if cfg.stream_rate == "auto":
            rate = max(_resolve_cutoff(cfg, model, levels[0]), 0.0)
        else:
            rate = float(cfg.stream_rate)
        stream = sample_stream(rate, horizon, cfg.seed, traj)
    elif stream.horizon < horizon:
        raise ConfigError("stream horizon does not cover the simulation horizon")
    brng = substream(cfg.seed, traj, BROWNIAN)

    x = _as_state(x0, model.dim)
    lam = int(i0)
    t = 0.0
    marks = ()
    pieces = []
    escalations = []
    status = None
    for li, level in enumerate(levels):
        cutoff = _resolve_cutoff(cfg, model, level)
        if cutoff > stream.k_max:
            if supplied:
                raise ConfigError(
                    f"stream mark ceiling {stream.k_max} below required cutoff {cutoff}")
            stream = extend_stream(stream, cutoff, cfg.seed, traj, chunk=li)
        piece = _run_level(model, x, lam, t, level, cutoff, stream, brng,
                           cfg.dt_target, horizon, record, initial_marks=marks)
        pieces.append(piece)
        status = piece.status
        if not status.stopped:
            break
        escalations.append((level, status.tau))
        if li == len(levels) - 1:
            status = PathStatus("exploded", status.tau, level)
            break
        t, x, lam = piece.end_time, piece.end_state, piece.end_regime
        marks = tuple(piece.pending_marks)
    return _assemble(pieces, status, escalations, stream)
