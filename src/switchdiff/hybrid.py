"""Interlaced jump-diffusion solver with localization and level escalation.

One trajectory alternates per-environment Euler-Maruyama integration with
mark classification over a shared Poisson stream: integrate the current
regime's diffusion up to the next stream event, classify the event's mark
against the current regime row, apply the displacement, repeat.  The walk
runs on the Brownian grid induced by *all* master-stream events (inactive
events stay grid breakpoints), so two runs that differ only in the mark
cutoff consume identical randomness and produce bit-identical paths while
|X| + regime stays below the stop level.

When |X| + regime reaches the stop level at a grid node, ``simulate``
raises the level in place: it extends the stream by superposition if the
new cutoff outgrows it, classifies the node's remaining marks and walks on
over a grid drawn from that node, so every lower-level path is a prefix of
the higher-level one.  Reaching the level ceiling or a non-finite state is
an operational explosion, since true blow-up is unobservable in finite
precision.  ``simulate`` holds the package's only Euler-Maruyama loop;
with zero rates a path is the plain recursion on the grid nodes, which the
tests pin against a reference loop.
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


def _enter_level(cfg, model, level, stream, supplied, traj, li):
    """Cutoff of the li-th level, and the stream extended to cover it."""
    cutoff = _resolve_cutoff(cfg, model, level)
    if cutoff > stream.k_max:
        if supplied:
            raise ConfigError(
                f"stream mark ceiling {stream.k_max} below required cutoff {cutoff}")
        stream = extend_stream(stream, cutoff, cfg.seed, traj, chunk=li)
    return cutoff, stream


def _keep(T, S, record, nodes, X, ev_at, end):
    """Append a grid's recorded times and states before node ``end``."""
    if record == "nodes":
        keep = slice(0, end)
    else:
        keep = np.unique(np.append(0, ev_at[ev_at < end]))
    T.append(nodes[keep])
    S.append(X[keep])


def simulate(model, x0, i0, cfg, *, traj=0, record="nodes", levels=None,
             stream=None):
    """Full trajectory with stop-level escalation.

    Walks the trajectory once through ``levels`` (default: stop_level
    doubling up to max_stop_level).  When |X| + regime reaches the current
    level at a node, the level is raised in place: (level, t) is appended to
    ``escalations``, the node's remaining marks are classified under the new
    level's cutoff, and the walk goes on over a fresh grid drawn from that
    node.  Reaching the last level is an operational explosion.

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
    horizon = cfg.horizon if cfg.horizon is not None else model.horizon
    if not horizon > 0:
        raise ConfigError("horizon must be positive")
    horizon = float(horizon)
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

    d = model.dim
    drift, dispersion = model.drift, model.dispersion
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (d,):
        raise ConfigError(f"initial state shape {x.shape} does not match dim {d}")
    r = abs(x[0]) if d == 1 else np.sqrt(x @ x)
    lam = int(i0)
    t = 0.0
    li, level = 0, levels[0]
    cutoff, stream = _enter_level(cfg, model, level, stream, supplied, traj, 0)
    switches: List[Switch] = []
    escalations = []
    T, S = [], []  # recorded times and states of the grids left behind
    nodes = None
    k = e = n_ev = 0
    # set while the grid must be drawn from node k before the next step: at
    # the start, and once the level was raised at node k
    stale = True
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            while True:
                if not (r + lam < level):
                    if not np.isfinite(r):
                        status = PathStatus("exploded", float(t), None)
                        break
                    escalations.append((level, float(t)))
                    if li == len(levels) - 1:
                        status = PathStatus("exploded", float(t), level)
                        break
                    stale = True
                    li += 1
                    level = levels[li]
                    cutoff, stream = _enter_level(cfg, model, level, stream,
                                                  supplied, traj, li)
                elif e < n_ev and ev_node[e] == k:
                    z = ev_z[e]
                    e += 1
                    if z < cutoff:
                        dlt = mark_displacement(model, lam, x, z)
                        if dlt:
                            switches.append(Switch(float(t), lam, lam + dlt, z))
                            lam += dlt
                elif stale:
                    if t >= horizon:
                        status = PathStatus("horizon")
                        break
                    if nodes is not None:
                        _keep(T, S, record, nodes, X, ev_at, k)
                    lo = int(np.searchsorted(stream.times, t, side="right"))
                    hi = int(np.searchsorted(stream.times, horizon, side="left"))
                    ev_t = stream.times[lo:hi]
                    bp = np.unique(np.concatenate((np.array([t, horizon]), ev_t)))
                    grid = make_grid(bp, cfg.dt_target, d, brng)
                    nodes, steps, incr = grid.nodes, grid.steps, grid.increments
                    ev_at = grid.break_index[np.searchsorted(bp, ev_t)]
                    ev_node, ev_z = ev_at.tolist(), stream.marks[lo:hi].tolist()
                    n_nodes, n_ev = nodes.size, len(ev_node)
                    X = np.empty((n_nodes, d))
                    X[0] = x
                    t = nodes[0]
                    k = e = 0
                    stale = False
                else:
                    target = ev_node[e] if e < n_ev else n_nodes - 1
                    while k < target:
                        x = x + drift(x, lam, t) * steps[k] + dispersion(x, lam, t) @ incr[k]
                        k += 1
                        X[k] = x
                        t = nodes[k]
                        r = abs(x[0]) if d == 1 else np.sqrt(x @ x)
                        if not (r + lam < level):
                            break
                    else:
                        if e == n_ev:
                            status = PathStatus("horizon")
                            break
        except (OverflowError, FloatingPointError):
            # an overflow while classifying a mark carried over a level change
            # propagates; one in a step or in-grid classification ends the
            # path at a non-finite next node
            if stale:
                raise
            k = min(k + 1, n_nodes - 1)
            t = nodes[k]
            x = np.full(d, np.nan)
            status = PathStatus("exploded", float(t), None)
    if nodes is not None:
        _keep(T, S, record, nodes, X, ev_at, k)
    times = np.concatenate(T + [[t]])
    # each node carries the regime after the switches at its time
    dst = np.array([int(i0)] + [s.dst for s in switches], dtype=np.int64)
    regimes = dst[np.searchsorted([s.time for s in switches], times, side="right")]
    return HybridPath(times, np.concatenate(S + [[x]]), regimes, switches, status,
                      escalations, stream)
