"""Monte Carlo verification layer.

Estimates the quantities the non-explosion certificates and the continuity
theory make checkable: growth-functional moments against their Gronwall
bound, stop-time tail probabilities across localization levels, semigroup
continuity profiles under common random numbers, and a matrix-exponential
law check for the pure switching mechanism.  Every probe reduces over the
terminal records of ``run_ensemble``; none re-implements dynamics.
Records are merged by trajectory index, so estimates do not depend on
worker count or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from . import hybrid
from ._parallel import map_indices
from ._rng import AUX, substream
from .certify import gronwall_bound_poly, tau_tail_bound_poly
from .errors import ConfigError, TruncationLeak, checked_int
from .hybrid import _level_schedule, _Walk
from .model import radius

# largest simulated mass above j_trunc that ctmc_oracle accepts
ORACLE_LEAK_TOL = 1e-3
# the fields of run_ensemble's terminal record, in record order, with their dtypes
_RECORD = (("t_end", float), ("x_end", float), ("lam_end", np.int64), ("kind", str),
           ("tau", float), ("nonfinite", bool), ("hit", float), ("max_regime", np.int64),
           ("switches", np.int64))


@dataclass
class ProbeReport:
    """Labelled estimates with 95% confidence half-widths and diagnostics.

    ``intervals`` maps some labels to a 95% confidence interval of their
    own (a Wilson score interval for a probability); ``rows`` does not
    write it.
    """

    name: str
    params: Dict[str, object]
    labels: List[str]
    estimates: List[float]
    half_widths: List[float]
    n: int
    diagnostics: Dict[str, object]
    intervals: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def value(self, label):
        return self.estimates[self.labels.index(label)]

    def half_width(self, label):
        return self.half_widths[self.labels.index(label)]

    def rows(self):
        par = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        diag = ";".join(f"{k}={v}" for k, v in sorted(self.diagnostics.items()))
        return [[self.name, par, lab, est, hw, self.n, diag]
                for lab, est, hw in zip(self.labels, self.estimates, self.half_widths)]


def run_ensemble(model, x0, i0, cfg, n, *, threads=1, traj0=0, levels=None):
    """Simulate trajectories traj0 .. traj0 + n - 1 and return their terminal records.

    The result maps each field to one array indexed by trajectory:
    ``t_end``, ``x_end`` (n, dim), ``lam_end``, ``kind`` (the status kind),
    ``tau`` (NaN when the status has none), ``nonfinite``, ``hit`` (n,
    len(levels): the stop time of each level, inf when not reached; a
    non-finite blow-up hits every level it did not stop at), ``max_regime``
    and ``switches`` (switch count).  ``levels`` is the level schedule; by
    default the config's escalation schedule.  Every record equals the one
    ``simulate`` gives for the same trajectory.  n (>= 1), i0 and each traj0
    (>= 0) follow SimConfig's integer rule.

    x0 may also hold several starts as an (m, dim) array; every array then
    gains a leading start axis, and traj0 is one first trajectory index for
    all starts or a sequence with one per start.  Starts with equal state
    bytes and first index would walk alike bit for bit, so each of the u
    distinct (start, index) pairs is walked once, after every start is
    checked, and its records go to every start that repeats it.  The u * n
    trajectories are walked by one ``hybrid._Walk`` in lockstep blocks, over
    at most one worker pool, which starts only when every worker gets two
    blocks.  Rows are trajectory-major (row r is pair r % u at index r // u),
    so the coupled starts of one index fall in one block and share its draws.
    """
    # built and checked before any worker starts, so bad input fails in this process
    n = checked_int(n, "n", 1)
    runner = _Walk(model, cfg, levels, None, None)
    levels = runner.levels
    slot = {lv: j for j, lv in enumerate(levels)}
    several = np.ndim(x0) == 2
    i0, starts = runner.check(list(np.asarray(x0, dtype=float)) if several else [x0], i0)
    m = len(starts)
    first = [checked_int(k, "traj0", 0) for k in ([traj0] * m if np.ndim(traj0) == 0 else traj0)]
    if len(first) != m:
        raise ConfigError("traj0 needs one entry per start")
    # (state bytes, first index) -> (column, start, first index), in first-seen order
    pairs = {}
    pair_of = [pairs.setdefault((start[0].tobytes(), k), (len(pairs), start, k))[0]
               for start, k in zip(starts, first)]
    walked = list(pairs.values())
    u = len(walked)

    def terminal(row):
        st = row.status
        # a non-finite blow-up hits every level it did not stop at
        hit = [st.tau if st.nonfinite else math.inf] * len(levels)
        for lv, tau in row.escalations:
            hit[slot[lv]] = tau
        # in the order of _RECORD
        return (float(row.t), tuple(row.x.tolist()), row.lam, st.kind,
                math.nan if st.tau is None else st.tau, st.nonfinite, tuple(hit),
                max([i0] + [s.dst for s in row.switches]), len(row.switches))

    def block(lo, hi):
        rows = range(lo, hi)
        return [terminal(row) for row in runner.run(
            i0, [walked[r % u][1] for r in rows], [walked[r % u][2] + r // u for r in rows])]

    recs = map_indices(block, u * n, threads, hybrid.BLOCK_ROWS)
    # no starts give no records, and an empty column under every field
    cols = list(zip(*(rec for c in pair_of for rec in recs[c::u]))) or [()] * len(_RECORD)
    lead = (m, n) if several else (n,)
    trail = {"x_end": (model.dim,), "hit": (len(levels),)}
    return {name: np.array(col, dtype=dtype).reshape(lead + trail.get(name, ()))
            for (name, dtype), col in zip(_RECORD, cols)}


def _mean_ci(values):
    """Mean and 95% half-width; a constant sample (one value too) gives its value and 0."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return float("nan"), float("nan")
    if (v == v[0]).all():
        return float(v[0]), 0.0
    return float(v.mean()), 1.96 * float(v.std(ddof=1)) / math.sqrt(v.size)


def _binom_hw(p_hat, n):
    return 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def _wilson(p_hat, n):
    """The 95% Wilson score interval of a proportion p_hat of n trials.

    Unlike the Wald half-width, which is 0 at p_hat = 0 or 1, it keeps a
    width of about z^2 / n there (z = 1.96).
    """
    z = 1.96
    shrink = 1.0 + z * z / n
    centre = (p_hat + z * z / (2 * n)) / shrink
    half = z / shrink * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n + z * z / (4 * n * n))
    return max(centre - half, 0.0), min(centre + half, 1.0)


def estimate_moment(model, cert, x0, i0, t, n, cfg, *, threads=1):
    """Estimate E[(1+|X|^2)^p + p*regime^beta] at t stopped at the level ceiling.

    The caller is expected to have certified the model (check_condition_poly
    on a covering grid); the report pairs the estimate with the certificate's
    Gronwall bound.  t must be finite and >= 0.  Non-finite blow-ups are
    excluded from the mean and counted in diagnostics.
    """
    p, beta = cert.p, cert.beta
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    ens = run_ensemble(model, x0, i0, replace(cfg, horizon=float(t)), n, threads=threads)
    ok = ~ens["nonfinite"]
    est, hw = _mean_ci([(1.0 + float(xe @ xe)) ** p + p * float(le) ** beta
                        for xe, le in zip(ens["x_end"][ok], ens["lam_end"][ok])])
    return ProbeReport(
        "moment",
        {"t": t, "p": p, "beta": beta, "x0": list(map(float, x0)), "i0": i0},
        ["moment", "gronwall_bound"],
        [est, gronwall_bound_poly(cert, x0, i0, t)],
        [hw, 0.0], int(ok.sum()),
        {"explosions": int(n - ok.sum()),
         "level_stops": int((ens["kind"][ok] == "exploded").sum())})


def estimate_tau_tail(model, x0, i0, t, m_list, delta, n, cfg, *, cert=None,
                      n_starts=5, threads=1):
    """Estimate P(stop time of level M <= t) for each M, over a ball of starts.

    Starts are x0 plus points at distance delta (seeded, deterministic); all
    starts share trajectory substreams, so the per-M supremum inherits the
    per-path monotonicity of stop times in the level; repeated starts (in
    one dimension the ball is x0 +- delta) are walked once.  When a
    polynomial certificate is supplied, the analytic tail bound is reported
    per level, taken once per distinct start.
    Every tail estimate also gets its Wilson score interval in
    ``intervals``.  t must be finite and >= 0, and n_starts >= 1 (integer rule).
    """
    n_starts = checked_int(n_starts, "n_starts", 1)
    levels = _level_schedule(cfg, sorted(m_list))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    aux = substream(cfg.seed, 0, AUX)
    starts = [x0]
    for _ in range(n_starts - 1):
        u = aux.standard_normal(d)
        nu = float(np.linalg.norm(u))
        starts.append(x0 + (delta / nu) * u if nu > 0 else x0.copy())
    ens = run_ensemble(model, np.array(starts), i0, replace(cfg, horizon=float(t)), n,
                       threads=threads, levels=levels)
    distinct = {y.tobytes(): y for y in starts}.values()
    explosions = int(ens["nonfinite"].sum())
    tails = (ens["hit"] <= float(t)).mean(axis=1)

    labels, ests, hws, intervals = [], [], [], {}
    for li, lv in enumerate(levels):
        top = int(np.argmax(tails[:, li]))
        named = [(f"tail[M={lv},start={si}]", si) for si in range(len(starts))]
        for label, si in named + [(f"tail_sup[M={lv}]", top)]:
            labels.append(label)
            ests.append(float(tails[si, li]))
            hws.append(_binom_hw(tails[si, li], n))
            intervals[label] = _wilson(float(tails[si, li]), n)
        if cert is not None:
            labels.append(f"bound[M={lv}]")
            ests.append(max(tau_tail_bound_poly(cert, y, i0, t, lv) for y in distinct))
            hws.append(0.0)
    return ProbeReport(
        "tau_tail",
        {"t": t, "delta": delta, "m_list": levels, "i0": i0,
         "x0": list(map(float, x0)), "n_starts": len(starts)},
        labels, ests, hws, n, {"explosions": explosions}, intervals,
    )


def feller_probe(model, f, t, x, i, offsets, n, cfg, *, couple=True, threads=1):
    """Continuity profile of x -> E f(X_t, regime_t) around a start point.

    Estimates the semigroup value at x and at each offset start.  With
    couple=True every start reuses the same per-trajectory substreams --
    identical jump stream and Brownian increments -- which conditions on the
    frozen jump path and gives low-variance paired differences (at offset 0
    the difference is exactly zero: that start reuses the walk of x).  With
    couple=False replicas are independent.  Paths that end before t (level
    ceiling or blow-up) are evaluated at their terminal state and counted in
    diagnostics.  t must be finite and >= 0; an offset is a number or a
    vector of x's dimension.  One replica gives half-widths 0, as in ``_mean_ci``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    deltas = [np.zeros(d)]
    for off in offsets:
        o = np.atleast_1d(np.asarray(off, dtype=float))
        if o.size not in (1, d):
            raise ConfigError(f"an offset must have 1 or {d} coordinates, got {o.size}")
        deltas.append(np.full(d, o[0]) if o.size == 1 and d > 1 else o)
    run_cfg = replace(cfg, horizon=float(t))

    first = [0 if couple else di * n for di in range(len(deltas))]
    ens = run_ensemble(model, np.array([x + dv for dv in deltas]), i, run_cfg, n,
                       threads=threads, traj0=first)
    vals = np.array([[float(f(xe, int(le))) for xe, le in zip(xs, ls)]
                     for xs, ls in zip(ens["x_end"], ens["lam_end"])])
    truncated = (ens["kind"] != "horizon").sum(axis=1)

    labels, ests, hws = [], [], []
    for di, dv in enumerate(deltas):
        tag = f"{float(dv[0]):g}" if d == 1 else f"{float(np.linalg.norm(dv)):g}"
        m, hw = _mean_ci(vals[di])
        labels.append(f"ptf[delta={tag}]")
        ests.append(m)
        hws.append(hw)
        diff = vals[di] - vals[0]
        if couple:
            dm, dhw = _mean_ci(diff)
        else:
            dm = float(diff.mean())
            dhw = (1.96 * math.sqrt(vals[di].var(ddof=1) / n + vals[0].var(ddof=1) / n)
                   if n > 1 else 0.0)
        labels.append(f"diff[delta={tag}]")
        ests.append(abs(dm))
        hws.append(dhw)
    return ProbeReport(
        "feller",
        {"t": t, "x": list(map(float, x)), "i": i, "couple": couple,
         "offsets": [float(np.linalg.norm(np.atleast_1d(o))) for o in offsets]},
        labels, ests, hws, n, {"truncated": int(truncated.sum())},
    )


def ctmc_oracle(model, i0, t, j_trunc, n, cfg, *, x0=None, threads=1):
    """Compare the simulated switching law against the matrix-exponential law.

    Valid for models whose diffusion is frozen (b = sigma = 0) or whose
    rates do not depend on x; rates are evaluated at x0.  The truncated
    generator keeps full row sums, so its exponential gives the exact
    sub-probability law of paths that never leave {1..j_trunc}; the
    empirical law is restricted the same way, leaving only sampling noise.
    t must be finite and >= 0, x0 finite, j_trunc from 2 to 400 and i0 from 1
    to j_trunc (integer rule).  Raises TruncationLeak when the simulated mass
    above j_trunc exceeds ORACLE_LEAK_TOL.
    """
    J, i0 = checked_int(j_trunc, "j_trunc", 2), checked_int(i0, "i0", 1)
    if J > 400:
        raise ConfigError("j_trunc must be between 2 and 400")
    if i0 > J:
        raise ConfigError("i0 must lie within the truncated regime window")
    x0 = np.zeros(model.dim) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if not math.isfinite(r0 := radius(x0)):
        raise ConfigError("x0 must be finite")
    ens = run_ensemble(model, x0, i0, replace(cfg, horizon=float(t)), n, threads=threads,
                       levels=[J + 2 + math.ceil(r0)])
    rates = model.rates
    gen = np.zeros((J, J))
    for a in range(1, J + 1):
        gen[a - 1] = rates.rate_block(a, 1, J + 1, x0)
        gen[a - 1, a - 1] = -rates.row_sum(a, x0)
    from scipy.linalg import expm  # loaded here, not at import, as in _tail_integral
    p_exact = expm(gen * float(t))[i0 - 1]
    leak_exact = max(0.0, 1.0 - float(p_exact.sum()))

    stayed = ens["max_regime"] <= J
    leak_sim = float(1.0 - stayed.mean())
    if leak_sim > ORACLE_LEAK_TOL:
        raise TruncationLeak(f"simulated mass {leak_sim:.3g} above truncation {J} "
                             f"exceeds {ORACLE_LEAK_TOL:g}")
    counts = np.bincount(ens["lam_end"][stayed], minlength=J + 1)[1:J + 1]
    p_hat = counts / n
    tv = 0.5 * (np.abs(p_hat - p_exact).sum() + abs(leak_sim - leak_exact))

    expected = np.append(p_exact, leak_exact) * n
    observed = np.append(counts, n - int(stayed.sum())).astype(float)
    use = expected >= 5.0
    chi2 = float(((observed[use] - expected[use]) ** 2 / expected[use]).sum()) if use.any() else 0.0

    labels = ["tv", "chi2", "chi2_bins", "leak_sim", "leak_exact"]
    ests = [float(tv), chi2, float(use.sum()), leak_sim, leak_exact]
    hws = [0.0] * 5
    for j in range(1, J + 1):
        labels += [f"p_hat[{j}]", f"p_exact[{j}]"]
        ests += [float(p_hat[j - 1]), float(p_exact[j - 1])]
        hws += [_binom_hw(float(p_hat[j - 1]), n), 0.0]
    return ProbeReport(
        "ctmc_oracle",
        {"t": t, "i0": i0, "j_trunc": J, "x0": list(map(float, x0))},
        labels, ests, hws, n,
        {"explosions": int(ens["nonfinite"].sum()), "stayed": int(stayed.sum())},
    )
