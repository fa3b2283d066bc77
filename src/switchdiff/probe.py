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
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np
from scipy.linalg import expm

from ._parallel import map_indices
from ._rng import AUX, substream
from .certify import gronwall_bound_poly, tau_tail_bound_poly
from .errors import ConfigError, TruncationLeak
# simulate stays importable from here for code that looks it up in this module
from .hybrid import _level_schedule, simulate, walk  # noqa: F401


@dataclass
class ProbeReport:
    """Labelled estimates with 95% confidence half-widths and diagnostics."""

    name: str
    params: Dict[str, object]
    labels: List[str]
    estimates: List[float]
    half_widths: List[float]
    n: int
    diagnostics: Dict[str, object]

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
    non-finite blow-up hits every level it did not stop at),
    ``max_regime`` and ``switches`` (switch count).  ``levels`` is the
    level schedule; by default the config's escalation schedule.  Every
    record equals the one ``simulate`` gives for the same trajectory.

    x0 may also hold several starts as an (m, dim) array; every array then
    gains a leading start axis, and traj0 is one first trajectory index for
    all starts or a sequence with one per start.  All m * n trajectories are
    walked by ``hybrid.walk`` in lockstep blocks, over one worker pool.
    """
    hit_levels = _level_schedule(cfg) if levels is None else [int(m) for m in levels]
    several = np.ndim(x0) == 2
    starts = list(np.asarray(x0, dtype=float)) if several else [x0]
    m = len(starts)
    first = [int(traj0)] * m if np.ndim(traj0) == 0 else [int(k) for k in traj0]
    if len(first) != m:
        raise ConfigError("traj0 needs one entry per start")

    def terminal(row):
        st = row.status
        hit = dict(row.escalations)
        if st.nonfinite:
            for lv in hit_levels:
                hit.setdefault(lv, st.tau)
        return (float(row.t), tuple(float(v) for v in row.x), row.lam, st.kind,
                math.nan if st.tau is None else st.tau, st.nonfinite,
                tuple(hit.get(lv, math.inf) for lv in hit_levels),
                max([int(i0)] + [s.dst for s in row.switches]), len(row.switches))

    def block(lo, hi):
        rows = range(lo, hi)
        return [terminal(row) for row in walk(
            model, [starts[r // n] for r in rows], i0, cfg,
            [first[r // n] + r % n for r in rows], levels=levels)]

    cols = list(zip(*map_indices(block, m * n, threads))) or [()] * 9
    lead = (m, n) if several else (n,)
    return {
        "t_end": np.array(cols[0], dtype=float).reshape(lead),
        "x_end": np.array(cols[1], dtype=float).reshape(lead + (model.dim,)),
        "lam_end": np.array(cols[2], dtype=np.int64).reshape(lead),
        "kind": np.array(cols[3], dtype=str).reshape(lead),
        "tau": np.array(cols[4], dtype=float).reshape(lead),
        "nonfinite": np.array(cols[5], dtype=bool).reshape(lead),
        "hit": np.array(cols[6], dtype=float).reshape(lead + (len(hit_levels),)),
        "max_regime": np.array(cols[7], dtype=np.int64).reshape(lead),
        "switches": np.array(cols[8], dtype=np.int64).reshape(lead),
    }


def _mean_ci(values):
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return float("nan"), float("nan")
    m = float(v.mean())
    hw = 1.96 * float(v.std(ddof=1)) / math.sqrt(v.size) if v.size > 1 else 0.0
    return m, hw


def _binom_hw(p_hat, n):
    return 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def estimate_moment(model, cert, x0, i0, t, n, cfg, *, threads=1):
    """Estimate E[(1+|X|^2)^p + p*regime^beta] at t stopped at the level ceiling.

    The caller is expected to have certified the model (check_condition_poly
    on a covering grid); the report pairs the estimate with the certificate's
    Gronwall bound.  Non-finite blow-ups are excluded from the mean and
    counted in diagnostics.
    """
    p, beta = cert.p, cert.beta
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if t <= 0.0:
        v0 = (1.0 + float(x0 @ x0)) ** p + p * float(i0) ** beta
        return ProbeReport(
            "moment",
            {"t": t, "p": p, "beta": beta, "x0": list(map(float, x0)), "i0": i0},
            ["moment", "gronwall_bound"],
            [v0, gronwall_bound_poly(cert, x0, i0, 0.0)],
            [0.0, 0.0], n, {"explosions": 0, "level_stops": 0})
    ens = run_ensemble(model, x0, i0, replace(cfg, horizon=float(t)), n,
                       threads=threads)
    ok = ~ens["nonfinite"]
    est, hw = _mean_ci([(1.0 + float(xe @ xe)) ** p + p * float(le) ** beta
                        for xe, le in zip(ens["x_end"][ok], ens["lam_end"][ok])])
    bound = gronwall_bound_poly(cert, x0, i0, t)
    return ProbeReport(
        "moment",
        {"t": t, "p": p, "beta": beta, "x0": list(map(float, x0)), "i0": i0},
        ["moment", "gronwall_bound"],
        [est, bound],
        [hw, 0.0],
        int(ok.sum()),
        {"explosions": int(n - ok.sum()),
         "level_stops": int((ens["kind"][ok] == "exploded").sum())},
    )


def estimate_tau_tail(model, x0, i0, t, m_list, delta, n, cfg, *, cert=None,
                      n_starts=5, threads=1):
    """Estimate P(stop time of level M <= t) for each M, over a ball of starts.

    Starts are x0 plus points at distance delta (seeded, deterministic); all
    starts share trajectory substreams, so the per-M supremum inherits the
    per-path monotonicity of stop times in the level.  When a polynomial
    certificate is supplied, the analytic tail bound is reported per level.
    """
    levels = sorted(int(m) for m in m_list)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    aux = substream(cfg.seed, 0, AUX)
    starts = [x0]
    for _ in range(max(0, n_starts - 1)):
        u = aux.standard_normal(d)
        nu = float(np.linalg.norm(u))
        starts.append(x0 + (delta / nu) * u if nu > 0 else x0.copy())
    run_cfg = replace(cfg, horizon=float(t), stop_level=levels[0],
                      max_stop_level=levels[-1])
    horizon = float(t)

    ens = run_ensemble(model, np.array(starts), i0, run_cfg, n, threads=threads,
                       levels=levels)
    explosions = int(ens["nonfinite"].sum())
    tails = (ens["hit"] <= horizon).mean(axis=1)

    labels, ests, hws = [], [], []
    for li, lv in enumerate(levels):
        for si in range(len(starts)):
            labels.append(f"tail[M={lv},start={si}]")
            ests.append(float(tails[si, li]))
            hws.append(_binom_hw(tails[si, li], n))
        top = int(np.argmax(tails[:, li]))
        labels.append(f"tail_sup[M={lv}]")
        ests.append(float(tails[top, li]))
        hws.append(_binom_hw(tails[top, li], n))
        if cert is not None:
            labels.append(f"bound[M={lv}]")
            ests.append(max(tau_tail_bound_poly(cert, y, i0, t, lv) for y in starts))
            hws.append(0.0)
    return ProbeReport(
        "tau_tail",
        {"t": t, "delta": delta, "m_list": levels, "i0": i0,
         "x0": list(map(float, x0)), "n_starts": len(starts)},
        labels, ests, hws, n, {"explosions": explosions},
    )


def feller_probe(model, f, t, x, i, offsets, n, cfg, *, couple=True, threads=1):
    """Continuity profile of x -> E f(X_t, regime_t) around a start point.

    Estimates the semigroup value at x and at each offset start.  With
    couple=True every start reuses the same per-trajectory substreams --
    identical jump stream and Brownian increments -- which conditions on the
    frozen jump path and gives low-variance paired differences (at offset 0
    the difference is exactly zero).  With couple=False replicas are
    independent.  Paths that end before t (level ceiling or blow-up) are
    evaluated at their terminal state and counted in diagnostics.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    deltas = [np.zeros(d)]
    for off in offsets:
        o = np.atleast_1d(np.asarray(off, dtype=float))
        deltas.append(np.full(d, o[0]) if o.size == 1 and d > 1 else o)
    run_cfg = replace(cfg, horizon=float(t))

    ens = run_ensemble(model, np.array([x + dv for dv in deltas]), i, run_cfg, n,
                       threads=threads,
                       traj0=0 if couple else [di * n for di in range(len(deltas))])
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
            dhw = 1.96 * math.sqrt(vals[di].var(ddof=1) / n + vals[0].var(ddof=1) / n)
        labels.append(f"diff[delta={tag}]")
        ests.append(abs(dm))
        hws.append(dhw)
    return ProbeReport(
        "feller",
        {"t": t, "x": list(map(float, x)), "i": i, "couple": couple,
         "offsets": [float(np.linalg.norm(np.atleast_1d(o))) for o in offsets]},
        labels, ests, hws, n, {"truncated": int(truncated.sum())},
    )


def ctmc_oracle(model, i0, t, j_trunc, n, cfg, *, x0=None, threads=1,
                leak_tol=1e-3):
    """Compare the simulated switching law against the matrix-exponential law.

    Valid for models whose diffusion is frozen (b = sigma = 0) or whose
    rates do not depend on x; rates are evaluated at x0.  The truncated
    generator keeps full row sums, so its exponential gives the exact
    sub-probability law of paths that never leave {1..j_trunc}; the
    empirical law is restricted the same way, leaving only sampling noise.
    Raises TruncationLeak when the simulated mass above j_trunc exceeds
    leak_tol.
    """
    J = int(j_trunc)
    if not 2 <= J <= 400:
        raise ValueError("j_trunc must be between 2 and 400")
    if not 1 <= i0 <= J:
        raise ValueError("i0 must lie within the truncated regime window")
    x0 = np.zeros(model.dim) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    rates = model.rates
    gen = np.zeros((J, J))
    for a in range(1, J + 1):
        for b in range(1, J + 1):
            if a != b:
                gen[a - 1, b - 1] = rates.rate(a, b, x0)
        gen[a - 1, a - 1] = -rates.row_sum(a, x0)
    p_exact = expm(gen * float(t))[i0 - 1]
    leak_exact = max(0.0, 1.0 - float(p_exact.sum()))

    level = J + 2 + int(math.ceil(float(np.linalg.norm(x0))))
    run_cfg = replace(cfg, horizon=float(t), stop_level=level, max_stop_level=level)

    if t > 0.0:
        ens = run_ensemble(model, x0, i0, run_cfg, n, threads=threads)
        lam, top, nonfinite = ens["lam_end"], ens["max_regime"], ens["nonfinite"]
    else:
        lam = top = np.full(n, i0)
        nonfinite = np.zeros(n, dtype=bool)
    stayed = top <= J
    leak_sim = float(1.0 - stayed.mean())
    if leak_sim > leak_tol:
        raise TruncationLeak(
            f"simulated mass {leak_sim:.3g} above truncation {J} exceeds {leak_tol:g}")
    counts = np.bincount(lam[stayed], minlength=J + 1)[1:J + 1]
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
        {"explosions": int(nonfinite.sum()), "stayed": int(stayed.sum())},
    )
