"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold; run with -v
(or -s) to see the per-criterion outcome lines.
"""

import math
import os

import numpy as np

from switchdiff import (PolynomialCertificate, SimConfig, auto_truncation,
                        check_condition_poly, check_local_bounded_beta_sum,
                        ctmc_oracle, estimate_moment, estimate_tau_tail,
                        feller_probe, make_model, run_ensemble, sample_stream,
                        simulate)
from switchdiff.certify import GridSpec, PowerLawRates, default_grid

THREADS = min(4, os.cpu_count() or 1)


def announce(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def bit_identical(a, b):
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.regimes, b.regimes)
            and a.switches == b.switches
            and a.status == b.status)


def test_c01_cutoff_stability_regression():
    """100 seeded trajectories, cutoff auto vs auto*1.5, bit-identical."""
    for name in ("ou2", "powerlaw"):
        model = make_model(name)
        level = 6
        k_auto = auto_truncation(model, level)
        rate = k_auto * 1.5
        for traj in range(100):
            stream = sample_stream(rate, model.horizon, seed=1000, traj=traj)
            runs = []
            for cutoff in (k_auto, k_auto * 1.5):
                cfg = SimConfig(stop_level=level, mark_cutoff=cutoff,
                                seed=1000, dt_target=0.01)
                runs.append(simulate(model, [1.0], 1, cfg, traj=traj,
                                     record="nodes", stream=stream))
            assert bit_identical(runs[0], runs[1]), (name, traj)
    announce(1, "cutoff stability (zero tolerance)")


def test_c02_thinning_law_oracle():
    """ctmc2 switching law against the closed-form transition probability."""
    model = make_model("ctmc2", q12=1.0, q21=2.0)
    n = 100_000
    cfg = SimConfig(stop_level=5, seed=2025, dt_target=1.0)
    lam = run_ensemble(model, [0.0], 1, cfg, n, threads=THREADS)["lam_end"]
    p_hat = float((lam == 2).mean())
    p_true = (1.0 / 3.0) * (1.0 - math.exp(-3.0))
    tol = 3.0 * math.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(p_hat - p_true) < tol, (p_hat, p_true, tol)
    announce(2, f"thinning law |{p_hat:.6f} - {p_true:.6f}| < {tol:.4f}")


def test_c03_ctmc_matrix_exponential_oracle():
    """5-state chain: TV(simulated, expm law) < 0.01 at n = 1e5 per time."""
    model = make_model("ctmcN", n_regimes=5, scale=1.0, horizon=2.0)
    n = 100_000
    for t in (0.5, 1.0, 2.0):
        cfg = SimConfig(stop_level=8, seed=31337, dt_target=max(t, 0.5))
        rep = ctmc_oracle(model, 2, t, 5, n, cfg, threads=THREADS)
        assert rep.value("tv") < 0.01, (t, rep.value("tv"))
    announce(3, "ctmc matrix-exponential oracle TV < 0.01")


POWERLAW_CERT = PolynomialCertificate(p=1.0, beta=1.0, growth=3.0)


def _certified_powerlaw():
    model = make_model("powerlaw", gamma=3.0, p=1.0, theta=1.0, sigma=1.0)
    grid = default_grid(dim=1, radius=10.0, n_radii=21, regimes=12,
                        times=(0.0, 0.5, 1.0))
    report = check_condition_poly(model, POWERLAW_CERT, grid)
    assert report.certified, report.summary()
    return model


def test_c04_gronwall_moment_bound():
    """Monte Carlo moment stays below the certificate bound at t in {0.5, 1}."""
    model = _certified_powerlaw()
    n = 10_000
    cfg = SimConfig(stop_level=8, max_stop_level=64, seed=404, dt_target=0.01)
    for t in (0.5, 1.0):
        rep = estimate_moment(model, POWERLAW_CERT, [1.0], 1, t, n, cfg,
                              threads=THREADS)
        est = rep.value("moment")
        bound = rep.value("gronwall_bound")
        hw = rep.half_width("moment")
        assert est <= bound + 3.0 * hw, (t, est, bound, hw)
        assert rep.diagnostics["explosions"] == 0
    announce(4, "gronwall moment bound")


def test_c05_non_explosion_tail():
    """sup over ball starts of P(stop by t=1) nonincreasing in level, < 1e-2 at 64."""
    model = _certified_powerlaw()
    n = 10_000
    levels = [8, 16, 32, 64]
    cfg = SimConfig(stop_level=8, max_stop_level=64, seed=505, dt_target=0.01)
    rep = estimate_tau_tail(model, [1.0], 1, 1.0, levels, 0.1, n, cfg,
                            cert=POWERLAW_CERT, n_starts=5, threads=THREADS)
    sups = [rep.value(f"tail_sup[M={m}]") for m in levels]
    assert all(b <= a for a, b in zip(sups, sups[1:])), sups
    assert sups[-1] < 1e-2, sups
    announce(5, f"exit tail nonincreasing {sups}, final < 1e-2")


def test_c06_explosion_detection():
    """Superlinear drift from x0=2: operational explosion near t = 0.5."""
    model = make_model("blowup")
    taus = []
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = SimConfig(stop_level=2 ** 40, max_stop_level=2 ** 40,
                        dt_target=dt, seed=0)
        p = simulate(model, [2.0], 1, cfg, record="events")
        assert p.status.kind == "exploded"
        taus.append(p.status.tau)
    assert 0.45 <= taus[-1] <= 0.55, taus
    # Euler under-shoots a convex superlinear drift: detection after 1/x0,
    # converging down toward it under refinement
    assert taus[0] >= taus[1] >= taus[2] >= 0.499, taus
    announce(6, f"explosion time {taus[-1]:.4f} in [0.45, 0.55], refining {taus}")


def test_c07_integrator_weak_order():
    """OU terminal-mean bias is O(dt): log-log slope within [0.7, 1.3]."""
    theta, sigma, x0, t_end = 1.0, 0.25, 10.0, 1.0
    model = make_model("ou2", theta1=theta, theta2=theta,
                       sigma1=sigma, sigma2=sigma, q12=0.0, q21=0.0)
    n = 100_000
    dts = [2.0 ** -6, 2.0 ** -7, 2.0 ** -8]
    biases = []
    for li, dt in enumerate(dts):
        # zero rates: each path is the Euler-Maruyama recursion on [0, t_end]
        cfg = SimConfig(stop_level=64, dt_target=dt, horizon=t_end, seed=700 + li)
        vals = run_ensemble(model, [x0], 1, cfg, n, threads=THREADS)["x_end"][:, 0]
        biases.append(abs(float(vals.mean()) - x0 * math.exp(-t_end)))
    slope = float(np.polyfit(np.log(dts), np.log(biases), 1)[0])
    assert 0.7 <= slope <= 1.3, (slope, biases)
    announce(7, f"weak order slope {slope:.3f} in [0.7, 1.3]")


def test_c08_strong_feller_continuity_profile():
    """Coupled indicator differences shrink with the offset; zero at delta=0."""
    model = make_model("ou2")
    n = 10_000
    cfg = SimConfig(stop_level=16, max_stop_level=1 << 20, seed=808,
                    dt_target=0.01)
    f = lambda x, j: float(x[0] > 0)
    rep = feller_probe(model, f, 1.0, [0.0], 1, [0.0, 0.05, 0.5], n, cfg,
                       couple=True, threads=THREADS)
    assert rep.value("diff[delta=0]") == 0.0
    small = rep.value("diff[delta=0.05]")
    large = rep.value("diff[delta=0.5]")
    assert small <= 0.2 * large, (small, large)
    announce(8, f"continuity profile {small:.4f} <= 0.2 * {large:.4f}, "
                "coupled zero-offset identity exact")


def test_c09_power_law_sandwich():
    """C (j+|x|) <= q_j(x) <= 2C (j+|x|) with C = zeta(3) to 1e-10, exactly."""
    # independent constant: partial sums plus integral tail bracket
    n_terms = 100_000
    ks = np.arange(1, n_terms, dtype=float)
    partial = float((ks ** -3.0).sum())
    tail_lo = n_terms ** -2.0 / 2.0
    tail_hi = tail_lo + n_terms ** -3.0
    c = partial + 0.5 * (tail_lo + tail_hi)
    assert 0.5 * (tail_hi - tail_lo) < 1e-10

    rates = PowerLawRates(gamma=3.0, p=1.0)
    rng = np.random.default_rng(909)
    for _ in range(1000):
        j = int(rng.integers(1, 51))
        x = rng.uniform(-10.0, 10.0, size=1)
        g = j + abs(float(x[0]))
        q = rates.row_sum(j, x)
        assert c * g <= q, (j, x, q)
        assert q <= 2.0 * c * g, (j, x, q)
    announce(9, "power-law row-sum sandwich (exact, 1000 samples)")


def test_c10_series_checker_soundness():
    """Absolute growth-weighted series at (j=1, x=0) equals pi^2/6 to 1e-8."""
    rates = PowerLawRates(gamma=3.0, p=1.0)
    z, zm = np.zeros(1), np.zeros((1, 1))
    from switchdiff import RegimeModel
    model = RegimeModel(1, lambda x, i, t: z, lambda x, i, t: zm, rates, 1.0)
    grid = GridSpec(np.zeros((1, 1)), regimes=1, times=(0.0,))
    rep = check_local_bounded_beta_sum(model, 1.0, grid)
    assert rep.tails_certified
    assert abs(rep.sup - math.pi ** 2 / 6.0) < 1e-8, rep.sup
    announce(10, f"series value {rep.sup:.10f} vs pi^2/6 within 1e-8")
