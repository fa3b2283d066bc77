"""Interlacing solver: coupling, localization, escalation, explosion."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm
from scipy.special import zeta as scipy_zeta

from switchdiff import (ConfigError, DenseRates, FunctionRates, PolynomialCertificate,
                        PowerLawRates, RateMatrix, RegimeModel, SimConfig, auto_truncation,
                        ctmc_oracle, estimate_moment, hybrid, make_model, run_ensemble,
                        sample_stream, simulate, truncate_coefficients)
from switchdiff._rng import BROWNIAN, substream
from switchdiff.model import radius
from test_grids import euler_reference, one_grid


def paths_equal(a, b):
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.regimes, b.regimes)
            and a.switches == b.switches
            and a.status == b.status)


EYE = np.eye(1)

# random finite generators: 2 or 3 regimes, off-diagonal rates in [0, 4]
dense_rates = st.integers(2, 3).flatmap(lambda m: st.lists(
    st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m),
    min_size=m, max_size=m)).map(DenseRates)
# the infinite power-law family with summable rows
powerlaw_rates = st.builds(PowerLawRates, gamma=st.floats(2.5, 4.0),
                           p=st.floats(1.0, 2.0))


def growing_rates(a, b):
    """q(x) = a + b |x| on 2 or 3 regimes; the block bound is its sup over |x| <= level."""
    A, B = np.array(a), np.array(b)
    return FunctionRates(len(a), lambda x: A + B * abs(float(x[0])),
                         lambda level: float(A.sum() + B.sum() * level))


# random state-dependent generators: 2 or 3 regimes, q_ij(x) = a_ij + b_ij |x|
function_rates = st.integers(2, 3).flatmap(lambda m: st.tuples(*(
    st.lists(st.lists(st.floats(0.0, hi), min_size=m, max_size=m),
             min_size=m, max_size=m) for hi in (3.0, 1.0)))).map(
    lambda ab: growing_rates(*ab))


def ou_with_rates(rates):
    return RegimeModel(1, lambda x, i, t: -x / i, lambda x, i, t: i * EYE,
                       rates, 1.0)


def rejected_before_any_draw(call):
    """Assert that call() raises ConfigError before a Philox key is derived;
    every random draw of a walk needs one."""
    with mock.patch.object(hybrid, "philox_keys", wraps=hybrid.philox_keys) as keys:
        with pytest.raises(ConfigError):
            call()
    assert keys.call_count == 0


def prefix_equal(short, long):
    n = short.times.size
    return (np.array_equal(short.times, long.times[:n])
            and np.array_equal(short.states, long.states[:n])
            and np.array_equal(short.regimes, long.regimes[:n]))


class TestAutoTruncation:
    def test_no_jumps(self):
        m = make_model("blowup")
        assert auto_truncation(m, 4) == 0.0

    def test_two_regime_constant_rates(self):
        # finite sum by hand: rows beyond the two regimes are zero
        m = make_model("ctmc2", q12=1.0, q21=2.0)
        assert auto_truncation(m, 3) == 3.0

    def test_powerlaw_block_formula(self):
        # independent evaluation of sum_{k=1}^{M+1} 2*zeta(3)*(k + M^p)
        m = make_model("powerlaw", gamma=3.0, p=1.0)
        M = 2
        expected = sum(2.0 * scipy_zeta(3.0) * (k + M) for k in range(1, M + 2))
        assert auto_truncation(m, M) == pytest.approx(expected, rel=1e-9)

    def test_missing_or_nan_bound_rejected(self):
        # rates that declare no ball block bound, and a declared NaN bound
        z, zm = (lambda x, i, t: np.zeros(1)), (lambda x, i, t: np.zeros((1, 1)))
        for rates, message in ((RateMatrix(), "declares no ball block bound"),
                               (FunctionRates(2, lambda x: np.ones((2, 2)), math.nan),
                                "invalid ball block bound nan")):
            with pytest.raises(ConfigError, match=message):
                auto_truncation(RegimeModel(1, z, zm, rates, 1.0), 4)


class TestCutoffStability:
    @pytest.mark.parametrize("name,m_level", [("ou2", 6), ("powerlaw", 6)])
    def test_paths_bit_identical_across_cutoffs(self, name, m_level):
        model = make_model(name)
        k_auto = auto_truncation(model, m_level)
        rate = max(k_auto * 1.5, 1.0)
        for traj in range(20):
            stream = sample_stream(rate, model.horizon, seed=500, traj=traj)
            runs = []
            for cutoff in (k_auto, k_auto * 1.5):
                cfg = SimConfig(stop_level=m_level, mark_cutoff=cutoff, seed=500)
                runs.append(simulate(model, [1.0], 1, cfg, traj=traj,
                                     stream=stream))
            assert paths_equal(runs[0], runs[1])

    def test_localization_prefix(self):
        # a lower stop level's path is a bit-exact prefix of a higher one's
        model = make_model("ou2", sigma1=2.0, sigma2=2.0)
        rate = auto_truncation(model, 12)
        hits = 0
        for traj in range(30):
            stream = sample_stream(rate, model.horizon, seed=7, traj=traj)
            lo = simulate(model, [2.0], 1, SimConfig(
                stop_level=4, mark_cutoff=rate, seed=7), traj=traj, stream=stream)
            hi = simulate(model, [2.0], 1, SimConfig(
                stop_level=12, mark_cutoff=rate, seed=7), traj=traj, stream=stream)
            assert prefix_equal(lo, hi)
            if lo.escalations:
                hits += 1
                if hi.escalations:
                    assert hi.escalations[0][1] >= lo.escalations[0][1]
        assert hits > 0  # the test exercised actual stops

    @settings(max_examples=30, deadline=None)
    @given(rates=st.one_of(dense_rates, powerlaw_rates, function_rates),
           level=st.integers(3, 8),
           scale=st.floats(1.0, 3.0), seed=st.integers(0, 2 ** 16),
           traj=st.integers(0, 99))
    def test_bit_identical_across_cutoffs_random_rates(self, rates, level,
                                                       scale, seed, traj):
        model = ou_with_rates(rates)
        k_auto = auto_truncation(model, level)
        stream = sample_stream(k_auto * scale, model.horizon, seed, traj)
        a, b = (simulate(model, [1.0], 1, SimConfig(
                    stop_level=level, mark_cutoff=cutoff, seed=seed),
                    traj=traj, stream=stream)
                for cutoff in (k_auto, k_auto * scale))
        assert paths_equal(a, b)

    def test_stream_below_cutoff_rejected(self):
        model = make_model("ou2")
        stream = sample_stream(1.0, model.horizon, seed=0)
        cfg = SimConfig(stop_level=6, mark_cutoff=5.0, seed=0)
        with pytest.raises(ConfigError):
            simulate(model, [0.0], 1, cfg, stream=stream)


class TestAgainstIntegrator:
    def test_no_jump_path_equals_integrate_segment(self):
        # with no switching the hybrid walk must reproduce the plain
        # Euler-Maruyama recursion node for node
        model = make_model("ou2", q12=0.0, q21=0.0)
        cfg = SimConfig(stop_level=50, seed=31, dt_target=0.02)
        path = simulate(model, [1.0], 1, cfg, record="nodes")
        brownian = substream(31, 0, BROWNIAN)
        nodes, steps, incr, _ = one_grid([0.0, model.horizon], 0.02, 1, brownian)
        assert np.array_equal(path.times, nodes)
        assert np.array_equal(path.states, euler_reference(model, [1.0], 1, nodes, steps, incr))
        assert path.switches == []
        assert path.status.kind == "horizon"


BIRTH_LEVELS = [2, 4, 8, 16]


def pure_birth_chain(horizon, n_regimes=40):
    """(Q, model): q_{i,i+1} = i^2 on regimes 1..n_regimes, diffusion frozen."""
    Q = np.zeros((n_regimes, n_regimes))
    i = np.arange(1, n_regimes)
    Q[i - 1, i] = i.astype(float) ** 2
    model = RegimeModel(1, lambda x, i, t: np.zeros(1), lambda x, i, t: np.zeros((1, 1)),
                        DenseRates(Q), horizon, lambda X, lam, t: np.zeros_like(X),
                        lambda X, lam, t, dW: np.zeros_like(dW))
    return Q, model


class TestSwitchLaw:
    def test_first_switch_time_exponential(self):
        # frozen diffusion, constant rates: the first switch out of regime 1
        # is exponential with its row sum as the rate
        model = make_model("ctmc2", q12=1.0, q21=2.0, horizon=8.0)
        cfg = SimConfig(stop_level=5, seed=2024, dt_target=8.0)
        first = []
        for traj in range(2000):
            p = simulate(model, [0.0], 1, cfg, traj=traj, record="events")
            if p.switches:
                first.append(p.switches[0].time)
        assert len(first) > 1990  # censoring is ~exp(-8)
        assert stats.kstest(first, "expon", args=(0, 1.0)).pvalue > 0.01

    def test_switch_count_bounded_by_events(self):
        model = make_model("powerlaw")
        rate = auto_truncation(model, 8)
        for traj in range(10):
            stream = sample_stream(rate, model.horizon, seed=3, traj=traj)
            p = simulate(model, [1.0], 1, SimConfig(stop_level=8, seed=3),
                         traj=traj, record="events", stream=stream)
            assert len(p.switches) <= len(stream)

    def test_regimes_stay_positive(self):
        model = make_model("powerlaw")
        for traj in range(50):
            p = simulate(model, [1.0], 2, SimConfig(stop_level=10, seed=11),
                         traj=traj, record="events")
            assert (p.regimes >= 1).all()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_stop_time_law_of_a_pure_birth_chain(self, seed):
        # frozen diffusion at x = 0 under q_{i,i+1} = i^2: the stop time of
        # level M is the chain's hitting time of regime M, whose law is
        # P(hit_M <= t) = exp(Q_M t)[0, M-1] with M made absorbing
        levels, t, n = BIRTH_LEVELS, 1.0, 2000
        Q, model = pure_birth_chain(t)
        cfg = SimConfig(stop_level=levels[0], max_stop_level=levels[-1], dt_target=1.0,
                        seed=seed)
        hit = run_ensemble(model, [0.0], 1, cfg, n, levels=levels)["hit"]
        z = 1.96
        for col, M in enumerate(levels):
            gen = Q[:M, :M].copy()
            gen[np.arange(M - 1), np.arange(M - 1)] = -Q[np.arange(M - 1)].sum(axis=1)
            exact = expm(gen * t)[0, M - 1]
            p = float((hit[:, col] <= t).mean())
            centre = (p + z * z / (2 * n)) / (1 + z * z / n)
            half = z / (1 + z * z / n) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
            assert abs(exact - centre) <= 3 * half, (M, p, exact)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_escalations_at_the_switch_that_reaches_the_level(self, seed):
        # at x = 0 a row reaches level M at its first switch into a regime
        # >= M, so each escalation must carry that switch's time, not the
        # time of a later node
        _, model = pure_birth_chain(1.0)
        cfg = SimConfig(stop_level=BIRTH_LEVELS[0], max_stop_level=BIRTH_LEVELS[-1],
                        dt_target=1.0, seed=seed)
        seen = 0
        for row in hybrid.walk(model, [np.zeros(1)] * 500, 1, cfg, list(range(500)),
                               levels=BIRTH_LEVELS):
            for level, tau in row.escalations:
                assert tau == next(s.time for s in row.switches if s.dst >= level)
                seen += 1
        assert seen > 500


class TestExplosion:
    def test_blowup_tau_near_half(self):
        model = make_model("blowup")
        cfg = SimConfig(stop_level=2 ** 40, max_stop_level=2 ** 40,
                        dt_target=1e-3, seed=0)
        p = simulate(model, [2.0], 1, cfg, record="events")
        assert p.status.kind == "exploded"
        assert 0.45 < p.status.tau < 0.56

    def test_ceiling_is_operational_explosion(self):
        model = make_model("blowup")
        cfg = SimConfig(stop_level=8, max_stop_level=8, dt_target=1e-3, seed=0)
        p = simulate(model, [2.0], 1, cfg, record="events")
        assert p.status.kind == "exploded"
        assert p.status.level == 8
        assert not p.status.nonfinite

    def test_rate_overflow_during_classification_is_nonfinite(self):
        # x ** 4 overflows a Python float once |x| passes ~1e77, while the
        # Euler step of x' = x^2 still has a finite value there; every node
        # is an event node, so classification overflows first
        def q(x):
            v = 1.0 + float(x[0]) ** 4
            return [[0.0, v], [v, 0.0]]

        model = RegimeModel(1, lambda x, i, t: x * x,
                            lambda x, i, t: np.zeros((1, 1)),
                            FunctionRates(2, q, 4000.0), 0.05)
        cfg = SimConfig(stop_level=10 ** 300, dt_target=1.0, seed=0)
        p = simulate(model, [50.0], 1, cfg)
        assert p.status.nonfinite
        assert np.isnan(p.states[-1]).all()
        assert np.isfinite(p.states[:-1]).all()
        assert abs(p.states[-2, 0]) > 1e77

    def test_rate_overflow_on_a_carried_mark_is_nonfinite(self):
        # marks at a stop node are classified under the next level; when
        # that classification overflows, the path ends at the stop time with
        # a NaN state, as an in-grid overflow does one node later
        def q(x):
            v = 1.0 + float(x[0]) ** 4
            return [[0.0, v], [v, 0.0]]

        model = RegimeModel(1, lambda x, i, t: x * x,
                            lambda x, i, t: np.zeros((1, 1)),
                            FunctionRates(2, q, 4000.0), 0.05)
        cfg = SimConfig(stop_level=10 ** 100, dt_target=1.0, seed=0)
        carried = 0
        for traj in range(12):
            p = simulate(model, [50.0], 1, cfg, traj=traj, levels=[10 ** 100, 10 ** 290])
            assert p.status.nonfinite
            assert np.isnan(p.states[-1]).all()
            assert np.isfinite(p.states[:-1]).all()
            if p.escalations and p.escalations[-1][1] == p.status.tau:
                carried += 1
                assert p.times[-1] == p.status.tau
                assert p.escalations == [(10 ** 100, p.status.tau)]
        assert carried > 0

    def test_large_finite_state_in_two_dimensions_is_not_an_explosion(self):
        # x . x overflows above |x| of about 1.34e154 while |x| is finite
        model, cfg = make_model("ou2", dim=2), SimConfig(stop_level=10 ** 300, seed=1)
        p = simulate(model, [1e154, 1e154], 1, cfg)
        assert p.status.kind == "horizon" and p.times[-1] == 1.0
        ens = run_ensemble(model, [1e154, 1e154], 1, cfg, 4)
        assert (ens["kind"] == "horizon").all() and (ens["t_end"] == 1.0).all()
        X = np.array([[1e154, 1e154], [3.0, 4.0], [-1e300, 1e300]])
        with np.errstate(over="ignore"):
            assert hybrid._radii(X).tolist() == [radius(x) for x in X] == \
                [math.hypot(1e154, 1e154), 5.0, math.hypot(1e300, 1e300)]

    def test_immediate_stop_when_already_outside(self):
        model = make_model("ou2")
        stream = sample_stream(3.0, model.horizon, seed=0)
        p = simulate(model, [5.0], 2, SimConfig(
            stop_level=4, mark_cutoff=3.0, seed=0), stream=stream)
        assert p.escalations == [(4, 0.0)]


class TestEscalation:
    def test_ou_reaches_horizon_with_large_ceiling(self):
        model = make_model("ou2")
        cfg = SimConfig(stop_level=8, max_stop_level=1 << 20, seed=5)
        stopped = 0
        for traj in range(50):
            p = simulate(model, [1.0], 1, cfg, traj=traj, record="events")
            assert p.status.kind == "horizon"
            stopped += len(p.escalations)
        # escalations are possible but never fatal here
        assert stopped >= 0

    def test_concatenated_path_extends_lower_level_run(self):
        model = make_model("ou2", sigma1=3.0, sigma2=3.0)
        base = SimConfig(stop_level=4, max_stop_level=4, seed=123)
        esc = SimConfig(stop_level=4, max_stop_level=16, seed=123)
        found = 0
        for traj in range(40):
            lone = simulate(model, [2.5], 1, base, traj=traj, record="nodes")
            full = simulate(model, [2.5], 1, esc, traj=traj, record="nodes")
            if lone.status.kind == "exploded":  # hit the level-4 ceiling
                found += 1
                n = lone.times.size
                assert np.array_equal(lone.times, full.times[:n])
                assert np.array_equal(lone.states, full.states[:n])
                assert full.escalations[0] == (4, lone.status.tau)
        assert found > 0

    @settings(max_examples=30, deadline=None)
    @given(rates=st.one_of(dense_rates, powerlaw_rates, function_rates),
           level=st.integers(2, 5),
           x0=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 16),
           traj=st.integers(0, 99))
    def test_single_level_run_is_prefix_of_escalated_run(self, rates, level,
                                                         x0, seed, traj):
        model = ou_with_rates(rates)
        lone, full = (simulate(model, [x0], 1, SimConfig(
                          stop_level=level, max_stop_level=ceiling, seed=seed),
                          traj=traj)
                      for ceiling in (level, 2 * level))
        if not lone.escalations:  # horizon or non-finite: nothing escalates
            assert paths_equal(lone, full) and full.escalations == []
            return
        assert lone.status.kind == "exploded" and lone.status.level == level
        assert full.escalations[0] == (level, lone.status.tau)
        n = lone.times.size
        assert np.array_equal(lone.times, full.times[:n])
        assert np.array_equal(lone.states, full.states[:n])
        # the stop node's regime may still change by marks classified there
        # under the next level
        assert np.array_equal(lone.regimes[:-1], full.regimes[:n - 1])
        assert full.switches[:len(lone.switches)] == lone.switches

    def test_levels_beyond_float_range_rejected(self):
        # the walk compares radii with levels in float arithmetic; a level
        # above the largest float used to end ou2 paths as non-finite at
        # t = 0 and to raise a raw OverflowError on powerlaw
        for name in ("ou2", "powerlaw"):
            with pytest.raises(ConfigError):
                simulate(make_model(name), [0.5], 1, SimConfig(stop_level=2 ** 1100, seed=1))
        with pytest.raises(ConfigError):
            SimConfig(stop_level=4, max_stop_level=2 ** 1100)
        with pytest.raises(ConfigError):
            simulate(make_model("ou2"), [0.5], 1, SimConfig(stop_level=4, seed=1),
                     levels=[4, 2 ** 1100])
        # the largest float itself is a valid ceiling
        SimConfig(stop_level=4, max_stop_level=int(sys.float_info.max))

    def test_block_bound_overflow_rejected(self):
        # a power-law block bound overflows a float for levels above about
        # 1.9e154; as a first level it raised a raw OverflowError, and as an
        # escalation level it ended paths as non-finite explosions.  Every
        # level's cutoff is resolved when the walk is built, so a path that
        # never escalates is rejected too, before it draws
        model, cfg = make_model("powerlaw"), SimConfig(stop_level=4, seed=1)
        rejected_before_any_draw(lambda: simulate(model, [0.5], 1,
                                                  replace(cfg, stop_level=10 ** 200)))
        assert simulate(model, [0.5], 1, cfg, levels=[4, 8]).escalations == []
        rejected_before_any_draw(lambda: simulate(model, [0.5], 1, cfg, levels=[4, 10 ** 200]))

    def test_extension_disabled_raises(self):
        # a supplied stream sized for the first level is never extended, so
        # a schedule with a level that needs a larger cutoff is rejected when
        # the walk is built, even for a path that never escalates
        model = make_model("powerlaw")
        cfg = SimConfig(stop_level=4, max_stop_level=8, seed=9)
        stream = sample_stream(auto_truncation(model, 4), model.horizon, seed=9)
        assert simulate(model, [0.5], 1, replace(cfg, max_stop_level=4),
                        stream=stream).escalations == []
        rejected_before_any_draw(lambda: simulate(model, [0.5], 1, cfg, stream=stream))

    def test_determinism(self):
        model = make_model("powerlaw")
        cfg = SimConfig(stop_level=6, max_stop_level=24, seed=77)
        a = simulate(model, [1.0], 1, cfg, traj=3, record="nodes")
        b = simulate(model, [1.0], 1, cfg, traj=3, record="nodes")
        assert paths_equal(a, b)


class TestInputValidation:
    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("key", ["mark_cutoff", "stream_rate"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), "foo", None, "1.0"])
    def test_bad_cutoff_and_stream_rate_rejected(self, key, value):
        # they used to fail only when a stream was sampled, with a raw ValueError;
        # a string or None raised a raw ValueError or TypeError, or was parsed
        with pytest.raises(ConfigError):
            SimConfig(stop_level=8, **{key: value})

    # stop_level 1024 with the CLI's 64x ceiling: about 3.8e6 events per path at
    # the first level on powerlaw and 1.6e10 at the top; 1e9 grid nodes per
    # path; 1e9 stream events per path
    OVERSIZED = [("powerlaw", {"stop_level": 1024, "max_stop_level": 64 * 1024}, "level 1024"),
                 ("ou2", {"stop_level": 8, "dt_target": 1e-9}, "dt_target"),
                 ("ou2", {"stop_level": 8, "stream_rate": 1e9}, "stream_rate")]

    @pytest.mark.parametrize("name,kwargs,key", OVERSIZED, ids=[c[2] for c in OVERSIZED])
    def test_oversized_walk_rejected_before_any_draw(self, name, kwargs, key):
        model, cfg = make_model(name), SimConfig(seed=1, **kwargs)
        rejected_before_any_draw(lambda: run_ensemble(model, [0.5], 1, cfg, 4))
        with pytest.raises(ConfigError, match=key):
            simulate(model, [0.5], 1, cfg)

    def test_oversized_walks_rejected_within_a_second_under_a_memory_limit(self):
        # in a child limited to 1 GiB of address space, so that nothing the
        # size of the stream or grid can be allocated first
        child = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from switchdiff import ConfigError, SimConfig, make_model, simulate\n"
            f"for name, kwargs, _ in {self.OVERSIZED!r}:\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        simulate(make_model(name), [0.5], 1, SimConfig(seed=1, **kwargs))\n"
            "    except ConfigError as exc:\n"
            "        print(time.perf_counter() - start, exc)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(self.OVERSIZED)
        for line, (_, _, key) in zip(lines, self.OVERSIZED):
            seconds, message = line.split(" ", 1)
            assert float(seconds) < 1.0 and message.startswith(key), line

    def test_negative_seed_rejected(self):
        # it used to be accepted and to fail with a raw ValueError at the
        # first key derivation
        with pytest.raises(ConfigError):
            SimConfig(stop_level=4, seed=-1)

    def test_start_regime_below_one_rejected(self):
        # a negative start regime used to read the dense rate tables from the end
        model = make_model("ctmcN")
        cfg = SimConfig(stop_level=16, seed=1, dt_target=2.0)
        for i0 in (0, -3):
            with pytest.raises(ConfigError):
                run_ensemble(model, [0.0], i0, cfg, 5)
            with pytest.raises(ConfigError):
                simulate(model, [0.0], i0, cfg)

    def test_trajectory_index_out_of_range_rejected(self):
        # an index outside [0, 2 ** 64) has no Philox key, numpy integers included
        model, cfg = make_model("ou2"), SimConfig(stop_level=8, seed=1)
        for traj in (-1, np.int64(-1), 2 ** 64):
            with pytest.raises(ConfigError):
                simulate(model, [1.0], 1, cfg, traj=traj)
        with pytest.raises(ConfigError):
            run_ensemble(model, [1.0], 1, cfg, 3, traj0=-2)

    def test_unknown_record_rejected(self):
        # "node" used to be recorded as "events", by walk too
        model, cfg = make_model("ou2"), SimConfig(stop_level=8, seed=1)
        with pytest.raises(ConfigError):
            simulate(model, [1.0], 1, cfg, record="node")
        rejected_before_any_draw(lambda: list(hybrid.walk(model, [[1.0]], 1, cfg, [0],
                                                          record="node")))
        with pytest.raises(ConfigError):
            simulate(model, [1.0], 1, cfg, record=None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_start_rejected_before_any_block(self, bad):
        # a NaN start used to end as an explosion at t = 0, after the rows
        # before it had been walked
        model, cfg = make_model("ou2"), SimConfig(stop_level=8, seed=1, dt_target=0.5)
        n = 3 * hybrid.BLOCK_ROWS
        starts = [[0.5]] * (n - 1) + [[bad]]
        rejected_before_any_draw(lambda: list(hybrid.walk(model, starts, 1, cfg, range(n))))
        two = make_model("ou2", dim=2)
        rejected_before_any_draw(lambda: simulate(two, [1.0, bad], 1, cfg))

    def test_level_schedule_rejections(self):
        with pytest.raises(ConfigError):
            SimConfig(stop_level=8, max_stop_level=4)
        model, cfg = make_model("ou2"), SimConfig(stop_level=4, seed=1)
        for levels in ([], [4, 4], [8, 4]):
            rejected_before_any_draw(lambda: simulate(model, [0.5], 1, cfg, levels=levels))

    def test_zero_horizon_ends_every_row_at_its_start(self):
        # no grid is drawn; a start at or above a level stops there at t = 0
        model = make_model("powerlaw")
        cfg = SimConfig(stop_level=4, max_stop_level=8, seed=3, horizon=0.0)
        with mock.patch.object(hybrid._Walk, "draw") as draw:
            low = simulate(model, [1.5], 2, cfg)
            high = simulate(model, [3.5], 1, cfg, record="events")
            top = simulate(model, [9.0], 1, cfg)
            # the escalation extends the stream, whose horizon must be +0.0
            negative = simulate(model, [3.5], 1, replace(cfg, horizon=-0.0), record="events")
        assert not draw.called
        assert paths_equal(negative, high) and negative.cutoffs == high.cutoffs
        assert low.times.tolist() == [0.0] and low.states.tolist() == [[1.5]]
        assert low.regimes.tolist() == [2] and low.switches == [] and low.escalations == []
        assert low.status == hybrid.PathStatus("horizon")
        assert high.escalations == [(4, 0.0)] and high.status == hybrid.PathStatus("horizon")
        assert high.cutoffs == [(4, auto_truncation(model, 4)), (8, auto_truncation(model, 8))]
        assert top.escalations == [(4, 0.0), (8, 0.0)]
        assert top.status == hybrid.PathStatus("exploded", 0.0, 8)

    @pytest.mark.parametrize("kwargs", [
        {"stop_level": 2.5}, {"stop_level": 8, "max_stop_level": 8.5},
        {"stop_level": math.nan}], ids=["stop_level", "max_stop_level", "nan"])
    def test_non_integral_levels_rejected(self, kwargs):
        # they were accepted, and the default schedule then appended one
        # level without end
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("call", [
        lambda: SimConfig(stop_level=8, dt_target=math.inf),
        lambda: simulate(make_model("ou2"), [0.0], 1, SimConfig(stop_level=8, horizon=math.inf)),
        lambda: estimate_moment(make_model("ou2"), PolynomialCertificate(1.0, 1.0, 1.0), [0.0],
                                1, math.inf, 5, SimConfig(stop_level=8)),
        lambda: ctmc_oracle(make_model("ctmc2"), 1, math.inf, 2, 5, SimConfig(stop_level=8)),
        lambda: SimConfig(stop_level=8, dt_target="0.1"),
        lambda: SimConfig(stop_level=8, dt_target=None),
        lambda: simulate(make_model("ou2"), [0.0], 1, SimConfig(stop_level=8, horizon="1")),
    ], ids=["dt_target", "horizon", "moment-t", "oracle-t", "dt_target-string",
            "dt_target-none", "horizon-string"])
    def test_infinite_step_and_horizon_rejected(self, call):
        # an infinite dt_target gave every span 0 steps and put the whole
        # path on one node at the horizon; an infinite horizon ended in a
        # raw ValueError from the Poisson stream; a string or None step or
        # horizon, in a raw TypeError
        with pytest.raises(ConfigError):
            call()


class TestPendingMarkAtStopNode:
    def test_escalation_replays_unclassified_stop_node_mark(self):
        # deterministic drift reaches the stop level exactly at an event
        # node; the level check fires before classification, so the mark
        # is classified at that node under the next level
        from switchdiff.jumps import JumpStream
        from switchdiff import DenseRates, RegimeModel

        one = np.ones(1)
        zmat = np.zeros((1, 1))
        model = RegimeModel(1, lambda x, i, t: one, lambda x, i, t: zmat,
                            DenseRates([[0.0, 5.0], [0.0, 0.0]]), 1.0)
        hand = JumpStream(5.0, 1.0, np.array([0.5]), np.array([0.3]))
        cfg = SimConfig(stop_level=4, max_stop_level=8, mark_cutoff=5.0,
                        dt_target=0.25, seed=0)
        path = simulate(model, [2.5], 1, cfg, record="nodes", stream=hand)
        assert path.escalations == [(4, 0.5)]
        assert [(s.time, s.src, s.dst) for s in path.switches] == [(0.5, 1, 2)]
        assert path.status.kind == "horizon"
        # agrees with a direct run at the higher level on the same stream
        direct = simulate(model, [2.5], 1, SimConfig(
            stop_level=8, mark_cutoff=5.0, seed=0), stream=hand)
        assert [(s.time, s.src, s.dst) for s in direct.switches] \
            == [(0.5, 1, 2)]
        assert path.terminal[0] == direct.terminal[0]
        assert path.terminal[1] == pytest.approx(direct.terminal[1], abs=1e-12)
        assert path.terminal[2] == direct.terminal[2]
        # the stop node carries the post-switch regime (right-continuity)
        at_tau = int(np.searchsorted(path.times, 0.5))
        assert path.times[at_tau] == 0.5
        assert path.regimes[at_tau] == 2
        assert path.regimes[at_tau - 1] == 1


class TestTruncatedCoefficients:
    def test_far_start_freezes_diffusion(self):
        model = make_model("ou2")
        cfg = SimConfig(stop_level=16, seed=4, dt_target=0.01)
        p = simulate(truncate_coefficients(model, 1.0), [3.0], 1, cfg,
                     record="nodes")
        assert (p.states == 3.0).all()

    def test_shared_seed_agreement_until_exit(self):
        model = make_model("ou2", sigma1=2.0, sigma2=2.0)
        level = 2.0
        cfg = SimConfig(stop_level=32, seed=88, dt_target=0.01)
        checked = 0
        for traj in range(25):
            plain = simulate(model, [1.0], 1, cfg, traj=traj, record="nodes")
            trunc = simulate(truncate_coefficients(model, level), [1.0], 1, cfg,
                             traj=traj, record="nodes")
            radii = np.abs(plain.states[:, 0])
            inside = radii <= level
            if inside.all():
                assert paths_equal(plain, trunc)
            else:
                c = int(np.argmin(inside))  # first node outside the window
                assert np.array_equal(plain.states[:c], trunc.states[:c])
                checked += 1
        assert checked > 0

    def test_huge_window_is_identity(self):
        model = make_model("ou2")
        cfg = SimConfig(stop_level=8, seed=6)
        a = simulate(model, [1.0], 1, cfg, traj=1, record="nodes")
        b = simulate(truncate_coefficients(model, 1e9), [1.0], 1, cfg,
                     traj=1, record="nodes")
        assert paths_equal(a, b)


class TestPathInvariants:
    def test_piecewise_regimes_and_continuous_state(self):
        model = make_model("ou2", q12=4.0, q21=4.0)
        p = simulate(model, [0.5], 1, SimConfig(stop_level=12, seed=42),
                     traj=0, record="nodes")
        assert len(p.switches) > 0
        # regime changes only at recorded switch times
        changes = np.nonzero(np.diff(p.regimes))[0]
        switch_times = sorted(s.time for s in p.switches)
        assert sorted(p.times[c + 1] for c in changes) == switch_times
        # bounded while running: |x| + regime < stop level at every node
        assert (np.abs(p.states[:, 0]) + p.regimes < 12).all()

    def test_events_record_is_subset_of_nodes(self):
        model = make_model("ou2")
        cfg = SimConfig(stop_level=10, seed=15)
        full = simulate(model, [1.0], 1, cfg, traj=2, record="nodes")
        ev = simulate(model, [1.0], 1, cfg, traj=2, record="events")
        assert set(ev.times).issubset(set(full.times))
        assert ev.times[0] == full.times[0]
        assert ev.times[-1] == full.times[-1]
        assert ev.status == full.status
