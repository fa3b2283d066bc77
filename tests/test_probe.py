"""Monte Carlo probes against closed-form and frozen-dynamics oracles."""

import hashlib
import math
import multiprocessing
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchdiff import (ConfigError, DenseRates, PolynomialCertificate, RegimeModel,
                        SimConfig, TruncationLeak, ctmc_oracle, estimate_moment,
                        estimate_tau_tail, feller_probe, make_model,
                        run_ensemble, simulate)
from switchdiff import _parallel, hybrid
from switchdiff.certify import tau_tail_bound_poly
from switchdiff.probe import _wilson
from test_hybrid import dense_rates, ou_with_rates


def frozen_model(horizon=1.0):
    z, zm = np.zeros(1), np.zeros((1, 1))
    return RegimeModel(1, lambda x, i, t: z, lambda x, i, t: zm,
                       DenseRates(np.zeros((1, 1))), horizon)


CFG = SimConfig(stop_level=8, max_stop_level=64, seed=314, dt_target=0.05)


class TestEstimateMoment:
    def test_frozen_path_exact_zero_variance(self):
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=0.0)
        rep = estimate_moment(frozen_model(), cert, [2.0], 1, 1.0, 200, CFG)
        assert rep.value("moment") == (1 + 4.0) + 1.0
        assert rep.half_width("moment") == 0.0
        assert rep.value("moment") <= rep.value("gronwall_bound")

    def test_time_zero(self):
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=1.0)
        rep = estimate_moment(frozen_model(), cert, [3.0], 2, 0.0, 50, CFG)
        assert rep.value("moment") == (1 + 9.0) + 2.0
        assert rep.half_width("moment") == 0.0

    def test_every_path_blowing_up_leaves_no_moment(self):
        # x' = x^2 from 2 overflows near t = 1/2, far below a level of 10^300:
        # every path is a non-finite explosion, and the mean of none is NaN
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=1.0)
        rep = estimate_moment(make_model("blowup"), cert, [2.0], 1, 1.0, 20,
                              SimConfig(stop_level=10 ** 300))
        assert math.isnan(rep.value("moment")) and math.isnan(rep.half_width("moment"))
        assert rep.n == 0
        assert rep.diagnostics == {"explosions": 20, "level_stops": 0}

    def test_ou_two_regime_below_bound(self):
        model = make_model("ou2")
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=6.0)
        rep = estimate_moment(model, cert, [1.0], 1, 1.0, 2000, CFG)
        assert rep.value("moment") <= (rep.value("gronwall_bound")
                                       + 3 * rep.half_width("moment"))
        assert rep.diagnostics["explosions"] == 0


class TestEstimateTauTail:
    def test_frozen_never_exits(self):
        rep = estimate_tau_tail(frozen_model(), [1.0], 1, 1.0, [4, 8], 0.1,
                                100, CFG)
        assert rep.value("tail_sup[M=4]") == 0.0
        assert rep.value("tail_sup[M=8]") == 0.0

    def test_wilson_interval_keeps_a_width_at_zero(self):
        n = 100
        rep = estimate_tau_tail(frozen_model(), [1.0], 1, 1.0, [4, 8], 0.1, n, CFG)
        z2 = 1.96 ** 2
        for m in (4, 8):
            # the Wald half-width vanishes at p = 0; the Wilson interval is
            # [0, z^2 / (n + z^2)] there
            assert rep.value(f"tail_sup[M={m}]") == rep.half_width(f"tail_sup[M={m}]") == 0.0
            lo, hi = rep.intervals[f"tail_sup[M={m}]"]
            assert lo == 0.0 and hi == pytest.approx(z2 / (n + z2), rel=1e-12)
        assert set(rep.intervals) == {lab for lab in rep.labels if lab.startswith("tail")}
        assert all(len(row) == 7 for row in rep.rows())

    def test_wilson_interval_by_hand(self):
        # 10 of 50: centre (0.2 + z^2/100) / (1 + z^2/50) = 0.221405, half-width
        # z sqrt(0.2 * 0.8 / 50 + z^2 / 10^4) / (1 + z^2/50) = 0.108969
        lo, hi = _wilson(0.2, 50)
        assert lo == pytest.approx(0.112436, abs=1e-6)
        assert hi == pytest.approx(0.330374, abs=1e-6)
        lo, hi = _wilson(1.0, 50)
        assert hi == 1.0 and lo == pytest.approx(50 / (50 + 1.96 ** 2), rel=1e-12)

    def test_already_outside_is_one(self):
        rep = estimate_tau_tail(frozen_model(), [5.0], 2, 1.0, [4], 0.1, 50, CFG)
        assert rep.value("tail_sup[M=4]") == 1.0

    def test_ou_decreasing_below_bound(self):
        model = make_model("ou2", sigma1=2.0, sigma2=2.0)
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=6.0)
        rep = estimate_tau_tail(model, [1.0], 1, 1.0, [4, 8, 16], 0.1, 500,
                                CFG, cert=cert)
        sups = [rep.value(f"tail_sup[M={m}]") for m in (4, 8, 16)]
        assert all(b <= a for a, b in zip(sups, sups[1:]))
        for m in (4, 8, 16):
            hw = rep.half_width(f"tail_sup[M={m}]")
            assert rep.value(f"tail_sup[M={m}]") <= (rep.value(f"bound[M={m}]")
                                                     + 3 * hw + 1e-12)


    def walked(self, dim, n):
        """A 5-start tau-tail on ou2 with its walked rows and tau_tail_bound_poly calls."""
        seen, begin = [], hybrid._Walk.begin

        def counting(walk, starts, i0, trajs):
            seen.append(len(trajs))
            return begin(walk, starts, i0, trajs)

        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=6.0)
        with mock.patch.object(hybrid._Walk, "begin", counting), \
                mock.patch("switchdiff.probe.tau_tail_bound_poly",
                           wraps=tau_tail_bound_poly) as bound:
            rep = estimate_tau_tail(make_model("ou2", dim=dim), [1.0] * dim, 1, 1.0, [4, 8, 16],
                                    0.1, n, CFG, cert=cert, n_starts=5)
        return rep, sum(seen), bound.call_count

    # sha256 of repr(rows()) when every start, a repeated one too, is walked
    GOLDEN_ROWS = {1: "4103e067597423c8", 2: "472c35ea1b2d23c5"}

    @pytest.mark.parametrize("dim, distinct", [(1, 3), (2, 5)])
    def test_repeated_starts_are_walked_once(self, dim, distinct):
        # in one dimension the ball's starts are x0 and x0 +- delta: 3 of 5 distinct
        rep, rows, bounds = self.walked(dim, 40)
        assert rows == distinct * 40
        assert bounds == 3 * distinct
        digest = hashlib.sha256(repr(rep.rows()).encode()).hexdigest()[:16]
        assert digest == self.GOLDEN_ROWS[dim]


class TestFellerProbe:
    def test_constant_function(self):
        model = make_model("ou2")
        rep = feller_probe(model, lambda x, j: 1.0, 1.0, [0.0], 1,
                           [0.1, 0.5], 100, CFG)
        for lab in rep.labels:
            if lab.startswith("ptf"):
                assert rep.value(lab) == 1.0
            if lab.startswith("diff"):
                assert rep.value(lab) == 0.0

    def test_coupled_zero_offset_identity(self):
        model = make_model("ou2")
        f = lambda x, j: float(x[0] > 0)
        rep = feller_probe(model, f, 1.0, [0.0], 1, [0.0, 0.2], 200, CFG,
                           couple=True)
        assert rep.value("diff[delta=0]") == 0.0
        assert rep.half_width("diff[delta=0]") == 0.0

    def walked_rows(self, offsets, couple, n):
        seen, begin = [], hybrid._Walk.begin

        def counting(walk, starts, i0, trajs):
            seen.append(len(trajs))
            return begin(walk, starts, i0, trajs)

        with mock.patch.object(hybrid._Walk, "begin", counting):
            rep = feller_probe(make_model("ou2"), lambda x, j: float(x[0] > 0) + 0.25 * j,
                               1.0, [0.1], 1, offsets, n, CFG, couple=couple)
        return rep, sum(seen)

    def test_coupled_zero_offset_reuses_the_walk_of_x(self):
        rep, rows = self.walked_rows((0.0, 0.05, 0.5), True, 60)
        assert rows == 3 * 60
        assert rep.value("diff[delta=0]") == 0.0
        assert rep.half_width("diff[delta=0]") == 0.0
        assert rep.value("ptf[delta=0]") == rep.estimates[0]
        # uncoupled, the 0 offset has trajectories of its own
        assert self.walked_rows((0.0, 0.05, 0.5), False, 60)[1] == 4 * 60

    # sha256 of repr(rows()) when every start, a coupled 0 offset too, is walked
    GOLDEN_ROWS = {((0.0, 0.05, 0.5), True): "93067b0738ec5ab1",
                   ((0.0, 0.05, 0.5), False): "b3cf35f0d8a86dd0",
                   ((0.05, 0.5), True): "5be1d3ff541f3cf1",
                   ((0.05, 0.5), False): "ea74299573c0d886"}

    @pytest.mark.parametrize("offsets, couple", list(GOLDEN_ROWS))
    def test_rows_unchanged(self, offsets, couple):
        rep, _ = self.walked_rows(offsets, couple, 60)
        digest = hashlib.sha256(repr(rep.rows()).encode()).hexdigest()[:16]
        assert digest == self.GOLDEN_ROWS[offsets, couple]

    def test_profile_shrinks_with_offset(self):
        model = make_model("ou2")
        f = lambda x, j: float(x[0] > 0)
        rep = feller_probe(model, f, 1.0, [0.0], 1, [0.05, 0.5], 4000, CFG,
                           couple=True)
        small = rep.value("diff[delta=0.05]")
        large = rep.value("diff[delta=0.5]")
        assert small < large

    def test_scalar_offsets_in_two_dimensions(self):
        # a scalar offset moves every coordinate of a d > 1 start
        model = make_model("ou2", dim=2)
        f = lambda x, j: float(x[0] > 0)
        rep = feller_probe(model, f, 0.5, [0.0, 0.0], 1, [0.1, 0.5], 50, CFG)
        vec = feller_probe(model, f, 0.5, [0.0, 0.0], 1, [[0.1, 0.1], [0.5, 0.5]], 50, CFG)
        assert rep.labels == vec.labels
        assert "ptf[delta=0.141421]" in rep.labels
        assert rep.estimates == vec.estimates
        assert rep.value("diff[delta=0]") == 0.0

    def test_uncoupled_runs(self):
        model = make_model("ou2")
        f = lambda x, j: float(x[0] > 0)
        rep = feller_probe(model, f, 0.5, [0.0], 1, [0.3], 300, CFG,
                           couple=False)
        assert np.isfinite(rep.value("diff[delta=0.3]"))
        assert rep.half_width("diff[delta=0.3]") > 0


class TestCtmcOracle:
    def test_two_state_closed_form(self):
        # P(regime_1 = 2 | start 1) = (q12/(q12+q21)) (1 - exp(-(q12+q21)))
        model = make_model("ctmc2", q12=1.0, q21=2.0)
        n = 20_000
        cfg = SimConfig(stop_level=5, seed=99, dt_target=1.0)
        rep = ctmc_oracle(model, 1, 1.0, 2, n, cfg)
        p_true = (1.0 / 3.0) * (1.0 - np.exp(-3.0))
        assert rep.value("p_exact[2]") == pytest.approx(p_true, abs=1e-12)
        se = np.sqrt(p_true * (1 - p_true) / n)
        assert abs(rep.value("p_hat[2]") - p_true) < 3 * se
        assert rep.value("tv") < 0.02

    def test_no_rates_point_mass(self):
        model = frozen_model()
        rep = ctmc_oracle(model, 1, 1.0, 2, 200,
                          SimConfig(stop_level=5, seed=1, dt_target=1.0))
        assert rep.value("p_hat[1]") == 1.0
        assert rep.value("tv") == pytest.approx(0.0, abs=1e-12)

    def test_time_zero_point_mass(self):
        model = make_model("ctmc2")
        rep = ctmc_oracle(model, 2, 0.0, 3, 100,
                          SimConfig(stop_level=6, seed=1, dt_target=1.0))
        assert rep.value("p_hat[2]") == 1.0
        assert rep.value("p_exact[2]") == 1.0
        assert rep.value("tv") == 0.0

    def test_truncation_leak_raises(self):
        model = make_model("ctmcN", n_regimes=6, scale=2.0, horizon=2.0)
        with pytest.raises(TruncationLeak):
            ctmc_oracle(model, 2, 2.0, 3, 500,
                        SimConfig(stop_level=12, seed=5, dt_target=2.0))

    def test_five_state_tv_small(self):
        model = make_model("ctmcN", n_regimes=5)
        rep = ctmc_oracle(model, 1, 1.0, 5, 20_000,
                          SimConfig(stop_level=8, seed=17, dt_target=1.0))
        assert rep.value("tv") < 0.02
        assert rep.value("leak_sim") == 0.0


class TestReportRows:
    def test_rows_shape(self):
        model = make_model("ctmc2")
        rep = ctmc_oracle(model, 1, 0.5, 2, 100,
                          SimConfig(stop_level=5, seed=3, dt_target=1.0))
        rows = rep.rows()
        assert all(len(r) == 7 for r in rows)
        assert rows[0][0] == "ctmc_oracle"


class TestRunEnsemble:
    @settings(max_examples=4, deadline=None)
    @given(rates=dense_rates, seed=st.integers(0, 2 ** 16))
    def test_records_independent_of_threads(self, rates, seed):
        # with blocks of 2 rows, n = 8 is the smallest ensemble that forks 2 workers
        model = ou_with_rates(rates)
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=seed)
        serial = run_ensemble(model, [1.0], 1, cfg, 8, threads=1)
        with mock.patch.object(hybrid, "BLOCK_ROWS", 2):
            forked = run_ensemble(model, [1.0], 1, cfg, 8, threads=2)
        assert serial.keys() == forked.keys()
        for key, arr in serial.items():
            assert np.array_equal(arr, forked[key],
                                  equal_nan=arr.dtype.kind == "f"), key

    @settings(max_examples=25, deadline=None)
    @given(rates=dense_rates, seed=st.integers(0, 2 ** 16), n=st.integers(1, 3),
           horizon=st.sampled_from([0.0, 0.5]),
           pairs=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                                    st.sampled_from([0, 2])), min_size=1, max_size=6))
    # the ball of a 1-D tau-tail: x0, and x0 +- delta drawn twice each
    @example(rates=DenseRates([[0.0, 1.0], [2.0, 0.0]]), seed=505, n=2, horizon=0.5,
             pairs=[(1.0, 0), (1.1, 0), (0.9, 0), (0.9, 0), (1.1, 0)])
    def test_repeated_starts_walked_once_with_their_own_records(self, rates, seed, n,
                                                                horizon, pairs):
        # -0.0 and 0.0 are distinct starts: at horizon 0 each keeps its own sign
        model = ou_with_rates(rates)
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=seed, horizon=horizon,
                        dt_target=0.05)
        x0 = np.array([[v] for v, _ in pairs])
        traj0 = [k for _, k in pairs]
        seen, begin = [], hybrid._Walk.begin

        def spy(walk, starts, i0, trajs):
            seen.extend((x.tobytes(), k) for (x, _), k in zip(starts, trajs))
            return begin(walk, starts, i0, trajs)

        with mock.patch.object(hybrid._Walk, "begin", spy):
            ens = run_ensemble(model, x0, 1, cfg, n, traj0=traj0)
        distinct = dict.fromkeys((x.tobytes(), k) for x, k in zip(x0, traj0))
        assert Counter(seen) == Counter((x, k + j) for x, k in distinct for j in range(n))
        lone = [run_ensemble(model, x, 1, cfg, n, traj0=k) for x, k in zip(x0, traj0)]
        for key, arr in ens.items():
            want = np.stack([rec[key] for rec in lone])
            if arr.dtype.kind == "U":
                assert arr.tolist() == want.tolist(), key
            else:
                assert (arr.dtype, arr.shape, arr.tobytes()) == (want.dtype, want.shape,
                                                                want.tobytes()), key

    def test_repeated_starts_give_forked_records_equal_serial(self, monkeypatch):
        # 4 starts hold 2 distinct pairs; in blocks of 2 rows, their 2 * 8 rows fork 2 workers
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        model = ou_with_rates(DenseRates([[0.0, 1.0], [2.0, 0.0]]))
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=11)
        x0, traj0 = [[1.0], [0.5], [1.0], [0.5]], [0, 8, 0, 8]
        serial = run_ensemble(model, x0, 1, cfg, 8, traj0=traj0)
        with mock.patch.object(hybrid, "BLOCK_ROWS", 2), \
                mock.patch.object(multiprocessing, "get_context",
                                  wraps=multiprocessing.get_context) as context:
            forked = run_ensemble(model, x0, 1, cfg, 8, threads=2, traj0=traj0)
        assert context.call_args_list == [mock.call("fork")]
        assert serial.keys() == forked.keys()
        for key, arr in serial.items():
            assert np.array_equal(arr, forked[key], equal_nan=arr.dtype.kind == "f"), key
        assert np.array_equal(serial["x_end"][0], serial["x_end"][2])

    def test_nonfinite_blowup_hits_every_level(self):
        model = RegimeModel(1, lambda x, i, t: x * x, lambda x, i, t: np.zeros((1, 1)),
                            DenseRates(np.zeros((1, 1))), 1.0)
        cfg = SimConfig(stop_level=2 ** 998, max_stop_level=2 ** 1000, dt_target=1e-3)
        ens = run_ensemble(model, [2.0], 1, cfg, 2)
        assert ens["nonfinite"].all()
        assert ens["kind"].tolist() == ["exploded", "exploded"]
        assert ens["hit"].shape == (2, 3)
        assert (ens["hit"] == ens["tau"][:, None]).all()

    def test_zero_starts_give_empty_arrays_under_every_key(self):
        # the fields, dtypes and trailing shapes of one start, with no rows
        model = make_model("ou2", dim=2)
        cfg = SimConfig(stop_level=4, max_stop_level=8, seed=2)
        one = run_ensemble(model, np.zeros((1, 2)), 1, cfg, 3)
        none = run_ensemble(model, np.zeros((0, 2)), 1, cfg, 3)
        assert list(none) == list(one)
        for key, arr in one.items():
            assert none[key].shape == (0,) + arr.shape[1:], key
            assert none[key].dtype.kind == arr.dtype.kind, key
        assert none["x_end"].shape == (0, 3, 2) and none["hit"].shape == (0, 3, 2)

    def test_levels_are_checked_and_hit_columns_follow_the_walk(self):
        # a non-integral level used to be truncated, [8, 12.5] walked as
        # [8, 12], and a NaN one to end in a raw ValueError from int()
        model = make_model("ou2")
        cfg = SimConfig(stop_level=2, max_stop_level=8, seed=5, dt_target=0.05)
        for levels in ([8, 12.5], [4, math.nan], [2, math.inf]):
            with pytest.raises(ConfigError):
                run_ensemble(model, [1.0], 1, cfg, 3, levels=levels)
        for levels in (None, [3, 5.0, 6]):
            ens = run_ensemble(model, [1.0], 1, cfg, 8, levels=levels)
            walked = hybrid._Walk(model, cfg, levels, None, None).levels
            assert walked == ([2, 4, 8] if levels is None else [3, 5, 6])
            assert ens["hit"].shape == (8, len(walked))
            for k in range(8):
                path = simulate(model, [1.0], 1, cfg, traj=k, levels=levels, record="events")
                want = [math.inf] * len(walked)
                for lv, tau in path.escalations:
                    want[walked.index(lv)] = tau
                assert ens["hit"][k].tolist() == want
            assert np.isfinite(ens["hit"]).any()

    @pytest.mark.parametrize("x0, i0, horizon", [
        ([math.nan], 1, 1.0), ([[0.5], [math.inf]], 1, 1.0), ([0.5, 0.5], 1, 1.0),
        ([0.5], 0, 1.0), ([0.5], 1, -1.0),
    ], ids=["nan", "second-start-inf", "shape", "i0", "horizon"])
    def test_bad_input_fails_before_the_pool(self, monkeypatch, x0, i0, horizon):
        # a non-finite start used to fork a pool and come back through it
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        cfg = SimConfig(stop_level=8, seed=1, horizon=horizon)
        with mock.patch.object(hybrid, "BLOCK_ROWS", 2), \
                mock.patch("switchdiff.probe.map_indices") as pool:
            with pytest.raises(ConfigError):
                run_ensemble(make_model("ou2"), x0, i0, cfg, 8, threads=2)
        assert not pool.called


class TestEmptyWorkloads:
    def test_rejected(self):
        # the oracle used to divide by n = 0 and tau-tail to index an empty m_list
        model = make_model("ctmcN")
        cfg = SimConfig(stop_level=8, seed=1, dt_target=1.0)
        with pytest.raises(ConfigError):
            run_ensemble(model, [0.0], 1, cfg, 0)
        for t in (0.0, 1.0):
            with pytest.raises(ConfigError):
                ctmc_oracle(model, 1, t, 4, 0, cfg)
        # a negative time used to report expm(-Q) rows as the exact law
        with pytest.raises(ConfigError):
            ctmc_oracle(model, 1, -1.0, 4, 100, cfg)
        with pytest.raises(ConfigError):
            estimate_tau_tail(make_model("ou2"), [0.0], 1, 0.5, [], 0.1, 5, cfg)


PROBES = {
    "moment": lambda t: estimate_moment(make_model("ou2"), PolynomialCertificate(1.0, 1.0, 1.0),
                                        [0.5], 1, t, 5, CFG),
    "tau_tail": lambda t: estimate_tau_tail(make_model("ou2"), [0.5], 1, t, [4, 8], 0.1, 5, CFG,
                                            n_starts=2),
    "feller": lambda t: feller_probe(make_model("ou2"), lambda x, j: float(x[0] > 0), t, [0.0],
                                     1, [0.05, 0.5], 5, CFG),
    "oracle": lambda t: ctmc_oracle(make_model("ctmc2"), 1, t, 2, 5, CFG),
}


class TestProbeInputs:
    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
    @pytest.mark.parametrize("probe", list(PROBES))
    def test_time_must_be_finite_and_non_negative(self, probe, t):
        # estimate_moment used to report t = -1 as t = 0
        with mock.patch.object(hybrid, "philox_keys", wraps=hybrid.philox_keys) as keys:
            with pytest.raises(ConfigError):
                PROBES[probe](t)
        assert keys.call_count == 0

    def test_every_probe_accepts_time_zero(self):
        # the walk ends every row at its start; estimate_tau_tail and
        # feller_probe used to reject t = 0
        moment = PROBES["moment"](0.0)
        assert moment.estimates == [(1 + 0.25) + 1.0, 1.25 + 1.0]
        assert moment.half_widths == [0.0, 0.0] and moment.n == 5
        tail = PROBES["tau_tail"](0.0)
        assert tail.value("tail_sup[M=4]") == tail.value("tail_sup[M=8]") == 0.0
        feller = PROBES["feller"](0.0)
        assert [feller.value(f"ptf[delta={d}]") for d in ("0", "0.05", "0.5")] == [0.0, 1.0, 1.0]
        assert feller.value("diff[delta=0.05]") == 1.0 and set(feller.half_widths) == {0.0}
        oracle = PROBES["oracle"](0.0)
        assert oracle.value("p_hat[1]") == oracle.value("p_exact[1]") == 1.0
        assert oracle.value("tv") == 0.0

    def test_uncoupled_feller_of_one_replica_has_zero_half_widths(self):
        # the uncoupled difference took a variance of one value: a NaN
        # half-width and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = feller_probe(make_model("ou2"), lambda x, j: float(x[0] > 0), 0.5, [0.0], 1,
                               [0.3], 1, CFG, couple=False)
        assert rep.half_widths == [0.0] * 4

    def test_non_finite_oracle_start_rejected(self):
        # at t = 0 it used to report the rates at x0 as the exact law, and
        # at t > 0 to end in a raw ValueError from math.ceil
        for t in (0.0, 0.5):
            with pytest.raises(ConfigError):
                ctmc_oracle(make_model("ctmc2"), 1, t, 2, 5, CFG, x0=[math.nan])

    def test_traj0_needs_one_entry_per_start(self):
        with pytest.raises(ConfigError, match="traj0 needs one entry per start"):
            run_ensemble(make_model("ou2"), np.array([[0.0], [1.0]]), 1, CFG, 3, traj0=[0])

    def test_oracle_start_beyond_truncation_rejected(self):
        with pytest.raises(ConfigError, match="truncated regime window"):
            ctmc_oracle(make_model("ctmcN"), 5, 0.5, 4, 5, CFG)

    def test_no_starts_rejected(self):
        # n_starts = 0 used to run one start and report n_starts=1
        with pytest.raises(ConfigError):
            estimate_tau_tail(make_model("ou2"), [0.5], 1, 0.5, [4], 0.1, 5, CFG, n_starts=0)

    def test_offset_of_another_dimension_rejected(self):
        # it used to end in numpy's broadcast ValueError
        with pytest.raises(ConfigError):
            feller_probe(make_model("ou2", dim=2), lambda x, j: 1.0, 0.5, [0.0, 0.0], 1,
                         [[0.1, 0.1, 0.1]], 5, CFG)
        with pytest.raises(ConfigError):
            feller_probe(make_model("ou2"), lambda x, j: 1.0, 0.5, [0.0], 1, [[0.1, 0.1]], 5, CFG)


class TestWorkerCap:
    def test_pool_size_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        out = _parallel.map_indices(lambda lo, hi: [k * k for k in range(lo, hi)], 100,
                                    threads=64)
        assert out == [k * k for k in range(100)]
        assert sizes == [3]


class TestSplitRule:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4000), block=st.integers(1, 300), threads=st.integers(1, 12),
           cpus=st.integers(1, 8))
    def test_ranges_start_on_blocks_and_give_every_worker_two(self, n, block, threads, cpus):
        sizes, ranges = [], []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                ranges.extend(items)
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        def fn(lo, hi):
            return [k * k for k in range(lo, hi)]

        with mock.patch.object(_parallel.os, "cpu_count", lambda: cpus), \
                mock.patch.object(multiprocessing, "get_all_start_methods", lambda: ["fork"]), \
                mock.patch.object(multiprocessing, "get_context", lambda method: FakeContext):
            out = _parallel.map_indices(fn, n, threads, block)
        assert out == fn(0, n)
        workers = min(threads, cpus, n // (2 * block))
        if workers < 2:
            # serial below two whole blocks per worker, in particular when n < 4 * block
            assert sizes == [] and ranges == []
            return
        assert sizes == [workers] and n >= 2 * workers * block
        assert len(ranges) <= 4 * workers <= 4 * threads
        # whole blocks spread evenly: lengths differ by less than two blocks
        spans = [hi - lo for lo, hi in ranges]
        assert max(spans) - min(spans) < 2 * block
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (lo, hi), (nxt, _) in zip(ranges, ranges[1:] + [(n, None)]):
            assert lo % block == 0 and lo < hi == nxt
