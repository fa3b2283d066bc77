"""Monte Carlo probes against closed-form and frozen-dynamics oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdiff import (DenseRates, PolynomialCertificate, RegimeModel,
                        SimConfig, TruncationLeak, ctmc_oracle, estimate_moment,
                        estimate_tau_tail, feller_probe, make_model,
                        run_ensemble)
from switchdiff import _parallel
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
        # n = 8 is the smallest ensemble that forks a pool of 2 workers
        model = ou_with_rates(rates)
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=seed)
        serial = run_ensemble(model, [1.0], 1, cfg, 8, threads=1)
        forked = run_ensemble(model, [1.0], 1, cfg, 8, threads=2)
        assert serial.keys() == forked.keys()
        for key, arr in serial.items():
            assert np.array_equal(arr, forked[key],
                                  equal_nan=arr.dtype.kind == "f"), key

    def test_nonfinite_blowup_hits_every_level(self):
        model = RegimeModel(1, lambda x, i, t: x * x, lambda x, i, t: np.zeros((1, 1)),
                            DenseRates(np.zeros((1, 1))), 1.0)
        cfg = SimConfig(stop_level=2 ** 998, max_stop_level=2 ** 1000, dt_target=1e-3)
        ens = run_ensemble(model, [2.0], 1, cfg, 2)
        assert ens["nonfinite"].all()
        assert ens["kind"].tolist() == ["exploded", "exploded"]
        assert ens["hit"].shape == (2, 3)
        assert (ens["hit"] == ens["tau"][:, None]).all()


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
        monkeypatch.setattr(_parallel.mp, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(_parallel.mp, "get_context", lambda method: FakeContext)
        out = _parallel.map_indices(lambda lo, hi: [k * k for k in range(lo, hi)], 100,
                                    threads=64)
        assert out == [k * k for k in range(100)]
        assert sizes == [3]
