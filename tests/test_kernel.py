"""Lockstep kernel: ensemble rows equal single paths at any block split or worker count."""

import copy
import math
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from switchdiff import (DenseRates, FunctionRates, JumpStream, PowerLawRates, RegimeModel,
                        SimConfig, _parallel, estimate_tau_tail, feller_probe, hybrid,
                        make_model, run_ensemble, simulate)
from test_hybrid import dense_rates

EYE = np.eye(1)
N = 9  # more than the largest block drawn below, so every split is exercised


def bounded_function_rates(size, a, b):
    """FunctionRates growing with |x| up to 4; the block bound is the full mass."""
    A, B = np.array(a), np.array(b)
    bound = float(A.sum() + 4.0 * B.sum())
    return FunctionRates(size, lambda x: A + B * min(abs(float(x[0])), 4.0), bound)


def square_matrix(m, lo, hi):
    return st.lists(st.lists(st.floats(lo, hi), min_size=m, max_size=m),
                    min_size=m, max_size=m)


function = st.integers(2, 3).flatmap(lambda m: st.tuples(
    st.just(m), square_matrix(m, 0.0, 3.0), square_matrix(m, 0.0, 1.0))).map(
        lambda args: bounded_function_rates(*args))
powerlaw = st.builds(PowerLawRates, gamma=st.floats(2.5, 4.0), p=st.floats(1.0, 1.5))


def coefficients(family, c, batch):
    """(drift, dispersion, drift_batch, noise_batch) of one family.

    ou and blowup have batch forms equal to their rows bit for bit; cube
    evaluates in Python floats, so its Euler step can raise OverflowError.
    """
    if family == "ou":
        forms = (lambda x, i, t: -x / i, lambda x, i, t: i * EYE,
                 lambda X, lam, t: -X / lam[:, None], lambda X, lam, t, dW: lam[:, None] * dW)
    elif family == "blowup":
        forms = (lambda x, i, t: c * x * x, lambda x, i, t: 0.5 * EYE,
                 lambda X, lam, t: c * X * X, lambda X, lam, t, dW: 0.5 * dW)
    else:
        forms = (lambda x, i, t: np.array([c * float(x[0]) ** 3]), lambda x, i, t: 0.5 * EYE,
                 None, None)
    return forms if batch else forms[:2] + (None, None)


@st.composite
def cases(draw):
    """A random model, start and configuration; some rows escalate or blow up."""
    family, batch = draw(st.sampled_from([("ou", True), ("ou", False), ("blowup", True),
                                          ("blowup", False), ("cube", False)]))
    if family == "ou":
        rates = draw(st.one_of(dense_rates, function, powerlaw))
        stop = draw(st.integers(2, 5))
        ceiling = stop * draw(st.sampled_from([1, 2]))
    else:
        # rates bounded in x, so the cutoff stays bounded however far x runs
        rates = draw(st.one_of(dense_rates, function))
        stop = draw(st.integers(2, 5))
        ceiling = draw(st.sampled_from([stop, 2 ** 40, 10 ** 300]))
    drift, dispersion, drift_b, noise_b = coefficients(family, draw(st.floats(0.5, 3.0)),
                                                       batch)
    model = RegimeModel(1, drift, dispersion, rates, 1.0, drift_b, noise_b)
    cfg = SimConfig(stop_level=stop, max_stop_level=ceiling, dt_target=0.05,
                    seed=draw(st.integers(0, 2 ** 16)))
    return model, [draw(st.floats(0.0, 2.5))], cfg


def terminal(path, levels):
    """The run_ensemble record of one simulated path."""
    st_ = path.status
    hit = dict(path.escalations)
    if st_.nonfinite:
        for lv in levels:
            hit.setdefault(lv, st_.tau)
    t, x, lam = path.terminal
    return {"t_end": t, "x_end": x, "lam_end": lam, "kind": st_.kind,
            "tau": math.nan if st_.tau is None else st_.tau, "nonfinite": st_.nonfinite,
            "hit": [hit.get(lv, math.inf) for lv in levels],
            "max_regime": path.max_regime, "switches": len(path.switches)}


def assert_records_equal(a, b):
    assert a.keys() == b.keys()
    for key, arr in a.items():
        assert arr.shape == b[key].shape, key
        assert np.array_equal(arr, b[key], equal_nan=arr.dtype.kind == "f"), key


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(case=cases(), block=st.integers(1, N - 1))
    def test_rows_equal_single_paths_at_any_block_split(self, case, block):
        model, x0, cfg = case
        with mock.patch.object(hybrid, "BLOCK_ROWS", block):
            ens = run_ensemble(model, x0, 1, cfg, N)
        levels = hybrid._level_schedule(cfg)
        for k in range(N):
            want = terminal(simulate(model, x0, 1, cfg, traj=k, record="events"), levels)
            for key, value in want.items():
                assert np.array_equal(ens[key][k], value, equal_nan=key != "kind"), (k, key)

    @settings(max_examples=5, deadline=None)
    @given(case=cases())
    def test_forked_records_equal_serial(self, case):
        model, x0, cfg = case
        assert_records_equal(run_ensemble(model, x0, 1, cfg, N, threads=1),
                             run_ensemble(model, x0, 1, cfg, N, threads=2))

    def test_batch_forms_match_rows(self):
        # a built-in model and a copy without batch forms give the same records
        for name, x0 in (("ou2", [1.0]), ("powerlaw", [1.0]), ("degenerate", [0.5]),
                         ("blowup", [2.0]), ("ctmcN", [0.0])):
            model = make_model(name)
            rows_only = RegimeModel(model.dim, model.drift, model.dispersion,
                                    model.rates, model.horizon)
            cfg = SimConfig(stop_level=4, max_stop_level=2 ** 20, seed=3, dt_target=0.02)
            assert_records_equal(run_ensemble(model, x0, 1, cfg, 12),
                                 run_ensemble(rows_only, x0, 1, cfg, 12))

    def test_two_dimensional_batch_matches_rows(self):
        model = make_model("ou2", dim=2, sigma1=2.0, sigma2=3.0, q12=3.0, q21=2.0)
        rows_only = RegimeModel(2, model.drift, model.dispersion, model.rates, model.horizon)
        cfg = SimConfig(stop_level=3, max_stop_level=48, seed=21)
        assert_records_equal(run_ensemble(model, [1.0, -0.5], 1, cfg, 16),
                             run_ensemble(rows_only, [1.0, -0.5], 1, cfg, 16))

    def test_several_starts_equal_one_call_per_start(self):
        model = make_model("ou2", sigma1=2.0)
        cfg = SimConfig(stop_level=3, max_stop_level=24, seed=4)
        starts = np.array([[0.0], [1.5], [-2.0]])
        both = run_ensemble(model, starts, 1, cfg, 6, traj0=[0, 6, 3])
        for s, (y, k0) in enumerate(zip(starts, [0, 6, 3])):
            one = run_ensemble(model, y, 1, cfg, 6, traj0=k0)
            assert_records_equal({k: v[s] for k, v in both.items()}, one)


class TestOnePool:
    def count_pools(self, monkeypatch):
        pools = []

        class FakePool:
            def __init__(self, size):
                pools.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(_parallel.mp, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(_parallel.mp, "get_context", lambda method: FakeContext)
        return pools

    def test_tau_tail_and_feller_build_one_pool_each(self, monkeypatch):
        pools = self.count_pools(monkeypatch)
        model = make_model("ou2")
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=1)
        serial = estimate_tau_tail(model, [1.0], 1, 1.0, [4, 8, 16], 0.2, 8, cfg,
                                   n_starts=5, threads=1)
        forked = estimate_tau_tail(model, [1.0], 1, 1.0, [4, 8, 16], 0.2, 8, cfg,
                                   n_starts=5, threads=2)
        assert pools == [2]
        assert forked.rows() == serial.rows()
        f = lambda x, j: float(x[0])  # noqa: E731
        for couple in (True, False):
            pools.clear()
            feller_probe(model, f, 1.0, [0.0], 1, [0.05, 0.5], 8, cfg, couple=couple,
                         threads=2)
            assert pools == [2]


def unscreened(rates):
    """A copy of rates whose class has no territory_batch, so every mark is classified."""
    plain = copy.copy(rates)
    plain.__class__ = type("Unscreened", (type(rates),), {"territory_batch": None})
    return plain


def ou_model(rates, dim, batch):
    eye = np.eye(dim)
    forms = (lambda X, lam, t: -X / lam[:, None], lambda X, lam, t, dW: lam[:, None] * dW)
    return RegimeModel(dim, lambda x, i, t: -x / i, lambda x, i, t: i * eye, rates, 1.0,
                       *(forms if batch else (None, None)))


@st.composite
def screen_cases(draw):
    """Screened and unscreened models, a start, a regime and a configuration.

    ou escalates (extending the stream and classifying marks at stop nodes
    under the next level) in one or two dimensions; blowup ends rows at a
    non-finite state, and cube by an overflow in its per-row drift; huge
    starts so far out that the power-law rates overflow, which ends rows
    at their first classified mark.
    """
    family = draw(st.sampled_from(["ou", "ou", "ou", "blowup", "cube", "huge"]))
    i0 = 1
    gamma = st.floats(2.0, 5.0, exclude_min=True)
    pl = st.builds(PowerLawRates, gamma=gamma, p=st.floats(1.0, 3.0))
    seed = draw(st.integers(0, 2 ** 16))
    if family == "ou":
        # the auto cutoff grows like level ** (p + 1) on power-law rates
        rates = draw(st.one_of(dense_rates, st.builds(PowerLawRates, gamma=gamma,
                                                      p=st.floats(1.0, 1.5))))
        dim, batch = draw(st.sampled_from([1, 2])), draw(st.booleans())
        model = lambda r: ou_model(r, dim, batch)  # noqa: E731
        x0 = draw(st.lists(st.floats(0.0, 2.5), min_size=dim, max_size=dim))
        stop = draw(st.integers(4, 5))
        cfg = SimConfig(stop_level=stop, max_stop_level=stop * draw(st.sampled_from([1, 2])),
                        dt_target=0.05, seed=seed)
    elif family in ("blowup", "cube"):
        rates = draw(st.one_of(dense_rates, pl))
        forms = coefficients(family, draw(st.floats(0.5, 3.0)), True)
        model = lambda r: RegimeModel(1, forms[0], forms[1], r, 1.0, *forms[2:])  # noqa: E731
        x0 = [draw(st.floats(0.5, 2.5))]
        # a fixed cutoff keeps power-law streams small however far x runs
        cfg = SimConfig(stop_level=2, max_stop_level=10 ** 300, mark_cutoff=30.0,
                        stream_rate=30.0, dt_target=0.05, seed=seed)
    else:
        rates = PowerLawRates(draw(st.floats(2.5, 4.0)), draw(st.floats(2.5, 3.0)))
        model = lambda r: RegimeModel(1, lambda x, i, t: 0.0 * x,  # noqa: E731
                                      lambda x, i, t: 1e-3 * EYE, r, 1.0)
        x0 = [draw(st.sampled_from([1e40, 1e110, 1e150]))]
        # past regime 1 the territory starts beyond every mark
        i0 = draw(st.integers(1, 3))
        cfg = SimConfig(stop_level=10 ** 300, mark_cutoff=30.0, stream_rate=30.0,
                        dt_target=0.1, seed=seed)
    return model(rates), model(unscreened(rates)), x0, i0, cfg


class TestMarkScreen:
    @settings(max_examples=40, deadline=None)
    @given(case=screen_cases(), block=st.integers(1, 8), screen_rows=st.integers(1, 4))
    def test_records_equal_unscreened_rates(self, case, block, screen_rows):
        screened, plain, x0, i0, cfg = case
        assert plain.rates.territory_batch is None
        calls = []
        for model in (screened, plain):
            with mock.patch.object(hybrid, "BLOCK_ROWS", block), \
                    mock.patch.object(hybrid, "SCREEN_ROWS", screen_rows), \
                    mock.patch.object(hybrid, "mark_displacement",
                                      wraps=hybrid.mark_displacement) as md:
                calls.append((run_ensemble(model, x0, i0, cfg, N), md.call_count))
        assert_records_equal(calls[0][0], calls[1][0])
        assert calls[0][1] <= calls[1][1]
        rec = calls[0][0]
        event(f"marks skipped: {calls[0][1] < calls[1][1]}")
        event(f"non-finite rows: {bool(rec['nonfinite'].any())}")
        event(f"escalated rows: {bool(np.isfinite(rec['hit'][:, 0]).any())}")

    def test_tied_and_carried_marks_match_unscreened(self):
        # a hand-built stream with several marks at one time; the drift takes
        # rows through levels 2 and 4, some of them at event nodes, where the
        # node's marks are classified under the next level.  Regime 1 owns
        # the marks in [0, 5), regime 2 those in [5, 6); the cutoff is 6.
        times = [0.2, 0.2, 0.3, 0.45, 0.45, 0.45, 0.55, 0.7, 0.8, 0.9]
        marks = [5.5, 1.0, 3.0, 7.0, 5.2, 0.5, 9.0, 5.9, 5.5, 2.0]
        stream = JumpStream(10.0, 1.0, np.array(times), np.array(marks))
        rates = DenseRates([[0.0, 5.0], [1.0, 0.0]])
        cfg = SimConfig(stop_level=2, dt_target=0.05, seed=5)
        rows, calls = [], []
        for r in (rates, unscreened(rates)):
            model = RegimeModel(1, lambda x, i, t: np.ones(1), lambda x, i, t: 0.3 * EYE, r, 1.0)
            with mock.patch.object(hybrid, "SCREEN_ROWS", 1), \
                    mock.patch.object(hybrid, "mark_displacement",
                                      wraps=hybrid.mark_displacement) as md:
                rows.append([(w.t, w.x, w.lam, w.status, w.switches, w.escalations, w.times,
                              w.states) for w in hybrid.walk(model, [[1.2]] * 16, 1, cfg,
                                                             list(range(16)), levels=[2, 4, 8],
                                                             stream=stream, record="nodes")])
            calls.append(md.call_count)
        for a, b in zip(*rows):
            assert a[2:6] == b[2:6]
            assert a[0] == b[0] and np.array_equal(a[1], b[1])
            assert np.array_equal(a[6], b[6]) and np.array_equal(a[7], b[7])
        escalated = {t for w in rows[0] for _, t in w[5]}
        assert escalated & set(times) and any(w[4] for w in rows[0])
        # the marks at 0.3 and 0.8 lie outside the row's territory
        assert calls[0] < calls[1]
