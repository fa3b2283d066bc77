"""Lockstep kernel: ensemble rows equal single paths at any block split or worker count."""

import copy
import math
import multiprocessing
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from switchdiff import (DenseRates, FunctionRates, JumpStream, PowerLawRates, RegimeModel,
                        SimConfig, _parallel, estimate_tau_tail, extend_stream, feller_probe,
                        hybrid, make_model, run_ensemble, sample_stream, simulate)
from switchdiff._rng import BROWNIAN, substream
from test_hybrid import dense_rates
from test_grids import one_grid

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
            "max_regime": max([int(path.regimes[0])] + [s.dst for s in path.switches]),
            "switches": len(path.switches)}


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
        serial = run_ensemble(model, x0, 1, cfg, N, threads=1)
        # blocks of 2 rows give each of 2 workers two whole blocks, so the pool starts
        with mock.patch.object(hybrid, "BLOCK_ROWS", 2):
            assert_records_equal(serial, run_ensemble(model, x0, 1, cfg, N, threads=2))

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

    def test_batch_that_raises_falls_back_to_rows(self):
        # a batch form that overflows past some radius hands that step to the
        # per-row forms, and every record equals the model's without batch forms
        drift, dispersion, drift_b, noise_b = coefficients("ou", 1.0, True)
        raised, calls = [], []

        def drift_batch(X, lam, t):
            calls.append(len(X))
            if np.abs(X).max() > 2.0:
                raised.append(len(X))
                raise OverflowError("past radius 2")
            return drift_b(X, lam, t)

        rates = DenseRates([[0.0, 2.0], [1.0, 0.0]])
        model = RegimeModel(1, drift, dispersion, rates, 1.0, drift_batch, noise_b)
        rows_only = RegimeModel(1, drift, dispersion, rates, 1.0)
        cfg = SimConfig(stop_level=4, max_stop_level=16, seed=11, dt_target=0.05)
        starts = [[0.25 * k] for k in range(N)]
        assert walked_rows(model, starts, 1, cfg, None) == walked_rows(rows_only, starts, 1, cfg,
                                                                        None)
        assert raised and len(raised) < len(calls)

    def test_row_whose_drift_raises_ends_at_the_node_its_step_reached(self):
        # a per-row drift that overflows past radius 5 leaves that step's state
        # NaN: the row ends there, non-finite, and its block companions walk on
        def drift(x, i, t):
            if abs(float(x[0])) > 5.0:
                raise OverflowError("past radius 5")
            return x

        def noise(x, i, t):
            return 0.1 * EYE

        rates = DenseRates([[0.0]])
        model = RegimeModel(1, drift, noise, rates, 1.0)
        free = RegimeModel(1, lambda x, i, t: x, noise, rates, 1.0)
        cfg = SimConfig(stop_level=100, seed=5, dt_target=0.01)
        starts = np.array([[0.5], [4.0], [-1.0]])
        ens = run_ensemble(model, starts, 1, cfg, 2)
        levels = hybrid._level_schedule(cfg)
        for k in range(2):
            # the step from the first node past radius 5 fails, so the row
            # ends at the node after it, on the grid a raise-free drift walks
            grid = simulate(free, starts[1], 1, cfg, traj=k)
            past = int(np.flatnonzero(np.abs(grid.states[:, 0]) > 5.0)[0])
            assert past + 1 < len(grid.times)
            assert ens["kind"][1, k] == "exploded" and ens["nonfinite"][1, k]
            assert ens["tau"][1, k] == ens["t_end"][1, k] == grid.times[past + 1]
            assert np.isnan(ens["x_end"][1, k]).all()
            assert (ens["hit"][1, k] == grid.times[past + 1]).all()
            for s in (0, 2):
                want = terminal(simulate(model, starts[s], 1, cfg, traj=k, record="events"),
                                levels)
                assert want["kind"] == "horizon"
                for key, value in want.items():
                    assert np.array_equal(ens[key][s, k], value, equal_nan=key != "kind"), key

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
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        # small blocks, so that these small ensembles still start 2 workers
        monkeypatch.setattr(hybrid, "BLOCK_ROWS", 2)
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
    """A copy of rates whose class has no territory, so every mark is classified."""
    plain = copy.copy(rates)
    plain.__class__ = type("Unscreened", (type(rates),), {"territory": None})
    return plain


def ou_model(rates, dim, batch):
    eye = np.eye(dim)
    forms = (lambda X, lam, t: -X / lam[:, None], lambda X, lam, t, dW: lam[:, None] * dW)
    return RegimeModel(dim, lambda x, i, t: -x / i, lambda x, i, t: i * eye, rates, 1.0,
                       *(forms if batch else (None, None)))


@st.composite
def screen_cases(draw):
    """Screened and unscreened models, a start, a regime, a configuration
    and maybe a caller-supplied stream.

    ou escalates (extending the stream and classifying marks at stop nodes
    under the next level) in one or two dimensions; tied walks it over a
    stream with several marks at one time; blowup ends rows at a non-finite
    state, and cube by an overflow in its per-row drift; huge starts so far
    out that the power-law rates overflow, which ends rows at their first
    classified mark.
    """
    family = draw(st.sampled_from(["ou", "ou", "ou", "tied", "blowup", "cube", "huge"]))
    i0 = 1
    stream = None
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
    elif family == "tied":
        rates = draw(st.one_of(dense_rates, pl))
        model = lambda r: ou_model(r, 1, True)  # noqa: E731
        x0 = [draw(st.floats(0.0, 2.5))]
        times = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30))
        times = sorted(times + times[:draw(st.integers(1, len(times)))])
        marks = draw(st.lists(st.floats(0.0, 9.99), min_size=len(times), max_size=len(times)))
        stream = JumpStream(10.0, 1.0, np.array(times), np.array(marks))
        stop = draw(st.integers(2, 5))
        cfg = SimConfig(stop_level=stop, max_stop_level=stop * draw(st.sampled_from([1, 4])),
                        mark_cutoff=draw(st.sampled_from([4.0, 8.0])), dt_target=0.05,
                        seed=seed)
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
    return model(rates), model(unscreened(rates)), x0, i0, cfg, stream


def walked_rows(model, x0, i0, cfg, stream):
    """Everything N walked trajectories from x0 (or from the N starts x0) give,
    in comparable form."""
    starts = x0 if np.ndim(x0) == 2 else [x0] * N
    return [(w.t, w.x.tobytes(), w.lam, w.status, w.switches, w.escalations, w.cutoffs)
            for w in hybrid.walk(model, starts, i0, cfg, list(range(N)), stream=stream)]


def watch_window_exits(exits):
    """``_Walk.advance``, noting each row that stops before its target
    because its radius left its band's window, clear of its level."""
    advance = hybrid._Walk.advance

    def watch(walker, row):
        if getattr(row, "target", row.k) > row.k and np.isfinite(row.wlo) and \
                row.r < walker.thresholds[row.li] - row.lam:
            exits.append(row.traj)
        return advance(walker, row)
    return watch


class TestMarkScreen:
    @settings(max_examples=40, deadline=None)
    @given(case=screen_cases(), block=st.integers(1, 8))
    def test_records_equal_unscreened_rates(self, case, block):
        screened, plain, x0, i0, cfg, stream = case
        assert plain.rates.territory is None
        calls, exits = [], []
        for model in (screened, plain):
            with mock.patch.object(hybrid, "BLOCK_ROWS", block), \
                    mock.patch.object(hybrid._Walk, "advance", watch_window_exits(exits)), \
                    mock.patch.object(hybrid, "mark_displacement",
                                      wraps=hybrid.mark_displacement) as md:
                calls.append((walked_rows(model, x0, i0, cfg, stream), md.call_count))
        assert calls[0][0] == calls[1][0]
        assert calls[0][1] <= calls[1][1]
        rows = calls[0][0]
        event(f"marks skipped: {calls[0][1] < calls[1][1]}")
        event(f"non-finite rows: {any(status.nonfinite for _, _, _, status, *_ in rows)}")
        event(f"escalated rows: {any(esc for *_, esc, _ in rows)}")
        event(f"row left its window: {bool(exits)}")
        event(f"tied grid: {stream is not None}")

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
            with mock.patch.object(hybrid, "mark_displacement",
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

    def test_bands_spare_most_classifications(self):
        # on powerlaw about 1.5% of the marks switch a regime, so a walk that
        # classifies more than a tenth of what the unscreened one does has
        # lost its bands
        model = make_model("powerlaw")
        cfg = SimConfig(stop_level=8, max_stop_level=64, seed=505)
        recs, calls = [], []
        for m in (model, replace(model, rates=unscreened(model.rates))):
            with mock.patch.object(hybrid, "mark_displacement",
                                   wraps=hybrid.mark_displacement) as md:
                recs.append(run_ensemble(m, [1.0], 1, cfg, 40))
            calls.append(md.call_count)
        assert_records_equal(*recs)
        assert calls[0] <= 0.1 * calls[1]


@st.composite
def setup_cases(draw, rates=dense_rates):
    """A model, starts, a configuration and maybe a caller-supplied stream.

    Streams are sampled per row, empty (zero rates), or one caller-supplied
    stream for every row, with or without events at one time.  Some rows
    start at or above their first level, and some of those above the last.
    ``rates`` draws the rate matrix of the other kinds.
    """
    kind = draw(st.sampled_from(["sampled", "sampled", "sampled", "zero", "caller", "tied"]))
    dim = draw(st.sampled_from([1, 2]))
    rates = DenseRates(np.zeros((2, 2))) if kind == "zero" else draw(rates)
    stop = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 40))
    cutoff = {} if kind in ("sampled", "zero") else {"mark_cutoff": 8.0}
    cfg = SimConfig(stop_level=stop, max_stop_level=stop * draw(st.sampled_from([1, 4])),
                    dt_target=draw(st.sampled_from([0.05, 0.3, 2.0])), seed=seed, **cutoff)
    starts = draw(st.lists(st.lists(st.floats(0.0, stop), min_size=dim, max_size=dim),
                           min_size=N, max_size=N))
    stream = None
    if kind in ("caller", "tied"):
        times = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=12)))
        if kind == "tied" and times:
            times += times[:draw(st.integers(1, len(times)))]
            times.sort()
        stream = JumpStream(10.0, 1.0, np.array(times), np.array(
            draw(st.lists(st.floats(0.0, 9.99), min_size=len(times), max_size=len(times)))))
    return ou_model(rates, dim, True), starts, cfg, stream


class TestBlockSetup:
    @settings(max_examples=40, deadline=None)
    @given(case=setup_cases(), block=st.integers(1, N - 1), grid_nodes=st.integers(1, 64))
    def test_block_setup_equals_row_setup(self, case, block, grid_nodes):
        # every row's stream equals sample_stream's, and its first grid and
        # each grid it redraws equal a one-row grid's from its own BROWNIAN
        # substream, continued from one draw to the next
        model, starts, cfg, stream = case
        place = hybrid._Walk.place
        drawn = {}

        def record(walker, row, off, n_nodes, ev_at, marks):
            table = walker.grids.table[off:off + n_nodes].copy()
            drawn.setdefault(row.traj, []).append((row.stream, table))
            return place(walker, row, off, n_nodes, ev_at, marks)

        trajs = list(range(3, 3 + N))
        with mock.patch.object(hybrid, "BLOCK_ROWS", block), \
                mock.patch.object(hybrid, "GRID_NODES", grid_nodes), \
                mock.patch.object(hybrid._Walk, "place", record):
            rows = list(hybrid.walk(model, starts, 1, cfg, trajs, stream=stream))
        horizon, levels = model.horizon, hybrid._level_schedule(cfg)
        for row, x0, traj in zip(rows, starts, trajs):
            want = stream
            if want is None:
                rate = hybrid.auto_truncation(model, levels[0])
                want = sample_stream(rate, horizon, cfg.seed, traj)
                for li, (_, cut) in enumerate(row.cutoffs):
                    want = extend_stream(want, cut, cfg.seed, traj, chunk=li)
            assert row.stream.k_max == want.k_max
            assert np.array_equal(row.stream.times, want.times)
            assert np.array_equal(row.stream.marks, want.marks)
            brownian = substream(cfg.seed, traj, BROWNIAN)
            for s, table in drawn.get(traj, []):
                t0 = table[0, 0]
                ev = s.times[(s.times > t0) & (s.times < horizon)]
                bp = np.unique(np.concatenate(([t0], ev, [horizon])))
                nodes, steps, incr, _ = one_grid(bp, cfg.dt_target, model.dim, brownian)
                assert np.array_equal(table[:, 0], nodes)
                assert np.array_equal(table[:-1, 1], steps)
                assert np.array_equal(table[:-1, 2:], incr)
            # and the row ends where a lone simulate call ends
            path = simulate(model, x0, 1, cfg, traj=traj, stream=stream, record="events")
            assert (row.t, row.lam, row.status) == path.terminal[::2] + (path.status,)
            assert np.array_equal(row.x, path.terminal[1], equal_nan=True)
        event(f"grids redrawn: {any(len(d) > 1 for d in drawn.values())}")

    @pytest.mark.parametrize("trajs, times", [
        ([3], None),                                   # one row
        ([3, 4, 3, 5, 6, 4, 7], None),                 # coupled rows
        ([3, 4, 5], [0.2, 0.5, 0.5, 0.7]),             # a tied caller stream
        ([3], [0.5, 0.5]),                             # one row on it
    ])
    def test_one_pass_draws_every_first_grid(self, trajs, times):
        # rows below their first level get their first grids before the
        # lockstep loop starts, tied streams and one-row blocks included: in
        # one _Grids.lay pass when the block's grids fit in GRID_NODES nodes,
        # and one pass per trajectory when no two grids fit together
        model = ou_model(DenseRates(np.array([[0.0, 2.0], [1.0, 0.0]])), 1, True)
        cfg = SimConfig(stop_level=4, mark_cutoff=8.0, seed=5)
        stream = None if times is None else JumpStream(
            10.0, model.horizon, np.array(times), np.linspace(0.5, 9.5, len(times)))
        for grid_nodes, passes in ((hybrid.GRID_NODES, 1), (1, len(set(trajs)))):
            counts = []
            lockstep = hybrid._Walk.lockstep

            def first_iteration(walker, live):
                counts.append(gb.call_count)
                return lockstep(walker, live)

            with mock.patch.object(hybrid, "GRID_NODES", grid_nodes), \
                    mock.patch.object(hybrid._Walk, "lockstep", first_iteration), \
                    mock.patch.object(hybrid._Grids, "lay", autospec=True,
                                      side_effect=hybrid._Grids.lay) as gb:
                list(hybrid.walk(model, [[0.5]] * len(trajs), 1, cfg, trajs, stream=stream))
            assert counts == [passes]


def spy_on(calls, fn, key):
    """A stand-in for fn that appends key(*args, **kwargs) to calls."""
    def spy(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return fn(*args, **kwargs)
    return spy


def extension_key(stream, new_k_max, seed, traj, chunk):
    return traj, chunk


def blocks(items, size):
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


class TestCoupledRows:
    @settings(max_examples=60, deadline=None)
    @given(case=setup_cases(powerlaw),
           trajs=st.lists(st.integers(3, 6), min_size=N, max_size=N),
           block=st.integers(1, N), grid_nodes=st.integers(1, 64),
           record=st.sampled_from([None, "nodes", "events"]))
    def test_rows_sharing_a_trajectory_equal_lone_paths(self, case, trajs, block, grid_nodes,
                                                        record):
        # rows on one trajectory share its stream, extension bands and
        # first grid, and each still ends as a lone simulate call does;
        # power-law cutoffs grow with the level, so sampled streams gain a
        # band at each level a row enters after its first
        model, starts, cfg, stream = case
        cfg = replace(cfg, max_stop_level=4 * cfg.stop_level)
        levels = hybrid._level_schedule(cfg)
        lone, extended = [], []
        for x0, traj in zip(starts, trajs):
            path = simulate(model, x0, 1, cfg, traj=traj, stream=stream,
                            record=record or "events")
            # the stream the row must hold, and the bands it extends by
            want, keys = stream, set()
            if want is None:
                want = sample_stream(hybrid.auto_truncation(model, levels[0]), model.horizon,
                                     cfg.seed, traj)
                for li, (_, cut) in enumerate(path.cutoffs):
                    if cut > want.k_max:
                        keys.add((traj, li))
                        want = extend_stream(want, cut, cfg.seed, traj, chunk=li)
            lone.append((path, want))
            extended.append(keys)
        streams, extensions = [], []
        with mock.patch.object(hybrid, "BLOCK_ROWS", block), \
                mock.patch.object(hybrid, "GRID_NODES", grid_nodes), \
                mock.patch.object(hybrid, "_stream",
                                  spy_on(streams, hybrid._stream, lambda *a: None)), \
                mock.patch.object(hybrid, "extend_stream",
                                  spy_on(extensions, extend_stream, extension_key)):
            rows = list(hybrid.walk(model, starts, 1, cfg, trajs, stream=stream,
                                    record=record))
        for row, (path, want) in zip(rows, lone):
            assert (row.t, row.lam, row.status) == path.terminal[::2] + (path.status,)
            assert np.array_equal(row.x, path.terminal[1], equal_nan=True)
            assert (row.switches, row.escalations, row.cutoffs) \
                == (path.switches, path.escalations, path.cutoffs)
            assert row.stream.k_max == want.k_max
            assert np.array_equal(row.stream.times, want.times)
            assert np.array_equal(row.stream.marks, want.marks)
            if record:
                assert np.array_equal(row.times, path.times)
                assert np.array_equal(row.states, path.states, equal_nan=True)
        # one stream per distinct trajectory of a block, and one extension
        # band per (trajectory, level) that a row of the block entered
        assert len(streams) == (0 if stream is not None else
                                sum(len(set(b)) for b in blocks(trajs, block)))
        assert sorted(extensions) == sorted(
            key for b in blocks(extended, block) for key in set().union(*b))
        coupled = any(len(set(b)) < len(b) for b in blocks(trajs, block))
        event(f"coupled rows in a block: {coupled}")
        event(f"bands shared: {sum(map(len, extended)) > len(extensions)}")
        event(f"rows with two bands: {any(len(e) > 1 for e in extended)}")
        event(f"rows escalated: {any(row.escalations for row in rows)}")


class TestTrajectoryMajor:
    def test_coupled_starts_share_blocks_and_keep_start_order(self):
        model = make_model("ou2", sigma1=2.0)
        cfg = SimConfig(stop_level=3, max_stop_level=24, seed=4)
        starts = np.array([[0.0], [1.5], [-2.0]])
        traj0, n, block = [0, 0, 3], 6, 4
        singles = [run_ensemble(model, y, 1, cfg, n, traj0=k0) for y, k0 in zip(starts, traj0)]
        streams = []
        with mock.patch.object(hybrid, "BLOCK_ROWS", block):
            for threads in (1, 2):
                with mock.patch.object(hybrid, "_stream",
                                       spy_on(streams, hybrid._stream, lambda *a: None)):
                    both = run_ensemble(model, starts, 1, cfg, n, traj0=traj0,
                                        threads=threads)
                for s, one in enumerate(singles):
                    assert_records_equal({k: v[s] for k, v in both.items()}, one)
                if threads == 1:
                    # row r walks start r % 3 at index r // 3, four rows a
                    # block: 14 distinct (block, trajectory) pairs, not 18
                    per_block = [len({traj0[r % 3] + r // 3 for r in rows})
                                 for rows in blocks(range(3 * n), block)]
                    assert len(streams) == sum(per_block) == 14
