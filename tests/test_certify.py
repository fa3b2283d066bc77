"""Certificate checkers, series brackets and the power-law rate family."""

import bisect
import copy
import dataclasses
import functools
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from switchdiff import (ConfigError, DenseRates, ExponentialCertificate, FunctionRates,
                        PolynomialCertificate, RateMatrix, RegimeModel, SimConfig,
                        TailUnresolvable, check_condition_exp, check_condition_poly,
                        check_local_bounded_beta_sum, default_grid, estimate_moment,
                        gronwall_bound_poly, make_model, mark_displacement,
                        tau_tail_bound_poly, zeta_partial)
from switchdiff import certify
from switchdiff.certify import GridSpec, PowerLawRates
from switchdiff.model import radius

ZERO_RATES = DenseRates(np.zeros((1, 1)))


def model_of(b, s, rates=ZERO_RATES, dim=1, horizon=1.0):
    return RegimeModel(dim, b, s, rates, horizon)


def zero_model(rates=ZERO_RATES):
    z, zm = np.zeros(1), np.zeros((1, 1))
    return model_of(lambda x, i, t: z, lambda x, i, t: zm, rates)


def lone_series(rates, j, x, beta, tally=None):
    """The (down, up, half) of one series: a _series_batch of the one x, raising its error."""
    out, = certify._series_batch(rates, j, [x], beta,
                                 certify._Tally() if tally is None else tally)
    if isinstance(out, TailUnresolvable):
        raise out
    return out


class TestZeta:
    def test_partial_sum_value_against_library(self):
        for s in (2.0, 3.0, 2.5):
            mid, half = zeta_partial(s)
            assert half < 1e-10
            assert abs(mid - scipy_zeta(s)) <= half + 1e-12


class TestPowerLawSandwich:
    def test_row_sum_sandwich(self):
        rates = PowerLawRates(gamma=3.0, p=1.0)
        c = rates.zeta
        rng = np.random.default_rng(1)
        for _ in range(300):
            j = int(rng.integers(1, 51))
            x = rng.uniform(-10, 10, size=1)
            g = j + abs(float(x[0]))
            q = rates.row_sum(j, x)
            assert c * g <= q <= 2 * c * g

    def test_rate_values(self):
        rates = PowerLawRates(gamma=3.0, p=2.0)
        x = np.array([2.0])
        assert rates.rate(3, 5, x) == pytest.approx((3 + 4.0) / 8.0)
        assert rates.rate(3, 3, x) == 0.0


    def test_radius_overflow_leaves_no_stale_growth(self):
        # |x|^p overflows; a second query at the same x must not reuse the
        # growth of an earlier state
        rates = PowerLawRates(3.0, 3.0)
        assert rates.anchor(2, np.array([1.0])) == pytest.approx(2 * rates.zeta)
        huge = np.array([1e150])
        for _ in range(2):
            with pytest.raises(OverflowError):
                rates.anchor(2, huge)


def classify(rates, i, x, z):
    """mark_displacement on a model with these rates, or the type of error it raised."""
    try:
        return mark_displacement(model_of(None, None, rates, dim=x.size), i, x, z)
    except (OverflowError, TailUnresolvable) as exc:
        return type(exc)


class TestSharedPowerLawRates:
    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(2.0, 5.0, exclude_min=True), p=st.floats(1.0, 3.0),
           dim=st.sampled_from([1, 2]), data=st.data())
    def test_answers_do_not_depend_on_earlier_queries(self, gamma, p, dim, data):
        # a few states recur often, so queries repeat a state after others
        coord = st.one_of(st.sampled_from([0.0, 1.5, -3.0, 1e120, -1e200, 1e200]),
                          st.floats(-1e200, 1e200))
        states = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                    min_size=1, max_size=3))
        # regimes past the initial 4096-row tables make the shared tables grow
        queries = data.draw(st.lists(st.tuples(
            st.one_of(st.integers(1, 40), st.integers(4090, 4200)),
            st.integers(0, len(states) - 1),
            st.one_of(st.floats(-0.2, 0.9), st.floats(1.0, 1.5))), min_size=2, max_size=8))
        shared = PowerLawRates(gamma, p)
        # a NaN territory walks to the budget; keep that short
        with mock.patch("switchdiff.model.DEFAULT_MAX_TERMS", 5_000), \
                np.errstate(over="ignore", invalid="ignore"):
            for i, s, u in queries:
                x = np.array(states[s])
                fresh = PowerLawRates(gamma, p)
                try:
                    z = fresh.anchor(i, x) + u * fresh.row_sum(i, x)
                except OverflowError:
                    z = u
                want = classify(PowerLawRates(gamma, p), i, x, z)
                # asked again, the shared instance must answer the same
                got = classify(shared, i, x, z)
                assert got == want == classify(shared, i, x, z), (i, x, z)
                try:
                    radius(x) ** p
                except OverflowError:
                    assert got is OverflowError


def one_pass_tables(gamma, zeta, size):
    """_H, _A_weighted and _A_plain over size rows, each summed by one cumsum."""
    ms = np.arange(1, size + 1, dtype=float)
    H = np.concatenate([[0.0], np.cumsum(ms ** -gamma)])
    s = zeta + H[:-1]
    return H, np.concatenate([[0.0], np.cumsum(ms * s)]), np.concatenate([[0.0], np.cumsum(s)])


def table_query(rates, query):
    """One query's answer, as float hex."""
    name, i, n, r = query
    x = np.array([r])
    if name == "territory":
        return [float(v).hex() for lam in (i, max(n, 1), 1)
                for v in rates.territory(lam, r, 2.0 * r)]
    args = {"row_tail": (i, x, n), "rate": (i, max(n, 1), x),
            "row_sum": (i, x), "anchor": (i, x)}[name]
    return float(getattr(rates, name)(*args)).hex()


class TestPowerLawTables:
    """Every table grows by appending, and holds the bytes of one pass over its extent.

    _H shares _inv's extent; the regime-indexed sums _A_weighted and _A_plain
    have their own, grown only by ``anchor`` and ``territory``.
    """

    def test_reads_within_the_table_grow_nothing(self):
        # every read used to call _grow_powers, which then returned the table as it was
        rates, x = PowerLawRates(3.0, 1.0), np.array([0.5])
        size = len(rates._inv)
        with mock.patch.object(certify, "_grow_powers", wraps=certify._grow_powers) as grow:
            rates.rate(1, size + 1, x)
            rates.rate_block(3, 1, size, x)
            rates.row_sum(size, x)
            rates.row_tail(2, x, size + 2)
            rates.row_tail(size + 1, x, 2)
            assert grow.call_count == 0
            rates.rate(1, size + 2, x)
            assert grow.call_count == 1 and len(rates._inv) == 2 * size

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.one_of(st.sampled_from([3.0, 2.5]), st.floats(2.0, 5.0, exclude_min=True)),
           p=st.floats(1.0, 3.0),
           queries=st.lists(st.tuples(
               st.sampled_from(["row_tail", "rate", "row_sum", "anchor", "territory"]),
               # regimes and columns on both sides of each other and of the
               # initial 4096 rows, so the tables grow in several steps
               st.one_of(st.integers(1, 60), st.integers(1, 1 << 17)),
               st.one_of(st.integers(0, 60), st.integers(0, 1 << 17)),
               st.floats(0.0, 50.0)), min_size=1, max_size=10))
    def test_grown_tables_equal_one_pass(self, gamma, p, queries):
        shared = PowerLawRates(gamma, p)
        for query in queries:
            want = table_query(PowerLawRates(gamma, p), query)
            assert table_query(shared, query) == want, query
        size, rows = len(shared._inv), len(shared._A_plain) - 1
        assert len(shared._H) == size + 1
        assert len(shared._A_weighted) == len(shared._A_plain)
        # the largest regime the sums' readers asked for; none leaves them empty
        asked = max([i for name, i, _, _ in queries if name == "anchor"]
                    + [max(i, n) for name, i, n, _ in queries if name == "territory"], default=1)
        assert asked - 1 <= rows and (rows == 0) == (asked == 1)
        H, _, _ = one_pass_tables(shared.gamma, shared.zeta, size)
        _, weighted, plain = one_pass_tables(shared.gamma, shared.zeta, rows)
        for got, want in zip((shared._H, shared._A_weighted, shared._A_plain),
                             (H, weighted, plain)):
            assert got.tobytes() == want.tobytes()


class TestBetaSeries:
    @pytest.mark.parametrize("i", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_dense_tail_is_the_sum_over_its_columns(self, i, n):
        # past the matrix (n > 4) there is no column, and the bracket is +0.0
        q = np.arange(16, dtype=float).reshape(4, 4)
        lo, hi = DenseRates(q).beta_tail(i, np.zeros(1), n, 1.5)
        want = sum((k ** 1.5 - i ** 1.5) * q[i - 1, k - 1] for k in range(n, 5)
                   if i != k and i <= 4)
        assert lo == hi == pytest.approx(want, rel=1e-12)
        if n > 4:
            assert (math.copysign(1.0, lo), math.copysign(1.0, hi)) == (1.0, 1.0)

    def test_pi_squared_over_six(self):
        # row 1 at x=0, beta=1, gamma=3: the series telescopes to zeta(2)
        rates = PowerLawRates(gamma=3.0, p=1.0)
        m = zero_model(rates)
        grid = GridSpec(np.zeros((1, 1)), regimes=1, times=(0.0,))
        rep = check_local_bounded_beta_sum(m, 1.0, grid)
        assert rep.tails_certified
        assert abs(rep.sup - np.pi ** 2 / 6.0) < 1e-8

    def test_signed_series_closed_form(self):
        # independent oracle: sum_k (k - j) q_jk = (j + |x|) (zeta(2) - H_{j-1}(2))
        rates = PowerLawRates(gamma=3.0, p=1.0)
        for j, xv in ((1, 0.0), (2, 1.5), (5, -3.0)):
            x = np.array([xv])
            h = sum(m ** -2.0 for m in range(1, j))
            exact = (j + abs(xv)) * (scipy_zeta(2.0) - h)
            down, up, half = lone_series(rates, j, x, 1.0)
            assert abs(down + up - exact) <= half + 1e-9

    def test_beta_too_large_raises(self):
        rates = PowerLawRates(gamma=3.0, p=1.0)
        m = zero_model(rates)
        grid = GridSpec(np.zeros((1, 1)), regimes=1, times=(0.0,))
        with pytest.raises(TailUnresolvable):
            check_local_bounded_beta_sum(m, 2.5, grid)

    def test_zero_rates_sup_zero(self):
        m = zero_model(DenseRates(np.zeros((3, 3))))
        grid = GridSpec(np.zeros((1, 1)), regimes=3, times=(0.0,))
        rep = check_local_bounded_beta_sum(m, 1.0, grid)
        assert rep.sup == 0.0

    def test_dense_matrix_exact(self):
        q = np.array([[0.0, 2.0, 0.5], [1.0, 0.0, 1.5], [0.25, 0.75, 0.0]])
        m = zero_model(DenseRates(q))
        grid = GridSpec(np.zeros((1, 1)), regimes=3, times=(0.0,))
        rep = check_local_bounded_beta_sum(m, 2.0, grid)
        # brute force with absolute weights
        best = 0.0
        for j in range(1, 4):
            v = sum(abs(k ** 2.0 - j ** 2.0) * q[j - 1, k - 1] for k in range(1, 4))
            best = max(best, v)
        assert rep.sup == pytest.approx(best, rel=1e-12)


def series_outcome(rates, j, x, beta, tally):
    """The series' (down, up, half), or the type of error it raised."""
    try:
        return lone_series(rates, j, x, beta, tally)
    except TailUnresolvable as exc:
        return type(exc), exc.definitive


class TestPowerTable:
    """A sweep's series read k^beta from one shared table; it must hold fresh bytes."""

    @settings(max_examples=120, deadline=None)
    @given(beta=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                          st.floats(0.0, 3.0, exclude_min=True)),
           queries=st.lists(st.tuples(st.integers(1, 1 << 20), st.integers(1, 1 << 16)),
                            min_size=1, max_size=4))
    def test_slices_equal_fresh_powers(self, beta, queries):
        # the SIMD power must not depend on where in the array k sits, so
        # any run of columns, grown from any earlier table, reads as fresh
        table = certify._Tally()
        for n, b in queries:
            got = table.diffs(beta, n, n + b, 0.0)
            want = np.arange(n, n + b, dtype=float) ** beta
            assert got.tobytes() == want.tobytes(), (n, b)

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.sampled_from([2.5, 3.0]),
           queries=st.lists(st.tuples(st.one_of(st.sampled_from([0.5, 1.0, 1.3, 1.6]),
                                                st.floats(0.1, 2.0)),
                                      st.integers(1, 12), st.floats(0.0, 10.0)),
                            min_size=2, max_size=5))
    def test_series_do_not_depend_on_earlier_queries(self, gamma, queries):
        rates = PowerLawRates(gamma, 1.0)
        shared = certify._Tally()
        # a budget the larger betas run out of, so that failures are compared too
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", 100_000):
            for beta, j, r in queries:
                x = np.array([r])
                want = series_outcome(rates, j, x, beta, certify._Tally())
                assert series_outcome(rates, j, x, beta, shared) == want, (beta, j, r)


    def test_rate_blocks_are_only_read(self):
        # a rate matrix may hand out views of the rates it keeps
        rates = PowerLawRates(3.0, 1.0)
        real, blocks = rates.rate_block, []

        def spy(i, lo, hi, x):
            out = real(i, lo, hi, x)
            blocks.append((out, out.copy()))
            return out

        rates.rate_block = spy
        lone_series(rates, 3, np.array([1.0]), 1.3)
        assert len(blocks) > 1
        assert all(np.array_equal(out, kept) for out, kept in blocks)


class TestGridSpec:
    # regimes=0 used to certify with 0 nodes and margin inf; times=() to
    # raise IndexError in the sweep
    @pytest.mark.parametrize("kwargs", [{"regimes": 0}, {"times": ()}],
                             ids=["no-regimes", "no-times"])
    def test_empty_default_grid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            default_grid(**kwargs)

    def test_no_points_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(np.empty((0, 1)), 2, (0.0,))

    @pytest.mark.parametrize("times", [(1.0, 0.0), (0.0, float("nan")), (0.0, float("inf"))],
                             ids=["reversed", "nan", "inf"])
    def test_bad_times_rejected(self, times):
        # reversed times used to certify with a trapezoid over a reversed
        # axis, a negative sigma_integral
        with pytest.raises(ConfigError):
            GridSpec(np.zeros((1, 1)), 2, times)


    @pytest.mark.parametrize("points,regimes", [
        (np.array([[0.0], [1.0]]), 2.5),
        (np.array([[0.0], [1.0]]), "2"),
        (np.array([[0.0], [np.nan]]), 2),
        (np.array([[np.inf], [1.0]]), 2),
        (np.array([0.0, 1.0]), 2),
        (np.array([[0.0, 1.0]]), 2),
    ], ids=["fractional-regimes", "string-regimes", "nan-point", "inf-point",
            "flat-points", "two-vector"])
    @pytest.mark.parametrize("check", ["poly", "exp", "beta-sum"])
    def test_grid_checked_against_the_model(self, points, regimes, check):
        # a fractional regime count raised a raw TypeError in the sweep; a NaN
        # point reported certified=False, margin=inf, nodes=0; a flat array
        # of two 1-D points was evaluated as one 2-vector
        model = make_model("powerlaw")
        with pytest.raises(ConfigError):
            dict(TestRadialSharing.CHECKS)[check](model, GridSpec(points, regimes, (0.0,)))


class TestPolynomialChecker:
    def test_two_regime_ou_certified(self):
        rates = DenseRates([[0.0, 1.0], [2.0, 0.0]])
        eye = np.eye(1)
        m = model_of(lambda x, i, t: -x, lambda x, i, t: np.sqrt(2.0) * eye, rates)
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=6.0)
        grid = GridSpec(np.linspace(-10, 10, 41)[:, None], regimes=2,
                        times=(0.0, 0.5, 1.0))
        rep = check_condition_poly(m, cert, grid)
        assert rep.certified
        assert rep.margin >= 0
        assert "certified on grid" in rep.summary()

    def test_trivial_zero_model(self):
        m = zero_model()
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=0.0)
        rep = check_condition_poly(m, cert, default_grid())
        assert rep.certified
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_superlinear_drift_violates(self):
        m = model_of(lambda x, i, t: x ** 3, lambda x, i, t: np.zeros((1, 1)))
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=5.0)
        rep = check_condition_poly(m, cert, default_grid(radius=10.0))
        assert not rep.certified
        assert rep.margin < 0
        assert rep.violations
        assert "VIOLATED" in rep.summary()

    def test_point_whose_square_overflows_warns_nothing_and_has_finite_margins(self):
        # x . x overflows for this 2-D point: radius falls back to hypot, and
        # the margins there, once NaN and counted as -inf, are taken in
        # scaled form; they are growth + 2 theta_j, for ou2's theta = (1, 0.5)
        y = np.array([1e155, -1e155])
        model = make_model("ou2", dim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radius(y) == math.hypot(*y)
            reps = [check_condition_poly(model, PolynomialCertificate(1.0, 1.0, 6.0),
                                         GridSpec(np.array([[1.0, 0.0], y]), regimes, (0.0, 1.0)))
                    for regimes in (1, 2)]
        for rep, want in zip(reps, (8.0, 7.0)):
            assert rep.margin == pytest.approx(want, rel=1e-12)
            assert np.array_equal(rep.worst[0], y)

    def test_point_whose_weight_overflows_has_a_finite_margin(self):
        # (1 + x . x) ** p overflows though x . x does not: a float power
        # raised OverflowError; the weight is now inf and its share 0
        model = make_model("ou2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_condition_poly(model, PolynomialCertificate(2.0, 1.0, 6.0),
                                       GridSpec(np.array([[1e150]]), 2, (0.0, 1.0)))
        assert rep.margin == pytest.approx(7.0, rel=1e-12)

    def test_margin_monotone_in_growth(self):
        rates = DenseRates([[0.0, 1.0], [2.0, 0.0]])
        eye = np.eye(1)
        m = model_of(lambda x, i, t: -x, lambda x, i, t: eye, rates)
        grid = GridSpec(np.linspace(-5, 5, 11)[:, None], regimes=2, times=(0.0, 1.0))
        margins = [check_condition_poly(
            m, PolynomialCertificate(1.0, 1.0, c), grid).margin
            for c in (0.5, 1.0, 2.0, 6.0)]
        assert all(b >= a for a, b in zip(margins, margins[1:]))

    def test_powerlaw_default_certified(self):
        from switchdiff import make_model
        m = make_model("powerlaw", gamma=3.0, p=1.0)
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=3.0)
        rep = check_condition_poly(m, cert, default_grid(regimes=10))
        assert rep.certified

    def test_callable_growth_equals_constant(self):
        m = make_model("powerlaw")
        grid = default_grid(radius=4.0, n_radii=5, regimes=4)
        reps = [check_condition_poly(m, PolynomialCertificate(1.0, 1.0, g), grid)
                for g in (3.0, lambda t: 3.0)]
        assert report_fields(reps[1], skip=()) == report_fields(reps[0], skip=())
        assert reps[1].margin.hex() == reps[0].margin.hex()


class EndlessRow2(RateMatrix):
    """Row 1 has no rates; row 2 reaches every regime and declares no tail bound."""

    def rate(self, i, j, x):
        return abs(j - i) ** -3.0 if i == 2 and j != 2 else 0.0

    def row_tail(self, i, x, n):
        return float(max(n - 2, 1)) ** -2.0 if i == 2 else 0.0


def series_keys(spy, key):
    """The (j, key(x)) of every series summed through the spied _series_batch."""
    return [(c.args[1], key(x)) for c in spy.call_args_list for x in c.args[2]]


class TestSweep:
    def test_one_dispersion_call_per_node(self):
        # the sweep evaluates sigma once per node and time, and the drift once
        # per node and time, or in one drift_batch call per time where the
        # model has batch forms; for rates with a factor it sums one
        # reference series per j, at the largest radius, plus the per-point
        # series of the nodes it refines: 9 points on 5 radii
        base = make_model("powerlaw")
        calls, drifts, batches = [], [], []

        def dispersion(x, i, t):
            calls.append((i, t))
            return base.dispersion(x, i, t)

        def drift(x, i, t):
            drifts.append((i, t))
            return base.drift(x, i, t)

        def drift_batch(X, lam, t):
            batches.append((len(X), t[0]))
            return base.drift_batch(X, lam, t)

        per_node = model_of(drift, dispersion, base.rates)
        batched = dataclasses.replace(per_node, drift_batch=drift_batch,
                                      noise_batch=base.noise_batch)
        grid = default_grid(radius=4.0, n_radii=5, regimes=4)
        for m in (per_node, batched):
            for log in (calls, drifts, batches):
                log.clear()
            with mock.patch("switchdiff.certify._series_batch",
                            wraps=certify._series_batch) as spy:
                rep = check_condition_poly(m, PolynomialCertificate(1.0, 1.0, 3.0), grid)
            assert rep.tails_certified
            assert len(calls) == rep.nodes == 9 * 4 * 3
            assert sorted(drifts) == ([] if m is batched else sorted(calls))
            assert batches == ([(9 * 4, t) for t in grid.times] if m is batched else [])
            starts = series_keys(spy, radius)
            assert len(starts) == len(set(starts)) == rep.series == 4 + 2
            assert starts[:4] == [(j, 4.0) for j in range(1, 5)]
            for log in (calls, drifts, batches):
                log.clear()
            rep = check_condition_exp(m, ExponentialCertificate(0.5, 1.0, 1.0, 1.0), grid)
            assert len(calls) == 9 * 4 * 3
            assert len(drifts) == (0 if m is batched else 9 * 4 * 3)
            assert len(batches) == (3 if m is batched else 0)
            assert rep.series == 4 + 2

    def test_one_series_per_node_for_non_radial_rates(self):
        # these rates tell y from -y and declare no factor, so nothing is shared
        def q(y):
            return np.full((4, 4), 1.0 + max(float(y[0]), 0.0))

        rates = FunctionRates(4, q, 100.0)
        m = model_of(lambda x, i, t: -x, lambda x, i, t: np.eye(1), rates)
        grid = default_grid(radius=4.0, n_radii=5, regimes=4)
        with mock.patch("switchdiff.certify._series_batch",
                        wraps=certify._series_batch) as spy:
            rep = check_condition_poly(m, PolynomialCertificate(1.0, 1.0, 3.0), grid)
        assert rep.tails_certified
        starts = series_keys(spy, lambda x: float(x[0]))
        assert len(starts) == len(set(starts)) == rep.series == 9 * 4
        assert rep.nodes == 9 * 4 * 3

    def test_sigma_integral_covers_failed_series(self):
        # regime 2's series fails within budget; its dispersion still sets
        # the per-time supremum of |sigma|^2
        eye = np.eye(1)
        m = model_of(lambda x, i, t: -x, lambda x, i, t: (1.0 if i == 1 else 3.0) * eye,
                     EndlessRow2())
        grid = GridSpec(np.linspace(-2.0, 2.0, 5)[:, None], regimes=2, times=(0.0, 1.0))
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", 1000):
            rep = check_condition_poly(m, PolynomialCertificate(1.0, 1.0, 50.0), grid)
        assert not rep.tails_certified
        assert not rep.certified
        assert rep.nodes == 5 * 1 * 2
        assert rep.sigma_integral == 9.0


def reference_drift_share(y, y2, b, extra):
    """(2 y.b + extra) / (1 + |y|^2) for one node, scaled where y2 = y @ y overflows."""
    if math.isfinite(y2):
        return (2.0 * float(y @ b) + extra) / (1.0 + y2)
    s = radius(y)
    return (2.0 * float(y / s @ b) / s + extra / s / s) / (1.0 + 1.0 / s / s)


def reference_closures(model, cert):
    """The per-node (series, margin) pair of the node-by-node sweep, kept as a reference."""
    if isinstance(cert, PolynomialCertificate):
        p, beta = cert.p, cert.beta

        def series(down, up, half):
            return down + up + half

        def margin(y, j, t, series_hi, hs2):
            y2 = float(y @ y)
            w = certify._lift(y, y2, p)
            rhs = cert.growth_at(t) * (1.0 + float(j) ** beta / w)
            b = np.asarray(model.drift(y, j, t), dtype=float)
            return rhs - (series_hi / w + reference_drift_share(y, y2, b, (2.0 * p - 1.0) * hs2))

        return series, margin
    alpha, c, beta, horizon = cert.alpha, cert.c, cert.beta, cert.horizon
    discount = math.exp(-alpha * c * horizon)

    def series(down, up, half):
        return down, up + half

    def margin(y, j, t, series, hs2):
        down, up_hi = series
        y2 = float(y @ y)
        v = certify._lift(y, y2, alpha)
        w_up = v * math.exp(discount * v) if discount * v < 700.0 else np.inf
        rhs = c * (1.0 + (float(j) ** beta / w_up if np.isfinite(w_up) else 0.0))
        b = np.asarray(model.drift(y, j, t), dtype=float)
        if math.isfinite(y2):
            term1 = reference_drift_share(y, y2, b, (1.0 + 2.0 * alpha * v) * hs2)
        else:
            term1 = (reference_drift_share(y, y2, b, hs2)
                     + 2.0 * alpha * hs2 * certify._lift(y, y2, alpha - 1.0))
        w_down = v * math.exp(v) if v < 700.0 else np.inf
        t2 = down / w_down if np.isfinite(w_down) else 0.0
        t3 = up_hi / w_up if np.isfinite(w_up) else 0.0
        return rhs - (term1 + t2 + t3)

    return series, margin


@np.errstate(over="ignore", invalid="ignore")
def reference_sweep(kind, model, grid, cert):
    """The node-by-node sweep: its report and every (margin, time index) it took, in order."""
    series, margin = reference_closures(model, cert)
    pts, times = certify._points(model, grid), grid.times
    sup = [0.0] * len(times)
    tally, failed = certify._Tally(), []
    regimes = [certify._Regime(model.rates, j, pts, cert.beta, tally, screen=True)
               for j in range(1, grid.regimes + 1)]
    screened = []
    for a, y, reg, sums, exact in certify._series_nodes(pts, regimes, failed):
        hs2 = []
        for ti, t in enumerate(times):
            s = np.asarray(model.dispersion(y, reg.j, t), dtype=float)
            hs2.append(float((s * s).sum()))
            sup[ti] = max(sup[ti], hs2[-1])
        if sums is None:
            continue
        value = series(*sums)
        for t, h in zip(times, hs2):
            m = max(-np.inf, margin(y, reg.j, t, value, h))
            screened.append((m, len(screened), exact, a, reg, t, h))
    taken = [(m, k % len(times)) for m, k, *_ in screened]
    least = []
    for m, k, exact, a, reg, t, h in sorted(screened):
        if least and m > least[0][0] and not (m < 0 and (len(least) < 5 or m <= least[-1][0])):
            break
        if not exact:
            sums = reg.outcome(a)
            if isinstance(sums, TailUnresolvable):
                raise sums
            m = max(-np.inf, margin(pts[a], reg.j, t, series(*sums), h))
            taken.append((m, k % len(times)))
        bisect.insort(least, (m, k, pts[a], reg.j, t))
        del least[5:]
    margin_min, worst = np.inf, (pts[0], 1, times[0])
    if least and least[0][0] < np.inf:
        margin_min, _, y, j, t = least[0]
        worst = (y, j, t)
    violations = [(float(m), y, j, float(t)) for m, _, y, j, t in least if m < 0]
    nodes = (len(pts) * grid.regimes - len(failed)) * len(times)
    sigma_integral = float(np.trapezoid(sup, times))
    certified = (margin_min >= 0 and not failed and np.isfinite(sigma_integral))
    rep = certify.CertificateReport(kind, certified, float(margin_min), worst, violations,
                                    not failed, sigma_integral, nodes, tally.series,
                                    tally.columns, tally.max_half_width)
    return rep, taken


def array_sweep(check, model, cert, grid):
    """A checker's report and every (margin, time index) its sweep took, in
    order: all rows on the screened ends, then each refined node in visit order."""
    taken, sweep = [], certify._sweep

    def spy(kind, model, grid, beta, weights, margin):
        def recorded(rows, *sums):
            m = margin(rows, *sums)
            taken.extend(zip(np.where(np.isnan(m), -np.inf, m).tolist(), rows.ti.tolist()))
            return m

        return sweep(kind, model, grid, beta, weights, recorded)

    with mock.patch.object(certify, "_sweep", spy):
        return check(model, cert, grid), taken


def outcome_of(run):
    """run()'s report fields, sigma_integral and margins taken as exact values, or its error."""
    try:
        rep, taken = run()
    except TailUnresolvable as exc:
        return exact(exc)
    return (report_fields(rep, skip=()), rep.sigma_integral.hex(),
            [(float(m).hex(), ti) for m, ti in taken])


@st.composite
def sweep_cases(draw):
    """(model, cert, grid, budget): general off-axis points in 1-3 dimensions, some
    mirrored, some past the float range; per-regime linear drift, with or without
    batch forms, and a full-matrix sigma, NaN at one drawn (point, regime)."""
    dim = draw(st.integers(1, 3))
    coords = st.one_of(st.sampled_from([0.0, 0.5, -2.0]), st.floats(-10.0, 10.0))
    pts = [np.array(draw(st.lists(coords, min_size=dim, max_size=dim)))
           for _ in range(draw(st.integers(1, 4)))]
    pts += [-y for y in pts if draw(st.booleans())]
    rates = draw(st.one_of(screened_power_laws, matrices.map(DenseRates)))
    if isinstance(rates, DenseRates):
        # |y|^2 overflows at 1e155 per coordinate, (1 + |y|^2)^p at 1e150 for p > 1
        pts += [np.full(dim, v) for v in (1e155, -1e150) if draw(st.booleans())]
        if draw(st.booleans()):
            rates.factor = None
    regimes = draw(st.integers(1, 4))
    vec = st.lists(st.floats(-3.0, 3.0), min_size=3 * dim, max_size=3 * dim)
    coef = np.reshape(draw(vec), (3, dim))
    shift = np.reshape(draw(vec), (3, dim)) if draw(st.booleans()) else np.zeros((3, dim))
    sig = np.reshape(draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * dim * dim,
                                   max_size=3 * dim * dim)), (3, dim, dim))
    timed = draw(st.booleans())  # steady coefficients tie each node's margins over time
    nan_at = (draw(st.integers(0, len(pts) - 1)), draw(st.integers(1, regimes))) \
        if draw(st.booleans()) else None
    nan_y = pts[nan_at[0]] if nan_at else None

    def drift(x, i, t):
        k = min(i, 3) - 1
        return coef[k] * x * (1.0 + t if timed else 1.0) + shift[k]

    def dispersion(x, i, t):
        if nan_at and i == nan_at[1] and np.array_equal(x, nan_y):
            return np.full((dim, dim), np.nan)
        return sig[min(i, 3) - 1] * (1.0 + t if timed else 1.0)

    def drift_batch(X, lam, t):
        k = np.minimum(lam, 3) - 1
        return coef[k] * X * ((1.0 + t) if timed else np.ones(len(t)))[:, None] + shift[k]

    def noise_batch(X, lam, t, dW):
        return np.array([dispersion(x, i, s) @ w for x, i, s, w in zip(X, lam, t, dW)])

    model = RegimeModel(dim, drift, dispersion, rates, 1.0)
    if draw(st.booleans()):
        model = dataclasses.replace(model, drift_batch=drift_batch, noise_batch=noise_batch)
    beta = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.1, 2.5)))
    if draw(st.booleans()):
        growth = draw(st.floats(0.0, 10.0))
        if draw(st.booleans()):
            growth = functools.partial(lambda g, t: g * (1.0 + t), growth)
        cert = PolynomialCertificate(draw(st.floats(1.0, 3.0)), beta, growth)
    else:
        cert = ExponentialCertificate(draw(st.floats(0.05, 1.0)), draw(st.floats(0.1, 10.0)),
                                      beta, 1.0)
    grid = GridSpec(np.array(pts), regimes, (0.0, 0.5, 1.0))
    return model, cert, grid, draw(st.sampled_from([600, 5_000, 60_000]))


class TestArraySweep:
    """The array pass takes every margin and report field of the node-by-node sweep."""

    @settings(max_examples=150, deadline=None)
    @given(case=sweep_cases())
    def test_margins_and_reports_equal_node_by_node(self, case):
        model, cert, grid, budget = case
        poly = isinstance(cert, PolynomialCertificate)
        check = check_condition_poly if poly else check_condition_exp
        kind = "polynomial" if poly else "exponential"
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", budget):
            got = outcome_of(lambda: array_sweep(check, model, cert, grid))
            want = outcome_of(lambda: reference_sweep(kind, model, grid, cert))
        event(("batch" if model.drift_batch else "per node") + ", "
              + (kind if isinstance(got, tuple) else "raised"))
        assert got == want


class TestExponentialChecker:
    def test_trivial_alpha_one(self):
        m = zero_model()
        cert = ExponentialCertificate(alpha=1.0, c=0.7, beta=1.0, horizon=1.0)
        rep = check_condition_exp(m, cert, default_grid())
        assert rep.certified
        assert rep.margin >= 0.7  # LHS == 0, RHS >= c

    def test_strong_inward_drift_certified(self):
        alpha = 0.5
        eye = np.eye(1)

        def b(x, i, t):
            return -5.0 * x * (1.0 + float(x @ x)) ** alpha

        m = model_of(b, lambda x, i, t: 0.3 * eye)
        cert = ExponentialCertificate(alpha=alpha, c=1.0, beta=1.0, horizon=1.0)
        rep = check_condition_exp(m, cert, default_grid(radius=8.0))
        assert rep.certified

    def test_point_whose_square_overflows_has_finite_margins(self):
        # x . x overflows for this 2-D point; in scaled form the margins are
        # c + 2 theta_j - 2 alpha |sigma|^2 (1 + |y|^2) ** (alpha - 1), with
        # ou2's theta = (1, 0.5) and |sigma|^2 = 2, to rounding
        y = np.array([[1e155, -1e155]])
        model = make_model("ou2", dim=2)
        for alpha, want in ((0.5, (3.0, 2.0)), (1.0, (-1.0, -2.0))):
            cert = ExponentialCertificate(alpha=alpha, c=1.0, beta=1.0, horizon=1.0)
            for regimes, m in zip((1, 2), want):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rep = check_condition_exp(model, cert, GridSpec(y, regimes, (0.0, 1.0)))
                assert rep.margin == pytest.approx(m, rel=1e-12)

    def test_downward_only_switching(self):
        # no upward rates: the upward split is empty and must contribute zero
        q = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        m = zero_model(DenseRates(q))
        cert = ExponentialCertificate(alpha=1.0, c=0.5, beta=1.0, horizon=1.0)
        rep = check_condition_exp(m, cert, default_grid(regimes=3))
        assert rep.certified  # downward terms only ever help


class TestGronwallBound:
    def test_zero_growth(self):
        cert = PolynomialCertificate(p=2.0, beta=1.5, growth=0.0)
        v = gronwall_bound_poly(cert, [1.0], 2, 1.0)
        assert v == pytest.approx((1 + 1) ** 2 + 2.0 * 2 ** 1.5, rel=1e-12)

    def test_unit_growth_closed_form(self):
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=1.0)
        v = gronwall_bound_poly(cert, [0.0], 1, 1.0)
        assert v == pytest.approx(np.e * 2.0, rel=1e-9)
        assert v == pytest.approx(5.43656, abs=1e-4)

    def test_time_zero_is_exact(self):
        cert = PolynomialCertificate(p=1.0, beta=2.0, growth=7.0)
        v = gronwall_bound_poly(cert, [3.0], 4, 0.0)
        assert v == (1 + 9.0) + 1.0 * 16.0

    def test_time_dependent_growth(self):
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=lambda t: 2.0 * t)
        v = gronwall_bound_poly(cert, [0.0], 1, 1.0)
        assert v == pytest.approx(np.exp(1.0) * 2.0, rel=1e-6)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_bound_holds_above_p_one(self, p):
        # dX = X/2 dt from 10, no noise, no switching: F = (1+|x|^2)^p + p
        # has L F = p (1+|x|^2)^(p-1) |x|^2 <= p C F at growth C = 1, which
        # certifies, so F(X_1) = (1 + 100 e)^p + p needs the factor p in the
        # exponent: exp(int C) F(x0) is 27,735 at p = 2, against 74,437
        model = model_of(lambda x, i, t: 0.5 * x, lambda x, i, t: np.zeros((1, 1)),
                         DenseRates([[0.0]]))
        cert = PolynomialCertificate(p=p, beta=1.0, growth=1.0)
        assert check_condition_poly(model, cert, default_grid(regimes=1)).certified
        bound = gronwall_bound_poly(cert, [10.0], 1, 1.0)
        assert (1.0 + 100.0 * math.e) ** p + p <= bound
        rep = estimate_moment(model, cert, [10.0], 1, 1.0, 4,
                              SimConfig(stop_level=64, dt_target=1e-3))
        assert rep.value("gronwall_bound") == bound
        assert rep.value("moment") <= bound


    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["ou2", "powerlaw"]), data=st.data(), p=st.floats(1.0, 3.0),
           beta=st.floats(0.3, 1.2), growth=st.floats(0.5, 15.0), seed=st.integers(0, 2 ** 16))
    def test_certified_growth_bounds_the_moment(self, name, data, p, beta, growth, seed):
        # wherever the checker certifies a growth on a grid covering the stop
        # level (radius and regimes), the stopped moment stays below the
        # Gronwall bound exp(p int C) F(x0), to 3 half-widths at small n
        level = 4
        drift_rate, noise = st.floats(0.2, 2.0), st.floats(0.1, 1.5)
        if name == "ou2":
            params = dict(theta1=data.draw(drift_rate), theta2=data.draw(drift_rate),
                          sigma1=data.draw(noise), sigma2=data.draw(noise),
                          q12=data.draw(st.floats(0.1, 3.0)), q21=data.draw(st.floats(0.1, 3.0)))
        else:
            params = dict(gamma=data.draw(st.floats(2.5, 4.0)), p=data.draw(st.floats(1.0, 2.0)),
                          theta=data.draw(drift_rate), sigma=data.draw(noise))
        model = make_model(name, **params)
        cert = PolynomialCertificate(p, beta, growth)
        grid = default_grid(radius=float(level), n_radii=2 * level + 1, regimes=level)
        certified = check_condition_poly(model, cert, grid).certified
        event("certified" if certified else "not certified")
        if not certified:
            return
        x0, i0 = data.draw(st.floats(-1.5, 1.5)), data.draw(st.integers(1, 2))
        rep = estimate_moment(model, cert, [x0], i0, 0.5, 40,
                              SimConfig(stop_level=level, dt_target=0.05, seed=seed))
        assert rep.value("moment") <= rep.value("gronwall_bound") + 3 * rep.half_width("moment")


class TestTauTailBound:
    def test_already_outside(self):
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=1.0)
        assert tau_tail_bound_poly(cert, [5.0], 2, 1.0, 4) == 1.0

    def test_decreasing_in_level(self):
        # with beta = 1 the boundary infimum grows linearly, so the analytic
        # bound decays like 1/level
        cert = PolynomialCertificate(p=1.0, beta=1.0, growth=1.0)
        bounds = [tau_tail_bound_poly(cert, [1.0], 1, 1.0, lv)
                  for lv in (8, 16, 32, 64)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < 0.2
        # a quadratic regime weight sharpens the decay
        cert2 = PolynomialCertificate(p=1.0, beta=2.0, growth=1.0)
        assert tau_tail_bound_poly(cert2, [1.0], 1, 1.0, 64) < 0.01


class TestTailSoundness:
    def test_bracket_contains_refined_truncation(self):
        # the certified bracket must contain a 10x finer direct evaluation
        rates = PowerLawRates(gamma=2.6, p=1.0)
        j, x, beta = 3, np.array([0.8]), 1.2
        with mock.patch("switchdiff.certify.SERIES_REL_TOL", 1e-6):
            down, up, half = lone_series(rates, j, x, beta)
        mid = down + up
        ks = np.arange(1, 2_000_000, dtype=float)
        w = rates.rate_block(j, 1, 2_000_000, x)
        brute = float(((ks ** beta - float(j) ** beta) * w).sum())
        # brute is below the true value (positive remainder): check one side
        assert brute <= mid + half
        # and the bracket is not absurdly loose: within the residual tail
        a = 2_000_000 - j
        resid = (j + 0.8) * 2.0 * a ** (beta - 1.6) / 0.6
        assert mid - half <= brute + resid


def report_fields(rep, skip=("series", "columns")):
    """Every field of a report as exact reprs (NaN-safe), less the work counts."""
    def exact(v):
        if isinstance(v, np.ndarray):
            return exact(v.tolist())
        if isinstance(v, (list, tuple)):
            return type(v)(exact(e) for e in v)
        return repr(v)
    return {f.name: exact(getattr(rep, f.name)) for f in dataclasses.fields(rep)
            if f.name not in skip}


class NonRadialPowerLaw(PowerLawRates):
    factor = None


class RadialEndlessRow2(EndlessRow2):
    def factor(self, i, x):
        return 1.0


class TestRadialSharing:
    """Screening points by a factor changes no reported field."""

    CHECKS = [
        ("poly", lambda m, g: check_condition_poly(m, PolynomialCertificate(1.0, 0.8, 3.0), g)),
        ("exp", lambda m, g: check_condition_exp(
            m, ExponentialCertificate(0.5, 1.0, 0.8, 1.0), g)),
        ("beta-sum", lambda m, g: check_local_bounded_beta_sum(m, 0.8, g)),
    ]

    @pytest.mark.parametrize("name,check", CHECKS, ids=[c[0] for c in CHECKS])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_powerlaw_reports_equal_unshared(self, name, check, dim):
        # an outward drift puts the violations away from the origin, where
        # y and -y tie
        def drift(x, i, t):
            return 2.0 * x

        def dispersion(x, i, t):
            return np.eye(dim)

        grid = default_grid(dim, radius=6.5, n_radii=4, regimes=6)
        shared = check(model_of(drift, dispersion, PowerLawRates(3.5, 1.5), dim), grid)
        plain = check(model_of(drift, dispersion, NonRadialPowerLaw(3.5, 1.5), dim), grid)
        assert report_fields(shared) == report_fields(plain)
        if name != "beta-sum":
            assert len(shared.violations) == 5
            assert radius(shared.worst[0]) > 0
            # 1 + 2 * dim * 3 points on 4 radii: one reference per regime,
            # plus the per-point series the report needs
            assert (shared.series, plain.series) == \
                (6 + {"poly": 0, "exp": 1}[name], (1 + 6 * dim) * 6)
            assert shared.columns < plain.columns

    @pytest.mark.parametrize("name,check", CHECKS, ids=[c[0] for c in CHECKS])
    def test_budget_failures_equal_unshared(self, name, check):
        # row 2's series fails on every point, its reference first; a shared
        # failure is still listed once per point
        m = model_of(lambda x, i, t: -x, lambda x, i, t: np.eye(1), EndlessRow2())
        grid = GridSpec(np.linspace(-2.0, 2.0, 5)[:, None], regimes=3, times=(0.0, 1.0))
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", 1000):
            plain = check(m, grid)
            shared = check(model_of(m.drift, m.dispersion, RadialEndlessRow2()), grid)
        assert not shared.tails_certified
        assert report_fields(shared) == report_fields(plain)
        if name == "beta-sum":
            assert shared.failed_nodes == [(a, 2) for a in range(5)]
        else:
            assert shared.nodes == 5 * 2 * 2
            assert (shared.series, plain.series) == (3, 5 * 3)


def exact(outcome):
    """A series outcome with its floats as hex, or its error as (type, definitive, message)."""
    if isinstance(outcome, TailUnresolvable):
        return type(outcome), outcome.definitive, str(outcome)
    return tuple(float(v).hex() for v in outcome)


def tally_of(tally):
    return tally.series, tally.columns, float(tally.max_half_width).hex()


def lone_nodes(pts, regimes, rates, beta, tally):
    """Each (j, key) summed alone on its first point-major visit, as before batching.

    Returns the outcomes in the sweep's node order and the failed (a, j).
    """
    memo, out, failed = {}, [], []
    for a, y in enumerate(pts):
        for j in range(1, regimes + 1):
            key = a if rates.factor is None else rates.factor(j, y)
            if (key, j) not in memo:
                memo[key, j], = certify._series_batch(rates, j, [y], beta, tally)
            value = memo[key, j]
            if isinstance(value, TailUnresolvable):
                if value.definitive:
                    raise value
                failed.append((a, j))
            out.append(value)
    return out, failed


def outward_radial(y):
    # rates that tell y from -y: the sweep may not share their series
    return 1.0 + max(float(y[0]), 0.0)


matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.floats(0.0, 5.0), min_size=n * n, max_size=n * n).map(lambda v: np.reshape(v, (n, n))))
power_laws = st.builds(PowerLawRates, st.floats(2.0, 5.0, exclude_min=True), st.floats(1.0, 3.0))
rate_matrices = st.one_of(
    power_laws,
    power_laws,
    matrices.map(DenseRates),
    matrices.map(lambda q: FunctionRates(len(q), lambda y: q * outward_radial(y), 100.0)),
)


class TestBatchedSeries:
    """One pass over many radii sums each series as it would be summed alone."""

    @settings(max_examples=100, deadline=None)
    @given(rates=rate_matrices,
           coords=st.lists(st.one_of(st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]),
                                     st.floats(-10.0, 10.0)), min_size=1, max_size=6),
           regimes=st.integers(1, 5),
           beta=st.floats(0.1, 4.5),
           budget=st.sampled_from([0, 600, 5_000, 60_000]),
           rel_tol=st.sampled_from([1e-10, 1e-7, 1e-5]))
    def test_batch_equals_lone_series(self, rates, coords, regimes, beta, budget, rel_tol):
        # a looser tolerance ends the series of one row at different columns
        pts = np.array(coords)[:, None]
        xs = list(pts)
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", budget), \
                mock.patch("switchdiff.certify.SERIES_REL_TOL", rel_tol):
            for j in range(1, regimes + 1):
                batch, lone = certify._Tally(), certify._Tally()
                got = certify._series_batch(rates, j, xs, beta, batch)
                want = [certify._series_batch(rates, j, [x], beta, lone)[0] for x in xs]
                assert [exact(g) for g in got] == [exact(w) for w in want]
                assert tally_of(batch) == tally_of(lone)
                for g in got:
                    event(f"{type(rates).__name__}: " + (
                        "certified" if not isinstance(g, TailUnresolvable)
                        else "definitive" if g.definitive else "over budget"))
                for x, g in zip(xs, got):
                    if not isinstance(g, TailUnresolvable):
                        # a fresh tally: no k^beta table from an earlier series
                        assert exact(g) == exact(lone_series(rates, j, x, beta))

            swept, failed, alone = certify._Tally(), [], certify._Tally()
            try:
                regs = [certify._Regime(rates, j, pts, beta, swept, screen=False)
                        for j in range(1, regimes + 1)]
                nodes = [s for _, _, _, s, _ in certify._series_nodes(pts, regs, failed)]
            except TailUnresolvable as exc:
                with pytest.raises(TailUnresolvable) as info:
                    lone_nodes(pts, regimes, rates, beta, alone)
                assert exact(exc) == exact(info.value)
                assert exc.definitive
                return
            sums, alone_failed = lone_nodes(pts, regimes, rates, beta, alone)
        assert failed == alone_failed
        assert [None if s is None else exact(s) for s in nodes] == \
            [None if isinstance(s, TailUnresolvable) else exact(s) for s in sums]
        assert tally_of(swept) == tally_of(alone)

    def test_too_large_beta_raises_the_definitive_error(self):
        rates = PowerLawRates(3.0, 1.0)
        with pytest.raises(TailUnresolvable, match=r"beta=2\.0 outside") as info:
            check_condition_poly(zero_model(rates), PolynomialCertificate(1.0, 2.0, 3.0),
                                 default_grid(radius=2.0, n_radii=3, regimes=3))
        assert info.value.definitive
        with pytest.raises(TailUnresolvable, match=r"beta=2\.0 outside"):
            lone_series(rates, 1, np.array([0.5]), 2.0)

    def test_tail_integral_shared_between_radii(self):
        # one quad per (j, n) queried: the radii differ only in the growth
        # factor.  Without a factor every point sums its own series, and at
        # gamma = 3 they all certify.
        import scipy.integrate
        m = dataclasses.replace(make_model("powerlaw"), rates=NonRadialPowerLaw(3.0, 1.0))
        certify._tail_integral.cache_clear()
        with mock.patch.object(m.rates, "beta_tail", wraps=m.rates.beta_tail) as tails, \
                mock.patch("scipy.integrate.quad", wraps=scipy.integrate.quad) as quad:
            rep = check_condition_poly(m, PolynomialCertificate(1.0, 1.0, 3.0),
                                       default_grid(radius=10.0, n_radii=21, regimes=4))
        assert rep.series == 41 * 4
        assert rep.nodes > 0 and rep.tails_certified
        queried = {(c.args[0], c.args[2]) for c in tails.call_args_list}
        assert quad.call_count == len(queried) < tails.call_count


screened_power_laws = st.builds(
    PowerLawRates, st.one_of(st.sampled_from([2.5, 3.0]), st.floats(2.0, 5.0, exclude_min=True)),
    st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
screened_rates = st.one_of(
    screened_power_laws,
    screened_power_laws,
    matrices.map(DenseRates),
    st.integers(1, 4).map(lambda n: DenseRates(np.zeros((n, n)))),
)


@st.composite
def screened_points(draw, dim):
    """Points on a few radii, 0 among them, each on an axis, some mirrored."""
    radii = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 2.0, 6.5]), st.floats(0.0, 10.0)),
                          min_size=1, max_size=5))
    pts = []
    for r in radii:
        y = np.zeros(dim)
        y[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([r, -r]))
        pts += [y, -y] if draw(st.booleans()) else [y]
    return np.array(pts)


def checker_outcome(check, model, grid):
    """A report's fields less the work counts, or its error as (type, definitive, message)."""
    try:
        return report_fields(check(model, grid), skip=("series", "columns", "max_half_width"))
    except TailUnresolvable as exc:
        return exact(exc)


class TestScreen:
    """A reference series per regime, scaled by the factor, bounds every per-point series."""

    @settings(max_examples=150, deadline=None)
    @given(rates=screened_rates, dim=st.sampled_from([1, 2]), data=st.data(),
           beta=st.one_of(st.sampled_from([0.5, 1.0, 1.3]), st.floats(0.1, 2.5)),
           budget=st.sampled_from([600, 5_000, 60_000, 10**6]),
           rel_tol=st.sampled_from([1e-10, 1e-7, 1e-5]))
    def test_scaled_ends_bound_per_point_series(self, rates, dim, data, beta, budget, rel_tol):
        # a looser tolerance certifies more rows within a budget
        pts = data.draw(screened_points(dim))
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", budget), \
                mock.patch("switchdiff.certify.SERIES_REL_TOL", rel_tol):
            for j in range(1, data.draw(st.integers(1, 6)) + 1):
                reg = certify._Regime(rates, j, pts, beta, certify._Tally(), screen=True)
                event("screened" if reg.bounds else "per point")
                for a, (down_hi, up_hi, zero) in reg.bounds.items():
                    # a point of smaller factor certifies where the reference does
                    down, up, half = lone_series(rates, j, pts[a], beta)
                    assert zero == 0.0
                    assert down <= down_hi and up + half <= up_hi, (j, pts[a])

    @settings(max_examples=40, deadline=None)
    @given(rates=screened_rates, dim=st.sampled_from([1, 2]), data=st.data(),
           beta=st.one_of(st.sampled_from([0.5, 1.0, 1.3]), st.floats(0.1, 2.5)),
           budget=st.sampled_from([600, 5_000, 60_000, 10**6]),
           rel_tol=st.sampled_from([1e-10, 1e-7, 1e-5]),
           slope=st.one_of(st.sampled_from([0.0, 2.0, -1.0]), st.floats(-3.0, 3.0)),
           noise=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
           growth=st.one_of(st.sampled_from([0.0, 0.5, 3.0]), st.floats(0.0, 10.0)))
    def test_reports_equal_per_point_sweep(self, rates, dim, data, beta, budget, rel_tol,
                                           slope, noise, growth):
        grid = GridSpec(data.draw(screened_points(dim)), data.draw(st.integers(1, 5)),
                        (0.0, 0.5, 1.0))
        per_point = copy.copy(rates)
        per_point.factor = None
        checks = [
            lambda m, g: check_condition_poly(m, PolynomialCertificate(1.0, beta, growth), g),
            lambda m, g: check_condition_exp(
                m, ExponentialCertificate(0.5, growth + 0.1, beta, 1.0), g),
            lambda m, g: check_local_bounded_beta_sum(m, beta, g),
        ]
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", budget), \
                mock.patch("switchdiff.certify.SERIES_REL_TOL", rel_tol):
            for check in checks:
                got, want = (checker_outcome(check, model_of(
                    lambda x, i, t: slope * x, lambda x, i, t: noise * np.eye(dim), r, dim), grid)
                    for r in (rates, per_point))
                assert got == want

    def test_reference_at_largest_factor_keeps_the_failure_set(self):
        # within 600 columns regime 1's series certifies at radius 0 but not
        # at radius 2, so only a reference at radius 2 fails where a point
        # does; regime 2's fails everywhere
        rates, per_point = PowerLawRates(3.0, 1.0), PowerLawRates(3.0, 1.0)
        per_point.factor = None
        grid = GridSpec(np.array([[0.0], [2.0], [-2.0]]), 2, (0.0, 1.0))
        cert = PolynomialCertificate(1.0, 0.5, 3.0)
        with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", 600), \
                mock.patch("switchdiff.certify.SERIES_REL_TOL", 1e-7):
            assert lone_series(rates, 1, grid.points[0], 0.5)
            with pytest.raises(TailUnresolvable):
                lone_series(rates, 1, grid.points[1], 0.5)
            rep, want = (check_condition_poly(zero_model(r), cert, grid)
                         for r in (rates, per_point))
        assert not rep.tails_certified and rep.nodes == 1 * 2
        assert report_fields(rep) == report_fields(want)

    def test_margin_ties_go_to_node_order(self):
        # every margin is 0, but the screened bounds below them are not
        # equal: the worst node is still the first in node order
        m = zero_model(DenseRates(np.zeros((2, 2))))
        grid = GridSpec(np.array([[2.0], [0.0], [-1.0]]), 2, (0.0, 1.0))
        rep = check_condition_poly(m, PolynomialCertificate(1.0, 1.0, 0.0), grid)
        assert rep.certified and rep.margin == 0.0
        assert rep.worst[0].tolist() == [2.0] and rep.worst[1:] == (1, 0.0)


def fingerprint(rep):
    """The fields of a checker report that batching must not move, as exact reprs."""
    y, j = rep.worst[:2]
    worst = (repr(y.tolist()), int(j)) + tuple(repr(t) for t in rep.worst[2:])
    if isinstance(rep, certify.BetaSumReport):
        values = hashlib.sha256(rep.values.tobytes()).hexdigest()[:16]
        return repr(rep.sup), worst, rep.failed_nodes, values
    violations = [(repr(m), repr(y.tolist()), j, repr(t)) for m, y, j, t in rep.violations]
    return (repr(rep.margin), worst, violations, rep.tails_certified, rep.nodes,
            rep.series, rep.columns, repr(rep.max_half_width))


def golden_case(name):
    """(model, grid, beta, SERIES_MAX_TERMS) of a golden checker case."""
    if name == "dim1":
        # a budget that some rows meet and others do not
        return (make_model("powerlaw", gamma=3.0, p=1.0),
                default_grid(1, radius=20.0, n_radii=5, regimes=8), 1.2, 200_000)
    rates = PowerLawRates(3.5, 1.5) if name == "dim2" else NonRadialPowerLaw(3.5, 1.5)
    # an outward drift gives violations away from the origin
    m = model_of(lambda x, i, t: 2.0 * x, lambda x, i, t: np.eye(2), rates, dim=2)
    return m, default_grid(2, radius=6.5, n_radii=4, regimes=6), 0.8, certify.SERIES_MAX_TERMS


def golden_report(name, check):
    m, grid, beta, budget = golden_case(name)
    growth = 0.5 if name == "dim1" else 3.0
    with mock.patch("switchdiff.certify.SERIES_MAX_TERMS", budget):
        if check == "poly":
            return check_condition_poly(m, PolynomialCertificate(1.0, beta, growth), grid)
        if check == "exp":
            return check_condition_exp(m, ExponentialCertificate(0.5, growth, beta, 1.0), grid)
        return check_local_bounded_beta_sum(m, beta, grid)


# recorded before the series were summed regime-major; the series and
# columns of the factored cases since, one reference per regime plus the
# per-point series the report needs
CHECKER_GOLDENS = {
    ("dim1", "poly"): (
        "-2.284557659113675",
        ("[0.0]", 1, "0.0"),
        [("-2.284557659113675", "[0.0]", 1, "0.0"),
         ("-2.284557659113675", "[0.0]", 1, "0.5"),
         ("-2.284557659113675", "[0.0]", 1, "1.0"),
         ("-1.7355676329021938", "[0.0]", 2, "0.0"),
         ("-1.7355676329021938", "[0.0]", 2, "0.5")],
        False, 93, 28, 6866970, "4.165821723169094e-09"),
    ("dim1", "exp"): (
        "-2.319033568679698",
        ("[0.0]", 1, "0.0"),
        [("-2.319033568679698", "[0.0]", 1, "0.0"),
         ("-2.319033568679698", "[0.0]", 1, "0.5"),
         ("-2.319033568679698", "[0.0]", 1, "1.0"),
         ("-2.303876104903107", "[0.0]", 4, "0.0"),
         ("-2.303876104903107", "[0.0]", 4, "0.5")],
        False, 93, 28, 6866970, "4.165821723169094e-09"),
    ("dim1", "beta-sum"): (
        "161.81337306254517",
        ("[20.0]", 8),
        [(0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4),
         (2, 5), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (4, 3), (4, 4),
         (4, 5), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (6, 1), (6, 2), (6, 3), (6, 4),
         (6, 5), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (8, 1), (8, 2), (8, 3), (8, 4),
         (8, 5)],
        "6f131999e4452ff5"),
    ("dim2", "poly"): (
        "-1.2786851829396966",
        ("[6.5, 0.0]", 1, "0.0"),
        [("-1.2786851829396966", "[6.5, 0.0]", 1, "0.0"),
         ("-1.2786851829396966", "[6.5, 0.0]", 1, "0.5"),
         ("-1.2786851829396966", "[6.5, 0.0]", 1, "1.0"),
         ("-1.2786851829396966", "[-6.5, 0.0]", 1, "0.0"),
         ("-1.2786851829396966", "[-6.5, 0.0]", 1, "0.5")],
        True, 234, 6, 95247, "1.1687575902383333e-09"),
    ("dim2", "exp"): (
        "-1.9091710534723902",
        ("[4.333333333333333, 0.0]", 1, "0.0"),
        [("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "0.0"),
         ("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "0.5"),
         ("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "1.0"),
         ("-1.9091710534723902", "[-4.333333333333333, 0.0]", 1, "0.0"),
         ("-1.9091710534723902", "[-4.333333333333333, 0.0]", 1, "0.5")],
        True, 234, 7, 111119, "1.1687575902383333e-09"),
    ("dim2", "beta-sum"): (
        "33.23308793358234",
        ("[6.5, 0.0]", 6),
        [],
        "98dfd43eacfc5a2c"),
    ("dim2-nonradial", "poly"): (
        "-1.2786851829396966",
        ("[6.5, 0.0]", 1, "0.0"),
        [("-1.2786851829396966", "[6.5, 0.0]", 1, "0.0"),
         ("-1.2786851829396966", "[6.5, 0.0]", 1, "0.5"),
         ("-1.2786851829396966", "[6.5, 0.0]", 1, "1.0"),
         ("-1.2786851829396966", "[-6.5, 0.0]", 1, "0.0"),
         ("-1.2786851829396966", "[-6.5, 0.0]", 1, "0.5")],
        True, 234, 78, 1230019, "1.1687575902383333e-09"),
    ("dim2-nonradial", "exp"): (
        "-1.9091710534723902",
        ("[4.333333333333333, 0.0]", 1, "0.0"),
        [("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "0.0"),
         ("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "0.5"),
         ("-1.9091710534723902", "[4.333333333333333, 0.0]", 1, "1.0"),
         ("-1.9091710534723902", "[-4.333333333333333, 0.0]", 1, "0.0"),
         ("-1.9091710534723902", "[-4.333333333333333, 0.0]", 1, "0.5")],
        True, 234, 78, 1230019, "1.1687575902383333e-09"),
    ("dim2-nonradial", "beta-sum"): (
        "33.23308793358234",
        ("[6.5, 0.0]", 6),
        [],
        "98dfd43eacfc5a2c"),
}


class TestCheckerGoldens:
    """Checker reports, work counts included, pinned to their recorded reprs."""

    @pytest.mark.parametrize("name,check", sorted(CHECKER_GOLDENS))
    def test_report_unchanged(self, name, check):
        assert fingerprint(golden_report(name, check)) == CHECKER_GOLDENS[name, check]
