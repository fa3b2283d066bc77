"""Rate-matrix layout, mark classification and coefficient truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdiff import (DenseRates, FunctionRates, RegimeModel, TailUnresolvable,
                        make_model, mark_displacement, truncate_coefficients)
from switchdiff.certify import PowerLawRates
from switchdiff.model import radius

Q3 = np.array([
    [0.0, 1.0, 2.0],
    [3.0, 0.0, 4.0],
    [5.0, 0.0, 0.0],
])


def zero_coeff_model(rates, dim=1, horizon=1.0):
    z = np.zeros(dim)
    zm = np.zeros((dim, dim))
    return RegimeModel(dim, lambda x, i, t: z, lambda x, i, t: zm, rates, horizon)


def brute_force_layout(q, i):
    """Oracle: cumulative interval layout straight from the dense array."""
    anchor = sum(q[k].sum() - q[k, k] for k in range(i - 1))
    segs = []
    cum = anchor
    for j in range(1, q.shape[0] + 1):
        if j == i:
            continue
        w = q[i - 1, j - 1]
        if w > 0:
            segs.append((j, cum, cum + w))
            cum += w
    return anchor, segs


@pytest.fixture
def model3():
    return zero_coeff_model(DenseRates(Q3))


def assert_layout(model, i, segs, end):
    """Each (j, lo, hi) classifies as j - i at lo and at its midpoint; the row end as 0."""
    x = np.zeros(1)
    for j, lo, hi in segs:
        assert mark_displacement(model, i, x, lo) == j - i, (j, lo)
        assert mark_displacement(model, i, x, 0.5 * (lo + hi)) == j - i, (j, lo, hi)
    assert mark_displacement(model, i, x, end) == 0


class TestIntervalRow:
    def test_row2_layout_matches_hand_oracle(self, model3):
        anchor, segs = brute_force_layout(Q3, 2)
        assert anchor == 3.0
        assert segs == [(1, 3.0, 6.0), (3, 6.0, 10.0)]
        assert_layout(model3, 2, segs, 10.0)
        assert mark_displacement(model3, 2, np.zeros(1), np.nextafter(anchor, 0.0)) == 0

    def test_row3_first_segment(self, model3):
        anchor, segs = brute_force_layout(Q3, 3)
        assert anchor == 10.0
        assert segs[0] == (1, 10.0, 15.0)
        assert_layout(model3, 3, segs, 15.0)
        assert mark_displacement(model3, 3, np.zeros(1), np.nextafter(anchor, 0.0)) == 0

    def test_empty_row(self):
        q = np.zeros((2, 2))
        m = zero_coeff_model(DenseRates(q))
        assert brute_force_layout(q, 1) == (0.0, [])
        assert_layout(m, 1, [], 0.0)
        assert mark_displacement(m, 1, np.zeros(1), 0.5) == 0

    def test_powerlaw_row1_widths(self):
        # row 1 at |x| = 1, growth exponent 1: widths 2/(j-1)^3 for j >= 2
        rates = PowerLawRates(gamma=3.0, p=1.0)
        m = zero_coeff_model(rates)
        x = np.ones(1)
        # partial-sum oracle with integral tail bound for the cumulative mass
        n = 2000
        widths = 2.0 / np.arange(1, n, dtype=float) ** 3
        partial = widths.sum()
        tail_hi = 2.0 * (n ** -3.0 + 0.5 * n ** -2.0)
        total = rates.row_sum(1, x)
        assert partial <= total <= partial + tail_hi
        # the intervals are contiguous from the anchor 0 and column j ends at
        # the oracle's cumulative width: marks just either side of that end
        # go to j and j + 1
        assert mark_displacement(m, 1, x, 0.0) == 1
        cums = np.cumsum(widths)
        for k in range(200):
            j = k + 2
            assert mark_displacement(m, 1, x, cums[k] * (1 - 1e-12)) == j - 1
            assert mark_displacement(m, 1, x, cums[k] * (1 + 1e-12)) == j

    def test_lazy_materialization_stops_early(self, model3):
        class Counting(DenseRates):
            calls = 0

            def rate(self, i, j, x):
                Counting.calls += 1
                return super().rate(i, j, x)

        m = zero_coeff_model(Counting(Q3))
        # the first interval of row 2, (1, 3, 6), already covers z = 4
        assert mark_displacement(m, 2, np.zeros(1), 4.0) == -1
        assert Counting.calls == 1

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a loose row_sum with a row_tail stuck at a positive constant puts
        # the mark in a crack no finite prefix can ever certify
        class Stuck(DenseRates):
            last = 0

            def rate(self, i, j, x):
                Stuck.last = j
                return super().rate(i, j, x)

            def row_sum(self, i, x):
                return super().row_sum(i, x) + 0.5

            def row_tail(self, i, x, n):
                return 10.0

        m = zero_coeff_model(Stuck(Q3))
        monkeypatch.setattr("switchdiff.model.DEFAULT_MAX_TERMS", 50)
        with pytest.raises(TailUnresolvable):
            mark_displacement(m, 1, np.zeros(1), 3.2)
        assert Stuck.last == 50  # the walk gives up after the budget's columns


class TestMarkDisplacement:
    def test_hand_layout(self, model3):
        x = np.zeros(1)
        assert mark_displacement(model3, 2, x, 8.0) == 1   # inside (3, 6, 10)
        assert mark_displacement(model3, 2, x, 5.0) == -1  # inside (1, 3, 6)
        assert mark_displacement(model3, 3, x, 12.0) == -2

    def test_mark_beyond_all_rows(self, model3):
        total = sum(Q3.sum(axis=1))
        assert mark_displacement(model3, 1, np.zeros(1), total + 10.0) == 0

    def test_first_interval_starts_at_zero(self, model3):
        assert mark_displacement(model3, 1, np.zeros(1), 0.0) == 1

    def test_half_open_boundaries(self, model3):
        x = np.zeros(1)
        # exactly at a segment boundary the mark belongs to the next segment
        assert mark_displacement(model3, 2, x, 6.0) == 1
        # exactly at the row's end the mark is outside
        assert mark_displacement(model3, 2, x, 10.0) == 0
        # below the row anchor
        assert mark_displacement(model3, 2, x, 2.0) == 0

    def test_result_keeps_regime_positive(self, model3):
        x = np.zeros(1)
        rng = np.random.default_rng(7)
        for _ in range(500):
            i = int(rng.integers(1, 4))
            z = float(rng.uniform(0, 20))
            assert i + mark_displacement(model3, i, x, z) >= 1

    def test_budget_invariance_after_success(self, model3, monkeypatch):
        x = np.zeros(1)
        marks = (0.5, 5.0, 9.9, 11.0, 25.0)
        big = [mark_displacement(model3, 2, x, z) for z in marks]
        monkeypatch.setattr("switchdiff.model.DEFAULT_MAX_TERMS", 10)
        assert [mark_displacement(model3, 2, x, z) for z in marks] == big


class TestPartitionAndThinning:
    def test_segments_never_overlap(self, model3):
        # every regime's full layout, then a sweep: the rows' territories are
        # disjoint, so no mark switches two regimes
        for i in (1, 2, 3):
            anchor, segs = brute_force_layout(Q3, i)
            assert_layout(model3, i, segs, segs[-1][2])
        for z in np.linspace(0.0, 16.0, 321):
            moved = [i for i in (1, 2, 3) if mark_displacement(model3, i, np.zeros(1), z)]
            assert len(moved) <= 1, (z, moved)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), regime=st.integers(1, 4), x=st.floats(-3.0, 3.0),
           frac=st.floats(0.0, 0.95))
    def test_segments_contiguous_with_rate_widths(self, data, regime, x, frac):
        m = data.draw(st.integers(2, 4))
        square = st.lists(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m),
                          min_size=m, max_size=m)
        a, b = np.array(data.draw(square)), np.array(data.draw(square))
        rates = data.draw(st.sampled_from([
            DenseRates(a),
            FunctionRates(m, lambda y: a + b * abs(float(y[0])), 100.0),
            PowerLawRates(gamma=2.5 + float(a[0, 0]) / 4.0, p=1.0 + float(b[0, 0]) / 4.0)]))
        y = np.array([x])
        model = zero_coeff_model(rates)
        anchor, total = rates.anchor(regime, y), rates.row_sum(regime, y)
        assert mark_displacement(model, regime, y, np.nextafter(anchor, -np.inf)) == 0
        # walk the columns with positive rate up to anchor + frac * total; each
        # interval ends where the next begins, at anchor + cum
        prev, prev_done, end, done, cum, j = None, 0.0, anchor, 0.0, 0.0, 0
        while cum <= frac * total and j < 200:
            j += 1
            w = rates.rate(regime, j, y)
            if j == regime or not w > 0.0:
                continue
            cum += w
            if anchor + cum > end:
                # a nonempty interval [end, anchor + cum) for column j; where
                # end - anchor rounds below the width walked so far, the walk
                # stops at end itself, so the next column is checked one ulp up
                z = end if end - anchor >= done else np.nextafter(end, np.inf)
                if z < anchor + cum:
                    assert mark_displacement(model, regime, y, z) == j - regime
                if prev is not None:
                    # where below - anchor rounds under the width walked
                    # before column prev, a column too narrow to move the
                    # float end stops the walk first and claims the mark
                    below = np.nextafter(end, -np.inf)
                    want = prev - regime if below - anchor >= prev_done else 0
                    assert mark_displacement(model, regime, y, below) == want
                prev, prev_done, end = j, done, anchor + cum
            done = cum

    def test_thinning_law_binomial(self, model3):
        # uniform marks on [0, K] switch 2 -> 3 with probability q_23 / K
        rng = np.random.default_rng(123)
        K = 12.0
        n = 40_000
        marks = rng.uniform(0, K, n)
        hits = sum(1 for z in marks
                   if mark_displacement(model3, 2, np.zeros(1), z) == 1)
        p = Q3[1, 2] / K
        assert abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_conservativeness_partial_sums(self):
        rel_tol = 1e-12  # round-off slack only
        rates = PowerLawRates(gamma=3.0, p=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            i = int(rng.integers(1, 8))
            x = rng.normal(size=1) * 3
            total = rates.row_sum(i, x)
            partial = sum(rates.rate(i, j, x) for j in range(1, 200) if j != i)
            assert partial <= total * (1 + rel_tol)
            assert partial + rates.row_tail(i, x, 200) >= total * (1 - rel_tol)


class TestFunctionRates:
    def test_state_dependent_row(self):
        def q(x):
            a = abs(float(x[0]))
            return np.array([[0.0, 1.0 + a], [2.0, 0.0]])

        rates = FunctionRates(2, q, block_bound=lambda m: 3.0 + (m + 1))
        x = np.array([2.0])
        assert rates.rate(1, 2, x) == 3.0
        assert rates.row_sum(1, x) == 3.0
        assert rates.row_tail(1, x, 3) == 0.0
        assert rates.anchor(2, x) == 3.0


class TestTruncateCoefficients:
    def setup_method(self):
        one = np.ones(1)
        eye = np.eye(1)
        self.base = RegimeModel(1, lambda x, i, t: one, lambda x, i, t: eye,
                                DenseRates(np.zeros((1, 1))), 10.0)

    def test_indicator_off_in_space(self):
        m = truncate_coefficients(self.base, 5.0)
        assert m.drift(np.array([10.0]), 1, 0.0) == np.array([0.0])

    def test_indicator_on(self):
        m = truncate_coefficients(self.base, 5.0)
        assert m.drift(np.array([2.0]), 1, 1.0) == np.array([1.0])

    def test_indicator_off_in_time(self):
        m = truncate_coefficients(self.base, 5.0)
        assert (m.dispersion(np.array([0.0]), 1, 6.0) == np.zeros((1, 1))).all()

    def test_rates_unchanged(self):
        m = truncate_coefficients(self.base, 5.0)
        assert m.rates is self.base.rates

    def test_window_measures_the_kernels_radius(self):
        # |x| in one dimension, where squaring would overflow or underflow
        model = make_model("ou2")
        with np.errstate(over="ignore", under="ignore"):
            big = truncate_coefficients(model, 1e250).drift(np.array([1e200]), 1, 0.0)
            tiny = truncate_coefficients(model, 1e-180).drift(np.array([1e-170]), 1, 0.0)
        assert big[0] == -1e200
        assert tiny[0] == 0.0


def scalar_territory(rates, i, x):
    """(anchor, anchor + row_sum) from the scalar methods, or None on an overflow."""
    try:
        a = rates.anchor(i, x)
        return a, a + rates.row_sum(i, x)
    except OverflowError:
        return None


territory_rates = st.one_of(
    st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m),
        min_size=m, max_size=m)).map(DenseRates),
    st.builds(PowerLawRates, gamma=st.floats(2.0, 5.0, exclude_min=True),
              p=st.floats(1.0, 3.0)))
radii = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e200))


class TestTerritoryBatch:
    @settings(max_examples=60, deadline=None)
    @given(rates=territory_rates, dim=st.sampled_from([1, 2]),
           rows=st.lists(st.tuples(st.integers(1, 2000), radii, radii, st.booleans()),
                         min_size=1, max_size=12),
           u=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
    def test_bounds_match_scalar_and_skipped_marks_never_switch(self, rates, dim, rows, u):
        from switchdiff.hybrid import _band
        lam = [i for i, *_ in rows]
        r_lo, r_hi, X, measured = [], [], [], []
        with np.errstate(over="ignore", invalid="ignore"):  # as in the kernel
            for n, (_, a, b, point) in enumerate(rows):
                # a radius R inside the window [r_lo, r_hi]; a point window is
                # the radius of x as the kernel measures it
                R = min(a, b) + u[n] * abs(b - a)
                X.append(np.full(dim, R / np.sqrt(dim)))
                measured.append(radius(X[-1]))
                r_lo.append(measured[-1] if point else min(a, b))
                r_hi.append(measured[-1] if point else max(a, b))
        # one regime at a time, with no overflow raised or warned
        lo, hi = zip(*(rates.territory(i, a, b) for i, a, b in zip(lam, r_lo, r_hi)))
        model = zero_coeff_model(rates, dim)
        for n, (i, x) in enumerate(zip(lam, X)):
            if not np.isfinite(measured[n]):
                continue  # the kernel stops a row there: no window holds it
            blo, bhi = _band(lo[n], hi[n])
            want = scalar_territory(rates, i, x)
            if want is None or not np.isfinite(want[1]):
                # a scalar overflow must reach mark_displacement
                assert not np.isfinite(hi[n])
                assert blo == -np.inf and bhi == np.inf
                continue
            if r_lo[n] == r_hi[n]:
                assert lo[n] == pytest.approx(want[0], rel=1e-12, abs=0.0)
                assert hi[n] == pytest.approx(want[1], rel=1e-12, abs=0.0)
            elif np.isfinite(hi[n]):
                # the bounds at the window's far end may overflow, and then
                # they put no mark outside
                assert lo[n] <= want[0] * (1 + 1e-12)
                assert want[1] <= hi[n] * (1 + 1e-12)
            # marks around the territory at x and around the band, inside
            # both, and far beyond the territory
            span = want[1] - want[0]
            marks = [want[0] * (1 - 1e-6 * u[0]), want[0] * (1 - 2.0 ** -29), want[0],
                     want[0] + u[1] * span, want[1] * (1 - 2.0 ** -52), want[1],
                     want[1] * (1 + 2.0 ** -29), want[1] * (1 + u[2]), 2.0 * u[3] * want[1],
                     lo[n] * (1 - 2.0 ** -29), lo[n], hi[n], hi[n] * (1 + 2.0 ** -29)]
            for z in marks:
                if np.isfinite(z) and not blo <= z < bhi:
                    assert mark_displacement(model, i, x, z) == 0, (i, x, z)
        beyond = [n for n, (i, *_) in enumerate(rows) if isinstance(rates, DenseRates)
                  and i > rates.size]
        # regimes past a dense matrix own no marks: an empty territory at its total mass
        assert all(lo[n] == hi[n] == rates.anchor(rates.size + 1, None) for n in beyond)

    def test_subclasses_that_change_the_layout_lose_the_screen(self):
        class Loose(DenseRates):
            def row_sum(self, i, x):
                return super().row_sum(i, x) + 0.5

        class Shifted(PowerLawRates):
            def anchor(self, i, x):
                return super().anchor(i, x) + 1.0

        class Relabelled(DenseRates):
            def rate(self, i, j, x):
                return super().rate(i, j, x)

        assert DenseRates(Q3).territory is not None
        assert PowerLawRates(3.0, 1.0).territory is not None
        assert Loose(Q3).territory is None
        assert Shifted(3.0, 1.0).territory is None
        # the territory depends on anchor and row_sum only
        assert Relabelled(Q3).territory is not None
        assert FunctionRates(2, lambda x: np.ones((2, 2)), 2.0).territory is None


def column_run(i, reach):
    """Columns [lo, hi) around row i: below it, across it or above it."""
    below = st.integers(1, max(i - 1, 1)).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, i)))
    across = st.tuples(st.integers(max(i - reach, 1), i), st.integers(i + 1, i + reach))
    above = st.integers(i + 1, i + reach).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + reach)))
    return st.one_of(below, across, above)


def small_rates():
    dense = st.integers(1, 5).flatmap(lambda m: st.lists(
        st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m),
        min_size=m, max_size=m)).map(DenseRates)

    def function(m, a, b):
        cols = np.arange(m, dtype=float)
        return FunctionRates(m, lambda y: np.add.outer(cols, a + b * (float(y[0]) + 5.0) * cols),
                             100.0)

    return st.one_of(dense, st.builds(function, st.integers(1, 5),
                                      st.floats(0.5, 3.0), st.floats(0.0, 0.2)))


class TestRateBlock:
    @settings(max_examples=60, deadline=None)
    @given(rates=small_rates(), x=st.floats(-5.0, 5.0), data=st.data())
    def test_finite_rates_equal_rate_loop(self, rates, x, data):
        # DenseRates slices q, FunctionRates takes the base loop; columns and
        # rows past the matrix are 0
        i = data.draw(st.integers(1, rates.size + 2))
        lo, hi = data.draw(column_run(i, rates.size + 3))
        xs = np.array([x])
        got = rates.rate_block(i, lo, hi, xs)
        want = np.array([rates.rate(i, k, xs) for k in range(lo, hi)], dtype=float)
        assert got.shape == (hi - lo,)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(2.0, 5.0, exclude_min=True), p=st.floats(1.0, 3.0),
           dim=st.sampled_from([1, 2]), r=st.floats(0.0, 10.0),
           i=st.one_of(st.integers(1, 40), st.integers(4000, 6000)), data=st.data())
    def test_powerlaw_slices_equal_vectorised_powers(self, gamma, p, dim, r, i, data):
        # runs reach past the initial 4096-row table, so it grows under them
        lo, hi = data.draw(column_run(i, 9000))
        rates = PowerLawRates(gamma, p)
        x = np.full(dim, r / np.sqrt(dim))
        got = rates.rate_block(i, lo, hi, x)
        # the vectorised power every earlier block took, contiguous as here
        ks = np.arange(lo, hi, dtype=float)
        want = np.zeros(ks.size)
        off = ks != i
        want[off] = rates._growth(i, x) * np.abs(ks[off] - i) ** (-gamma)
        assert np.array_equal(got, want)
        # the table grows by doubling; a slice read after a later growth is the same
        rates.rate_block(1, 2, 3 * hi + 20_000, x)
        assert np.array_equal(rates.rate_block(i, lo, hi, x), want)
        # and `rate` reads the same table
        assert np.array_equal(got, [rates.rate(i, k, x) for k in range(lo, hi)])

    def test_powerlaw_rate_equals_block_at_every_distance(self):
        # numpy's SIMD power and the scalar pow may round m^-gamma differently
        # in the last place; `rate` and `rate_block` read one table, so the
        # rates that classify marks are the ones the anchors are built from
        rates = PowerLawRates(3.0, 1.0)
        x = np.array([0.5])
        ds = range(1, 20_001)
        assert [rates.rate(1, 1 + d, x) for d in ds] \
            == [rates.rate_block(1, 1 + d, 2 + d, x)[0] for d in ds]

    def test_radial_claim_is_dropped_by_overrides(self):
        # a declared factor is dropped by a subclass that overrides a rate
        # method without declaring its own
        class Scaled(PowerLawRates):
            def rate(self, i, j, x):
                return 2.0 * super().rate(i, j, x)

        class Cut(DenseRates):
            def row_tail(self, i, x, n):
                return super().row_tail(i, x, n)

        class Declared(Scaled):
            def factor(self, i, x):
                return 2.0 * self._growth(i, x)

        class Relaid(PowerLawRates):
            def anchor(self, i, x):
                return super().anchor(i, x) + 1.0

        x = np.array([-2.0])
        assert PowerLawRates(3.0, 1.0).factor(3, x) == 5.0 and DenseRates(Q3).factor(3, x) == 1.0
        assert FunctionRates(2, lambda x: np.ones((2, 2)), 2.0).factor is None
        assert Scaled(3.0, 1.0).factor is None
        assert Cut(Q3).factor is None
        assert Declared(3.0, 1.0).factor(3, x) == 10.0
        # the series never read the mark layout
        assert Relaid(3.0, 1.0).factor(3, x) == 5.0
