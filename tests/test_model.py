"""Rate-matrix layout, mark classification and coefficient truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdiff import (DenseRates, FunctionRates, RegimeModel, TailUnresolvable,
                        interval_row, mark_displacement, truncate_coefficients)
from switchdiff.certify import PowerLawRates

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


class TestIntervalRow:
    def test_row2_layout_matches_hand_oracle(self, model3):
        anchor, segs = brute_force_layout(Q3, 2)
        assert anchor == 3.0
        assert segs == [(1, 3.0, 6.0), (3, 6.0, 10.0)]
        row = interval_row(model3, 2, np.zeros(1), 8.0)
        assert row.anchor == anchor
        assert row.segments == segs

    def test_row3_first_segment(self, model3):
        row = interval_row(model3, 3, np.zeros(1), 12.0)
        assert row.anchor == 10.0
        assert row.segments[0] == (1, 10.0, 15.0)

    def test_empty_row(self):
        m = zero_coeff_model(DenseRates(np.zeros((2, 2))))
        row = interval_row(m, 1, np.zeros(1), 0.5)
        assert row.anchor == 0.0
        assert row.segments == []

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
        z = partial * 0.9
        row = interval_row(m, 1, x, z)
        for k, (j, lo, hi) in enumerate(row.segments):
            assert j == k + 2
            assert hi - lo == pytest.approx(2.0 / (j - 1) ** 3, rel=1e-14)
        # segments are contiguous from the anchor
        assert row.anchor == 0.0
        cums = np.cumsum(widths)
        assert row.segments[-1][2] == pytest.approx(
            cums[len(row.segments) - 1], rel=1e-12)

    def test_lazy_materialization_stops_early(self, model3):
        row = interval_row(model3, 2, np.zeros(1), 4.0)
        assert len(row.segments) == 1  # first segment already covers z=4

    def test_budget_exhaustion_raises(self):
        # a loose row_sum with a row_tail stuck at a positive constant puts
        # the mark in a crack no finite prefix can ever certify
        class Stuck(DenseRates):
            def row_sum(self, i, x):
                return super().row_sum(i, x) + 0.5

            def row_tail(self, i, x, n):
                return 10.0

        m = zero_coeff_model(Stuck(Q3))
        with pytest.raises(TailUnresolvable):
            interval_row(m, 1, np.zeros(1), 3.2, max_terms=50)


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

    def test_budget_invariance_after_success(self, model3):
        x = np.zeros(1)
        for z in (0.5, 5.0, 9.9, 11.0, 25.0):
            small = mark_displacement(model3, 2, x, z, max_terms=10)
            big = mark_displacement(model3, 2, x, z, max_terms=10**6)
            assert small == big


class TestPartitionAndThinning:
    def test_segments_never_overlap(self, model3):
        # sorted-interval sweep over every regime's full layout
        for i in (1, 2, 3):
            row = interval_row(model3, i, np.zeros(1), 1e9)
            prev_hi = row.anchor
            for j, lo, hi in row.segments:
                assert lo >= prev_hi
                assert hi > lo
                prev_hi = hi

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
        anchor, total = rates.anchor(regime, y), rates.row_sum(regime, y)
        row = interval_row(zero_coeff_model(rates), regime, y, anchor + frac * total)
        assert row.anchor == anchor
        prev_hi = anchor
        for j, lo, hi in row.segments:
            # each segment starts where the last ended: no gap, no overlap
            assert lo == prev_hi
            assert j != regime
            assert hi - lo == pytest.approx(rates.rate(regime, j, y),
                                            rel=1e-12, abs=1e-12 * hi)
            prev_hi = hi
        if row.segments:
            assert [j for j, _, _ in row.segments] == sorted(
                {j for j, _, _ in row.segments})

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
        from switchdiff.model import REL_TOL
        rates = PowerLawRates(gamma=3.0, p=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            i = int(rng.integers(1, 8))
            x = rng.normal(size=1) * 3
            total = rates.row_sum(i, x)
            partial = sum(rates.rate(i, j, x) for j in range(1, 200) if j != i)
            assert partial <= total * (1 + REL_TOL)
            assert partial + rates.row_tail(i, x, 200) >= total * (1 - REL_TOL)


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
           rows=st.lists(st.tuples(st.integers(1, 2000), radii), min_size=1, max_size=12),
           u=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
    def test_bounds_match_scalar_and_skipped_marks_never_switch(self, rates, dim, rows, u):
        from switchdiff.hybrid import _outside, _radii
        lam = np.array([i for i, _ in rows])
        X = np.array([np.full(dim, r / np.sqrt(dim)) for _, r in rows])
        # the kernel measures radii this way and screens only finite ones
        R = _radii(X)
        with np.errstate(over="ignore", invalid="ignore"):  # as in the kernel
            lo, hi = rates.territory_batch(lam, R)
        model = zero_coeff_model(rates, dim)
        for n, (i, x) in enumerate(zip(lam.tolist(), X)):
            if not np.isfinite(R[n]):
                continue
            want = scalar_territory(rates, i, x)
            if want is None or not np.isfinite(want[1]):
                # a scalar overflow must reach mark_displacement
                assert not np.isfinite(hi[n])
                assert not _outside(np.array([0.0, u[0], 1e300]), lo[n], hi[n]).any()
                continue
            assert lo[n] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert hi[n] == pytest.approx(want[1], rel=1e-12, abs=0.0)
            # marks around both bounds, inside, and far beyond the territory
            span = want[1] - want[0]
            marks = [want[0] * (1 - 1e-6 * u[0]), want[0] * (1 - 2.0 ** -29), want[0],
                     want[0] + u[1] * span, want[1] * (1 - 2.0 ** -52), want[1],
                     want[1] * (1 + 2.0 ** -29), want[1] * (1 + u[2]), 2.0 * u[3] * want[1]]
            skipped = _outside(np.array(marks), lo[n], hi[n])
            for z, out in zip(marks, skipped):
                if out:
                    assert mark_displacement(model, i, x, z) == 0, (i, x, z)
        beyond = [n for n, (i, _) in enumerate(rows) if isinstance(rates, DenseRates)
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

        assert DenseRates(Q3).territory_batch is not None
        assert PowerLawRates(3.0, 1.0).territory_batch is not None
        assert Loose(Q3).territory_batch is None
        assert Shifted(3.0, 1.0).territory_batch is None
        # the territory depends on anchor and row_sum only
        assert Relabelled(Q3).territory_batch is not None
        assert FunctionRates(2, lambda x: np.ones((2, 2)), 2.0).territory_batch is None
