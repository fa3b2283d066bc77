"""Stream sampling, thinning coupling and superposition extension."""

import numpy as np
from scipy import stats

from switchdiff import extend_stream, jumps, sample_stream
from switchdiff._rng import POISSON, substream


class TestSampleStream:
    def test_mean_event_count(self):
        # Poisson(k_max * T) count: average over seeds within 4 sigma
        k_max, horizon, reps = 4.0, 1.0, 2000
        counts = [len(sample_stream(k_max, horizon, seed)) for seed in range(reps)]
        mean = np.mean(counts)
        se = np.sqrt(k_max * horizon / reps)
        assert abs(mean - k_max * horizon) < 4 * se

    def test_marks_uniform_ks(self):
        K = 7.0
        marks = np.concatenate(
            [sample_stream(K, 5.0, seed).marks for seed in range(300)])
        assert marks.size > 10_000
        stat = stats.kstest(marks / K, "uniform").pvalue
        assert stat > 0.01

    def test_times_strictly_increasing_in_window(self):
        for seed in range(50):
            s = sample_stream(20.0, 2.0, seed)
            assert (np.diff(s.times) > 0).all()
            assert (s.times > 0).all() and (s.times < 2.0).all()
            assert (s.marks >= 0).all() and (s.marks < 20.0).all()

    def test_same_seed_identical(self):
        a = sample_stream(5.0, 1.0, 99)
        b = sample_stream(5.0, 1.0, 99)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.marks, b.marks)

    def test_distinct_trajectories_differ(self):
        a = sample_stream(5.0, 1.0, 99, traj=0)
        b = sample_stream(5.0, 1.0, 99, traj=1)
        assert not np.array_equal(a.times, b.times)

    def test_zero_rate_empty(self):
        assert len(sample_stream(0.0, 1.0, 3)) == 0

    def test_zero_rate_builds_no_generator(self, monkeypatch):
        # a zero mark ceiling has no events to draw; the POISSON substream is
        # independent of every other one, so skipping it changes nothing else
        def no_generator(*args):
            raise AssertionError("substream built for an empty stream")

        monkeypatch.setattr(jumps, "substream", no_generator)
        s = sample_stream(0.0, 2.5, 7, traj=3)
        assert (s.k_max, s.horizon) == (0.0, 2.5)
        for a in (s.times, s.marks):
            assert a.dtype == np.float64 and a.shape == (0,)

    def test_stream_equals_uniform_sort_and_mask(self):
        # the stream is the one drawn by uniform, sorted, and cut to t > 0
        for seed in range(40):
            for k_max in (0.3, 4.0, 57.5):
                for horizon in (1e-3, 0.7, 2.0, 31.0):
                    got = jumps._stream(substream(seed, 1, POISSON), k_max, horizon)
                    rng = substream(seed, 1, POISSON)
                    n = int(rng.poisson(k_max * horizon))
                    times = np.sort(rng.uniform(0.0, horizon, n))
                    marks = rng.uniform(0.0, k_max, n)
                    keep = times > 0.0
                    assert np.array_equal(got.times, times[keep])
                    assert np.array_equal(got.marks, marks[keep])

    def test_events_at_time_zero_are_dropped(self):
        # times of exactly 0.0 sort first and are dropped, with the marks in
        # their places; the window is open at 0
        class Stub:
            def __init__(self):
                self.draws = iter([[0.5, 0.0, 0.25, 0.0], [0.1, 0.2, 0.3, 0.4]])

            def poisson(self, lam):
                return 4

            def random(self, n):
                return np.array(next(self.draws))

        s = jumps._stream(Stub(), 10.0, 2.0)
        assert np.array_equal(s.times, [0.5, 1.0])
        assert np.array_equal(s.marks, [3.0, 4.0])


class TestThin:
    """Thinning at a cutoff K keeps the events with mark < K, as the walk
    does when it classifies only marks below its cutoff."""

    def test_identity_at_full_ceiling(self):
        s = sample_stream(6.0, 1.0, 4)
        assert (s.marks < s.k_max).all()

    def test_tiny_cutoff_empties(self):
        s = sample_stream(6.0, 1.0, 4)
        assert not (s.marks < 1e-12).any()

    def test_coupling_inclusion_bit_exact(self):
        s = sample_stream(10.0, 3.0, 11)
        lo, hi = s.marks < 2.5, s.marks < 7.5
        # the low-cutoff events are exactly the high-cutoff events below it
        keep = s.marks[hi] < 2.5
        assert np.array_equal(s.times[lo], s.times[hi][keep])
        assert np.array_equal(s.marks[lo], s.marks[hi][keep])

    def test_interarrivals_exponential_ks(self):
        K = 5.0
        gaps = []
        for seed in range(120):
            s = sample_stream(10.0, 20.0, seed)
            gaps.append(np.diff(np.concatenate([[0.0], s.times[s.marks < K]])))
        gaps = np.concatenate(gaps)
        assert gaps.size >= 10_000
        assert stats.kstest(gaps, "expon", args=(0, 1 / K)).pvalue > 0.01

    def test_marks_independent_of_gaps(self):
        s = sample_stream(8.0, 2000.0, 17)
        keep = s.marks < 4.0
        gaps = np.diff(s.times[keep])
        marks = s.marks[keep][1:]
        n = gaps.size
        rho = np.corrcoef(gaps, marks)[0, 1]
        assert abs(rho) < 3 / np.sqrt(n)


class TestExtendStream:
    def test_existing_events_preserved(self):
        s = sample_stream(3.0, 1.0, 21)
        e = extend_stream(s, 9.0, 21)
        assert e.k_max == 9.0
        back = e.marks < 3.0
        assert np.array_equal(e.times[back], s.times)
        assert np.array_equal(e.marks[back], s.marks)

    def test_added_band_marks(self):
        s = sample_stream(3.0, 1.0, 21)
        e = extend_stream(s, 9.0, 21)
        new = e.marks[e.marks >= 3.0]
        assert new.size > 0
        assert (new < 9.0).all()

    def test_extension_rate(self):
        counts = []
        for seed in range(400):
            s = sample_stream(2.0, 1.0, seed)
            e = extend_stream(s, 12.0, seed)
            counts.append(len(e) - len(s))
        mean = np.mean(counts)
        se = np.sqrt(10.0 / 400)
        assert abs(mean - 10.0) < 4 * se

    def test_noop_when_not_larger(self):
        s = sample_stream(3.0, 1.0, 21)
        assert extend_stream(s, 2.0, 21) is s
