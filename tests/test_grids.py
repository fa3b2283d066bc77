"""Grid construction and the fixed-regime Euler-Maruyama recursion.

Grids are built as the walk builds them, by ``_Grids.lay``; ``one_grid``
lays one grid.  The recursion runs through ``simulate`` on zero-rate
models, where a path is the Euler-Maruyama recursion on its grid;
``euler_reference`` is the plain loop the solver is compared against.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchdiff import DenseRates, RegimeModel, SimConfig, run_ensemble, simulate
from switchdiff._rng import BROWNIAN, substream
from switchdiff.hybrid import _Grids

NO_RATES = DenseRates(np.zeros((1, 1)))


def one_grid(bp, dt_target, dim, rng):
    """The grid on breakpoints bp with normals drawn from rng:
    ``(nodes, steps, increments, break_index)`` of a one-grid ``lay``,
    without the last node's empty step."""
    bp = np.asarray(bp, dtype=float)
    grids = _Grids(dim, None)
    off, bidx = grids.lay(bp, np.array([bp.size]), dt_target,
                          lambda r, out: rng.standard_normal(out=out))
    rows = grids.table[off:grids.used]
    return rows[:, 0], rows[:-1, 1], rows[:-1, 2:], bidx


def euler_reference(model, x0, regime, nodes, steps, increments):
    """Euler-Maruyama over every node of a grid with a frozen regime."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    for k in range(steps.size):
        t = nodes[k]
        x = (x + model.drift(x, regime, t) * steps[k]
             + model.dispersion(x, regime, t) @ increments[k])
        states.append(x)
    return np.array(states)


def terminal(model, x0, dt, seed=0, traj=0, horizon=1.0):
    """Terminal state of a zero-rate path on the grid [0, horizon]."""
    cfg = SimConfig(stop_level=2 ** 40, dt_target=dt, horizon=horizon, seed=seed)
    return simulate(model, x0, 1, cfg, traj=traj, record="events").terminal[1]


def diffusion_model(b, s, dim=1, horizon=10.0):
    return RegimeModel(dim, b, s, NO_RATES, horizon)


def ou_model(theta=1.0, sigma=np.sqrt(2.0)):
    eye = np.eye(1)
    return diffusion_model(lambda x, i, t: -theta * x,
                           lambda x, i, t: sigma * eye)


class TestLay:
    """One-row grids, as ``one_grid`` builds them."""

    def test_breakpoints_are_nodes_exactly(self):
        bp = [0.0, 0.137, 0.55, 1.0]
        nodes, _, _, bidx = one_grid(bp, 0.1, 1, substream(0, 0, BROWNIAN))
        for t, idx in zip(bp, bidx):
            assert nodes[idx] == t

    def test_steps_bounded_by_target(self):
        _, steps, _, _ = one_grid([0.0, 0.31, 1.0], 0.07, 1, substream(0, 0, BROWNIAN))
        assert (steps <= 0.07 * (1 + 1e-9)).all()
        assert (steps > 0).all()

    def test_increment_variance_matches_step(self):
        # aggregate many seeds; per-step variance should equal step length
        bp = [0.0, 0.5, 1.0]
        draws = []
        for seed in range(400):
            _, steps, incr, _ = one_grid(bp, 0.25, 1, substream(seed, 0, BROWNIAN))
            draws.append(incr[:, 0] / np.sqrt(steps))
        z = np.concatenate(draws)
        assert abs(z.var() - 1.0) < 0.1
        assert abs(z.mean()) < 0.05

    def test_deterministic_given_seed(self):
        a = one_grid([0.0, 1.0], 0.01, 2, substream(5, 3, BROWNIAN))
        b = one_grid([0.0, 1.0], 0.01, 2, substream(5, 3, BROWNIAN))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[2], b[2])

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            one_grid([0.0, 0.0, 1.0], 0.1, 1, substream(0, 0, BROWNIAN))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tied_events_share_a_node(self, data):
        # one lay over several grids with tied events gives, grid by grid,
        # the bytes of laying the grid alone from its distinct breakpoints,
        # with every tied breakpoint on the node of its distinct one
        dt = data.draw(st.floats(1e-3, 0.5), label="dt")
        grids, ties = [], 0
        for _ in range(data.draw(st.integers(1, 4), label="grids")):
            t0 = data.draw(st.floats(0.0, 0.9))
            inner = st.floats(t0, 1.0, exclude_min=True, exclude_max=True)
            events = data.draw(st.lists(inner, min_size=1, max_size=6))
            tied = data.draw(st.lists(st.sampled_from(events), max_size=3))
            ties += len(tied)
            grids.append(np.array([t0] + sorted(events + tied) + [1.0]))
        assume(ties > 0)
        lens = np.array([bp.size for bp in grids])
        store = _Grids(2, None)
        for _ in range(2):  # the second lay starts at an offset
            off, bidx = store.lay(np.concatenate(grids), lens, dt,
                                  lambda r, out: substream(0, r, BROWNIAN).standard_normal(out=out))
            for r, (bp, lo) in enumerate(zip(grids, np.cumsum(lens) - lens)):
                distinct = np.unique(bp)
                nodes, steps, incr, at = one_grid(distinct, dt, 2, substream(0, r, BROWNIAN))
                assert at[0] == 0 and nodes[-1] == 1.0
                assert np.array_equal(nodes[at], distinct)
                first = off + bidx[lo]
                rows = store.table[first:first + nodes.size]
                assert rows[:, 0].tobytes() == nodes.tobytes()
                assert rows[:-1, 1].tobytes() == steps.tobytes()
                assert rows[:-1, 2:].tobytes() == incr.tobytes()
                assert np.array_equal(bidx[lo:lo + bp.size] - bidx[lo],
                                      at[np.searchsorted(distinct, bp)])


class TestEulerGrid:
    """The fixed-regime recursion, run through simulate with zero rates."""

    def test_frozen_dynamics(self):
        m = diffusion_model(lambda x, i, t: np.zeros(1),
                            lambda x, i, t: np.zeros((1, 1)))
        cfg = SimConfig(stop_level=8, dt_target=0.1, horizon=1.0)
        p = simulate(m, [2.5], 1, cfg, record="nodes")
        assert p.times.size == 11
        assert (p.states == 2.5).all()

    def test_constant_drift_exact_any_dt(self):
        m = diffusion_model(lambda x, i, t: np.ones(1),
                            lambda x, i, t: np.zeros((1, 1)))
        for dt in (0.5, 0.13, 0.011):
            xe = terminal(m, [1.0], dt, horizon=2.0)
            assert xe[0] == pytest.approx(3.0, abs=1e-12)

    def test_ou_terminal_mean(self):
        # closed-form oracle: E X_1 = x0 * exp(-1); weak-order-1 bias allowed
        m = ou_model()
        n, dt = 20_000, 1.0 / 32.0
        cfg = SimConfig(stop_level=2 ** 40, dt_target=dt, horizon=1.0, seed=77)
        total = 0.0
        for x in run_ensemble(m, [1.0], 1, cfg, n)["x_end"][:, 0]:
            total += x
        mean = total / n
        sd_terminal = np.sqrt(1 - np.exp(-2.0))
        tol = 3 * sd_terminal / np.sqrt(n) + 2.0 * dt
        assert abs(mean - np.exp(-1.0)) < tol

    def test_determinism(self):
        m = ou_model()
        cfg = SimConfig(stop_level=64, dt_target=0.01, horizon=1.0, seed=3)
        outs = [simulate(m, [1.0], 1, cfg, traj=9).states for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])

    def test_breakpoint_transparency_constant_coefficients(self):
        # splitting one step with consistent increments leaves the terminal
        # state unchanged (constant-coefficient steps are exact under splits)
        b = lambda x, i, t: np.array([0.7])
        s = lambda x, i, t: np.array([[1.3]])
        m = diffusion_model(b, s)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(3)
        # coarse grid: steps 0.5, 0.5; the first fine pair sums to the first
        # coarse increment and the last increment is shared verbatim
        coarse = (np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]),
                  np.array([[0.5 * (z[0] + z[1])], [np.sqrt(0.5) * z[2]]]))
        fine = (np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.25, 0.25, 0.5]),
                np.array([[0.5 * z[0]], [0.5 * z[1]], [np.sqrt(0.5) * z[2]]]))
        xs_c = euler_reference(m, [0.2], 1, *coarse)
        xs_f = euler_reference(m, [0.2], 1, *fine)
        assert xs_f[-1, 0] == pytest.approx(xs_c[-1, 0], abs=1e-12)

    def test_refinement_bias_slope(self):
        # OU terminal-mean bias ~ O(dt): slope about 1 on log-log
        theta = 1.0
        m = diffusion_model(lambda x, i, t: -theta * x,
                            lambda x, i, t: np.zeros((1, 1)))
        biases = []
        dts = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
        for dt in dts:
            biases.append(abs(terminal(m, [1.0], dt)[0] - np.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(biases), 1)[0]
        assert 0.8 < slope < 1.2

    def test_nonfinite_raises_with_failure_time(self):
        # the state overflows between two level checks: a non-finite
        # explosion near t = 1/x0, with a finite path before it
        m = diffusion_model(lambda x, i, t: x * x,
                            lambda x, i, t: np.zeros((1, 1)))
        cfg = SimConfig(stop_level=2 ** 1000, dt_target=1e-3, horizon=1.0)
        p = simulate(m, [2.0], 1, cfg, record="nodes")
        assert p.status.nonfinite
        assert 0.4 < p.status.tau < 0.6
        assert p.times[-1] == p.status.tau
        assert np.isfinite(p.states[:-1]).all()
        assert not np.isfinite(p.states[-1]).all()
