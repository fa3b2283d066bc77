"""Certificate checkers, series brackets and the power-law rate family."""

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from switchdiff import (DenseRates, ExponentialCertificate,
                        PolynomialCertificate, RegimeModel, TailUnresolvable,
                        check_condition_exp, check_condition_poly,
                        check_local_bounded_beta_sum, default_grid,
                        gronwall_bound_poly, tau_tail_bound_poly, zeta_partial)
from switchdiff.certify import GridSpec, PowerLawRates, signed_beta_series

ZERO_RATES = DenseRates(np.zeros((1, 1)))


def model_of(b, s, rates=ZERO_RATES, dim=1, horizon=1.0):
    return RegimeModel(dim, b, s, rates, horizon)


def zero_model(rates=ZERO_RATES):
    z, zm = np.zeros(1), np.zeros((1, 1))
    return model_of(lambda x, i, t: z, lambda x, i, t: zm, rates)


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


class TestBetaSeries:
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
            mid, half = signed_beta_series(rates, j, x, 1.0)
            assert abs(mid - exact) <= half + 1e-9

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
        mid, half = signed_beta_series(rates, j, x, beta, rel_tol=1e-6)
        ks = np.arange(1, 2_000_000, dtype=float)
        w = rates.rate_block(j, ks, x)
        brute = float(((ks ** beta - float(j) ** beta) * w).sum())
        # brute is below the true value (positive remainder): check one side
        assert brute <= mid + half
        # and the bracket is not absurdly loose: within the residual tail
        a = 2_000_000 - j
        resid = (j + 0.8) * 2.0 * a ** (beta - 1.6) / 0.6
        assert mid - half <= brute + resid
