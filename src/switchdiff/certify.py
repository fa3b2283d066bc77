"""Grid checkers for non-explosion certificates, plus the power-law rate family.

Two certificate shapes are supported.  The polynomial form asks for p >= 1,
beta > 0 and an integrable growth rate C(t) with

    sum_k (k^b - j^b) q_jk(y) / (1+|y|^2)^p
      + [2<y, b(y,j,t)> + (2p-1) |sigma(y,j,t)|_HS^2] / (1+|y|^2)
      <= C(t) [1 + j^b / (1+|y|^2)^p]

for all (y, j); it yields the moment bound
exp(int_0^t C) * [(1+|x|^2)^p + p i^b] for the stopped trajectory functional.
The exponential form replaces the polynomial weight with
(1+|y|^2)^a * exp{.} weights, splitting downward (k <= j) and upward (k > j)
switching terms.

A checker can only certify on a finite grid; reports are labelled
accordingly and are not a proof over all of R^d x S.  Infinite regime series
are evaluated with certified brackets: a finite prefix plus a
monotone-integral tail enclosure, tightened until the bracket width falls
below rel_tol * (1 + |partial sum|); evaluation fails loudly when the rate
matrix cannot certify the growth-weighted tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np
from scipy.integrate import quad

from .errors import TailUnresolvable
from .model import RateMatrix

SERIES_REL_TOL = 1e-10
SERIES_MAX_TERMS = 10**6


def zeta_partial(s, terms=100_000):
    """Bracket midpoint and half-width for zeta(s) via partial sums + integral tail.

    The tail sum_{k>=n} k^-s lies in [I, I + n^-s] with I = n^(1-s)/(s-1);
    the midpoint is therefore within n^-s/2 of the true value.
    """
    if not s > 1:
        raise ValueError("zeta series requires s > 1")
    n = int(terms)
    ks = np.arange(1, n, dtype=float)
    partial = float((ks ** (-s)).sum())
    tail_lo = n ** (1.0 - s) / (s - 1.0)
    tail_hi = tail_lo + n ** (-float(s))
    return partial + 0.5 * (tail_lo + tail_hi), 0.5 * (tail_hi - tail_lo)


class PowerLawRates(RateMatrix):
    """Rates (j + |x|^p) / |k - j|^gamma for j != k, with certified tails.

    Requires gamma > 2 (summable rows with summable first moments) and
    p >= 1.  Row sums sandwich between C*(j+|x|^p) and 2C*(j+|x|^p) with
    C = zeta(gamma); the growth-weighted series sum_k (k^b - j^b) q_jk is
    certifiable for 0 < b < gamma - 1.

    Internal prefix tables grow lazily and the last state query is
    memoized; share instances across processes (fork), not threads.
    """

    def __init__(self, gamma, p, table=4096):
        if not gamma > 2:
            raise ValueError("gamma must exceed 2")
        if not p >= 1:
            raise ValueError("growth exponent p must be >= 1")
        self.gamma = float(gamma)
        self.p = float(p)
        c_mid, c_half = zeta_partial(self.gamma)
        self.zeta = c_mid
        self._zeta_hi = c_mid + c_half
        self._build_tables(int(table))

    def _build_tables(self, size):
        g = self.gamma
        ms = np.arange(1, size + 1, dtype=float)
        inv = ms ** (-g)
        # _H[a] = sum_{m=1}^{a} m^-gamma, _H[0] = 0
        self._H = np.concatenate([[0.0], np.cumsum(inv)])
        # upper bound on sum_{m>=a} m^-gamma, index a in [1, size]
        self._tail_up = np.maximum(self._zeta_hi - self._H[:-1], 0.0)
        s = self.zeta + self._H[:-1]           # s[i-1] = S_i = zeta + H_{i-1}
        self._S = s
        self._A_weighted = np.concatenate([[0.0], np.cumsum(ms * s)])
        self._A_plain = np.concatenate([[0.0], np.cumsum(s)])
        self._size = size
        self._growth_key = None
        self._growth_val = 0.0

    def _ensure(self, i):
        if i > self._size:
            self._build_tables(max(2 * self._size, int(i) + 1))

    def _radius_pow(self, x):
        # hot path: one classification queries several rows at the same x
        key = x.tobytes() if isinstance(x, np.ndarray) else x
        if key != self._growth_key:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            r = abs(float(x[0])) if x.size == 1 else float(np.sqrt(x @ x))
            # an overflow must leave the memo as it was
            self._growth_val = r ** self.p
            self._growth_key = key
        return self._growth_val

    def _growth(self, i, x):
        return float(i) + self._radius_pow(x)

    def rate(self, i, j, x):
        if i == j:
            return 0.0
        return self._growth(i, x) * abs(j - i) ** (-self.gamma)

    def rate_block(self, i, js, x):
        js = np.asarray(js, dtype=float)
        out = np.zeros(js.shape)
        ok = js != i
        out[ok] = self._growth(i, x) * np.abs(js[ok] - i) ** (-self.gamma)
        return out

    def row_sum(self, i, x):
        self._ensure(i)
        return self._growth(i, x) * float(self._S[i - 1])

    def row_tail(self, i, x, n):
        if n <= 1:
            return self.row_sum(i, x)
        self._ensure(max(i, n))
        if n <= i:
            # remaining downward columns n..i-1 plus the whole upward side
            t = float(self._H[i - n]) + float(self._tail_up[0])
        else:
            t = float(self._tail_up[n - i - 1])
        return self._growth(i, x) * t

    def block_bound(self, level):
        m = int(level)
        # rows k <= m+1, |y| <= m: q_k(y) <= 2*zeta*(k + m^p)
        count = m + 1
        return 2.0 * self._zeta_hi * (count * (count + 1) / 2.0 + count * float(m) ** self.p)

    def anchor(self, i, x):
        self._ensure(i)
        gp = self._radius_pow(x)
        return float(self._A_weighted[i - 1]) + gp * float(self._A_plain[i - 1])

    def territory_batch(self, lam, R):
        self._ensure(int(lam.max()))
        gp = R ** self.p
        k = lam - 1
        lo = self._A_weighted[k] + gp * self._A_plain[k]
        return lo, lo + (lam + gp) * self._S[k]

    def beta_tail(self, i, x, n, beta):
        """Bracket for sum_{k>=n} (k^b - i^b) q_ik(x), n > i.

        The summand g(m) = ((m+i)^b - i^b) m^-gamma (m = k - i) is
        nonincreasing for gamma >= max(beta, 1), so the tail lies in
        [I, I + g(a)] with I the integral from a = n - i.
        """
        if not 0 < beta < self.gamma - 1:
            raise TailUnresolvable(
                f"beta={beta} outside (0, gamma-1) for power-law tails",
                definitive=True)
        if n <= i:
            raise ValueError("beta_tail requires n > i")
        a = float(n - i)
        j = float(i)
        g = self.gamma

        def tail_term(m):
            return ((m + j) ** beta - j ** beta) * m ** (-g)

        def transformed(u):
            # m = a/u maps [a, inf) to (0, 1]; integrand stays smooth since
            # beta < gamma - 1
            m = a / u
            return tail_term(m) * a / (u * u)

        integral, err = quad(transformed, 0.0, 1.0, limit=200)
        scale = self._growth(i, x)
        lo = scale * max(integral - err, 0.0)
        hi = scale * (integral + err + tail_term(a))
        return lo, hi


def _upward_series(rates, j, x, beta, rel_tol=SERIES_REL_TOL,
                   max_terms=SERIES_MAX_TERMS):
    """Certified (value, half_width) for sum_{k>j} (k^b - j^b) q_jk(x)."""
    jb = float(j) ** beta
    partial = 0.0
    n = j + 1
    block = 512
    examined = 0
    first = True
    while examined <= max_terms:
        if rates.row_tail(j, x, n) == 0.0:
            return partial, 0.0
        scale = 1.0 + abs(partial)
        lead = (float(n) ** beta - jb) * rates.rate(j, n, x)
        if first or lead <= rel_tol * scale:
            # the first attempt surfaces definitively uncertifiable tails
            first = False
            try:
                lo, hi = rates.beta_tail(j, x, n, beta)
            except TailUnresolvable as exc:
                if exc.definitive:
                    raise
            else:
                if hi - lo <= 2.0 * rel_tol * scale:
                    return partial + 0.5 * (lo + hi), 0.5 * (hi - lo)
        ks = np.arange(n, n + block, dtype=float)
        w = rates.rate_block(j, ks, x)
        partial += float(((ks ** beta - jb) * w).sum())
        n += block
        examined += block
        block = min(2 * block, 1 << 16)
    raise TailUnresolvable(
        f"growth-weighted series for row {j} not certified within {max_terms} terms",
        definitive=False)


def _downward_series(rates, j, x, beta):
    """Exact sum_{k<j} (k^b - j^b) q_jk(x) (finitely many terms, all <= 0)."""
    if j <= 1:
        return 0.0
    ks = np.arange(1, j, dtype=float)
    w = rates.rate_block(j, ks, x)
    return float(((ks ** beta - float(j) ** beta) * w).sum())


def signed_beta_series(rates, j, x, beta, rel_tol=SERIES_REL_TOL,
                       max_terms=SERIES_MAX_TERMS):
    """Certified (value, half_width) for sum_{k != j} (k^b - j^b) q_jk(x)."""
    up, half = _upward_series(rates, j, x, beta, rel_tol, max_terms)
    return _downward_series(rates, j, x, beta) + up, half


@dataclass(frozen=True)
class PolynomialCertificate:
    """Polynomial Lyapunov data (p, beta, C(t)); C may be a constant."""

    p: float
    beta: float
    growth: Union[float, Callable[[float], float]]

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("certificate requires p >= 1")
        if not self.beta > 0:
            raise ValueError("certificate requires beta > 0")

    def growth_at(self, t):
        if callable(self.growth):
            return float(self.growth(t))
        return float(self.growth)


@dataclass(frozen=True)
class ExponentialCertificate:
    """Exponential Lyapunov data (alpha, c, beta) over a fixed horizon."""

    alpha: float
    c: float
    beta: float
    horizon: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Finite evaluation grid: state points, regime cutoff, time nodes."""

    points: np.ndarray
    regimes: int
    times: Tuple[float, ...]


def default_grid(dim=1, radius=10.0, n_radii=21, regimes=12,
                 times=(0.0, 0.5, 1.0)):
    """Axis-aligned grid through the origin out to the given radius."""
    radii = np.linspace(0.0, radius, n_radii)
    pts = [np.zeros(dim)]
    for r in radii[1:]:
        for axis in range(dim):
            for sgn in (1.0, -1.0):
                p = np.zeros(dim)
                p[axis] = sgn * r
                pts.append(p)
    return GridSpec(np.array(pts), int(regimes), tuple(float(t) for t in times))


@dataclass
class BetaSumReport:
    """Grid supremum of sum_k |k^b - j^b| q_jk with tail certification flags."""

    sup: float
    worst: Tuple[np.ndarray, int]
    values: np.ndarray
    tails_certified: bool
    failed_nodes: List[Tuple[int, int]]


def check_local_bounded_beta_sum(model, beta, grid, rel_tol=SERIES_REL_TOL,
                                 max_terms=SERIES_MAX_TERMS):
    """Evaluate sup over the grid of the absolute growth-weighted rate series.

    Every node value carries a certified tail; nodes whose tails cannot be
    certified within budget are reported, while parameter combinations the
    rate matrix can never certify raise TailUnresolvable.
    """
    rates = model.rates
    pts = np.atleast_2d(np.asarray(grid.points, dtype=float))
    vals = np.zeros((pts.shape[0], grid.regimes))
    failed = []
    for a, y in enumerate(pts):
        for j in range(1, grid.regimes + 1):
            try:
                up, _ = _upward_series(rates, j, y, beta, rel_tol, max_terms)
            except TailUnresolvable as exc:
                if exc.definitive:
                    raise
                failed.append((a, j))
                vals[a, j - 1] = np.nan
                continue
            vals[a, j - 1] = up - _downward_series(rates, j, y, beta)
    finite = vals[np.isfinite(vals)]
    sup = float(finite.max()) if finite.size else float("nan")
    flat = np.where(np.isfinite(vals), vals, -np.inf)
    ai, ji = np.unravel_index(int(np.argmax(flat)), vals.shape)
    return BetaSumReport(sup, (pts[ai], ji + 1), vals, not failed, failed)


@dataclass
class CertificateReport:
    """Outcome of a grid certificate check.

    Grid certification is evidence on the sampled nodes only, not a proof
    over the whole state space.
    """

    kind: str
    certified: bool
    margin: float
    worst: Tuple[np.ndarray, int, float]
    violations: List[Tuple[float, np.ndarray, int, float]]
    tails_certified: bool
    sigma_integral: float
    nodes: int

    def summary(self):
        where = f"y={np.array2string(np.asarray(self.worst[0]), precision=3)}, " \
                f"j={self.worst[1]}, t={self.worst[2]:g}"
        if self.certified:
            return (f"{self.kind} certificate: certified on grid "
                    f"({self.nodes} nodes, min margin {self.margin:.6g} at {where})")
        return (f"{self.kind} certificate: VIOLATED on grid "
                f"(worst margin {self.margin:.6g} at {where}, "
                f"{len(self.violations)} violating nodes)")


def _sigma_hs2(model, y, j, t):
    s = np.asarray(model.dispersion(np.asarray(y, dtype=float), j, t), dtype=float)
    return float((s * s).sum())


def _sigma_integral(model, grid):
    times = np.asarray(grid.times, dtype=float)
    if times.size < 2:
        return 0.0
    pts = np.atleast_2d(np.asarray(grid.points, dtype=float))
    sup = np.zeros(times.size)
    for ti, t in enumerate(times):
        m = 0.0
        for y in pts:
            for j in range(1, grid.regimes + 1):
                m = max(m, _sigma_hs2(model, y, j, t))
        sup[ti] = m
    return float(np.trapezoid(sup, times))


def _collect_margins(model, grid, series_fn, lhs_fn, rhs_fn):
    """Shared sweep: min margin, worst node, violations, over (y, j, t).

    series_fn(y, j) evaluates the regime series once per (y, j); lhs_fn(y, j,
    t, series) and rhs_fn(y, j, t) are the two sides at each node.
    """
    pts = np.atleast_2d(np.asarray(grid.points, dtype=float))
    margin = np.inf
    worst = (pts[0], 1, grid.times[0])
    violations = []
    nodes = 0
    failed = []
    for a, y in enumerate(pts):
        for j in range(1, grid.regimes + 1):
            try:
                series = series_fn(y, j)
            except TailUnresolvable as exc:
                if exc.definitive:
                    raise
                failed.append((a, j))
                continue
            for t in grid.times:
                nodes += 1
                m = rhs_fn(y, j, t) - lhs_fn(y, j, t, series)
                if m < margin:
                    margin = m
                    worst = (y, j, t)
                if m < 0:
                    violations.append((float(m), y, j, float(t)))
    violations.sort(key=lambda v: v[0])
    return margin, worst, violations[:5], nodes, failed


def check_condition_poly(model, cert, grid, rel_tol=SERIES_REL_TOL,
                         max_terms=SERIES_MAX_TERMS):
    """Check the polynomial certificate inequality on every grid node.

    The series value enters through its certified upper bracket end, so a
    nonnegative reported margin is sound for the sampled nodes.
    """
    rates = model.rates
    p, beta = cert.p, cert.beta

    def series(y, j):
        val, half = signed_beta_series(rates, j, y, beta, rel_tol, max_terms)
        return val + half  # sound upper end

    def lhs(y, j, t, series_hi):
        y2 = float(y @ y)
        b = np.asarray(model.drift(y, j, t), dtype=float)
        drift_term = 2.0 * float(y @ b) + (2.0 * p - 1.0) * _sigma_hs2(model, y, j, t)
        return series_hi / (1.0 + y2) ** p + drift_term / (1.0 + y2)

    def rhs(y, j, t):
        y2 = float(y @ y)
        return cert.growth_at(t) * (1.0 + float(j) ** beta / (1.0 + y2) ** p)

    margin, worst, violations, nodes, failed = _collect_margins(model, grid, series, lhs, rhs)
    sigma_integral = _sigma_integral(model, grid)
    certified = (margin >= 0 and not failed and np.isfinite(sigma_integral))
    return CertificateReport("polynomial", certified, float(margin), worst,
                             violations, not failed, sigma_integral, nodes)


def check_condition_exp(model, cert, grid, rel_tol=SERIES_REL_TOL,
                        max_terms=SERIES_MAX_TERMS):
    """Check the exponential certificate inequality on every grid node.

    Downward (k <= j) and upward (k > j) switching sums carry different
    exponential weights; the downward sum is finite and exact, the upward
    sum uses its certified upper bracket end.  Rows with no upward rates
    contribute an empty (zero) upward sum.
    """
    rates = model.rates
    alpha, c, beta, horizon = cert.alpha, cert.c, cert.beta, cert.horizon
    discount = math.exp(-alpha * c * horizon)

    def series(y, j):
        up, half = _upward_series(rates, j, y, beta, rel_tol, max_terms)
        return (_downward_series(rates, j, y, beta), up + half)

    def lhs(y, j, t, series):
        down, up_hi = series
        y2 = float(y @ y)
        v = (1.0 + y2) ** alpha
        b = np.asarray(model.drift(y, j, t), dtype=float)
        hs2 = _sigma_hs2(model, y, j, t)
        term1 = (2.0 * float(y @ b) + (1.0 + 2.0 * alpha * v) * hs2) / (1.0 + y2)
        w_down = v * math.exp(v) if v < 700.0 else np.inf
        w_up = v * math.exp(discount * v) if discount * v < 700.0 else np.inf
        t2 = down / w_down if np.isfinite(w_down) else 0.0
        t3 = up_hi / w_up if np.isfinite(w_up) else 0.0
        return term1 + t2 + t3

    def rhs(y, j, t):
        y2 = float(y @ y)
        v = (1.0 + y2) ** alpha
        w_up = v * math.exp(discount * v) if discount * v < 700.0 else np.inf
        extra = float(j) ** beta / w_up if np.isfinite(w_up) else 0.0
        return c * (1.0 + extra)

    margin, worst, violations, nodes, failed = _collect_margins(model, grid, series, lhs, rhs)
    sigma_integral = _sigma_integral(model, grid)
    certified = (margin >= 0 and not failed and np.isfinite(sigma_integral))
    return CertificateReport("exponential", certified, float(margin), worst,
                             violations, not failed, sigma_integral, nodes)


def _simpson(fn, a, b, intervals=1000):
    if b <= a:
        return 0.0
    if intervals % 2:
        intervals += 1
    xs = np.linspace(a, b, intervals + 1)
    ys = np.array([fn(float(x)) for x in xs])
    h = (b - a) / intervals
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def gronwall_bound_poly(cert, x0, i0, t):
    """Moment bound exp(int_0^t C(s) ds) * [(1+|x0|^2)^p + p * i0^beta].

    The growth integral is composite Simpson over 10^3 nodes.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    integral = _simpson(cert.growth_at, 0.0, float(t))
    f0 = (1.0 + float(x0 @ x0)) ** cert.p + cert.p * float(i0) ** cert.beta
    return math.exp(integral) * f0


def exit_level_infimum(cert, level):
    """min over the boundary |y| + j = level of (1+|y|^2)^p + p j^beta."""
    js = np.arange(1, int(level) + 1, dtype=float)
    rs = float(level) - js
    vals = (1.0 + rs ** 2) ** cert.p + cert.p * js ** cert.beta
    return float(vals.min())


def tau_tail_bound_poly(cert, x0, i0, t, level):
    """Certificate bound on P(stop time of `level` <= t), capped at 1.

    The stopped functional is bounded by its growth-weighted start value, so
    the exit probability is at most that bound over the functional's
    infimum beyond the level boundary.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if float(np.linalg.norm(x0)) + i0 >= level:
        return 1.0
    return min(1.0, gronwall_bound_poly(cert, x0, i0, t) / exit_level_infimum(cert, level))
