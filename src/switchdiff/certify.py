"""Grid checkers for non-explosion certificates, plus the power-law rate family.

Two certificate shapes are supported.  The polynomial form asks for p >= 1,
beta > 0 and an integrable growth rate C(t) with

    sum_k (k^b - j^b) q_jk(y) / (1+|y|^2)^p
      + [2<y, b(y,j,t)> + (2p-1) |sigma(y,j,t)|_HS^2] / (1+|y|^2)
      <= C(t) [1 + j^b / (1+|y|^2)^p]

for all (y, j); it yields the moment bound
exp(p int_0^t C) * [(1+|x|^2)^p + p i^b] for the stopped trajectory
functional F, since the generator then gives L F <= p C F.
The exponential form replaces the polynomial weight with
(1+|y|^2)^a * exp{.} weights, splitting downward (k <= j) and upward (k > j)
switching terms.

A checker can only certify on a finite grid; reports are labelled
accordingly and are not a proof over all of R^d x S.  Infinite regime series
are evaluated with certified brackets: a finite prefix plus a
monotone-integral tail enclosure, tightened until the bracket width falls
below SERIES_REL_TOL * (1 + |partial sum|) within SERIES_MAX_TERMS terms;
evaluation fails loudly when the rate matrix cannot certify the
growth-weighted tail.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import types
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from .errors import ConfigError, TailUnresolvable
from .model import RateMatrix, radius

SERIES_REL_TOL = 1e-10
SERIES_MAX_TERMS = 10**6
# Relative bound on the float error between a per-point series and its
# reference scaled to it.  Each sums at most SERIES_MAX_TERMS terms of one
# sign, pairwise within a block and in sequence over at most 30 blocks, so
# it errs by at most about 50 units of 2^-53; the scaling adds three.
SCREEN_ROUNDING = 2.0 ** -40
ZETA_TERMS = 100_000
# initial extent of the PowerLawRates tables and of the k^beta table
POWERLAW_TABLE = 4096


def zeta_partial(s):
    """Bracket midpoint and half-width for zeta(s) via partial sums + integral tail.

    The tail sum_{k>=n} k^-s lies in [I, I + n^-s] with I = n^(1-s)/(s-1);
    the midpoint is therefore within n^-s/2 of the true value.
    """
    if not s > 1:
        raise ValueError("zeta series requires s > 1")
    n = ZETA_TERMS
    ks = np.arange(1, n, dtype=float)
    partial = float((ks ** (-s)).sum())
    tail_lo = n ** (1.0 - s) / (s - 1.0)
    tail_hi = tail_lo + n ** (-float(s))
    return partial + 0.5 * (tail_lo + tail_hi), 0.5 * (tail_hi - tail_lo)


def _grow_powers(table, exponent, size):
    """The table of k^exponent for k = 1, 2, ..., grown by doubling to at least size rows.

    One vectorised power over a contiguous run gives each k the value any
    contiguous array of k gets, so a slice of the table holds the bytes of
    ``np.arange(lo, hi, dtype=float) ** exponent``.
    """
    have = table.size
    if size <= have:
        return table
    ks = np.arange(have + 1, max(2 * have, size) + 1, dtype=float)
    return np.concatenate([table, ks ** exponent])


def _cumsum_on(sums, new):
    """Running sums carried on over new: cumsum adds in sequence, so one cumsum's bytes."""
    return np.concatenate([sums[:-1], np.cumsum(np.concatenate([sums[-1:], new]))])


class PowerLawRates(RateMatrix):
    """Rates (j + |x|^p) / |k - j|^gamma for j != k, with certified tails.

    Requires gamma > 2 (summable rows with summable first moments) and
    p >= 1.  Row sums sandwich between C*(j+|x|^p) and 2C*(j+|x|^p) with
    C = zeta(gamma); the growth-weighted series sum_k (k^b - j^b) q_jk is
    summable for 0 < b < gamma - 1, but the checkers certify it only while
    its terms fall below SERIES_REL_TOL within SERIES_MAX_TERMS columns:
    with gamma = 3 that fails from about b = 1.5 on.

    Its tables grow by appending.  The table of m^-gamma that ``rate`` and
    ``rate_block`` read and its prefix sums, which give row sums and tail
    bounds in O(1), keep one extent, grown by each query to the index it
    reads; the regime-indexed sums that give anchors keep their own, grown
    by ``anchor`` and ``territory`` to the regime they read.
    """

    def __init__(self, gamma, p):
        if not gamma > 2:
            raise ValueError("gamma must exceed 2")
        if not p >= 1:
            raise ValueError("growth exponent p must be >= 1")
        self.gamma = float(gamma)
        self.p = float(p)
        c_mid, c_half = zeta_partial(self.gamma)
        self.zeta = c_mid
        self._zeta_hi = c_mid + c_half
        self._inv = np.empty(0)
        # _H[a] = sum_{m<=a} m^-gamma; with S_i = zeta + H_{i-1} (row i's sum
        # at growth 1), _A_weighted[a] = sum_{i<=a} i S_i, _A_plain[a] = sum_{i<=a} S_i
        self._H = self._A_weighted = self._A_plain = np.zeros(1)
        self._powers(POWERLAW_TABLE)

    def _powers(self, size):
        """The table inv[m-1] = m^-gamma and its prefix sums _H, grown to at least size rows."""
        # every rate, ``rate``'s included, reads this table, since numpy's
        # SIMD power and the scalar pow may differ in the last place
        have = self._inv.size
        self._inv = _grow_powers(self._inv, -self.gamma, size)
        if self._inv.size > have:
            self._H = _cumsum_on(self._H, self._inv[have:])
        return self._inv

    def _sums(self, rows):
        """_A_weighted and _A_plain grown to at least rows rows, at least doubling."""
        have = self._A_plain.size - 1
        size = max(2 * have, rows)
        self._powers(size)  # so _H covers every index the sums' readers take
        s = self.zeta + self._H[have:size]
        ms = np.arange(have + 1, size + 1, dtype=float)
        self._A_weighted = _cumsum_on(self._A_weighted, ms * s)
        self._A_plain = _cumsum_on(self._A_plain, s)

    def _growth(self, i, x):
        return float(i) + radius(x) ** self.p

    def factor(self, i, x):
        """i + |x|^p: every rate of row i is this growth times a table entry."""
        return self._growth(i, x)

    def rate(self, i, j, x):
        if i == j:
            return 0.0
        d = abs(j - i)
        return self._growth(i, x) * float(self._powers(d)[d - 1])

    def rate_block(self, i, lo, hi, x):
        growth = self._growth(i, x)
        inv = self._powers(max(i - lo, hi - i - 1))
        if lo > i:
            return growth * inv[lo - i - 1:hi - i - 1]
        out = np.zeros(max(hi - lo, 0))
        below = min(hi, i)
        # columns lo <= k < below sit at distance i - k, read backwards
        out[:below - lo] = growth * inv[i - below:i - lo][::-1]
        if hi > i + 1:
            out[i + 1 - lo:] = growth * inv[:hi - i - 1]
        return out

    def row_sum(self, i, x):
        self._powers(i - 1)
        return self._growth(i, x) * float(self.zeta + self._H[i - 1])

    def row_tail(self, i, x, n):
        if n <= 1:
            return self.row_sum(i, x)
        if n <= i:
            # remaining downward columns n..i-1 plus the whole upward side
            self._powers(i - n)
            t = float(self._H[i - n]) + self._zeta_hi
        else:
            self._powers(n - i - 1)
            t = max(self._zeta_hi - float(self._H[n - i - 1]), 0.0)
        return self._growth(i, x) * t

    def block_bound(self, level):
        m = int(level)
        # rows k <= m+1, |y| <= m: q_k(y) <= 2*zeta*(k + m^p)
        count = m + 1
        return 2.0 * self._zeta_hi * (count * (count + 1) / 2.0 + count * float(m) ** self.p)

    def anchor(self, i, x):
        if i > self._A_plain.size:
            self._sums(i - 1)
        gp = radius(x) ** self.p
        return float(self._A_weighted[i - 1]) + gp * float(self._A_plain[i - 1])

    def territory(self, i, r_lo, r_hi):
        # the anchor and the row sum both grow with the radius; numpy takes
        # a power past the float range to inf
        if i > self._A_plain.size:
            self._sums(i - 1)
        weighted, plain = self._A_weighted[i - 1], self._A_plain[i - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            glo, ghi = np.array([r_lo, r_hi]) ** self.p
            return (float(weighted + glo * plain),
                    float(weighted + ghi * plain + (i + ghi) * (self.zeta + self._H[i - 1])))

    def beta_tail(self, i, x, n, beta):
        """Bracket for sum_{k>=n} (k^b - i^b) q_ik(x), n > i.

        The summand g(m) = ((m+i)^b - i^b) m^-gamma (m = k - i) is
        nonincreasing for gamma >= max(beta, 1), so the tail lies in
        [I, I + g(a)] with I the integral from a = n - i.  Only the growth
        factor depends on x; I and g(a) are shared by every point.
        """
        if not 0 < beta < self.gamma - 1:
            raise TailUnresolvable(
                f"beta={beta} outside (0, gamma-1) for power-law tails",
                definitive=True)
        if n <= i:
            raise ValueError("beta_tail requires n > i")
        integral, err, lead = _tail_integral(self.gamma, n - i, i, beta)
        scale = self._growth(i, x)
        lo = scale * max(integral - err, 0.0)
        hi = scale * (integral + err + lead)
        return lo, hi


@functools.lru_cache(maxsize=4096)
def _tail_integral(gamma, a, j, beta):
    """(I, quad's error bound, g(a)) for g(m) = ((m+j)^b - j^b) m^-gamma, I = int_a^inf g."""
    a, j = float(a), float(j)

    def tail_term(m):
        return ((m + j) ** beta - j ** beta) * m ** (-gamma)

    def transformed(u):
        # m = a/u maps [a, inf) to (0, 1]; integrand stays smooth since
        # beta < gamma - 1
        m = a / u
        return tail_term(m) * a / (u * u)

    # loaded here, not at import: scipy.integrate costs about 0.5 s of start-up
    from scipy.integrate import quad
    integral, err = quad(transformed, 0.0, 1.0, limit=200)
    return integral, err, tail_term(a)


class _Tally:
    """One sweep's series summed, columns read and widest bracket, with its k^beta table.

    The table holds k^beta for k >= 1 at the last beta asked for; ``diffs``
    and ``dot`` form their blocks in two scratch arrays of their own.
    """

    def __init__(self):
        self.series, self.columns, self.max_half_width = 0, 0, 0.0
        self.beta, self.table, self.buf, self.prod = None, np.empty(0), np.empty(0), np.empty(0)

    def diffs(self, beta, lo, hi, jb):
        """k^beta - jb for lo <= k < hi, in the block the next call overwrites."""
        table = self.table if beta == self.beta else np.empty(0)
        self.beta, self.table = beta, _grow_powers(table, beta, max(POWERLAW_TABLE, hi - 1))
        if self.buf.size < hi - lo:
            self.buf = np.empty(hi - lo)
        return np.subtract(self.table[lo - 1:hi - 1], jb, out=self.buf[:hi - lo])

    def dot(self, d, w):
        """The pairwise sum of d * w, formed in a block of its own: d and w are only read."""
        if self.prod.size < d.size:
            self.prod = np.empty(d.size)
        return float(np.multiply(d, w, out=self.prod[:d.size]).sum())


def _series_batch(rates, j, xs, beta, tally):
    """Certified (down, up, half) of sum_{k != j} (k^b - j^b) q_jk(x), for each x in xs.

    down is the exact downward sum over k < j (finitely many terms, all
    <= 0), and up +- half the certified bracket of the upward series over
    k > j.  Every upward series steps the same columns: n = j+1 on, in
    blocks of 512 doubling to 65,536.  So each block's k^b - j^b is formed
    once, and each series still live adds the pairwise sum of its own block
    product, as a lone series would.  A series ends at the n and with the
    bracket it would end at alone; one that cannot be certified gets its
    TailUnresolvable in place of the triple.  The downward block is then
    formed once and dotted with each certified x's rates.  A lone series is
    a batch of one x.
    """
    rel_tol, max_terms = SERIES_REL_TOL, SERIES_MAX_TERMS
    tally.series += len(xs)
    jb = float(j) ** beta
    out = [None] * len(xs)
    partial = [0.0] * len(xs)
    live = list(range(len(xs)))
    n, block, examined, first = j + 1, 512, 0, True
    while live and examined <= max_terms:
        going = []
        for s in live:
            x = xs[s]
            if rates.row_tail(j, x, n) == 0.0:
                out[s] = (partial[s], 0.0)
                continue
            scale = 1.0 + abs(partial[s])
            lead = (float(n) ** beta - jb) * rates.rate(j, n, x)
            if first or lead <= rel_tol * scale:
                # the first attempt surfaces definitively uncertifiable tails
                try:
                    lo, hi = rates.beta_tail(j, x, n, beta)
                except TailUnresolvable as exc:
                    if exc.definitive:
                        out[s] = exc
                        continue
                else:
                    if hi - lo <= 2.0 * rel_tol * scale:
                        half = 0.5 * (hi - lo)
                        tally.max_half_width = max(tally.max_half_width, half)
                        out[s] = (partial[s] + 0.5 * (lo + hi), half)
                        continue
            going.append(s)
        live, first = going, False
        if live:
            d = tally.diffs(beta, n, n + block, jb)
            for s in live:
                partial[s] += tally.dot(d, rates.rate_block(j, n, n + block, xs[s]))
            tally.columns += block * len(live)
            n += block
            examined += block
            block = min(2 * block, 1 << 16)
    for s in live:
        out[s] = TailUnresolvable(
            f"growth-weighted series for row {j} not certified within {max_terms} terms",
            definitive=False)
    certified = [s for s, up in enumerate(out) if not isinstance(up, TailUnresolvable)]
    d = tally.diffs(beta, 1, j, jb)
    tally.columns += (j - 1) * len(certified)
    for s in certified:
        out[s] = (tally.dot(d, rates.rate_block(j, 1, j, xs[s])),) + out[s]
    return out


@dataclass(frozen=True)
class PolynomialCertificate:
    """Polynomial Lyapunov data (p, beta, C(t)); C may be a constant."""

    p: float
    beta: float
    growth: Union[float, Callable[[float], float]]

    def __post_init__(self):
        if not self.p >= 1:
            raise ConfigError("certificate requires p >= 1")
        if not self.beta > 0:
            raise ConfigError("certificate requires beta > 0")

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
            raise ConfigError("alpha must lie in (0, 1]")
        if not self.c > 0:
            raise ConfigError("c must be positive")
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Finite evaluation grid: state points, regime cutoff, finite nondecreasing time nodes."""

    points: np.ndarray
    regimes: int
    times: Tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.regimes, numbers.Integral):
            raise ConfigError(f"grid regimes must be an integer, got {self.regimes!r}")
        if np.size(self.points) == 0 or self.regimes < 1 or not self.times:
            raise ConfigError("grid needs at least one point, one regime and one time")
        if not np.isfinite(np.asarray(self.points, dtype=float)).all():
            raise ConfigError("grid points must be finite")
        if not (np.isfinite(self.times).all() and (np.diff(self.times) >= 0).all()):
            raise ConfigError("grid times must be finite and nondecreasing")


def _points(model, grid):
    """The grid's points as an (n, model.dim) array, or ConfigError."""
    pts = np.asarray(grid.points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ConfigError(f"grid points must be rows of {model.dim} coordinates, "
                          f"got an array of shape {pts.shape}")
    return pts


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


def check_local_bounded_beta_sum(model, beta, grid):
    """Evaluate sup over the grid of the absolute growth-weighted rate series.

    Every node value carries a certified tail; nodes whose tails cannot be
    certified within budget are reported, while parameter combinations the
    rate matrix can never certify raise TailUnresolvable.
    """
    pts = _points(model, grid)
    vals = np.full((pts.shape[0], grid.regimes), np.nan)
    tally, failed = _Tally(), []
    regimes = [_Regime(model.rates, j, pts, beta, tally, screen=False)
               for j in range(1, grid.regimes + 1)]
    for a, _, reg, sums, _ in _series_nodes(pts, regimes, failed):
        if sums is not None:
            down, up, _ = sums
            vals[a, reg.j - 1] = up - down
    finite = vals[np.isfinite(vals)]
    sup = float(finite.max()) if finite.size else float("nan")
    flat = np.where(np.isfinite(vals), vals, -np.inf)
    ai, ji = np.unravel_index(int(np.argmax(flat)), vals.shape)
    return BetaSumReport(sup, (pts[ai], ji + 1), vals, not failed, failed)


@dataclass
class CertificateReport:
    """Outcome of a grid certificate check.

    Grid certification is evidence on the sampled nodes only, not a proof
    over the whole state space.  ``series``, ``columns`` and
    ``max_half_width`` record the work behind it: the growth-weighted series
    summed (one reference per regime for rates with a factor, plus the
    per-point series of the nodes the sweep refined; one per point and
    regime otherwise), the rate columns they read, and the widest certified
    bracket half-width.
    """

    kind: str
    certified: bool
    margin: float
    worst: Tuple[np.ndarray, int, float]
    violations: List[Tuple[float, np.ndarray, int, float]]
    tails_certified: bool
    sigma_integral: float
    nodes: int
    series: int = 0
    columns: int = 0
    max_half_width: float = 0.0

    def summary(self):
        where = f"y={np.array2string(np.asarray(self.worst[0]), precision=3)}, " \
                f"j={self.worst[1]}, t={self.worst[2]:g}"
        if self.certified:
            return (f"{self.kind} certificate: certified on grid "
                    f"({self.nodes} nodes, min margin {self.margin:.6g} at {where})")
        return (f"{self.kind} certificate: VIOLATED on grid "
                f"(worst margin {self.margin:.6g} at {where}, "
                f"{len(self.violations)} violating nodes)")


def _factor(rates, j, y):
    """rates.factor(j, y) where the rates declare one and it is a finite float >= 0, else None."""
    f = math.nan if rates.factor is None else float(rates.factor(j, y))
    return f if 0.0 <= f < math.inf else None


def _scaled(ref, c):
    """Upper ends (down, up + half, 0.0) of a per-point series, from the reference's
    (down, up, half) and c = the point's factor over the reference's, 0 <= c <= 1.

    In real arithmetic the point's series is c times the reference's, so its
    upward value is at most v = c (up + half).  The point's own bracket holds
    that value, its partial sum is at most that value, and the bracket is at
    most 2 SERIES_REL_TOL (1 + partial sum) wide: its up + half is at most
    v + 2 SERIES_REL_TOL (1 + v).  SCREEN_ROUNDING covers the float error of
    both sums and of the scaling.
    """
    down, up, half = ref
    down, v = c * down, c * (up + half)
    return (down + SCREEN_ROUNDING * abs(down),
            v + 2.0 * SERIES_REL_TOL * (1.0 + abs(v)) + SCREEN_ROUNDING * abs(v), 0.0)


class _Regime:
    """Regime j's growth-weighted series over the grid points.

    Points of equal factor share one per-point series, and a point without
    a finite factor is its own key.  With screen, the series at the first
    point of largest factor is summed as the reference; if it certifies,
    ``bounds`` maps every point of finite factor to the upper ends
    ``_scaled`` makes of it, and their per-point series wait for
    ``outcome``.  Every other point's series is summed here, all in one
    ``_series_batch``.
    """

    def __init__(self, rates, j, pts, beta, tally, screen):
        self.rates, self.j, self.pts, self.beta, self.tally = rates, j, pts, beta, tally
        factors = [_factor(rates, j, y) for y in pts]
        self.keys = [(a,) if f is None else f for a, f in enumerate(factors)]
        self.sums, self.bounds = {}, {}
        top = max((f for f in factors if f is not None), default=0.0)
        if screen and top > 0.0:
            ref = self.outcome(factors.index(top))
            if not isinstance(ref, TailUnresolvable):
                self.bounds = {a: _scaled(ref, f / top)
                               for a, f in enumerate(factors) if f is not None}
        rest = {}
        for a, key in enumerate(self.keys):
            if a not in self.bounds and key not in self.sums:
                rest.setdefault(key, pts[a])
        if rest:
            self.sums.update(zip(rest, _series_batch(rates, j, list(rest.values()), beta, tally)))

    def outcome(self, a):
        """Point a's per-point (down, up, half) or TailUnresolvable, summed on first ask."""
        key = self.keys[a]
        if key not in self.sums:
            self.sums[key], = _series_batch(self.rates, self.j, [self.pts[a]], self.beta,
                                            self.tally)
        return self.sums[key]


def _series_nodes(pts, regimes, failed):
    """Yield (a, y, regime, sums, exact) over the grid points and ``_Regime`` s, point-major.

    sums is the node's per-point (down, up, half) where exact, else the
    upper ends its screened regime gives it.  A (y, j) whose series cannot
    be certified within budget is appended to ``failed`` as (a, j) and
    yields None; the first definitive failure met in that order propagates.
    """
    for a, y in enumerate(pts):
        for reg in regimes:
            if a in reg.bounds:
                yield a, y, reg, reg.bounds[a], False
                continue
            value = reg.outcome(a)
            if isinstance(value, TailUnresolvable):
                if value.definitive:
                    raise value
                failed.append((a, reg.j))
                value = None
            yield a, y, reg, value, True


class _Rows(types.SimpleNamespace):
    """The sweep's certified nodes as arrays: one row per node and time, node-major.

    Row k holds the time index ti, jb = j^beta, hs2 = |sigma(y, j, t)|_HS^2,
    the kind's per-point weights pw, finite = whether y . y is finite, and
    yb, s, den of ``_share_terms`` with yb = u . b(y, j, t).
    """

    def at(self, k):
        """Row k alone."""
        return _Rows(**{name: v[k:k + 1] for name, v in vars(self).items()})

    def share(self, extra):
        """(2 y.b + extra) / (1 + |y|^2) of each row, in the scaled form."""
        return (2.0 * self.yb / self.s + extra / self.s / self.s) / self.den


def _share_terms(y, y2):
    """(u, s, den) with (2 y.b + extra) / (1 + |y|^2) = (2 (u.b) / s + extra / s / s) / den.

    For y2 = y @ y finite they are (y, 1.0, 1 + y2): dividing by 1.0 is
    exact.  Where y2 overflows they are (y/s, s, 1 + 1/s/s) with
    s = radius(y), finite through hypot.
    """
    if math.isfinite(y2):
        return y, 1.0, 1.0 + y2
    s = radius(y)
    return y / s, s, 1.0 + 1.0 / s / s


@np.errstate(over="ignore", invalid="ignore")
def _sweep(kind, model, grid, beta, weights, margin):
    """One array pass over the grid nodes (y, j, t) into a CertificateReport.

    weights(y, y2) gives a point's scalar weights once per point, for
    y2 = y @ y, and margin(rows, down, up, half) the right side minus the
    left side of every row of a ``_Rows``, from each node's downward sum and
    upward bracket; it decreases in down and in up + half, and a margin
    that overflow made NaN counts as -inf.  |sigma(y, j, t)|_HS^2 is
    evaluated once per node and time, so its per-time supremum also covers
    (y, j) whose series failed.  The drift comes from one ``drift_batch``
    call per time where the model has batch forms, else from one ``drift``
    call per node and time.  Both are stacked in row-major order, so y.b and
    the sum of sigma's squares equal the per-node ``y @ b`` and
    ``(s * s).sum()`` bit for bit where the model returns C-ordered arrays.

    Each regime's series is summed once, at its point of largest factor,
    and scaled to upper ends at every point (``_Regime``), so a node's
    margin on them is a lower bound on its per-point margin.  The nodes are
    then visited in the order of these bounds, node order breaking ties,
    and each visited node's margin is taken on its per-point series while
    the node can still be the minimum or one of the five reported
    violations.  So margin, worst and violations are those of a sweep that
    sums every point's series.
    """
    pts = _points(model, grid)
    times = grid.times
    tally, failed = _Tally(), []
    regimes = [_Regime(model.rates, j, pts, beta, tally, screen=True)
               for j in range(1, grid.regimes + 1)]
    nodes = list(_series_nodes(pts, regimes, failed))
    sigma = np.array([model.dispersion(y, reg.j, t) for _, y, reg, _, _ in nodes for t in times],
                     dtype=float)
    hs2 = (sigma * sigma).reshape(len(sigma), -1).sum(axis=1).reshape(len(nodes), len(times))
    # fmax from 0.0 passes over a NaN, as max() does; np.maximum would not
    sup = np.fmax.reduce(hs2, axis=0, initial=0.0)

    certified_series = [sums is not None for _, _, _, sums, _ in nodes]
    live = list(itertools.compress(nodes, certified_series))
    n, per = len(live), len(times)
    js = [reg.j for _, _, reg, _, _ in live]
    points = np.array([a for a, _, _, _, _ in live], dtype=int)
    at = np.repeat(points, per)  # each row's point
    if model.drift_batch is None:
        b = np.array([model.drift(y, reg.j, t) for _, y, reg, _, _ in live for t in times],
                     dtype=float)
    else:
        b = np.stack([model.drift_batch(pts[points], np.array(js, dtype=int), np.full(n, t))
                      for t in times], axis=1, dtype=float)
    y2 = [float(y @ y) for y in pts]
    u, s, den = (np.array(v) for v in zip(*map(_share_terms, pts, y2)))
    rows = _Rows(ti=np.tile(np.arange(per), n), jb=np.repeat([float(j) ** beta for j in js], per),
                 hs2=hs2[certified_series].ravel(),
                 pw=np.array([weights(*q) for q in zip(pts, y2)])[at],
                 finite=np.isfinite(y2)[at],
                 yb=np.vecdot(u[at], np.reshape(b, (n * per, model.dim))), s=s[at], den=den[at])
    sums = np.repeat(np.reshape([node[3] for node in live], (n, 3)), per, axis=0)

    def margins(rows, sums):
        m = margin(rows, *sums.T)
        return np.where(np.isnan(m), -np.inf, m)

    bounds = margins(rows, sums)
    least = []  # the five least (margin, row, y, j, t) visited, in that order
    for k in np.argsort(bounds, kind="stable").tolist():
        m = float(bounds[k])
        if least and m > least[0][0] and not (m < 0 and (len(least) < 5 or m <= least[-1][0])):
            break
        a, y, reg, _, exact = live[k // per]
        if not exact:
            point = reg.outcome(a)
            if isinstance(point, TailUnresolvable):
                raise point  # a smaller factor failed where the reference certified
            m = float(margins(rows.at(k), np.array([point]))[0])
        bisect.insort(least, (m, k, y, reg.j, times[k % per]))
        del least[5:]
    margin_min, worst = np.inf, (pts[0], 1, times[0])
    if least and least[0][0] < np.inf:
        margin_min, _, y, j, t = least[0]
        worst = (y, j, t)
    violations = [(float(m), y, j, float(t)) for m, _, y, j, t in least if m < 0]
    count = (len(pts) * grid.regimes - len(failed)) * len(times)
    sigma_integral = float(np.trapezoid(sup, times))
    certified = (margin_min >= 0 and not failed and np.isfinite(sigma_integral))
    return CertificateReport(kind, certified, float(margin_min), worst, violations,
                             not failed, sigma_integral, count, tally.series,
                             tally.columns, tally.max_half_width)


def _lift(y, y2, q):
    """(1 + |y|^2) ** q given y2 = y @ y, inf past the float range.  Where y2
    itself overflows, in the scaled form s ** 2q (1 + 1/s^2) ** q with
    s = radius(y), finite through hypot."""
    try:
        if math.isfinite(y2):
            return (1.0 + y2) ** q
        s = radius(y)
        return s ** (2.0 * q) * (1.0 + 1.0 / s / s) ** q
    except OverflowError:  # a float power raises where numpy would give inf
        return math.inf


def check_condition_poly(model, cert, grid):
    """Check the polynomial certificate inequality on every grid node.

    The margins of all nodes come from one array expression, with the
    weight (1 + |y|^2)^p formed once per point.  The series value enters
    through its certified upper bracket end, so a nonnegative reported
    margin is sound for the sampled nodes.
    """
    p, beta = cert.p, cert.beta
    growth = np.array([cert.growth_at(t) for t in grid.times])

    def weights(y, y2):
        return (_lift(y, y2, p),)

    def margin(rows, down, up, half):
        w, = rows.pw.T
        rhs = growth[rows.ti] * (1.0 + rows.jb / w)
        return rhs - ((down + up + half) / w + rows.share((2.0 * p - 1.0) * rows.hs2))

    return _sweep("polynomial", model, grid, beta, weights, margin)


def check_condition_exp(model, cert, grid):
    """Check the exponential certificate inequality on every grid node.

    Downward (k <= j) and upward (k > j) switching sums carry different
    exponential weights, formed once per point; the margins of all nodes
    come from one array expression.  The downward sum is finite and exact,
    the upward sum uses its certified upper bracket end.  Rows with no
    upward rates contribute an empty (zero) upward sum.
    """
    alpha, c, beta, horizon = cert.alpha, cert.c, cert.beta, cert.horizon
    discount = math.exp(-alpha * c * horizon)

    def weights(y, y2):
        # v = (1 + |y|^2)^alpha, the upward and downward weights (inf past
        # exp's range) and, for the scaled form, (1 + |y|^2)^(alpha - 1)
        v = _lift(y, y2, alpha)
        w_up = v * math.exp(discount * v) if discount * v < 700.0 else math.inf
        w_down = v * math.exp(v) if v < 700.0 else math.inf
        return v, w_up, w_down, _lift(y, y2, alpha - 1.0)

    def margin(rows, down, up, half):
        v, w_up, w_down, lift = rows.pw.T
        up_finite = np.isfinite(w_up)
        rhs = c * (1.0 + np.where(up_finite, rows.jb / w_up, 0.0))
        # where y . y overflows, 2 alpha v |sigma|^2 / (1 + |y|^2) is taken
        # as 2 alpha |sigma|^2 (1 + |y|^2) ** (alpha - 1)
        term1 = np.where(rows.finite, rows.share((1.0 + 2.0 * alpha * v) * rows.hs2),
                         rows.share(rows.hs2) + 2.0 * alpha * rows.hs2 * lift)
        t2 = np.where(np.isfinite(w_down), down / w_down, 0.0)
        t3 = np.where(up_finite, (up + half) / w_up, 0.0)
        return rhs - (term1 + t2 + t3)

    return _sweep("exponential", model, grid, beta, weights, margin)


def _simpson(fn, a, b):
    """Composite Simpson integral of fn over [a, b] on 1,000 intervals; fn may be a constant."""
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, 1001)
    if callable(fn):
        ys = np.array([float(fn(float(x))) for x in xs])
    else:
        ys = np.full(xs.shape, float(fn))
    h = (b - a) / 1000
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def gronwall_bound_poly(cert, x0, i0, t):
    """Moment bound exp(p * int_0^t C(s) ds) * [(1+|x0|^2)^p + p * i0^beta].

    The checked inequality gives L F <= p C F for the functional F, hence
    the factor p in the exponent.  The growth integral is composite Simpson
    over 1,000 intervals.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    integral = _simpson(cert.growth, 0.0, float(t))
    f0 = (1.0 + float(x0 @ x0)) ** cert.p + cert.p * float(i0) ** cert.beta
    return math.exp(cert.p * integral) * f0


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
    if radius(x0) + i0 >= level:
        return 1.0
    return min(1.0, gronwall_bound_poly(cert, x0, i0, t) / exit_level_infimum(cert, level))
