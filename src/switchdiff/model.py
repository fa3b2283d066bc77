"""Problem definition: coefficients, conservative rate matrix, mark intervals.

A regime-switching diffusion is described by drift/dispersion coefficients
``b(x, i, t)``, ``sigma(x, i, t)`` over regimes i = 1, 2, 3, ... and a
conservative rate matrix ``q_ij(x)``.  For mark-based switching, each regime
row is laid out as consecutive half-open intervals on [0, inf): row i starts
at the cumulative mass of rows below i and contains one interval of width
``q_ij(x)`` per target regime j (ascending j, zero-width columns skipped).
A uniform mark landing in the interval of (i, j) triggers the switch i -> j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import TailUnresolvable

DEFAULT_MAX_TERMS = 10**6


class RateMatrix:
    """Transition-rate data over the countable regime set {1, 2, 3, ...}.

    Subclasses supply nonnegative off-diagonal rates plus enough summability
    metadata for mark classification to terminate deterministically even
    when rows have infinitely many nonzero columns:

    - ``row_sum(i, x)``: the exact or upper-evaluable total rate out of i,
    - ``row_tail(i, x, n)``: an upper bound on the mass of columns >= n,
      nonincreasing in n with limit 0,
    - ``block_bound(level)``: an upper bound on
      sup_{|y| <= level} sum_{k=1}^{level+1} row_sum(k, y), used to choose a
      mark cutoff that loses no switch while |x| + regime stays below level.

    The diagonal is conservative by convention; ``rate(i, i, x)`` is 0.

    ``territory(i, r_lo, r_hi) -> (lo, hi)`` is optional.  For a regime i
    and a radius window ``[r_lo, r_hi]`` it returns float bounds that hold
    for every x with r_lo <= |x| <= r_hi: regime i's territory
    ``[anchor(i, x), anchor(i, x) + row_sum(i, x))`` lies within
    ``[lo, hi)``, and where r_lo == r_hi it is that territory.  So only
    matrices whose anchor and row sum depend on x through |x| can give it,
    and a window may reach to infinity; a bound past the float range is
    inf (or NaN), never an ``OverflowError``.  The solver uses it
    conservatively: it skips a mark without calling ``mark_displacement``
    only when the mark lies outside these bounds by a relative margin and
    the bounds are finite, so they need not match the scalar methods to the
    last bit.  ``None`` (the default) means no bands: every mark below the
    cutoff is classified.  A subclass that overrides ``anchor`` or
    ``row_sum`` without giving its own ``territory`` gets ``None``.

    ``factor(i, x)`` is optional.  A factor declares that every rate of row
    i is proportional to it: ``rate``, ``rate_block``, ``row_tail`` and
    ``beta_tail`` depend on x only through ``factor(i, x)``, a float >= 0,
    and ``rate(i, k, x) = factor(i, x) * rate(i, k, x0) / factor(i, x0)``
    in real arithmetic for all x and x0.  The certificate checkers then sum
    each growth-weighted series once per regime, at its grid point of
    largest factor, and scale it to screen the other points; per-point
    series are summed only where the report can name the node, and shared
    between points of equal factor.  ``None`` (the default) means one series
    per point.  A subclass that overrides any of those four methods without
    giving its own ``factor`` gets ``None``.
    """

    territory = None
    factor = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # inherited bands are only valid for the layout they were written for
        if "territory" not in vars(cls) and {"anchor", "row_sum"} & vars(cls).keys():
            cls.territory = None
        # and an inherited factor only for the rates it was declared for
        if "factor" not in vars(cls) and \
                {"rate", "rate_block", "row_tail", "beta_tail"} & vars(cls).keys():
            cls.factor = None

    def rate(self, i, j, x):
        raise NotImplementedError

    def rate_block(self, i, lo, hi, x):
        """Array of rate(i, k, x) over the columns lo <= k < hi, lo >= 1.

        The diagonal column k = i is 0.  The default loops over ``rate``.
        """
        return np.array([self.rate(i, k, x) for k in range(lo, hi)], dtype=float)

    def row_sum(self, i, x):
        raise NotImplementedError

    def row_tail(self, i, x, n):
        raise NotImplementedError

    def block_bound(self, level):
        raise NotImplementedError

    def anchor(self, i, x):
        """Cumulative mass of rows below i: sum_{k<i} row_sum(k, x)."""
        a = 0.0
        for k in range(1, int(i)):
            a += self.row_sum(k, x)
        return a

    def beta_tail(self, i, x, n, beta):
        """Certified bracket (lo, hi) for sum_{k>=n} (k^beta - i^beta) * rate(i, k, x).

        Only meaningful for n > i, where every term is nonnegative.  The
        base implementation certifies exhausted rows only; matrices with
        infinite rows must override to support the growth-weighted series.
        """
        if self.row_tail(i, x, n) == 0.0:
            return (0.0, 0.0)
        raise TailUnresolvable(
            "rate matrix declares no growth-weighted tail bound", definitive=False
        )


class DenseRates(RateMatrix):
    """Rate matrix backed by a constant array; regimes beyond it are absorbing.

    The diagonal of ``q`` is ignored (conservative convention); off-diagonal
    entries must be nonnegative.
    """

    def __init__(self, q):
        q = np.array(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rate array must be square")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        self.q = off
        self.size = off.shape[0]
        self._row_sums = off.sum(axis=1)
        # _suffix[i-1, n-1] = sum over columns j >= n, j != i
        rev = np.cumsum(off[:, ::-1], axis=1)[:, ::-1]
        self._suffix = rev
        self._cum = np.concatenate([[0.0], np.cumsum(self._row_sums)])

    def factor(self, i, x):
        return 1.0

    def rate(self, i, j, x):
        if i == j or i > self.size or j > self.size:
            return 0.0
        return float(self.q[i - 1, j - 1])

    def rate_block(self, i, lo, hi, x):
        # q's diagonal is 0, and no rate leads to or from a regime past size
        out = np.zeros(max(hi - lo, 0))
        stop = min(hi, self.size + 1)
        if i <= self.size and lo < stop:
            out[:stop - lo] = self.q[i - 1, lo - 1:stop - 1]
        return out

    def row_sum(self, i, x):
        if i > self.size:
            return 0.0
        return float(self._row_sums[i - 1])

    def row_tail(self, i, x, n):
        if i > self.size or n > self.size:
            return 0.0
        return float(self._suffix[i - 1, max(n, 1) - 1])

    def block_bound(self, level):
        return float(self._cum[min(level + 1, self.size)])

    def anchor(self, i, x):
        return float(self._cum[min(i - 1, self.size)])

    def territory(self, i, r_lo, r_hi):
        # no rate depends on x; _cum[i] is _cum[i - 1] + row_sum(i), and
        # regimes beyond size sit at _cum[size]
        return float(self._cum[min(i - 1, self.size)]), float(self._cum[min(i, self.size)])

    def beta_tail(self, i, x, n, beta):
        if n > self.size:
            return (0.0, 0.0)
        ks = np.arange(max(n, 1), self.size + 1)
        w = self.rate_block(i, max(n, 1), self.size + 1, x)
        v = float(((ks.astype(float) ** beta - float(i) ** beta) * w).sum())
        return (v, v)


class FunctionRates(RateMatrix):
    """Finite state-dependent rate matrix given as x -> (n, n) array.

    ``block_bound`` cannot be derived from a black-box function, so the
    caller declares it (a callable level -> bound, or a constant that bounds
    every block sum).
    """

    def __init__(self, size, q_of_x, block_bound):
        self.size = int(size)
        self._q_of_x = q_of_x
        self._block = block_bound if callable(block_bound) else (lambda level: float(block_bound))

    def _matrix(self, x):
        q = np.asarray(self._q_of_x(x), dtype=float).copy()
        np.fill_diagonal(q, 0.0)
        return q

    def rate(self, i, j, x):
        if i == j or i > self.size or j > self.size:
            return 0.0
        return float(self._matrix(x)[i - 1, j - 1])

    def row_sum(self, i, x):
        if i > self.size:
            return 0.0
        return float(self._matrix(x)[i - 1].sum())

    def row_tail(self, i, x, n):
        if i > self.size or n > self.size:
            return 0.0
        return float(self._matrix(x)[i - 1, max(n, 1) - 1:].sum())

    def block_bound(self, level):
        return float(self._block(level))


@dataclass(frozen=True)
class RegimeModel:
    """The single source of all problem data.

    drift and dispersion must be total for every regime i >= 1, finite x and
    t in [0, horizon], and pure (no hidden state): a model is then safely
    shareable across concurrent trajectory workers.

    drift_batch and noise_batch are an optional batch form of the same
    coefficients over rows: ``drift_batch(X, lam, t)`` with X of shape
    (n, d), lam (n,) integer regimes and t (n,) times returns the n drift
    rows, and ``noise_batch(X, lam, t, dW)`` returns each row's dispersion
    applied to its increment row of dW.  Every row must equal the per-row
    ``drift(x, i, t)`` and ``dispersion(x, i, t) @ dw`` bit for bit (for a
    dispersion ``s * I``, ``s * dw`` is exact); the solver then steps whole
    blocks of trajectories with one array expression.  Give both or neither.
    """

    dim: int
    drift: Callable[[np.ndarray, int, float], np.ndarray]
    dispersion: Callable[[np.ndarray, int, float], np.ndarray]
    rates: RateMatrix
    horizon: float
    drift_batch: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    noise_batch: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if (self.drift_batch is None) != (self.noise_batch is None):
            raise ValueError("drift_batch and noise_batch come together")


def radius(x):
    """|x| as a Python float: |x_1| in one dimension, sqrt(x . x) otherwise.

    Where x . x overflows, the scaled norm ``math.hypot`` gives it.
    """
    if x.size == 1:
        return abs(float(x[0]))
    with np.errstate(over="ignore"):
        r = math.sqrt(x @ x)
    return r if math.isfinite(r) else math.hypot(*x)


def mark_displacement(model, regime, x, mark):
    """Regime displacement j - i for a mark, or 0 if it lands in no interval.

    Marks below the row anchor, beyond the row's total mass, or inside
    another row's territory leave the regime unchanged.  Otherwise row
    ``regime`` is walked lazily from its anchor, column by column, just far
    enough to classify the mark: the walk stops at the first interval that
    ends beyond the mark, once the cumulative width passes ``mark - anchor``,
    or once the declared row tail certifies that no further column can
    contain it.  Raises TailUnresolvable if none of these happens within
    ``DEFAULT_MAX_TERMS`` columns, which signals an ill-specified rate
    matrix.  The result plus ``regime`` is always >= 1 because intervals
    only target valid regimes.
    """
    rates = model.rates
    i = int(regime)
    anchor = rates.anchor(i, x)
    target = mark - anchor
    if target < 0 or target >= rates.row_sum(i, x):
        return 0
    cum = 0.0
    for j in range(1, DEFAULT_MAX_TERMS + 1):
        if j == i:
            continue
        w = rates.rate(i, j, x)
        if w > 0.0:
            cum += w
            # each interval begins where the last ended, at anchor + cum bit
            # for bit, so the first end beyond the mark closes its interval
            if mark < anchor + cum:
                return j - i
            if cum > target:
                return 0
        if cum + rates.row_tail(i, x, j + 1) <= target:
            return 0
    raise TailUnresolvable(
        f"row {i} classification did not terminate within {DEFAULT_MAX_TERMS} columns",
        definitive=False)


def truncate_coefficients(model, level):
    """Multiply drift and dispersion by the indicator of {|x| <= level, t <= level}.

    Rates are unchanged.  Outside the window the original coefficients are
    not evaluated at all, so truncation also shields badly-behaved
    coefficients from large arguments.
    """
    if not level > 0:
        raise ValueError("truncation level must be positive")
    base_b, base_s, d = model.drift, model.dispersion, model.dim

    def drift(x, i, t):
        if t <= level and radius(x) <= level:
            return base_b(x, i, t)
        return np.zeros(d)

    def dispersion(x, i, t):
        if t <= level and radius(x) <= level:
            return base_s(x, i, t)
        return np.zeros((d, d))

    return RegimeModel(d, drift, dispersion, model.rates, model.horizon)
