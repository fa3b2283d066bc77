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

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import TailUnresolvable

DEFAULT_MAX_TERMS = 10**6

# Pure round-off slack for conservativeness checks.
REL_TOL = 1e-12


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

    ``territory_batch(lam, R) -> (lo, hi)`` is optional.  For arrays of
    regimes ``lam`` and state radii ``R`` over rows it returns arrays with
    row n's territory ``[anchor(i, x), anchor(i, x) + row_sum(i, x))`` for
    i = lam[n] and any x with |x| = R[n], so only matrices whose anchor and
    row sum depend on x through |x| can give it.  The solver uses it
    conservatively: it skips a mark without calling ``mark_displacement``
    only when the mark lies outside these bounds by a relative margin and
    the bounds are finite, so they need not match the scalar methods to the
    last bit.  ``None`` (the default) means no screen: every mark below the
    cutoff is classified.  A subclass that overrides ``anchor`` or
    ``row_sum`` without giving its own ``territory_batch`` gets ``None``.
    """

    territory_batch = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # an inherited screen is only valid for the layout it was written for
        if "territory_batch" not in vars(cls) and {"anchor", "row_sum"} & vars(cls).keys():
            cls.territory_batch = None

    def rate(self, i, j, x):
        raise NotImplementedError

    def rate_block(self, i, js, x):
        """Vector of rate(i, j, x) over an integer array js (default loop)."""
        return np.array([self.rate(i, int(j), x) for j in js], dtype=float)

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

    def rate(self, i, j, x):
        if i == j or i > self.size or j > self.size:
            return 0.0
        return float(self.q[i - 1, j - 1])

    def rate_block(self, i, js, x):
        js = np.asarray(js, dtype=int)
        out = np.zeros(js.shape, dtype=float)
        if i <= self.size:
            ok = (js >= 1) & (js <= self.size) & (js != i)
            out[ok] = self.q[i - 1, js[ok] - 1]
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

    def territory_batch(self, lam, R):
        # _cum[i] is _cum[i - 1] + row_sum(i); regimes beyond size sit at _cum[size]
        return self._cum.take(lam - 1, mode="clip"), self._cum.take(lam, mode="clip")

    def beta_tail(self, i, x, n, beta):
        if n > self.size:
            return (0.0, 0.0)
        ks = np.arange(max(n, 1), self.size + 1)
        w = self.rate_block(i, ks, x)
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


@dataclass(frozen=True)
class IntervalRow:
    """The materialized prefix of one regime row's mark-interval layout.

    ``segments`` holds (target regime, lo, hi) with hi - lo = q_ij(x) up to
    rounding, ascending in target and contiguous from ``anchor``: each hi is
    the next lo exactly.  Zero-width columns are skipped entirely.
    ``exhausted`` is True when the whole row mass was materialized (the
    certified tail hit zero).
    """

    regime: int
    anchor: float
    segments: List[Tuple[int, float, float]]
    exhausted: bool


def interval_row(model, regime, x, mark, max_terms=DEFAULT_MAX_TERMS):
    """Materialize row ``regime`` lazily, just far enough to classify ``mark``.

    Stops as soon as the cumulative width passes ``mark - anchor`` or the
    declared row tail certifies that no further column can contain it.
    Raises TailUnresolvable if neither happens within ``max_terms`` columns,
    which signals an ill-specified rate matrix.
    """
    rates = model.rates
    i = int(regime)
    anchor = rates.anchor(i, x)
    target = mark - anchor
    if target < 0:
        return IntervalRow(i, anchor, [], False)
    total = rates.row_sum(i, x)
    if target >= total:
        # The declared row mass cannot reach the mark: nothing to materialize.
        return IntervalRow(i, anchor, [], False)
    segments = []
    cum = 0.0
    j = 0
    for _ in range(max_terms):
        j += 1
        if j == i:
            continue
        w = rates.rate(i, j, x)
        if w > 0.0:
            lo = anchor + cum
            cum += w
            # a segment ends where the next begins, bit for bit
            segments.append((j, lo, anchor + cum))
            if cum > target:
                return IntervalRow(i, anchor, segments, False)
        tail = rates.row_tail(i, x, j + 1)
        if cum + tail <= target:
            return IntervalRow(i, anchor, segments, tail == 0.0)
    raise TailUnresolvable(
        f"row {i} classification did not terminate within {max_terms} columns"
    )


def mark_displacement(model, regime, x, mark, max_terms=DEFAULT_MAX_TERMS):
    """Regime displacement j - i for a mark, or 0 if it lands in no interval.

    Marks below the row anchor, beyond the row's total mass, or inside
    another row's territory leave the regime unchanged.  The result plus
    ``regime`` is always >= 1 because intervals only target valid regimes.
    """
    row = interval_row(model, regime, x, mark, max_terms)
    for j, lo, hi in row.segments:
        if mark < lo:
            break
        if mark < hi:
            return j - int(regime)
    return 0


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
        if t <= level and float(np.linalg.norm(x)) <= level:
            return base_b(x, i, t)
        return np.zeros(d)

    def dispersion(x, i, t):
        if t <= level and float(np.linalg.norm(x)) <= level:
            return base_s(x, i, t)
        return np.zeros((d, d))

    return RegimeModel(d, drift, dispersion, model.rates, model.horizon)
