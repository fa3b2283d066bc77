"""Built-in model registry.

Arbitrary measurable coefficients cannot be serialized, so the CLI exposes a
fixed set of named families; library users author models in code against
RegimeModel directly.  Builders are pure: the same parameters always yield
coefficient functions with identical behaviour.
"""

from __future__ import annotations

import inspect

import numpy as np

from .certify import PowerLawRates
from .model import DenseRates, RegimeModel


def _ou_pair(thetas, sigmas, rates, horizon, dim):
    thetas = np.asarray(thetas, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    mats = [sg * np.eye(dim) for sg in sigmas]
    n_th, n_sg = thetas.size, len(mats)
    # columns indexed by regime (row 0 unused); take(mode="clip") sends
    # every regime above the last to the last, like min(i, n)
    neg_col = np.concatenate(([0.0], -thetas))[:, None]
    sig_col = np.concatenate(([0.0], sigmas))[:, None]

    def drift(x, i, t):
        return -thetas[min(i, n_th) - 1] * x

    def dispersion(x, i, t):
        return mats[min(i, n_sg) - 1]

    def drift_batch(X, lam, t):
        return neg_col.take(lam, axis=0, mode="clip") * X

    def noise_batch(X, lam, t, dW):
        return sig_col.take(lam, axis=0, mode="clip") * dW

    return RegimeModel(dim, drift, dispersion, rates, horizon, drift_batch, noise_batch)


def _frozen(rates, horizon, drift=None, drift_batch=None):
    """One-dimensional model without noise; with no drift given, the state stays put."""
    zero, zmat = np.zeros(1), np.zeros((1, 1))
    if drift is None:
        drift, drift_batch = (lambda x, i, t: zero), (lambda X, lam, t: np.zeros_like(X))
    return RegimeModel(1, drift, lambda x, i, t: zmat, rates, horizon, drift_batch,
                       lambda X, lam, t, dW: np.zeros_like(dW))


def build_ou2(theta1=1.0, theta2=0.5, sigma1=1.0, sigma2=1.0,
              q12=1.0, q21=2.0, horizon=1.0, dim=1):
    """Mean-reverting diffusion in each of two regimes, constant switch rates."""
    rates = DenseRates([[0.0, q12], [q21, 0.0]])
    return _ou_pair([theta1, theta2], [sigma1, sigma2], rates, horizon, int(dim))


def build_ctmc2(q12=1.0, q21=2.0, horizon=1.0):
    """Pure switching between two regimes; the diffusion is frozen."""
    return _frozen(DenseRates([[0.0, q12], [q21, 0.0]]), horizon)


def build_ctmcn(n_regimes=5, scale=1.0, horizon=2.0):
    """Pure switching on n regimes with rates scale/|i-j|; diffusion frozen."""
    n = int(n_regimes)
    if n < 2:
        raise ValueError("n_regimes must be at least 2")
    q = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                q[a, b] = scale / abs(a - b)
    return _frozen(DenseRates(q), horizon)


def build_powerlaw(gamma=3.0, p=1.0, theta=1.0, sigma=1.0, horizon=1.0, dim=1):
    """Mean-reverting diffusion under the power-law switching family.

    Rates (j + |x|^p)/|k - j|^gamma couple the switch intensity to both the
    regime index and the state radius; every regime shares the same
    drift/dispersion.
    """
    rates = PowerLawRates(gamma, p)
    return _ou_pair([theta], [sigma], rates, horizon, int(dim))


def build_blowup(horizon=1.0):
    """Deterministic superlinear drift x^2 with no noise and no switching.

    Started from x0 = 2 the closed-form trajectory blows up at time 1/2.
    """
    return _frozen(DenseRates([[0.0]]), horizon, lambda x, i, t: x * x,
                   lambda X, lam, t: X * X)


def build_degenerate(theta=1.0, sigma=1.0, q12=1.0, q21=1.0, horizon=1.0):
    """Two regimes where the second has zero dispersion (degenerate diffusion)."""
    return _ou_pair([theta], [sigma, 0.0], DenseRates([[0.0, q12], [q21, 0.0]]), horizon, 1)


# Each builder's keyword defaults are the model's parameters: a value given
# for one is cast to the type of its default.
_REGISTRY = {
    "ou2": (build_ou2, "two-regime mean-reverting diffusion, constant rates"),
    "ctmc2": (build_ctmc2, "pure two-state switching, frozen diffusion"),
    "ctmcN": (build_ctmcn, "pure n-state switching, rates scale/|i-j|"),
    "powerlaw": (build_powerlaw, "mean-reverting diffusion, power-law rate family"),
    "blowup": (build_blowup, "superlinear drift x^2, no noise, no switching"),
    "degenerate": (build_degenerate, "two regimes, zero dispersion in regime 2"),
}


def model_names():
    return sorted(_REGISTRY)


def _defaults(name):
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}")
    params = inspect.signature(_REGISTRY[name][0]).parameters.values()
    return {p.name: p.default for p in params}


def model_params(name):
    """The model's parameter names, each with the type of its default."""
    return {k: type(v) for k, v in _defaults(name).items()}


def make_model(name, **params):
    schema = model_params(name)
    for key in params:
        if key not in schema:
            raise KeyError(f"model {name!r} has no parameter {key!r}")
    cast = {k: schema[k](v) for k, v in params.items()}
    return _REGISTRY[name][0](**cast)


def list_models():
    """Human-readable registry listing with parameter defaults."""
    lines = []
    for name in model_names():
        pairs = ", ".join(f"{k}={v}" for k, v in _defaults(name).items())
        lines.append(f"{name:12s} {_REGISTRY[name][1]}")
        lines.append(f"{'':12s} parameters: {pairs}")
    return "\n".join(lines)
