"""Input-space ARD kernels, latent-feature output covariances, Laplace prior.

The ARD (automatic relevance determination) squared-exponential kernel used
throughout is

    k(x, x') = amplitude * exp(-sum_k (x_k - x'_k)^2 / lengthscale_k^2)

with all positive quantities stored as unconstrained logs.  Output covariance
matrices ``S_m`` are Grams of this kernel over trainable latent coordinate
rows, one latent matrix and one kernel per output mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ArdKernelParams:
    """ARD kernel hyperparameters in log space."""

    log_amplitude: float
    log_lengthscales: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "log_lengthscales", np.atleast_1d(np.asarray(self.log_lengthscales, dtype=float))
        )
        if not np.isfinite(self.log_amplitude) or not np.all(np.isfinite(self.log_lengthscales)):
            raise ValueError("kernel parameters must be finite")

    @classmethod
    def default(cls, input_dim: int) -> "ArdKernelParams":
        return cls(0.0, np.zeros(input_dim))

    @property
    def amplitude(self) -> float:
        return float(np.exp(self.log_amplitude))

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    @property
    def n_params(self) -> int:
        return 1 + self.log_lengthscales.size


def _scaled_sq_dists(params: ArdKernelParams, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Per-dimension scaled squared distances, shape (n1, n2, l)."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X1.shape[1] != X2.shape[1]:
        raise ValueError("input matrices have different column counts")
    if X1.shape[1] != params.log_lengthscales.size:
        raise ValueError(
            f"{X1.shape[1]} input columns but {params.log_lengthscales.size} lengthscales"
        )
    diff = X1[:, None, :] - X2[None, :, :]
    return (diff / params.lengthscales) ** 2


def ard_gram(params: ArdKernelParams, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix of the ARD kernel between two input sets."""
    d2 = _scaled_sq_dists(params, X1, X2)
    return params.amplitude * np.exp(-d2.sum(axis=2))


def ard_gram_adjoint(params: ArdKernelParams, X: np.ndarray, gbar: np.ndarray, rows: bool = False):
    """Pull an adjoint of the Gram ``K = K(X, X)`` back to its parameters.

    Returns ``(g_params, g_rows)``: ``g_params[0] = <gbar, dK/dlog_amplitude>``
    and ``g_params[1 + k] = <gbar, dK/dlog_lengthscale_k>``; with ``rows``,
    ``g_rows`` is the gradient of ``<gbar, K>`` w.r.t. the rows of X (else
    ``None``). ``gbar`` need not be symmetric: both the row-i and column-i
    occurrences of each point are accounted for. The scaled distances and
    ``K`` are built once for both.
    """
    d2 = _scaled_sq_dists(params, X, X)
    K = params.amplitude * np.exp(-d2.sum(axis=2))
    grads = [K] + [K * (2.0 * d2[:, :, k]) for k in range(d2.shape[2])]
    g_params = np.array([float(np.sum(gbar * dK)) for dK in grads])
    if not rows:
        return g_params, None
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Wsym = gbar + gbar.T
    diff = X[:, None, :] - X[None, :, :]
    # d/dx_i K_ij = K_ij * (-2 (x_i - x_j) / l^2); sum over j with Wsym weights.
    coeff = (Wsym * K)[:, :, None] * (-2.0 * diff / params.lengthscales**2)
    return g_params, coeff.sum(axis=1)


@dataclass
class LatentFeatures:
    """Per-mode latent coordinates and the kernels that turn them into S_m.

    ``coords[m]`` has one row per coordinate of output mode m (d_m rows, r
    columns); ``kernels[m]`` is the ARD kernel whose Gram over those rows is
    the mode-m output covariance.
    """

    coords: list = field(default_factory=list)
    kernels: list = field(default_factory=list)

    def __post_init__(self):
        self.coords = [np.atleast_2d(np.asarray(V, dtype=float)) for V in self.coords]
        if len(self.coords) != len(self.kernels):
            raise ValueError("one kernel per latent coordinate matrix is required")
        for V, k in zip(self.coords, self.kernels):
            if V.shape[1] != k.log_lengthscales.size:
                raise ValueError("latent dimension does not match kernel lengthscale count")

    @property
    def n_modes(self) -> int:
        return len(self.coords)

    @property
    def mode_sizes(self) -> tuple:
        return tuple(V.shape[0] for V in self.coords)

    @classmethod
    def initialize(cls, mode_sizes, seed: int = 0, scale: float = 0.1):
        """Deterministic seeded init: small normal rank-``min(d, 2)`` coordinates, unit kernels."""
        rng = np.random.default_rng(seed)
        coords, kernels = [], []
        for d in mode_sizes:
            r = min(d, 2)
            coords.append(scale * rng.standard_normal((d, r)))
            kernels.append(ArdKernelParams.default(r))
        return cls(coords, kernels)


def output_cov(features: LatentFeatures, mode: int) -> np.ndarray:
    """Output covariance S_m: the ARD Gram over the mode's latent rows."""
    if not 0 <= mode < features.n_modes:
        raise IndexError(f"mode {mode} out of range")
    return ard_gram(features.kernels[mode], features.coords[mode], features.coords[mode])


@dataclass(frozen=True)
class LaplacePrior:
    """Sparsity prior on latent features, log-density -scale * ||V||_1."""

    scale: float = 0.0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("Laplace scale must be nonnegative")


def laplace_log_prior(features: LatentFeatures, prior: LaplacePrior) -> float:
    """Log prior of all latent coordinates, -scale * sum |v|."""
    total = sum(np.abs(V).sum() for V in features.coords)
    return -prior.scale * float(total)


def laplace_log_prior_grad(features: LatentFeatures, prior: LaplacePrior):
    """Subgradient of :func:`laplace_log_prior` per latent matrix."""
    return [-prior.scale * np.sign(V) for V in features.coords]
