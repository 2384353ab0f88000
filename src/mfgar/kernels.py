"""Input-space ARD kernels and latent-feature output covariances.

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

from .tensalg import as_float


@dataclass(frozen=True)
class ArdKernelParams:
    """ARD kernel hyperparameters in log space."""

    log_amplitude: float
    log_lengthscales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_lengthscales", as_float(self.log_lengthscales, 1))
        if not np.isfinite(self.log_amplitude) or not np.isfinite(self.log_lengthscales).all():
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


def ard_gram_parts(params: ArdKernelParams, X1: np.ndarray, X2: np.ndarray):
    """The Gram ``K(X1, X2)`` with the pieces it is built from.

    Returns ``(diff, d2, K)``: the pairwise differences ``diff[k, i, j] =
    X1[i, k] - X2[j, k]`` and the scaled squared distances ``d2 = (diff /
    lengthscale_k)^2``, both one (n1, n2) plane per input dimension k, and
    ``K = amplitude * exp(-sum_k d2[k])``.  :func:`ard_gram_adjoint` pulls an
    adjoint of a square ``K`` back from these parts without rebuilding any
    of them.
    """
    X1 = as_float(X1, 2)
    X2 = as_float(X2, 2)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError("input matrices have different column counts")
    if X1.shape[1] != params.log_lengthscales.size:
        raise ValueError(
            f"{X1.shape[1]} input columns but {params.log_lengthscales.size} lengthscales"
        )
    # planes, so that each elementwise loop runs along n2 entries, not l
    diff = X1.T[:, :, None] - X2.T[:, None, :]
    d2 = np.square(diff / params.lengthscales[:, None, None])
    # summed along a contiguous last axis, as over (n1, n2, l) distances
    K = np.exp(-np.ascontiguousarray(d2.transpose(1, 2, 0)).sum(axis=2))
    return diff, d2, K * params.amplitude


def ard_gram(params: ArdKernelParams, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix of the ARD kernel between two input sets."""
    return ard_gram_parts(params, X1, X2)[2]


def ard_gram_adjoint(params: ArdKernelParams, parts, gbar: np.ndarray, rows: bool = False):
    """Pull an adjoint of the Gram ``K = K(X, X)`` back to its parameters.

    ``parts`` is ``ard_gram_parts(params, X, X)``, the value pass's own
    arrays: nothing is rebuilt here.  Returns ``(g_params, g_rows)``:
    ``g_params[0] = <gbar, dK/dlog_amplitude>`` and ``g_params[1 + k] =
    <gbar, dK/dlog_lengthscale_k>``; with ``rows``, ``g_rows`` is the
    gradient of ``<gbar, K>`` w.r.t. the rows of X (else ``None``), from the
    same pairwise differences.  ``gbar`` need not be symmetric: both the
    row-i and column-i occurrences of each point are accounted for.
    """
    diff, d2, K = parts
    g_params = np.empty(1 + len(d2))
    g_params[0] = (gbar * K).sum()
    for k, plane in enumerate(d2, start=1):
        g_params[k] = (gbar * (K * (2.0 * plane))).sum()
    if not rows:
        return g_params, None
    Wsym = gbar + gbar.T
    # d/dx_i K_ij = K_ij * (-2 (x_i - x_j) / l^2); sum over j with Wsym
    # weights, the terms laid out (i, j, dimension) for the sum's order.
    step = (-2.0 * diff / (params.lengthscales**2)[:, None, None]).transpose(1, 2, 0)
    coeff = np.multiply((Wsym * K)[:, :, None], step, out=np.empty(step.shape))
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
        self.coords = [as_float(V, 2) for V in self.coords]
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
    def initialize(cls, mode_sizes, seed: int = 0):
        """Deterministic seeded init: rank-``min(d, 2)`` coordinates ~ N(0, 0.1^2), unit kernels."""
        rng = np.random.default_rng(seed)
        coords, kernels = [], []
        for d in mode_sizes:
            r = min(d, 2)
            coords.append(0.1 * rng.standard_normal((d, r)))
            kernels.append(ArdKernelParams.default(r))
        return cls(coords, kernels)


def output_cov(features: LatentFeatures, mode: int) -> np.ndarray:
    """Output covariance S_m: the ARD Gram over the mode's latent rows."""
    if not 0 <= mode < features.n_modes:
        raise IndexError(f"mode {mode} out of range")
    return ard_gram(features.kernels[mode], features.coords[mode], features.coords[mode])
