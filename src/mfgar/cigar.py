"""Conditionally independent fusion: identity output covariances, orthonormal
weights, input-space-only inference.

With every output covariance fixed to the identity and the weight factors
constrained to orthonormal columns, all likelihood algebra collapses onto
N x N input-space matrices: the subset objective is a multi-channel GP, and
the non-subset correction block becomes ``embed(S_hat) (x) W W^T``.  The
fit objective and the exact NLL (``gar_nll_nonsubset``) share one routine,
exact for any W: whitening by ``chol(G0)`` (``G0`` the residual input Gram
plus noise), one N_h x N_h eigendecomposition and the SVD of each weight
factor diagonalize the corrected covariance, with eigenvalues
``1 + beta (o) mu_1 (o) ..``.  Orthonormal W is the case where every
``mu`` is 0 or 1, and the diagonalization reduces to the projector split

    (G0 (x) I + B (x) P)^{-1} = G0^{-1} (x) (I - P) + (G0 + B)^{-1} (x) P,

with ``P = W W^T`` the per-mode projector.  The imputation-variance term of
the prediction uses the same input-space reduction: with identity output
covariances the joint eigenvalues depend on the input index only, so
neither the fit, the NLL nor the prediction ever builds an ``N_h d_h``
matrix or a Kronecker root column.  Predictive means coincide
with the full model's means when the latter also carries identity output
covariances (the mean never depends on the output covariance); predictive
variances are the price paid for the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import svd

from .gar import GarConfig, GarModel, MultiFidelityDataset, TuckerWeights, gar_fit_recursive

ORTHO_TOL = 1e-8


@dataclass
class CigarModel(GarModel):
    """Fitted conditional-independent fusion model.

    Same container as the full model with identity output covariances and
    per-mode orthonormal-column weight factors (validated on construction).
    """

    def __post_init__(self):
        if self.low.output_features is not None:
            raise ValueError("conditional-independent model requires identity output covariances")
        for t in self.transitions:
            if t.residual.output_features is not None:
                raise ValueError("residual output covariances must be identity")
            err = orthonormality_error(t.weights)
            if err > ORTHO_TOL:
                raise ValueError(f"weight factors not orthonormal (error {err:.2e})")


def orthonormality_error(weights: TuckerWeights) -> float:
    """max-norm deviation of W_m^T W_m from the identity over all modes."""
    worst = 0.0
    for f in weights.factors:
        worst = max(worst, float(np.abs(f.T @ f - np.eye(f.shape[1])).max()))
    return worst


def orthonormalize(weights: TuckerWeights) -> TuckerWeights:
    """Project every factor to its nearest orthonormal-column matrix.

    Uses the orthogonal polar factor ``w @ vh`` of the thin SVD
    ``f = w diag(s) vh``, which minimizes the Frobenius distance among
    matrices with orthonormal columns; idempotent. The same SVD's singular
    values reject rank-deficient factors (the projection is then not unique).
    """
    out = []
    for f in weights.factors:
        if f.shape[0] < f.shape[1]:
            raise ValueError("cannot orthonormalize more columns than rows")
        w, sv, vh = svd(f, full_matrices=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise ValueError("rank-deficient weight factor cannot be orthonormalized")
        out.append(w @ vh)
    return TuckerWeights(out)


def cigar_fit(dataset: MultiFidelityDataset, config: GarConfig = GarConfig()) -> CigarModel:
    """Fit the conditional-independent model on subset or non-subset data.

    Orthonormality is enforced by an exact polar retraction after every
    optimizer step rather than a penalty, so the constraint holds along the
    whole accepted trajectory.  No output-mode covariance is ever allocated
    or factorized during the fit.
    """
    cfg = replace(config, identity_outputs=True, w_mode="orthonormal")
    fitted = gar_fit_recursive(dataset, cfg)
    return CigarModel(low=fitted.low, transitions=fitted.transitions, kind="cigar")
