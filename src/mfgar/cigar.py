"""Conditionally independent fusion: identity output covariances, orthonormal
weights, input-space-only inference.

With every output covariance fixed to the identity and the weight factors
constrained to orthonormal columns, all likelihood algebra collapses onto
N x N input-space matrices.  The stage-1 fit and the subset stage-2
objective are multi-channel GPs with one shared kernel, scored by
``hogp._input_space_core``: one ``hogp._input_factor`` of ``K + noise I``
and the N x N Gram of the data (built once for stage 1, from the residual
at each stage-2 evaluation), so their cost per evaluation does not grow
with the output size beyond forming that residual and, for the weight
gradient, one N x N by N x d product.  The fit optimizes unconstrained
matrices and uses their polar factors as W.

On non-subset data the correction block becomes ``B (x) W W^T``, where
``B`` holds the imputation covariance ``S_hat`` on the imputed rows and
zeros on the matched ones.  The fit objective and the exact NLL
(``gar_nll_nonsubset``) share one routine, exact for any W: whitening by
``L^-1`` of ``G0 = L L^T`` (the residual input Gram plus noise), one N_h x
N_h eigendecomposition and the SVD of each weight factor diagonalize the
corrected covariance (eigenvalues ``1 + beta (o) mu_1 (o) ..``).  Only the
columns of ``L^-1`` that meet the imputed rows touch ``S_hat``, so ``B``
itself is never formed.  Orthonormal W is the case where every
``mu`` is 0 or 1, and the diagonalization reduces to the projector split

    (G0 (x) I + B (x) P)^{-1} = G0^{-1} (x) (I - P) + (G0 + B)^{-1} (x) P,

with ``P = W W^T`` the per-mode projector.  Prediction stays in input
space as well: each level's mean and variance are read off ``k* G^-1`` from
one factorization of its ``K + noise I``, and the imputation-variance term
is ``diag(delta S_hat delta^T)``, ``delta`` the difference of those two
paths' ``k* G^-1`` on the imputed rows, times the squared row norms of the
composed weights.  So neither the fit, the NLL nor the prediction ever
builds an ``N_h d_h`` matrix, a Kronecker root column or a model's
eigenbasis.  Predictive means coincide with the full model's means when the
latter also carries identity output covariances (the mean never depends on
the output covariance); predictive variances are the price paid for the
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gar import GarConfig, GarModel, MultiFidelityDataset, TuckerWeights, gar_fit_recursive
from .hogp import TgpModel
from .tensalg import polar

ORTHO_TOL = 1e-8


@dataclass
class CigarModel(GarModel):
    """Fitted conditional-independent fusion model.

    Same container as the full model with identity output covariances and
    per-mode orthonormal-column weight factors (validated on construction).
    """

    kind: str = "cigar"

    def __post_init__(self):
        super().__post_init__()  # one output-covariance kind along the chain
        if self.low.output_features is not None:
            raise ValueError("conditional-independent model requires identity output covariances")
        for t in self.transitions:
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
    """Replace every factor by its polar factor, the nearest orthonormal-column matrix.

    The fit maps its unconstrained factors the same way (``tensalg.polar``);
    idempotent.  Wide and rank-deficient factors are refused.
    """
    return TuckerWeights([polar(f)[0] for f in weights.factors])


def cigar_fit(
    dataset: MultiFidelityDataset, config: GarConfig = GarConfig(), low: TgpModel | None = None
) -> CigarModel:
    """Fit the conditional-independent model on subset or non-subset data.

    Each weight factor is the polar factor of an unconstrained matrix that
    the optimizer moves freely, so orthonormality holds at every evaluated
    point, without a penalty or a retraction.  No output-mode covariance is
    ever allocated or factorized during the fit.  ``low``, an earlier
    identity-output stage-1 fit of the same lowest level (a CIGAR model's
    ``low``), replaces stage 1 as in :func:`gar_fit_recursive`.
    """
    cfg = replace(config, identity_outputs=True, w_mode="orthonormal")
    fitted = gar_fit_recursive(dataset, cfg, low)
    return CigarModel(low=fitted.low, transitions=fitted.transitions)
