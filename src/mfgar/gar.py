"""Multi-fidelity fusion by generalized autoregression over tensor-variate GPs.

Model: the level-(i+1) observation tensor is a per-mode linear transform of
the level-i observation plus an independent residual tensor GP,

    Y[i+1] = Y[i][matched rows] x_1 W_1 x_2 .. x_M W_M + R[i],

so the joint over all levels is Gaussian.  When every higher-fidelity input
also appears among the lower-fidelity inputs (subset structure), the joint
likelihood separates exactly into independent tensor-GP likelihoods, one for
the lowest level and one per residual, and the fit runs as independent
stages.  When some high-fidelity inputs have no lower-fidelity twin, the
missing low-fidelity observations are treated as latent (an imaginary
subset), imputed from the low model's posterior, and marginalized in closed
form: the residual likelihood keeps its Gaussian shape with covariance
inflated by the propagated imputation uncertainty.  Identity-output fits
optimize that likelihood; latent-output fits optimize the imputed residual
without the inflation, and ``gar_nll_nonsubset`` scores them exactly.

Observation noise rides along the chain: each level's transform acts on the
*noisy* lower-level observation, which is exactly the reading under which
the subset decomposition stays an identity at nonzero noise.  The dense
joint builders of the test oracles implement the same chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .hogp import (
    FitConfig,
    LOG2PI,
    PosteriorField,
    TgpModel,
    _TgpPack,
    _check_schema,
    _entry,
    _gram_parts,
    _initial_model,
    _input_factor,
    _nll_core,
    _nll_value,
    _predict_parts,
    _rejected,
    _scored,
    _tgp_from_doc,
    decode_array,
    encode_array,
    tgp_fit,
    tgp_nll,
    tgp_predict,
    tgp_to_dict,
)
from .kernels import ArdKernelParams, LatentFeatures, ard_gram
from .optim import OptimConfig, minimize
from .tensalg import kruskal_outer, mode_product, polar, sym_eig, tucker_apply, vec

# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class FidelityLevel:
    """Inputs and tensorized outputs of one fidelity."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.ndim == 1:
            self.Y = self.Y[:, None]
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("sample counts of X and Y differ")
        if self.X.shape[0] == 0:
            raise ValueError("empty fidelity level: X and Y have no samples")
        for name, values in (("X", self.X), ("Y", self.Y)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def mode_sizes(self) -> tuple:
        return self.Y.shape[1:]


@dataclass
class MultiFidelityDataset:
    """Ordered fidelity levels, lowest first.

    Output tensors are padded with trailing size-1 modes so every level has
    the same mode count; sample counts must be non-increasing with fidelity
    and the input dimension identical across levels.
    """

    levels: list

    def __post_init__(self):
        levels = []
        for i, lv in enumerate(self.levels):
            try:
                levels.append(lv if isinstance(lv, FidelityLevel) else FidelityLevel(*lv))
            except ValueError as err:
                raise ValueError(f"level {i}: {err}") from None
        self.levels = levels
        if len(self.levels) < 1:
            raise ValueError("dataset needs at least one level")
        dims = {lv.X.shape[1] for lv in self.levels}
        if len(dims) != 1:
            raise ValueError("input dimension must be identical across levels")
        counts = [lv.n_samples for lv in self.levels]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ValueError("sample counts must be non-increasing with fidelity")
        n_modes = max(len(lv.mode_sizes) for lv in self.levels)
        for lv in self.levels:
            pad = n_modes - len(lv.mode_sizes)
            if pad:
                lv.Y = lv.Y.reshape(lv.Y.shape + (1,) * pad)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def input_dim(self) -> int:
        return self.levels[0].X.shape[1]


# ---------------------------------------------------------------------------
# Subset plans
# ---------------------------------------------------------------------------


@dataclass
class SubsetPlan:
    """Index bookkeeping for one adjacent fidelity pair.

    ``matched_high[k]`` is a high-fidelity row whose input equals low row
    ``matched_low[k]``; ``unmatched_high`` lists the high rows with no low
    twin (the imaginary set).  ``permutation`` orders high rows matched-first,
    which is the row order every residual quantity uses.
    """

    matched_high: np.ndarray
    matched_low: np.ndarray
    unmatched_high: np.ndarray

    def __post_init__(self):
        self.matched_high = np.asarray(self.matched_high, dtype=int)
        self.matched_low = np.asarray(self.matched_low, dtype=int)
        self.unmatched_high = np.asarray(self.unmatched_high, dtype=int)
        if self.matched_high.shape != self.matched_low.shape:
            raise ValueError("matched index arrays must have equal length")

    @property
    def n_matched(self) -> int:
        return self.matched_high.size

    @property
    def n_unmatched(self) -> int:
        return self.unmatched_high.size

    @property
    def fully_matched(self) -> bool:
        return self.n_unmatched == 0

    @property
    def permutation(self) -> np.ndarray:
        return np.concatenate([self.matched_high, self.unmatched_high])


def build_subset_plan(dataset: MultiFidelityDataset, level: int = 0) -> SubsetPlan:
    """Match high-fidelity inputs to bitwise-identical low-fidelity inputs.

    Raises when duplicate low rows make a match ambiguous.
    """
    if not 0 <= level < dataset.n_levels - 1:
        raise ValueError("level must index an adjacent pair")
    table: dict = {}
    for i, row in enumerate(dataset.levels[level].X):
        table.setdefault(row.tobytes(), []).append(i)
    matched_high, matched_low, unmatched = [], [], []
    for j, row in enumerate(dataset.levels[level + 1].X):
        hits = table.get(row.tobytes(), [])
        if len(hits) > 1:
            raise ValueError(f"high row {j} matches {len(hits)} duplicate low rows")
        if hits:
            matched_high.append(j)
            matched_low.append(hits[0])
        else:
            unmatched.append(j)
    return SubsetPlan(np.array(matched_high, int), np.array(matched_low, int), np.array(unmatched, int))


# ---------------------------------------------------------------------------
# Tucker weights
# ---------------------------------------------------------------------------


@dataclass
class TuckerWeights:
    """Per-mode linear maps carrying a low-fidelity field to the next level."""

    factors: list

    def __post_init__(self):
        self.factors = [np.atleast_2d(np.asarray(f, dtype=float)) for f in self.factors]

    @classmethod
    def initial(cls, high_sizes, low_sizes) -> "TuckerWeights":
        """Identity when square, ones on the main diagonal otherwise."""
        return cls([np.eye(dh, dl) for dh, dl in zip(high_sizes, low_sizes)])

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        """Transform output modes of a (samples, d_1, ..) tensor."""
        return tucker_apply(tensor, self.factors, mode_offset=1)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------


@dataclass
class NonSubsetWorkspace:
    """Imaginary-subset quantities for one non-subset transition.

    Both are functions of the pair's fitted low model and the unmatched
    inputs (the residual's inputs from ``plan.n_matched`` on), built by
    ``_nonsubset_workspace`` only and never serialized: ``s_hat`` is the low
    model's input-space posterior covariance there, and ``aug_low`` the low
    model augmented with the posterior means there as pseudo-observations
    (its trailing rows are the imputed mean, and it is the operator behind
    the corrected prediction).
    """

    s_hat: np.ndarray
    aug_low: TgpModel


@dataclass
class GarTransition:
    """One fidelity step: weights, residual model, plan, optional workspace.

    The residual rows are in the plan's matched-first order, so the
    unmatched inputs are the residual inputs from ``plan.n_matched`` on.
    ``workspace`` is set exactly when the plan has unmatched rows.
    """

    weights: TuckerWeights
    residual: TgpModel
    plan: SubsetPlan
    workspace: NonSubsetWorkspace | None = None

    @property
    def is_subset(self) -> bool:
        return self.workspace is None


@dataclass
class GarModel:
    """Chain of fitted transitions; a bundle loads as the subclass of its ``kind``.

    Every TGP in the chain (``low``, each residual and each imputation's
    low model) has output covariances of one kind, all identity or all
    latent; a mixed chain raises ``ValueError``.
    """

    low: TgpModel
    transitions: list
    kind: str = "gar"

    def __post_init__(self):
        tgps = [self.low] + [t.residual for t in self.transitions]
        tgps += [t.workspace.aug_low for t in self.transitions if t.workspace is not None]
        if len({m.output_features is None for m in tgps}) > 1:
            raise ValueError(
                "mixed output covariances: the low, residual and imputation models "
                "must all have identity or all latent output covariances"
            )

    @property
    def rho(self) -> float | None:
        """Transfer scale of the scalar-transfer baseline (``kind == "ar"``)."""
        if self.kind != "ar":
            return None
        return float(self.transitions[-1].weights.factors[0][0, 0])


@dataclass(frozen=True)
class GarConfig:
    """Fusion fit settings shared by all model kinds."""

    optim: OptimConfig = OptimConfig()
    identity_outputs: bool = False
    w_mode: str = "free"  # free | scalar | identity | orthonormal

    def fit_config(self) -> FitConfig:
        return FitConfig(optim=self.optim, identity_outputs=self.identity_outputs)


# ---------------------------------------------------------------------------
# Weight parameterizations for the stage-2 objective
# ---------------------------------------------------------------------------


class _WParam:
    """Flat packing of the transition weights under a structural constraint.

    ``orthonormal`` packs an unconstrained ``F_m`` per mode and uses its
    polar factor as ``W_m``, so every evaluated W satisfies the constraint.
    """

    def __init__(self, init: TuckerWeights, mode: str):
        if mode not in ("free", "scalar", "identity", "orthonormal"):
            raise ValueError(f"unknown weight mode {mode!r}")
        self.mode = mode
        self.shapes = [f.shape for f in init.factors]
        if mode == "scalar" and any(s[0] != s[1] for s in self.shapes):
            raise ValueError("scalar transfer requires aligned output dimensions")
        if mode == "orthonormal" and any(s[0] < s[1] for s in self.shapes):
            raise ValueError("cannot orthonormalize more columns than rows")
        if mode in ("free", "orthonormal"):
            self.init = _ravel_all(init.factors)
        else:
            self.init = np.ones(1) if mode == "scalar" else np.empty(0)
        self.size = self.init.size

    def unpack(self, p: np.ndarray):
        """Weights at ``p``, and the map of their per-factor gradients to ``p``'s gradient."""
        if self.mode == "scalar":
            rho = float(p[0])
            facs = [np.eye(*self.shapes[0]) * rho] + [np.eye(*s) for s in self.shapes[1:]]
            return TuckerWeights(facs), lambda grads: np.array([float(np.trace(grads[0]))])
        if self.mode == "identity":
            return TuckerWeights([np.eye(*s) for s in self.shapes]), lambda grads: np.empty(0)
        ends = np.cumsum([a * b for a, b in self.shapes])[:-1]
        facs = [f.reshape(shape) for f, shape in zip(np.split(p, ends), self.shapes)]
        if self.mode == "free":
            return TuckerWeights(facs), _ravel_all
        polars = [polar(f) for f in facs]
        return (
            TuckerWeights([q for q, _ in polars]),
            lambda grads: _ravel_all([pb(g) for (_, pb), g in zip(polars, grads)]),
        )


def _ravel_all(mats) -> np.ndarray:
    return np.concatenate([m.ravel() for m in mats])


# ---------------------------------------------------------------------------
# Stage-2 objectives
# ---------------------------------------------------------------------------


class _Stage2Pack:
    """Flat parameters {W, residual hyperparameters} of one transition fit.

    ``objective`` is the one stage-2 objective of every transition kind, in
    ``optim``'s value-first protocol.  Its value pass forms the partial
    product ``z[M]`` (the low stack with every weight factor applied but the
    last, ``W_M``), rebuilds the residual ``y_high - z[M] x_M W_M`` from it,
    and scores it with the subclass's covariance core.  Its gradient pass
    runs the core's adjoint pass, pulls the covariance adjoints back through
    ``_TgpPack.chain``, forms the other partial products ``z[m]`` and
    contracts the data adjoint with each for the W gradient, then maps it
    through the weight parametrization: M weight products per value,
    M(M-1)+1 with the gradient.

    A subclass supplies only ``_core(model, weights)`` at the unpacked
    residual model, returning ``(value, grams, adjoint)``: the NLL, the
    parts of the kernel Grams its value pass built (``hogp._gram_parts``),
    which the gradient pass pulls the Gram adjoints back through, and a
    callable returning ``(gbars, d_noise, alpha, w_cov_grads)``: the
    adjoints of the input Gram and (latent outputs) of each output
    covariance, the noise-variance partial, ``alpha = Sigma^-1 r`` in the
    residual's tensor shape, and the per-factor W gradients through the
    covariance, or ``None`` when the covariance does not depend on W.  A
    point where a polar factor is not unique or the core's eigen or
    Cholesky step fails, or where the value is not finite, scores ``(inf,
    0)``, which the optimizer rejects and backtracks from; it also rejects a
    non-finite gradient.
    """

    def __init__(
        self,
        low_stack: np.ndarray,
        y_high: np.ndarray,
        template: TgpModel,
        w_init: TuckerWeights,
        w_mode: str,
        freeze_coords: bool = False,
    ):
        self.low_stack = low_stack
        self.y_high = y_high
        self.w = _WParam(w_init, w_mode)
        self.tgp = _TgpPack(template, freeze_coords=freeze_coords)
        self.size = self.w.size + self.tgp.size

    def split(self, p):
        return p[: self.w.size], p[self.w.size :]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.w.init, self.tgp.pack(self.tgp.template)])

    def _partial(self, weights: TuckerWeights, skip: int):
        """``z[skip]``: the low stack with every weight factor but ``W_skip`` applied.

        The factors go in ``weights.apply``'s order.
        """
        z = self.low_stack
        for m, w in enumerate(weights.factors):
            if m != skip:
                z = mode_product(z, w, m + 1)
        return z

    def _unpack(self, p: np.ndarray):
        """Weights, their gradient pullback, the residual model and ``z[M]`` at ``p``."""
        pw, pt = self.split(p)
        weights, w_pullback = self.w.unpack(pw)
        last = len(weights.factors) - 1
        z_last = self._partial(weights, last)
        # the factors in weights.apply's order, so the residual is bitwise the same
        resid = self.y_high - mode_product(z_last, weights.factors[last], last + 1)
        return weights, w_pullback, self.tgp.unpack(pt, Y=resid), z_last

    def unpack(self, p: np.ndarray):
        weights, _, model, _ = self._unpack(p)
        return weights, model

    def objective(self, p: np.ndarray):
        try:
            weights, w_pullback, model, z_last = self._unpack(p)
            value, grams, adjoint = self._core(model, weights)
        except (np.linalg.LinAlgError, ValueError):
            return _rejected(self.size)

        def gradient():
            gbars, d_noise, alpha, w_cov_grads = adjoint()
            g_t = self.tgp.chain(model, grams, gbars, d_noise)
            # d(NLL)/dW_m through the residual tensor, plus the covariance part
            last = len(weights.factors) - 1
            w_grads = []
            for m in range(last + 1):
                z_m = z_last if m == last else self._partial(weights, m)
                other = [a for a in range(alpha.ndim) if a != m + 1]
                g = -np.tensordot(alpha, z_m, axes=(other, other))
                w_grads.append(g if w_cov_grads is None else g + w_cov_grads[m])
            return np.concatenate([w_pullback(w_grads), g_t])

        return _scored(value, gradient, self.size)


class _ResidualPack(_Stage2Pack):
    """Stage 2 with the residual scored as a plain TGP.

    On subset data this is the exact objective.  On non-subset data with
    latent output covariances the low stack carries the imputed means at the
    unmatched inputs, and the pack optimizes that imputed residual without
    the imputation-uncertainty correction (exact as the uncertainty
    vanishes); ``gar_nll_nonsubset`` scores the fitted model exactly.  The
    covariance does not depend on W, and the NLL and adjoints run through
    ``hogp._nll_core``: in input space, on the residual's N x N Gram, for
    identity output covariances, and through the eigendecomposition
    pipeline for latent ones.
    """

    def _core(self, model: TgpModel, weights: TuckerWeights):
        nll, grams, adjoint = _nll_core(model)

        def core_adjoint():
            gbars, d_noise, alpha = adjoint()
            return gbars, d_noise, alpha(), None

        return nll, grams, core_adjoint


def _identity_output_objective(
    res: TgpModel, weights: TuckerWeights, s_hat: np.ndarray, n_matched: int
):
    """Corrected residual NLL with identity output covariances, and its adjoints.

    The covariance is ``G0 (x) I + B (x) W W^T`` with ``G0 = K_r + noise I =
    L L^T`` and ``B`` the imputation covariance ``s_hat`` on the imputed rows
    (the residual rows from ``n_matched`` on), zero elsewhere.  ``B`` itself
    is never formed: whitening by ``L`` needs only ``L^-1 B L^-T = M s_hat
    M^T`` with ``M = L^-1[:, n_matched:]``.  Diagonalizing that, ``Q
    diag(beta) Q^T`` (N_h x N_h), and, per mode, ``W_m W_m^T = V_m
    diag(mu_m) V_m^T`` (from the SVD of ``W_m``) makes the covariance
    diagonal, ``A = 1 + beta (o) mu_1 (o) ..``, in the rotation ``T0 = Q^T
    L^-1`` and ``V_m^T``, for any W.  With ``Z`` the rotated residual and
    ``Zh = Z / A`` the adjoints need no SVD derivative:

    - input Gram ``G0``: ``1/2 T0^T (diag(sum_j 1/A) - Zh_(0) Zh_(0)^T) T0``;
    - ``W_m`` through the covariance: ``V_m (diag(c_m) - N_m) V_m^T W_m``,
      where ``c_m`` sums ``beta mu_-m / A`` and ``N_m`` contracts
      ``Zh beta mu_-m`` with ``Zh`` over every axis but ``m``;
    - the residual tensor: ``alpha = Zh`` rotated back (``Sigma^-1 r``).

    Returns the ``_Stage2Pack._core`` triple ``(value, grams, adjoint)``.
    The value pass is the parts of ``K_r`` (``grams``, the only Gram), the
    ``hogp._input_factor`` of ``G0``, the eigendecomposition, the SVDs,
    ``Z``, the quadratic form and the log-determinant; ``adjoint()`` forms
    ``Zh``, ``alpha`` and the adjoints from them and returns ``([gbar_g0],
    d_noise, alpha, w_cov_grads)``, the noise partial being ``tr(gbar_g0)``.
    """
    n_high = res.n_samples
    grams = _gram_parts(res)
    l_inv, logdet_g0 = _input_factor(res, grams[0][2])
    l_imp = l_inv[:, n_matched:]  # the columns of L^-1 that meet the imputed rows
    Q, beta = sym_eig(l_imp @ s_hat @ l_imp.T)
    t0 = Q.T @ l_inv
    rotations, mus = [t0], [beta]
    for w in weights.factors:
        V, s, _ = np.linalg.svd(w)
        mu = np.zeros(w.shape[0])
        mu[: s.size] = s * s
        rotations.append(V.T)
        mus.append(mu)
    A = 1.0 + kruskal_outer(mus)
    if not (A > 0).all():
        raise np.linalg.LinAlgError("corrected covariance not positive definite")
    Z = tucker_apply(res.centered, rotations)
    quad = float((Z * Z / A).sum())
    logdet = res.output_size * logdet_g0 + float(np.log(A).sum())
    value = 0.5 * (quad + logdet + n_high * res.output_size * LOG2PI)

    def adjoint():
        inv_a = 1.0 / A
        z_hat = Z * inv_a
        alpha = tucker_apply(z_hat, [r.T for r in rotations])
        a0 = alpha.reshape(n_high, -1)
        gbar_g0 = 0.5 * ((t0.T * inv_a.reshape(n_high, -1).sum(axis=1)) @ t0 - a0 @ a0.T)
        w_cov_grads = []
        axes = list(range(A.ndim))
        for m, (w, vt) in enumerate(zip(weights.factors, rotations[1:])):
            scale = kruskal_outer(
                [np.ones_like(v) if j == m + 1 else v for j, v in enumerate(mus)]
            )
            other = [a for a in axes if a != m + 1]
            c = (scale * inv_a).sum(axis=tuple(other))
            n_m = np.tensordot(z_hat * scale, z_hat, axes=(other, other))
            w_cov_grads.append(vt.T @ ((np.diag(c) - n_m) @ (vt @ w)))
        return [gbar_g0], float(np.trace(gbar_g0)), alpha, w_cov_grads

    return value, grams, adjoint


class _IdentityOutputNonsubsetPack(_Stage2Pack):
    """Exact corrected non-subset objective for identity output covariances.

    Every identity-output non-subset transition fits here, for any weight
    mode and block size: ``_identity_output_objective`` evaluates the
    corrected residual NLL and its adjoints from ``s_hat`` and the matched
    row count with one N_h x N_h eigendecomposition and the SVD of each
    weight factor, so neither an output-sized matrix nor the zero-padded
    N_h x N_h imputation covariance is ever built.  ``gar_nll_nonsubset``
    scores fitted models with the same routine.
    """

    def __init__(
        self,
        low_stack: np.ndarray,
        y_high: np.ndarray,
        template: TgpModel,
        w_init: TuckerWeights,
        w_mode: str,
        s_hat: np.ndarray,
        n_matched: int,
    ):
        if template.output_features is not None:
            raise ValueError("identity-output pack requires identity output covariances")
        super().__init__(low_stack, y_high, template, w_init, w_mode)
        self.s_hat = s_hat
        self.n_matched = n_matched

    def _core(self, model: TgpModel, weights: TuckerWeights):
        return _identity_output_objective(model, weights, self.s_hat, self.n_matched)


# ---------------------------------------------------------------------------
# Transition fitting
# ---------------------------------------------------------------------------


def _residual_template(X_res, mode_sizes_high, low_model, config: GarConfig, resid0=0.0):
    """Initial residual model and whether it shares the low level's latent coordinates.

    When both levels have latent output covariances over the same mode
    sizes, the residual takes over the low model's latent coordinates (with
    fresh unit kernels), which the fit then holds fixed; otherwise a latent
    residual draws its own.
    Amplitude and noise are scaled to the residual ``resid0`` at the initial
    weights, as a plain TGP fit scales them to its data.
    """
    share = (
        not config.identity_outputs
        and low_model is not None
        and low_model.output_features is not None
        and tuple(mode_sizes_high) == low_model.mode_sizes
    )
    feats = None
    if share:
        feats = LatentFeatures(
            [V.copy() for V in low_model.output_features.coords],
            [ArdKernelParams.default(V.shape[1]) for V in low_model.output_features.coords],
        )
    elif not config.identity_outputs:
        feats = LatentFeatures.initialize(tuple(mode_sizes_high), seed=config.optim.seed)
    Y = np.zeros((X_res.shape[0], *mode_sizes_high))
    return _initial_model(X_res, Y, float(np.var(resid0)), feats), share


def _nonsubset_workspace(low: TgpModel, x_hat: np.ndarray) -> NonSubsetWorkspace:
    """Impute the low level at the unmatched inputs ``x_hat`` from its fitted model.

    ``Ŝ = k_hh - k̂ G^-1 k̂^T`` reads the mean operator ``k̂ G^-1`` of an
    identity-output low model, so its ``G = K + noise I`` is factored once;
    a latent one predicts in its eigenbasis and factors ``G`` for ``Ŝ``.
    """
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=float))
    mean, _, op = _predict_parts(low, x_hat)
    imputed = mean + low.offset
    k_hat = ard_gram(low.input_kernel, x_hat, low.X)
    if low.output_features is None:
        explained = op @ k_hat.T
    else:
        h = k_hat @ _input_factor(low)[0].T
        explained = h @ h.T
    s_hat = ard_gram(low.input_kernel, x_hat, x_hat) - explained
    aug_low = replace(
        low, X=np.vstack([low.X, x_hat]), Y=np.concatenate([low.Y, imputed], axis=0)
    )
    return NonSubsetWorkspace(s_hat=0.5 * (s_hat + s_hat.T), aug_low=aug_low)


def _fit_transition(
    low_model: TgpModel,
    level_low: FidelityLevel,
    level_high: FidelityLevel,
    plan: SubsetPlan,
    config: GarConfig,
):
    """Stage-2 fit of one transition: weights plus residual hyperparameters.

    A non-subset transition with identity output covariances fits the exact
    corrected objective in input space (``_IdentityOutputNonsubsetPack``),
    for any W and block size.  Every other transition fits ``_ResidualPack``
    on the low stack, which on non-subset data ends in the imputed means at
    the unmatched inputs: exact for subset data, and for latent output
    covariances the imputed-residual objective, whose fitted model
    ``gar_nll_nonsubset`` scores exactly.
    """
    perm = plan.permutation
    X_res = level_high.X[perm]
    Y_res = level_high.Y[perm]
    w_init = TuckerWeights.initial(level_high.mode_sizes, level_low.mode_sizes)
    low_stack = level_low.Y[plan.matched_low]
    workspace = None
    if not plan.fully_matched:
        workspace = _nonsubset_workspace(low_model, level_high.X[plan.unmatched_high])
        imputed = workspace.aug_low.Y[low_model.n_samples :]
        low_stack = np.concatenate([low_stack, imputed], axis=0)
    template, shared = _residual_template(
        X_res, level_high.mode_sizes, low_model, config,
        resid0=Y_res - w_init.apply(low_stack),
    )

    args = (low_stack, Y_res, template, w_init, config.w_mode)
    if workspace is not None and config.identity_outputs:
        pack = _IdentityOutputNonsubsetPack(*args, workspace.s_hat, plan.n_matched)
    else:
        pack = _ResidualPack(*args, freeze_coords=shared)

    p_opt, trace = minimize(pack.objective, pack.pack(), config.optim)
    weights, residual = pack.unpack(p_opt)
    return GarTransition(weights=weights, residual=residual, plan=plan, workspace=workspace), trace


def _check_base(low: TgpModel, level: FidelityLevel, config: GarConfig):
    """Refuse a fitted base model that is not a stage-1 fit of ``level`` under ``config``."""
    for name, mine, data in (("X", low.X, level.X), ("Y", low.Y, level.Y)):
        if mine.shape != data.shape or mine.tobytes() != data.tobytes():
            raise ValueError(f"low: its {name} is not bitwise the dataset's lowest level")
    if (low.output_features is None) != config.identity_outputs:
        kind = "identity" if low.output_features is None else "latent"
        raise ValueError(
            f"low: {kind} output covariances, but the config has "
            f"identity_outputs={config.identity_outputs}"
        )


def gar_fit_recursive(
    dataset: MultiFidelityDataset, config: GarConfig = GarConfig(), low: TgpModel | None = None
) -> GarModel:
    """Fit the full fidelity chain, dispatching subset/non-subset per pair.

    Stage 1 fits the lowest level alone; each transition then fits its
    weights and residual hyperparameters with the lower level frozen (the
    subset decomposition makes this staging exact; the non-subset objective
    conditions on the low model by construction).  For non-subset transitions
    above the bottom pair, the imputation uses a standalone fit of that
    level's own data.

    ``low``, a stage-1 model fitted earlier on the same lowest level (for
    instance the ``low`` of a fit at another high-fidelity design), skips
    stage 1 and is used as it is: given the ``low`` of a fit under the same
    config, the result is bitwise the one that refits it.  A ``low`` whose
    ``X`` or ``Y`` is not bitwise the lowest level's, or whose output
    covariances are not the kind ``config.identity_outputs`` asks for,
    raises ``ValueError``.
    """
    if dataset.n_levels < 2:
        raise ValueError("multi-fidelity fit needs at least two levels")
    fit_cfg = config.fit_config()
    if low is None:
        low_model, _ = tgp_fit(dataset.levels[0].X, dataset.levels[0].Y, fit_cfg)
    else:
        _check_base(low, dataset.levels[0], config)
        low_model = low
    transitions = []
    for i in range(dataset.n_levels - 1):
        plan = build_subset_plan(dataset, i)
        if i == 0:
            pair_low = low_model
        elif not plan.fully_matched:
            pair_low, _ = tgp_fit(dataset.levels[i].X, dataset.levels[i].Y, fit_cfg)
        else:
            pair_low = None  # subset transitions above the base need data only
        try:
            trans, _ = _fit_transition(
                pair_low, dataset.levels[i], dataset.levels[i + 1], plan, config
            )
        except Exception as exc:
            raise RuntimeError(f"fit failed at fidelity transition {i} -> {i + 1}") from exc
        transitions.append(trans)
    return GarModel(
        low=low_model, transitions=transitions, kind="ar" if config.w_mode == "scalar" else "gar"
    )


def gar_fit_subset(dataset: MultiFidelityDataset, config: GarConfig = GarConfig()) -> GarModel:
    """Two-or-more-level fit requiring strict subset structure."""
    for i in range(dataset.n_levels - 1):
        plan = build_subset_plan(dataset, i)
        if not plan.fully_matched:
            raise ValueError(
                f"transition {i}: {plan.n_unmatched} high-fidelity inputs have no "
                "low-fidelity twin; use the non-subset path (gar_fit_recursive)"
            )
    return gar_fit_recursive(dataset, config)


def ar_baseline_fit(
    dataset: MultiFidelityDataset, config: GarConfig = GarConfig(), low: TgpModel | None = None
) -> GarModel:
    """Classic scalar-transfer autoregression as a constrained special case.

    The transform is a single trainable scalar times the identity, so output
    dimensions must align across fidelities.  ``low`` is as in
    :func:`gar_fit_recursive`.
    """
    for a, b in zip(dataset.levels, dataset.levels[1:]):
        if a.mode_sizes != b.mode_sizes:
            raise ValueError(
                "scalar-transfer baseline requires aligned output dimensions across "
                "fidelities; regenerate the dataset with aligned outputs"
            )
    return gar_fit_recursive(dataset, replace(config, w_mode="scalar"), low)


# ---------------------------------------------------------------------------
# Non-subset likelihood (production evaluation)
# ---------------------------------------------------------------------------


def _imputation_roots(s_hat: np.ndarray, low: TgpModel) -> list:
    """Square roots of the imputation covariance factors ``S_hat (x) S_low``.

    One root ``U sqrt(lam)`` per factor, negative round-off eigenvalues
    clipped: ``S_hat`` first, from its eigendecomposition, then each latent
    output covariance of the low model, from its cached eigenfactors.
    """
    eigs = low.eigenfactors()
    pairs = [sym_eig(s_hat), *zip(eigs.vectors[1:], eigs.values[1:])]
    return [U * np.sqrt(np.clip(lam, 0.0, None)) for U, lam in pairs]


def _rotated_roots(eigs, roots: list, offset: int, weights: TuckerWeights | None = None) -> list:
    """Imputation roots rotated into a model's joint eigenbasis, ``U_k^T R_k`` per mode.

    The input root fills the sample rows from ``offset`` on (the imputed
    rows), so only those rows of ``U_0`` enter; ``weights``, when given, are
    folded into the output roots first (``W_k R_k``, the residual path).
    Columns of the Kronecker product of the result are the root columns in
    the eigenbasis, ready to be divided by the joint eigenvalues.
    """
    out = [eigs.vectors[0][offset:].T @ roots[0]]
    for m, (U, r) in enumerate(zip(eigs.vectors[1:], roots[1:])):
        if weights is not None:
            r = weights.factors[m] @ r
        out.append(U.T @ r)
    return out


# Largest block, in doubles, of a Khatri-Rao Tucker product that
# ``_khatri_rao_blocks`` materializes at once (1 MB); a larger slice is
# produced in blocks of the last mode's rows.
_KR_BLOCK = 1 << 17


def _input_contraction(k: np.ndarray, g0: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``B[(s, c), p..] = sum_i k[s, i] g0[i, c] / A[i, p..]``: the input mode contracted first.

    The leading axis runs over the pairs ``(s, c)``, ``c`` fastest.
    """
    n = A.shape[0]
    kg = (k[:, :, None] * g0[None, :, :]).transpose(0, 2, 1).reshape(-1, n)
    return (kg @ (1.0 / A).reshape(n, -1)).reshape(-1, *A.shape[1:])


def _khatri_rao_blocks(core: np.ndarray, fs: list, gs: list):
    """Tucker products of the slices of ``core`` with Khatri-Rao factors, in blocks.

    ``core`` has shape ``(n_b, P_1, .., P_M)`` and the mode-k factor is
    ``E_k[(j, c), p] = fs[k][j, p] gs[k][p, c]`` (rows ``j``-major), so a
    slice's product ``core[b] x_1 E_1 .. x_M E_M`` has one ``(j_k, c_k)``
    axis pair per mode.  Yields ``(b, rows, out)`` where ``rows`` is a slice
    of the last mode's ``j`` and ``out`` the matching block of the product,
    shaped ``(prod_{k<M} J_k, len(rows) c_M)`` and of at most ``_KR_BLOCK``
    entries unless a single ``j`` row exceeds it.  ``out`` is a view of one
    reused buffer, valid until the next step.
    """
    E = [(f[:, None, :] * g.T[None, :, :]).reshape(-1, g.shape[0]) for f, g in zip(fs, gs)]
    lead = int(np.prod([e.shape[0] for e in E[:-1]]))
    d_last, c_last = fs[-1].shape[0], gs[-1].shape[1]
    step = max(1, min(d_last, _KR_BLOCK // (lead * c_last)))
    buf = np.empty(lead * step * c_last)
    for b in range(core.shape[0]):
        head = tucker_apply(core[b], E[:-1]).reshape(lead, -1)
        for j0 in range(0, d_last, step):
            rows = slice(j0, min(j0 + step, d_last))
            out = buf[: lead * (rows.stop - j0) * c_last].reshape(lead, -1)
            np.matmul(head, E[-1][j0 * c_last : rows.stop * c_last].T, out=out)
            yield b, rows, out


def _corrected_nll_low_rank(trans: GarTransition, low: TgpModel) -> float:
    """Corrected residual NLL as a low-rank update of the eigen-solvable base.

    ``Sigma_c = U (D + G G^T) U^T`` with ``D`` the joint eigenvalues and
    ``G`` the Kronecker product of the imputation roots rotated once per
    mode into the base eigenbasis (``g_k``); the matrix determinant lemma
    and Woodbury leave one capacitance matrix ``I + G^T D^-1 G`` of the
    correction's rank to factorize.  It is built as ``_gamma_variance``
    builds its term, with ``G`` on both sides: the input mode contracted
    first, ``B[c0', c0, p..] = sum_i g_0[i, c0'] g_0[i, c0] / A[i, p..]``,
    then one Tucker product per input-root pair with the Khatri-Rao factors
    ``E_k[(c', c), p] = g_k[p, c'] g_k[p, c]``.  The base NLL and its data
    solve ``At`` are the residual's (``hogp._nll_value``), and the update
    adds ``1/2 (log|cap| - |L^-1 G^T At|^2)`` with ``cap = L L^T``.

    The capacitance is split into ``n_m x n_m`` blocks of size ``r = prod_k
    c_k``, block (i, j) the input-root pair's slice ``i n_m + j``, and only
    blocks of the lower triangle are built.  A left-looking block Cholesky
    (Golub and Van Loan, Matrix Computations, 4.2) factors them in place:
    block column k is built only when it is about to be factored, takes
    the ``dsyrk``/``dgemm`` updates of the factored columns before it in
    ascending order, then ``dpotrf`` on the diagonal and ``dtrsm`` below
    it, and block row k is dropped once its column is done.  At most
    ``(k + 1)(n_m - k)`` blocks of ``r^2`` doubles are live at column k
    (6 at ``n_m = 4``) where the dense matrix has ``n_m^2``; the
    log-determinant and the forward solve are carried along, and at ``n_m
    = 1`` it is one ``dpotrf``.  Each block takes its updates in the order
    a right-looking factorization would apply them, so both orders give
    the same bits.  A non-finite capacitance entry raises ``ValueError`` and a
    non-positive pivot ``np.linalg.LinAlgError``.
    """
    from scipy.linalg.blas import dgemm, dsyrk, dtrsm
    from scipy.linalg.lapack import dpotrf, dtrtrs

    res, ws = trans.residual, trans.workspace
    nll_base, (eigs, A, _, At) = _nll_value(res)
    roots = _rotated_roots(
        eigs, _imputation_roots(ws.s_hat, low), trans.plan.n_matched, trans.weights
    )
    n_m, col_sizes = roots[0].shape[1], [r.shape[1] for r in roots[1:]]
    r = int(np.prod(col_sizes))
    # G^T At, rows (c0, c); the forward solve overwrites it block row by block row
    half = vec(tucker_apply(At, [g.T for g in roots])).reshape(n_m, r)

    # G^T D^-1 G entry by entry: rows (c0', c'), columns (c0, c); one slice
    # per input-root pair, each output mode a Khatri-Rao factor of its root,
    # the lower slices in block-column order.  The C-ordered slice k n_m + i
    # (k <= i) read in Fortran order is its transpose, lower block (i, k) by
    # symmetry, which the BLAS and LAPACK calls below update in place.
    cols = [k * n_m + i for k in range(n_m) for i in range(k, n_m)]
    L = [[None] * (i + 1) for i in range(n_m)]
    pairs = [a for c in col_sizes[:-1] for a in (c, c)]
    n_modes = len(col_sizes)
    order = [*range(0, 2 * n_modes, 2), *range(1, 2 * n_modes, 2)]
    core = _input_contraction(roots[0].T, roots[0], A)[cols]
    diag = np.empty(n_m * r)
    for t, rows, out in _khatri_rao_blocks(core, [g.T for g in roots[1:]], roots[1:]):
        if not np.isfinite(out).all():
            raise ValueError("capacitance has non-finite entries")
        k, i = divmod(cols[t], n_m)
        if rows.start == 0:
            L[i][k] = np.empty((r, r)).T
        block = out.reshape(*pairs, -1, col_sizes[-1]).transpose(order)
        L[i][k].T.reshape(*col_sizes, *col_sizes)[(*[slice(None)] * (n_modes - 1), rows)] = block
        if i < n_m - 1 or rows.stop < col_sizes[-1]:
            continue
        # block column k is built: update it by the factored columns, factor it
        L[k][k].T.reshape(-1)[:: r + 1] += 1.0
        for j in range(k):
            L[k][k] = dsyrk(-1.0, L[k][j], beta=1.0, c=L[k][k], lower=1, overwrite_c=1)
            for i in range(k + 1, n_m):
                L[i][k] = dgemm(
                    -1.0, L[i][j], L[k][j], beta=1.0, c=L[i][k], trans_b=1, overwrite_c=1
                )
        L[k][k], info = dpotrf(L[k][k], lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{k * r + info}-th leading minor of the capacitance is not positive definite"
            )
        diag[k * r : (k + 1) * r] = np.diagonal(L[k][k])
        half[k], _ = dtrtrs(L[k][k], half[k], lower=1, overwrite_b=1)
        for i in range(k + 1, n_m):
            L[i][k] = dtrsm(1.0, L[k][k], L[i][k], side=1, lower=1, trans_a=1, overwrite_b=1)
            half[i] -= L[i][k] @ half[k]
        L[k] = None
    half = half.ravel()
    return nll_base + 0.5 * (2.0 * float(np.sum(np.log(diag))) - float(half @ half))


def gar_nll_nonsubset(model: GarModel) -> float:
    """Exact marginal NLL of a fitted two-level model with unmatched points.

    Low-level NLL plus the corrected residual Gaussian whose covariance is
    inflated by the propagated imputation uncertainty; the residual data
    come from the fitted model.  Falls back to the plain subset objective
    when the plan is fully matched.  When the low and residual models both
    carry identity output covariances (the conditional-independent model,
    or any ``identity_outputs`` fit), the correction diagonalizes in input
    space for any W through ``_identity_output_objective``, the routine the
    fit's objective uses, from ``S_hat`` on the imputed rows with no padded
    copy, and only an N_h x N_h matrix and the weight factors are ever
    factorized.  For latent output covariances the NLL is
    a low-rank update of the residual's eigen-solvable covariance
    (``_corrected_nll_low_rank``): one left-looking block Cholesky of the
    Woodbury capacitance, whose size is the unmatched count ``n_m`` times
    the low output size ``r``, built in ``r x r`` lower blocks one block
    column at a time as it is factored, so that at most ``(k + 1)(n_m - k)``
    blocks are held at column k.  No output-sized dense covariance is built
    on either route.
    """
    if len(model.transitions) != 1:
        raise ValueError("non-subset evaluation covers a single transition")
    trans = model.transitions[0]
    low_part = tgp_nll(model.low)
    res = trans.residual
    if trans.is_subset:
        return low_part + tgp_nll(res)
    if res.output_features is None:
        value, _, _ = _identity_output_objective(  # value pass only
            res, trans.weights, trans.workspace.s_hat, trans.plan.n_matched
        )
        return low_part + value
    return low_part + _corrected_nll_low_rank(trans, model.low)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _fold_weights(facs: list, chain: list) -> list:
    """Per-mode factors ``W^(n)_m .. W^(1)_m F_m`` for a chain of weights.

    ``chain`` lists the weights in the order they act.
    """
    out = []
    for m, f in enumerate(facs):
        for w in chain:
            f = w.factors[m] @ f
        out.append(f)
    return out


def _gamma_variance(trans: GarTransition, op_aug, op_res, downstream, out_shape):
    """Diagonal of the imputation-uncertainty term of the predictive variance.

    The term is the prediction mean's sensitivity to the imputed block
    (augmented-low path minus residual path, through every downstream
    weight) applied to a square root ``R_0 (x) R_1 (x) ..`` of the
    imputation covariance ``S_hat (x) S_low``, squared and summed over the
    root's columns, read off the paths' mean operators ``op_aug`` and
    ``op_res`` (``hogp._predict_parts``'s).  The roots are rotated into each
    path's eigenbasis once per mode (``g_k``), and the input mode is
    contracted first, once per path:
    ``B[s, c0, p..] = sum_i k_fac[s, i] g_0[i, c0] / A[i, p..]``.  Each
    output mode is then one Khatri-Rao factor ``E_k[(j, c), p] = f_k[j, p]
    g_k[p, c]`` with the two paths stacked along ``p``, against the
    block-diagonal core ``diag(B_aug, -B_res)``, so one Tucker product per
    (query, imputed row) gives the difference of the paths for every root
    column at once; its squares summed over the ``c`` axes are the term.
    The products are formed in bounded blocks (``_khatri_rao_blocks``), and
    no root column is built.

    With identity output covariances (on both paths: a chain has one kind)
    the term factorizes as ``gamma[s, j] = a[s] b[j]``: ``a = diag(delta
    S_hat delta^T)``, ``delta`` the difference of the two paths' operators
    ``k* G^-1`` on the imputed rows, and ``b`` the squared row norms of the
    composed weights ``D_m .. W_m`` per mode.  No root, no
    eigendecomposition and no output-sized product is formed there.
    """
    ws = trans.workspace
    aug = ws.aug_low
    res = trans.residual
    n_m = ws.s_hat.shape[0]
    n_low = aug.n_samples - n_m
    n_matched = trans.plan.n_matched

    if res.output_features is None:
        # k_* G^-1 on the imputed rows, augmented-low path minus residual path
        diff = op_aug[:, n_low:] - op_res[:, n_matched:]
        facs = _fold_weights(trans.weights.factors, downstream)
        a = np.einsum("ij,ij->i", diff @ ws.s_hat, diff)
        return kruskal_outer([a] + [np.sum(f * f, axis=1) for f in facs])

    # Prediction-mean operators (projected-basis form), with the weights the
    # path passes through folded into the per-mode output factors.
    k_fac_aug, *facs_aug = op_aug
    k_fac_res, *facs_res = op_res
    n_star = k_fac_aug.shape[0]
    facs_aug = _fold_weights(facs_aug, [trans.weights, *downstream])
    facs_res = _fold_weights(facs_res, downstream)
    roots = _imputation_roots(ws.s_hat, aug)
    eig_aug = aug.eigenfactors()
    A_aug = eig_aug.joint_values(aug.noise)
    eig_res = res.eigenfactors()
    A_res = eig_res.joint_values(res.noise)
    # Augmented-low path: the perturbation sits on the pseudo-observation
    # rows.  Residual path: the same perturbation enters the residual data
    # as minus its weight transform on the unmatched rows.
    rot_aug = _rotated_roots(eig_aug, roots, n_low)
    rot_res = _rotated_roots(eig_res, roots, n_matched, trans.weights)

    # One core per (query, imputed row) holding both paths side by side,
    # diag(B_aug, -B_res), against factors stacked along p: its Khatri-Rao
    # Tucker product is the aug-path minus the residual-path sensitivity.
    p_aug, p_res = A_aug.shape[1:], A_res.shape[1:]
    core = np.zeros((n_star * n_m, *(a + r for a, r in zip(p_aug, p_res))))
    core[(slice(None), *[slice(0, a) for a in p_aug])] = _input_contraction(
        k_fac_aug, rot_aug[0], A_aug
    )
    core[(slice(None), *[slice(a, None) for a in p_aug])] = -_input_contraction(
        k_fac_res, rot_res[0], A_res
    )
    fs = [np.hstack(pair) for pair in zip(facs_aug, facs_res)]
    gs = [np.vstack(pair) for pair in zip(rot_aug[1:], rot_res[1:])]
    col_sizes = [g.shape[1] for g in gs]
    pairs = [a for d, c in zip(out_shape[:-1], col_sizes[:-1]) for a in (d, c)]
    c_axes = tuple(range(1, len(pairs), 2))
    total = np.zeros((n_star, *out_shape))
    for b, rows, out in _khatri_rao_blocks(core, fs, gs):
        # squares summed over the last c axis, then over the others
        flat = out.reshape(-1, col_sizes[-1])
        sq = np.einsum("ij,ij->i", flat, flat).reshape(*pairs, -1)
        total[b // n_m, ..., rows] += sq.sum(axis=c_axes)
    return total


def gar_predict(model: GarModel, x_star) -> PosteriorField:
    """Predict the top-fidelity field at one input (or a batch).

    Means compose exactly through the chain; predictive covariances are
    carried as structured Kronecker terms that stay closed under the
    per-mode weight transforms, so the reported variance diagonal is exact
    at any depth.  Observation noise of the top level is added at the end.
    The imputation-variance terms read the mean operators of the mean pass.
    """
    if not model.transitions:
        return tgp_predict(model.low, x_star)
    Xs = np.atleast_2d(np.asarray(x_star, dtype=float))
    single = np.asarray(x_star).ndim == 1
    for i, trans in enumerate(model.transitions):
        ws = trans.workspace
        if i == 0 or ws is not None:
            # the bottom pair's base, or a non-subset pair's own augmented low
            base = model.low if ws is None else ws.aug_low
            mean, terms, op_aug = _predict_parts(base, Xs)
            mean = mean + base.offset
            gamma_jobs = []
        res = trans.residual
        res_mean, res_terms, op_res = _predict_parts(res, Xs)
        mean = trans.weights.apply(mean) + (res_mean + res.offset)
        terms = [t.sandwich(trans.weights.factors) for t in terms] + res_terms
        for job in gamma_jobs:
            job[-1].append(trans.weights)
        if ws is not None:
            gamma_jobs.append((trans, op_aug, op_res, []))

    var = sum(t.diag() for t in terms)
    for job in gamma_jobs:
        var = var + _gamma_variance(*job, res.mode_sizes)
    var = np.clip(var, 0.0, None) + res.noise
    if single:
        return PosteriorField(mean[0], var[0])
    return PosteriorField(mean, var)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

GAR_SCHEMA = "mfgar/gar-4"
GAR_KINDS = ("gar", "ar", "cigar")
_PLAN_FIELDS = ("matched_high", "matched_low", "unmatched_high")


def gar_to_dict(model: GarModel, dataset_ref: str | None = None) -> dict:
    """Self-describing JSON document: parameters, data and plans only.

    Non-subset workspaces are rebuilt on load, so a transition stores its
    weights, residual model and plan; a non-subset transition above the
    first also stores the standalone low model its imputation came from.
    """
    doc = {
        "schema": GAR_SCHEMA,
        "kind": model.kind,
        "low": tgp_to_dict(model.low),
        "transitions": [],
        "dataset_ref": dataset_ref,
    }
    for i, t in enumerate(model.transitions):
        entry = {
            "weights": [encode_array(f) for f in t.weights.factors],
            "residual": tgp_to_dict(t.residual),
            "plan": {name: encode_array(getattr(t.plan, name)) for name in _PLAN_FIELDS},
        }
        if i > 0 and t.workspace is not None:
            aug = t.workspace.aug_low
            n_low = aug.n_samples - t.plan.n_unmatched
            entry["low"] = tgp_to_dict(replace(aug, X=aug.X[:n_low], Y=aug.Y[:n_low]))
        doc["transitions"].append(entry)
    return doc


def _check_stored_transition(where: str, plan, residual, weights: list, level_low):
    """Refuse a stored plan or weights that do not fit the transition they load into.

    The plan must order every residual row exactly once and index rows of
    the pair's low level (``level_low``: the bottom model, or the residual
    of the transition below, which holds every row of that level); there
    must be one weight factor per residual mode, shaped (high size, low
    size).  Errors start with the field's path in the document.
    """
    n_rows = residual.n_samples
    if not np.array_equal(np.sort(plan.permutation), np.arange(n_rows)):
        raise ValueError(
            f"{where}plan: matched_high and unmatched_high must list each of the "
            f"{n_rows} residual rows once"
        )
    n_low = level_low.n_samples
    if plan.n_matched and not (plan.matched_low.min() >= 0 and plan.matched_low.max() < n_low):
        raise ValueError(f"{where}plan.matched_low: indices must lie in [0, {n_low})")
    n_modes = len(residual.mode_sizes)
    if len(weights) != n_modes:
        raise ValueError(f"{where}weights: {len(weights)} factors for {n_modes} residual modes")
    for m, shape in enumerate(zip(residual.mode_sizes, level_low.mode_sizes)):
        if weights[m].shape != shape:
            raise ValueError(f"{where}weights[{m}]: shape {weights[m].shape}, expected {shape}")


def gar_from_dict(doc: dict) -> GarModel:
    """Rebuild a model from :func:`gar_to_dict`'s document.

    A document loads as the ``GarModel`` subclass of its kind, so a
    ``cigar`` document becomes a ``CigarModel`` and its identity-output and
    orthonormal-weight constraints are checked on load.  A ``kind`` other
    than those of :data:`GAR_KINDS`, or a chain whose models mix identity
    and latent output covariances, raises ``ValueError``.
    """
    _check_schema(doc, GAR_SCHEMA)
    kind = doc.get("kind")
    if kind not in GAR_KINDS:
        raise ValueError(f"kind: unknown model kind {kind!r} (expected one of {GAR_KINDS})")
    low = _tgp_from_doc(_entry(doc, "low", ""), "low.")
    transitions = []
    level_low = low  # a model holding the pair's low level: sample count and output sizes
    for i, entry in enumerate(_entry(doc, "transitions", "", list)):
        where = f"transitions[{i}]."
        plan_doc = _entry(entry, "plan", where)
        plan = SubsetPlan(
            *(
                decode_array(_entry(plan_doc, name, where + "plan."), f"{where}plan.{name}", "<i8")
                for name in _PLAN_FIELDS
            )
        )
        residual = _tgp_from_doc(_entry(entry, "residual", where), where + "residual.")
        weights = _entry(entry, "weights", where, list)
        weights = [decode_array(f, f"{where}weights[{m}]") for m, f in enumerate(weights)]
        _check_stored_transition(where, plan, residual, weights, level_low)
        workspace = None
        if not plan.fully_matched:
            pair_low = low if i == 0 else _tgp_from_doc(_entry(entry, "low", where), where + "low.")
            workspace = _nonsubset_workspace(pair_low, residual.X[plan.n_matched :])
        transitions.append(
            GarTransition(
                weights=TuckerWeights(weights),
                residual=residual,
                plan=plan,
                workspace=workspace,
            )
        )
        level_low = residual
    model_cls = next((c for c in GarModel.__subclasses__() if c.kind == kind), GarModel)
    return model_cls(low=low, transitions=transitions, kind=kind)


def save_gar(model: GarModel, path, dataset_ref: str | None = None):
    with open(path, "w") as fh:
        fh.write(json.dumps(gar_to_dict(model, dataset_ref)))


def load_gar(path) -> GarModel:
    with open(path) as fh:
        return gar_from_dict(json.load(fh))
