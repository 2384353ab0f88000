"""Single-fidelity tensor-variate GP: Kronecker NLL, fitting, prediction.

The model for an output tensor ``Y`` of shape ``(N, d_1, .., d_M)`` over
inputs ``X`` is

    vec(Y - offset) ~ N(0,  K(X, X) (x) S_1 (x) .. (x) S_M  +  noise * I)

with an ARD input kernel ``K``, per-mode output covariances ``S_m`` either
built from latent coordinate features or all fixed to the identity, and
additive observation noise on the full joint covariance.  The dense joint
matrix is never built.  Each of the two covariance classes has one NLL
route (``_nll_core`` dispatches on the class):

- *Latent outputs* run through the factor eigendecompositions: with ``K =
  U diag(lam) U^T`` and ``S_m = U_m diag(lam_m) U_m^T``, the joint
  eigenvalues are the Kruskal tensor ``A = lam o lam_1 o .. o lam_M +
  noise`` and every solve is a Tucker rotation, an elementwise divide by
  ``A``, and a rotation back (``_eigen_core``).
- *Identity outputs*, ``(K + noise I) (x) I``, run in input space
  (``_input_space_core``): the covariance sees the data only through the
  N x N Gram ``Y_(0) Y_(0)^T`` of its sample-mode unfolding, so an
  evaluation is one Cholesky of ``K + noise I`` (``_input_factor``, which
  every input-space solve reads) and a few N x N products, and a fit whose
  data is fixed builds that Gram once.  Only the data adjoint ``Sigma^-1
  r`` that a stage-2 fit needs for its weight gradient is output-sized.

Gradients of the NLL are hand-derived adjoints (the eigen route's need
eigenvalues and rotations only, never eigenvector derivatives, so they stay
stable under repeated eigenvalues).  An evaluation is a value pass plus an
adjoint pass over the same arrays (see ``_nll_core``).  On the eigen route
the value pass factorizes and makes the one data solve, ``_solve``: it
projects the data once, ``At = project(Yc) / A`` (M+1 mode products), and
the quadratic form and log-determinant are read off ``At`` and ``A``.  The
same solve gives the latent model's predictive mean and the base of the
latent non-subset NLL.  Identity-output prediction stays in input space too:
``_input_factor`` gives ``k* G^-1``, the mean and the one variance term
(``_predict_parts``).  The adjoint pass stays in the joint
eigenbasis: the adjoint of factor k is ``1/2 U_k (diag(c_k) - Q_k) U_k^T``
with ``c_k`` the sum of ``lam_{-k} / A`` over the other axes and ``Q_k =
At_(k) diag(lam_{-k}) At_(k)^T``, where ``lam_{-k}`` is the outer product of
the other factors' eigenvalues.  Each kernel Gram is built once per
evaluation, by the value pass; the pull-back of its adjoint to the kernel
parameters and latent rows reuses the pairwise differences and scaled
distances it was built from.  The fit's objective
returns the value and defers the adjoint pass, which the optimizer runs
only at points it accepts.  Finite differences are used solely as the
test-side audit.

A model's kernel Grams have one order, :func:`_kernel_rows`: the input
kernel over ``X`` first, then (latent outputs only) each output mode's
kernel over its latent coordinates.  The value pass builds the Grams in
that order, the adjoint pass returns their adjoints in it, and a fit's
parameter vector (``_TgpPack``) walks it by position.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import kernels
from .kernels import (
    ArdKernelParams,
    LatentFeatures,
    ard_gram,
    ard_gram_adjoint,
)
from .optim import OptimConfig, minimize
from .tensalg import EigenFactors, as_float, kruskal_outer, tucker_apply

# Noise variances are floored here; RBF Grams over clustered inputs are
# near-singular and the floor is what keeps joint eigenvalues invertible.
JITTER = 1e-6
_LOG_JITTER = float(np.log(JITTER))

LOG2PI = float(np.log(2.0 * np.pi))


@dataclass
class PosteriorField:
    """Predictive mean tensor and per-entry variance tensor (same shape)."""

    mean: np.ndarray
    variance_diag: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.variance_diag = np.asarray(self.variance_diag, dtype=float)
        if self.mean.shape != self.variance_diag.shape:
            raise ValueError("mean and variance_diag shapes differ")


@dataclass
class TgpModel:
    """One fidelity level of the tensor-variate GP.

    Instances are treated as immutable once constructed (fitting builds fresh
    candidates), which makes the cached eigendecomposition safe; construct a
    new model rather than mutating parameters in place.  The cache is not an
    ``__init__`` field, so ``dataclasses.replace`` starts every copy without
    one.
    ``output_features=None`` fixes every ``S_m`` to the identity, in which
    case no output-mode covariance is ever allocated or factorized, and
    neither the likelihood nor prediction factorizes an eigenbasis: both run
    in input space, and such a model has no ``eigenfactors``.
    """

    input_kernel: ArdKernelParams
    output_features: LatentFeatures | None
    log_noise: float
    X: np.ndarray
    Y: np.ndarray
    offset: np.ndarray | None = None
    _eig: EigenFactors | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X = as_float(self.X, 2)
        self.Y = as_float(self.Y)
        if self.Y.ndim == 1:
            self.Y = self.Y[:, None]
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("Y: first mode must equal the number of input rows")
        if self.output_features is not None:
            if self.output_features.mode_sizes != self.mode_sizes:
                raise ValueError("output_features: mode sizes do not match Y")
        if not np.isfinite(self.log_noise):
            raise ValueError(f"log_noise must be finite, got {self.log_noise!r}")
        self.log_noise = float(max(self.log_noise, _LOG_JITTER))
        if self.offset is None:
            self.offset = np.zeros(self.mode_sizes)
        else:
            self.offset = as_float(self.offset)
        if self.offset.shape != self.mode_sizes:
            raise ValueError(f"offset: shape {self.offset.shape}, expected {self.mode_sizes}")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def mode_sizes(self) -> tuple:
        return self.Y.shape[1:]

    @property
    def output_size(self) -> int:
        return math.prod(self.mode_sizes)

    @property
    def noise(self) -> float:
        return float(np.exp(self.log_noise))

    @property
    def centered(self) -> np.ndarray:
        return self.Y - self.offset

    def eigenfactors(self, grams=None) -> EigenFactors:
        """Eigendecompositions of the input Gram and every output factor, made on first use.

        ``grams``, this model's :func:`_gram_parts`, are factorized when
        given; otherwise they are built here.  Latent output covariances only.
        """
        if self.output_features is None:
            raise ValueError("no eigenbasis: identity output covariances are solved in input space")
        if self._eig is None:
            if grams is None:
                grams = _gram_parts(self)
            self._eig = EigenFactors.from_matrices([K for _, _, K in grams])
        return self._eig


def _kernel_rows(model: TgpModel) -> list:
    """``(kernel, rows)`` of every kernel Gram of ``model``: the input kernel
    over ``X`` first, then (latent outputs only) each output mode's kernel
    over its coordinates."""
    rows = [(model.input_kernel, model.X)]
    if model.output_features is not None:
        rows += zip(model.output_features.kernels, model.output_features.coords)
    return rows


def _gram_parts(model: TgpModel) -> list:
    """``ard_gram_parts`` of every Gram of :func:`_kernel_rows`, one build each."""
    return [kernels.ard_gram_parts(kern, rows, rows) for kern, rows in _kernel_rows(model)]


# ---------------------------------------------------------------------------
# Negative log marginal likelihood and its adjoints
# ---------------------------------------------------------------------------


def tgp_nll(model: TgpModel) -> float:
    """Negative log marginal likelihood, including the (Nd/2) log(2 pi) term.

    The value pass of :func:`_nll_core`, on the route of the model's
    covariance class.
    """
    return _nll_core(model)[0]


def _solve(model: TgpModel):
    """The data solve in the joint eigenbasis, ``(eigs, A, T1, At)``.

    ``eigs`` is the model's eigenbasis, ``A`` the joint eigenvalues, ``T1 =
    project(Y - offset)`` and ``At = T1 / A``, so ``unproject(At)`` is
    ``Sigma^{-1} vec(Y - offset)``.  The latent-output likelihood and
    prediction read this one solve.
    """
    eigs = model.eigenfactors()
    A = eigs.joint_values(model.noise)
    T1 = eigs.project(model.centered)
    return eigs, A, T1, T1 / A


def _nll_value(model: TgpModel):
    """``(nll, solve)``: the NLL read off :func:`_solve`'s arrays, and the solve.

    The latent-output NLL; identity outputs have :func:`_input_space_core`.
    """
    solve = _solve(model)
    _, A, T1, At = solve
    quad = float(np.sum(T1 * At))
    logdet = float(np.sum(np.log(A)))
    return 0.5 * (quad + logdet + A.size * LOG2PI), solve


def _nll_core(model: TgpModel, data_gram=None):
    """NLL by the value pass, the Gram parts it built, and the adjoint pass as a callable.

    Returns ``(nll, grams, adjoint)`` on the route of the model's covariance
    class: :func:`_input_space_core` for identity output covariances (where
    ``data_gram`` applies), :func:`_eigen_core` for latent ones.  The value
    pass builds each kernel Gram once (``grams``, from :func:`_gram_parts`,
    which :meth:`_TgpPack.chain` pulls the Gram adjoints back through).
    ``adjoint()`` runs the adjoint pass on the same arrays and returns
    ``(gbars, d_noise, alpha)``: ``gbars[k]`` is the matrix pairing with an
    unconstrained perturbation of Gram k (in :func:`_kernel_rows` order),
    ``d_noise`` the noise-variance partial, and ``alpha()`` the data adjoint
    ``Sigma^{-1} vec(Yc)`` in the data's tensor shape, formed only when
    called (a stage-2 fit calls it, a plain fit does not).  A caller that
    needs the value only never pays for the adjoints.  Every evaluation
    allocates its own arrays, so ``grams``, ``adjoint`` and ``alpha()`` stay
    valid however many evaluations follow.
    """
    if model.output_features is None:
        return _input_space_core(model, data_gram)
    return _eigen_core(model)


def _eigen_core(model: TgpModel):
    """:func:`_nll_core` for latent output covariances, in the joint eigenbasis.

    The value pass factorizes the Grams (``eigenfactors``) and reads the NLL
    off the data solve :func:`_solve` (:func:`_nll_value`).  For a
    perturbation ``dF`` of factor k the NLL differential is ``<gbar[k],
    dF>`` with

        gbar[k] = 1/2 U_k (diag(c_k) - Q_k) U_k^T,
        c_k = sum_{axes != k} lam_{-k} / A,
        Q_k = At_(k) diag(lam_{-k}) At_(k)^T,

    where ``lam_{-k}`` is the outer product of every factor's eigenvalues but
    factor k's.  Each other factor ``U_j diag(lam_j) U_j^T`` acts on the
    rotated data as its eigenvalues alone because ``U_j`` is orthogonal, so
    this is exact and needs no dense factor and no rotation back; only
    ``alpha()`` rotates the solve ``At`` back (``unproject``).
    """
    grams = _gram_parts(model)
    model.eigenfactors(grams)
    nll, (eigs, A, _, At) = _nll_value(model)

    def adjoint():
        inv_A = 1.0 / A
        gbars = []
        for k, U in enumerate(eigs.vectors):
            # trace part: 1/A contracted with every other factor's eigenvalues
            c = inv_A
            for j in range(len(eigs.values) - 1, -1, -1):
                if j != k:
                    c = np.tensordot(c, eigs.values[j], axes=([j], [0]))
            # quadratic part: the mode-k unfolding of At against itself,
            # weighted by the other factors' eigenvalues
            lam_other = kruskal_outer([v for j, v in enumerate(eigs.values) if j != k])
            Ak = np.moveaxis(At, k, 0).reshape(At.shape[k], -1)
            Q = (Ak * lam_other.ravel()) @ Ak.T
            gbars.append(0.5 * ((U * c) @ U.T - U @ Q @ U.T))

        d_noise = 0.5 * (float(np.sum(inv_A)) - float(np.sum(At * At)))
        return gbars, d_noise, lambda: eigs.unproject(At)

    return nll, grams, adjoint


def _input_factor(model: TgpModel, K: np.ndarray | None = None):
    """``(L^-1, log|G|)`` for ``G = K + noise I = L L^T``: every input-space solve reads it.

    ``K``, the model's input Gram, is built here unless given.  A non-finite
    ``G`` raises ``ValueError`` (LAPACK would factor it into NaN entries
    without an error), one not positive definite ``LinAlgError``.  ``L^-1``
    is numpy's ``inv`` of the Cholesky triangle: a general inverse, within
    rounding of the triangular ``trtri`` (3e-16 relative at N <= 32).
    """
    if K is None:
        K = ard_gram(model.input_kernel, model.X, model.X)
    G = K + model.noise * np.eye(model.n_samples)
    if not np.isfinite(G).all():
        raise ValueError("input-space solve: non-finite Gram")
    L = np.linalg.cholesky(G)
    return np.linalg.inv(L), 2.0 * float(np.log(L.diagonal()).sum())


def _input_space_core(model: TgpModel, data_gram=None):
    """:func:`_nll_core` for identity output covariances, ``(K + noise I) (x) I``.

    Such a covariance sees the data only through the N x N Gram ``C = Y_(0)
    Y_(0)^T`` of its centered sample-mode unfolding ``Y_(0)`` (N x d):
    ``data_gram`` when the caller holds it (a fit whose data is fixed builds
    it once), else built here.  With ``G = K + noise I = L L^T``,

        NLL = 1/2 (tr(G^-1 C) + d log|G| + N d log(2 pi)),
        gbar_0 = 1/2 (d G^-1 - G^-1 C G^-1),   d_noise = tr(gbar_0),
        alpha = G^-1 Y_(0)

    (the shared-kernel multi-output GP; Rasmussen and Williams 2006, §5.4.1,
    applied to each output column).  The value pass is :func:`_input_factor`
    of the Gram it built, ``G^-1 = L^-T L^-1`` and ``G^-1 C``, the adjoint
    pass one more product, all N x N; only ``alpha()`` touches output-sized
    data, one N x N by N x d product.  A non-finite Gram
    raises ``ValueError`` and a ``G`` that is not positive definite
    ``LinAlgError``.
    """
    grams = _gram_parts(model)
    n, d = model.n_samples, model.output_size
    Yc = None
    if data_gram is None:
        Yc = model.centered.reshape(n, d)
        data_gram = Yc @ Yc.T
    if not np.isfinite(data_gram).all():
        raise ValueError("input-space NLL: non-finite Gram")
    l_inv, logdet = _input_factor(model, grams[0][2])
    g_inv = l_inv.T @ l_inv
    solved = g_inv @ data_gram  # G^-1 C
    nll = 0.5 * (float(np.trace(solved)) + d * logdet + n * d * LOG2PI)

    def adjoint():
        gbar = 0.5 * (d * g_inv - solved @ g_inv)  # G^-1 C G^-1

        def alpha():
            data = model.centered.reshape(n, d) if Yc is None else Yc
            return (g_inv @ data).reshape(model.Y.shape)

        return [gbar], float(np.trace(gbar)), alpha

    return nll, grams, adjoint


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Settings for a single TGP fit (and reused by the fusion models)."""

    optim: OptimConfig = OptimConfig()
    identity_outputs: bool = False


class _TgpPack:
    """Flat-vector packing of all trainable TGP parameters of ``template``.

    The vector walks :func:`_kernel_rows` by position: for each Gram the log
    amplitude and log lengthscales, then, for a latent output mode, its
    coordinate rows unless ``freeze_coords`` holds them at the template's
    values (a fusion residual that shares the low level's coordinates); the
    log noise comes last.
    """

    def __init__(self, template: TgpModel, freeze_coords: bool = False):
        self.template = template
        self.freeze_coords = freeze_coords
        self.size = self.pack().size

    def _trains_rows(self, k: int) -> bool:
        """Whether Gram k's rows are in the vector: latent coordinates, unless frozen."""
        return k > 0 and not self.freeze_coords

    def pack(self) -> np.ndarray:
        t = self.template
        parts = []
        for k, (kern, rows) in enumerate(_kernel_rows(t)):
            parts += [[kern.log_amplitude], kern.log_lengthscales]
            if self._trains_rows(k):
                parts.append(rows.ravel())
        return np.concatenate(parts + [[t.log_noise]])

    def unpack(self, p: np.ndarray, Y: np.ndarray | None = None) -> TgpModel:
        """The model at ``p``; ``Y``, when given, replaces the template's outputs."""
        t = self.template
        kerns, coords, i = [], [], 0
        for k, (kern, rows) in enumerate(_kernel_rows(t)):
            n = kern.n_params
            kerns.append(ArdKernelParams(p[i], p[i + 1 : i + n]))
            i += n
            if self._trains_rows(k):
                coords.append(p[i : i + rows.size].reshape(rows.shape))
                i += rows.size
            elif k > 0:
                coords.append(rows.copy())
        feats = None if t.output_features is None else LatentFeatures(coords, kerns[1:])
        Y = t.Y if Y is None else Y
        return replace(t, input_kernel=kerns[0], output_features=feats, log_noise=float(p[i]), Y=Y)

    def chain(self, model: TgpModel, grams, gbars, d_noise: float) -> np.ndarray:
        """Gradient of the NLL at ``model`` from the covariance adjoints.

        ``grams`` are the value pass's Gram parts (:func:`_gram_parts`) and
        ``gbars`` their adjoints, both in :func:`_kernel_rows` order;
        ``d_noise`` is the partial with respect to the noise variance.  No
        Gram is rebuilt.
        """
        g = []
        for k, ((kern, _), parts, gbar) in enumerate(zip(_kernel_rows(model), grams, gbars)):
            g_kern, g_rows = ard_gram_adjoint(kern, parts, gbar, rows=self._trains_rows(k))
            g += [g_kern] if g_rows is None else [g_kern, g_rows.ravel()]
        return np.concatenate(g + [[d_noise * model.noise]])

    @cached_property
    def data_gram(self) -> np.ndarray:
        """``Y_(0) Y_(0)^T`` of the template's centered data, which is every
        identity-output evaluation's view of it (:func:`_input_space_core`)."""
        Yc = self.template.centered.reshape(self.template.n_samples, -1)
        return Yc @ Yc.T

    def objective(self, p: np.ndarray):
        """``(value, gradient)`` at ``p`` (the protocol of ``optim``); ``(inf, 0)``,
        which the optimizer backtracks from, where a factorization fails or the
        value is not finite.  A non-finite gradient is the optimizer's to reject."""
        model = self.unpack(p)
        try:
            gram = self.data_gram if model.output_features is None else None
            nll, grams, adjoint = _nll_core(model, gram)
        except (np.linalg.LinAlgError, ValueError):
            return _rejected(self.size)
        return _scored(nll, lambda: self.chain(model, grams, *adjoint()[:2]), self.size)


def _rejected(size: int):
    """The score of a point the optimizer must backtrack from: ``(inf, 0)``."""
    return np.inf, lambda: np.zeros(size)


def _scored(value: float, gradient, size: int):
    """``(value, gradient)`` when the value is finite, else :func:`_rejected`."""
    return (value, gradient) if np.isfinite(value) else _rejected(size)


def _initial_model(X, Y, var: float, features, offset=None) -> TgpModel:
    """A fit's starting model, scaled to the variance ``var`` of its centered data.

    The input kernel's amplitude is ``var`` and its lengthscales the span of
    ``X``; the noise is ``1e-2 var + JITTER``.  ``var`` is floored at 1e-8.
    """
    var = max(var, 1e-8)
    span = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-3)
    return TgpModel(
        input_kernel=ArdKernelParams(np.log(var), np.log(span)),
        output_features=features,
        log_noise=np.log(1e-2 * var + JITTER),
        X=X,
        Y=Y,
        offset=offset,
    )


def tgp_fit(X, Y, config: FitConfig = FitConfig()):
    """Fit a TGP by maximum likelihood.

    Outputs are centered per entry before fitting (and un-centered at
    prediction); hyperparameters, latent features and noise are optimized
    jointly in unconstrained coordinates.
    Returns ``(model, trace)``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    for name, a in (("X", X), ("Y", Y)):
        if a.shape[0] == 0:
            raise ValueError(f"tgp_fit: {name} has no samples")
    offset = Y.mean(axis=0)
    feats = None
    if not config.identity_outputs:
        feats = LatentFeatures.initialize(Y.shape[1:], seed=config.optim.seed)
    init = _initial_model(X, Y, float((Y - offset).var()), feats, offset)
    pack = _TgpPack(init)
    p_opt, trace = minimize(pack.objective, pack.pack(), config.optim)
    return pack.unpack(p_opt), trace


# ---------------------------------------------------------------------------
# Prediction: exact conditional, on each covariance class's route
# ---------------------------------------------------------------------------


@dataclass
class KronPsd:
    """Variance term ``scale_q * (S_1 (x) .. (x) S_M)`` per query point q."""

    scale: np.ndarray
    mats: list

    def diag(self) -> np.ndarray:
        return np.multiply.outer(self.scale, kruskal_outer([np.diag(m) for m in self.mats]))

    def sandwich(self, weights) -> "KronPsd":
        return KronPsd(self.scale, [W @ S @ W.T for W, S in zip(weights, self.mats)])


@dataclass
class KronSq:
    """Variance term ``sign * F diag(weights) F^T`` with Kronecker-factored F.

    ``q_factor`` holds the per-query first-factor rows. Only the diagonal is
    ever materialized.
    """

    sign: float
    q_factor: np.ndarray
    factors: list
    weights: np.ndarray

    def diag(self) -> np.ndarray:
        sq = [self.q_factor**2] + [F**2 for F in self.factors]
        return self.sign * tucker_apply(self.weights, sq)

    def sandwich(self, weights) -> "KronSq":
        factors = [W @ F for W, F in zip(weights, self.factors)]
        return KronSq(self.sign, self.q_factor, factors, self.weights)


def _mean_factors(model: TgpModel, k_star: np.ndarray):
    """Factors producing the conditional mean from the projected data tensor."""
    eigs = model.eigenfactors()
    U0 = eigs.vectors[0]
    return [k_star @ U0] + [U * lam for U, lam in zip(eigs.vectors[1:], eigs.values[1:])]


def _predict_parts(model: TgpModel, x_star: np.ndarray):
    """Batched conditional mean (without offset), noise-free variance terms and mean operator.

    Identity output covariances are predicted in input space from
    :func:`_input_factor`: with ``h = k* L^-T`` the operator is ``k* G^-1 =
    h L^-1``, the mean ``k* G^-1 Y_(0)`` and the variance the single term
    ``(amp - diag(k* G^-1 k*^T)) (x) I``, read off the row sums of ``h * h``
    (Rasmussen and Williams 2006, Algorithm 2.1).  For latent ones the
    operator :func:`_mean_factors` applies to the data solve ``At``, and the
    exact conditional covariance is ``k** (x) S - B B^T`` with ``B = (k* U
    (x) U_1 L_1 (x) ..) (A)^{-1/2}``.  Both kinds of term stay closed under
    per-mode sandwiching, which is what the fidelity recursion needs.
    """
    Xs = np.atleast_2d(np.asarray(x_star, dtype=float))
    amp = np.full(Xs.shape[0], model.input_kernel.amplitude)
    sizes = model.mode_sizes
    k_star = ard_gram(model.input_kernel, Xs, model.X)
    if model.output_features is None:
        l_inv, _ = _input_factor(model)
        h = k_star @ l_inv.T
        op = h @ l_inv
        mean = (op @ model.centered.reshape(model.n_samples, -1)).reshape(-1, *sizes)
        prior = KronPsd(amp - np.einsum("ij,ij->i", h, h), [np.eye(s) for s in sizes])
        return mean, [prior], op
    eigs, A, _, At = _solve(model)
    op = _mean_factors(model, k_star)
    prior = KronPsd(amp, [eigs.reconstruct(k) for k in range(1, len(eigs.vectors))])
    return tucker_apply(At, op), [prior, KronSq(-1.0, op[0], op[1:], 1.0 / A)], op


def tgp_predict(model: TgpModel, x_star) -> PosteriorField:
    """Exact conditional prediction at one input (or a batch of inputs).

    The mean is the conditional mean of the joint Gaussian; the variance
    tensor is the conditional diagonal plus observation noise, clamped at
    zero after the subtraction.
    """
    x_star = np.asarray(x_star, dtype=float)
    single = x_star.ndim == 1
    mean, terms, _ = _predict_parts(model, x_star)
    var = sum(t.diag() for t in terms)
    var = np.clip(var, 0.0, None) + model.noise
    mean = mean + model.offset
    if single:
        return PosteriorField(mean[0], var[0])
    return PosteriorField(mean, var)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

TGP_SCHEMA = "mfgar/tgp-3"

# Every ndarray in a bundle is one payload: its little-endian bytes in
# base64 with dtype and shape, so a load returns the saved bits exactly.
_PAYLOAD_DTYPES = {"<f8": np.float64, "<i8": np.int64}


def encode_array(a) -> dict:
    """Payload of a float or integer array: dtype, shape, base64 bytes."""
    a = np.asarray(a)
    dtype = "<i8" if np.issubdtype(a.dtype, np.integer) else "<f8"
    data = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(a.shape), "data": base64.b64encode(data).decode("ascii")}


def decode_array(payload, name: str, expect: str | None = None) -> np.ndarray:
    """Array of an :func:`encode_array` payload; errors start with ``name``.

    Only ``<f8`` and ``<i8`` payloads whose byte count matches the shape
    load, and a float payload must be finite.  ``expect``, when given, is
    the only dtype accepted (``"<i8"`` for index arrays, so that a float
    index is refused rather than truncated).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{name}: expected an array payload, got {type(payload).__name__}")
    dtype = payload.get("dtype")
    if dtype not in _PAYLOAD_DTYPES:
        raise ValueError(f"{name}: unsupported dtype {dtype!r} (expected '<f8' or '<i8')")
    if expect is not None and dtype != expect:
        raise ValueError(f"{name}: dtype {dtype!r}, expected {expect!r}")
    shape = payload.get("shape")
    if not isinstance(shape, list) or not all(isinstance(d, int) and d >= 0 for d in shape):
        raise ValueError(f"{name}: shape must be a list of non-negative ints, got {shape!r}")
    try:
        raw = base64.b64decode(payload.get("data", ""), validate=True)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: data is not base64 ({err})") from None
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ValueError(f"{name}: {len(raw)} bytes of data, shape {shape} needs {expected}")
    # astype copies: the buffer view is read-only, the model's arrays are not
    arr = np.frombuffer(raw, dtype=dtype).astype(_PAYLOAD_DTYPES[dtype]).reshape(shape)
    if dtype == "<f8" and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite values")
    return arr


def _entry(doc, key: str, where: str, kind: type = object):
    """``doc[key]`` of the bundle object at path ``where`` ("" at the top, else ending in ".").

    A ``doc`` that is no JSON object, a missing ``key`` or a value that is
    not a ``kind`` raises ``ValueError`` starting with the path, as
    :func:`decode_array`'s errors do.
    """
    if not isinstance(doc, dict):
        name = where[:-1] or "bundle"
        raise ValueError(f"{name}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where}{key}: missing")
    if not isinstance(doc[key], kind):
        raise ValueError(f"{where}{key}: expected a {kind.__name__}, got {type(doc[key]).__name__}")
    return doc[key]


def _finite_entry(doc, key: str, where: str):
    """:func:`_entry` for a scalar parameter: a finite JSON number."""
    value = _entry(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{where}{key}: expected a finite number, got {value!r}")
    return value


def _check_schema(doc, schema: str, where: str = ""):
    found = _entry(doc, "schema", where)
    if found != schema:
        raise ValueError(f"{where}schema: unsupported model schema {found!r} (expected {schema!r})")


def tgp_to_dict(model: TgpModel, dataset_ref: str | None = None) -> dict:
    """Self-describing JSON document for a fitted model."""
    doc = {
        "schema": TGP_SCHEMA,
        "input_kernel": {
            "log_amplitude": model.input_kernel.log_amplitude,
            "log_lengthscales": encode_array(model.input_kernel.log_lengthscales),
        },
        "log_noise": model.log_noise,
        "X": encode_array(model.X),
        "Y": encode_array(model.Y),
        "offset": encode_array(model.offset),
        "dataset_ref": dataset_ref,
    }
    if model.output_features is None:
        doc["output_features"] = None
    else:
        doc["output_features"] = [
            {
                "coords": encode_array(V),
                "log_amplitude": k.log_amplitude,
                "log_lengthscales": encode_array(k.log_lengthscales),
            }
            for V, k in zip(model.output_features.coords, model.output_features.kernels)
        ]
    return doc


def tgp_from_dict(doc: dict) -> TgpModel:
    """Rebuild a model from :func:`tgp_to_dict`'s document."""
    return _tgp_from_doc(doc, "")


def _tgp_from_doc(doc: dict, prefix: str) -> TgpModel:
    """:func:`tgp_from_dict` with ``prefix`` (the document's path inside an
    enclosing bundle, ending in ".") put before the field names in errors."""
    _check_schema(doc, TGP_SCHEMA, prefix)

    def kernel(node, where):
        ls = decode_array(_entry(node, "log_lengthscales", where), where + "log_lengthscales")
        return ArdKernelParams(_finite_entry(node, "log_amplitude", where), ls)

    feats = None
    if _entry(doc, "output_features", prefix) is not None:
        coords, kerns = [], []
        for m, f in enumerate(_entry(doc, "output_features", prefix, list)):
            where = f"{prefix}output_features[{m}]."
            coords.append(decode_array(_entry(f, "coords", where), where + "coords"))
            kerns.append(kernel(f, where))
        feats = LatentFeatures(coords, kerns)
    fields = {
        name: decode_array(_entry(doc, name, prefix), prefix + name)
        for name in ("X", "Y", "offset")
    }
    fields["input_kernel"] = kernel(_entry(doc, "input_kernel", prefix), prefix + "input_kernel.")
    fields["log_noise"] = _finite_entry(doc, "log_noise", prefix)
    try:
        return TgpModel(output_features=feats, **fields)
    except ValueError as err:
        # the model's checks name the field first; the document's path goes before it
        raise ValueError(f"{prefix}{err}") from None


def save_tgp(model: TgpModel, path, dataset_ref: str | None = None):
    with open(path, "w") as fh:
        fh.write(json.dumps(tgp_to_dict(model, dataset_ref)))


def load_tgp(path) -> TgpModel:
    with open(path) as fh:
        return tgp_from_dict(json.load(fh))
