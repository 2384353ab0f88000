"""Single-fidelity tensor-variate GP: Kronecker NLL, fitting, prediction.

The model for an output tensor ``Y`` of shape ``(N, d_1, .., d_M)`` over
inputs ``X`` is

    vec(Y - offset) ~ N(0,  K(X, X) (x) S_1 (x) .. (x) S_M  +  noise * I)

with an ARD input kernel ``K``, per-mode output covariances ``S_m`` built
from latent coordinate features, and additive observation noise on the full
joint covariance.  All likelihood and posterior linear algebra runs through
the factor eigendecompositions (never the dense joint matrix): with
``K = U diag(lam) U^T`` and ``S_m = U_m diag(lam_m) U_m^T``, the joint
eigenvalues are the Kruskal tensor ``A = lam o lam_1 o .. o lam_M + noise``
and every solve is a Tucker rotation, an elementwise divide by ``A``, and a
rotation back.

Gradients of the NLL are hand-derived adjoints through this pipeline (they
need eigenvalues and rotations only, never eigenvector derivatives, so they
stay stable under repeated eigenvalues).  One evaluation projects the data
once, ``At = project(Yc) / A``, and stays in the joint eigenbasis: the
adjoint of factor k is ``1/2 U_k (diag(c_k) - Q_k) U_k^T`` with ``c_k`` the
sum of ``lam_{-k} / A`` over the other axes and ``Q_k = At_(k)
diag(lam_{-k}) At_(k)^T``, where ``lam_{-k}`` is the outer product of the
other factors' eigenvalues (see ``_nll_core``).  That is M+1 mode products
per evaluation, and each kernel Gram is rebuilt once for its pull-back.
Finite differences are used solely as the test-side audit.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (
    ArdKernelParams,
    LaplacePrior,
    LatentFeatures,
    ard_gram,
    ard_gram_adjoint,
    laplace_log_prior,
    laplace_log_prior_grad,
    output_cov,
)
from .optim import OptimConfig, minimize
from .tensalg import EigenFactors, kron_quad_and_logdet, kruskal_outer, tucker_apply

# Noise variances are floored here; RBF Grams over clustered inputs are
# near-singular and the floor is what keeps joint eigenvalues invertible.
JITTER = 1e-6

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
    new model rather than mutating parameters in place.
    ``output_features=None`` fixes every ``S_m`` to the identity, in which
    case no output-mode covariance is ever allocated or factorized.
    """

    input_kernel: ArdKernelParams
    output_features: LatentFeatures | None
    log_noise: float
    X: np.ndarray
    Y: np.ndarray
    offset: np.ndarray | None = None
    _eig: EigenFactors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.asarray(self.Y, dtype=float)
        if self.Y.ndim == 1:
            self.Y = self.Y[:, None]
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("first mode of Y must equal the number of input rows")
        if self.output_features is not None:
            if self.output_features.mode_sizes != self.Y.shape[1:]:
                raise ValueError("latent feature mode sizes do not match Y")
        self.log_noise = float(max(self.log_noise, np.log(JITTER)))
        if self.offset is None:
            self.offset = np.zeros(self.Y.shape[1:])
        else:
            self.offset = np.asarray(self.offset, dtype=float)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def mode_sizes(self) -> tuple:
        return self.Y.shape[1:]

    @property
    def output_size(self) -> int:
        return int(np.prod(self.mode_sizes))

    @property
    def noise(self) -> float:
        return float(np.exp(self.log_noise))

    @property
    def centered(self) -> np.ndarray:
        return self.Y - self.offset

    def output_covs(self):
        """Per-mode output covariances; ints mark identity factors."""
        if self.output_features is None:
            return [int(d) for d in self.mode_sizes]
        return [output_cov(self.output_features, m) for m in range(len(self.mode_sizes))]

    def eigenfactors(self) -> EigenFactors:
        if self._eig is None:
            gram = ard_gram(self.input_kernel, self.X, self.X)
            self._eig = EigenFactors.from_matrices([gram] + self.output_covs())
        return self._eig


# ---------------------------------------------------------------------------
# Negative log marginal likelihood and its adjoints
# ---------------------------------------------------------------------------


def tgp_nll(model: TgpModel) -> float:
    """Negative log marginal likelihood, including the (Nd/2) log(2 pi) term."""
    eigs = model.eigenfactors()
    quad, logdet = kron_quad_and_logdet(eigs, model.noise, model.centered)
    n_total = model.n_samples * model.output_size
    return 0.5 * (quad + logdet + n_total * LOG2PI)


def _nll_core(model: TgpModel):
    """NLL plus the adjoint weight matrices for every covariance factor.

    Returns ``(nll, gbar, d_noise, At)`` where ``gbar[k]`` is the matrix
    pairing with an unconstrained perturbation of factor k (k=0 the input
    Gram, then one per output mode; ``None`` for identity factors),
    ``d_noise`` the noise-variance partial, and ``At = project(Yc) / A`` the
    data solve in the joint eigenbasis (``unproject(At)`` is
    ``Sigma^{-1} vec(Yc)``, the data adjoint).

    For a perturbation ``dF`` of factor k the NLL differential is
    ``<gbar[k], dF>`` with

        gbar[k] = 1/2 U_k (diag(c_k) - Q_k) U_k^T,
        c_k = sum_{axes != k} lam_{-k} / A,
        Q_k = At_(k) diag(lam_{-k}) At_(k)^T,

    where ``lam_{-k}`` is the outer product of every factor's eigenvalues but
    factor k's.  Each other factor ``U_j diag(lam_j) U_j^T`` acts on the
    rotated data as its eigenvalues alone because ``U_j`` is orthogonal, so
    this is exact and needs no dense factor and no rotation back.
    """
    eigs = model.eigenfactors()
    Yc = model.centered
    A = eigs.joint_values(model.noise)
    T1 = eigs.project(Yc)
    At = T1 / A
    quad = float(np.sum(T1 * At))
    logdet = float(np.sum(np.log(A)))
    nll = 0.5 * (quad + logdet + Yc.size * LOG2PI)

    inv_A = 1.0 / A
    gbars = []
    for k, U in enumerate(eigs.vectors):
        if U is None:
            gbars.append(None)
            continue
        # Trace part: contract 1/A with every other factor's eigenvalues.
        c = inv_A
        for j in range(len(eigs.values) - 1, -1, -1):
            if j != k:
                c = np.tensordot(c, eigs.values[j], axes=([j], [0]))
        # Quadratic part: the mode-k unfolding of At against itself, weighted
        # by the other factors' eigenvalues.
        lam_other = kruskal_outer([v for j, v in enumerate(eigs.values) if j != k])
        Ak = np.moveaxis(At, k, 0).reshape(At.shape[k], -1)
        Q = (Ak * lam_other.ravel()) @ Ak.T
        gbars.append(0.5 * ((U * c) @ U.T - U @ Q @ U.T))

    d_noise = 0.5 * (float(np.sum(inv_A)) - float(np.sum(At * At)))
    return nll, gbars, d_noise, At


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Settings for a single TGP fit (and reused by the fusion models)."""

    optim: OptimConfig = OptimConfig()
    latent_rank: int | None = None
    laplace: LaplacePrior = LaplacePrior(0.0)
    identity_outputs: bool = False


class _TgpPack:
    """Flat-vector packing of all trainable TGP parameters.

    ``freeze_coords`` keeps latent coordinates fixed at the template's values
    (the shared-latent-features option of the fusion models) while their
    kernels stay trainable.
    """

    def __init__(self, template: TgpModel, laplace: LaplacePrior, freeze_coords: bool = False):
        self.template = template
        self.laplace = laplace
        self.freeze_coords = freeze_coords
        self.slices = {}
        self.active = set()
        idx = 0

        def add(name, size):
            nonlocal idx
            self.slices[name] = slice(idx, idx + size)
            self.active.add(name)
            idx += size

        add("input", template.input_kernel.n_params)
        if template.output_features is not None:
            for m, (V, k) in enumerate(
                zip(template.output_features.coords, template.output_features.kernels)
            ):
                add(f"kern{m}", k.n_params)
                if not freeze_coords:
                    add(f"coords{m}", V.size)
        add("noise", 1)
        self.size = idx

    def pack(self, model: TgpModel) -> np.ndarray:
        p = np.empty(self.size)
        ik = model.input_kernel
        p[self.slices["input"]] = np.concatenate([[ik.log_amplitude], ik.log_lengthscales])
        if model.output_features is not None:
            for m, (V, k) in enumerate(
                zip(model.output_features.coords, model.output_features.kernels)
            ):
                p[self.slices[f"kern{m}"]] = np.concatenate([[k.log_amplitude], k.log_lengthscales])
                if f"coords{m}" in self.active:
                    p[self.slices[f"coords{m}"]] = V.ravel()
        p[self.slices["noise"]] = model.log_noise
        return p

    def unpack(self, p: np.ndarray) -> TgpModel:
        t = self.template
        raw = p[self.slices["input"]]
        input_kernel = ArdKernelParams(raw[0], raw[1:])
        feats = None
        if t.output_features is not None:
            coords, kerns = [], []
            for m, (V, k) in enumerate(zip(t.output_features.coords, t.output_features.kernels)):
                kr = p[self.slices[f"kern{m}"]]
                kerns.append(ArdKernelParams(kr[0], kr[1:]))
                if f"coords{m}" in self.active:
                    coords.append(p[self.slices[f"coords{m}"]].reshape(V.shape))
                else:
                    coords.append(V.copy())
            feats = LatentFeatures(coords, kerns)
        return replace(
            t,
            input_kernel=input_kernel,
            output_features=feats,
            log_noise=float(p[self.slices["noise"]][0]),
            _eig=None,
        )

    def chain(self, model: TgpModel, value: float, gbars, d_noise: float):
        """Pull covariance adjoints back to this pack's parameters and penalize.

        ``value`` is the NLL at ``model``; ``gbars`` holds the adjoint of the
        input Gram, then one per output mode (read only when the model has
        latent output covariances); ``d_noise`` is the partial with respect
        to the noise variance.  Returns ``(value, g)`` with the Laplace
        penalty on the latent coordinates added to both.
        """
        g = np.zeros(self.size)
        g[self.slices["input"]], _ = ard_gram_adjoint(model.input_kernel, model.X, gbars[0])
        if model.output_features is not None:
            feats = model.output_features
            for m, (V, kern) in enumerate(zip(feats.coords, feats.kernels)):
                rows = f"coords{m}" in self.active
                g_kern, g_coords = ard_gram_adjoint(kern, V, gbars[m + 1], rows=rows)
                g[self.slices[f"kern{m}"]] = g_kern
                if rows:
                    g[self.slices[f"coords{m}"]] = g_coords.ravel()
        g[self.slices["noise"]] = d_noise * model.noise
        if self.laplace.scale > 0 and model.output_features is not None:
            value -= laplace_log_prior(model.output_features, self.laplace)
            for m, gv in enumerate(laplace_log_prior_grad(model.output_features, self.laplace)):
                if f"coords{m}" in self.active:
                    g[self.slices[f"coords{m}"]] -= gv.ravel()
        return value, g

    def objective(self, p: np.ndarray):
        """``(value, gradient)`` at ``p``; ``(inf, 0)``, which the optimizer
        backtracks from, where the eigen step fails."""
        model = self.unpack(p)
        try:
            nll, gbars, d_noise, _ = _nll_core(model)
        except (np.linalg.LinAlgError, ValueError):
            return np.inf, np.zeros(self.size)
        return self.chain(model, nll, gbars, d_noise)


def _initial_model(X, Y, config: FitConfig) -> TgpModel:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    offset = Y.mean(axis=0)
    Yc = Y - offset
    span = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-3)
    var = max(float(Yc.var()), 1e-8)
    input_kernel = ArdKernelParams(np.log(var), np.log(span))
    feats = None
    if not config.identity_outputs:
        feats = LatentFeatures.initialize(
            Y.shape[1:], rank=config.latent_rank, seed=config.optim.seed
        )
    return TgpModel(
        input_kernel=input_kernel,
        output_features=feats,
        log_noise=np.log(1e-2 * var + JITTER),
        X=X,
        Y=Y,
        offset=offset,
    )


def tgp_fit(X, Y, config: FitConfig = FitConfig()):
    """Fit a TGP by maximum (penalized) likelihood.

    Outputs are centered per entry before fitting (and un-centered at
    prediction); hyperparameters, latent features and noise are optimized
    jointly in unconstrained coordinates.
    Returns ``(model, trace)``.
    """
    init = _initial_model(X, Y, config)
    pack = _TgpPack(init, config.laplace)
    p_opt, trace = minimize(pack.objective, pack.pack(init), config.optim)
    return pack.unpack(p_opt), trace


# ---------------------------------------------------------------------------
# Prediction: exact conditional via the eigen pipeline
# ---------------------------------------------------------------------------


@dataclass
class KronPsd:
    """Variance term ``scale_q * (S_1 (x) .. (x) S_M)`` per query point q.

    ``mats[m] = None`` denotes an identity factor of size ``sizes[m]``.
    """

    scale: np.ndarray
    mats: list
    sizes: tuple

    def diag(self) -> np.ndarray:
        diags = [
            np.ones(s) if m is None else np.diag(m).copy() for m, s in zip(self.mats, self.sizes)
        ]
        return np.multiply.outer(self.scale, kruskal_outer(diags))

    def sandwich(self, weights) -> "KronPsd":
        mats, sizes = [], []
        for W, S, s in zip(weights, self.mats, self.sizes):
            if W is None:
                mats.append(S)
                sizes.append(s)
            else:
                mats.append(W @ W.T if S is None else W @ S @ W.T)
                sizes.append(W.shape[0])
        return KronPsd(self.scale, mats, tuple(sizes))


@dataclass
class KronSq:
    """Variance term ``sign * F diag(weights) F^T`` with Kronecker-factored F.

    ``q_factor`` holds the per-query first-factor rows; ``factors[m] = None``
    denotes an identity output factor. Only the diagonal is ever materialized.
    """

    sign: float
    q_factor: np.ndarray
    factors: list
    weights: np.ndarray

    def diag(self) -> np.ndarray:
        sq = [self.q_factor**2] + [None if F is None else F**2 for F in self.factors]
        return self.sign * tucker_apply(self.weights, sq)

    def sandwich(self, weights) -> "KronSq":
        factors = []
        for W, F in zip(weights, self.factors):
            if W is None:
                factors.append(F)
            else:
                factors.append(W.copy() if F is None else W @ F)
        return KronSq(self.sign, self.q_factor, factors, self.weights)


def _variance_terms(model: TgpModel, k_star: np.ndarray):
    """Latent predictive covariance at the queries as structured terms.

    The exact conditional covariance is ``k** (x) S - B B^T`` with
    ``B = (k* U (x) U_1 L_1 (x) ..) (A)^{-1/2}``; both pieces stay closed
    under per-mode sandwiching, which is what the fidelity recursion needs.
    """
    eigs = model.eigenfactors()
    A = eigs.joint_values(model.noise)
    n_star = k_star.shape[0]
    prior = KronPsd(
        np.full(n_star, model.input_kernel.amplitude),
        [None if U is None else eigs.reconstruct(k + 1) for k, U in enumerate(eigs.vectors[1:])],
        model.mode_sizes,
    )
    U0 = eigs.vectors[0]
    factors = []
    for U, lam in zip(eigs.vectors[1:], eigs.values[1:]):
        factors.append(None if U is None else U * lam)
    corr = KronSq(-1.0, k_star @ U0, factors, 1.0 / A)
    return [prior, corr]


def _mean_factors(model: TgpModel, k_star: np.ndarray):
    """Factors producing the conditional mean from the projected data tensor."""
    eigs = model.eigenfactors()
    U0 = eigs.vectors[0]
    facs = [k_star @ U0]
    for U, lam in zip(eigs.vectors[1:], eigs.values[1:]):
        facs.append(None if U is None else U * lam)
    return facs


def _predict_parts(model: TgpModel, x_star: np.ndarray):
    """Batched conditional mean (without offset) and variance terms."""
    Xs = np.atleast_2d(np.asarray(x_star, dtype=float))
    k_star = ard_gram(model.input_kernel, Xs, model.X)
    eigs = model.eigenfactors()
    A = eigs.joint_values(model.noise)
    At = eigs.project(model.centered) / A
    mean = tucker_apply(At, _mean_factors(model, k_star))
    return mean, _variance_terms(model, k_star)


def tgp_predict(model: TgpModel, x_star) -> PosteriorField:
    """Exact conditional prediction at one input (or a batch of inputs).

    The mean is the conditional mean of the joint Gaussian; the variance
    tensor is the conditional diagonal plus observation noise, clamped at
    zero after the subtraction.
    """
    x_star = np.asarray(x_star, dtype=float)
    single = x_star.ndim == 1
    mean, terms = _predict_parts(model, x_star)
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


def _check_schema(doc: dict, schema: str):
    if doc.get("schema") != schema:
        raise ValueError(f"unsupported model schema {doc.get('schema')!r} (expected {schema!r})")


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
    enclosing bundle) put before the array names in errors."""
    _check_schema(doc, TGP_SCHEMA)
    feats = None
    if doc["output_features"] is not None:
        coords, kerns = [], []
        for m, f in enumerate(doc["output_features"]):
            where = f"{prefix}output_features[{m}]."
            coords.append(decode_array(f["coords"], where + "coords"))
            ls = decode_array(f["log_lengthscales"], where + "log_lengthscales")
            kerns.append(ArdKernelParams(f["log_amplitude"], ls))
        feats = LatentFeatures(coords, kerns)
    ik = doc["input_kernel"]
    return TgpModel(
        input_kernel=ArdKernelParams(
            ik["log_amplitude"],
            decode_array(ik["log_lengthscales"], f"{prefix}input_kernel.log_lengthscales"),
        ),
        output_features=feats,
        log_noise=doc["log_noise"],
        X=decode_array(doc["X"], f"{prefix}X"),
        Y=decode_array(doc["Y"], f"{prefix}Y"),
        offset=decode_array(doc["offset"], f"{prefix}offset"),
    )


def save_tgp(model: TgpModel, path, dataset_ref: str | None = None):
    with open(path, "w") as fh:
        fh.write(json.dumps(tgp_to_dict(model, dataset_ref)))


def load_tgp(path) -> TgpModel:
    with open(path) as fh:
        return tgp_from_dict(json.load(fh))
