"""Conditional-independent fusion: orthonormal weights, collapsed inference."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import polar

from mfgar.cigar import (
    CigarModel,
    cigar_fit,
    orthonormality_error,
    orthonormalize,
)
from mfgar.gar import (
    GarConfig,
    MultiFidelityDataset,
    TuckerWeights,
    _nonsubset_workspace,
    gar_fit_recursive,
    gar_from_dict,
    gar_predict,
    gar_to_dict,
)
from mfgar.hogp import decode_array, encode_array, tgp_nll, tgp_predict
from mfgar.optim import OptimConfig
from mfgar.tensalg import track_eig_sizes
from oracles import (
    dense_two_level_predict,
    gar_joint_nll_dense,
    low_stack,
    make_random_tgp,
    make_random_two_level,
    record_cholesky_sizes,
)

# ---------------------------------------------------------------------------
# Orthonormalization
# ---------------------------------------------------------------------------


def eig_polar_oracle(f):
    """Nearest orthonormal-column factor via W (W^T W)^{-1/2}, test-side."""
    vals, vecs = np.linalg.eigh(f.T @ f)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    return f @ inv_sqrt


def test_orthonormalize_idempotent_and_scaling():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))
    w = orthonormalize(TuckerWeights([q]))
    assert_allclose(w.factors[0], q, atol=1e-12)
    w2 = orthonormalize(TuckerWeights([2.0 * np.eye(3)]))
    assert_allclose(w2.factors[0], np.eye(3), atol=1e-12)


def test_orthonormalize_matches_polar_oracle_and_is_nearest():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((4, 3))
    w = orthonormalize(TuckerWeights([f])).factors[0]
    assert_allclose(w.T @ w, np.eye(3), atol=1e-12)
    assert_allclose(w, eig_polar_oracle(f), atol=1e-10)
    # Frobenius minimality among random orthonormal candidates
    best = np.linalg.norm(f - w)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        assert np.linalg.norm(f - q) >= best - 1e-12


def test_orthonormalize_rejects_rank_deficiency():
    f = np.ones((4, 2))
    with pytest.raises(ValueError, match="rank"):
        orthonormalize(TuckerWeights([f]))
    with pytest.raises(ValueError, match="columns"):
        orthonormalize(TuckerWeights([np.ones((2, 3))]))


def test_orthonormalize_is_scipy_polar_factor_bitwise():
    # One thin SVD gives both the rank check and the polar factor w @ vh.
    rng = np.random.default_rng(2)
    for shape in [(3, 3), (5, 3), (8, 2), (6, 6), (4, 1)]:
        f = rng.standard_normal(shape)
        assert np.array_equal(orthonormalize(TuckerWeights([f])).factors[0], polar(f)[0])
    f = rng.standard_normal((5, 3))
    f[:, 2] = f[:, 0]
    with pytest.raises(ValueError, match="rank"):
        orthonormalize(TuckerWeights([f]))


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


def test_cigar_model_validates_constraints():
    rng = np.random.default_rng(2)
    model, _ = make_random_two_level(rng, 4, 2, (2,), (3,), identity_outputs=True)
    with pytest.raises(ValueError, match="orthonormal"):
        CigarModel(low=model.low, transitions=model.transitions, kind="cigar")
    model2, _ = make_random_two_level(rng, 4, 2, (2,), (3,))
    model2.transitions[0].weights = orthonormalize(model2.transitions[0].weights)
    with pytest.raises(ValueError, match="identity"):
        CigarModel(low=model2.low, transitions=model2.transitions, kind="cigar")


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def smooth_two_level(rng, n_low=12, n_high=5, d_low=3, d_high=4, unmatched=0):
    X_l = rng.uniform(0, 1, size=(n_low, 2))
    grid_l = np.linspace(0, 1, d_low)
    grid_h = np.linspace(0, 1, d_high)
    f = lambda X, g: np.sin(2 * np.pi * (X[:, :1] + g[None, :])) + X[:, 1:2]
    Y_l = f(X_l, grid_l)
    if unmatched:
        X_h = np.vstack([X_l[: n_high - unmatched], rng.uniform(0, 1, size=(unmatched, 2))])
    else:
        X_h = X_l[:n_high]
    Y_h = 1.3 * f(X_h, grid_h) + 0.1
    return MultiFidelityDataset([(X_l, Y_l), (X_h, Y_h)])


def test_cigar_fit_subset_orthonormal_throughout():
    rng = np.random.default_rng(3)
    ds = smooth_two_level(rng)
    errors = []

    cfg = GarConfig(optim=OptimConfig(max_iters=60, step=0.05))
    model = cigar_fit(ds, cfg)
    assert isinstance(model, CigarModel) and model.kind == "cigar"
    assert orthonormality_error(model.transitions[0].weights) <= 1e-8
    assert model.low.output_features is None
    pred = gar_predict(model, ds.levels[1].X[0])
    assert np.all(np.isfinite(pred.mean))


def test_cigar_fit_never_factorizes_output_covariances(monkeypatch):
    # A subset fit stays in input space throughout: no eigendecomposition at
    # all, and every Cholesky factors an input Gram (12 low, 5 high samples),
    # never a 7 x 7 or 9 x 9 output covariance.
    rng = np.random.default_rng(4)
    ds = smooth_two_level(rng, d_low=7, d_high=9)
    chol_sizes = record_cholesky_sizes(monkeypatch)
    with track_eig_sizes() as sizes:
        cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=25)))
    assert sizes == []
    assert set(chol_sizes) == {ds.levels[0].n_samples, ds.levels[1].n_samples}


def test_cigar_nonsubset_fit_collapsed_path():
    rng = np.random.default_rng(5)
    ds = smooth_two_level(rng, n_high=6, unmatched=3)
    with track_eig_sizes() as sizes:
        model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=40)))
    assert max(sizes) <= ds.levels[0].n_samples
    assert model.transitions[0].workspace is not None
    assert orthonormality_error(model.transitions[0].weights) <= 1e-8
    pred = gar_predict(model, rng.uniform(0, 1, size=(3, 2)))
    assert np.all(pred.variance_diag >= 0)


@pytest.mark.parametrize("unmatched", [0, 3], ids=["subset", "nonsubset"])
def test_cigar_prediction_builds_no_eigenbasis(unmatched):
    # Identity-output prediction runs in input space: neither tgp_predict
    # nor gar_predict (with the non-subset imputation-variance term) makes
    # an eigendecomposition, and no model of the chain caches an eigenbasis.
    rng = np.random.default_rng(13)
    ds = smooth_two_level(rng, n_high=6, unmatched=unmatched)
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=15)))
    trans = model.transitions[0]
    assert trans.is_subset == (unmatched == 0)
    q = rng.uniform(0, 1, size=(4, 2))
    with track_eig_sizes() as sizes:
        tgp_predict(model.low, q)
        pred = gar_predict(model, q)
    assert sizes == []
    assert np.all(np.isfinite(pred.mean)) and np.all(pred.variance_diag >= 0)
    tgps = [model.low, trans.residual] + ([] if trans.is_subset else [trans.workspace.aug_low])
    assert all(m._eig is None for m in tgps)


def test_cigar_nonsubset_prediction_factors_each_input_gram_once(monkeypatch):
    # The mean pass factors the augmented-low and residual input Grams once
    # each, and the imputation-variance term reads the mean operators it
    # built instead of factoring them again.
    rng = np.random.default_rng(14)
    ds = smooth_two_level(rng, n_high=6, unmatched=3)
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=15)))
    trans = model.transitions[0]
    chol_sizes = record_cholesky_sizes(monkeypatch)
    pred = gar_predict(model, rng.uniform(0, 1, size=(4, 2)))
    assert chol_sizes == [trans.workspace.aug_low.n_samples, trans.residual.n_samples]
    assert np.all(np.isfinite(pred.mean)) and np.all(pred.variance_diag >= 0)


def test_nonsubset_workspace_factors_an_identity_low_once(monkeypatch):
    # The imputation covariance reads the mean operator of the imputed-mean
    # pass, so one workspace build factors the identity low model's input
    # Gram once.
    rng = np.random.default_rng(15)
    low = make_random_tgp(rng, 8, (3, 4), identity_outputs=True)
    chol_sizes = record_cholesky_sizes(monkeypatch)
    workspace = _nonsubset_workspace(low, rng.uniform(-1.0, 1.0, size=(3, 2)))
    assert chol_sizes == [low.n_samples]
    assert np.all(np.linalg.eigvalsh(workspace.s_hat) > 0)


def test_cigar_subset_nll_matches_dense_joint_oracle():
    # The collapsed likelihood evaluated at the fitted constrained parameters
    # equals the full dense joint density at those same parameters.
    rng = np.random.default_rng(6)
    ds = smooth_two_level(rng, n_low=7, n_high=3, d_low=2, d_high=3)
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=30)))
    parts = tgp_nll(model.low) + tgp_nll(model.transitions[0].residual)
    dense = gar_joint_nll_dense(model, ds)
    assert_allclose(parts, dense, rtol=1e-8)


def test_scalar_outputs_collapse_to_plain_gp():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(10, 2))
    y_l = np.sin(2 * np.pi * X[:, :1])
    ds = MultiFidelityDataset([(X, y_l), (X[:4], 2.0 * y_l[:4])])
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=60)))
    w = model.transitions[0].weights.factors[0]
    assert w.shape == (1, 1) and abs(abs(w[0, 0]) - 1.0) < 1e-12


def test_orthonormality_holds_at_every_evaluated_point():
    # Instrument the stage-2 objective: each weight factor is the polar
    # factor of the unconstrained packed matrix, so with no hook the
    # constraint holds at every point the optimizer evaluates, accepted or
    # not, not just at the returned optimum.
    rng = np.random.default_rng(12)
    ds = smooth_two_level(rng, n_low=8, n_high=4, d_low=3, d_high=5)
    from mfgar.gar import _ResidualPack, _residual_template, build_subset_plan
    from mfgar.hogp import FitConfig, tgp_fit
    from mfgar.optim import minimize

    cfg = GarConfig(optim=OptimConfig(max_iters=40, step=0.05), identity_outputs=True)
    low, _ = tgp_fit(ds.levels[0].X, ds.levels[0].Y, FitConfig(optim=cfg.optim, identity_outputs=True))
    plan = build_subset_plan(ds)
    low_stack = ds.levels[0].Y[plan.matched_low]
    from mfgar.gar import TuckerWeights

    w_init = TuckerWeights.initial(ds.levels[1].mode_sizes, ds.levels[0].mode_sizes)
    template, _ = _residual_template(
        ds.levels[1].X, ds.levels[1].mode_sizes, low, cfg,
        resid0=ds.levels[1].Y - w_init.apply(low_stack),
    )
    pack = _ResidualPack(low_stack, ds.levels[1].Y, template, w_init, "orthonormal")
    errors = []

    def instrumented(p):
        weights, _ = pack.unpack(p)
        errors.append(orthonormality_error(weights))
        return pack.objective(p)

    minimize(instrumented, pack.pack(), cfg.optim)
    assert errors and max(errors) <= 1e-8


def test_cigar_fit_passes_no_projection_to_the_optimizer(monkeypatch):
    # Orthonormality is a parametrization of the stage-2 objective, so the
    # transition fit hands the optimizer no retraction hook.
    import mfgar.gar as gar

    calls = []
    real = gar.minimize

    def recording(objective, init, *args, **kwargs):
        calls.append(kwargs)
        return real(objective, init, *args, **kwargs)

    monkeypatch.setattr(gar, "minimize", recording)
    cigar_fit(smooth_two_level(np.random.default_rng(3)), GarConfig(optim=OptimConfig(max_iters=5)))
    assert calls and all("project" not in kwargs for kwargs in calls)


def test_orthonormal_weights_refuse_a_wide_factor():
    # A wide factor has no orthonormal columns: refused when the pack is
    # built, before any evaluation.
    from mfgar.gar import _WParam

    with pytest.raises(ValueError, match="more columns than rows"):
        _WParam(TuckerWeights([np.eye(3), np.eye(2, 3)]), "orthonormal")


def test_orthonormal_objective_is_inf_at_a_rank_deficient_factor():
    # The polar factor of a rank-deficient matrix is not unique: the
    # objective scores +inf there, which the optimizer backtracks from,
    # instead of raising.
    from mfgar.gar import _ResidualPack

    rng = np.random.default_rng(33)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (3, 2), identity_outputs=True)
    trans = model.transitions[0]
    pack = _ResidualPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights,
        "orthonormal",
    )
    p = pack.pack()
    assert np.isfinite(pack.objective(p)[0])
    p[:6] = 1.0  # the first 3 x 2 factor has rank one
    value, grad = pack.objective(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))


# ---------------------------------------------------------------------------
# Autokrigeability
# ---------------------------------------------------------------------------


def test_predictive_mean_matches_general_machinery_under_identity():
    # Shared (W, kernels, noise), identity output covariances: the collapsed
    # path and the dense general-machinery oracle agree on the mean to 1e-8.
    rng = np.random.default_rng(8)
    for trial in range(10):
        n_low = int(rng.integers(3, 7))
        n_high = int(rng.integers(1, n_low + 1))
        d_l = int(rng.integers(1, 4))
        d_h = int(rng.integers(d_l, 5))
        model, ds = make_random_two_level(
            rng, n_low, n_high, (d_l,), (d_h,), identity_outputs=True
        )
        trans = model.transitions[0]
        trans.weights = orthonormalize(trans.weights)
        stack = low_stack(trans, ds.levels[0].Y)
        trans.residual.Y = ds.levels[1].Y - trans.weights.apply(stack)
        cig = CigarModel(low=model.low, transitions=model.transitions, kind="cigar")
        Xq = rng.uniform(-1, 1, size=(3, 2))
        fast = gar_predict(cig, Xq)
        mean_d, var_d = dense_two_level_predict(
            model.low, trans.weights, trans.residual, trans.plan.matched_low,
            ds.levels[0].Y, ds.levels[1].Y, Xq,
        )
        assert np.max(np.abs(fast.mean - mean_d)) < 1e-8
        assert_allclose(fast.variance_diag, var_d, rtol=1e-6, atol=1e-10)


def test_square_orthogonal_weights_variance_reduces_to_scalar_form():
    rng = np.random.default_rng(9)
    model, ds = make_random_two_level(rng, 5, 2, (3,), (3,), identity_outputs=True)
    trans = model.transitions[0]
    trans.weights = orthonormalize(trans.weights)
    trans.residual.Y = ds.levels[1].Y - trans.weights.apply(low_stack(trans, ds.levels[0].Y))
    cig = CigarModel(low=model.low, transitions=model.transitions, kind="cigar")
    far = np.array([70.0, -80.0])
    pred = gar_predict(cig, far)
    assert np.max(np.abs(pred.mean)) < 1e-7
    expected = (
        model.low.input_kernel.amplitude
        + trans.residual.input_kernel.amplitude
        + trans.residual.noise
    )
    assert_allclose(pred.variance_diag, np.full(3, expected), rtol=1e-6)


# ---------------------------------------------------------------------------
# Complexity scaling (coarse wall-time assertion)
# ---------------------------------------------------------------------------


def timed_fit(fit, ds, cfg):
    start = time.perf_counter()
    fit(ds, cfg)
    return time.perf_counter() - start


@pytest.mark.slow
def test_runtime_scaling_in_output_dimension():
    # Growing the high-fidelity output size with the low size fixed: the
    # collapsed fit's wall time stays near-flat while the full model pays for
    # its output-covariance factorizations and latent-feature gradients.
    rng = np.random.default_rng(10)
    cfg = GarConfig(optim=OptimConfig(max_iters=12))
    small = smooth_two_level(rng, n_low=8, n_high=4, d_low=3, d_high=48)
    big = smooth_two_level(rng, n_low=8, n_high=4, d_low=3, d_high=192)
    # warm-up to stabilize allocators
    cigar_fit(small, cfg)
    t_cigar_small = min(timed_fit(cigar_fit, small, cfg) for _ in range(3))
    t_cigar_big = min(timed_fit(cigar_fit, big, cfg) for _ in range(3))
    gar_fit_recursive(small, cfg)
    t_gar_small = min(timed_fit(gar_fit_recursive, small, cfg) for _ in range(3))
    t_gar_big = min(timed_fit(gar_fit_recursive, big, cfg) for _ in range(3))
    cigar_ratio = t_cigar_big / t_cigar_small
    gar_ratio = t_gar_big / t_gar_small
    assert cigar_ratio < 2.5
    assert gar_ratio > cigar_ratio


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_cigar_serialization_kind_tag():
    rng = np.random.default_rng(11)
    ds = smooth_two_level(rng, n_low=6, n_high=3)
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=15)))
    doc = gar_to_dict(model)
    assert doc["kind"] == "cigar"
    back = gar_from_dict(doc)
    q = rng.uniform(0, 1, size=2)
    assert_allclose(gar_predict(back, q).mean, gar_predict(model, q).mean, rtol=1e-12)


def test_cigar_bundle_loads_as_validated_cigar_model():
    rng = np.random.default_rng(12)
    ds = smooth_two_level(rng, n_low=6, n_high=3)
    model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=15)))
    doc = gar_to_dict(model)
    assert isinstance(gar_from_dict(doc), CigarModel)
    # a hand-edited weight factor is no longer orthonormal: refused on load
    w0 = decode_array(doc["transitions"][0]["weights"][0], "w0")
    doc["transitions"][0]["weights"][0] = encode_array(2.0 * w0)
    with pytest.raises(ValueError, match="orthonormal"):
        gar_from_dict(doc)
