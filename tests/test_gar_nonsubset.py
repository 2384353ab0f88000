"""Imaginary-subset machinery: closed-form marginal vs dense marginalization.

The dense oracle builds the joint Gaussian over [low data; imaginary low
block; high data] from the model's own conditionals and integrates the
imaginary block out by plain submatrix extraction.  The closed form must
reproduce it exactly; this also settles the orientation of the covariance
correction sandwich (W S W^T, not W^T S W) before anything else relies on it.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.cigar import CigarModel, cigar_fit
from mfgar.gar import (
    GarConfig,
    GarModel,
    MultiFidelityDataset,
    TuckerWeights,
    _IdentityOutputNonsubsetPack,
    _corrected_nll_low_rank,
    _gamma_variance,
    build_subset_plan,
    gar_fit_recursive,
    gar_from_dict,
    gar_nll_nonsubset,
    gar_predict,
    gar_to_dict,
    load_gar,
    save_gar,
)
from mfgar.hogp import _predict_parts, encode_array, tgp_from_dict, tgp_nll, tgp_to_dict
from mfgar.kernels import LatentFeatures
from mfgar.optim import OptimConfig
from mfgar.tensalg import kron_all, track_eig_sizes, vec
from oracles import (
    column_stream_gamma_variance,
    dense_capacitance_corrected_nll,
    dense_marginal_nonsubset_nll,
    dense_nonsubset_pack,
    dense_nonsubset_predict,
    dense_two_level_predict,
    grad_audit,
    low_stack,
    make_random_nonsubset,
    make_random_two_level,
    stored_arrays,
)


def test_closed_form_equals_dense_marginal_many_instances():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n_low = int(rng.integers(5, 9))
        n_matched = int(rng.integers(0, 3))
        n_unmatched = int(rng.integers(1, 4))
        low_modes = tuple(rng.integers(1, 4, size=1))
        high_modes = tuple(rng.integers(1, 4, size=1))
        model, ds = make_random_nonsubset(
            rng, n_low, n_matched, n_unmatched, low_modes, high_modes
        )
        trans = model.transitions[0]
        closed = gar_nll_nonsubset(model)
        oracle = tgp_nll(model.low) + _high_given_low_oracle(model, ds)
        assert_allclose(closed, oracle, rtol=1e-7)


def _high_given_low_oracle(model, ds):
    """Dense marginal of the high block given the low block."""
    trans = model.transitions[0]
    full = dense_marginal_nonsubset_nll(
        model.low,
        trans.weights,
        trans.residual,
        trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y,
        ds.levels[1].Y[trans.plan.permutation],
    )
    return full - tgp_nll(model.low)


def test_closed_form_equals_full_dense_marginal():
    rng = np.random.default_rng(1)
    model, ds = make_random_nonsubset(rng, 5, 2, 2, (2,), (3,))
    trans = model.transitions[0]
    closed = gar_nll_nonsubset(model)
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(closed, oracle, rtol=1e-8)


def test_sandwich_orientation_resolution():
    # The correction block must be W S_low W^T; the transposed sandwich
    # (printable only in the square case) does not reproduce the marginal.
    rng = np.random.default_rng(2)
    model, ds = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    trans = model.transitions[0]
    res = trans.residual
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(gar_nll_nonsubset(model), oracle, rtol=1e-8)

    from mfgar.kernels import ard_gram
    from oracles import dense_output_cov, embedded_cov, gaussian_nll

    w_dense = kron_all(trans.weights.factors)
    s_low = dense_output_cov(model.low)
    n = res.Y.size
    b_input = embedded_cov(trans.workspace.s_hat, res.n_samples, trans.plan.n_matched)
    K_r = ard_gram(res.input_kernel, res.X, res.X)
    base = np.kron(K_r, dense_output_cov(res)) + res.noise * np.eye(n)
    phi = vec(res.Y)

    good = base + np.kron(b_input, w_dense @ s_low @ w_dense.T)
    flipped = base + np.kron(b_input, w_dense.T @ s_low @ w_dense)
    nll_good = tgp_nll(model.low) + gaussian_nll(phi, np.zeros_like(phi), good)
    nll_flip = tgp_nll(model.low) + gaussian_nll(phi, np.zeros_like(phi), flipped)
    assert_allclose(nll_good, oracle, rtol=1e-8)
    assert abs(nll_flip - oracle) > 1e-3 * max(1.0, abs(oracle))


def test_scalar_outputs_reduce_to_scalar_formula():
    # d = 1: W = rho, S = 1 up to the trainable 1x1 factors.
    rng = np.random.default_rng(3)
    model, ds = make_random_nonsubset(rng, 6, 2, 2, (1,), (1,))
    trans = model.transitions[0]
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(gar_nll_nonsubset(model), oracle, rtol=1e-8)


@pytest.mark.parametrize(
    "n_matched, low_modes, high_modes, orthonormal_w",
    [
        (0, (3,), (3,), True),  # square orthonormal
        (2, (3,), (3,), True),
        (1, (2, 3), (4, 3), True),  # rectangular orthonormal, two modes
        (0, (2,), (4,), True),
        (0, (3, 2), (2, 3), False),  # free W, wide and tall factors
        (2, (2,), (3,), False),
    ],
)
def test_identity_output_nll_equals_dense_marginal(n_matched, low_modes, high_modes, orthonormal_w):
    # The input-space route for identity output covariances, at any W,
    # against plain marginalization of the dense joint.
    rng = np.random.default_rng(19)
    model, ds = make_random_nonsubset(
        rng, 6, n_matched, 3, low_modes, high_modes,
        identity_outputs=True, orthonormal_w=orthonormal_w,
    )
    trans = model.transitions[0]
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(gar_nll_nonsubset(model), oracle, rtol=1e-8)


def test_identity_output_nll_routes_past_output_sized_algebra(monkeypatch):
    # A large residual block with identity output covariances: neither the
    # latent route's Woodbury capacitance nor a Kronecker root column may be
    # built, and no eigendecomposition may exceed the augmented sample count
    # (the output modes here are 40 and 30).
    import mfgar.gar as gar
    from mfgar.tensalg import track_eig_sizes

    rng = np.random.default_rng(20)
    model, _ = make_random_nonsubset(rng, 8, 2, 4, (3, 2), (40, 30), identity_outputs=True)
    assert model.transitions[0].residual.Y.size > 4096

    def output_sized(*args, **kwargs):
        raise AssertionError("output-sized path taken")

    monkeypatch.setattr(gar, "_corrected_nll_low_rank", output_sized)
    monkeypatch.setattr(gar, "_khatri_rao_blocks", output_sized)
    with track_eig_sizes() as sizes:
        value = gar_nll_nonsubset(model)
        pred = gar_predict(model, rng.uniform(-1, 1, size=(3, 2)))
    assert np.isfinite(value)
    assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance_diag))
    assert max(sizes) <= model.transitions[0].workspace.aug_low.n_samples


def test_empty_unmatched_degenerates_to_subset_objective():
    rng = np.random.default_rng(4)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    total = gar_nll_nonsubset(model)
    assert_allclose(total, tgp_nll(model.low) + tgp_nll(trans.residual), rtol=1e-12)


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


def test_nonsubset_predict_matches_dense_composition():
    rng = np.random.default_rng(5)
    model, ds = make_random_nonsubset(rng, 5, 2, 2, (2, 2), (3, 2))
    trans = model.transitions[0]
    Xq = rng.uniform(-1, 1, size=(3, 2))
    pred = gar_predict(model, Xq)
    mean_d, var_d = dense_nonsubset_predict(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :], ds.levels[0].Y, Xq,
    )
    assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-10)
    assert_allclose(pred.variance_diag, var_d, rtol=1e-6, atol=1e-9)


def test_nonsubset_predict_identity_outputs_and_coincident_point():
    rng = np.random.default_rng(6)
    model, ds = make_random_nonsubset(
        rng, 6, 1, 3, (3,), (4,), identity_outputs=True
    )
    trans = model.transitions[0]
    # query exactly at an imaginary input: must stay finite and match dense
    Xq = np.vstack([trans.residual.X[trans.plan.n_matched], rng.uniform(-1, 1, size=(1, 2))])
    pred = gar_predict(model, Xq)
    assert np.all(np.isfinite(pred.mean)) and np.all(pred.variance_diag >= 0)
    mean_d, var_d = dense_nonsubset_predict(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :], ds.levels[0].Y, Xq,
    )
    assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-10)
    assert_allclose(pred.variance_diag, var_d, rtol=1e-6, atol=1e-9)


def test_nonsubset_predict_empty_unmatched_equals_subset_predict():
    # With no unmatched points the prediction is the subset posterior; the
    # tolerances are those of acceptance criterion 3.
    rng = np.random.default_rng(7)
    model, ds = make_random_two_level(rng, 5, 3, (2,), (2,))
    trans = model.transitions[0]
    q = rng.uniform(-1, 1, size=(4, 2))
    pred = gar_predict(model, q)
    mean_d, var_d = dense_two_level_predict(
        model.low, trans.weights, trans.residual, trans.plan.matched_low,
        ds.levels[0].Y, ds.levels[1].Y, q,
    )
    assert np.max(np.abs(pred.mean - mean_d) / np.maximum(np.abs(mean_d), 1e-9)) <= 1e-7
    assert np.max(np.abs(pred.variance_diag - var_d) / np.maximum(np.abs(var_d), 1e-9)) <= 1e-6


@pytest.mark.parametrize(
    "identity_outputs, low_modes, high_modes, down_modes",
    [
        (False, (2, 3), (2, 3), (3, 2)),  # square W, rectangular downstream
        (False, (2, 2), (3, 4), (3, 4)),  # rectangular W, square downstream
        (True, (3,), (3,), (2,)),
        (True, (2, 3), (4, 3), (4, 3)),
        (False, (3,), (2,), (4,)),  # one output mode
        (False, (2, 2, 2), (3, 2, 1), (2, 2, 3)),  # three output modes
    ],
)
def test_gamma_variance_matches_column_stream_reference(
    identity_outputs, low_modes, high_modes, down_modes, monkeypatch
):
    # The input-first Khatri-Rao contraction against the plain column
    # stream, with one downstream weight composed after the non-subset
    # transition, as one block per slice and split into single-row blocks.
    import mfgar.gar as gar

    rng = np.random.default_rng(18)
    model, _ = make_random_nonsubset(
        rng, 5, 2, 3, low_modes, high_modes, identity_outputs=identity_outputs
    )
    trans = model.transitions[0]
    assert trans.plan.n_matched == 2
    down = TuckerWeights([rng.standard_normal((b, a)) for b, a in zip(down_modes, high_modes)])
    Xq = rng.uniform(-1, 1, size=(3, 2))
    ops = [_predict_parts(m, Xq)[2] for m in (trans.workspace.aug_low, trans.residual)]
    ref = column_stream_gamma_variance(trans, Xq, [down], down_modes)
    assert_allclose(_gamma_variance(trans, *ops, [down], down_modes), ref, rtol=1e-10)
    monkeypatch.setattr(gar, "_KR_BLOCK", 1)
    assert_allclose(_gamma_variance(trans, *ops, [down], down_modes), ref, rtol=1e-10)


def test_identity_output_gamma_variance_builds_no_eigenbasis():
    # With identity outputs the imputation-variance term reads k* G^-1 of
    # both paths: no eigendecomposition, not even of S_hat, and no cached
    # eigenbasis, and it still matches the column stream.
    rng = np.random.default_rng(21)
    model, _ = make_random_nonsubset(rng, 5, 2, 3, (2, 3), (4, 3), identity_outputs=True)
    trans = model.transitions[0]
    down = TuckerWeights([rng.standard_normal((3, 4)), rng.standard_normal((2, 3))])
    Xq = rng.uniform(-1, 1, size=(3, 2))
    with track_eig_sizes() as sizes:
        ops = [_predict_parts(m, Xq)[2] for m in (trans.workspace.aug_low, trans.residual)]
        gamma = _gamma_variance(trans, *ops, [down], (3, 2))
    assert sizes == []
    assert trans.residual._eig is None and trans.workspace.aug_low._eig is None
    assert_allclose(gamma, column_stream_gamma_variance(trans, Xq, [down], (3, 2)), rtol=1e-10)


# ---------------------------------------------------------------------------
# Stage-2 objective packs
# ---------------------------------------------------------------------------


def test_nonsubset_pack_gradient_audit():
    # the dense oracle pack's analytic adjoints against central differences
    rng = np.random.default_rng(8)
    model, ds = make_random_nonsubset(rng, 4, 1, 2, (2,), (2,))
    pack = dense_nonsubset_pack(model, ds)
    assert grad_audit(pack.objective, pack.pack(), eps=1e-5) < 1e-4


def test_nonsubset_pack_value_is_corrected_marginal():
    rng = np.random.default_rng(9)
    model, ds = make_random_nonsubset(rng, 5, 2, 2, (2,), (3,))
    pack = dense_nonsubset_pack(model, ds)
    value, _ = pack.objective(pack.pack())
    assert_allclose(value, gar_nll_nonsubset(model) - tgp_nll(model.low), rtol=1e-9)


IDENTITY_PACK_CASES = [
    pytest.param(0, (3,), (3,), False, id="free-square"),
    pytest.param(2, (3,), (3,), True, id="orth-square"),
    pytest.param(2, (2, 3), (4, 3), True, id="orth-two-mode"),
    pytest.param(1, (2,), (3,), True, id="orth-tall"),
    pytest.param(0, (2,), (4,), False, id="free-tall"),
    pytest.param(2, (4,), (2,), False, id="free-wide"),
    pytest.param(1, (3, 2), (2, 3), False, id="free-two-mode"),
]


def identity_output_packs(seed, n_matched, low_modes, high_modes, orthonormal_w):
    """The identity-output pack and the dense oracle pack at one random model, raw W."""
    rng = np.random.default_rng(seed)
    model, ds = make_random_nonsubset(
        rng, 5, n_matched, 2, low_modes, high_modes,
        identity_outputs=True, orthonormal_w=orthonormal_w,
    )
    trans = model.transitions[0]
    fast = _IdentityOutputNonsubsetPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y[trans.plan.permutation],
        trans.residual, trans.weights, "free", trans.workspace.s_hat, trans.plan.n_matched,
    )
    return fast, dense_nonsubset_pack(model, ds)


@pytest.mark.parametrize("n_matched, low_modes, high_modes, orthonormal_w", IDENTITY_PACK_CASES)
def test_identity_output_pack_matches_dense_pack(n_matched, low_modes, high_modes, orthonormal_w):
    # The input-space objective equals the dense corrected objective, value
    # and gradient, at identical identity-S parameters and any W.
    fast, dense = identity_output_packs(10, n_matched, low_modes, high_modes, orthonormal_w)
    v_dense, g_dense = dense.objective(dense.pack())
    v_fast, g_fast = fast.objective(fast.pack())
    g_dense, g_fast = g_dense(), g_fast()
    assert_allclose(v_fast, v_dense, rtol=1e-9)
    assert_allclose(g_fast, g_dense, rtol=1e-9, atol=1e-9 * np.abs(g_dense).max())


def test_identity_output_pack_value_is_corrected_marginal():
    rng = np.random.default_rng(21)
    model, ds = make_random_nonsubset(
        rng, 5, 2, 2, (2, 3), (4, 3), identity_outputs=True, orthonormal_w=True
    )
    trans = model.transitions[0]
    pack = _IdentityOutputNonsubsetPack(
        low_stack(trans, ds.levels[0].Y),
        ds.levels[1].Y[trans.plan.permutation],
        trans.residual,
        trans.weights,
        "orthonormal",
        trans.workspace.s_hat,
        trans.plan.n_matched,
    )
    value, _ = pack.objective(pack.pack())
    assert_allclose(value, gar_nll_nonsubset(model) - tgp_nll(model.low), rtol=1e-9)


@pytest.mark.parametrize("n_matched, low_modes, high_modes, orthonormal_w", IDENTITY_PACK_CASES)
def test_identity_output_pack_gradient_audit(n_matched, low_modes, high_modes, orthonormal_w):
    # the raw euclidean gradient, on and off the orthonormal manifold
    fast, _ = identity_output_packs(11, n_matched, low_modes, high_modes, orthonormal_w)
    assert grad_audit(fast.objective, fast.pack(), eps=1e-5) < 1e-4


def non_pd_point(pack):
    """Pack parameters whose residual covariance is not numerically PD.

    A huge input amplitude with a huge lengthscale makes the input Gram a
    rank-one ``e^40`` block, and the noise sits at its floor, so the
    factorization of the corrected covariance meets a non-positive pivot.
    """
    p = pack.pack()
    off = pack.w.size
    n_input = pack.tgp.template.input_kernel.n_params
    p[off] = 40.0
    p[off + 1 : off + n_input] = 20.0
    p[off + pack.tgp.size - 1] = -40.0
    return p


def test_nonsubset_packs_return_inf_at_a_non_pd_point():
    # Both corrected cores factorize a covariance (a Cholesky of the dense
    # oracle block, or of the input Gram); where that fails the objective
    # scores +inf, which the optimizer backtracks from, instead of raising.
    rng = np.random.default_rng(8)
    model, ds = make_random_nonsubset(rng, 4, 1, 2, (2,), (2,))
    dense = dense_nonsubset_pack(model, ds)
    fast, _ = identity_output_packs(10, 1, (2,), (3,), False)
    for pack in (dense, fast):
        p = non_pd_point(pack)
        with pytest.raises(np.linalg.LinAlgError):
            pack._core(*pack.unpack(p)[::-1])
        value, grad = pack.objective(p)
        assert value == np.inf
        assert np.array_equal(grad(), np.zeros(pack.size))


# ---------------------------------------------------------------------------
# Fitting on non-subset data
# ---------------------------------------------------------------------------


def nonsubset_dataset(rng, n_low=14, n_matched=2, n_unmatched=5):
    X_l = rng.uniform(0, 1, size=(n_low, 2))
    f = lambda X: np.stack([np.sin(2 * np.pi * X[:, 0]) + X[:, 1], np.cos(np.pi * X[:, 1])], axis=1)
    Y_l = f(X_l).reshape(n_low, 2, 1)
    X_h = np.vstack([X_l[:n_matched], rng.uniform(0, 1, size=(n_unmatched, 2))])
    Y_h = 1.4 * f(X_h).reshape(-1, 2, 1) + 0.05
    return MultiFidelityDataset([(X_l, Y_l), (X_h, Y_h)])


def test_fit_nonsubset_end_to_end():
    rng = np.random.default_rng(12)
    ds = nonsubset_dataset(rng)
    cfg = GarConfig(optim=OptimConfig(max_iters=150, step=0.05))
    model = gar_fit_recursive(ds, cfg)
    trans = model.transitions[0]
    assert trans.workspace is not None
    assert trans.plan.n_unmatched == 5
    nll = gar_nll_nonsubset(model)
    assert np.isfinite(nll)
    pred = gar_predict(model, ds.levels[1].X)
    err = float(np.sqrt(np.mean((pred.mean - ds.levels[1].Y) ** 2)))
    assert err < 0.2
    assert np.all(pred.variance_diag >= 0)


def test_fit_nonsubset_cap_falls_back_to_imputed_objective():
    # a small latent non-subset block fits the imputed-residual objective
    # and still scores a finite exact NLL
    rng = np.random.default_rng(13)
    ds = nonsubset_dataset(rng, n_low=10, n_matched=1, n_unmatched=3)
    cfg = GarConfig(optim=OptimConfig(max_iters=60))
    model = gar_fit_recursive(ds, cfg)
    assert model.transitions[0].workspace is not None
    assert np.isfinite(gar_nll_nonsubset(model))


def test_fit_identity_outputs_nonsubset_uses_exact_objective_past_cap(monkeypatch):
    # A free-W identity-output fit with a large residual block (2304
    # entries) must optimize the exact input-space objective: the
    # imputed-residual approximation may not be evaluated.
    import mfgar.gar as gar

    def forbidden(self, p):
        raise AssertionError(f"{type(self).__name__} evaluated")

    monkeypatch.setattr(gar._ResidualPack, "objective", forbidden)
    rng = np.random.default_rng(15)
    X_l = rng.uniform(0, 1, size=(10, 2))
    X_h = np.vstack([X_l[:2], rng.uniform(0, 1, size=(4, 2))])
    grid = np.linspace(0, 1, 24)

    def field(X, scale):
        return scale * np.sin(np.pi * (X[:, :1, None] + grid[None, :, None] * grid[None, None, :16]))

    ds = MultiFidelityDataset([(X_l, field(X_l, 1.0)), (X_h, field(X_h, 1.3) + 0.05)])
    cfg = GarConfig(optim=OptimConfig(max_iters=20), identity_outputs=True)
    assert cfg.w_mode == "free"
    model = gar_fit_recursive(ds, cfg)
    assert model.transitions[0].workspace is not None
    assert np.isfinite(gar_nll_nonsubset(model))


def test_stage2_fits_use_the_packs_the_benchmark_tracer_counts(monkeypatch):
    # The benchmark tracer labels stage-2 evaluations by the class owning the
    # objective (gar.resid_eval_ms, gar.collapsed_eval_ms and
    # gar.inexact_stage2_share rest on it), so a renamed pack would zero
    # those metrics without failing the benchmark's self-test.
    import importlib.util
    from pathlib import Path

    import mfgar.gar as gar

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    owners = []
    original = gar.minimize

    def recording(objective, init, *args, **kwargs):
        owners.append(type(objective.__self__).__name__)
        return original(objective, init, *args, **kwargs)

    monkeypatch.setattr(gar, "minimize", recording)
    rng = np.random.default_rng(17)
    cfg = GarConfig(optim=OptimConfig(max_iters=3))
    gar_fit_recursive(nonsubset_dataset(rng, n_low=8, n_matched=3, n_unmatched=0), cfg)
    cigar_fit(nonsubset_dataset(rng, n_low=8), cfg)
    gar_fit_recursive(nonsubset_dataset(rng, n_low=8), cfg)
    assert owners == [
        tracing.RESIDUAL_PACK,  # subset gar
        tracing.COLLAPSED_PACK,  # non-subset cigar
        tracing.RESIDUAL_PACK,  # latent non-subset: the imputed-residual objective
    ]


def test_fit_nonsubset_plan_detection():
    rng = np.random.default_rng(14)
    ds = nonsubset_dataset(rng)
    plan = build_subset_plan(ds)
    assert plan.n_matched == 2 and plan.n_unmatched == 5


def test_nll_low_rank_route_matches_dense():
    # The Woodbury route, called directly, must coincide with the dense
    # oracle pack's corrected residual NLL and the marginalization oracle.
    rng = np.random.default_rng(16)
    model, ds = make_random_nonsubset(rng, 6, 2, 3, (2, 2), (3, 2))
    trans = model.transitions[0]
    pack = dense_nonsubset_pack(model, ds)
    dense = tgp_nll(model.low) + pack.objective(pack.pack())[0]
    lowrank = tgp_nll(model.low) + _corrected_nll_low_rank(trans, model.low)
    assert_allclose(lowrank, dense, rtol=1e-9)
    # With no imputation uncertainty the update vanishes and the route reads
    # the residual's own NLL off the same solve, bitwise.
    ws = trans.workspace
    certain = replace(trans, workspace=replace(ws, s_hat=np.zeros_like(ws.s_hat)))
    assert np.array_equal(_corrected_nll_low_rank(certain, model.low), tgp_nll(trans.residual))
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(lowrank, oracle, rtol=1e-7)


def test_nll_low_rank_route_three_modes_matches_dense_marginal(monkeypatch):
    # Three latent output modes, matched rows and rectangular W through
    # gar_nll_nonsubset's low-rank route, whose capacitance is built in
    # single-row blocks as well as in one block per slice.
    import mfgar.gar as gar

    rng = np.random.default_rng(27)
    model, ds = make_random_nonsubset(rng, 6, 2, 2, (2, 2, 2), (2, 3, 2))
    trans = model.transitions[0]
    oracle = dense_marginal_nonsubset_nll(
        model.low, trans.weights, trans.residual, trans.plan,
        trans.residual.X[trans.plan.n_matched :],
        ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
    )
    assert_allclose(gar_nll_nonsubset(model), oracle, rtol=1e-7)
    monkeypatch.setattr(gar, "_KR_BLOCK", 1)
    assert_allclose(gar_nll_nonsubset(model), oracle, rtol=1e-7)


def test_latent_nll_matches_the_dense_pack_at_any_capacitance_size():
    # Latent output covariances: gar_nll_nonsubset's Woodbury route against
    # the dense corrected objective when the capacitance (unmatched count x
    # low output size) is as large as the residual block, smaller, and
    # larger (the last case).
    rng = np.random.default_rng(26)
    for n_matched, low_modes, high_modes in [(0, (2,), (2,)), (2, (2,), (2,)), (1, (3,), (1,))]:
        model, ds = make_random_nonsubset(rng, 5, n_matched, 3, low_modes, high_modes)
        pack = dense_nonsubset_pack(model, ds)
        value, _ = pack.objective(pack.pack())
        assert_allclose(gar_nll_nonsubset(model) - tgp_nll(model.low), value, rtol=1e-9)


def test_nll_low_rank_route_scales_past_dense_cap():
    # A residual block too large to densify (7200 rows): the low-rank route
    # must produce a finite value (rank = unmatched count x low output size).
    rng = np.random.default_rng(17)
    model, _ = make_random_nonsubset(rng, 8, 2, 4, (3, 2), (40, 30))
    n_block = model.transitions[0].residual.Y.size
    assert n_block > 4096
    value = gar_nll_nonsubset(model)
    assert np.isfinite(value)


BLOCKED_CASES = [
    # (n_matched, n_unmatched = n_m, low_modes, high_modes)
    pytest.param(2, 1, (3, 2), (3, 2), id="one-block"),
    pytest.param(1, 2, (2, 3), (3, 2), id="two-blocks-rectangular-W"),
    pytest.param(2, 3, (2, 2), (2, 2), id="three-blocks"),
    pytest.param(0, 5, (3,), (4,), id="five-blocks-one-mode"),
    pytest.param(2, 3, (2, 2, 2), (2, 3, 2), id="three-blocks-three-modes"),
    pytest.param(1, 4, (2, 3), (3, 2), id="four-blocks"),  # the benchmark's n_m
]


@pytest.mark.parametrize("kr_block", [None, 1], ids=["slice-blocks", "row-blocks"])
@pytest.mark.parametrize("n_matched, n_unmatched, low_modes, high_modes", BLOCKED_CASES)
def test_blocked_capacitance_matches_the_dense_one(
    monkeypatch, n_matched, n_unmatched, low_modes, high_modes, kr_block
):
    # The left-looking block Cholesky against the whole capacitance built
    # and factored by cho_factor, with the Khatri-Rao products in one block
    # per slice and in single-row blocks.
    import mfgar.gar as gar

    if kr_block is not None:
        monkeypatch.setattr(gar, "_KR_BLOCK", kr_block)
    rng = np.random.default_rng(40 + n_unmatched)
    model, _ = make_random_nonsubset(rng, 7, n_matched, n_unmatched, low_modes, high_modes)
    trans = model.transitions[0]
    assert trans.workspace.s_hat.shape == (n_unmatched, n_unmatched)
    assert_allclose(
        _corrected_nll_low_rank(trans, model.low),
        dense_capacitance_corrected_nll(trans, model.low),
        rtol=1e-12,
    )


def test_capacitance_multiplies_one_triangle_of_slices(monkeypatch):
    # n_m = 4 unmatched rows: 10 of the 16 input-root pair slices enter the
    # Khatri-Rao products, each once.
    import mfgar.gar as gar

    real = gar._khatri_rao_blocks
    calls = []

    def spy(core, fs, gs):
        slices = []
        calls.append((core.shape[0], slices))
        for b, rows, out in real(core, fs, gs):
            if rows.start == 0:
                slices.append(b)
            yield b, rows, out

    monkeypatch.setattr(gar, "_khatri_rao_blocks", spy)
    rng = np.random.default_rng(44)
    model, _ = make_random_nonsubset(rng, 8, 1, 4, (2, 3), (2, 2))
    _corrected_nll_low_rank(model.transitions[0], model.low)
    assert calls == [(10, list(range(10)))]


@pytest.mark.parametrize("n_m", [3, 5], ids=lambda n: f"n_m={n}")
def test_capacitance_peak_memory_is_the_left_looking_bound(n_m):
    # n_m blocks of r = 144 per side: the call's traced peak is the live
    # blocks of the left-looking order, max_k (k + 1)(n_m - k) (4 of the 6
    # lower blocks at n_m = 3, 9 of 15 at n_m = 5), one Khatri-Rao buffer
    # and factor-sized arrays, below the lower triangle alone.
    import tracemalloc

    import mfgar.gar as gar

    rng = np.random.default_rng(31)
    model, _ = make_random_nonsubset(rng, 8, 1, n_m, (12, 12), (4, 5))
    trans = model.transitions[0]
    value = _corrected_nll_low_rank(trans, model.low)  # warms the eigenbases
    r = 144
    block = r * r * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _corrected_nll_low_rank(trans, model.low) == value
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    live = max((k + 1) * (n_m - k) for k in range(n_m))
    bound = live * block + min(block, 8 * gar._KR_BLOCK) + 64 * 1024
    assert bound < n_m * (n_m + 1) // 2 * block
    assert peak <= bound


def test_capacitance_refuses_non_finite_entries(monkeypatch):
    # A NaN in S_hat is refused, and so is one that first shows in the
    # capacitance itself, block by block.
    import mfgar.gar as gar

    rng = np.random.default_rng(45)
    model, _ = make_random_nonsubset(rng, 7, 1, 3, (2, 2), (2, 3))
    trans = model.transitions[0]
    s_hat = trans.workspace.s_hat.copy()
    s_hat[1, 1] = np.nan
    bad = replace(trans, workspace=replace(trans.workspace, s_hat=s_hat))
    with pytest.raises(ValueError):
        _corrected_nll_low_rank(bad, model.low)

    real = gar._input_contraction

    def nan_slice(k, g0, A):
        core = real(k, g0, A)
        core[-1, 0] = np.nan  # the last diagonal block
        return core

    monkeypatch.setattr(gar, "_input_contraction", nan_slice)
    with pytest.raises(ValueError, match="non-finite"):
        _corrected_nll_low_rank(trans, model.low)


@pytest.mark.parametrize("slice_index, block_row", [(0, 0), (8, 2)], ids=["first", "last"])
def test_capacitance_refuses_a_non_positive_pivot(monkeypatch, slice_index, block_row):
    # -1e6 times one diagonal slice of n_m = 3 makes its block indefinite:
    # the first block fails at once, the last one after the other two have
    # factored, and the error names the pivot's row in the whole capacitance.
    import mfgar.gar as gar

    real = gar._input_contraction

    def negated(k, g0, A):
        core = real(k, g0, A)
        core[slice_index] *= -1e6
        return core

    monkeypatch.setattr(gar, "_input_contraction", negated)
    rng = np.random.default_rng(46)
    model, _ = make_random_nonsubset(rng, 7, 1, 3, (2, 2), (3, 2))
    r = 4
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite") as err:
        _corrected_nll_low_rank(model.transitions[0], model.low)
    row = int(str(err.value).split("-th")[0])
    assert block_row * r < row <= (block_row + 1) * r


def test_mixed_chain_nonsubset_then_subset_collapse():
    # Non-subset bottom pair followed by a copy top level with identity
    # weights: the three-level prediction must reproduce the two-level one,
    # which exercises the downstream-weight composition of the imputation
    # variance term.
    rng = np.random.default_rng(15)
    ds2 = nonsubset_dataset(rng, n_low=12, n_matched=2, n_unmatched=4)
    X_h, Y_h = ds2.levels[1].X, ds2.levels[1].Y
    ds3 = MultiFidelityDataset(
        [(ds2.levels[0].X, ds2.levels[0].Y), (X_h, Y_h), (X_h, Y_h.copy())]
    )
    cfg = GarConfig(optim=OptimConfig(max_iters=80, step=0.05), w_mode="identity")
    m2 = gar_fit_recursive(ds2, cfg)
    m3 = gar_fit_recursive(ds3, cfg)
    assert m3.transitions[0].workspace is not None
    assert m3.transitions[1].workspace is None
    q = rng.uniform(0, 1, size=(5, 2))
    p2, p3 = gar_predict(m2, q), gar_predict(m3, q)
    assert np.max(np.abs(p3.mean - p2.mean)) < 1e-3
    assert np.all(p3.variance_diag >= 0)
    # the copy level adds only its (near-floor) residual noise
    assert_allclose(p3.variance_diag, p2.variance_diag, rtol=0.3, atol=1e-2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

DERIVED_KEYS = {"aug_low", "imputed_mean", "s_hat", "x_hat", "low_stack", "rho"}


def document_keys(node) -> set:
    """Every dict key anywhere in a JSON document."""
    if isinstance(node, dict):
        return set(node).union(*(document_keys(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(document_keys(v) for v in node))
    return set()


def assert_bundle_roundtrip(model, path, q):
    """Save and load through ``path``: every stored array comes back bitwise,
    the loaded model predicts bitwise, and re-saving it gives the same bytes."""
    save_gar(model, path)
    assert not document_keys(json.loads(path.read_text())) & DERIVED_KEYS
    back = load_gar(path)
    for t, b in zip(model.transitions, back.transitions):
        assert (t.workspace is None) == (b.workspace is None)
        if t.workspace is not None:
            assert np.array_equal(b.workspace.aug_low.X, t.workspace.aug_low.X)
            assert np.array_equal(b.workspace.s_hat, t.workspace.s_hat)
    arrays, arrays_back = stored_arrays(model), stored_arrays(back)
    assert arrays_back.keys() == arrays.keys()
    for name, a in arrays.items():
        assert arrays_back[name].dtype == a.dtype, name
        assert np.array_equal(arrays_back[name], a), name
    resaved = path.with_name("resaved.json")
    save_gar(back, resaved)
    assert resaved.read_bytes() == path.read_bytes()
    before, after = gar_predict(model, q), gar_predict(back, q)
    assert np.array_equal(after.mean, before.mean)
    assert np.array_equal(after.variance_diag, before.variance_diag)
    return back


@pytest.mark.parametrize("fit", [gar_fit_recursive, cigar_fit], ids=["gar", "cigar"])
def test_nonsubset_bundle_roundtrip(fit, tmp_path):
    # The bundle stores no workspace: loading rebuilds it from the stored low
    # model and the residual inputs, and every output comes back bitwise.
    rng = np.random.default_rng(24)
    ds = nonsubset_dataset(rng, n_low=10, n_matched=1, n_unmatched=3)
    cfg = GarConfig(optim=OptimConfig(max_iters=20, step=0.05))
    model = fit(ds, cfg)
    assert model.transitions[0].workspace is not None
    q = np.vstack([ds.levels[1].X, rng.uniform(0, 1, size=(3, 2))])
    back = assert_bundle_roundtrip(model, tmp_path / "model.json", q)
    assert back.kind == model.kind
    assert isinstance(back, CigarModel) == (model.kind == "cigar")
    assert np.array_equal(gar_nll_nonsubset(back), gar_nll_nonsubset(model))


def test_three_level_chain_with_nonsubset_top_roundtrip(tmp_path):
    # The second transition is non-subset, so its imputation comes from a
    # standalone fit of the middle level; that low model is the one extra
    # entry the bundle stores.
    rng = np.random.default_rng(25)
    f = lambda X: np.stack(
        [np.sin(2 * np.pi * X[:, 0]) + X[:, 1], np.cos(np.pi * X[:, 1])], axis=1
    ).reshape(-1, 2, 1)
    X = rng.uniform(0, 1, size=(12, 2))
    X_top = np.vstack([X[:2], rng.uniform(0, 1, size=(3, 2))])
    ds = MultiFidelityDataset(
        [(X, f(X)), (X[:7], 1.2 * f(X[:7]) + 0.1), (X_top, 1.4 * f(X_top) + 0.05)]
    )
    cfg = GarConfig(optim=OptimConfig(max_iters=20, step=0.05))
    model = gar_fit_recursive(ds, cfg)
    assert model.transitions[0].workspace is None
    assert model.transitions[1].workspace is not None
    path = tmp_path / "model.json"
    assert_bundle_roundtrip(model, path, np.vstack([X_top, rng.uniform(0, 1, size=(3, 2))]))
    doc = json.loads(path.read_text())
    assert ["low" in t for t in doc["transitions"]] == [False, True]


def test_bundle_refuses_a_stored_low_that_is_not_its_level():
    # The stored low model of an upper non-subset transition imputes the
    # middle level, so it must hold that level: its sample count, its output
    # mode sizes and its input rows, in any order.
    rng = np.random.default_rng(26)
    f = lambda X: np.stack([np.sin(2 * np.pi * X[:, 0]) + X[:, 1], np.cos(np.pi * X[:, 1])], axis=1)
    X = rng.uniform(0, 1, size=(10, 2))
    X_top = np.vstack([X[:2], rng.uniform(0, 1, size=(2, 2))])
    ds = MultiFidelityDataset([(X, f(X)), (X[:6], 1.2 * f(X[:6])), (X_top, 1.4 * f(X_top))])
    cfg = GarConfig(optim=OptimConfig(max_iters=10, step=0.05), identity_outputs=True)
    doc = gar_to_dict(gar_fit_recursive(ds, cfg))
    low = tgp_from_dict(doc["transitions"][1]["low"])
    assert low.mode_sizes == (2,) and low.n_samples == 6
    flipped = low.X[::-1]
    moved = low.X.copy()
    moved[3, 0] += 1e-12
    edits = {
        "4 samples, the level has 6": replace(low, X=low.X[:4], Y=low.Y[:4]),
        r"output mode sizes \(1, 2\), the level has \(2,\)": replace(
            low, Y=low.Y.reshape(6, 1, 2), offset=low.offset.reshape(1, 2)
        ),
        "its input rows are not the level's": replace(low, X=moved),
    }
    for message, edited in edits.items():
        doc["transitions"][1]["low"] = tgp_to_dict(edited)
        with pytest.raises(ValueError, match=r"^transitions\[1\]\.low: " + message):
            gar_from_dict(json.loads(json.dumps(doc)))
    doc["transitions"][1]["low"] = tgp_to_dict(replace(low, X=flipped, Y=low.Y[::-1]))
    assert gar_from_dict(doc).transitions[1].workspace is not None


def test_bundle_rejects_previous_schema():
    rng = np.random.default_rng(27)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    doc = gar_to_dict(model)
    assert doc["schema"] == "mfgar/gar-4"
    doc["schema"] = "mfgar/gar-3"
    with pytest.raises(ValueError, match="gar-3"):
        gar_from_dict(doc)


def test_bundle_errors_name_the_nested_field():
    rng = np.random.default_rng(28)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    doc = gar_to_dict(model)
    Y = model.transitions[0].residual.Y.copy()
    Y[0, 0] = np.nan
    doc["transitions"][0]["residual"]["Y"] = encode_array(Y)
    with pytest.raises(ValueError, match=r"^transitions\[0\]\.residual\.Y: non-finite"):
        gar_from_dict(doc)
    doc = gar_to_dict(model)
    doc["transitions"][0]["plan"]["unmatched_high"]["dtype"] = "<i4"
    with pytest.raises(ValueError, match=r"^transitions\[0\]\.plan\.unmatched_high: unsupported"):
        gar_from_dict(doc)


def _plan_edit(**fields):
    """A bundle edit that replaces the given plan index arrays."""
    return lambda entry: entry["plan"].update(
        {name: encode_array(np.array(v)) for name, v in fields.items()}
    )


ROWS_ONCE = r"plan: matched_high and unmatched_high must list each of the 3 residual rows once"
LOW_RANGE = r"plan\.matched_low: indices must lie in \[0, 5\)"


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_plan_edit(unmatched_high=[1]), ROWS_ONCE, id="dropped-unmatched"),
        pytest.param(_plan_edit(unmatched_high=[0, 1]), ROWS_ONCE, id="duplicate-high"),
        pytest.param(_plan_edit(matched_low=[99]), LOW_RANGE, id="matched-low-99"),
        pytest.param(_plan_edit(matched_low=[-1]), LOW_RANGE, id="matched-low-negative"),
        pytest.param(
            lambda entry: entry["weights"].__setitem__(0, encode_array(np.ones((2, 3)))),
            r"weights\[0\]: shape \(2, 3\), expected \(3, 2\)",
            id="wrong-weight-shape",
        ),
        pytest.param(
            lambda entry: entry["weights"].pop(),
            r"weights: 0 factors for 1 residual modes",
            id="missing-weight",
        ),
    ],
)
def test_bundle_refuses_plans_and_weights_that_do_not_fit(edit, message):
    # A plan must order every residual row once and index the low model's
    # rows; there is one weight factor per residual mode, (high, low) sized.
    rng = np.random.default_rng(30)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (3,))
    doc = gar_to_dict(model)
    edit(doc["transitions"][0])
    with pytest.raises(ValueError, match=r"^transitions\[0\]\." + message):
        gar_from_dict(doc)


@pytest.mark.parametrize("name", ["matched_high", "matched_low", "unmatched_high"])
def test_bundle_refuses_float_plan_indices(name):
    # A float payload for a plan index array is refused, not truncated: a
    # matched_low entry of 1.7 would otherwise load as 1.
    rng = np.random.default_rng(29)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    doc = gar_to_dict(model)
    indices = getattr(model.transitions[0].plan, name).astype(float)
    if name == "matched_low":
        indices[0] = 1.7
    doc["transitions"][0]["plan"][name] = encode_array(indices)
    assert doc["transitions"][0]["plan"][name]["dtype"] == "<f8"
    with pytest.raises(ValueError, match=rf"^transitions\[0\]\.plan\.{name}: dtype '<f8'"):
        gar_from_dict(doc)


def test_bundle_refuses_an_unknown_kind():
    rng = np.random.default_rng(32)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    doc = gar_to_dict(model)
    doc["kind"] = "foo"
    with pytest.raises(ValueError, match=r"^kind: unknown model kind 'foo'"):
        gar_from_dict(doc)


DROP = object()  # the edit removes the field
T0 = ("transitions", 0)
RESIDUAL = (*T0, "residual")
FINITE = "expected a finite number, got "
MISSING = "missing"


@pytest.mark.parametrize(
    "loader, path, value, message",
    [
        pytest.param("gar", ("low", "log_noise"), np.nan, FINITE + "nan", id="nan-noise"),
        pytest.param("gar", (*RESIDUAL, "log_noise"), np.inf, FINITE + "inf", id="inf-noise"),
        pytest.param("tgp", ("log_noise",), -np.inf, FINITE + "-inf", id="tgp-inf-noise"),
        pytest.param(
            "gar", (*RESIDUAL, "input_kernel", "log_amplitude"), "0.5", FINITE + "'0.5'",
            id="text-amplitude",
        ),
        pytest.param(
            "gar", ("low", "output_features", 0, "log_amplitude"), None, FINITE + "None",
            id="null-amplitude",
        ),
        pytest.param("tgp", ("log_noise",), [0.1], FINITE + "[0.1]", id="list-noise"),
        pytest.param("gar", ("transitions",), DROP, MISSING, id="no-transitions"),
        pytest.param("gar", RESIDUAL, DROP, MISSING, id="no-residual"),
        pytest.param("gar", (*T0, "plan"), DROP, MISSING, id="no-plan"),
        pytest.param("gar", (*T0, "plan", "matched_low"), DROP, MISSING, id="no-matched-low"),
        pytest.param("gar", (*T0, "weights"), DROP, MISSING, id="no-weights"),
        pytest.param("gar", ("low", "log_noise"), DROP, MISSING, id="no-noise"),
        pytest.param("gar", (*RESIDUAL, "input_kernel"), DROP, MISSING, id="no-input-kernel"),
        pytest.param("tgp", ("output_features",), DROP, MISSING, id="no-features"),
        pytest.param("gar", ("transitions",), {}, "expected a list, got dict", id="dict-list"),
        pytest.param("gar", ("low",), [1], "expected a JSON object, got list", id="list-low"),
        pytest.param("gar", (), None, "expected a JSON object, got list", id="list-bundle"),
        pytest.param("tgp", (), None, "expected a JSON object, got list", id="tgp-list-bundle"),
        pytest.param(
            "gar", ("low", "offset"), encode_array(np.zeros(1)), "shape (1,), expected (2,)",
            id="short-offset",
        ),
        pytest.param(
            "gar", ("low", "offset"), encode_array(np.float64(0.5)), "shape (), expected (2,)",
            id="scalar-offset",
        ),
        pytest.param(
            "gar", (*RESIDUAL, "offset"), encode_array(np.zeros((2, 1))),
            "shape (2, 1), expected (2,)", id="column-offset",
        ),
        pytest.param(
            "tgp", ("offset",), encode_array(np.zeros(3)), "shape (3,), expected (2,)",
            id="tgp-long-offset",
        ),
    ],
)
def test_bundle_refuses_bad_fields_naming_the_path(loader, path, value, message):
    # A malformed bundle loads no model: a non-finite or non-numeric scalar,
    # a missing field, a field of the wrong JSON type and an offset not
    # shaped like one output (which would broadcast into the means) each raise
    # ValueError with the field's path first (``transitions[0].plan``, or
    # ``bundle`` for the document, here edited into a one-item list), never
    # a KeyError, TypeError or AttributeError.
    rng = np.random.default_rng(35)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (2,))
    if loader == "gar":
        doc, load = gar_to_dict(model), gar_from_dict
    else:
        doc, load = tgp_to_dict(model.low), tgp_from_dict
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    else:
        doc = [doc]
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:] or "bundle"
    with pytest.raises(ValueError, match="^" + re.escape(f"{name}: {message}")):
        load(json.loads(json.dumps(doc)))


def test_model_refuses_mixed_output_covariances():
    # The low, residual and imputation models share one output-covariance
    # kind: swapping any one of them to the other kind is refused.
    rng = np.random.default_rng(33)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (3,))
    trans, ws = model.transitions[0], model.transitions[0].workspace
    edits = [
        replace(trans, residual=replace(trans.residual, output_features=None)),
        replace(trans, workspace=replace(ws, aug_low=replace(ws.aug_low, output_features=None))),
    ]
    for edited in edits:
        with pytest.raises(ValueError, match="mixed output covariances"):
            GarModel(low=model.low, transitions=[edited])
    cig, _ = make_random_nonsubset(
        rng, 5, 1, 2, (2,), (3,), identity_outputs=True, orthonormal_w=True
    )
    trans = cig.transitions[0]
    latent = LatentFeatures.initialize(trans.residual.mode_sizes)
    with pytest.raises(ValueError, match="mixed output covariances"):
        CigarModel(
            low=cig.low,
            transitions=[replace(trans, residual=replace(trans.residual, output_features=latent))],
            kind="cigar",
        )


@pytest.mark.parametrize("edited", ["residual", "low"])
def test_bundle_refuses_mixed_output_covariances(edited):
    # A latent bundle whose residual or low model is edited to identity
    # output covariances loads no model.
    rng = np.random.default_rng(34)
    model, _ = make_random_nonsubset(rng, 5, 1, 2, (2,), (3,))
    doc = gar_to_dict(model)
    node = doc["low"] if edited == "low" else doc["transitions"][0]["residual"]
    node["output_features"] = None
    with pytest.raises(ValueError, match="mixed output covariances"):
        gar_from_dict(doc)
