"""Fusion on subset data: plans, separable likelihood, posterior, baselines."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.gar import (
    FidelityLevel,
    GarConfig,
    MultiFidelityDataset,
    TuckerWeights,
    _IdentityOutputNonsubsetPack,
    _ResidualPack,
    ar_baseline_fit,
    build_subset_plan,
    gar_fit_recursive,
    gar_fit_subset,
    gar_from_dict,
    gar_predict,
    gar_to_dict,
)
from mfgar.hogp import JITTER, _TgpPack, tgp_nll, tgp_predict
from mfgar.optim import OptimConfig, minimize
from oracles import (
    count_gram_builds,
    dense_tgp_nll,
    dense_two_level_nll,
    dense_two_level_predict,
    eager,
    gar_joint_nll_dense,
    grad_audit,
    low_stack,
    make_random_nonsubset,
    make_random_tgp,
    make_random_two_level,
    output_factors,
    sample_from_model,
    scalar_ar_dense_nll,
)


# ---------------------------------------------------------------------------
# Dataset and plan bookkeeping
# ---------------------------------------------------------------------------


def test_dataset_pads_modes_and_validates():
    rng = np.random.default_rng(0)
    ds = MultiFidelityDataset(
        [(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 4))), (rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2, 2)))]
    )
    assert ds.levels[0].Y.shape == (6, 4, 1)
    assert ds.levels[1].Y.shape == (3, 2, 2)
    with pytest.raises(ValueError):
        MultiFidelityDataset(
            [(rng.uniform(size=(2, 2)), rng.uniform(size=(2, 3))), (rng.uniform(size=(5, 2)), rng.uniform(size=(5, 3)))]
        )


def test_dataset_refuses_an_empty_level():
    # An empty level is refused where it enters, naming the level, instead
    # of failing the fit of its transition on a zero-size reduction.
    rng = np.random.default_rng(0)
    X, Y = rng.uniform(size=(4, 2)), rng.uniform(size=(4, 3))
    with pytest.raises(ValueError, match=r"^level 1: empty fidelity level"):
        MultiFidelityDataset([(X, Y), (np.empty((0, 2)), np.empty((0, 3)))])
    with pytest.raises(ValueError, match="^empty fidelity level"):
        FidelityLevel(np.empty((0, 2)), np.empty((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["X", "Y"])
def test_dataset_rejects_non_finite_values(name, bad):
    rng = np.random.default_rng(0)
    arrays = {"X": rng.uniform(size=(4, 2)), "Y": rng.uniform(size=(4, 3))}
    arrays[name][2, 1] = bad
    with pytest.raises(ValueError, match=f"{name} contains non-finite values"):
        MultiFidelityDataset([(arrays["X"], arrays["Y"])])


def test_plan_prefix_fully_matched():
    rng = np.random.default_rng(1)
    X_l = rng.uniform(size=(8, 2))
    ds = MultiFidelityDataset([(X_l, rng.uniform(size=(8, 2))), (X_l[:3], rng.uniform(size=(3, 2)))])
    plan = build_subset_plan(ds)
    assert plan.fully_matched
    assert_allclose(plan.matched_low, np.arange(3))


def test_plan_disjoint_all_unmatched():
    rng = np.random.default_rng(2)
    ds = MultiFidelityDataset(
        [(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 2))), (2.0 + rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2)))]
    )
    plan = build_subset_plan(ds)
    assert plan.n_matched == 0
    assert plan.n_unmatched == 3


def test_plan_half_overlap_matches_bruteforce():
    rng = np.random.default_rng(3)
    X_l = rng.uniform(size=(10, 3))
    X_h = np.vstack([X_l[[7, 2, 5]], 3.0 + rng.uniform(size=(3, 3))])
    ds = MultiFidelityDataset([(X_l, rng.uniform(size=(10, 2))), (X_h, rng.uniform(size=(6, 2)))])
    plan = build_subset_plan(ds)
    # brute force pairwise comparison
    expected_matched = {}
    for j, row in enumerate(X_h):
        for i, low in enumerate(X_l):
            if np.array_equal(row, low):
                expected_matched[j] = i
    assert dict(zip(plan.matched_high, plan.matched_low)) == expected_matched
    assert set(plan.unmatched_high) == set(range(6)) - set(expected_matched)


def test_plan_duplicate_low_rows_ambiguous():
    X_l = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.2]])
    ds = MultiFidelityDataset([(X_l, np.zeros((3, 2))), (X_l[:1], np.zeros((1, 2)))])
    with pytest.raises(ValueError):
        build_subset_plan(ds)


def test_plan_euclidean_tolerance():
    X_l = np.array([[0.0, 0.0], [1.0, 0.0]])
    X_h = np.array([[1e-7, 0.0]])
    ds = MultiFidelityDataset([(X_l, np.zeros((2, 1))), (X_h, np.zeros((1, 1)))])
    assert build_subset_plan(ds).n_matched == 0  # exact matching by default


def test_weights_initial_shapes():
    w = TuckerWeights.initial((4, 3), (2, 3))
    assert w.factors[0].shape == (4, 2)
    assert_allclose(w.factors[1], np.eye(3))
    assert_allclose(w.factors[0][:2, :2], np.eye(2))


# ---------------------------------------------------------------------------
# Separable likelihood identity (oracle)
# ---------------------------------------------------------------------------


def test_separable_likelihood_identity_random_instances():
    # Sum of the two stage likelihoods equals the dense joint NLL.
    rng = np.random.default_rng(4)
    for trial in range(20):
        n_low = int(rng.integers(2, 9))
        n_high = int(rng.integers(1, min(n_low, 4) + 1))
        low_modes = tuple(rng.integers(1, 4, size=2))
        high_modes = tuple(rng.integers(1, 4, size=2))
        model, ds = make_random_two_level(rng, n_low, n_high, low_modes, high_modes)
        trans = model.transitions[0]
        parts = tgp_nll(model.low) + tgp_nll(trans.residual)
        dense = gar_joint_nll_dense(model, ds)
        assert_allclose(parts, dense, rtol=1e-8)
        oracle = dense_two_level_nll(
            model.low, trans.weights, trans.residual, trans.plan.matched_low,
            ds.levels[0].Y, ds.levels[1].Y,
        )
        assert_allclose(dense, oracle, rtol=1e-10)


def test_zero_weights_decouple_levels():
    rng = np.random.default_rng(5)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 3))
    trans = model.transitions[0]
    for f in trans.weights.factors:
        f[:] = 0.0
    trans.residual.Y = ds.levels[1].Y.copy()
    joint = gar_joint_nll_dense(model, ds)
    independent_high = tgp_nll(trans.residual)
    assert_allclose(joint, tgp_nll(model.low) + independent_high, rtol=1e-9)


def test_scalar_outputs_match_classic_ar_density():
    rng = np.random.default_rng(6)
    model, ds = make_random_two_level(rng, 6, 3, (1,), (1,))
    trans = model.transitions[0]
    rho = 0.8
    trans.weights.factors[0][:] = rho
    trans.residual.Y = ds.levels[1].Y - rho * ds.levels[0].Y[:3]
    # scalar-output covariance factors are 1x1; fold them into the kernels
    s_l = float(output_factors(model.low)[0][0, 0])
    s_r = float(output_factors(trans.residual)[0][0, 0])
    from mfgar.kernels import ArdKernelParams

    k_low = ArdKernelParams(
        model.low.input_kernel.log_amplitude + np.log(s_l),
        model.low.input_kernel.log_lengthscales,
    )
    k_res = ArdKernelParams(
        trans.residual.input_kernel.log_amplitude + np.log(s_r),
        trans.residual.input_kernel.log_lengthscales,
    )
    oracle = scalar_ar_dense_nll(
        rho, k_low, k_res, model.low.noise, trans.residual.noise,
        ds.levels[0].X, ds.levels[1].X, trans.plan.matched_low,
        ds.levels[0].Y, ds.levels[1].Y,
    )
    assert_allclose(gar_joint_nll_dense(model, ds), oracle, rtol=1e-8)


def test_joint_dense_cap_enforced():
    rng = np.random.default_rng(7)
    model, ds = make_random_two_level(rng, 8, 4, (3, 3), (3, 3))
    with pytest.raises(ValueError):
        gar_joint_nll_dense(model, ds, cap=10)


# ---------------------------------------------------------------------------
# Posterior vs dense conditional
# ---------------------------------------------------------------------------


def test_predict_matches_dense_conditional():
    rng = np.random.default_rng(8)
    model, ds = make_random_two_level(rng, 6, 3, (2, 2), (3, 2))
    trans = model.transitions[0]
    Xq = rng.uniform(-1, 1, size=(3, 2))
    pred = gar_predict(model, Xq)
    mean_d, var_d = dense_two_level_predict(
        model.low, trans.weights, trans.residual, trans.plan.matched_low,
        ds.levels[0].Y, ds.levels[1].Y, Xq,
    )
    assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-9)
    assert_allclose(pred.variance_diag, var_d, rtol=1e-6, atol=1e-9)


def test_predict_oracle_sweep_identity_outputs():
    rng = np.random.default_rng(9)
    model, ds = make_random_two_level(rng, 5, 2, (3,), (4,), identity_outputs=True)
    trans = model.transitions[0]
    Xq = rng.uniform(-1, 1, size=(2, 2))
    pred = gar_predict(model, Xq)
    mean_d, var_d = dense_two_level_predict(
        model.low, trans.weights, trans.residual, trans.plan.matched_low,
        ds.levels[0].Y, ds.levels[1].Y, Xq,
    )
    assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-9)
    assert_allclose(pred.variance_diag, var_d, rtol=1e-6, atol=1e-9)


def test_predict_far_field_prior_reversion():
    rng = np.random.default_rng(10)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    pred = gar_predict(model, np.array([60.0, -55.0]))
    assert np.max(np.abs(pred.mean)) < 1e-7
    from oracles import dense_output_cov
    from mfgar.tensalg import kron_all

    w_dense = kron_all(trans.weights.factors)
    s_l = dense_output_cov(model.low)
    s_r = dense_output_cov(trans.residual)
    expected = (
        model.low.input_kernel.amplitude * np.diag(w_dense @ s_l @ w_dense.T)
        + trans.residual.input_kernel.amplitude * np.diag(s_r)
        + trans.residual.noise
    )
    assert_allclose(pred.variance_diag.ravel(), expected, rtol=1e-6)


def test_predict_interpolates_high_fidelity_data():
    rng = np.random.default_rng(11)
    model, ds = make_random_two_level(
        rng, 6, 3, (2, 2), (2, 2), noise_low=1e-6, noise_res=1e-6
    )
    pred = gar_predict(model, ds.levels[1].X[1])
    assert np.max(np.abs(pred.mean - ds.levels[1].Y[1])) < 1e-3


# ---------------------------------------------------------------------------
# Gradient audits for the stage-2 objective
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "w_mode, low_modes, high_modes, identity",
    [
        pytest.param("free", (2, 2), (2, 2), False, id="free"),
        pytest.param("scalar", (2, 2), (2, 2), False, id="scalar"),
        # the partial products of W at every mode position, and at M = 1
        pytest.param("free", (2, 3, 2), (3, 2, 2), False, id="free-three-mode-rect"),
        pytest.param("free", (3,), (2,), False, id="free-one-mode"),
        # the polar pullback of every unconstrained factor
        pytest.param("orthonormal", (2, 3), (3, 4), False, id="orthonormal-rect"),
        # identity output covariances: the residual scored in input space
        pytest.param("orthonormal", (2, 3), (3, 4), True, id="identity-orthonormal-rect"),
        pytest.param("free", (2, 3, 2), (3, 2, 2), True, id="identity-free-three-mode-rect"),
    ],
)
def test_stage2_gradient_audit(w_mode, low_modes, high_modes, identity):
    rng = np.random.default_rng(12)
    model, ds = make_random_two_level(
        rng, 5, 3, low_modes, high_modes, identity_outputs=identity
    )
    trans = model.transitions[0]
    pack = _ResidualPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights, w_mode,
    )
    assert grad_audit(pack.objective, pack.pack(), eps=1e-5) < 1e-4


def test_identity_stage2_matches_the_dense_oracles_at_the_noise_floor():
    # The identity-output residual is scored through its N x N Gram.  With
    # two equal residual inputs (a singular K), the noise at its floor and a
    # residual drawn from the residual model itself, so that it lies almost
    # in K's range, the value is still the dense residual NLL and the
    # gradient the finite-difference one in every coordinate but the noise,
    # which the floor clamps from below.
    rng = np.random.default_rng(38)
    model, ds = make_random_two_level(
        rng, 6, 4, (2, 3), (3, 4), identity_outputs=True, noise_res=JITTER
    )
    trans = model.transitions[0]
    X = trans.residual.X.copy()
    X[1] = X[0]
    template = replace(trans.residual, X=X)
    stack = low_stack(trans, ds.levels[0].Y)
    y_high = trans.weights.apply(stack) + sample_from_model(rng, template)
    pack = _ResidualPack(stack, y_high, template, trans.weights, "free")
    point = pack.pack()
    value, _ = pack.objective(point)
    _, residual = pack.unpack(point)
    assert_allclose(residual.noise, JITTER, rtol=1e-15)
    assert_allclose(value, dense_tgp_nll(residual), rtol=1e-8)

    noise = pack.w.size + pack.tgp.size - 1

    def noise_held(q):
        value, gradient = pack.objective(np.insert(q, noise, point[noise]))
        return value, lambda: np.delete(gradient(), noise)

    assert grad_audit(noise_held, np.delete(point, noise), eps=1e-5) < 1e-4


def test_stage2_objective_is_inf_where_the_eigen_step_fails():
    # An input amplitude past the float range makes the residual Gram
    # non-finite, which sym_eig refuses: the objective scores +inf, which the
    # optimizer backtracks from, instead of raising.
    rng = np.random.default_rng(32)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    pack = _ResidualPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights, "free",
    )
    p = pack.pack()
    p[pack.w.size] = 800.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        value, grad = pack.objective(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))


@pytest.mark.parametrize("kind", ["free", "orthonormal", "collapsed"])
def test_stage2_value_pass_builds_each_gram_once_and_the_gradient_none(monkeypatch, kind):
    # Every stage-2 core builds each kernel Gram of the residual once, in its
    # value pass: the input Gram and each latent output covariance (the
    # collapsed identity-output core has the input Gram only), and the
    # gradient pulls back through those parts.
    rng = np.random.default_rng(36)
    if kind == "collapsed":
        model, ds = make_random_nonsubset(
            rng, 5, 2, 2, (2, 3), (4, 3), identity_outputs=True, orthonormal_w=True
        )
        trans = model.transitions[0]
        pack = _IdentityOutputNonsubsetPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y[trans.plan.permutation],
            trans.residual, trans.weights, "free", trans.workspace.s_hat, trans.plan.n_matched,
        )
        want = [4]
    else:
        model, ds = make_random_two_level(rng, 5, 3, (2, 3), (2, 3))
        trans = model.transitions[0]
        pack = _ResidualPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights,
            kind,
        )
        want = [3, 2, 3]
    built = count_gram_builds(monkeypatch)
    _, gradient = pack.objective(pack.pack())
    assert built == want
    gradient()
    assert built == want


def _pack_at_a_point(kind: str):
    """A fresh objective owner of ``kind`` and a point to evaluate it at."""
    rng = np.random.default_rng(37)
    if kind.startswith("tgp"):
        model = make_random_tgp(rng, 5, (3, 4), identity_outputs=kind == "tgp-identity")
        pack = _TgpPack(model)
        return pack, pack.pack()
    if kind == "collapsed":
        model, ds = make_random_nonsubset(
            rng, 5, 2, 2, (2, 3), (4, 3), identity_outputs=True, orthonormal_w=True
        )
        trans = model.transitions[0]
        pack = _IdentityOutputNonsubsetPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y[trans.plan.permutation],
            trans.residual, trans.weights, "free", trans.workspace.s_hat, trans.plan.n_matched,
        )
    else:
        model, ds = make_random_two_level(rng, 5, 3, (2, 3), (2, 3))
        trans = model.transitions[0]
        pack = _ResidualPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights,
            "free",
        )
    return pack, pack.pack()


@pytest.mark.parametrize("kind", ["tgp-latent", "tgp-identity", "residual-latent", "collapsed"])
def test_gradient_stays_valid_after_later_objective_calls(kind):
    # A gradient callable owns what it reads: resolved after the objective
    # has scored (and differentiated) other points, it is bitwise the
    # gradient of a fresh pack at its own point.
    pack, point = _pack_at_a_point(kind)
    _, gradient = pack.objective(point)
    for shift in (1e-2, -2e-2):
        value, later = pack.objective(point + shift)
        assert np.isfinite(value)
        later()
    fresh, _ = _pack_at_a_point(kind)
    assert np.array_equal(gradient(), fresh.objective(point)[1]())


@pytest.mark.parametrize("broken", ["value", "gradient"])
def test_stage2_objective_is_inf_where_the_core_is_not_finite(monkeypatch, broken):
    # A core that returns NaN without raising never hands the optimizer a
    # point it can accept: the objective itself scores a NaN value (inf, 0),
    # and a NaN alpha reaches the W part of the gradient, which shows once
    # the gradient is resolved (eager) and which the optimizer refuses.
    rng = np.random.default_rng(34)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    pack = _ResidualPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights, "free",
    )
    real = _ResidualPack._core

    def nan_core(self, model, weights):
        value, grams, adjoint = real(self, model, weights)

        def nan_adjoint():
            gbars, d_noise, alpha, w_cov_grads = adjoint()
            return gbars, d_noise, np.full_like(alpha, np.nan), w_cov_grads

        return (np.nan, grams, adjoint) if broken == "value" else (value, grams, nan_adjoint)

    monkeypatch.setattr(_ResidualPack, "_core", nan_core)
    p = pack.pack()
    if broken == "value":
        value, grad = pack.objective(p)
    else:
        value, grad = eager(pack.objective)(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))
    with pytest.raises(ValueError, match="not finite at the initial point"):
        minimize(pack.objective, p)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def planted_dataset(rng, n_low=18, n_high=8, modes=(2, 2), noise=1e-6):
    """High fidelity is an exact per-mode linear map of the low fidelity."""
    X_l = rng.uniform(0, 1, size=(n_low, 2))
    # a smooth low-fidelity field driven by the inputs
    Y_l = np.stack(
        [
            np.sin(2 * np.pi * x[0]) * np.ones(modes)
            + 0.5 * np.cos(np.pi * x[1]) * np.arange(modes[0] * modes[1]).reshape(modes) / 4.0
            for x in X_l
        ]
    )
    w_true = [np.array([[1.2, 0.3], [-0.4, 0.9]]), np.array([[0.7, -0.2], [0.1, 1.1]])]
    from mfgar.tensalg import tucker_apply

    Y_h = tucker_apply(Y_l[:n_high], w_true, mode_offset=1)
    ds = MultiFidelityDataset([(X_l, Y_l), (X_l[:n_high], Y_h)])
    return ds, w_true


def test_fit_planted_linear_map_residual_vanishes():
    rng = np.random.default_rng(13)
    ds, w_true = planted_dataset(rng)
    cfg = GarConfig(optim=OptimConfig(max_iters=600, step=0.05, tol=1e-10))
    model = gar_fit_subset(ds, cfg)
    res = model.transitions[0].residual
    # planted exact map: the fitted weights absorb (nearly) all the signal
    assert float(np.abs(res.Y).max()) < 1e-2
    pred_train = gar_predict(model, ds.levels[1].X)
    assert float(np.max(np.abs(pred_train.mean - ds.levels[1].Y))) < 1e-3


def test_residual_shares_latent_coordinates_only_across_aligned_levels():
    # With latent outputs on aligned levels the residual takes over the low
    # level's latent coordinates and holds them fixed; across unaligned
    # levels it draws and trains its own.  Sharing is not a setting.
    from mfgar.tensalg import tucker_apply

    ds, _ = planted_dataset(np.random.default_rng(40))
    X_l, Y_l = ds.levels[0].X, ds.levels[0].Y
    w_wide = [np.array([[1.0, 0.5], [0.2, 1.0], [0.3, -0.3]]), np.eye(2)]
    Y_wide = tucker_apply(Y_l[:8], w_wide, mode_offset=1)
    unaligned = MultiFidelityDataset([(X_l, Y_l), (X_l[:8], Y_wide)])
    config = GarConfig(OptimConfig(max_iters=20), identity_outputs=False)
    for data, kept in ((ds, True), (unaligned, False)):
        model = gar_fit_subset(data, config)
        low = model.low.output_features.coords
        res = model.transitions[0].residual.output_features
        assert res.mode_sizes == data.levels[1].mode_sizes
        same = [a.shape == b.shape and np.array_equal(a, b) for a, b in zip(low, res.coords)]
        assert all(same) if kept else not any(same)
    names = [f.name for f in fields(GarConfig)]
    assert names == ["optim", "identity_outputs", "w_mode"]


def test_fit_identity_weights_zero_residual_graceful():
    rng = np.random.default_rng(14)
    X_l = rng.uniform(size=(12, 2))
    Y_l = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((2, 2)) + x[1] for x in X_l])
    ds = MultiFidelityDataset([(X_l, Y_l), (X_l[:4], Y_l[:4].copy())])
    cfg = GarConfig(
        optim=OptimConfig(max_iters=300, step=0.05, tol=1e-10),
        w_mode="identity",
    )
    model = gar_fit_subset(ds, cfg)
    res = model.transitions[0].residual
    assert float(np.abs(res.Y).max()) == 0.0
    assert res.noise <= 1e-2  # degenerates to (near) the noise floor
    pred = gar_predict(model, X_l[1])
    assert np.max(np.abs(pred.mean - Y_l[1])) < 1e-2


def test_fit_subset_rejects_nonsubset_data():
    rng = np.random.default_rng(15)
    ds = MultiFidelityDataset(
        [(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 2))), (rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2)))]
    )
    with pytest.raises(ValueError, match="non-subset"):
        gar_fit_subset(ds, GarConfig())


def test_fitted_model_keeps_separability_identity():
    rng = np.random.default_rng(16)
    ds, _ = planted_dataset(rng, n_low=8, n_high=3, noise=1e-4)
    cfg = GarConfig(optim=OptimConfig(max_iters=40))
    model = gar_fit_subset(ds, cfg)
    parts = tgp_nll(model.low) + tgp_nll(model.transitions[0].residual)
    assert_allclose(parts, gar_joint_nll_dense(model, ds), rtol=1e-8)


# ---------------------------------------------------------------------------
# Scalar-transfer baseline
# ---------------------------------------------------------------------------


def test_ar_baseline_recovers_planted_scale():
    rng = np.random.default_rng(17)
    X_l = rng.uniform(0, 1, size=(16, 2))
    Y_l = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((2, 2)) + x[1] for x in X_l])
    Y_h = 2.0 * Y_l[:6]
    ds = MultiFidelityDataset([(X_l, Y_l), (X_l[:6], Y_h)])
    cfg = GarConfig(optim=OptimConfig(max_iters=300, step=0.05))
    model = ar_baseline_fit(ds, cfg)
    assert model.kind == "ar"
    assert abs(model.rho - 2.0) < 1e-2


def test_ar_baseline_rejects_unaligned():
    rng = np.random.default_rng(18)
    ds = MultiFidelityDataset(
        [(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 3))), (rng.uniform(size=(3, 2)) * 0 + rng.uniform(size=(3, 2)) * 0, rng.uniform(size=(3, 2)))]
    )
    with pytest.raises(ValueError, match="aligned"):
        ar_baseline_fit(ds, GarConfig())


def test_zero_rho_degenerates_to_high_only_tgp():
    rng = np.random.default_rng(19)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    for f in trans.weights.factors:
        f[:] = np.eye(2) * 0.0
    trans.residual.Y = ds.levels[1].Y.copy()
    q = rng.uniform(-1, 1, size=(2, 2))
    fused = gar_predict(model, q)
    alone = tgp_predict(trans.residual, q)
    assert_allclose(fused.mean, alone.mean, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Recursion over more than two fidelities
# ---------------------------------------------------------------------------


def test_recursive_two_levels_equals_subset_fit():
    rng = np.random.default_rng(20)
    ds, _ = planted_dataset(rng, n_low=10, n_high=4)
    cfg = GarConfig(optim=OptimConfig(max_iters=30))
    a = gar_fit_subset(ds, cfg)
    b = gar_fit_recursive(ds, cfg)
    q = rng.uniform(0, 1, size=(3, 2))
    pa, pb = gar_predict(a, q), gar_predict(b, q)
    assert_allclose(pa.mean, pb.mean, rtol=1e-12)
    assert_allclose(pa.variance_diag, pb.variance_diag, rtol=1e-12)


def test_recursive_middle_equals_top_collapse():
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(12, 2))
    Y1 = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((2, 2)) + x[1] for x in X])
    Y2 = 1.5 * Y1[:6] + 0.1
    ds3 = MultiFidelityDataset([(X, Y1), (X[:6], Y2), (X[:6], Y2.copy())])
    ds2 = MultiFidelityDataset([(X, Y1), (X[:6], Y2)])
    cfg = GarConfig(optim=OptimConfig(max_iters=80), w_mode="identity")
    m3 = gar_fit_recursive(ds3, cfg)
    m2 = gar_fit_recursive(ds2, cfg)
    q = rng.uniform(0, 1, size=(4, 2))
    p3, p2 = gar_predict(m3, q), gar_predict(m2, q)
    assert np.max(np.abs(p3.mean - p2.mean)) < 1e-3


def test_three_level_separability_identity():
    # The chain of per-level likelihoods equals the dense three-block joint.
    rng = np.random.default_rng(24)
    X = rng.uniform(0, 1, size=(8, 2))
    Y1 = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((2, 2)) + x[1] for x in X])
    Y2 = 1.4 * Y1[:5] + 0.1 * rng.standard_normal((5, 2, 2))
    Y3 = 0.7 * Y2[:2] + 0.05 * rng.standard_normal((2, 2, 2))
    ds = MultiFidelityDataset([(X, Y1), (X[:5], Y2), (X[:2], Y3)])
    cfg = GarConfig(optim=OptimConfig(max_iters=40))
    model = gar_fit_recursive(ds, cfg)
    parts = tgp_nll(model.low) + sum(tgp_nll(t.residual) for t in model.transitions)
    assert_allclose(parts, gar_joint_nll_dense(model, ds), rtol=1e-8)


def test_recursive_three_level_chain_beats_top_pair_alone():
    rng = np.random.default_rng(22)
    n1, n2, n3 = 36, 18, 5
    X = rng.uniform(0, 1, size=(n1, 2))
    f = lambda x: np.stack([np.sin(2 * np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])], axis=1)
    Y1 = f(X).reshape(n1, 2, 1)
    Y2 = 1.3 * Y1[:n2] + 0.05 * np.sin(3 * X[:n2, :1])[:, :, None]
    Y3 = 0.8 * Y2[:n3] + 0.02 * np.cos(2 * X[:n3, :1])[:, :, None]
    ds3 = MultiFidelityDataset([(X, Y1), (X[:n2], Y2), (X[:n3], Y3)])
    ds_top = MultiFidelityDataset([(X[:n2], Y2), (X[:n3], Y3)])
    cfg = GarConfig(optim=OptimConfig(max_iters=150, step=0.05))
    chain = gar_fit_recursive(ds3, cfg)
    pair = gar_fit_recursive(ds_top, cfg)
    Xq = rng.uniform(0, 1, size=(64, 2))
    truth = 0.8 * (1.3 * f(Xq).reshape(-1, 2, 1) + 0.05 * np.sin(3 * Xq[:, :1])[:, :, None]) + 0.02 * np.cos(
        2 * Xq[:, :1]
    )[:, :, None]
    rmse_chain = float(np.sqrt(np.mean((gar_predict(chain, Xq).mean - truth) ** 2)))
    rmse_pair = float(np.sqrt(np.mean((gar_predict(pair, Xq).mean - truth) ** 2)))
    assert rmse_chain < rmse_pair


# ---------------------------------------------------------------------------
# A shared base level (low=)
# ---------------------------------------------------------------------------


def shared_base_designs(rng, unmatched: int):
    """Two datasets on one low-fidelity level, with 4 and 6 high-fidelity rows."""
    X_l = rng.uniform(0, 1, size=(10, 2))
    grid_l, grid_h = np.linspace(0, 1, 3), np.linspace(0, 1, 4)
    f = lambda X, g: np.sin(2 * np.pi * (X[:, :1] + g[None, :])) + X[:, 1:2]
    X_new = rng.uniform(0, 1, size=(unmatched, 2))
    out = []
    for n_high in (4, 6):
        X_h = np.vstack([X_l[: n_high - unmatched], X_new])
        out.append(MultiFidelityDataset([(X_l, f(X_l, grid_l)), (X_h, 1.3 * f(X_h, grid_h))]))
    return out


@pytest.mark.parametrize("unmatched", [0, 2])
@pytest.mark.parametrize("kind", ["gar", "cigar"])
def test_fit_given_the_base_of_another_design_is_bitwise_a_refit(kind, unmatched):
    from mfgar.cigar import cigar_fit

    fit = gar_fit_recursive if kind == "gar" else cigar_fit
    rng = np.random.default_rng(31 + unmatched)
    first_ds, ds = shared_base_designs(rng, unmatched)
    cfg = GarConfig(optim=OptimConfig(max_iters=12, seed=4))
    first = fit(first_ds, cfg)
    gar_predict(first, ds.levels[1].X)  # a used base, as a sweep hands it on
    shared = fit(ds, cfg, low=first.low)
    assert shared.low is first.low
    assert gar_to_dict(shared) == gar_to_dict(fit(ds, cfg))


def test_fit_refuses_a_base_of_other_data_or_covariance_kind():
    from mfgar.cigar import cigar_fit

    rng = np.random.default_rng(33)
    ds, _ = shared_base_designs(rng, 0)
    cfg = GarConfig(optim=OptimConfig(max_iters=3))
    latent = gar_fit_recursive(ds, cfg).low
    identity = cigar_fit(ds, cfg).low
    nudged = latent.Y.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    other = MultiFidelityDataset([(ds.levels[0].X, nudged), (ds.levels[1].X, ds.levels[1].Y)])
    with pytest.raises(ValueError, match="low: its Y"):
        gar_fit_recursive(other, cfg, low=latent)
    with pytest.raises(ValueError, match="low: latent output covariances"):
        cigar_fit(ds, cfg, low=latent)
    with pytest.raises(ValueError, match="low: identity output covariances"):
        gar_fit_recursive(ds, cfg, low=identity)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_gar_serialization_roundtrip():
    rng = np.random.default_rng(23)
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 3))
    doc = gar_to_dict(model, dataset_ref="synthetic")
    assert doc["schema"] == "mfgar/gar-4"
    back = gar_from_dict(doc)
    q = rng.uniform(-1, 1, size=(2, 2))
    assert_allclose(gar_predict(back, q).mean, gar_predict(model, q).mean, rtol=1e-12)
    assert_allclose(
        gar_predict(back, q).variance_diag, gar_predict(model, q).variance_diag, rtol=1e-12
    )
