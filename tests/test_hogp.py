"""Tensor-variate GP: NLL pipeline vs dense oracle, gradients, prediction."""

import base64
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfgar.hogp as hogp
import mfgar.tensalg as tensalg
from mfgar.hogp import (
    FitConfig,
    TgpModel,
    _nll_core,
    _TgpPack,
    decode_array,
    encode_array,
    load_tgp,
    save_tgp,
    tgp_fit,
    tgp_from_dict,
    tgp_nll,
    tgp_predict,
    tgp_to_dict,
)
from mfgar.kernels import ArdKernelParams, LatentFeatures
from mfgar.optim import OptimConfig, minimize
from mfgar.tensalg import vec
from oracles import (
    count_gram_builds,
    dense_joint_cov,
    dense_tgp_adjoints,
    dense_tgp_nll,
    dense_tgp_predict,
    eager,
    grad_audit,
    make_random_tgp,
    reference_nll_core,
    sample_from_model,
    stored_arrays,
)


def test_nll_closed_form_scalar():
    # N=1, d=1, K = amplitude = 1, S = 1, noise = 1, y = 0.
    model = TgpModel(
        input_kernel=ArdKernelParams(0.0, np.zeros(1)),
        output_features=None,
        log_noise=0.0,
        X=np.zeros((1, 1)),
        Y=np.zeros((1, 1)),
    )
    expected = 0.5 * np.log(2 * np.pi) + 0.5 * np.log(2.0)
    assert_allclose(tgp_nll(model), expected, rtol=1e-12)


def test_nll_matches_dense_oracle_random():
    rng = np.random.default_rng(0)
    model = make_random_tgp(rng, 3, (2, 2))
    assert_allclose(tgp_nll(model), dense_tgp_nll(model), rtol=1e-8)


@pytest.mark.parametrize(
    "n,modes,identity",
    [
        (2, (3,), False),
        (4, (2, 3), False),
        (5, (2, 2, 2), False),
        (8, (5, 5), False),
        (6, (4,), True),
        (3, (2, 3, 2), True),
    ],
)
def test_nll_oracle_sweep(n, modes, identity):
    # Oracle equivalence across shapes with N*d <= 200.
    rng = np.random.default_rng(hash((n, modes)) % 2**32)
    model = make_random_tgp(rng, n, modes, identity_outputs=identity)
    assert n * model.output_size <= 200
    assert_allclose(tgp_nll(model), dense_tgp_nll(model), rtol=1e-8)


def test_nll_large_noise_limit():
    rng = np.random.default_rng(1)
    model = make_random_tgp(rng, 3, (2, 2), noise=1e8)
    n_total = 3 * 4
    # quad -> 0 and logdet -> N d log(noise)
    expected = 0.5 * (n_total * np.log(1e8) + n_total * np.log(2 * np.pi))
    assert_allclose(tgp_nll(model), expected, rtol=1e-5)


def test_nll_with_centering_offset():
    rng = np.random.default_rng(2)
    model = make_random_tgp(rng, 4, (3,))
    shifted = TgpModel(
        input_kernel=model.input_kernel,
        output_features=model.output_features,
        log_noise=model.log_noise,
        X=model.X,
        Y=model.Y + 5.0,
        offset=model.offset + 5.0,
    )
    assert_allclose(tgp_nll(shifted), tgp_nll(model), rtol=1e-12)


def duplicate_latent_row(model: TgpModel) -> TgpModel:
    """The model with two equal latent rows in mode 0, so S_0 is singular."""
    coords = [V.copy() for V in model.output_features.coords]
    coords[0][1] = coords[0][0]
    feats = LatentFeatures(coords, model.output_features.kernels)
    return replace(model, output_features=feats)


@pytest.mark.parametrize(
    "n,modes,identity,singular",
    [
        (4, (3,), False, False),
        (3, (2, 3), False, False),
        (4, (3,), True, False),
        (3, (2, 3), True, False),
        (1, (2, 3), False, False),
        (1, (3,), True, False),
        (4, (3, 2), False, True),
        (5, (3, 4), True, True),
    ],
)
def test_nll_core_adjoints_match_dense_adjoint(n, modes, identity, singular):
    # The eigenbasis adjoints equal 1/2 (Sigma^-1 - alpha alpha^T) contracted
    # against the other factors, also where an S eigenvalue is (numerically) 0.
    # The input-space adjoints of identity outputs match too, also where K is
    # singular (two equal inputs), the noise sits at its floor and the data,
    # drawn from the model, lies almost in K's range, where reading the data
    # through its Gram Y Y^T could lose digits.
    rng = np.random.default_rng(40 + 10 * n + len(modes))
    model = make_random_tgp(rng, n, modes, identity_outputs=identity, noise=0.05)
    if singular and identity:
        X = model.X.copy()
        X[1] = X[0]
        model = replace(model, X=X, log_noise=float(np.log(hogp.JITTER)))
        model = replace(model, Y=sample_from_model(rng, model))
        assert_allclose(model.noise, hogp.JITTER, rtol=1e-15)
    elif singular:
        model = duplicate_latent_row(model)
        lam = model.eigenfactors().values[1]
        assert lam.min() <= 1e-12 * lam.max()  # round-off, clamped at 0 when negative
    nll, _, adjoint = _nll_core(model)
    gbars, d_noise, alpha = adjoint()
    want, want_noise = dense_tgp_adjoints(model)
    assert_allclose(nll, dense_tgp_nll(model), rtol=1e-9)
    # identity outputs have the input Gram's adjoint only
    assert len(want) == len(modes) + 1
    assert len(gbars) == (1 if identity else len(want))
    for got, ref in zip(gbars, want):
        assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
    assert_allclose(d_noise, want_noise, rtol=1e-9)
    want_alpha = np.linalg.solve(dense_joint_cov(model), vec(model.centered))
    got_alpha = vec(alpha())
    assert_allclose(got_alpha, want_alpha, rtol=1e-9, atol=1e-9 * np.abs(want_alpha).max())


@pytest.mark.parametrize("modes,identity", [((3,), False), ((2, 3), False), ((2, 3), True)])
def test_objective_projects_once_and_rebuilds_no_factor(monkeypatch, modes, identity):
    # One latent evaluation rotates the data into the eigenbasis and stays
    # there: one mode product per factor, no dense factor matrix.  An
    # identity-output evaluation reads the fit's N x N data Gram and makes
    # no mode product at all.
    rng = np.random.default_rng(50)
    model = make_random_tgp(rng, 4, modes, identity_outputs=identity)
    pack = _TgpPack(model)
    point = pack.pack()
    modes_hit = []
    real = tensalg.mode_product

    def counted(tensor, matrix, mode, **kwargs):
        modes_hit.append(mode)
        return real(tensor, matrix, mode, **kwargs)

    def forbidden(self, k):
        raise AssertionError("dense factor rebuilt")

    monkeypatch.setattr(tensalg, "mode_product", counted)
    monkeypatch.setattr(tensalg.EigenFactors, "reconstruct", forbidden)
    _, gradient = pack.objective(point)
    gradient()
    assert sorted(modes_hit) == ([] if identity else list(range(len(modes) + 1)))


@pytest.mark.parametrize("modes,identity", [((3,), False), ((2, 3), False), ((2, 3), True)])
def test_objective_builds_each_gram_once_and_its_gradient_none(monkeypatch, modes, identity):
    # The value pass builds one Gram per factor (the input Gram, then each
    # latent output covariance) and the gradient pulls the adjoints back
    # through those parts, building none.
    rng = np.random.default_rng(52)
    model = make_random_tgp(rng, 4, modes, identity_outputs=identity)
    pack = _TgpPack(model)
    built = count_gram_builds(monkeypatch)
    _, gradient = pack.objective(pack.pack())
    want = [4] + ([] if identity else list(modes))
    assert built == want
    gradient()
    assert built == want


def assert_bitwise_core(got, want):
    nll, _, adjoint = got
    gbars, d_noise, alpha = adjoint()
    assert np.array_equal(nll, want[0]) and np.array_equal(d_noise, want[2])
    assert len(gbars) == len(want[1])
    for g, w in zip(gbars, want[1]):
        assert np.array_equal(g, w)
    alpha = alpha()
    assert alpha.shape == want[3].shape and np.array_equal(alpha, want[3])


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("modes", [(8,), (32, 32), (8, 8), (32, 8), (3, 4, 5)])
def test_nll_core_scratch_is_bitwise_the_allocating_reference(modes, identity):
    # The production core runs the reference's operations in the same order
    # and operand layouts, so the BLAS products and pairwise sums give the
    # same bits at every parameter point.  tgp_nll reads the same solve, so
    # it is the core's value bitwise.  An identity-output core given the
    # fit's once-built data Gram (_TgpPack.data_gram) is bitwise the one
    # that builds it per call.
    rng = np.random.default_rng(60 + len(modes))
    first = make_random_tgp(rng, 6, modes, identity_outputs=identity)
    second = replace(first, log_noise=first.log_noise + 0.7, Y=1.5 * first.Y + 0.2)
    for model in (first, second, first):
        want = reference_nll_core(replace(model))
        assert_bitwise_core(_nll_core(replace(model)), want)
        assert np.array_equal(tgp_nll(replace(model)), want[0])
        if identity:
            gram = _TgpPack(model).data_gram
            assert_bitwise_core(_nll_core(replace(model), gram), want)


def test_replace_drops_the_cached_eigenbasis():
    # The eigenbasis belongs to the model's inputs and parameters: a copy
    # made by replace() with other inputs factorizes its own, so its NLL is
    # bitwise that of the same model built from scratch.
    rng = np.random.default_rng(64)
    model = make_random_tgp(rng, 5, (3, 4))
    tgp_nll(model)  # caches the eigenbasis
    X2 = model.X + 0.5 * rng.standard_normal(model.X.shape)
    fresh = TgpModel(
        model.input_kernel, model.output_features, model.log_noise, X2, model.Y, model.offset
    )
    assert np.array_equal(tgp_nll(replace(model, X=X2)), tgp_nll(fresh))


def test_warm_identity_evaluation_is_independent_of_the_output_size(monkeypatch):
    # An identity-output fit reads its data through the N x N Gram built on
    # its first evaluation: a warm evaluation makes no mode product and its
    # traced peak is the same at 32 x 32 as at 64 x 64 outputs.
    import tracemalloc

    real, hits = tensalg.mode_product, []

    def counted(*args, **kwargs):
        hits.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(tensalg, "mode_product", counted)
    peaks = []
    for modes in ((32, 32), (64, 64)):
        rng = np.random.default_rng(62)
        model = make_random_tgp(rng, 8, modes, identity_outputs=True)
        pack = _TgpPack(model)
        point = pack.pack()
        pack.objective(point)[1]()
        pack.objective(point + 1e-3)  # the value pass alone
        assert hits == []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pack.objective(point + 2e-3)[1]()  # the value pass and the adjoint pass
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert hits == []
    # equal up to the interpreter's own bookkeeping, which drifts by a few
    # bytes between calls; one output-sized temporary is 64 or 256 KiB here
    assert abs(peaks[1] - peaks[0]) < 1024


def test_gradient_audit_all_parameters():
    # Finite differences are the oracle; production gradients are analytic.
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        model = make_random_tgp(rng, 3, (2, 2), noise=0.1)
        pack = _TgpPack(model)
        point = pack.pack()
        assert grad_audit(pack.objective, point, eps=1e-5) < 1e-4


def test_gradient_audit_identity_outputs():
    rng = np.random.default_rng(6)
    model = make_random_tgp(rng, 4, (3,), identity_outputs=True, noise=0.2)
    pack = _TgpPack(model)
    assert grad_audit(pack.objective, pack.pack(), eps=1e-5) < 1e-4


def bits(*arrays) -> list:
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def model_kernels(model) -> list:
    feats = model.output_features
    return [model.input_kernel] + ([] if feats is None else feats.kernels)


@pytest.mark.parametrize("kind", ["identity", "latent", "frozen"])
def test_pack_walks_the_kernel_grams_by_position(kind):
    # For each kernel Gram (the input kernel, then each latent output mode)
    # the vector holds the log amplitude and log lengthscales, then the
    # mode's coordinate rows unless frozen; the log noise comes last.
    # Unpacking the template's vector gives the template back bitwise, and
    # the gradient has one entry per vector entry.
    rng = np.random.default_rng(41)
    model = make_random_tgp(rng, 5, (3, 2), identity_outputs=kind == "identity")
    feats = model.output_features
    pack = _TgpPack(model, freeze_coords=kind == "frozen")
    entries = []  # (values, whether they are coordinate rows)
    for k, kern in enumerate(model_kernels(model)):
        entries += [([kern.log_amplitude], False), (kern.log_lengthscales, False)]
        if k > 0:
            entries.append((feats.coords[k - 1].ravel(), True))
    entries.append(([model.log_noise], False))
    trained = np.concatenate([a for a, _ in entries])
    is_coord = np.concatenate([np.full(np.size(a), c) for a, c in entries])
    p = pack.pack()
    assert bits(p) == bits(trained[~is_coord] if kind == "frozen" else trained)
    assert p.size == pack.size

    back = pack.unpack(p)
    assert (back.output_features is None) == (feats is None)
    for a, b in zip(model_kernels(back), model_kernels(model), strict=True):
        assert bits(a.log_amplitude, a.log_lengthscales) == bits(
            b.log_amplitude, b.log_lengthscales
        )
    if feats is not None:
        assert bits(*back.output_features.coords) == bits(*feats.coords)
    assert bits(back.log_noise, back.X, back.Y, back.offset) == bits(
        model.log_noise, model.X, model.Y, model.offset
    )

    _, grams, adjoint = _nll_core(model)
    gbars, d_noise, _ = adjoint()
    gradient = pack.chain(model, grams, gbars, d_noise)
    assert gradient.shape == (pack.size,)
    if kind == "frozen":
        # the trained-coordinate layout's gradient, less its coordinate entries
        full = _TgpPack(model).chain(model, grams, gbars, d_noise)
        assert bits(gradient) == bits(full[~is_coord])


@pytest.mark.parametrize("empty", ["X", "Y"])
def test_tgp_fit_refuses_empty_data(empty):
    rng = np.random.default_rng(0)
    data = {"X": rng.uniform(size=(3, 2)), "Y": rng.uniform(size=(3, 4))}
    data[empty] = data[empty][:0]
    with pytest.raises(ValueError, match=f"^tgp_fit: {empty} has no samples"):
        tgp_fit(data["X"], data["Y"])


def test_fit_constant_outputs():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(10, 2))
    Y = np.full((10, 2, 2), 3.7)
    model, trace = tgp_fit(X, Y, FitConfig(optim=OptimConfig(max_iters=60)))
    pred = tgp_predict(model, np.array([0.5, 0.5]))
    assert np.max(np.abs(pred.mean - 3.7)) < 1e-3
    objs = trace.objectives
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_fit_recovers_lengthscale_within_factor_two():
    rng = np.random.default_rng(9)
    true = TgpModel(
        input_kernel=ArdKernelParams(0.0, [np.log(0.3)]),
        output_features=None,
        log_noise=np.log(1e-4),
        X=np.linspace(0, 1, 30)[:, None],
        Y=np.zeros((30, 1)),
    )
    Y = sample_from_model(rng, true)
    model, _ = tgp_fit(
        true.X, Y, FitConfig(identity_outputs=True, optim=OptimConfig(max_iters=300, step=0.05))
    )
    fitted = model.input_kernel.lengthscales[0]
    assert 0.15 < fitted < 0.6


def test_predict_interpolates_training_data():
    rng = np.random.default_rng(10)
    model = make_random_tgp(rng, 5, (2, 2), noise=1e-6)
    pred = tgp_predict(model, model.X[2])
    assert np.max(np.abs(pred.mean - model.Y[2])) < 1e-4


def test_predict_prior_reversion_far_field():
    rng = np.random.default_rng(11)
    model = make_random_tgp(rng, 4, (3,), noise=0.04)
    far = np.array([50.0, -40.0])
    pred = tgp_predict(model, far)
    assert np.max(np.abs(pred.mean - model.offset)) < 1e-8
    from oracles import dense_output_cov

    expected = model.input_kernel.amplitude * np.diag(dense_output_cov(model)) + model.noise
    assert_allclose(pred.variance_diag.ravel(), expected, rtol=1e-6)


def test_predict_matches_dense_conditional():
    rng = np.random.default_rng(12)
    model = make_random_tgp(rng, 4, (2, 3), noise=0.1)
    Xq = rng.uniform(-1, 1, size=(3, 2))
    pred = tgp_predict(model, Xq)
    mean_d, var_d = dense_tgp_predict(model, Xq)
    assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-10)
    assert_allclose(pred.variance_diag, var_d, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("identity", [False, True])
def test_predict_oracle_sweep(identity):
    rng = np.random.default_rng(13 + identity)
    for n, modes in [(2, (2,)), (5, (3, 2)), (7, (2, 2, 2))]:
        model = make_random_tgp(rng, n, modes, identity_outputs=identity, noise=0.07)
        Xq = rng.uniform(-1, 1, size=(2, 2))
        pred = tgp_predict(model, Xq)
        mean_d, var_d = dense_tgp_predict(model, Xq)
        assert_allclose(pred.mean, mean_d, rtol=1e-7, atol=1e-10)
        assert_allclose(pred.variance_diag, var_d, rtol=1e-6, atol=1e-10)


def test_predict_offset_uncentered():
    rng = np.random.default_rng(15)
    model = make_random_tgp(rng, 4, (2,))
    shifted = TgpModel(
        input_kernel=model.input_kernel,
        output_features=model.output_features,
        log_noise=model.log_noise,
        X=model.X,
        Y=model.Y + 2.0,
        offset=model.offset + 2.0,
    )
    q = np.array([0.1, -0.2])
    assert_allclose(tgp_predict(shifted, q).mean, tgp_predict(model, q).mean + 2.0, rtol=1e-10)


def test_variance_nonnegative_and_information_monotone():
    rng = np.random.default_rng(16)
    model = make_random_tgp(rng, 5, (2, 2), noise=0.02)
    q = np.array([0.3, 0.4])
    before = tgp_predict(model, q)
    assert np.all(before.variance_diag >= 0)
    # Add a training observation at the query point: variance must drop.
    X2 = np.vstack([model.X, q])
    Y2 = np.concatenate([model.Y, np.zeros((1, 2, 2))])
    bigger = TgpModel(
        input_kernel=model.input_kernel,
        output_features=model.output_features,
        log_noise=model.log_noise,
        X=X2,
        Y=Y2,
    )
    after = tgp_predict(bigger, q)
    assert np.all(after.variance_diag < before.variance_diag)


def test_noise_floor_enforced():
    model = TgpModel(
        input_kernel=ArdKernelParams(0.0, np.zeros(1)),
        output_features=None,
        log_noise=np.log(1e-12),
        X=np.zeros((1, 1)),
        Y=np.zeros((1, 1)),
    )
    assert model.noise >= 1e-6


def test_pack_objective_is_inf_where_the_eigen_step_fails():
    # An input amplitude past the float range makes the Gram non-finite,
    # which sym_eig refuses: the objective scores +inf, which the optimizer
    # backtracks from, instead of raising.
    rng = np.random.default_rng(31)
    model = make_random_tgp(rng, 4, (2, 3))
    pack = _TgpPack(model)
    p = pack.pack()
    p[0] = 800.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        value, grad = pack.objective(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))



@pytest.mark.parametrize("fault", ["kernel-gram", "data-gram", "indefinite"])
def test_identity_objective_is_inf_where_the_input_space_step_fails(monkeypatch, fault):
    # The input-space route refuses a non-finite kernel or data Gram, which
    # LAPACK's Cholesky would factor into NaN entries without an error, and a
    # K + noise I that is not positive definite: the objective scores
    # (inf, 0), which the optimizer backtracks from, instead of raising.
    import mfgar.kernels as kernels

    rng = np.random.default_rng(35)
    model = make_random_tgp(rng, 4, (2, 3), identity_outputs=True)
    if fault == "data-gram":
        model = replace(model, Y=1e200 * model.Y)
    pack = _TgpPack(model)
    p = pack.pack()
    if fault == "indefinite":
        real = kernels.ard_gram_parts

        def indefinite(params, X1, X2):
            diff, d2, K = real(params, X1, X2)
            K -= 10.0 * np.eye(len(K))
            return diff, d2, K

        monkeypatch.setattr(kernels, "ard_gram_parts", indefinite)
    if fault == "kernel-gram":
        p[0] = 800.0
        with pytest.warns(RuntimeWarning, match="overflow"):
            value, grad = pack.objective(p)
    else:
        with np.errstate(over="ignore"):
            value, grad = pack.objective(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))


@pytest.mark.parametrize("broken", ["value", "gradient"])
def test_pack_objective_is_inf_where_the_core_is_not_finite(monkeypatch, broken):
    # A core that returns NaN without raising never hands the optimizer a
    # point it can accept: the objective itself scores a NaN value (inf, 0),
    # and a NaN adjoint leaves a NaN gradient, which shows once the gradient
    # is resolved (eager) and which the optimizer refuses.
    rng = np.random.default_rng(33)
    model = make_random_tgp(rng, 4, (2, 3))
    pack = _TgpPack(model)
    real = hogp._nll_core

    def nan_core(m, *args):
        nll, grams, adjoint = real(m, *args)

        def nan_adjoint():
            gbars, _, alpha = adjoint()
            return gbars, np.nan, alpha

        return (np.nan, grams, adjoint) if broken == "value" else (nll, grams, nan_adjoint)

    monkeypatch.setattr(hogp, "_nll_core", nan_core)
    p = pack.pack()
    if broken == "value":
        value, grad = pack.objective(p)
    else:
        value, grad = eager(pack.objective)(p)
    assert value == np.inf
    assert np.array_equal(grad(), np.zeros(pack.size))
    with pytest.raises(ValueError, match="not finite at the initial point"):
        minimize(pack.objective, p)

def test_serialization_roundtrip():
    rng = np.random.default_rng(17)
    model = make_random_tgp(rng, 4, (2, 3))
    doc = tgp_to_dict(model, dataset_ref="synthetic")
    assert doc["schema"] == "mfgar/tgp-3"
    assert "shapes" not in doc  # every payload carries its own shape
    back = tgp_from_dict(doc)
    assert np.array_equal(tgp_nll(back), tgp_nll(model))
    q = rng.uniform(-1, 1, size=2)
    assert np.array_equal(tgp_predict(back, q).mean, tgp_predict(model, q).mean)


def test_serialization_rejects_unknown_schema():
    with pytest.raises(ValueError):
        tgp_from_dict({"schema": "bogus"})


@pytest.mark.parametrize("identity_outputs", [False, True], ids=["latent", "identity"])
def test_bundle_arrays_roundtrip_bitwise(identity_outputs, tmp_path):
    rng = np.random.default_rng(18)
    model = make_random_tgp(rng, 5, (3, 2), identity_outputs=identity_outputs)
    model = replace(model, offset=rng.standard_normal((3, 2)))
    path = tmp_path / "model.json"
    save_tgp(model, path)
    back = load_tgp(path)
    before, after = stored_arrays(model), stored_arrays(back)
    assert after.keys() == before.keys()
    for name, a in before.items():
        assert after[name].dtype == a.dtype, name
        assert np.array_equal(after[name], a), name
    q = rng.uniform(-1, 1, size=(3, 2))
    assert np.array_equal(tgp_predict(back, q).variance_diag, tgp_predict(model, q).variance_diag)
    save_tgp(back, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()


def test_array_payload_is_typed_base64():
    a = np.arange(6.0).reshape(2, 3) - 2.5
    payload = encode_array(a)
    assert payload["dtype"] == "<f8" and payload["shape"] == [2, 3]
    assert base64.b64decode(payload["data"]) == a.astype("<f8").tobytes()
    idx = encode_array(np.array([3, 0, 7]))
    assert idx["dtype"] == "<i8"
    back = decode_array(idx, "idx")
    assert back.dtype == np.int64 and back.tolist() == [3, 0, 7]
    assert decode_array(encode_array(np.array([], int)), "empty").shape == (0,)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda p: p.update(dtype="<f4"), "unsupported dtype '<f4'"),
        (lambda p: p.update(dtype=">f8"), "unsupported dtype '>f8'"),
        (lambda p: p.update(shape=[2, 4]), "48 bytes of data, shape \\[2, 4\\] needs 64"),
        (lambda p: p.update(data=p["data"][:-4]), "45 bytes of data, shape \\[2, 3\\] needs 48"),
        (lambda p: p.update(data="not base64!"), "data is not base64"),
    ],
    ids=["f4", "big-endian", "shape", "truncated", "garbage"],
)
def test_decoder_rejects_malformed_payload(edit, match):
    payload = encode_array(np.ones((2, 3)))
    edit(payload)
    with pytest.raises(ValueError, match="Y: " + match):
        decode_array(payload, "Y")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bundle_rejects_non_finite_training_data(bad):
    rng = np.random.default_rng(19)
    model = make_random_tgp(rng, 4, (2,))
    Y = model.Y.copy()
    Y[1, 0] = bad
    doc = tgp_to_dict(model)
    doc["Y"] = encode_array(Y)
    with pytest.raises(ValueError, match="^Y: non-finite"):
        tgp_from_dict(doc)


def test_serialization_rejects_previous_schema():
    rng = np.random.default_rng(20)
    doc = tgp_to_dict(make_random_tgp(rng, 3, (2,)))
    doc["schema"] = "mfgar/tgp-2"
    with pytest.raises(ValueError, match="'mfgar/tgp-2'"):
        tgp_from_dict(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_refuses_non_finite_log_noise(bad):
    # A NaN or infinite log noise would otherwise survive the noise floor
    # (max(nan, floor) is nan) and make every prediction non-finite.
    model = make_random_tgp(np.random.default_rng(21), 3, (2,))
    with pytest.raises(ValueError, match="log_noise must be finite"):
        replace(model, log_noise=bad)
