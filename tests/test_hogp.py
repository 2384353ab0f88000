"""Tensor-variate GP: NLL pipeline vs dense oracle, gradients, prediction."""

import base64
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
from mfgar.kernels import ArdKernelParams, LaplacePrior, LatentFeatures
from mfgar.optim import OptimConfig
from mfgar.tensalg import vec
from oracles import (
    dense_joint_cov,
    dense_tgp_adjoints,
    dense_tgp_nll,
    dense_tgp_predict,
    grad_audit,
    make_random_tgp,
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
    return replace(model, output_features=feats, _eig=None)


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
    ],
)
def test_nll_core_adjoints_match_dense_adjoint(n, modes, identity, singular):
    # The eigenbasis adjoints equal 1/2 (Sigma^-1 - alpha alpha^T) contracted
    # against the other factors, also where an S eigenvalue is (numerically) 0.
    rng = np.random.default_rng(40 + 10 * n + len(modes))
    model = make_random_tgp(rng, n, modes, identity_outputs=identity, noise=0.05)
    if singular:
        model = duplicate_latent_row(model)
        lam = model.eigenfactors().values[1]
        assert lam.min() <= 1e-12 * lam.max()  # round-off, clamped at 0 when negative
    nll, gbars, d_noise, At = _nll_core(model)
    want, want_noise = dense_tgp_adjoints(model)
    assert_allclose(nll, dense_tgp_nll(model), rtol=1e-9)
    assert len(gbars) == len(want) == len(modes) + 1
    for k, (got, ref) in enumerate(zip(gbars, want)):
        if identity and k > 0:
            assert got is None
        else:
            assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
    assert_allclose(d_noise, want_noise, rtol=1e-9)
    alpha = np.linalg.solve(dense_joint_cov(model), vec(model.centered))
    got_alpha = vec(model.eigenfactors().unproject(At))
    assert_allclose(got_alpha, alpha, rtol=1e-9, atol=1e-9 * np.abs(alpha).max())


@pytest.mark.parametrize("modes,identity", [((3,), False), ((2, 3), False), ((2, 3), True)])
def test_objective_projects_once_and_rebuilds_no_factor(monkeypatch, modes, identity):
    # One evaluation rotates the data into the eigenbasis and stays there:
    # one mode product per non-identity factor, no dense factor matrix.
    rng = np.random.default_rng(50)
    model = make_random_tgp(rng, 4, modes, identity_outputs=identity)
    pack = _TgpPack(model, LaplacePrior(0.0))
    point = pack.pack(model)
    modes_hit = []
    real = tensalg.mode_product

    def counted(tensor, matrix, mode):
        modes_hit.append(mode)
        return real(tensor, matrix, mode)

    def forbidden(self, k):
        raise AssertionError("dense factor rebuilt")

    monkeypatch.setattr(tensalg, "mode_product", counted)
    monkeypatch.setattr(tensalg.EigenFactors, "reconstruct", forbidden)
    pack.objective(point)
    assert sorted(modes_hit) == ([0] if identity else list(range(len(modes) + 1)))


def test_gradient_audit_all_parameters():
    # Finite differences are the oracle; production gradients are analytic.
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        model = make_random_tgp(rng, 3, (2, 2), noise=0.1)
        pack = _TgpPack(model, LaplacePrior(0.0))
        point = pack.pack(model)
        assert grad_audit(pack.objective, point, eps=1e-5) < 1e-4


def test_gradient_audit_identity_outputs():
    rng = np.random.default_rng(6)
    model = make_random_tgp(rng, 4, (3,), identity_outputs=True, noise=0.2)
    pack = _TgpPack(model, LaplacePrior(0.0))
    assert grad_audit(pack.objective, pack.pack(model), eps=1e-5) < 1e-4


def test_gradient_audit_with_laplace_penalty():
    rng = np.random.default_rng(7)
    model = make_random_tgp(rng, 3, (3,), noise=0.1)
    pack = _TgpPack(model, LaplacePrior(0.4))
    assert grad_audit(pack.objective, pack.pack(model), eps=1e-5) < 1e-4


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


def test_laplace_prior_shrinks_latent_features():
    rng = np.random.default_rng(18)
    X = rng.uniform(0, 1, size=(12, 2))
    Y = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((3, 3)) + x[1] for x in X])
    cfg = OptimConfig(max_iters=120, step=0.05)
    free, _ = tgp_fit(X, Y, FitConfig(optim=cfg))
    from mfgar.kernels import LaplacePrior

    shrunk, _ = tgp_fit(X, Y, FitConfig(optim=cfg, laplace=LaplacePrior(50.0)))
    norm_free = sum(np.abs(V).sum() for V in free.output_features.coords)
    norm_shrunk = sum(np.abs(V).sum() for V in shrunk.output_features.coords)
    assert norm_shrunk < norm_free


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
    pack = _TgpPack(model, LaplacePrior(0.0))
    p = pack.pack(model)
    p[pack.slices["input"].start] = 800.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        value, grad = pack.objective(p)
    assert value == np.inf
    assert np.array_equal(grad, np.zeros(pack.size))


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
    model = replace(model, offset=rng.standard_normal((3, 2)), _eig=None)
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
