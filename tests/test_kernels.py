"""ARD kernel and latent-feature output covariances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.kernels import (
    ArdKernelParams,
    LatentFeatures,
    ard_gram,
    ard_gram_adjoint,
    ard_gram_parts,
    output_cov,
)
from oracles import make_random_tgp


def test_zero_distance_gives_amplitude():
    params = ArdKernelParams(np.log(2.5), np.log([0.7, 1.3]))
    x = np.array([[0.4, -1.2]])
    assert_allclose(ard_gram(params, x, x), [[2.5]], rtol=1e-14)


def test_entry_decays_monotonically_with_distance():
    params = ArdKernelParams(0.0, np.log([1.0]))
    x0 = np.array([[0.0]])
    dists = np.linspace(0.0, 10.0, 30)[:, None]
    vals = ard_gram(params, x0, dists).ravel()
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-8


def test_gram_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    params = ArdKernelParams(np.log(1.7), np.log([0.5, 2.0]))
    X = rng.standard_normal((5, 2))
    K = ard_gram(params, X, X)
    expected = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            d2 = sum((X[i, k] - X[j, k]) ** 2 / params.lengthscales[k] ** 2 for k in range(2))
            expected[i, j] = params.amplitude * np.exp(-d2)
    assert_allclose(K, expected, rtol=1e-12)


@pytest.mark.parametrize("dims", [1, 2, 5, 7, 8, 9])
@pytest.mark.parametrize("rows", [1, 6, 33])
def test_gram_is_bitwise_the_sum_over_scaled_distances(dims, rows):
    # The Gram has the bits of the plain sum over the last axis of
    # (n1, n2, l) distances, whatever the number of dimensions.
    rng = np.random.default_rng(dims * 100 + rows)
    params = ArdKernelParams(0.3, rng.uniform(-1.0, 1.0, size=dims))
    X1 = rng.standard_normal((rows, dims))
    X2 = rng.standard_normal((rows + 2, dims))
    d2 = ((X1[:, None, :] - X2[None, :, :]) / params.lengthscales) ** 2
    want = params.amplitude * np.exp(-d2.sum(axis=2))
    diff, got_d2, K = ard_gram_parts(params, X1, X2)
    assert np.array_equal(got_d2, d2.transpose(2, 0, 1)) and np.array_equal(K, want)


def test_gram_psd_and_translation_invariant():
    rng = np.random.default_rng(1)
    params = ArdKernelParams(np.log(0.9), np.log([1.1, 0.4, 2.0]))
    X = rng.standard_normal((12, 3))
    K = ard_gram(params, X, X)
    min_eig = np.linalg.eigvalsh(0.5 * (K + K.T)).min()
    assert min_eig >= -1e-8 * params.amplitude
    shift = np.array([3.0, -1.0, 0.5])
    assert_allclose(ard_gram(params, X + shift, X + shift), K, rtol=1e-10, atol=1e-12)


def test_dimension_mismatch_raises():
    params = ArdKernelParams(0.0, np.log([1.0, 1.0]))
    with pytest.raises(ValueError):
        ard_gram(params, np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ard_gram(params, np.zeros((2, 2)), np.zeros((2, 3)))


def test_nonfinite_params_rejected():
    with pytest.raises(ValueError):
        ArdKernelParams(np.nan, np.zeros(1))


def test_param_grads_match_finite_differences():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 2))
    gbar = rng.standard_normal((4, 4))
    params = ArdKernelParams(0.3, np.array([-0.2, 0.4]))
    grads, rows = ard_gram_adjoint(params, ard_gram_parts(params, X, X), gbar)
    assert rows is None
    eps = 1e-6
    raw = np.array([params.log_amplitude, *params.log_lengthscales])
    for i, g in enumerate(grads):
        bump = raw.copy()
        bump[i] += eps
        plus = ard_gram(ArdKernelParams(bump[0], bump[1:]), X, X)
        bump[i] -= 2 * eps
        minus = ard_gram(ArdKernelParams(bump[0], bump[1:]), X, X)
        assert_allclose(g, np.sum(gbar * (plus - minus)) / (2 * eps), rtol=1e-5, atol=1e-8)


def test_input_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 2))
    W = rng.standard_normal((4, 4))
    params = ArdKernelParams(0.1, np.array([0.2, -0.3]))
    _, g = ard_gram_adjoint(params, ard_gram_parts(params, X, X), W, rows=True)
    eps = 1e-6
    for a in range(4):
        for k in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[a, k] += eps
            Xm[a, k] -= eps
            fd = (np.sum(W * ard_gram(params, Xp, Xp)) - np.sum(W * ard_gram(params, Xm, Xm))) / (
                2 * eps
            )
            assert_allclose(g[a, k], fd, rtol=1e-5, atol=1e-8)


def test_adjoint_equals_explicit_gram_partials_bitwise():
    # The pull-back is the contraction of gbar with each explicit partial
    # dK/dtheta, and the row gradient the explicit sum over the partners.
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 3))
    gbar = rng.standard_normal((6, 6))
    params = ArdKernelParams(0.2, np.array([0.1, -0.4, 0.3]))
    K = ard_gram(params, X, X)
    diff = X[:, None, :] - X[None, :, :]
    d2 = (diff / params.lengthscales) ** 2
    partials = [K] + [K * (2.0 * d2[:, :, k]) for k in range(3)]
    coeff = ((gbar + gbar.T) * K)[:, :, None] * (-2.0 * diff / params.lengthscales**2)
    grads, rows = ard_gram_adjoint(params, ard_gram_parts(params, X, X), gbar, rows=True)
    assert np.array_equal(grads, [np.sum(gbar * dK) for dK in partials])
    assert np.array_equal(rows, coeff.sum(axis=1))


@pytest.mark.parametrize("rows", [False, True])
def test_adjoint_from_the_value_pass_parts_is_bitwise_from_fresh_parts(rows):
    # The value pass returns each Gram's parts, here after another model's
    # evaluation; the pull-back from them is bitwise the pull-back from parts
    # built afresh.
    from mfgar.hogp import _nll_core

    rng = np.random.default_rng(8)
    other = make_random_tgp(rng, 5, (4, 3))
    model = make_random_tgp(rng, 5, (4, 3))
    _nll_core(other)
    _, grams, _ = _nll_core(model)
    kerns = [model.input_kernel, *model.output_features.kernels]
    inputs = [model.X, *model.output_features.coords]
    assert len(grams) == len(kerns)
    for kern, X, parts in zip(kerns, inputs, grams):
        fresh = ard_gram_parts(kern, X, X)
        assert all(np.array_equal(a, b) for a, b in zip(parts, fresh))
        gbar = rng.standard_normal((len(X), len(X)))
        got = ard_gram_adjoint(kern, parts, gbar, rows=rows)
        want = ard_gram_adjoint(kern, fresh, gbar, rows=rows)
        assert np.array_equal(got[0], want[0])
        assert (got[1] is None and want[1] is None) if not rows else np.array_equal(got[1], want[1])


def test_output_cov_identical_rows_constant_matrix():
    V = np.ones((4, 2))
    feats = LatentFeatures([V], [ArdKernelParams(np.log(1.5), np.zeros(2))])
    assert_allclose(output_cov(feats, 0), 1.5 * np.ones((4, 4)), rtol=1e-14)


def test_output_cov_far_separated_rows_near_identity():
    V = 100.0 * np.eye(3)
    feats = LatentFeatures([V], [ArdKernelParams(0.0, np.zeros(3))])
    assert_allclose(output_cov(feats, 0), np.eye(3), atol=1e-10)


def test_output_cov_delegates_to_ard_gram():
    rng = np.random.default_rng(4)
    V = rng.standard_normal((5, 2))
    kern = ArdKernelParams(0.2, np.array([0.1, -0.1]))
    feats = LatentFeatures([V], [kern])
    assert np.array_equal(output_cov(feats, 0), ard_gram(kern, V, V))


def test_output_cov_rotation_invariance_isotropic():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((6, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    kern = ArdKernelParams(0.0, np.zeros(3))
    f1 = LatentFeatures([V], [kern])
    f2 = LatentFeatures([V @ q], [kern])
    assert_allclose(output_cov(f1, 0), output_cov(f2, 0), rtol=1e-10, atol=1e-12)


def test_output_cov_mode_out_of_range():
    feats = LatentFeatures.initialize((3,))
    with pytest.raises(IndexError):
        output_cov(feats, 1)


def test_latent_initialize_deterministic():
    a = LatentFeatures.initialize((4, 3), seed=7)
    b = LatentFeatures.initialize((4, 3), seed=7)
    assert a.mode_sizes == (4, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a.coords, b.coords))
    # default rank is min(d_m, 2)
    assert a.coords[0].shape == (4, 2)
