"""Tensor-algebra substrate: vec convention, Tucker products, eigen solves, polar factor."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.hogp import TgpModel, _solve
from mfgar.kernels import ArdKernelParams, LatentFeatures
from mfgar.tensalg import (
    EigenFactors,
    kron_all,
    kruskal_outer,
    mode_product,
    polar,
    sym_eig,
    track_eig_sizes,
    tucker_apply,
    unvec,
    vec,
)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def quad_logdet(eigs, noise, y):
    """``vec(y)^T Sigma^-1 vec(y)`` and ``log|Sigma|``, ``Sigma = K (x) S_1 .. + noise I``,
    from the factor eigenbasis as ``hogp._solve`` forms them."""
    A = eigs.joint_values(noise)
    T1 = eigs.project(y)
    return float(np.sum(T1 * (T1 / A))), float(np.sum(np.log(A)))


def solve_quad_logdet(y, noise):
    """:func:`quad_logdet` through ``hogp._solve`` on a TGP whose covariance is
    ``(1 + noise) I``: unit amplitudes, and inputs and latent output
    coordinates too far apart to correlate."""
    X = 100.0 * np.arange(len(y))[:, None]
    unit = ArdKernelParams(0.0, np.zeros(1))
    coords = [100.0 * np.arange(d)[:, None] for d in y.shape[1:]]
    feats = LatentFeatures(coords, [unit] * len(coords))
    model = TgpModel(unit, feats, np.log(noise), X, y)
    _, A, T1, At = _solve(model)
    return float(np.sum(T1 * At)), float(np.sum(np.log(A)))


def test_vec_layout_is_c_order():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(vec(t), [1.0, 2.0, 3.0, 4.0])


def test_vec_unvec_roundtrip_three_modes():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 3, 4))
    assert np.array_equal(unvec(vec(t), t.shape), t)


def test_unvec_rejects_bad_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), (2, 3))


def test_vec_kronecker_identity_two_modes():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 3))
    w1 = rng.standard_normal((4, 2))
    w2 = rng.standard_normal((5, 3))
    out = tucker_apply(t, [w1, w2])
    assert_allclose(vec(out), kron_all([w1, w2]) @ vec(t), rtol=1e-12)


def test_vec_kronecker_identity_up_to_four_modes():
    rng = np.random.default_rng(2)
    for shape in [(2,), (2, 3), (2, 3, 2), (2, 2, 3, 2)]:
        t = rng.standard_normal(shape)
        mats = [rng.standard_normal((d + 1, d)) for d in shape]
        out = tucker_apply(t, mats)
        dense = kron_all(mats) @ vec(t)
        assert_allclose(vec(out), dense, rtol=1e-10, atol=1e-12)


def test_mixed_product_property():
    rng = np.random.default_rng(3)
    a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
    assert_allclose(kron_all([a, b]) @ kron_all([c, d]), kron_all([a @ c, b @ d]), rtol=1e-12)


def test_tucker_apply_identity_factors_noop():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4))
    out = tucker_apply(t, [np.eye(3), np.eye(4)])
    assert_allclose(out, t, rtol=1e-15)


def test_single_mode_product_matches_direct_summation():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 3))
    w = rng.standard_normal((5, 3))
    out = mode_product(t, w, 1)
    expected = np.empty((2, 5))
    for i in range(2):
        for j in range(5):
            expected[i, j] = sum(w[j, k] * t[i, k] for k in range(3))
    assert_allclose(out, expected, rtol=1e-12)


def test_mode_product_row_selection():
    # A selection matrix at the sample mode extracts the chosen slices.
    rng = np.random.default_rng(6)
    t = rng.standard_normal((5, 2, 3))
    sel = np.zeros((2, 5))
    sel[0, 3] = 1.0
    sel[1, 1] = 1.0
    out = mode_product(t, sel, 0)
    assert_allclose(out, t[[3, 1]])


def _einsum_mode_product(tensor, matrix, mode):
    letters = "abcdefgh"[: tensor.ndim]
    out = letters[:mode] + "z" + letters[mode + 1 :]
    return np.einsum(f"z{letters[mode]},{letters}->{out}", matrix, tensor)


def _strided_views(rng):
    base = rng.standard_normal((4, 6, 5, 8))
    return [
        base[:, ::2, :, 1::2],
        np.transpose(base, (2, 0, 3, 1)),
        np.asfortranarray(base),
        base[1:3, :, 2, :],
    ]


def test_mode_product_matches_einsum_on_strided_views():
    # Non-contiguous tensors and transposed matrix views, at every mode
    # including the last; all but the last come back C-contiguous.
    rng = np.random.default_rng(40)
    for t in _strided_views(rng):
        for mode in range(t.ndim):
            n = t.shape[mode]
            for mat in (rng.standard_normal((n + 1, n)), rng.standard_normal((n, 3)).T):
                out = mode_product(t, mat, mode)
                assert_allclose(out, _einsum_mode_product(t, mat, mode), rtol=1e-12, atol=1e-13)
                if mode < t.ndim - 1:
                    assert out.flags.c_contiguous


def test_tucker_apply_offset_matches_einsum_on_strided_views():
    rng = np.random.default_rng(41)
    for t in _strided_views(rng):
        for n_facs in range(1, t.ndim):
            # factors for the first n_facs modes after the offset
            facs = [rng.standard_normal((d, d + 1)).T for d in t.shape[1 : n_facs + 1]]
            expected = t
            for m, f in enumerate(facs):
                expected = _einsum_mode_product(expected, f, m + 1)
            out = tucker_apply(t, facs, mode_offset=1)
            assert_allclose(out, expected, rtol=1e-12, atol=1e-13)


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3)), np.zeros((4, 4)), 1)


def test_sym_eig_identity_and_diag():
    U, lam = sym_eig(np.eye(3))
    assert_allclose(lam, np.ones(3))
    U, lam = sym_eig(np.diag([3.0, 1.0]))
    assert_allclose(lam, [3.0, 1.0])
    assert_allclose(np.abs(U), np.eye(2), atol=1e-14)


def test_sym_eig_reconstruction_descending():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 5)
    U, lam = sym_eig(a)
    assert np.all(np.diff(lam) <= 0)
    assert_allclose(U @ np.diag(lam) @ U.T, a, rtol=1e-8)
    assert_allclose(U.T @ U, np.eye(5), atol=1e-8)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_kron_quad_logdet_scaled_identity():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((2, 3))
    quad, logdet = solve_quad_logdet(y, 1.0)
    assert_allclose(quad, np.sum(y**2) / 2.0, rtol=1e-12)
    assert_allclose(logdet, 6.0 * np.log(2.0), rtol=1e-12)


def test_kron_quad_logdet_zero_tensor():
    quad, _ = solve_quad_logdet(np.zeros((2, 3)), 0.5)
    assert quad == 0.0


def test_kron_quad_logdet_matches_dense():
    rng = np.random.default_rng(9)
    K = random_spd(rng, 4)
    S = random_spd(rng, 6, scale=0.5)
    noise = 0.3
    y = rng.standard_normal((4, 6))
    eigs = EigenFactors.from_matrices([K, S])
    quad, logdet = quad_logdet(eigs, noise, y)
    sigma = np.kron(K, S) + noise * np.eye(24)
    assert_allclose(quad, vec(y) @ np.linalg.solve(sigma, vec(y)), rtol=1e-8)
    assert_allclose(logdet, np.linalg.slogdet(sigma)[1], rtol=1e-8)


def test_kron_quad_logdet_three_factor_dense():
    rng = np.random.default_rng(10)
    mats = [random_spd(rng, n) for n in (3, 2, 4)]
    y = rng.standard_normal((3, 2, 4))
    eigs = EigenFactors.from_matrices(mats)
    quad, logdet = quad_logdet(eigs, 0.05, y)
    sigma = kron_all(mats) + 0.05 * np.eye(24)
    assert_allclose(quad, vec(y) @ np.linalg.solve(sigma, vec(y)), rtol=1e-8)
    assert_allclose(logdet, np.linalg.slogdet(sigma)[1], rtol=1e-8)


def test_logdet_noise_monotone():
    rng = np.random.default_rng(11)
    eigs = EigenFactors.from_matrices([random_spd(rng, 3), random_spd(rng, 2)])
    y = np.zeros((3, 2))
    logdets = [quad_logdet(eigs, s, y)[1] for s in (1e-4, 1e-2, 1.0, 10.0)]
    assert np.all(np.diff(logdets) > 0)


def test_track_eig_sizes_records_dimensions():
    rng = np.random.default_rng(14)
    with track_eig_sizes() as sizes:
        EigenFactors.from_matrices([random_spd(rng, 3), random_spd(rng, 5)])
    assert sizes == [3, 5]


def test_kruskal_outer():
    out = kruskal_outer([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    assert_allclose(out, np.outer([1.0, 2.0], [3.0, 4.0, 5.0]))


@pytest.mark.parametrize("shape", [(5, 5), (7, 3), (32, 8)])
def test_polar_pullback_matches_central_differences(shape):
    # The gradient of <C, polar(F)> in F, from the pullback that reuses the
    # factor's SVD, against central differences entry by entry.
    rng = np.random.default_rng(shape[0] * shape[1])
    f, c = rng.standard_normal(shape), rng.standard_normal(shape)
    q, pullback = polar(f)
    assert_allclose(q.T @ q, np.eye(shape[1]), atol=1e-12)
    eps = 1e-6
    fd = np.zeros(shape)
    for idx in np.ndindex(*shape):
        e = np.zeros(shape)
        e[idx] = eps
        fd[idx] = (np.sum(c * polar(f + e)[0]) - np.sum(c * polar(f - e)[0])) / (2.0 * eps)
    assert np.linalg.norm(pullback(c) - fd) <= 1e-7 * np.linalg.norm(fd)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polar_refuses_non_finite_factor(bad):
    # an SVD of a non-finite factor returns NaN singular values without an error
    f = np.random.default_rng(3).standard_normal((5, 3))
    f[2, 1] = bad
    with pytest.raises(ValueError):
        polar(f)
