"""Metrics: RMSE and constant-omitting NLL."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.metrics import nll_metric, rmse


def test_rmse_zero_for_identical():
    rng = np.random.default_rng(0)
    fields = rng.standard_normal((4, 3, 3))
    assert rmse(fields, fields) == 0.0


def test_rmse_constant_offset():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((5, 2, 2))
    assert_allclose(rmse(t + 0.7, t), 0.7, rtol=1e-12)


def test_rmse_matches_naive_double_loop():
    rng = np.random.default_rng(2)
    p = rng.standard_normal((3, 2, 4))
    t = rng.standard_normal((3, 2, 4))
    acc, count = 0.0, 0
    for i in range(3):
        for j in range(2):
            for k in range(4):
                acc += (p[i, j, k] - t[i, j, k]) ** 2
                count += 1
    assert_allclose(rmse(p, t), np.sqrt(acc / count), rtol=1e-12)


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError):
        rmse(np.zeros((2, 3)), np.zeros((2, 4)))


def test_nll_perfect_mean_unit_variance_is_zero():
    y = np.random.default_rng(6).standard_normal((3, 2))
    assert_allclose(nll_metric(y, np.ones_like(y), y), 0.0, atol=1e-15)


def test_nll_log_term_only():
    y = np.zeros((2, 2))
    v = np.full((2, 2), np.e**2)
    assert_allclose(nll_metric(y, v, y), 1.0, rtol=1e-12)


def test_nll_matches_naive_per_entry():
    rng = np.random.default_rng(7)
    mu = rng.standard_normal((3, 4))
    v = rng.uniform(0.1, 2.0, size=(3, 4))
    y = rng.standard_normal((3, 4))
    acc = [0.5 * np.log(v[i, j]) + (y[i, j] - mu[i, j]) ** 2 / (2 * v[i, j]) for i in range(3) for j in range(4)]
    assert_allclose(nll_metric(mu, v, y), np.mean(acc), rtol=1e-12)


def test_nll_variance_floor():
    y = np.ones((1, 1))
    assert np.isfinite(nll_metric(y, np.zeros((1, 1)), y + 1.0))


def test_nll_stationary_at_squared_error():
    # per entry, the NLL is minimized over v at v = (y - mu)^2
    mu, y = np.zeros((1, 1)), np.full((1, 1), 0.8)
    v_star = 0.8**2
    best = nll_metric(mu, np.full((1, 1), v_star), y)
    for v in (0.5 * v_star, 0.9 * v_star, 1.1 * v_star, 2.0 * v_star):
        assert nll_metric(mu, np.full((1, 1), v), y) >= best


def test_nll_decreases_when_predictions_sharpen_correctly():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((4, 3))
    loose = nll_metric(y, np.full_like(y, 4.0), y)
    sharp = nll_metric(y, np.full_like(y, 0.25), y)
    assert sharp < loose
