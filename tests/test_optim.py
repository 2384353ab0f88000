"""Optimizer contracts: convergence, monotone trace, determinism, audit."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.optim import OptimConfig, minimize
from oracles import grad_audit


def quadratic_about(target):
    def objective(p):
        d = p - target
        return float(d @ d), 2.0 * d

    return objective


def rosenbrock(p):
    x, y = p
    f = (1 - x) ** 2 + 100.0 * (y - x**2) ** 2
    g = np.array([-2 * (1 - x) - 400.0 * x * (y - x**2), 200.0 * (y - x**2)])
    return float(f), g


def test_quadratic_converges():
    target = np.array([1.5, -2.0, 0.25])
    cfg = OptimConfig(max_iters=2000, step=0.1, tol=1e-12)
    p, _ = minimize(quadratic_about(target), np.zeros(3), cfg)
    assert np.max(np.abs(p - target)) < 1e-4


def test_rosenbrock_benchmark():
    cfg = OptimConfig(max_iters=2000, step=0.05, tol=1e-14)
    p, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert trace.objectives[-1] < 1e-3


def test_zero_gradient_coordinate_untouched():
    def objective(p):
        return float(p[0] ** 2), np.array([2 * p[0], 0.0])

    p, _ = minimize(objective, np.array([3.0, 1.23]), OptimConfig(max_iters=200))
    assert p[1] == 1.23


def test_trace_monotone_nonincreasing():
    cfg = OptimConfig(max_iters=500, step=0.05)
    _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    objs = trace.objectives
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))


def test_determinism():
    cfg = OptimConfig(max_iters=300, step=0.02, seed=42)
    _, t1 = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    _, t2 = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert t1.records == t2.records


def test_nonfinite_at_init_rejected():
    def objective(p):
        return np.nan, np.zeros_like(p)

    with pytest.raises(ValueError):
        minimize(objective, np.zeros(2))


def test_backtracks_through_nonfinite_region():
    # Objective blows up for large steps; backtracking must recover.
    def objective(p):
        if abs(p[0]) > 2.0:
            return np.inf, np.zeros(1)
        return float(p[0] ** 2), 2.0 * p

    p, trace = minimize(objective, np.array([1.9]), OptimConfig(max_iters=200, step=10.0))
    assert abs(p[0]) < 1e-2
    objs = trace.objectives
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_projection_hook_applied_to_every_accepted_step():
    # Constrain to the unit circle; every accepted iterate must satisfy it.
    seen = []

    def project(p):
        return p / np.linalg.norm(p)

    def objective(p):
        seen.append(np.linalg.norm(p))
        t = np.array([0.0, 1.0])
        d = p - t
        return float(d @ d), 2.0 * d

    p, _ = minimize(objective, np.array([1.0, 0.0]), OptimConfig(max_iters=100), project=project)
    assert_allclose(np.linalg.norm(p), 1.0, rtol=1e-12)
    assert all(abs(n - 1.0) < 1e-12 for n in seen)
    assert_allclose(p, [0.0, 1.0], atol=1e-3)


def test_trace_csv(tmp_path):
    _, trace = minimize(quadratic_about(np.ones(2)), np.zeros(2), OptimConfig(max_iters=20))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,objective,grad_norm"
    assert len(lines) == len(trace.records) + 1


def test_grad_audit_linear_objective_near_exact():
    c = np.array([2.0, -3.0, 0.5])

    def objective(p):
        return float(c @ p), c

    assert grad_audit(objective, np.zeros(3)) < 1e-8


def test_grad_audit_detects_corrupted_component():
    def objective(p):
        g = 2.0 * p
        g[1] *= 2.0  # deliberate fault
        return float(p @ p), g

    err = grad_audit(objective, np.array([1.0, 1.0, 1.0]))
    assert 0.5 < err < 2.0


def test_grad_audit_passes_correct_gradient():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A @ A.T + np.eye(4)

    def objective(p):
        return float(0.5 * p @ A @ p), A @ p

    assert grad_audit(objective, rng.standard_normal(4)) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimConfig(step=-1.0)
