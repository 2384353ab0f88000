"""Optimizer contracts: convergence, monotone trace, determinism, audit,
and the value-first protocol (gradients paid for only where read)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfgar.gar import _IdentityOutputNonsubsetPack, _ResidualPack
from mfgar.hogp import _TgpPack
from mfgar.optim import OptimConfig, minimize
from oracles import (
    eager,
    grad_audit,
    low_stack,
    make_random_nonsubset,
    make_random_tgp,
    make_random_two_level,
)


def quadratic_about(target):
    def objective(p):
        d = p - target
        return float(d @ d), lambda: 2.0 * d

    return objective


def rosenbrock(p):
    x, y = p
    f = (1 - x) ** 2 + 100.0 * (y - x**2) ** 2
    g = np.array([-2 * (1 - x) - 400.0 * x * (y - x**2), 200.0 * (y - x**2)])
    return float(f), lambda: g


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
        return float(p[0] ** 2), lambda: np.array([2 * p[0], 0.0])

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
        return np.nan, lambda: np.zeros_like(p)

    with pytest.raises(ValueError):
        minimize(objective, np.zeros(2))


def test_backtracks_through_nonfinite_region():
    # Objective blows up for large steps; backtracking must recover.
    def objective(p):
        if abs(p[0]) > 2.0:
            return np.inf, lambda: np.zeros(1)
        return float(p[0] ** 2), lambda: 2.0 * p

    p, trace = minimize(objective, np.array([1.9]), OptimConfig(max_iters=200, step=10.0))
    assert abs(p[0]) < 1e-2
    objs = trace.objectives
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_never_accepts_a_nonfinite_gradient():
    # Finite values everywhere, but the gradient is NaN for p > 1.5: a step
    # landing there must be rejected like a non-finite value, and an initial
    # point there is refused.
    grads = []

    def objective(p):
        g = np.full(1, np.nan) if p[0] > 1.5 else 2.0 * (p - 3.0)
        grads.append(g)
        return float((p[0] - 3.0) ** 2), lambda: g

    p, trace = minimize(objective, np.array([0.0]), OptimConfig(max_iters=200, step=0.5))
    assert 1.0 < p[0] <= 1.5
    assert all(np.isfinite(r[2]) for r in trace.records)
    assert any(np.isnan(g).any() for g in grads)
    objs = trace.objectives
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    with pytest.raises(ValueError, match="gradient"):
        minimize(objective, np.array([2.0]))


def test_projection_hook_applied_to_every_accepted_step():
    # Constrain to the unit circle; every accepted iterate must satisfy it.
    seen = []

    def project(p):
        return p / np.linalg.norm(p)

    def objective(p):
        seen.append(np.linalg.norm(p))
        t = np.array([0.0, 1.0])
        d = p - t
        return float(d @ d), lambda: 2.0 * d

    p, _ = minimize(objective, np.array([1.0, 0.0]), OptimConfig(max_iters=100), project=project)
    assert_allclose(np.linalg.norm(p), 1.0, rtol=1e-12)
    assert all(abs(n - 1.0) < 1e-12 for n in seen)
    assert_allclose(p, [0.0, 1.0], atol=1e-3)


def test_gradient_runs_only_at_the_start_and_at_accepted_steps():
    # A quadratic that is +inf past |p| > 2, from a step large enough to
    # overshoot: candidates are rejected both for a higher value and for a
    # non-finite one.  The gradient runs exactly once at the start and once
    # per accepted step, each time at a point with a finite value no higher
    # than the current one, and before the objective's next call.
    values, grad_at, current = [], [], [np.inf]

    def objective(p):
        call = len(values)
        value = float(p @ p) if np.max(np.abs(p)) <= 2.0 else np.inf
        values.append(value)

        def gradient():
            assert len(values) == call + 1, "gradient read after the next call"
            assert np.isfinite(value) and value <= current[0]
            grad_at.append(call)
            current[0] = value
            return 2.0 * p

        return value, gradient

    p, trace = minimize(objective, np.array([1.9, -1.2]), OptimConfig(max_iters=60, step=3.0))
    accepted = len(trace.records) - 1
    assert accepted > 0
    assert len(grad_at) == 1 + accepted
    assert [values[i] for i in grad_at] == trace.objectives
    rejected = [v for i, v in enumerate(values) if i not in grad_at]
    assert any(np.isinf(v) for v in rejected)
    assert any(np.isfinite(v) for v in rejected)


def _latent_tgp_pack():
    model = make_random_tgp(np.random.default_rng(70), 6, (3, 4))
    pack = _TgpPack(model)
    return pack, pack.pack(model)


def _residual_pack(w_mode):
    def build():
        rng = np.random.default_rng(71)
        identity = w_mode == "orthonormal"
        model, ds = make_random_two_level(rng, 7, 5, (2, 2), (3, 2), identity_outputs=identity)
        trans = model.transitions[0]
        pack = _ResidualPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights,
            w_mode,
        )
        return pack, pack.pack()

    return build


def _identity_output_nonsubset_pack():
    rng = np.random.default_rng(72)
    model, ds = make_random_nonsubset(rng, 6, 2, 2, (2, 3), (3, 3), identity_outputs=True)
    trans = model.transitions[0]
    pack = _IdentityOutputNonsubsetPack(
        low_stack(trans, ds.levels[0].Y), ds.levels[1].Y[trans.plan.permutation],
        trans.residual, trans.weights, "free", trans.workspace.s_hat, trans.plan.n_matched,
    )
    return pack, pack.pack()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_latent_tgp_pack, id="tgp-latent"),
        pytest.param(_residual_pack("free"), id="residual-free"),
        pytest.param(_residual_pack("orthonormal"), id="residual-orthonormal"),
        pytest.param(_identity_output_nonsubset_pack, id="identity-output-nonsubset"),
    ],
)
def test_deferred_gradients_are_bitwise_the_eager_ones(build):
    # Deferring the adjoint pass to the accepted points changes no bit of the
    # fit: the same iterate and trace as resolving every gradient at once,
    # with backtracks in the run, so some gradients are never paid for.
    cfg = OptimConfig(max_iters=40, step=0.05)
    pack, init = build()
    calls = []

    def counted(p):
        calls.append(None)
        return pack.objective(p)

    p_lazy, lazy = minimize(counted, init, cfg)
    pack, init = build()
    p_eager, want = minimize(eager(pack.objective), init, cfg)
    assert np.array_equal(p_lazy, p_eager)
    assert lazy.records == want.records
    assert len(calls) > len(lazy.records)


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
        return float(c @ p), lambda: c

    assert grad_audit(objective, np.zeros(3)) < 1e-8


def test_grad_audit_detects_corrupted_component():
    def objective(p):
        g = 2.0 * p
        g[1] *= 2.0  # deliberate fault
        return float(p @ p), lambda: g

    err = grad_audit(objective, np.array([1.0, 1.0, 1.0]))
    assert 0.5 < err < 2.0


def test_grad_audit_passes_correct_gradient():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A @ A.T + np.eye(4)

    def objective(p):
        return float(0.5 * p @ A @ p), lambda: A @ p

    assert grad_audit(objective, rng.standard_normal(4)) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimConfig(step=-1.0)


@pytest.mark.parametrize(
    "settings,field",
    [
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"),
        ({"step": float("nan")}, "step"),
        ({"step": float("inf")}, "step"),
        ({"step": -1.0}, "step"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": 0.0}, "tol"),
    ],
)
def test_config_refuses_each_bad_setting_by_name(settings, field):
    # A NaN step used to pass and make minimize backtrack 40 times and return
    # the initial point, a silent no-op fit.
    with pytest.raises(ValueError, match=f"OptimConfig.{field} must be"):
        OptimConfig(**settings)


def test_config_accepts_numpy_scalars():
    cfg = OptimConfig(max_iters=np.int64(3), step=np.float64(0.1), tol=np.float64(1e-6))
    assert minimize(quadratic_about(np.ones(2)), np.zeros(2), cfg)[1].stop == "max_iters"


def test_stop_converged():
    cfg = OptimConfig(max_iters=2000, step=0.1, tol=1e-12)
    _, trace = minimize(quadratic_about(np.array([1.5, -2.0])), np.zeros(2), cfg)
    assert trace.stop == "converged"
    assert trace.records[-1][0] < cfg.max_iters


def test_stop_max_iters():
    _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimConfig(max_iters=5))
    assert trace.stop == "max_iters"
    assert [r[0] for r in trace.records] == list(range(6))


def test_stop_line_search():
    # A gradient that points nowhere downhill: every step from the minimum
    # raises the value, so the backtracking gives up on the first iteration.
    def objective(p):
        return float(p @ p), lambda: np.ones_like(p)

    p, trace = minimize(objective, np.zeros(2), OptimConfig(max_iters=50))
    assert trace.stop == "line_search"
    assert len(trace.records) == 1 and np.array_equal(p, np.zeros(2))
