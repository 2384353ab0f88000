"""Gradient-based minimization shared by all model fits.

The optimizer is an adaptive first-order method: per-parameter step scaling
(RMSProp-style accumulator) with heavy-ball momentum, a monotone acceptance
rule, and backtracking whenever a candidate step fails to decrease the
objective or produces a non-finite value or gradient entry.  Momentum resets
on rejection, so the accepted-objective trace is non-increasing by
construction.

Objectives are value-first: ``f(params) -> (value, gradient)`` over a flat
parameter vector, where ``gradient`` is a zero-argument callable returning
the gradient at ``params``.  ``minimize`` calls it only where it reads the
result: once at the initial point and once per candidate whose value is
finite and no higher than the current one.  A rejected backtrack therefore
costs one value pass and no adjoint.  Each fit's objective maps
unconstrained coordinates to its constrained quantities.  No caller in the
package passes ``project``.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OptimConfig:
    """Optimizer settings; deterministic given the seed."""

    max_iters: int = 200
    step: float = 1e-2
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # bool is an Integral; NaN fails every comparison, so test it explicitly
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError(f"OptimConfig.max_iters must be an integer >= 1, got {iters!r}")
        for name in ("step", "tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"OptimConfig.{name} must be finite and positive, got {value!r}")


@dataclass
class OptimTrace:
    """Accepted-step history: (iteration, objective, gradient norm) rows.

    ``stop`` says why :func:`minimize` stopped: ``"converged"`` (the
    relative decrease stayed under ``tol`` for two accepted steps),
    ``"max_iters"`` (the iteration budget ran out) or ``"line_search"`` (no
    step size found a finite point with a value no higher than the current
    one).
    """

    records: list = field(default_factory=list)
    stop: str | None = None

    @property
    def objectives(self) -> list:
        return [r[1] for r in self.records]

    def append(self, iteration: int, objective: float, grad_norm: float):
        self.records.append((iteration, float(objective), float(grad_norm)))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "objective", "grad_norm"])
            for rec in self.records:
                writer.writerow([rec[0], repr(rec[1]), repr(rec[2])])


_BETA2 = 0.9       # squared-gradient EMA for per-parameter scaling
_MOMENTUM = 0.8    # heavy-ball coefficient, reset on rejection
_GROW = 1.3        # step growth after an accepted step
_SHRINK = 0.5      # step backtracking factor
_MAX_BACKTRACKS = 40


def _finite_gradient(value, gradient):
    """The gradient as a float array when ``value`` and every entry are finite, else ``None``.

    ``gradient`` is called only for a finite value.
    """
    if not np.isfinite(value):
        return None
    g = np.asarray(gradient(), dtype=float)
    return g if np.isfinite(g).all() else None


def minimize(objective, init, config: OptimConfig = OptimConfig(), project=None):
    """Minimize a differentiable objective from ``init``.

    Parameters
    ----------
    objective : callable
        Maps a flat parameter vector to ``(value, gradient)``, ``gradient``
        a zero-argument callable (module docstring).
    init : array_like
        Starting point; the objective and its gradient must be finite here.
    config : OptimConfig
        Iteration/step/tolerance settings.
    project : callable, optional
        Applied to every candidate point before evaluation (e.g. a manifold
        retraction); every accepted iterate therefore satisfies it.

    Returns
    -------
    (params, trace)
        Best-seen parameter vector and the accepted-step :class:`OptimTrace`,
        whose ``stop`` gives the exit reason.
    """
    p = np.asarray(init, dtype=float).copy()
    if project is not None:
        p = project(p)
    f, gradient = objective(p)
    g = _finite_gradient(f, gradient)
    if g is None:
        raise ValueError("objective or its gradient is not finite at the initial point")

    trace = OptimTrace()
    trace.append(0, f, float(np.linalg.norm(g)))

    lr = config.step
    lr_cap = config.step * 1e3
    v = np.zeros_like(p)
    disp = np.zeros_like(p)
    small_changes = 0

    trace.stop = "max_iters"
    for it in range(1, config.max_iters + 1):
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        direction = g / (np.sqrt(v) + 1e-8)

        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = p - lr * direction + _MOMENTUM * disp
            if project is not None:
                cand = project(cand)
            f_c, gradient = objective(cand)
            if f_c <= f and (g_c := _finite_gradient(f_c, gradient)) is not None:
                accepted = True
                break
            lr *= _SHRINK
            disp = np.zeros_like(p)
            if lr < 1e-18:
                break

        if not accepted:
            trace.stop = "line_search"
            break

        disp = cand - p
        change = f - f_c
        p, f, g = cand, f_c, g_c
        trace.append(it, f, float(np.linalg.norm(g)))
        lr = min(lr * _GROW, lr_cap)

        small_changes = small_changes + 1 if change <= config.tol * max(1.0, abs(f)) else 0
        if small_changes >= 2:
            trace.stop = "converged"
            break

    return p, trace
