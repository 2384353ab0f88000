"""Gradient-based minimization shared by all model fits.

The optimizer is an adaptive first-order method: per-parameter step scaling
(RMSProp-style accumulator) with heavy-ball momentum, a monotone acceptance
rule, and backtracking whenever a candidate step fails to decrease the
objective or produces a non-finite value or gradient entry.  Momentum resets
on rejection, so the accepted-objective trace is non-increasing by
construction.

Objectives are callables ``f(params) -> (value, gradient)`` over a flat
parameter vector; constrained quantities are expected to be pre-mapped to
unconstrained coordinates (logs) or handled via the ``project`` hook.
"""

from __future__ import annotations

import csv
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
        if self.max_iters <= 0 or self.step <= 0 or self.tol <= 0:
            raise ValueError("OptimConfig fields must be positive")


@dataclass
class OptimTrace:
    """Accepted-step history: (iteration, objective, gradient norm) rows."""

    records: list = field(default_factory=list)

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


def _finite(value, grad) -> bool:
    return bool(np.isfinite(value) and np.all(np.isfinite(grad)))


def minimize(objective, init, config: OptimConfig = OptimConfig(), project=None):
    """Minimize a differentiable objective from ``init``.

    Parameters
    ----------
    objective : callable
        Maps a flat parameter vector to ``(value, gradient)``.
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
        Best-seen parameter vector and the accepted-step :class:`OptimTrace`.
    """
    p = np.asarray(init, dtype=float).copy()
    if project is not None:
        p = project(p)
    f, g = objective(p)
    g = np.asarray(g, dtype=float)
    if not _finite(f, g):
        raise ValueError("objective or its gradient is not finite at the initial point")

    trace = OptimTrace()
    trace.append(0, f, float(np.linalg.norm(g)))

    lr = config.step
    lr_cap = config.step * 1e3
    v = np.zeros_like(p)
    disp = np.zeros_like(p)
    small_changes = 0

    for it in range(1, config.max_iters + 1):
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        direction = g / (np.sqrt(v) + 1e-8)

        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = p - lr * direction + _MOMENTUM * disp
            if project is not None:
                cand = project(cand)
            f_c, g_c = objective(cand)
            if _finite(f_c, g_c) and f_c <= f:
                accepted = True
                break
            lr *= _SHRINK
            disp = np.zeros_like(p)
            if lr < 1e-18:
                break

        if not accepted:
            break

        disp = cand - p
        change = f - f_c
        p, f, g = cand, f_c, np.asarray(g_c, dtype=float)
        trace.append(it, f, float(np.linalg.norm(g)))
        lr = min(lr * _GROW, lr_cap)

        small_changes = small_changes + 1 if change <= config.tol * max(1.0, abs(f)) else 0
        if small_changes >= 2:
            break

    return p, trace
