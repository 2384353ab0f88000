"""Evaluation metrics: RMSE over test fields and per-entry Gaussian NLL.

The NLL metric omits the (2 pi) constant, so perfectly calibrated unit
variances score zero; predictive variances are floored to keep the log
finite.
"""

from __future__ import annotations

import numpy as np

VARIANCE_FLOOR = 1e-12


def _stack(fields) -> np.ndarray:
    arr = np.asarray(fields, dtype=float)
    if arr.ndim < 2:
        raise ValueError("expected a batch of fields")
    return arr


def rmse(predictions, truths) -> float:
    """Root mean squared error over every entry of every test field."""
    p, t = _stack(predictions), _stack(truths)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def nll_metric(means, variance_diags, truths) -> float:
    """Average per-entry Gaussian negative log likelihood, constant omitted.

    sum over entries of [ log(v)/2 + (y - mu)^2 / (2 v) ] / count, with
    variances floored at ``VARIANCE_FLOOR``.
    """
    mu, v, y = _stack(means), _stack(variance_diags), _stack(truths)
    if not (mu.shape == v.shape == y.shape):
        raise ValueError("means, variances and truths must share a shape")
    v = np.clip(v, VARIANCE_FLOOR, None)
    return float(np.mean(0.5 * np.log(v) + (y - mu) ** 2 / (2.0 * v)))
