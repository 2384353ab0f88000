"""Kronecker, Tucker and Kruskal tensor algebra, eigen solves and the polar factor.

Tensors are plain :class:`numpy.ndarray` objects.  The package-wide layout
convention is fixed here once and for all:

* ``vec`` flattens in C order (the *last* mode varies fastest), and Kronecker
  factors are ordered mode-first, so for an M-mode tensor ``T`` and
  conformable matrices ``W_1 .. W_M``::

      vec(T x_1 W_1 x_2 W_2 ... x_M W_M) == kron(W_1, W_2, ..., W_M) @ vec(T)

* A data tensor with shape ``(N, d_1, .., d_M)`` (sample mode first) pairs
  with a covariance ``K (x) S_1 (x) ... (x) S_M`` acting on its ``vec``.

Everything in this module is pure and reentrant.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

# Tolerance for the symmetry pre-check in sym_eig (relative to matrix scale).
SYM_TOL = 1e-10
# Relative threshold below which slightly negative Gram eigenvalues are
# treated as round-off and clamped to zero.
NEG_EIG_TOL = 1e-12


def as_float(a, ndim: int = 0) -> np.ndarray:
    """``np.asarray(a, dtype=float)``, made at least ``ndim``-dimensional (1 or 2) by
    ``np.atleast_1d`` or ``np.atleast_2d``.

    A float64 ndarray of rank ``ndim`` or more, which those calls would
    return unchanged, is returned as it is without them.
    """
    if type(a) is np.ndarray and a.dtype == np.float64 and a.ndim >= ndim:
        return a
    a = np.asarray(a, dtype=float)
    return np.atleast_1d(a) if ndim == 1 else np.atleast_2d(a) if ndim == 2 else a


def vec(tensor: np.ndarray) -> np.ndarray:
    """Flatten a tensor in the package's fixed (C-order) layout."""
    return np.asarray(tensor).reshape(-1)


def unvec(vector: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`vec`: restore a tensor of the given mode sizes."""
    vector = np.asarray(vector)
    shape = tuple(int(s) for s in shape)
    if vector.size != math.prod(shape):
        raise ValueError(f"cannot unvec length {vector.size} into shape {shape}")
    return vector.reshape(shape)


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-matrix product at one mode.

    ``result[.., j, ..] = sum_k matrix[j, k] * tensor[.., k, ..]`` with the
    contraction at axis ``mode``; the mode size changes from ``matrix.shape[1]``
    to ``matrix.shape[0]``.

    The tensor is viewed as ``(pre, n_mode, post)`` and multiplied as one
    (batched) matrix product, so no axis is moved and, except at the last
    mode, the result comes back C-contiguous for the next product.
    """
    if type(tensor) is not np.ndarray:
        tensor = np.asarray(tensor)
    if type(matrix) is not np.ndarray:
        matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    shape = tensor.shape
    if shape[mode] != matrix.shape[1]:
        raise ValueError(
            f"mode {mode} has size {shape[mode]}, factor expects {matrix.shape[1]}"
        )
    mode = mode % tensor.ndim
    pre = math.prod(shape[:mode])
    post = math.prod(shape[mode + 1 :])
    rows = matrix.shape[0]
    if post == 1:
        # operands in the order tensordot passes them to the GEMM
        res = np.matmul(matrix, tensor.reshape(pre, shape[mode]).T).T
    else:
        res = np.matmul(matrix, tensor.reshape(pre, shape[mode], post))
    return res.reshape(shape[:mode] + (rows,) + shape[mode + 1 :])


def tucker_apply(tensor: np.ndarray, factors, mode_offset: int = 0) -> np.ndarray:
    """Apply a sequence of mode products, factor m at mode ``m + mode_offset``."""
    result = np.asarray(tensor)
    for m, factor in enumerate(factors):
        result = mode_product(result, factor, m + mode_offset)
    return result


def kron_all(mats) -> np.ndarray:
    """Dense Kronecker product of a list of matrices, mode-first order."""
    mats = [np.atleast_2d(np.asarray(m)) for m in mats]
    return reduce(np.kron, mats)


def kruskal_outer(vectors) -> np.ndarray:
    """Outer product of vectors: ``out[i, j, ..] = v0[i] * v1[j] * ..``."""
    out = as_float(vectors[0])
    for v in vectors[1:]:
        out = np.multiply.outer(out, as_float(v))
    return out


# ---------------------------------------------------------------------------
# Symmetric eigendecomposition with call-size instrumentation
# ---------------------------------------------------------------------------

_EIG_TRACE: list[list[int]] = []


@contextlib.contextmanager
def track_eig_sizes():
    """Record the sizes of all sym_eig factorizations inside the block.

    Yields a list that accumulates one integer (the matrix dimension) per
    call; used to assert complexity claims (e.g. that a CIGAR fit never
    factorizes an output-mode covariance).
    """
    sizes: list[int] = []
    _EIG_TRACE.append(sizes)
    try:
        yield sizes
    finally:
        _EIG_TRACE.remove(sizes)


def sym_eig(matrix: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized internally provided its asymmetry is below
    ``SYM_TOL`` relative to its magnitude. Returns ``(vectors, values)`` with
    eigenvectors in columns, so ``vectors @ diag(values) @ vectors.T``
    reconstructs the input.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eig expects a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("sym_eig: matrix has non-finite entries")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > SYM_TOL * scale:
        raise ValueError("sym_eig: matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    for sizes in _EIG_TRACE:
        sizes.append(a.shape[0])
    return vectors[:, order], values[order]


def polar(f: np.ndarray):
    """Polar factor ``q = u vh`` of a tall full-rank ``f = u diag(s) vh`` (thin SVD).

    ``q`` is the nearest orthonormal-column matrix to ``f``.  Returns ``(q,
    pullback)``; ``pullback(g)`` maps a gradient in ``q`` to one in ``f`` with
    the same SVD: ``u [(m - m^T) / (s_i + s_j)] vh + (I - u u^T) g vh^T
    diag(1/s) vh``, ``m = u^T g vh^T`` (Higham, *Functions of Matrices*,
    ch. 8).  The thin SVD is LAPACK's ``gesdd`` through numpy.  A wide or
    rank-deficient ``f``, whose factor is not unique, raises ``ValueError``,
    and so does one holding NaN or inf, which ``gesdd`` would turn into NaN
    singular values without an error.
    """
    if f.shape[0] < f.shape[1]:
        raise ValueError("cannot orthonormalize more columns than rows")
    if not np.isfinite(f).all():
        raise ValueError("cannot orthonormalize a factor holding NaN or inf")
    u, s, vh = np.linalg.svd(f, full_matrices=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise ValueError("rank-deficient weight factor cannot be orthonormalized")

    def pullback(g: np.ndarray) -> np.ndarray:
        gv = g @ vh.T
        m = u.T @ gv
        return (u @ ((m - m.T) / (s[:, None] + s)) + (gv - u @ m) / s) @ vh

    return u @ vh, pullback


def _clamp_psd(values: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues of a PSD Gram matrix (round-off)."""
    top = max(values.max(initial=0.0), 0.0)
    out = values.copy()
    neg = out < 0
    low = out[neg]
    out[neg] = np.where(np.abs(low) <= NEG_EIG_TOL * max(top, 1.0), 0.0, low)
    return out


@dataclass
class EigenFactors:
    """Cached eigendecompositions of an input Gram K and output factors S_m.

    Only latent-output models have one: identity output covariances are
    solved in input space and never factorize an eigenbasis.
    """

    vectors: list = field(default_factory=list)
    values: list = field(default_factory=list)

    @classmethod
    def from_matrices(cls, mats) -> "EigenFactors":
        """Factorize a list of PSD matrices."""
        vectors, values = [], []
        for m in mats:
            U, lam = sym_eig(m)
            vectors.append(U)
            values.append(_clamp_psd(lam))
        return cls(vectors, values)

    def joint_values(self, noise: float) -> np.ndarray:
        """Tensor of joint eigenvalues ``lam (o) lam_1 (o) .. + noise``."""
        return kruskal_outer(self.values) + noise

    def project(self, tensor: np.ndarray) -> np.ndarray:
        """Rotate a tensor into the joint eigenbasis (apply U^T per mode)."""
        return tucker_apply(tensor, [U.T for U in self.vectors])

    def unproject(self, tensor: np.ndarray) -> np.ndarray:
        """Rotate back from the joint eigenbasis (apply U per mode)."""
        return tucker_apply(tensor, self.vectors)

    def reconstruct(self, k: int) -> np.ndarray:
        """Dense k-th factor matrix (mainly for oracles and serialization)."""
        U, lam = self.vectors[k], self.values[k]
        return (U * lam) @ U.T
