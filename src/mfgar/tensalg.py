"""Kronecker, Tucker and Kruskal tensor algebra plus eigendecomposition solves.

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
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

# Tolerance for the symmetry pre-check in sym_eig (relative to matrix scale).
SYM_TOL = 1e-10
# Relative threshold below which slightly negative Gram eigenvalues are
# treated as round-off and clamped to zero.
NEG_EIG_TOL = 1e-12


def vec(tensor: np.ndarray) -> np.ndarray:
    """Flatten a tensor in the package's fixed (C-order) layout."""
    return np.asarray(tensor).reshape(-1)


def unvec(vector: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`vec`: restore a tensor of the given mode sizes."""
    vector = np.asarray(vector)
    shape = tuple(int(s) for s in shape)
    if vector.size != int(np.prod(shape)):
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
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    shape = tensor.shape
    if shape[mode] != matrix.shape[1]:
        raise ValueError(
            f"mode {mode} has size {shape[mode]}, factor expects {matrix.shape[1]}"
        )
    mode = mode % tensor.ndim
    pre = int(np.prod(shape[:mode]))
    post = int(np.prod(shape[mode + 1 :]))
    if post == 1:
        # operands in the order tensordot passes them to the GEMM
        out = (matrix @ tensor.reshape(pre, shape[mode]).T).T
    else:
        out = np.matmul(matrix, tensor.reshape(pre, shape[mode], post))
    return out.reshape(shape[:mode] + (matrix.shape[0],) + shape[mode + 1 :])


def tucker_apply(tensor: np.ndarray, factors, mode_offset: int = 0) -> np.ndarray:
    """Apply a sequence of mode products, factor m at mode ``m + mode_offset``.

    ``None`` entries stand for identity factors and are skipped (used by the
    identity-output-covariance models to avoid touching those modes).
    """
    out = np.asarray(tensor)
    for m, factor in enumerate(factors):
        if factor is None:
            continue
        out = mode_product(out, factor, m + mode_offset)
    return out


def kron_all(mats) -> np.ndarray:
    """Dense Kronecker product of a list of matrices, mode-first order."""
    mats = [np.atleast_2d(np.asarray(m)) for m in mats]
    return reduce(np.kron, mats)


def kruskal_outer(vectors) -> np.ndarray:
    """Outer product of vectors: ``out[i, j, ..] = v0[i] * v1[j] * ..``."""
    out = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        out = np.multiply.outer(out, np.asarray(v, dtype=float))
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
    if not np.all(np.isfinite(a)):
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


def _clamp_psd(values: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues of a PSD Gram matrix (round-off)."""
    top = max(values.max(initial=0.0), 0.0)
    out = values.copy()
    out[out < 0] = np.where(np.abs(out[out < 0]) <= NEG_EIG_TOL * max(top, 1.0), 0.0, out[out < 0])
    return out


@dataclass
class EigenFactors:
    """Cached eigendecompositions of an input Gram K and output factors S_m.

    ``vectors[k]`` may be ``None`` to denote an identity factor of size
    ``len(values[k])`` (then ``values[k]`` is all ones); this is how the
    identity-output-covariance models avoid allocating or factorizing any
    d_m x d_m matrix.
    """

    vectors: list = field(default_factory=list)
    values: list = field(default_factory=list)

    @classmethod
    def from_matrices(cls, mats) -> "EigenFactors":
        """Factorize a list of PSD matrices; ints denote identity factors."""
        vectors, values = [], []
        for m in mats:
            if isinstance(m, (int, np.integer)):
                vectors.append(None)
                values.append(np.ones(int(m)))
            else:
                U, lam = sym_eig(m)
                vectors.append(U)
                values.append(_clamp_psd(lam))
        return cls(vectors, values)

    @property
    def factor_sizes(self) -> tuple:
        return tuple(len(v) for v in self.values)

    def joint_values(self, noise: float) -> np.ndarray:
        """Tensor of joint eigenvalues ``lam (o) lam_1 (o) .. + noise``."""
        return kruskal_outer(self.values) + noise

    def project(self, tensor: np.ndarray, mode_offset: int = 0) -> np.ndarray:
        """Rotate a tensor into the joint eigenbasis (apply U^T per mode)."""
        return tucker_apply(
            tensor, [None if U is None else U.T for U in self.vectors], mode_offset
        )

    def unproject(self, tensor: np.ndarray, mode_offset: int = 0) -> np.ndarray:
        """Rotate back from the joint eigenbasis (apply U per mode)."""
        return tucker_apply(tensor, self.vectors, mode_offset)

    def reconstruct(self, k: int) -> np.ndarray:
        """Dense k-th factor matrix (mainly for oracles and serialization)."""
        U, lam = self.vectors[k], self.values[k]
        if U is None:
            return np.diag(lam)
        return (U * lam) @ U.T


def kron_quad_and_logdet(eigs: EigenFactors, noise: float, Y: np.ndarray):
    """Quadratic form and log-determinant of ``(K (x) S_1 .. + noise I)``.

    Returns ``(quad, logdet)`` with ``quad = vec(Y)^T Sigma^{-1} vec(Y)`` and
    ``logdet = log|Sigma|``, computed entirely from the factor
    eigendecompositions: project Y into the joint eigenbasis, divide by the
    joint eigenvalues plus noise, and read the determinant off the diagonal.
    """
    if not noise > 0:
        raise ValueError("noise variance must be positive")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != eigs.factor_sizes:
        raise ValueError(f"tensor shape {Y.shape} does not match factors {eigs.factor_sizes}")
    A = eigs.joint_values(noise)
    T1 = eigs.project(Y)
    quad = float(np.sum(T1 * T1 / A))
    logdet = float(np.sum(np.log(A)))
    return quad, logdet
