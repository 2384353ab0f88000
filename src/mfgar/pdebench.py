"""Deterministic multi-fidelity data generation from canonical PDE solvers.

Three benchmark problems produce 2-D solution fields over regular grids:

* viscous Burgers, ``u_t + u u_x = v u_xx`` on x in [0,1], t in [0,3],
  initial ``u = sin(pi x / 2)``, homogeneous Dirichlet walls; hat-function
  finite elements in space, backward Euler in time, Picard iteration for the
  nonlinearity.  Input: viscosity in [0.001, 0.1].  Field axes: (x, t).
* Poisson/Laplace on the unit square with constant Dirichlet values on the
  four borders and a pinned center, all five in [0.1, 0.9]; five-point
  center differencing.  Field axes: (x, y).
* heat, ``u_t = k u_xx`` on x in [0,1], t in [0,5], Neumann flux boundaries,
  box initial condition ``H(x - 0.25) - H(x - 0.75)``; conservative vertex
  finite differences, backward Euler.  Inputs: left flux in [0, 1], right
  flux in [-1, 0], conductivity in [0.01, 0.1].  Field axes: (x, t).

A fidelity is a per-axis node count, at least 2 per axis and 3 x-nodes for
Burgers (two walls and one interior node); the "main" variant uses 8x8 (low)
and 32x32 (high) meshes for every problem, the "appendix" variant coarsens
Burgers and heat at 16x16 instead.  The implicit Burgers and heat steps call
LAPACK ``gtsv`` on their three diagonals.  :func:`make_dataset` and
:func:`make_test_set` step all Burgers inputs of a design in lockstep: each
Picard sweep solves every row's system in one ``gtsv`` call on their
block-diagonal join, and each row's field is bitwise the one it gets alone
(see :func:`_burgers_fields`).  The Poisson operator depends on
the mesh alone, so each mesh's operator is factorized once per process and a
solve only assembles its right-hand side.  Fields are recorded on the
solver's own grid.  Everything here is deterministic: identical
inputs produce bit-identical fields, which is what lets :func:`solve_cache`
hand back a stored field in place of a repeated solve.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gar import MultiFidelityDataset

PDE_KINDS = ("burgers", "poisson", "heat")

INPUT_RANGES = {
    "burgers": [(0.001, 0.1)],
    "poisson": [(0.1, 0.9)] * 5,
    "heat": [(0.0, 1.0), (-1.0, 0.0), (0.01, 0.1)],
}

TIME_SPAN = {"burgers": 3.0, "heat": 5.0}


@dataclass(frozen=True)
class PdeSpec:
    """One benchmark problem with its meshes and input box."""

    kind: str
    input_ranges: tuple
    mesh_low: tuple
    mesh_high: tuple

    def __post_init__(self):
        if self.kind not in PDE_KINDS:
            raise ValueError(f"unknown pde kind {self.kind!r}")
        self._check_mesh(self.mesh_low)
        self._check_mesh(self.mesh_high)
        if any(h <= l for l, h in zip(self.mesh_low, self.mesh_high)):
            raise ValueError("the high-fidelity mesh must be strictly finer per axis")

    def _check_mesh(self, mesh) -> tuple:
        # Burgers eliminates its two Dirichlet walls and needs one interior node
        least = (3 if self.kind == "burgers" else 2, 2)
        if len(mesh) != 2 or any(k < lo for k, lo in zip(mesh, least)):
            raise ValueError(
                f"{self.kind} mesh {tuple(mesh)}: a mesh needs 2 axes with at least "
                f"{least[0]} and {least[1]} nodes"
            )
        return mesh

    @property
    def input_dim(self) -> int:
        return len(self.input_ranges)

    def mesh(self, fidelity):
        if isinstance(fidelity, (tuple, list)):
            return self._check_mesh(tuple(int(m) for m in fidelity))
        if fidelity == "low":
            return self.mesh_low
        if fidelity == "high":
            return self.mesh_high
        if fidelity == "reference":
            return tuple(4 * m for m in self.mesh_high)
        raise ValueError(f"unknown fidelity {fidelity!r}")

    def grid_axes(self, mesh) -> tuple:
        """Physical node coordinates per field axis for a mesh."""
        if self.kind == "poisson":
            return tuple(np.linspace(0.0, 1.0, m) for m in mesh)
        span = TIME_SPAN[self.kind]
        return np.linspace(0.0, 1.0, mesh[0]), np.linspace(0.0, span, mesh[1])


def pde_spec(kind: str, mesh_variant: str = "main") -> PdeSpec:
    """Canonical spec for one problem; meshes per the selected variant."""
    if mesh_variant not in ("main", "appendix"):
        raise ValueError(f"unknown mesh variant {mesh_variant!r}")
    low = 8
    if mesh_variant == "appendix" and kind in ("burgers", "heat"):
        low = 16
    return PdeSpec(
        kind=kind,
        input_ranges=tuple(INPUT_RANGES[kind]),
        mesh_low=(low, low),
        mesh_high=(32, 32),
    )


@dataclass
class FieldSample:
    """One solved field: the input vector and the recorded solution values."""

    input: np.ndarray
    field: np.ndarray
    axes: tuple = ()

    def __post_init__(self):
        self.input = np.atleast_1d(np.asarray(self.input, dtype=float))
        self.field = np.asarray(self.field, dtype=float)
        if not np.all(np.isfinite(self.field)):
            raise ValueError("field contains non-finite values")


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv``, imported at its first use so that ``import mfgar`` loads no SciPy."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


def _tridiag_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system with LAPACK ``gtsv``; the inputs are not modified.

    The same routine and arithmetic as scipy's ``solve_banded`` on (1, 1)
    bands, without its per-call validation; one unknown is a division, as there.
    """
    if diag.size == 1:
        return rhs / diag[0]
    _, _, _, x, info = _dgtsv()(lower, diag, upper, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def solve_burgers(viscosity: float, spec: PdeSpec, fidelity="high") -> FieldSample:
    """Viscous Burgers via hat-function finite elements and backward Euler.

    The nonlinear term is handled by Picard iteration inside each implicit
    step (tolerance 1e-8, at most 50 sweeps), halving the substep while the
    sweep stalls; a step that still fails raises. Homogeneous Dirichlet values
    are imposed for t > 0; the initial profile is kept verbatim at t = 0.
    A batch of one of :func:`_burgers_fields`.
    """
    (field,) = _burgers_fields([viscosity], spec, fidelity)
    return _record(spec, np.asarray([viscosity]), field, spec.mesh(fidelity))


def _burgers_fields(viscosities, spec: PdeSpec, fidelity) -> np.ndarray:
    """The ``(n_x, n_t)`` Burgers field of every viscosity, stepped in lockstep.

    Row ``r`` of the result is bitwise the field of ``viscosities[r]`` solved
    alone: the rows still iterating share each Picard sweep, whose systems
    :func:`_tridiag_rows` solves as one, and the rows that stall halve their
    substep together.  The first row to fail raises for the batch.
    """
    viscosities = np.asarray(viscosities, dtype=float).reshape(-1)
    lo, hi = spec.input_ranges[0]
    for viscosity in viscosities:
        if not lo <= viscosity <= hi:
            raise ValueError(f"viscosity {viscosity} outside [{lo}, {hi}]")
    n_x, n_t = spec.mesh(fidelity)
    x = np.linspace(0.0, 1.0, n_x)
    h = x[1] - x[0]
    dt = TIME_SPAN["burgers"] / (n_t - 1)
    out = np.empty((viscosities.size, n_x, n_t))
    out[:, :, 0] = np.sin(np.pi * x / 2.0)

    # interior assembly (Dirichlet walls eliminate the boundary rows); the
    # mass bands are single rows, so a lone row's sums need no broadcast
    n_i = n_x - 2
    mass_d = np.full((1, n_i), 4.0 * h / 6.0)
    mass_o = np.full((1, n_i - 1), h / 6.0)
    visc_d = viscosities[:, None] * np.full(n_i, 2.0 / h)
    visc_o = viscosities[:, None] * np.full(n_i - 1, -1.0 / h)

    def picard_step(u_old, vd, vo, dt_step):
        """One backward-Euler step of each row via Picard sweeps.

        ``vd`` and ``vo`` are the rows' viscous diagonals.  Returns the new
        states and a mask of the rows whose sweep contracted; the states of
        the others are meaningless.
        """
        u_new = u_old.copy()
        u_new[:, 0] = 0.0
        u_new[:, -1] = 0.0
        # mass term of the old state, including its boundary columns (the
        # initial profile is nonzero at x = 1)
        rhs = _mass_apply(mass_d, mass_o, u_old[:, 1:-1])
        rhs[:, 0] += h / 6.0 * u_old[:, 0]
        rhs[:, -1] += h / 6.0 * u_old[:, -1]
        ok = np.zeros(len(u_old), dtype=bool)
        # the rows still sweeping: positions in u_new, states, rhs, viscous terms
        live, u = np.arange(len(u_old)), u_new
        for _ in range(50):
            # Convection row i: int phi_i u_h phi_j' over the two neighbor
            # elements; with the left/right element averages
            #   I_L = u_{i-1}/6 + u_i/3,   I_R = u_i/3 + u_{i+1}/6
            # the tridiagonal entries are (-I_L, I_L - I_R, I_R); adding -I_L
            # is subtracting I_L, bit for bit.
            third = u[:, 1:-1] / 3.0
            sixth = u / 6.0
            int_left = sixth[:, :-2] + third
            int_right = third + sixth[:, 2:]
            diag = mass_d + dt_step * (vd + (int_left - int_right))
            lowr = mass_o + dt_step * (vo - int_left[:, 1:])
            uppr = mass_o + dt_step * (vo + int_right[:, :-1])
            candidate = _tridiag_rows(lowr, diag, uppr, rhs)
            change = np.abs(candidate - u[:, 1:-1]).max(axis=1)
            u[:, 1:-1] = candidate
            # some row converged, or some change is not finite (NaN or inf
            # at the max); u is finite, so a finite change means a finite
            # candidate
            if change.min() < 1e-8 or not change.max() < np.inf:
                converged = change < 1e-8
                if converged.all():
                    # every row still sweeping is done at once, as a lone row always is
                    u_new[live] = u
                    ok[live] = True
                    break
                going = np.isfinite(candidate).all(axis=1) & ~converged
                u_new[live[converged]] = u[converged]
                ok[live[converged]] = True
                live, u, rhs = live[going], u[going], rhs[going]
                vd, vo = vd[going], vo[going]
                if not live.size:
                    break
        return u_new, ok

    def advance(u_old, vd, vo, dt_step, depth=0):
        """Advance by dt_step, halving the substep of the rows whose Picard stalls.

        Coarse meshes pair sharp convection with large nodal time steps, for
        which the fixed-point sweep has no contraction; deterministic
        bisection restores it without changing the recorded grid.
        """
        done, ok = picard_step(u_old, vd, vo, dt_step)
        if ok.all():
            return done
        if depth >= 12:
            raise RuntimeError("Picard iteration did not converge at the smallest substep")
        stalled = ~ok
        vd, vo = vd[stalled], vo[stalled]
        half = advance(u_old[stalled], vd, vo, dt_step / 2.0, depth + 1)
        done[stalled] = advance(half, vd, vo, dt_step / 2.0, depth + 1)
        return done

    for step in range(1, n_t):
        out[:, :, step] = advance(out[:, :, step - 1], visc_d, visc_o, dt)
    return out


def _tridiag_rows(lower, diag, upper, rhs):
    """Solve the tridiagonal system of every row, bitwise as one by one.

    Rows are ``(n_rows, n)`` diagonals and right-hand sides with
    ``(n_rows, n - 1)`` off-diagonals.  Several rows are joined into one
    block-diagonal system with zero couplings and solved by one
    :func:`_tridiag_solve` call: every ``gtsv`` multiplier at a coupling is 0,
    which leaves each block's arithmetic as it is alone.  A zero times an inf
    or a NaN is not 0, and a zero's sign can follow the coupling, so a block
    solve that is singular or returns a non-finite or zero entry is redone
    row by row.
    """
    n_rows, n = diag.shape
    if n_rows == 1:
        return _tridiag_solve(lower[0], diag[0], upper[0], rhs[0]).reshape(1, n)
    couplings = np.zeros((n_rows, 1))
    flat_lower = np.concatenate((lower, couplings), axis=1).reshape(-1)[:-1]
    flat_upper = np.concatenate((upper, couplings), axis=1).reshape(-1)[:-1]
    try:
        x = _tridiag_solve(flat_lower, diag.reshape(-1), flat_upper, rhs.reshape(-1))
    except np.linalg.LinAlgError:
        pass
    else:
        if np.isfinite(x).all() and x.all():
            return x.reshape(n_rows, n)
    return np.stack([_tridiag_solve(*row) for row in zip(lower, diag, upper, rhs)])


def _mass_apply(diag, off, v):
    """The tridiagonal mass matrix times each row of ``v``."""
    out = diag * v
    out[..., 1:] += off * v[..., :-1]
    out[..., :-1] += off * v[..., 1:]
    return out


def solve_poisson(values, spec: PdeSpec, fidelity="high") -> FieldSample:
    """Laplace solve with constant border values and a pinned center block.

    Five-point differencing on an n x n grid; the nodes nearest (0.5, 0.5)
    (a 2x2 block on even meshes, one node on odd meshes) are pinned to the
    center value so the constraint set is mirror symmetric. Field axis 0 is
    x (left/right borders are the first/last rows), axis 1 is y.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (5,):
        raise ValueError("poisson expects 5 values: left, right, bottom, top, center")
    lo, hi = spec.input_ranges[0]
    if np.any(values < lo) or np.any(values > hi):
        raise ValueError(f"boundary/center values outside [{lo}, {hi}]")
    left, right, bottom, top, center = values
    n, m = spec.mesh(fidelity)

    u = np.zeros((n, m))
    u[0, :] = left
    u[-1, :] = right
    u[1:-1, 0] = bottom
    u[1:-1, -1] = top
    u[np.ix_(_center_indices(n), _center_indices(m))] = center
    free, lu, rows, nbrs = _poisson_operator(n, m)
    if free.size:
        rhs = np.zeros(free.size)
        np.add.at(rhs, rows, u.reshape(-1)[nbrs])
        u.reshape(-1)[free] = lu.solve(rhs, trans="T")
    return _record(spec, values, u, spec.mesh(fidelity))


@functools.lru_cache(maxsize=8)
def _poisson_operator(n: int, m: int):
    """The n x m mesh's five-point operator on its free nodes, factorized once.

    Returns ``(free, lu, rows, nbrs)``: the flat indices of the free nodes in
    row-major order, the SuperLU factor of the operator's CSR arrays read as
    CSC (so ``lu.solve(rhs, trans="T")`` is the solve ``spsolve`` makes on the
    CSR matrix, bit for bit), and for every free-to-fixed edge the equation it
    feeds and the flat index of the fixed neighbour whose value it carries,
    grouped by direction (-x, +x, -y, +y).  ``lu`` is None when no node is free.
    """
    fixed = np.zeros((n, m), dtype=bool)
    fixed[0, :] = fixed[-1, :] = True
    fixed[:, 0] = fixed[:, -1] = True
    fixed[np.ix_(_center_indices(n), _center_indices(m))] = True
    free = ~fixed
    n_free = int(free.sum())
    idx = -np.ones((n, m), dtype=int)
    idx[free] = np.arange(n_free)
    free_r, free_c = np.nonzero(free)
    rows, nbrs = [], []
    a_rows, a_cols = [np.arange(n_free)], [np.arange(n_free)]
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        rr, cc = free_r + dr, free_c + dc
        nb_fixed = fixed[rr, cc]
        rows.append(np.flatnonzero(nb_fixed))
        nbrs.append(rr[nb_fixed] * m + cc[nb_fixed])
        a_rows.append(np.flatnonzero(~nb_fixed))
        a_cols.append(idx[rr[~nb_fixed], cc[~nb_fixed]])
    arrays = [np.flatnonzero(free), np.concatenate(rows), np.concatenate(nbrs)]
    for a in arrays:
        a.flags.writeable = False
    lu = None
    if n_free:
        from scipy.sparse import coo_matrix, csc_matrix
        from scipy.sparse.linalg import splu

        a_rows, a_cols = np.concatenate(a_rows), np.concatenate(a_cols)
        data = np.full(a_rows.size, -1.0)
        data[:n_free] = 4.0
        A = coo_matrix((data, (a_rows, a_cols)), shape=(n_free, n_free)).tocsr()
        At = csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        lu = splu(At, permc_spec="COLAMD", options=dict(Equil=False))
    return arrays[0], lu, arrays[1], arrays[2]


def _center_indices(n: int):
    # nodes nearest coordinate 0.5 on a linspace(0, 1, n) grid
    if n % 2 == 1:
        return [n // 2]
    return [n // 2 - 1, n // 2]


def solve_heat(flux_left: float, flux_right: float, conductivity: float, spec: PdeSpec, fidelity="high") -> FieldSample:
    """1-D heat equation with Neumann flux boundaries, backward Euler in time.

    The vertex-centered discretization is conservative: with zero boundary
    fluxes the trapezoid-weighted total heat is preserved exactly by every
    implicit step.  Fluxes are signed as incoming heat rates.
    """
    ranges = spec.input_ranges
    for value, (lo, hi), name in zip(
        (flux_left, flux_right, conductivity), ranges, ("flux_left", "flux_right", "conductivity")
    ):
        if not lo <= value <= hi:
            raise ValueError(f"{name} {value} outside [{lo}, {hi}]")
    n_x, n_t = spec.mesh(fidelity)
    x = np.linspace(0.0, 1.0, n_x)
    h = x[1] - x[0]
    dt = TIME_SPAN["heat"] / (n_t - 1)
    u = np.where((x >= 0.25) & (x < 0.75), 1.0, 0.0)
    out = np.empty((n_x, n_t))
    out[:, 0] = u

    w = np.full(n_x, h)
    w[0] = w[-1] = h / 2.0
    k = conductivity
    diag = w / dt + 2.0 * k / h
    diag[0] = w[0] / dt + k / h
    diag[-1] = w[-1] / dt + k / h
    off = np.full(n_x - 1, -k / h)
    b = np.zeros(n_x)
    b[0] = flux_left
    b[-1] = flux_right

    for step in range(1, n_t):
        rhs = w / dt * u + b
        u = _tridiag_solve(off, diag, off, rhs)
        out[:, step] = u

    return _record(
        spec, np.asarray([flux_left, flux_right, conductivity]), out, spec.mesh(fidelity)
    )


# Solved fields of the open solve_cache() block, or None outside one.
_SOLVE_CACHE: contextvars.ContextVar = contextvars.ContextVar("solve_cache", default=None)


@contextlib.contextmanager
def solve_cache():
    """Solve each distinct (spec, mesh, input) once inside this block.

    :func:`solve_field` keeps every sample it solves here, keyed by the spec,
    the fidelity's mesh and the input bytes, and returns a copy of the stored
    sample on a repeat; the stored arrays are read-only so no caller can
    alter them.  :func:`make_dataset` and :func:`make_test_set` store the
    Burgers rows they solve as one batch the same way.  Failed solves are not
    stored, so a bad input raises on every call.  A nested block shares the
    outer one's store, which is dropped when the outermost block exits.
    """
    if _SOLVE_CACHE.get() is not None:
        yield
        return
    token = _SOLVE_CACHE.set({})
    try:
        yield
    finally:
        _SOLVE_CACHE.reset(token)


def solve_field(spec: PdeSpec, params, fidelity="high") -> FieldSample:
    """Dispatch one input vector to the problem's solver (see :func:`solve_cache`)."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    cache = _SOLVE_CACHE.get()
    if cache is None:
        return _solve(spec, params, fidelity)
    key = _cache_key(spec, params, fidelity)
    sample = cache.get(key)
    if sample is None:
        # the copy keeps the stored input from aliasing the caller's design rows
        sample = _store(cache, key, _solve(spec, params.copy(), fidelity))
    return copy.copy(sample)


def _cache_key(spec: PdeSpec, params: np.ndarray, fidelity) -> tuple:
    return spec, spec.mesh(fidelity), params.shape, params.tobytes()


def _store(cache: dict, key: tuple, sample: FieldSample) -> FieldSample:
    for array in (sample.input, sample.field, *sample.axes):
        array.flags.writeable = False
    cache[key] = sample
    return sample


def _solve_design(spec: PdeSpec, X: np.ndarray, fidelity) -> list:
    """The sample of every row of the design ``X``, each through :func:`solve_field`.

    Runs in a :func:`solve_cache` block.  On Burgers, the rows not yet stored
    are first solved together by :func:`_burgers_fields` and stored, so each
    row's :func:`solve_field` call finds its field.  If that batch raises,
    nothing is stored and the rows are solved one by one, raising as alone.
    """
    with solve_cache():
        if spec.kind == "burgers":
            _store_burgers_batch(spec, X, fidelity)
        return [solve_field(spec, x, fidelity) for x in X]


def _store_burgers_batch(spec: PdeSpec, X: np.ndarray, fidelity) -> None:
    cache = _SOLVE_CACHE.get()
    pending = {}
    for x in X:
        params = np.atleast_1d(np.asarray(x, dtype=float))
        key = _cache_key(spec, params, fidelity)
        if key not in cache:
            pending.setdefault(key, params[0])
    if not pending:
        return
    mesh = spec.mesh(fidelity)
    try:
        fields = _burgers_fields(list(pending.values()), spec, fidelity)
        samples = [_record(spec, np.asarray([v]), f, mesh) for v, f in zip(pending.values(), fields)]
    except (ValueError, RuntimeError, ArithmeticError):  # the rows raise it again alone
        return
    for key, sample in zip(pending, samples):
        _store(cache, key, sample)


def _solve(spec: PdeSpec, params: np.ndarray, fidelity) -> FieldSample:
    if spec.kind == "burgers":
        return solve_burgers(params[0], spec, fidelity)
    if spec.kind == "poisson":
        return solve_poisson(params, spec, fidelity)
    return solve_heat(params[0], params[1], params[2], spec, fidelity)


def _record(spec: PdeSpec, params, values, mesh) -> FieldSample:
    return FieldSample(params, values, spec.grid_axes(mesh))


# ---------------------------------------------------------------------------
# Grid interpolation
# ---------------------------------------------------------------------------


def interp_grid(values: np.ndarray, src_axes, dst_axes) -> np.ndarray:
    """Separable linear interpolation on a regular product grid.

    Exact on multilinear fields; raises when a target coordinate leaves the
    source domain.
    """
    out = np.asarray(values, dtype=float)
    for ax, (src, dst) in enumerate(zip(src_axes, dst_axes)):
        src = np.asarray(src, dtype=float)
        dst = np.asarray(dst, dtype=float)
        if dst.min() < src.min() - 1e-12 or dst.max() > src.max() + 1e-12:
            raise ValueError("target grid extends outside the source domain")
        pos = np.clip(np.searchsorted(src, dst, side="right") - 1, 0, src.size - 2)
        t = (dst - src[pos]) / (src[pos + 1] - src[pos])
        moved = np.moveaxis(out, ax, 0)
        interped = (1.0 - t)[:, None] * moved[pos].reshape(dst.size, -1) + t[:, None] * moved[
            pos + 1
        ].reshape(dst.size, -1)
        out = np.moveaxis(interped.reshape((dst.size,) + moved.shape[1:]), 0, ax)
    return out


def upsample_bilinear(sample: FieldSample, target_axes) -> FieldSample:
    """Resample a recorded field onto a finer (or equal) regular grid."""
    return FieldSample(
        sample.input, interp_grid(sample.field, sample.axes, target_axes), tuple(target_axes)
    )


# ---------------------------------------------------------------------------
# Input sampling
# ---------------------------------------------------------------------------

# Joe-Kuo direction numbers (new-joe-kuo-6.21201), one row per dimension:
# the primitive polynomial with its leading and trailing bits, and the
# initial direction numbers m_1..m_s of its degree s.  Dimension 1 is the
# van der Corput sequence.  The PDE inputs have at most 5 dimensions.
_SOBOL_TABLE = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
)
SOBOL_MAX_DIM = len(_SOBOL_TABLE)
_SOBOL_BITS = 30


def _sobol_directions(dims: int) -> np.ndarray:
    """Direction numbers ``v[d, j] = m_j 2^(bits - 1 - j)``, shape ``(dims, bits)``.

    ``m_j`` past the tabled ones follow the polynomial's recurrence
    ``m_j = 2 a_1 m_{j-1} ^ .. ^ 2^(s-1) a_{s-1} m_{j-s+1} ^ 2^s m_{j-s} ^ m_{j-s}``.
    """
    v = np.empty((dims, _SOBOL_BITS), dtype=np.uint64)
    for d, (poly, init) in enumerate(_SOBOL_TABLE[:dims]):
        s = len(init)
        m = list(init) if s else [1] * _SOBOL_BITS
        for j in range(len(m), _SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d] = [mj << (_SOBOL_BITS - 1 - j) for j, mj in enumerate(m)]
    return v


def sobol_points(n: int, dims: int) -> np.ndarray:
    """First ``n`` points of the standard Sobol sequence in [0,1]^dims.

    The all-zeros index-0 point is dropped, so the sequence starts at the
    0.5 midpoint (1-D: 0.5, 0.75, 0.25, ...); deterministic, no scrambling.
    Gray-code order with 30-bit direction numbers, so point ``i`` is point
    ``i - 1`` XOR the direction number of the lowest set bit of ``i``: the
    points of ``scipy.stats.qmc.Sobol(dims, scramble=False)``, bit for bit.
    """
    if dims < 1 or dims > SOBOL_MAX_DIM:
        raise ValueError(f"dims must be in [1, {SOBOL_MAX_DIM}]")
    if not 0 <= n < 1 << _SOBOL_BITS:
        raise ValueError(f"n must be in [0, 2^{_SOBOL_BITS})")
    i = np.arange(1, n + 1)
    lowest_bit = np.frexp(i & -i)[1] - 1
    quasi = np.bitwise_xor.accumulate(_sobol_directions(dims).T[lowest_bit], axis=0)
    return quasi * 2.0**-_SOBOL_BITS


def _map_to_ranges(unit: np.ndarray, ranges) -> np.ndarray:
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return lo + unit * (hi - lo)


def sample_inputs(spec: PdeSpec, n: int, sampler: str, seed: int, skip: int = 0) -> np.ndarray:
    """Draw design points in the problem's input box.

    ``skip`` advances the deterministic stream so that successive draws from
    the same seed are disjoint (used for independent high-fidelity designs
    and test sets).
    """
    if sampler == "sobol":
        pts = sobol_points(n + skip, spec.input_dim)[skip:]
    elif sampler == "uniform":
        rng = np.random.default_rng(seed)
        if skip:
            rng.uniform(size=(skip, spec.input_dim))
        pts = rng.uniform(size=(n, spec.input_dim))
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    return _map_to_ranges(pts, spec.input_ranges)


# ---------------------------------------------------------------------------
# Dataset assembly and disk format
# ---------------------------------------------------------------------------


def make_dataset(
    spec: PdeSpec,
    n_low: int,
    n_high: int,
    sampler: str = "uniform",
    structure: str = "subset",
    aligned: bool = False,
    seed: int = 0,
    skip: int = 0,
) -> MultiFidelityDataset:
    """Generate a two-fidelity dataset by running both solvers.

    Subset structure takes the high-fidelity inputs to be the first
    ``n_high`` low-fidelity inputs; non-subset samples them independently
    (continuing the same deterministic stream, so the designs are disjoint).
    ``skip`` starts the design at that offset of the stream.  ``aligned``
    upsamples the low-fidelity fields onto the high-fidelity grid so both
    levels share mode sizes.  Each design row goes through
    :func:`solve_field` once (see :func:`_solve_design`).
    """
    if structure not in ("subset", "nonsubset"):
        raise ValueError(f"unknown structure {structure!r}")
    for name, n in (("n_low", n_low), ("n_high", n_high)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    if structure == "subset" and n_high > n_low:
        raise ValueError("subset structure needs n_high <= n_low")
    X_low = sample_inputs(spec, n_low, sampler, seed, skip=skip)
    if structure == "subset":
        X_high = X_low[:n_high]
    else:
        X_high = sample_inputs(spec, n_high, sampler, seed, skip=skip + n_low)

    low_fields = _solve_design(spec, X_low, "low")
    high_fields = _solve_design(spec, X_high, "high")
    if aligned:
        target = high_fields[0].axes if high_fields else spec.grid_axes(spec.mesh("high"))
        low_fields = [upsample_bilinear(s, target) for s in low_fields]
    Y_low = np.stack([s.field for s in low_fields])
    Y_high = np.stack([s.field for s in high_fields])
    return MultiFidelityDataset([(X_low, Y_low), (X_high, Y_high)])


def make_test_set(spec: PdeSpec, n_test: int, sampler: str = "uniform", seed: int = 0, skip: int = 0):
    """High-fidelity evaluation set: inputs and solved fields."""
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    X = sample_inputs(spec, n_test, sampler, seed, skip=skip)
    Y = np.stack([s.field for s in _solve_design(spec, X, "high")])
    return X, Y


DATASET_FORMAT = "mfgar/dataset-1"


def spec_to_dict(spec: PdeSpec) -> dict:
    return {
        "kind": spec.kind,
        "input_ranges": [list(r) for r in spec.input_ranges],
        "mesh_low": list(spec.mesh_low),
        "mesh_high": list(spec.mesh_high),
    }


def save_dataset(dataset: MultiFidelityDataset, out_dir, manifest_extra: dict | None = None):
    """Write the on-disk dataset: a JSON manifest, per-level input CSVs, and
    per-level field arrays in NumPy binary format (a flat binary with a
    self-describing shape header).  Byte-identical for identical inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": DATASET_FORMAT,
        "n_levels": dataset.n_levels,
        "levels": [],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    for i, lv in enumerate(dataset.levels):
        inputs_name = f"level_{i}_inputs.csv"
        fields_name = f"level_{i}_fields.npy"
        with open(out / inputs_name, "w") as fh:
            fh.write(",".join(f"x{j}" for j in range(lv.X.shape[1])) + "\n")
            for row in lv.X:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        np.save(out / fields_name, lv.Y)
        manifest["levels"].append(
            {
                "inputs": inputs_name,
                "fields": fields_name,
                "n_samples": lv.n_samples,
                "mode_sizes": list(lv.mode_sizes),
            }
        )
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return out / "manifest.json"


def load_dataset(out_dir) -> tuple:
    """Read a dataset directory back; returns (dataset, manifest)."""
    out = Path(out_dir)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"dataset manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != DATASET_FORMAT:
        raise ValueError(f"unsupported dataset format {manifest.get('format')!r}")
    if not isinstance(manifest.get("levels"), list):
        raise ValueError("dataset manifest has no 'levels' list")
    levels = []
    for entry in manifest["levels"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("inputs", "fields")
        ):
            raise ValueError("'levels' entries need string 'inputs' and 'fields' file names")
        X = np.loadtxt(out / entry["inputs"], delimiter=",", skiprows=1, ndmin=2)
        Y = np.load(out / entry["fields"])
        levels.append((X, Y))
    return MultiFidelityDataset(levels), manifest
