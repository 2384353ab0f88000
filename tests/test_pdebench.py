"""PDE benchmark harness: solver correctness, sampling, dataset plumbing."""

import contextlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import RegularGridInterpolator

import mfgar.pdebench as pdebench
from mfgar.gar import build_subset_plan
from mfgar.pdebench import (
    PdeSpec,
    interp_grid,
    load_dataset,
    make_dataset,
    make_test_set,
    pde_spec,
    sample_inputs,
    save_dataset,
    SOBOL_MAX_DIM,
    sobol_points,
    solve_burgers,
    solve_cache,
    solve_field,
    solve_heat,
    solve_poisson,
    spec_to_dict,
    upsample_bilinear,
)
from oracles import (
    banded_tridiag_solve,
    burgers_field_reference,
    dense_poisson_oracle,
    spsolve_poisson_field,
)

# ---------------------------------------------------------------------------
# Burgers
# ---------------------------------------------------------------------------


def test_burgers_initial_condition_exact():
    spec = pde_spec("burgers")
    s = solve_burgers(0.05, spec, "low")
    x = s.axes[0]
    assert_allclose(s.field[:, 0], np.sin(np.pi * x / 2.0), rtol=1e-14)


def test_burgers_diffusion_dominated_decay():
    # at the top of the viscosity range the max norm decays monotonically
    spec = pde_spec("burgers")
    s = solve_burgers(0.1, spec, "high")
    sup = np.abs(s.field).max(axis=0)
    assert np.all(np.diff(sup) <= 1e-12)


def test_burgers_mesh_refinement_converges():
    spec = pde_spec("burgers")
    ref = solve_burgers(0.03, spec, (128, 128))
    coarse = solve_burgers(0.03, spec, (8, 8))
    fine = solve_burgers(0.03, spec, (32, 32))
    coarse_up = upsample_bilinear(coarse, ref.axes)
    fine_up = upsample_bilinear(fine, ref.axes)
    err_coarse = np.sqrt(np.mean((coarse_up.field - ref.field) ** 2))
    err_fine = np.sqrt(np.mean((fine_up.field - ref.field) ** 2))
    assert err_fine < err_coarse


def test_burgers_viscosity_range_enforced():
    with pytest.raises(ValueError):
        solve_burgers(0.5, pde_spec("burgers"), "low")


@pytest.mark.parametrize("mesh", ["low", "high", (3, 5), (8, 2)])
def test_lockstep_burgers_fields_match_the_per_input_reference_bitwise(mesh):
    spec = pde_spec("burgers")
    viscosities = np.concatenate([[0.001, 0.1], sample_inputs(spec, 5, "sobol", seed=0)[:, 0]])
    batch = pdebench._burgers_fields(viscosities, spec, mesh)
    solves = []

    def counted(*args):
        solves.append(args[1].size)
        return banded_tridiag_solve(*args)

    for v, field in zip(viscosities, batch):
        want = burgers_field_reference(v, spec, mesh, solve=counted)
        assert field.tobytes() == want.tobytes()  # the row inside the batch
        assert solve_burgers(v, spec, mesh).field.tobytes() == want.tobytes()  # alone
    if mesh == (8, 2):
        # one time step of at most 50 sweeps per input unless the substep halves
        assert len(solves) > 50 * viscosities.size


@pytest.mark.parametrize("poison", ["nan", "singular"])
def test_a_failed_block_solve_leaves_every_row_bitwise_its_own(monkeypatch, poison):
    # the third system of every joined solve of three or more is poisoned:
    # without the row-by-row redo a NaN would flow across the zero couplings
    # into the rows after it, and a singular block would raise for the batch
    spec, mesh = pde_spec("burgers"), (8, 8)
    n = mesh[0] - 2
    viscosities = sample_inputs(spec, 6, "sobol", seed=0)[:, 0]
    real, poisoned = pdebench._tridiag_solve, []

    def faulty(lower, diag, upper, rhs):
        if diag.size >= 3 * n:
            lower, diag, upper, rhs = (a.copy() for a in (lower, diag, upper, rhs))
            seg = slice(2 * n, 3 * n)
            if poison == "nan":
                rhs[seg] = np.nan
            else:
                diag[seg] = lower[seg] = upper[seg] = 0.0
            poisoned.append(diag.size)
        return real(lower, diag, upper, rhs)

    monkeypatch.setattr(pdebench, "_tridiag_solve", faulty)
    batch = pdebench._burgers_fields(viscosities, spec, mesh)
    assert poisoned
    for v, field in zip(viscosities, batch):
        assert field.tobytes() == burgers_field_reference(v, spec, mesh).tobytes()


def test_a_row_that_fails_raises_for_its_batch_as_it_does_alone():
    # an overflowing viscosity makes every sweep of its row NaN, at any
    # substep; solve_banded would refuse its infinite diagonals outright
    wide = PdeSpec("burgers", ((0.001, np.inf),), (8, 8), (32, 32))
    X = np.array([[0.01], [1e308], [0.05]])
    message = "Picard iteration did not converge at the smallest substep"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=message):
            burgers_field_reference(1e308, wide, "low", solve=pdebench._tridiag_solve)
        with pytest.raises(RuntimeError, match=message):
            pdebench._burgers_fields(X[:, 0], wide, "low")
        with solve_cache():
            with pytest.raises(RuntimeError, match=message):
                pdebench._solve_design(wide, X, "low")
            # the batch stored nothing; one by one, the row before the bad one was kept
            stored = list(pdebench._SOLVE_CACHE.get().values())
    assert [s.input.tolist() for s in stored] == [[0.01]]
    assert stored[0].field.tobytes() == burgers_field_reference(0.01, wide, "low").tobytes()


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------


def test_poisson_constant_values_give_constant_field():
    spec = pde_spec("poisson")
    s = solve_poisson(np.full(5, 0.4), spec, "high")
    assert np.max(np.abs(s.field - 0.4)) < 1e-10


def test_poisson_matches_dense_solve_oracle():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 0.9, size=5)
    spec = pde_spec("poisson")
    s = solve_poisson(values, spec, (12, 12))
    assert_allclose(s.field, dense_poisson_oracle(values, 12), rtol=1e-9, atol=1e-12)


def test_poisson_left_right_swap_mirrors_field():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.1, 0.9, size=5)
    spec = pde_spec("poisson")
    a = solve_poisson(values, spec, "high").field
    swapped = values[[1, 0, 2, 3, 4]]
    b = solve_poisson(swapped, spec, "high").field
    assert_allclose(b, a[::-1, :], rtol=1e-10, atol=1e-12)


def test_poisson_discrete_maximum_principle():
    rng = np.random.default_rng(2)
    spec = pde_spec("poisson")
    for _ in range(5):
        values = rng.uniform(0.1, 0.9, size=5)
        f = solve_poisson(values, spec, "low").field
        assert f.min() >= values.min() - 1e-12
        assert f.max() <= values.max() + 1e-12


def test_poisson_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_poisson(np.array([0.5, 0.5, 0.5, 0.5, 1.5]), pde_spec("poisson"))


# ---------------------------------------------------------------------------
# Heat
# ---------------------------------------------------------------------------


def test_heat_zero_flux_conserves_total_heat():
    spec = pde_spec("heat")
    s = solve_heat(0.0, 0.0, 0.05, spec, "high")
    x = s.axes[0]
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = (x[1] - x[0]) / 2.0
    totals = w @ s.field
    assert np.max(np.abs(totals - totals[0])) < 1e-6 * abs(totals[0])


def test_heat_solution_bounded_any_params():
    rng = np.random.default_rng(3)
    spec = pde_spec("heat")
    for _ in range(4):
        q_l = rng.uniform(0, 1)
        q_r = rng.uniform(-1, 0)
        k = rng.uniform(0.01, 0.1)
        s = solve_heat(q_l, q_r, k, spec, "low")
        assert np.all(np.isfinite(s.field))
        assert np.max(np.abs(s.field)) < 1e3


def test_heat_mesh_refinement_converges():
    spec = pde_spec("heat")
    ref = solve_heat(0.4, -0.2, 0.05, spec, (128, 128))
    coarse = upsample_bilinear(solve_heat(0.4, -0.2, 0.05, spec, (8, 8)), ref.axes)
    fine = upsample_bilinear(solve_heat(0.4, -0.2, 0.05, spec, (32, 32)), ref.axes)
    err_c = np.sqrt(np.mean((coarse.field - ref.field) ** 2))
    err_f = np.sqrt(np.mean((fine.field - ref.field) ** 2))
    assert err_f < err_c


def test_heat_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_heat(2.0, -0.5, 0.05, pde_spec("heat"))


# ---------------------------------------------------------------------------
# Linear-algebra steps against the SciPy references, and mesh validation
# ---------------------------------------------------------------------------


def test_tridiag_solve_matches_solve_banded_bitwise():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 30):
        lower, upper = rng.normal(size=n - 1), rng.normal(size=n - 1)
        diag, rhs = rng.normal(size=n) + 4.0, rng.normal(size=n)
        args = [a.copy() for a in (lower, diag, upper, rhs)]
        got = pdebench._tridiag_solve(*args)
        want = banded_tridiag_solve(lower, diag, upper, rhs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for a, b in zip(args, (lower, diag, upper, rhs)):
            assert np.array_equal(a, b)  # the inputs are left as they were


def test_tridiag_solve_raises_on_a_singular_system():
    # [[1, 1, 0], [1, 1, 0], [0, 1, 1]] has two equal rows
    args = np.ones(2), np.ones(3), np.array([1.0, 0.0]), np.ones(3)
    for solve in (pdebench._tridiag_solve, banded_tridiag_solve):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve(*args)


@pytest.mark.parametrize("kind", ["burgers", "heat"])
def test_implicit_steps_match_the_solve_banded_fields_bitwise(monkeypatch, kind):
    # a design's Burgers rows share each joined solve, which goes through
    # _tridiag_solve as the single systems do
    spec = pde_spec(kind)
    X = sample_inputs(spec, 3, "sobol", seed=0)
    meshes = ("low", "high", (3, 5))
    got = [s.field for mesh in meshes for s in pdebench._solve_design(spec, X, mesh)]
    alone = [solve_field(spec, x, mesh).field for mesh in meshes for x in X]
    monkeypatch.setattr(pdebench, "_tridiag_solve", banded_tridiag_solve)
    want = [s.field for mesh in meshes for s in pdebench._solve_design(spec, X, mesh)]
    for a, b, c in zip(got, alone, want):
        assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize("mesh", [(8, 8), (32, 32), (12, 12), (4, 7)])
def test_poisson_matches_the_spsolve_field_bitwise(mesh):
    spec = pde_spec("poisson")
    for values in sample_inputs(spec, 20, "uniform", seed=1):
        got = solve_poisson(values, spec, mesh).field
        assert got.tobytes() == spsolve_poisson_field(values, mesh).tobytes()


def test_poisson_factorizes_each_mesh_once():
    spec = pde_spec("poisson")
    pdebench._poisson_operator.cache_clear()
    for values in sample_inputs(spec, 20, "uniform", seed=2):
        solve_poisson(values, spec, (9, 6))
    info = pdebench._poisson_operator.cache_info()
    assert (info.misses, info.hits) == (1, 19)


@pytest.mark.parametrize(
    "kind, mesh",
    [
        ("burgers", (2, 5)),  # two walls and no interior node
        ("burgers", (8, 1)),
        ("heat", (1, 5)),
        ("heat", (5, 1)),
        ("poisson", (0, 4)),
        ("poisson", (4, 4, 4)),
    ],
)
def test_degenerate_meshes_are_refused_at_the_spec(kind, mesh):
    spec = pde_spec(kind)
    x = sample_inputs(spec, 1, "uniform", seed=0)[0]
    with pytest.raises(ValueError, match=re.escape(f"mesh {mesh}")):
        solve_field(spec, x, mesh)
    with pytest.raises(ValueError, match=re.escape(f"mesh {mesh}")):
        PdeSpec(kind, spec.input_ranges, mesh, (64, 64))


@pytest.mark.parametrize("kind, mesh", [("burgers", (3, 2)), ("heat", (2, 2)), ("poisson", (2, 2))])
def test_smallest_meshes_solve(kind, mesh):
    spec = pde_spec(kind)
    x = sample_inputs(spec, 1, "uniform", seed=0)[0]
    assert solve_field(spec, x, mesh).field.shape == mesh


# ---------------------------------------------------------------------------
# Sobol sampling
# ---------------------------------------------------------------------------


def reference_sobol(n, dims):
    """Independent Gray-code Sobol generator, Joe-Kuo direction numbers.

    Hard-codes the table rows for the first three dimensions; enough to
    cross-check the production path's convention (including the dropped
    all-zeros point).
    """
    n_bits = 32
    v = np.zeros((dims, n_bits), dtype=np.uint64)
    for j in range(n_bits):
        v[0, j] = 1 << (n_bits - 1 - j)
    if dims >= 2:
        m = [1]
        for k in range(1, n_bits):
            m.append((2 * m[k - 1]) ^ m[k - 1])
        for j in range(n_bits):
            v[1, j] = m[j] << (n_bits - 1 - j)
    if dims >= 3:
        m = [1, 3]
        for k in range(2, n_bits):
            m.append((2 * m[k - 1]) ^ (4 * m[k - 2]) ^ m[k - 2])
        for j in range(n_bits):
            v[2, j] = m[j] << (n_bits - 1 - j)
    out = np.zeros((n + 1, dims))
    state = np.zeros(dims, dtype=np.uint64)
    for i in range(1, n + 1):
        c = 0
        val = i - 1
        while val & 1:
            val >>= 1
            c += 1
        state = state ^ v[:, c]
        out[i] = state / 2.0**n_bits
    return out[1:]  # drop the all-zeros origin, as production does


def test_sobol_first_points_one_dim():
    pts = sobol_points(4, 1).ravel()
    assert_allclose(pts, [0.5, 0.75, 0.25, 0.375], rtol=1e-15)


def test_sobol_matches_reference_direction_numbers():
    pts = sobol_points(64, 3)
    ref = reference_sobol(64, 3)
    assert_allclose(pts, ref, atol=1e-12)


def test_sobol_dims_validation():
    with pytest.raises(ValueError):
        sobol_points(4, 0)
    with pytest.raises(ValueError):
        sobol_points(4, 10**6)
    with pytest.raises(ValueError):
        sobol_points(4, SOBOL_MAX_DIM + 1)
    with pytest.raises(ValueError):
        sobol_points(-1, 2)


@pytest.mark.parametrize("dims", range(1, SOBOL_MAX_DIM + 1))
def test_sobol_is_bitwise_scipy_qmc(dims):
    # every tabled dimension, at point counts on and off powers of two
    import warnings

    from scipy.stats import qmc

    for n in (0, 1, 7, 64, 1000, 4097):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # qmc warns when n + 1 is no power of two
            ref = qmc.Sobol(dims, scramble=False).random(n + 1)[1:]
        pts = sobol_points(n, dims)
        assert pts.shape == ref.shape
        assert np.array_equal(pts, ref)


def star_discrepancy_estimate(pts, rng, n_boxes=4000):
    """Lower bound on the star discrepancy from random anchored boxes."""
    n, d = pts.shape
    corners = rng.uniform(size=(n_boxes, d))
    worst = 0.0
    for b in corners:
        inside = np.all(pts < b, axis=1).mean()
        worst = max(worst, abs(inside - np.prod(b)))
    return worst


def test_sobol_beats_iid_uniform_discrepancy():
    rng = np.random.default_rng(4)
    sob = sobol_points(128, 3)
    iid = np.random.default_rng(5).uniform(size=(128, 3))
    d_sob = star_discrepancy_estimate(sob, np.random.default_rng(6))
    d_iid = star_discrepancy_estimate(iid, np.random.default_rng(6))
    assert d_sob < d_iid


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interp_constant_and_bilinear_exact():
    src = (np.linspace(0, 1, 5), np.linspace(0, 1, 7))
    dst = (np.linspace(0, 1, 13), np.linspace(0, 1, 9))
    const = np.full((5, 7), 2.5)
    assert_allclose(interp_grid(const, src, dst), np.full((13, 9), 2.5), rtol=1e-15)
    xy = src[0][:, None] + src[1][None, :]
    expected = dst[0][:, None] + dst[1][None, :]
    assert_allclose(interp_grid(xy, src, dst), expected, rtol=1e-14)


def test_interp_matches_scipy_reference():
    rng = np.random.default_rng(7)
    src = (np.linspace(0, 1, 6), np.linspace(0, 3, 9))
    vals = rng.standard_normal((6, 9))
    dst = (np.linspace(0, 1, 17), np.linspace(0, 3, 11))
    mine = interp_grid(vals, src, dst)
    ref_fn = RegularGridInterpolator(src, vals, method="linear")
    mesh = np.stack(np.meshgrid(*dst, indexing="ij"), axis=-1)
    ref = ref_fn(mesh.reshape(-1, 2)).reshape(17, 11)
    assert_allclose(mine, ref, atol=1e-12)


def test_interp_rejects_out_of_domain():
    src = (np.linspace(0, 1, 5),)
    with pytest.raises(ValueError):
        interp_grid(np.zeros(5), src, (np.linspace(0, 2, 5),))


def test_upsample_field_sample():
    spec = pde_spec("poisson")
    s = solve_poisson(np.full(5, 0.3), spec, "low")
    up = upsample_bilinear(s, spec.grid_axes((32, 32)))
    assert up.field.shape == (32, 32)
    assert np.max(np.abs(up.field - 0.3)) < 1e-10


# ---------------------------------------------------------------------------
# Dataset assembly and disk format
# ---------------------------------------------------------------------------


def test_make_dataset_subset_fully_matched():
    spec = pde_spec("poisson")
    ds = make_dataset(spec, n_low=6, n_high=6, sampler="sobol", seed=0)
    plan = build_subset_plan(ds)
    assert plan.fully_matched and plan.n_matched == 6
    assert ds.levels[0].Y.shape == (6, 8, 8)
    assert ds.levels[1].Y.shape == (6, 32, 32)


def test_make_dataset_nonsubset_disjoint():
    spec = pde_spec("poisson")
    ds = make_dataset(spec, n_low=8, n_high=4, structure="nonsubset", sampler="sobol", seed=0)
    plan = build_subset_plan(ds)
    assert plan.n_matched == 0 and plan.n_unmatched == 4


def test_make_dataset_aligned_shapes():
    spec = pde_spec("poisson")
    ds = make_dataset(spec, n_low=4, n_high=2, aligned=True, seed=1)
    assert ds.levels[0].Y.shape[1:] == ds.levels[1].Y.shape[1:]


def test_make_dataset_validates_combination():
    spec = pde_spec("poisson")
    with pytest.raises(ValueError):
        make_dataset(spec, n_low=2, n_high=4)
    with pytest.raises(ValueError):
        make_dataset(spec, n_low=4, n_high=2, structure="bogus")


@pytest.mark.parametrize("n_low, n_high", [(0, 0), (4, 0), (4, -2), (-1, 2)])
def test_make_dataset_rejects_non_positive_sizes(n_low, n_high):
    bad = "n_low" if n_low < 1 else "n_high"
    for structure in ("subset", "nonsubset"):
        with pytest.raises(ValueError, match=bad):
            make_dataset(pde_spec("poisson"), n_low=n_low, n_high=n_high, structure=structure)


def test_make_test_set_rejects_non_positive_size():
    for n_test in (0, -3):
        with pytest.raises(ValueError, match="n_test"):
            make_test_set(pde_spec("poisson"), n_test)


def test_make_dataset_deterministic():
    spec = pde_spec("heat")
    a = make_dataset(spec, 4, 2, sampler="uniform", seed=3)
    b = make_dataset(spec, 4, 2, sampler="uniform", seed=3)
    assert np.array_equal(a.levels[0].Y, b.levels[0].Y)
    assert np.array_equal(a.levels[1].X, b.levels[1].X)


def test_dataset_disk_roundtrip_byte_identical(tmp_path):
    spec = pde_spec("burgers")
    ds = make_dataset(spec, 3, 2, sampler="sobol", seed=0)
    extra = {"spec": spec_to_dict(spec), "seed": 0, "structure": "subset"}
    save_dataset(ds, tmp_path / "a", extra)
    save_dataset(ds, tmp_path / "b", extra)
    for name in ["manifest.json", "level_0_inputs.csv", "level_0_fields.npy"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    loaded, manifest = load_dataset(tmp_path / "a")
    assert np.array_equal(loaded.levels[0].Y, ds.levels[0].Y)
    assert np.array_equal(loaded.levels[1].X, ds.levels[1].X)
    assert manifest["spec"] == spec_to_dict(spec)


def test_make_test_set_disjoint_from_training():
    spec = pde_spec("poisson")
    ds = make_dataset(spec, 4, 2, sampler="sobol", seed=0)
    X_test, Y_test = make_test_set(spec, 3, sampler="sobol", seed=0, skip=6)
    assert Y_test.shape == (3, 32, 32)
    for row in X_test:
        assert not any(np.array_equal(row, r) for r in ds.levels[0].X)


def test_fidelity_ordering_single_input_each_pde():
    # low-fidelity error vs a refined reference exceeds high-fidelity error
    for kind, params in [
        ("burgers", np.array([0.02])),
        ("poisson", np.array([0.2, 0.7, 0.4, 0.6, 0.5])),
        ("heat", np.array([0.6, -0.4, 0.03])),
    ]:
        spec = pde_spec(kind)
        ref = solve_field(spec, params, "reference")
        low = upsample_bilinear(solve_field(spec, params, "low"), ref.axes)
        high = upsample_bilinear(solve_field(spec, params, "high"), ref.axes)
        err_low = np.sqrt(np.mean((low.field - ref.field) ** 2))
        err_high = np.sqrt(np.mean((high.field - ref.field) ** 2))
        assert err_high < err_low, kind


# ---------------------------------------------------------------------------
# Solve cache
# ---------------------------------------------------------------------------


@pytest.fixture
def poisson_solver_calls(monkeypatch):
    """Count the calls that reach the Poisson solver behind ``solve_field``."""
    from mfgar import pdebench

    calls = []
    real = pdebench.solve_poisson

    def counted(values, spec, fidelity="high"):
        calls.append(fidelity)
        return real(values, spec, fidelity)

    monkeypatch.setattr(pdebench, "solve_poisson", counted)
    return calls


def test_solve_cache_returns_read_only_fields_equal_to_a_fresh_solve(poisson_solver_calls):
    spec = pde_spec("poisson")
    params = np.array([0.2, 0.7, 0.4, 0.6, 0.5])
    fresh = solve_field(spec, params, "low")
    assert fresh.field.flags.writeable
    with solve_cache():
        first = solve_field(spec, params, "low")
        with solve_cache():  # a nested block shares the outer store
            again = solve_field(spec, list(params), "low")
        last = solve_field(spec, params, "low")
        high = solve_field(spec, params, "high")
    assert poisson_solver_calls == ["low", "low", "high"]
    for sample in (first, again, last):
        assert np.array_equal(sample.field, fresh.field)
        assert np.array_equal(sample.input, fresh.input)
        assert not sample.field.flags.writeable and not sample.input.flags.writeable
        with pytest.raises(ValueError):
            sample.field[0, 0] = 1.0
    assert high.field.shape == (32, 32)
    # the stored input is not a view of the caller's array
    params[0] = 0.9
    assert first.input[0] == 0.2


def test_solve_cache_stores_no_errors(monkeypatch, poisson_solver_calls):
    spec = pde_spec("poisson")
    with solve_cache():
        for _ in range(3):
            with pytest.raises(ValueError, match="outside"):
                solve_field(spec, [0.5, 0.5, 0.5, 0.5, 1.5], "low")
        # a malformed input does not hit the entry of a same-bytes vector
        solve_field(spec, [0.5] * 5, "low")
        with pytest.raises(ValueError, match="5 values"):
            solve_field(spec, [[0.5] * 5], "low")
    assert poisson_solver_calls == ["low"] * 5

    # a Burgers design with an out-of-range viscosity raises as its row does alone
    spec = pde_spec("burgers")
    with pytest.raises(ValueError) as alone:
        burgers_field_reference(0.5, spec, "low")
    design = np.array([[0.5], [0.05], [0.02]])
    monkeypatch.setattr(pdebench, "sample_inputs", lambda *args, **kwargs: design)
    with solve_cache():
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(str(alone.value))):
                make_dataset(spec, 3, 2)
        assert pdebench._SOLVE_CACHE.get() == {}


@pytest.mark.parametrize("kind", ["burgers", "poisson"])
def test_designs_call_solve_field_once_per_row(monkeypatch, kind):
    # the benchmark's tracer counts solver calls through this module attribute
    spec = pde_spec(kind)
    real, calls = pdebench.solve_field, []

    def counted(spec, params, fidelity="high"):
        calls.append(fidelity)
        return real(spec, params, fidelity)

    monkeypatch.setattr(pdebench, "solve_field", counted)
    for structure, aligned in (("subset", False), ("nonsubset", True)):
        for cached in (False, True):
            calls.clear()
            with solve_cache() if cached else contextlib.nullcontext():
                ds = make_dataset(spec, 5, 3, "sobol", structure, aligned, seed=0)
                again = make_dataset(spec, 5, 3, "sobol", structure, aligned, seed=0)
                X_test, Y_test = make_test_set(spec, 4, "sobol", seed=0, skip=8)
            assert calls == 2 * (["low"] * 5 + ["high"] * 3) + ["high"] * 4
            assert all(np.array_equal(a.Y, b.Y) for a, b in zip(ds.levels, again.levels))
            for x, y in zip(X_test, Y_test):
                assert y.tobytes() == real(spec, x, "high").field.tobytes()
            for x, y in zip(ds.levels[1].X, ds.levels[1].Y):
                assert y.tobytes() == real(spec, x, "high").field.tobytes()
