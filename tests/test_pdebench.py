"""PDE benchmark harness: solver correctness, sampling, dataset plumbing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import RegularGridInterpolator

from mfgar.gar import build_subset_plan
from mfgar.pdebench import (
    interp_grid,
    load_dataset,
    make_dataset,
    make_test_set,
    pde_spec,
    save_dataset,
    sobol_points,
    solve_burgers,
    solve_cache,
    solve_field,
    solve_heat,
    solve_poisson,
    spec_to_dict,
    upsample_bilinear,
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


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------


def test_poisson_constant_values_give_constant_field():
    spec = pde_spec("poisson")
    s = solve_poisson(np.full(5, 0.4), spec, "high")
    assert np.max(np.abs(s.field - 0.4)) < 1e-10


def dense_poisson_oracle(values, n):
    """Same stencil assembled over every node with identity rows for the
    constraints; solved densely."""
    left, right, bottom, top, center = values
    A = np.zeros((n * n, n * n))
    b = np.zeros(n * n)

    def k(i, j):
        return i * n + j

    fixed = {}
    for j in range(n):
        fixed[k(0, j)] = left
        fixed[k(n - 1, j)] = right
    for i in range(1, n - 1):
        fixed[k(i, 0)] = bottom
        fixed[k(i, n - 1)] = top
    c_idx = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    for i in c_idx:
        for j in c_idx:
            fixed[k(i, j)] = center
    for i in range(n):
        for j in range(n):
            kk = k(i, j)
            if kk in fixed:
                A[kk, kk] = 1.0
                b[kk] = fixed[kk]
            else:
                A[kk, kk] = 4.0
                for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    A[kk, k(ii, jj)] = -1.0
    return np.linalg.solve(A, b).reshape(n, n)


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


def test_record_grid_resamples_solver_output():
    from dataclasses import replace

    from mfgar.pdebench import FINE_RECORD_GRIDS

    base = pde_spec("poisson")
    spec = replace(base, record_grid=FINE_RECORD_GRIDS["poisson"])
    s = solve_poisson(np.array([0.2, 0.7, 0.4, 0.6, 0.5]), spec, "low")
    assert s.field.shape == (32, 32)
    native = solve_poisson(np.array([0.2, 0.7, 0.4, 0.6, 0.5]), base, "low")
    manual = interp_grid(native.field, native.axes, spec.grid_axes((32, 32)))
    assert_allclose(s.field, manual, rtol=1e-12)


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


def test_solve_cache_stores_no_errors(poisson_solver_calls):
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
