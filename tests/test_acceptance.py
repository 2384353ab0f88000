"""Acceptance suite: the package's exit criteria, one test per criterion.

Every criterion prints a single ``[PASS]``/``[FAIL]`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and asserts at its
stated tolerance.  Expected values come from the dense oracles in
``oracles.py`` (exponential-cost, oracle-first constructions) or from the
benchmark harness itself.
"""

import time

import numpy as np
import pytest

from mfgar.cigar import CigarModel, orthonormalize
from mfgar.cli import main as cli_main
from mfgar.gar import (
    GarConfig,
    MultiFidelityDataset,
    _IdentityOutputNonsubsetPack,
    _ResidualPack,
    gar_fit_recursive,
    gar_fit_subset,
    gar_nll_nonsubset,
    gar_predict,
)
from mfgar.hogp import _TgpPack, tgp_nll, tgp_predict
from mfgar.kernels import ArdKernelParams
from mfgar.optim import OptimConfig
from mfgar.pdebench import pde_spec, solve_field, solve_poisson, upsample_bilinear
from oracles import (
    dense_marginal_nonsubset_nll,
    dense_nonsubset_pack,
    dense_nonsubset_predict,
    dense_tgp_nll,
    dense_tgp_predict,
    dense_two_level_predict,
    gar_joint_nll_dense,
    grad_audit,
    low_stack,
    make_random_nonsubset,
    make_random_tgp,
    make_random_two_level,
    output_factors,
    scalar_ar_dense_nll,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_subset_instance(rng):
    n_low = int(rng.integers(2, 9))
    n_high = int(rng.integers(1, min(n_low, 4) + 1))
    low_modes = tuple(rng.integers(1, 4, size=2))
    high_modes = tuple(rng.integers(1, 4, size=2))
    return make_random_two_level(rng, n_low, n_high, low_modes, high_modes)


def random_nonsubset_instance(rng):
    n_low = int(rng.integers(5, 9))
    n_unmatched = int(rng.integers(1, 4))
    n_matched = int(rng.integers(0, 3))
    low_modes = tuple(rng.integers(1, 4, size=1))
    high_modes = tuple(rng.integers(1, 4, size=1))
    return make_random_nonsubset(rng, n_low, n_matched, n_unmatched, low_modes, high_modes)


def test_criterion_1_subset_likelihood_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        model, ds = random_subset_instance(rng)
        parts = tgp_nll(model.low) + tgp_nll(model.transitions[0].residual)
        dense = gar_joint_nll_dense(model, ds)
        worst = max(worst, abs(parts - dense) / abs(dense))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        "1 (separable subset likelihood)",
        ok,
        f"20 instances, max rel err {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_nonsubset_marginal_identity():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        model, ds = random_nonsubset_instance(rng)
        trans = model.transitions[0]
        closed = gar_nll_nonsubset(model)
        oracle = dense_marginal_nonsubset_nll(
            model.low, trans.weights, trans.residual, trans.plan,
            trans.residual.X[trans.plan.n_matched :],
            ds.levels[0].Y, ds.levels[1].Y[trans.plan.permutation],
        )
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 30.0
    report(
        "2 (imaginary-subset marginal; correction sandwich resolved to W S W^T)",
        ok,
        f"20 instances incl. zero-matched, max rel err {worst:.2e} (tol 1e-7), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_posterior_oracles():
    rng = np.random.default_rng(103)
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(20):
        model, ds = random_subset_instance(rng)
        trans = model.transitions[0]
        Xq = rng.uniform(-1, 1, size=(2, 2))
        pred = gar_predict(model, Xq)
        mean_d, var_d = dense_two_level_predict(
            model.low, trans.weights, trans.residual, trans.plan.matched_low,
            ds.levels[0].Y, ds.levels[1].Y, Xq,
        )
        scale_m = np.maximum(np.abs(mean_d), 1e-9)
        scale_v = np.maximum(np.abs(var_d), 1e-9)
        worst_mean = max(worst_mean, float(np.max(np.abs(pred.mean - mean_d) / scale_m)))
        worst_var = max(worst_var, float(np.max(np.abs(pred.variance_diag - var_d) / scale_v)))
    for _ in range(20):
        model, ds = random_nonsubset_instance(rng)
        trans = model.transitions[0]
        Xq = rng.uniform(-1, 1, size=(2, 2))
        pred = gar_predict(model, Xq)
        mean_d, var_d = dense_nonsubset_predict(
            model.low, trans.weights, trans.residual, trans.plan,
            trans.residual.X[trans.plan.n_matched :], ds.levels[0].Y, Xq,
        )
        scale_m = np.maximum(np.abs(mean_d), 1e-9)
        scale_v = np.maximum(np.abs(var_d), 1e-9)
        worst_mean = max(worst_mean, float(np.max(np.abs(pred.mean - mean_d) / scale_m)))
        worst_var = max(worst_var, float(np.max(np.abs(pred.variance_diag - var_d) / scale_v)))
    ok = worst_mean <= 1e-7 and worst_var <= 1e-6
    report(
        "3 (posterior vs dense conditionals, subset and non-subset)",
        ok,
        f"40 instances, mean rel err {worst_mean:.2e} (tol 1e-7), "
        f"variance rel err {worst_var:.2e} (tol 1e-6)",
    )


def test_criterion_4_autokrigeability():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        n_low = int(rng.integers(3, 7))
        n_high = int(rng.integers(1, n_low + 1))
        d_l = int(rng.integers(1, 4))
        d_h = int(rng.integers(d_l, 5))
        model, ds = make_random_two_level(
            rng, n_low, n_high, (d_l,), (d_h,), identity_outputs=True
        )
        trans = model.transitions[0]
        trans.weights = orthonormalize(trans.weights)
        stack = low_stack(trans, ds.levels[0].Y)
        trans.residual.Y = ds.levels[1].Y - trans.weights.apply(stack)
        cig = CigarModel(low=model.low, transitions=model.transitions, kind="cigar")
        Xq = rng.uniform(-1, 1, size=(3, 2))
        fast = gar_predict(cig, Xq)
        mean_d, _ = dense_two_level_predict(
            model.low, trans.weights, trans.residual, trans.plan.matched_low,
            ds.levels[0].Y, ds.levels[1].Y, Xq,
        )
        worst = max(worst, float(np.max(np.abs(fast.mean - mean_d))))
    ok = worst <= 1e-8
    report(
        "4 (autokrigeability: collapsed vs full-machinery means at S = I)",
        ok,
        f"10 instances, max entrywise mean gap {worst:.2e} (tol 1e-8)",
    )


def test_criterion_5_kronecker_pipeline_and_gradients():
    rng = np.random.default_rng(105)
    worst_nll, worst_pred = 0.0, 0.0
    for n, modes, identity in [
        (2, (3,), False), (4, (2, 3), False), (5, (2, 2, 2), False),
        (8, (5, 5), False), (12, (4, 4), False), (6, (4,), True), (3, (2, 3, 2), True),
    ]:
        model = make_random_tgp(rng, n, modes, identity_outputs=identity)
        assert n * model.output_size <= 200
        worst_nll = max(
            worst_nll, abs(tgp_nll(model) - dense_tgp_nll(model)) / abs(dense_tgp_nll(model))
        )
        Xq = rng.uniform(-1, 1, size=(2, 2))
        pred = tgp_predict(model, Xq)
        mean_d, var_d = dense_tgp_predict(model, Xq)
        worst_pred = max(
            worst_pred,
            float(np.max(np.abs(pred.mean - mean_d) / np.maximum(np.abs(mean_d), 1e-9))),
            float(
                np.max(np.abs(pred.variance_diag - var_d) / np.maximum(np.abs(var_d), 1e-9))
            ),
        )

    audits = {}
    model = make_random_tgp(rng, 3, (2, 2), noise=0.1)
    pack = _TgpPack(model)
    audits["tgp"] = grad_audit(pack.objective, pack.pack(model), eps=1e-5)
    ident = make_random_tgp(rng, 4, (3,), identity_outputs=True, noise=0.2)
    pack = _TgpPack(ident)
    audits["tgp identity-S"] = grad_audit(pack.objective, pack.pack(ident), eps=1e-5)

    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    for mode in ("free", "scalar"):
        pack = _ResidualPack(
            low_stack(trans, ds.levels[0].Y), ds.levels[1].Y, trans.residual, trans.weights,
            mode,
        )
        audits[f"stage2 {mode} W"] = grad_audit(pack.objective, pack.pack(), eps=1e-5)

    ns_model, ns_ds = make_random_nonsubset(rng, 4, 1, 2, (2,), (2,))
    pack = dense_nonsubset_pack(ns_model, ns_ds)
    audits["non-subset corrected (oracle)"] = grad_audit(pack.objective, pack.pack(), eps=1e-5)
    # the production latent non-subset fit: the imputed-residual objective
    t = ns_model.transitions[0]
    pack = _ResidualPack(
        low_stack(t, ns_ds.levels[0].Y), ns_ds.levels[1].Y[t.plan.permutation],
        t.residual, t.weights, "free",
    )
    audits["non-subset imputed residual"] = grad_audit(pack.objective, pack.pack(), eps=1e-5)

    ci_model, ci_ds = make_random_nonsubset(
        rng, 4, 1, 2, (2,), (3,), identity_outputs=True, orthonormal_w=True
    )
    t = ci_model.transitions[0]
    pack = _IdentityOutputNonsubsetPack(
        low_stack(t, ci_ds.levels[0].Y), ci_ds.levels[1].Y[t.plan.permutation],
        t.residual, t.weights, "free", t.workspace.s_hat, t.plan.n_matched,
    )
    audits["collapsed non-subset"] = grad_audit(pack.objective, pack.pack(), eps=1e-5)

    worst_grad = max(audits.values())
    ok = worst_nll <= 1e-7 and worst_pred <= 1e-7 and worst_grad <= 1e-4
    report(
        "5 (Kronecker pipeline + gradient audits)",
        ok,
        f"NLL rel err {worst_nll:.2e}, prediction rel err {worst_pred:.2e} (tol 1e-7); "
        f"worst gradient audit {worst_grad:.2e} over {list(audits)} (tol 1e-4)",
    )


def test_criterion_6_degeneracy_chain():
    rng = np.random.default_rng(106)
    checks = []

    # (i) empty unmatched set: non-subset path reproduces the subset path,
    # the prediction at criterion 3's tolerances against the dense posterior
    model, ds = make_random_two_level(rng, 5, 3, (2, 2), (2, 2))
    trans = model.transitions[0]
    same_nll = np.isclose(
        gar_nll_nonsubset(model),
        tgp_nll(model.low) + tgp_nll(trans.residual),
        rtol=1e-12,
    )
    q = rng.uniform(-1, 1, size=(3, 2))
    pred = gar_predict(model, q)
    mean_d, var_d = dense_two_level_predict(
        model.low, trans.weights, trans.residual, trans.plan.matched_low,
        ds.levels[0].Y, ds.levels[1].Y, q,
    )
    same_pred = (
        np.max(np.abs(pred.mean - mean_d) / np.maximum(np.abs(mean_d), 1e-9)) <= 1e-7
        and np.max(np.abs(pred.variance_diag - var_d) / np.maximum(np.abs(var_d), 1e-9)) <= 1e-6
    )
    checks.append(("empty-unmatched degeneracy", same_nll and same_pred))

    # (ii) scalar transfer matches a from-scratch dense scalar implementation
    model, ds = make_random_two_level(rng, 6, 3, (1,), (1,))
    trans = model.transitions[0]
    rho = -0.6
    trans.weights.factors[0][:] = rho
    trans.residual.Y = ds.levels[1].Y - rho * ds.levels[0].Y[:3]
    s_l = float(output_factors(model.low)[0][0, 0])
    s_r = float(output_factors(trans.residual)[0][0, 0])
    k_low = ArdKernelParams(
        model.low.input_kernel.log_amplitude + np.log(s_l),
        model.low.input_kernel.log_lengthscales,
    )
    k_res = ArdKernelParams(
        trans.residual.input_kernel.log_amplitude + np.log(s_r),
        trans.residual.input_kernel.log_lengthscales,
    )
    oracle = scalar_ar_dense_nll(
        rho, k_low, k_res, model.low.noise, trans.residual.noise,
        ds.levels[0].X, ds.levels[1].X, trans.plan.matched_low, ds.levels[0].Y, ds.levels[1].Y,
    )
    parts = tgp_nll(model.low) + tgp_nll(trans.residual)
    checks.append(("scalar-transfer vs dense scalar oracle", np.isclose(parts, oracle, rtol=1e-8)))

    # (iii) two-level recursive fit coincides with the direct subset fit
    X = rng.uniform(0, 1, size=(10, 2))
    Y1 = np.stack([np.sin(2 * np.pi * x[0]) * np.ones((2, 2)) + x[1] for x in X])
    ds2 = MultiFidelityDataset([(X, Y1), (X[:4], 1.3 * Y1[:4])])
    cfg = GarConfig(optim=OptimConfig(max_iters=30), share_latents=False)
    pa = gar_predict(gar_fit_subset(ds2, cfg), q)
    pb = gar_predict(gar_fit_recursive(ds2, cfg), q)
    checks.append(
        (
            "recursive tau=2 equals direct fit",
            np.array_equal(pa.mean, pb.mean) and np.array_equal(pa.variance_diag, pb.variance_diag),
        )
    )

    # (iv) W = I, S = I: the residual tensor is the plain difference
    ds_same = MultiFidelityDataset([(X, Y1), (X[:4], Y1[:4] + 0.2)])
    cfg_res = GarConfig(
        optim=OptimConfig(max_iters=20), w_mode="identity", identity_outputs=True
    )
    resgp = gar_fit_recursive(ds_same, cfg_res)
    resid = resgp.transitions[0].residual.Y
    checks.append(
        ("identity W and S give plain-difference residual", np.allclose(resid, 0.2, atol=1e-12))
    )

    ok = all(flag for _, flag in checks)
    report("6 (degeneracy chain)", ok, "; ".join(f"{name}: {'ok' if f else 'FAIL'}" for name, f in checks))


@pytest.mark.slow
def test_criterion_7_poisson_benchmark_orderings(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench"
    code = cli_main(
        [
            "benchmark", "--pde", "poisson", "--model", "gar,cigar,hogp",
            "--n-low", "32", "--n-high-sweep", "4,8,16,32", "--n-test", "128",
            "--repeats", "5", "--max-iters", "150", "--aligned",
            "--sampler", "uniform", "--seed", "0", "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    stats = {}
    for line in (out / "results.csv").read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[2] in ("mean", "std") and parts[5]:
            stats[(parts[0], int(parts[1]), parts[2])] = float(parts[5])
    sweep = [4, 8, 16, 32]
    gar_means = [stats[("gar", n, "mean")] for n in sweep]
    gar_stds = [stats[("gar", n, "std")] for n in sweep]
    low_data_wins = all(
        stats[("gar", n, "mean")] < stats[("hogp", n, "mean")] for n in (4, 8)
    )
    monotone = all(
        gar_means[i + 1] <= gar_means[i] + gar_stds[i] for i in range(len(sweep) - 1)
    )
    cigar_close = all(
        stats[("cigar", n, "mean")] <= 1.5 * stats[("gar", n, "mean")] for n in sweep
    )
    ok = low_data_wins and monotone and cigar_close and elapsed < 1800
    report(
        "7 (qualitative benchmark reproduction)",
        ok,
        f"fusion beats high-only at n=4,8: {low_data_wins}; non-increasing within 1 std: "
        f"{monotone}; collapsed within 1.5x: {cigar_close}; runtime {elapsed/60:.1f} min (< 30)",
    )


def test_criterion_8_pde_harness_validity():
    rng = np.random.default_rng(108)
    orderings = {}
    for kind in ("burgers", "poisson", "heat"):
        spec = pde_spec(kind)
        lo = np.array([r[0] for r in spec.input_ranges])
        hi = np.array([r[1] for r in spec.input_ranges])
        X = lo + rng.uniform(size=(32, spec.input_dim)) * (hi - lo)
        err_low, err_high = [], []
        for x in X:
            ref = solve_field(spec, x, "reference")
            low = upsample_bilinear(solve_field(spec, x, "low"), ref.axes)
            high = upsample_bilinear(solve_field(spec, x, "high"), ref.axes)
            err_low.append(np.sqrt(np.mean((low.field - ref.field) ** 2)))
            err_high.append(np.sqrt(np.mean((high.field - ref.field) ** 2)))
        orderings[kind] = (float(np.mean(err_low)), float(np.mean(err_high)))
    const = solve_poisson(np.full(5, 0.55), pde_spec("poisson"), "high")
    const_err = float(np.max(np.abs(const.field - 0.55)))
    ok = all(lo_e > hi_e for lo_e, hi_e in orderings.values()) and const_err <= 1e-10
    detail = "; ".join(
        f"{k}: low {lo_e:.3e} > high {hi_e:.3e}" for k, (lo_e, hi_e) in orderings.items()
    )
    report("8 (fidelity ordering + constant-boundary exactness)", ok, f"{detail}; constant-case err {const_err:.1e}")


def test_criterion_9_benchmark_determinism(tmp_path):
    out = tmp_path / "det"
    args = [
        "benchmark", "--pde", "poisson", "--model", "gar", "--n-low", "6",
        "--n-high-sweep", "2,3", "--n-test", "4", "--repeats", "2",
        "--max-iters", "12", "--sampler", "sobol", "--seed", "0", "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = (out / "results.csv").read_bytes()
    assert cli_main(args) == 0
    second = (out / "results.csv").read_bytes()
    ok = first == second
    report("9 (benchmark determinism)", ok, f"results.csv byte-identical across runs: {ok}")
