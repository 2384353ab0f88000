"""CLI harness: dataset generation, training, benchmark sweeps, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgar
from mfgar import cli
from mfgar.cli import main
from mfgar.gar import load_gar, gar_predict
from mfgar.hogp import load_tgp
from mfgar.pdebench import load_dataset, make_dataset, pde_spec


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_manifest_and_is_idempotent(tmp_path):
    args = [
        "generate", "--pde", "poisson", "--n-low", 5, "--n-high", 3,
        "--sampler", "sobol", "--seed", 0,
    ]
    assert run(*args, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    for name in ("manifest.json", "level_0_inputs.csv", "level_1_fields.npy"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["structure"] == "subset"
    assert manifest["plan"] == {"n_matched": 3, "n_unmatched": 0}


def test_generate_nonsubset_plan_stats(tmp_path):
    assert run(
        "generate", "--pde", "heat", "--n-low", 4, "--n-high", 2,
        "--structure", "nonsubset", "--sampler", "sobol", "--seed", 1,
        "--out", tmp_path / "ds",
    ) == 0
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["structure"] == "nonsubset"
    assert manifest["plan"]["n_unmatched"] == 2


def test_generate_appendix_meshes(tmp_path):
    assert run(
        "generate", "--pde", "heat", "--mesh-variant", "appendix", "--n-low", 3, "--n-high", 2,
        "--sampler", "sobol", "--seed", 0, "--out", tmp_path / "ds",
    ) == 0
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["mesh_variant"] == "appendix"
    assert [lv["mode_sizes"] for lv in manifest["levels"]] == [[16, 16], [32, 32]]


def test_generate_rejects_bad_counts(tmp_path, capsys):
    code = run("generate", "--pde", "poisson", "--n-low", 2, "--n-high", 5, "--out", tmp_path / "x")
    assert code == 1
    assert "n_high <= n_low" in capsys.readouterr().err
    # non-positive sizes are refused before anything is written
    for n_low, n_high, name in ((0, 0, "n_low"), (4, 0, "n_high"), (4, -2, "n_high")):
        code = run(
            "generate", "--pde", "poisson", "--n-low", n_low, "--n-high", n_high,
            "--structure", "nonsubset", "--out", tmp_path / "y",
        )
        assert code == 1
        assert f"{name} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_unknown_flag_is_user_error(tmp_path):
    assert run("generate", "--pde", "poisson", "--frobnicate", "--out", tmp_path / "x") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--pde", "poisson", "--n-low", 4, "--n-high", 6],
        ["benchmark", "--pde", "poisson", "--n-high-sweep="],
        ["benchmark", "--pde", "poisson", "--n-high-sweep=4,x"],
        ["benchmark", "--pde", "poisson", "--repeats", 0],
    ],
    ids=["subset-too-many-high", "empty-sweep", "malformed-sweep", "zero-repeats"],
)
def test_refused_arguments_are_one_error_line_and_write_nothing(tmp_path, capsys, args):
    assert run(*args, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "poisson"
    assert run(
        "generate", "--pde", "poisson", "--n-low", 8, "--n-high", 3,
        "--sampler", "sobol", "--seed", 0, "--out", out,
    ) == 0
    return out


@pytest.fixture(scope="module")
def aligned_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "poisson_aligned"
    assert run(
        "generate", "--pde", "poisson", "--n-low", 8, "--n-high", 3, "--aligned",
        "--sampler", "sobol", "--seed", 0, "--out", out,
    ) == 0
    return out


def test_train_gar_and_reload(small_dataset, tmp_path):
    out = tmp_path / "model"
    assert run(
        "train", "--data", small_dataset, "--model", "gar", "--max-iters", 25, "--step", 0.04,
        "--out", out,
    ) == 0
    model = load_gar(out / "model.json")
    pred = gar_predict(model, np.full(5, 0.4))
    assert pred.mean.shape == (32, 32)
    meta = json.loads((out / "train_meta.json").read_text())
    assert meta["model"] == "gar"
    assert (meta["max_iters"], meta["step"], meta["seed"]) == (25, 0.04, 0)


def test_train_cigar_and_hogp(small_dataset, tmp_path):
    assert run(
        "train", "--data", small_dataset, "--model", "cigar", "--max-iters", 20,
        "--out", tmp_path / "c",
    ) == 0
    assert json.loads((tmp_path / "c" / "model.json").read_text())["kind"] == "cigar"
    assert run(
        "train", "--data", small_dataset, "--model", "hogp", "--max-iters", 20,
        "--out", tmp_path / "h",
    ) == 0
    load_tgp(tmp_path / "h" / "model.json")


def test_train_ar_refuses_unaligned(small_dataset, tmp_path, capsys):
    code = run("train", "--data", small_dataset, "--model", "ar", "--out", tmp_path / "a")
    assert code == 1
    err = capsys.readouterr().err
    assert "aligned" in err


def test_train_ar_runs_on_aligned(aligned_dataset, tmp_path):
    assert run(
        "train", "--data", aligned_dataset, "--model", "ar", "--max-iters", 20,
        "--out", tmp_path / "a",
    ) == 0
    model = load_gar(tmp_path / "a" / "model.json")
    assert model.kind == "ar" and model.rho is not None


def test_train_reads_a_dataset_whose_spec_has_a_record_grid(small_dataset, tmp_path):
    # Dataset directories written while PdeSpec still had a record grid hold
    # "record_grid": null in the manifest's spec: they load to bitwise the
    # same levels and train to the same bundle.
    old = tmp_path / "old"
    shutil.copytree(small_dataset, old)
    manifest = json.loads((old / "manifest.json").read_text())
    assert "record_grid" not in manifest["spec"]
    manifest["spec"]["record_grid"] = None
    (old / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (new_ds, _), (old_ds, old_manifest) = load_dataset(small_dataset), load_dataset(old)
    assert old_manifest["spec"]["record_grid"] is None
    for a, b in zip(new_ds.levels, old_ds.levels):
        for x, y in ((a.X, b.X), (a.Y, b.Y)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    bundles = []
    for data, out in ((small_dataset, tmp_path / "m_new"), (old, tmp_path / "m_old")):
        assert run("train", "--data", data, "--model", "gar", "--max-iters", 5, "--out", out) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc.pop("dataset_ref") == str(data)
        bundles.append(doc)
    assert bundles[0] == bundles[1]


def test_train_missing_dataset_is_user_error(tmp_path, capsys):
    assert run("train", "--data", tmp_path / "nope", "--model", "gar", "--out", tmp_path / "m") == 1
    assert "dataset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest, field",
    [
        ({"format": "mfgar/dataset-1"}, "'levels'"),
        (["mfgar/dataset-1"], "JSON list"),
        ({"format": "mfgar/dataset-1", "levels": [{"inputs": "level_0_inputs.csv"}]}, "'fields'"),
    ],
    ids=["no-levels", "a-list", "no-fields"],
)
def test_train_malformed_manifest_is_user_error(tmp_path, capsys, manifest, field):
    # A manifest that parses as JSON but misses or mistypes a field is a
    # user error naming it, not a traceback.
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=field):
        load_dataset(data)
    assert run("train", "--data", data, "--model", "gar", "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load dataset: ") and field in err
    assert not (tmp_path / "m").exists()


def test_train_rejects_non_finite_dataset(tmp_path, capsys):
    data = tmp_path / "nan_data"
    assert run(
        "generate", "--pde", "poisson", "--n-low", 4, "--n-high", 2,
        "--sampler", "sobol", "--out", data,
    ) == 0
    fields = np.load(data / "level_1_fields.npy")
    fields[1, 3, 4] = np.nan
    np.save(data / "level_1_fields.npy", fields)
    assert run("train", "--data", data, "--model", "gar", "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert "Y contains non-finite values" in err
    assert not (tmp_path / "m").exists()


def test_train_fit_failure_exit_code(small_dataset, tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise RuntimeError("synthetic divergence")

    monkeypatch.setattr(cli, "gar_fit_recursive", boom)
    code = run("train", "--data", small_dataset, "--model", "gar", "--out", tmp_path / "m")
    assert code == 2


def test_train_reports_a_failed_transition_fit(small_dataset, tmp_path, monkeypatch, capsys):
    # a stage-2 failure inside the real fit is a fit failure, exit 2
    def boom(*a, **kw):
        raise np.linalg.LinAlgError("synthetic stage-2 failure")

    monkeypatch.setattr(mfgar.gar, "_fit_transition", boom)
    code = run("train", "--data", small_dataset, "--model", "gar", "--out", tmp_path / "m")
    assert code == 2
    assert capsys.readouterr().err == "fit failure: fit failed at fidelity transition 0 -> 1\n"
    assert not (tmp_path / "m").exists()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

BENCH_ARGS = [
    "benchmark", "--pde", "poisson", "--model", "gar", "--n-low", 6,
    "--n-high-sweep", "2,3", "--n-test", 4, "--repeats", 2,
    "--max-iters", 10, "--sampler", "sobol", "--seed", 0,
]


def test_benchmark_row_count_and_determinism(tmp_path):
    assert run(*BENCH_ARGS, "--out", tmp_path / "r1") == 0
    assert run(*BENCH_ARGS, "--out", tmp_path / "r2") == 0
    rows1 = (tmp_path / "r1" / "results.csv").read_text()
    rows2 = (tmp_path / "r2" / "results.csv").read_text()
    # provenance paths differ by output directory; normalize them
    assert rows1.replace(str(tmp_path / "r1"), "@") == rows2.replace(str(tmp_path / "r2"), "@")
    lines = rows1.strip().splitlines()
    data_rows = [l for l in lines[1:] if ",ok," in l]
    assert len(data_rows) == 4  # 2 sweep points x 2 repeats
    summary_rows = [l for l in lines[1:] if "summary" in l]
    assert len(summary_rows) == 4  # mean + std per sweep point
    assert (tmp_path / "r1" / "results.dat").exists()
    timings = (tmp_path / "r1" / "timings.csv").read_text().strip().splitlines()
    assert timings[0] == "model,n_high,repeat,wall_time_s,generate_s,testset_s,fit_s,predict_s,save_s"
    assert len(timings) == 5
    for line in timings[1:]:
        wall, *phases = [float(v) for v in line.split(",")[3:]]
        assert len(phases) == 5 and min(phases) >= 0.0
        # each column is rounded to 0.001 s
        assert sum(phases) <= wall + 6 * 0.0005


def test_benchmark_solves_each_input_once_per_run(tmp_path, monkeypatch):
    from mfgar import pdebench

    monkeypatch.delenv("MFGAR_WORKERS", raising=False)
    requests, solves = [], []
    real_field, real_solver = pdebench.solve_field, pdebench.solve_poisson

    def counted_field(spec, params, fidelity="high"):
        requests.append((spec.mesh(fidelity), np.asarray(params, dtype=float).tobytes()))
        return real_field(spec, params, fidelity)

    def counted_solver(values, spec, fidelity="high"):
        solves.append(fidelity)
        return real_solver(values, spec, fidelity)

    monkeypatch.setattr(pdebench, "solve_field", counted_field)
    monkeypatch.setattr(pdebench, "solve_poisson", counted_solver)
    args = [a if a != "gar" else "gar,hogp" for a in BENCH_ARGS]
    assert run(*args, "--out", tmp_path / "c") == 0
    # every job still asks for its low, high and test fields: n_low 6, n_test 4
    assert len(requests) == 2 * 2 * ((6 + 2 + 4) + (6 + 3 + 4))
    assert len(solves) == len(set(requests)) < len(requests)
    # nothing outlives the run: the first Sobol point, whose low field repeat 0
    # solved, reaches the solver again
    real_field(pde_spec("poisson"), np.full(5, 0.5), "low")
    assert len(solves) == len(set(requests)) + 1


def test_benchmark_worker_pool_matches_sequential(tmp_path, monkeypatch):
    assert run(*BENCH_ARGS, "--out", tmp_path / "seq") == 0
    monkeypatch.setenv("MFGAR_WORKERS", "2")
    assert run(*BENCH_ARGS, "--out", tmp_path / "par") == 0
    a = (tmp_path / "seq" / "results.csv").read_text().replace(str(tmp_path / "seq"), "@")
    b = (tmp_path / "par" / "results.csv").read_text().replace(str(tmp_path / "par"), "@")
    assert a == b


def test_benchmark_fits_each_base_level_once_per_kind_and_repeat(tmp_path, monkeypatch):
    # Sweep points of one (kind, repeat) share the low design, so stage 1 runs
    # once per group; the rows are bitwise those of refitting it every time.
    from mfgar import gar

    monkeypatch.delenv("MFGAR_WORKERS", raising=False)
    stage1 = []
    real_tgp_fit, real_fit_model = gar.tgp_fit, cli._fit_model

    def counted(X, Y, config):
        stage1.append(config.identity_outputs)
        return real_tgp_fit(X, Y, config)

    monkeypatch.setattr(gar, "tgp_fit", counted)
    args = [a if a != "gar" else "gar,cigar" for a in BENCH_ARGS]
    args[args.index("--n-high-sweep") + 1] = "2,4"
    assert run(*args, "--out", tmp_path / "shared") == 0
    assert sorted(stage1) == [False, False, True, True]  # (gar|cigar) x 2 repeats

    def refit(kind, dataset, optim, low=None):
        return real_fit_model(kind, dataset, optim)

    monkeypatch.setattr(cli, "_fit_model", refit)
    assert run(*args, "--out", tmp_path / "refit") == 0
    assert len(stage1) == 4 + 8
    a = (tmp_path / "shared" / "results.csv").read_text().replace(str(tmp_path / "shared"), "@")
    b = (tmp_path / "refit" / "results.csv").read_text().replace(str(tmp_path / "refit"), "@")
    assert a == b and a.count(",ok,") == 8


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_benchmark_refuses_a_bad_worker_count(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("MFGAR_WORKERS", value)
    assert run(*BENCH_ARGS, "--out", tmp_path / "w") == 1
    assert f"MFGAR_WORKERS must be a positive integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_benchmark_partial_failure_flagged(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli._fit_model

    def flaky(kind, dataset, optim, low=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic divergence")
        return real(kind, dataset, optim, low)

    monkeypatch.setattr(cli, "_fit_model", flaky)
    assert run(*BENCH_ARGS, "--out", tmp_path / "p") == 0
    text = (tmp_path / "p" / "results.csv").read_text()
    assert "failed: RuntimeError" in text
    assert text.count(",ok,") == 3


def test_benchmark_all_failures_exit_code(tmp_path, monkeypatch):
    def boom(kind, dataset, optim, low=None):
        raise RuntimeError("synthetic divergence")

    monkeypatch.setattr(cli, "_fit_model", boom)
    assert run(*BENCH_ARGS, "--out", tmp_path / "f") == 2


def test_benchmark_rows_traceable_to_artifacts(tmp_path):
    from pathlib import Path

    assert run(*BENCH_ARGS, "--out", tmp_path / "t") == 0
    lines = (tmp_path / "t" / "results.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    di, mi = header.index("dataset_ref"), header.index("model_ref")
    for line in lines[1:]:
        parts = line.split(",")
        if parts[4] == "ok":
            assert Path(parts[di]).exists()
            assert Path(parts[mi]).exists()
    # repeat 1 draws its Sobol design one (n_low + max sweep + n_test) block on
    saved, _ = load_dataset(tmp_path / "t" / "jobs" / "gar_n3_r1" / "dataset")
    expected = make_dataset(pde_spec("poisson"), 6, 3, "sobol", skip=6 + 3 + 4)
    for got, want in zip(saved.levels, expected.levels):
        assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)


@pytest.mark.slow
def test_train_gar_poisson_within_time_budget(tmp_path):
    import time

    out = tmp_path / "ds"
    assert run(
        "generate", "--pde", "poisson", "--n-low", 32, "--n-high", 8, "--aligned",
        "--sampler", "uniform", "--seed", 0, "--out", out,
    ) == 0
    start = time.perf_counter()
    assert run("train", "--data", out, "--model", "gar", "--out", tmp_path / "m") == 0
    assert time.perf_counter() - start < 60.0


def test_train_cigar_records_no_output_covariance_factorization(
    small_dataset, tmp_path, monkeypatch
):
    from mfgar.tensalg import track_eig_sizes
    from oracles import record_cholesky_sizes

    chol_sizes = record_cholesky_sizes(monkeypatch)
    with track_eig_sizes() as sizes:
        assert run(
            "train", "--data", small_dataset, "--model", "cigar", "--max-iters", 15,
            "--out", tmp_path / "c",
        ) == 0
    # input Grams only, and on this subset data by Cholesky alone: never a
    # d_m-sized (8 or 32 per mode) factorization
    assert sizes == []
    assert chol_sizes and max(chol_sizes) <= 8  # n_low of the fixture dataset
    assert 32 not in chol_sizes


def test_benchmark_validates_arguments(tmp_path, capsys):
    assert run(
        "benchmark", "--pde", "poisson", "--model", "wrong", "--out", tmp_path / "x"
    ) == 1
    assert run(
        "benchmark", "--pde", "poisson", "--model", "gar", "--n-low", 4,
        "--n-high-sweep", "8", "--out", tmp_path / "y",
    ) == 1
    assert run(
        "benchmark", "--pde", "poisson", "--model", "ar", "--n-low", 4,
        "--n-high-sweep", "2", "--out", tmp_path / "z",
    ) == 1  # scalar transfer needs --aligned
    assert "aligned" in capsys.readouterr().err
    for flag, value, name in (
        ("--n-high-sweep", "-2", "sweep values"),
        ("--n-high-sweep", "4,0", "sweep values"),
        ("--n-low", "0", "n_low"),
        ("--n-test", "0", "n_test"),
    ):
        sizes = {"--n-low": "4", "--n-high-sweep": "2", "--n-test": "2", flag: value}
        assert run(
            "benchmark", "--pde", "poisson", "--model", "gar",
            *[a for item in sizes.items() for a in item], "--out", tmp_path / "w",
        ) == 1
        assert f"{name} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "flag,value,field",
    [("--max-iters", "0", "max_iters"), ("--step", "-1", "step"), ("--step", "nan", "step")],
)
def test_benchmark_refuses_bad_optimizer_settings(tmp_path, capsys, flag, value, field):
    # refused before anything is written, as --repeats 0 is, naming the field
    assert run(
        "benchmark", "--pde", "poisson", "--model", "gar", "--n-low", 4,
        "--n-high-sweep", "2", "--n-test", "2", flag, value, "--out", tmp_path / "w",
    ) == 1
    assert f"error: OptimConfig.{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_train_refuses_bad_optimizer_settings(small_dataset, tmp_path, capsys):
    assert run(
        "train", "--data", small_dataset, "--model", "gar", "--max-iters", 0,
        "--out", tmp_path / "m",
    ) == 1
    assert "error: OptimConfig.max_iters must be" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_benchmark_refuses_repeated_sweep_values(tmp_path, capsys):
    # each (model, n_high, repeat) job owns one jobs/ directory, so a
    # repeated value would run one job several times into the same place
    for values, option in (
        (("--model", "gar,gar", "--n-high-sweep", "2"), "--model repeats gar"),
        (("--model", "gar,hogp", "--n-high-sweep", "2,3,2"), "--n-high-sweep repeats 2"),
    ):
        assert run(
            "benchmark", "--pde", "poisson", "--n-low", 6, "--repeats", 1, *values,
            "--out", tmp_path / "x",
        ) == 1
        assert option in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_benchmark_refuses_an_empty_model_list(tmp_path, capsys):
    # refused before anything is written, as an empty sweep is
    for models in (",", ""):
        assert run(
            "benchmark", "--pde", "poisson", "--model", models, "--n-low", 4,
            "--n-high-sweep", "2", "--n-test", "2", "--repeats", 1, "--out", tmp_path / "x",
        ) == 1
        assert "error: empty model list" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


UNWRITABLE_OUT_ARGS = {
    "generate": ["--pde", "poisson", "--n-low", 4, "--n-high", 2],
    "train": ["--model", "gar", "--max-iters", 2],
    "benchmark": [
        "--pde", "poisson", "--n-low", 4, "--n-high-sweep", "2", "--n-test", "2",
        "--repeats", 1, "--max-iters", 2,
    ],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT_ARGS))
def test_unwritable_out_is_one_error_line(small_dataset, tmp_path, command, under):
    # an --out that is a file, or lies under one, is a user error: exit 1
    # and one "error:" line from the command line entry point, no traceback
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    args = UNWRITABLE_OUT_ARGS[command]
    if command == "train":
        args = ["--data", small_dataset, *args]
    src = str(Path(mfgar.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "mfgar", command, *map(str, args), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_unwritable_out_is_refused_before_any_solve(tmp_path, monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli, "make_dataset", solve)
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    assert run("generate", *UNWRITABLE_OUT_ARGS["generate"], "--out", blocker / "ds") == 1
    assert "is not a directory" in capsys.readouterr().err
