"""The benchmark's workloads: what each runs, how its outputs are checked,
and how its end-to-end quality metrics are read off the job rows.

``poisson-sweep`` and ``burgers-sweep`` run the ``benchmark`` subcommand of
the CLI in-process; ``poisson-nonsubset`` is a loop over library calls.
The workload seed reaches the program only as ``--seed`` (CLI) or as the
sampler and optimizer seed (library).  ``tiny`` variants exercise the same
paths at sizes that finish in seconds; they back the harness self-test.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

MODELS = ("gar", "cigar", "hogp")
# Columns of results.csv that repeat exactly for the same code and seed;
# dataset_ref/model_ref embed the output directory and are left out.
DETERMINISTIC_COLUMNS = ("model", "n_high", "repeat", "seed", "status", "rmse", "nll")


@dataclass(frozen=True)
class Sweep:
    """One ``mfgar benchmark`` invocation (repeats fixed at 1)."""

    name: str
    options: tuple
    n_low: int
    sweep: tuple
    n_test: int
    max_iters: int = 150
    cli = True
    # Interpreter-bound passes, several per run: the reference kernel tracks
    # the host's speed for them (see worker.host_scaled).
    scale_wall = True

    def argv(self, seed: int, out: Path) -> list:
        return [
            "benchmark", *self.options,
            "--model", ",".join(MODELS),
            "--n-low", str(self.n_low),
            "--n-high-sweep", ",".join(str(n) for n in self.sweep),
            "--n-test", str(self.n_test),
            "--repeats", "1",
            "--max-iters", str(self.max_iters),
            "--seed", str(seed),
            "--out", str(out),
        ]

    @property
    def expected_solves(self) -> int:
        """Solver calls of one pass: each job solves its low, high and test inputs."""
        return len(MODELS) * sum(self.n_low + n + self.n_test for n in self.sweep)

    def run(self, seed: int, out: Path, tracer=None) -> list:
        import mfgar.cli

        argv = self.argv(seed, out)
        if tracer is None:
            code = mfgar.cli.main(argv)
        else:
            code = tracer.call("cli.main", "cli", mfgar.cli.main, argv)
        problems = [] if code == 0 else [f"mfgar benchmark exited with {code}"]
        table = []
        if (out / "results.csv").is_file():
            with open(out / "results.csv", newline="") as fh:
                table = list(csv.DictReader(fh))
        jobs = [r for r in table if r["repeat"] not in ("mean", "std")]
        expected = len(MODELS) * len(self.sweep)
        if len(jobs) != expected or len(table) != 3 * expected:
            problems.append(f"results.csv has {len(table)} rows, expected {3 * expected}")
        if all(r["status"] == "ok" for r in jobs):
            problems += [
                f"summary {r['model']}/n{r['n_high']} is {r['status']}"
                for r in table if r["repeat"] in ("mean", "std") and r["status"] != "summary/1"
            ]
        # a structural problem becomes one failed row, so it is counted and reported
        failed = [{"model": "-", "n_high": "-", "status": f"failed: {p}"} for p in problems]
        return [{c: r[c] for c in DETERMINISTIC_COLUMNS} for r in table] + failed


@dataclass(frozen=True)
class NonsubsetLoop:
    """Poisson non-subset designs driven through the library, model by model.

    Each job runs make_dataset -> fit -> save -> load -> predict(loaded) ->
    exact training NLL(loaded), so a lossy save/load shows in the scores.
    ``hogp`` is the high-fidelity-only baseline on the same design.
    """

    name: str
    cases: tuple  # (aligned, n_high, n_test)
    n_low: int
    max_iters: int = 150
    step: float = 0.05
    cli = False
    # One pass per run, bound by large BLAS calls: scaling by the kernel times
    # around it widened the spread over ten seeds (IQR over median 0.05 raw
    # against 0.07, and 0.10 against 0.13), so wall_s stays raw here.
    scale_wall = False

    @property
    def expected_solves(self) -> int:
        return len(MODELS) * sum(self.n_low + n_high + n_test for _, n_high, n_test in self.cases)

    def run(self, seed: int, out: Path, tracer=None) -> list:
        from mfgar import cigar, gar, hogp, pdebench
        from mfgar.gar import GarConfig
        from mfgar.hogp import FitConfig
        from mfgar.metrics import nll_metric, rmse
        from mfgar.optim import OptimConfig

        spec = pdebench.pde_spec("poisson")
        optim = OptimConfig(max_iters=self.max_iters, step=self.step, seed=seed)
        rows = []
        for aligned, n_high, n_test in self.cases:
            for kind in MODELS:
                job = f"{kind}/{'aligned' if aligned else 'unaligned'}/n{n_high}"
                row = {"job": job, "model": kind, "n_high": str(n_high), "seed": str(seed),
                       "status": "ok", "rmse": "", "nll": "", "train_nll": ""}
                scope = (
                    tracer.job_scope(job, nonsubset=True) if tracer else contextlib.nullcontext()
                )
                step = "make_dataset"
                try:
                    with scope:
                        data = pdebench.make_dataset(
                            spec, self.n_low, n_high, "uniform", "nonsubset", aligned, seed
                        )
                        step = "make_test_set"
                        X_test, Y_test = pdebench.make_test_set(
                            spec, n_test, "uniform", seed, skip=self.n_low + n_high
                        )
                        path = out / f"{job.replace('/', '_')}.json"
                        if kind == "hogp":
                            step = "tgp_fit"
                            top = data.levels[-1]
                            model, _ = hogp.tgp_fit(top.X, top.Y, FitConfig(optim=optim))
                            step = "save/load"
                            hogp.save_tgp(model, path)
                            loaded = hogp.load_tgp(path)
                            step = "tgp_predict"
                            post = hogp.tgp_predict(loaded, X_test)
                            step = "tgp_nll"
                            train_nll = hogp.tgp_nll(loaded)
                        else:
                            step = f"{kind} fit"
                            fit = gar.gar_fit_recursive if kind == "gar" else cigar.cigar_fit
                            model = fit(data, GarConfig(optim=optim))
                            step = "save/load"
                            gar.save_gar(model, path)
                            loaded = gar.load_gar(path)
                            step = "gar_predict"
                            post = gar.gar_predict(loaded, X_test)
                            step = "gar_nll_nonsubset"
                            train_nll = gar.gar_nll_nonsubset(loaded)
                    row["rmse"] = repr(rmse(post.mean, Y_test))
                    row["nll"] = repr(nll_metric(post.mean, post.variance_diag, Y_test))
                    row["train_nll"] = repr(float(train_nll))
                except Exception as exc:  # one job failing must not hide the others
                    row["status"] = f"failed at {step}: {type(exc).__name__}: {exc}"
                rows.append(row)
        return rows


# The sweeps are sized so that one pass takes a few seconds and a run makes
# several passes, whose median is reported; the non-subset loop's pass is
# dominated by the aligned case's prediction and NLL, whose cost is set by
# the Poisson grid, so a run makes one or two passes of it.
WORKLOADS = {
    "poisson-sweep": Sweep(
        "poisson-sweep",
        ("--pde", "poisson", "--aligned", "--structure", "subset", "--sampler", "uniform"),
        n_low=32, sweep=(4, 16), n_test=32, max_iters=60,
    ),
    "burgers-sweep": Sweep(
        "burgers-sweep",
        ("--pde", "burgers", "--structure", "subset", "--sampler", "sobol"),
        n_low=32, sweep=(4, 16), n_test=16, max_iters=60,
    ),
    "poisson-nonsubset": NonsubsetLoop(
        "poisson-nonsubset", cases=((False, 8, 32), (True, 4, 8)), n_low=32,
    ),
}

# Same code paths at sizes that finish in seconds.  Non-subset Poisson needs
# n_high >= 3: at n_high <= 2 the fit takes the dense exact objective, which
# the benchmark leaves out (see README).
TINY = {
    "poisson-sweep": Sweep(
        "poisson-sweep", WORKLOADS["poisson-sweep"].options,
        n_low=8, sweep=(2, 4), n_test=4, max_iters=4,
    ),
    "burgers-sweep": Sweep(
        "burgers-sweep", WORKLOADS["burgers-sweep"].options,
        n_low=4, sweep=(2,), n_test=2, max_iters=4,
    ),
    "poisson-nonsubset": NonsubsetLoop(
        "poisson-nonsubset", cases=((False, 3, 4), (True, 3, 2)), n_low=8, max_iters=3,
    ),
}

# The untimed first pass of a run, which takes the lazy imports and
# first-call caches out of the timed passes.  The non-subset loop warms up on
# its unaligned tiny case only: its aligned case costs seconds even at tiny
# sizes.
WARMUP = {
    **TINY,
    "poisson-nonsubset": dataclasses.replace(
        TINY["poisson-nonsubset"], cases=TINY["poisson-nonsubset"].cases[:1]
    ),
}


def check_rows(name: str, rows: list) -> list:
    """Messages for every job that did not finish with finite scores."""
    problems = []
    for r in job_rows(rows):
        label = r.get("job") or f"{r['model']}/n{r['n_high']}"
        if r["status"] != "ok":
            problems.append(f"{name}: job {label}: {r['status']}")
            continue
        for column in ("rmse", "nll", "train_nll"):
            if column in r and not math.isfinite(float(r[column])):
                problems.append(f"{name}: job {label}: {column} = {r[column]}")
        if not float(r["rmse"]) > 0.0:
            problems.append(f"{name}: job {label}: rmse = {r['rmse']}")
    return problems


def job_rows(rows: list) -> list:
    return [r for r in rows if r.get("repeat") not in ("mean", "std")]


def quality_metrics(rows: list) -> dict:
    """End-to-end quality per model kind from the job rows of one pass.

    ``rmse.<m>`` is -log10 of the geometric mean test RMSE over the model's
    jobs (decimal digits of accuracy, higher is better); ``nll.<m>`` is the
    negated mean per-entry test NLL (mean log predictive density in nats,
    2*pi constant omitted, higher is better).  Both are reported on these
    scales so the values are positive and their spread across workload
    seeds stays inside the bound; see README.
    """
    out = {}
    for kind in MODELS:
        mine = [r for r in job_rows(rows) if r["model"] == kind and r["status"] == "ok"]
        if not mine:
            continue
        mean_log = sum(math.log10(float(r["rmse"])) for r in mine) / len(mine)
        out[f"rmse.{kind}"] = -mean_log
        out[f"nll.{kind}"] = -sum(float(r["nll"]) for r in mine) / len(mine)
    return out
