"""Command-line harness: generate datasets, train models, run RMSE sweeps.

Subcommands
-----------
* ``generate`` writes a dataset directory (manifest + per-level inputs CSV +
  field arrays) for one PDE benchmark.
* ``train`` fits one model kind on a dataset directory and writes the model
  bundle (``model.json``: fitted parameters, training data and subset plans;
  ``load_gar`` rebuilds the non-subset imputation state from them) and the
  run settings (``train_meta.json``).  The bundle is JSON with ``kind`` and
  ``dataset_ref`` at the top; each array in it is a base64 payload of its
  little-endian bytes (``mfgar.hogp.encode_array``), so it loads bitwise.
* ``benchmark`` sweeps the high-fidelity sample count, repeating each point
  with shuffled designs (distinct sampler streams per repeat), and emits
  ``results.csv`` (deterministic given seeds; one row per model/sweep/repeat
  plus mean/std summary rows) and ``timings.csv`` (wall-clock, inherently
  non-deterministic, kept out of the reproducible file): per job
  ``wall_time_s`` and its phases ``generate_s``, ``testset_s``, ``fit_s``,
  ``predict_s`` and ``save_s``, blank for a phase a failed job never reached.
  Within one ``benchmark`` run each distinct PDE input is solved once and
  shared by every job that uses it (``pdebench.solve_cache``).  The jobs of
  one model kind and repeat form a group that runs its sweep points in
  order, in one process.  Their datasets share the low-fidelity level (its
  design depends on the repeat only), so the first point of a group fits
  the base level (stage 1 of gar, cigar and ar) and the later points reuse
  it (``gar_fit_recursive(low=)``); their results are bitwise those of a
  refit.  ``fit_s`` therefore carries the base fit at a group's first sweep
  point only.

Exit codes: 0 ok, 1 user error (an ``--out`` that cannot be written
included), 2 fit failure.  The worker count for benchmark groups comes from
the ``MFGAR_WORKERS`` environment variable, a positive integer (default 1).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cigar import cigar_fit
from .gar import (
    GarConfig,
    build_subset_plan,
    gar_fit_recursive,
    ar_baseline_fit,
    gar_predict,
    save_gar,
)
from .hogp import FitConfig, tgp_fit, tgp_predict, save_tgp
from .metrics import nll_metric, rmse
from .optim import OptimConfig
from .pdebench import (
    load_dataset,
    make_dataset,
    make_test_set,
    pde_spec,
    save_dataset,
    solve_cache,
    spec_to_dict,
)

MODEL_KINDS = ("gar", "cigar", "ar", "hogp")
USER_ERROR, FIT_FAILURE = 1, 2


@dataclass
class ExperimentConfig:
    """Validated benchmark sweep description (one per ``benchmark`` run)."""

    pde: str
    mesh_variant: str
    models: list
    n_low: int
    sweep: list
    n_test: int
    structure: str
    aligned: bool
    sampler: str
    repeats: int
    seed: int
    max_iters: int
    step: float
    out: Path
    workers: int = 1

    def __post_init__(self):
        if not self.models:
            raise ValueError("empty model list")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        if not self.sweep:
            raise ValueError("empty high-fidelity sweep")
        # each (kind, n_high, repeat) job writes its own directory
        for option, values in (("--model", self.models), ("--n-high-sweep", self.sweep)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{option} repeats {', '.join(map(str, repeated))}")
        sizes = (("n_low", self.n_low), ("n_test", self.n_test), ("sweep values", min(self.sweep)))
        for name, n in sizes:
            if n < 1:
                raise ValueError(f"{name} must be >= 1, got {n}")
        if self.structure == "subset" and max(self.sweep) > self.n_low:
            raise ValueError("sweep values must not exceed n_low for subset runs")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        # the jobs' optimizer settings, refused here before any output is written
        OptimConfig(max_iters=self.max_iters, step=self.step, seed=self.seed)
        if "ar" in self.models and not self.aligned:
            # fidelity meshes differ for every benchmark problem, so the
            # scalar transfer needs the interpolated (aligned) outputs
            raise ValueError("the 'ar' baseline requires aligned outputs; add --aligned")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USER_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfgar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pde", choices=("burgers", "poisson", "heat"), required=True)
        p.add_argument("--mesh-variant", choices=("main", "appendix"), default="main")
        p.add_argument("--n-low", type=int, default=32)
        p.add_argument("--structure", choices=("subset", "nonsubset"), default="subset")
        p.add_argument("--aligned", action="store_true")
        p.add_argument("--sampler", choices=("uniform", "sobol"), default="uniform")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True)

    gen = sub.add_parser("generate", help="write a dataset directory")
    add_common(gen)
    gen.add_argument("--n-high", type=int, default=8)

    train = sub.add_parser("train", help="fit one model on a dataset directory")
    train.add_argument("--data", type=Path, required=True)
    train.add_argument("--model", choices=MODEL_KINDS, required=True)
    train.add_argument("--max-iters", type=int, default=150)
    train.add_argument("--step", type=float, default=0.05)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", type=Path, required=True)

    bench = sub.add_parser("benchmark", help="sweep high-fidelity counts")
    add_common(bench)
    bench.add_argument("--model", default="gar", help="comma-separated kinds from gar,cigar,ar,hogp")
    bench.add_argument("--n-high-sweep", default="4,8,16,32")
    bench.add_argument("--n-test", type=int, default=128)
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--max-iters", type=int, default=150)
    bench.add_argument("--step", type=float, default=0.05)
    return parser


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = pde_spec(args.pde, args.mesh_variant)
    if args.structure == "subset" and args.n_high > args.n_low:
        sys.stderr.write("error: subset structure needs --n-high <= --n-low\n")
        return USER_ERROR
    dataset = make_dataset(
        spec, args.n_low, args.n_high, args.sampler, args.structure, args.aligned, args.seed
    )
    plan = build_subset_plan(dataset)
    manifest_extra = {
        "spec": spec_to_dict(spec),
        "mesh_variant": args.mesh_variant,
        "sampler": args.sampler,
        "seed": args.seed,
        "structure": args.structure,
        "aligned": args.aligned,
        "plan": {"n_matched": plan.n_matched, "n_unmatched": plan.n_unmatched},
    }
    path = save_dataset(dataset, args.out, manifest_extra)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _fit_model(kind: str, dataset, optim: OptimConfig, low=None):
    """Fit one model kind; returns ``(family, model)`` with family "gar" or "tgp".

    ``low``, a base level fitted earlier on the same lowest level, replaces
    stage 1 of the "gar" family (see ``gar_fit_recursive``).
    """
    cfg = GarConfig(optim=optim)
    if kind == "gar":
        return "gar", gar_fit_recursive(dataset, cfg, low=low)
    if kind == "cigar":
        return "gar", cigar_fit(dataset, cfg, low=low)
    if kind == "ar":
        return "gar", ar_baseline_fit(dataset, cfg, low=low)
    if kind == "hogp":
        top = dataset.levels[-1]
        model, _ = tgp_fit(top.X, top.Y, FitConfig(optim=optim))
        return "tgp", model
    raise ValueError(f"unknown model kind {kind!r}")


def cmd_train(args) -> int:
    try:
        dataset, manifest = load_dataset(args.data)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot load dataset: {exc}\n")
        return USER_ERROR
    try:
        optim = OptimConfig(max_iters=args.max_iters, step=args.step, seed=args.seed)
        family, model = _fit_model(args.model, dataset, optim)
    except ValueError as exc:
        # contract violations (e.g. scalar transfer on unaligned outputs)
        sys.stderr.write(f"error: {exc}\n")
        return USER_ERROR
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"fit failure: {exc}\n")
        return FIT_FAILURE
    args.out.mkdir(parents=True, exist_ok=True)
    ref = str(args.data)
    path = args.out / "model.json"
    save = save_tgp if family == "tgp" else save_gar
    save(model, path, dataset_ref=ref)
    meta = {
        "model": args.model,
        "dataset": ref,
        "seed": args.seed,
        "max_iters": args.max_iters,
    }
    with open(args.out / "train_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


PHASES = ("generate_s", "testset_s", "fit_s", "predict_s", "save_s")


@contextlib.contextmanager
def _phase(times: dict, name: str):
    """Add the wall time of the block to ``times[name]``, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        times[name] = times.get(name, 0.0) + time.perf_counter() - start


def _run_job(job) -> dict:
    """One benchmark cell: build data, fit, evaluate; returns a result row.

    ``job`` is ``(kind, n_high, repeat, spec, config, low)`` with the run's
    ``PdeSpec`` and ``ExperimentConfig`` and the base level fitted at an
    earlier sweep point of the group, or ``None``.  The row of a "gar"
    family fit carries its base level as ``_low``.
    """
    kind, n_high, repeat, spec, config, low = job
    seed = config.seed + 1000 * repeat
    # distinct design per repeat: shifted deterministic stream
    skip = repeat * (config.n_low + max(config.sweep) + config.n_test)
    row = {
        "model": kind,
        "n_high": n_high,
        "repeat": repeat,
        "seed": seed,
        "status": "ok",
        "rmse": "",
        "nll": "",
    }
    out_dir = config.out / "jobs" / f"{kind}_n{n_high}_r{repeat}"
    phases = {}
    start = time.perf_counter()
    try:
        with _phase(phases, "generate_s"):
            # the Sobol stream ignores the seed, so only its repeats need the
            # shift; uniform repeats already draw from distinct seeds
            dataset = make_dataset(
                spec, config.n_low, n_high, config.sampler, config.structure, config.aligned,
                seed, skip=skip if config.sampler == "sobol" else 0,
            )
        with _phase(phases, "testset_s"):
            X_test, Y_test = make_test_set(
                spec, config.n_test, config.sampler, seed, skip=skip + config.n_low + n_high
            )
        optim = OptimConfig(max_iters=config.max_iters, step=config.step, seed=seed)
        with _phase(phases, "fit_s"):
            family, model = _fit_model(kind, dataset, optim, low)
        if family == "gar":
            row["_low"] = model.low
        with _phase(phases, "predict_s"):
            post = (tgp_predict if family == "tgp" else gar_predict)(model, X_test)
        model_path = out_dir / "model.json"
        with _phase(phases, "save_s"):
            save_dataset(
                dataset,
                out_dir / "dataset",
                {
                    "spec": spec_to_dict(spec),
                    "seed": seed,
                    "structure": config.structure,
                    "aligned": config.aligned,
                },
            )
            save = save_tgp if family == "tgp" else save_gar
            save(model, model_path, dataset_ref=str(out_dir / "dataset"))
        row["rmse"] = repr(rmse(post.mean, Y_test))
        row["nll"] = repr(nll_metric(post.mean, post.variance_diag, Y_test))
        row["dataset_ref"] = str(out_dir / "dataset" / "manifest.json")
        row["model_ref"] = str(model_path)
    except Exception as exc:  # partial failure: flag the row, keep going
        row["status"] = f"failed: {type(exc).__name__}: {exc}"
        row["dataset_ref"] = ""
        row["model_ref"] = ""
    row["_wall_time"] = time.perf_counter() - start
    row["_phases"] = phases
    return row


def _run_group(group) -> list:
    """The rows of one (kind, repeat) group, its sweep points run in order.

    ``group`` is ``(kind, repeat, spec, config)``.  The base level of the
    first fit is passed on to the later points and dropped with the group.
    """
    kind, repeat, spec, config = group
    rows, low = [], None
    for n_high in config.sweep:
        row = _run_job((kind, n_high, repeat, spec, config, low))
        low = row.pop("_low", low)
        rows.append(row)
    return rows


def _env_workers() -> int:
    """The ``MFGAR_WORKERS`` worker count; anything but a positive integer is refused."""
    raw = os.environ.get("MFGAR_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MFGAR_WORKERS must be a positive integer, got {raw!r}")
    return workers


RESULT_COLUMNS = [
    "model",
    "n_high",
    "repeat",
    "seed",
    "status",
    "rmse",
    "nll",
    "dataset_ref",
    "model_ref",
]


def cmd_benchmark(args) -> int:
    try:
        sweep = [int(v) for v in str(args.n_high_sweep).split(",") if v]
        kinds = [k.strip() for k in args.model.split(",") if k.strip()]
    except ValueError:
        sys.stderr.write("error: malformed --n-high-sweep\n")
        return USER_ERROR
    try:
        config = ExperimentConfig(
            pde=args.pde,
            mesh_variant=args.mesh_variant,
            models=kinds,
            n_low=args.n_low,
            sweep=sweep,
            n_test=args.n_test,
            structure=args.structure,
            aligned=args.aligned,
            sampler=args.sampler,
            repeats=args.repeats,
            seed=args.seed,
            max_iters=args.max_iters,
            step=args.step,
            out=args.out,
            workers=_env_workers(),
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USER_ERROR

    spec = pde_spec(config.pde, config.mesh_variant)
    config.out.mkdir(parents=True, exist_ok=True)
    groups = [
        (kind, repeat, spec, config) for kind in config.models for repeat in range(config.repeats)
    ]
    # jobs of every model kind and sweep point share their solved fields;
    # forked pool workers each fill their own copy of the store
    with solve_cache():
        if config.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                batches = list(pool.map(_run_group, groups))
        else:
            batches = [_run_group(group) for group in groups]
    rows = [row for batch in batches for row in batch]

    # deterministic ordering regardless of scheduling
    order = {k: i for i, k in enumerate(kinds)}
    rows.sort(key=lambda r: (order[r["model"]], r["n_high"], r["repeat"]))

    summary = {}  # (kind, n_high, "mean" or "std") -> row
    for kind in kinds:
        for n_high in sweep:
            vals = [
                (float(r["rmse"]), float(r["nll"]))
                for r in rows
                if r["model"] == kind and r["n_high"] == n_high and r["status"] == "ok"
            ]
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                entry = {c: "" for c in RESULT_COLUMNS}
                entry.update(
                    {
                        "model": kind,
                        "n_high": n_high,
                        "repeat": stat,
                        "status": f"summary/{len(vals)}",
                    }
                )
                if vals:
                    entry["rmse"] = repr(float(fn([v[0] for v in vals])))
                    entry["nll"] = repr(float(fn([v[1] for v in vals])))
                summary[kind, n_high, stat] = entry

    results_path = args.out / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for r in rows + list(summary.values()):
            writer.writerow({c: r.get(c, "") for c in RESULT_COLUMNS})
    with open(args.out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "n_high", "repeat", "wall_time_s", *PHASES])
        for r in rows:
            times = [r["_wall_time"]] + [r["_phases"].get(p) for p in PHASES]
            writer.writerow(
                [r["model"], r["n_high"], r["repeat"]]
                + ["" if t is None else f"{t:.3f}" for t in times]
            )
    # gnuplot-friendly table: one block per model, columns n_high mean std
    with open(args.out / "results.dat", "w") as fh:
        fh.write("# model blocks: n_high rmse_mean rmse_std\n")
        for kind in kinds:
            fh.write(f'"{kind}"\n')
            for n_high in sweep:
                mean, std = (summary[kind, n_high, stat]["rmse"] for stat in ("mean", "std"))
                fh.write(f"{n_high} {mean or 'nan'} {std or 'nan'}\n")
            fh.write("\n\n")
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"wrote {results_path} ({n_ok}/{len(rows)} jobs ok)")
    return 0 if n_ok else FIT_FAILURE


def _check_out(path: Path):
    """Refuse an ``--out`` that is a file or lies under one, before any work is done."""
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(f"--out {path}: {p} is not a directory")
            return


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "train":
            return cmd_train(args)
        return cmd_benchmark(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
