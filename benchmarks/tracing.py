"""Span tracing attached from outside the package, by wrapping module attributes.

A :class:`Tracer` replaces public names of the ``mfgar`` modules with
wrappers that record one span per call: name, layer, start, end, parent
span and job id.  The layer of a span is the module that defines the
wrapped function (``pdebench``, ``hogp``, ``gar``, ``cigar``, ``optim``,
``tensalg``, ``cli``); a span's self time is its duration minus the time
its direct children cover.  Spans are kept in memory and written out by
:meth:`Tracer.write_jsonl` when the run ends.

Names are looked up where the caller looks them up (``mfgar.cli.tgp_fit``,
``mfgar.gar.minimize``, ...).  A name that no longer exists is recorded in
``Tracer.missing`` and the metrics that depend on it are left out instead
of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "pdebench", "hogp", "gar", "cigar", "optim", "tensalg")

# Names wrapped in ``mfgar.cli`` for the sweep workloads, grouped by the
# per-job phase they belong to.  ``_run_job`` marks the job boundary and
# ``_sobol_dataset`` is the CLI's own Sobol generator; both are private and
# are simply not traced once they are gone.
CLI_PHASES = {
    "generate": ("make_dataset", "_sobol_dataset"),
    "testset": ("make_test_set",),
    "fit": ("tgp_fit", "gar_fit_recursive", "cigar_fit"),
    "predict": ("gar_predict", "tgp_predict"),
    "save": ("save_dataset", "save_gar", "save_tgp"),
}

# Names wrapped in their defining modules for the library workload, which
# calls them through those modules.
LIBRARY_NAMES = {
    "pdebench": ("make_dataset", "make_test_set"),
    "hogp": ("tgp_fit", "tgp_predict", "save_tgp", "load_tgp"),
    "gar": ("gar_fit_recursive", "gar_predict", "gar_nll_nonsubset", "save_gar", "load_gar"),
    "cigar": ("cigar_fit",),
}

# Stage-2 objective owners: the subset / imputed-residual pack, the dense
# exact non-subset pack, and the collapsed (identity-output) pack.
RESIDUAL_PACK = "_ResidualPack"
DENSE_NONSUBSET_PACK = "_NonsubsetPack"
COLLAPSED_PACK = "_IdentityOutputNonsubsetPack"
TGP_PACK = "_TgpPack"


# Metrics resting on each wrapped name; when the name is gone they are left out.
_OPTIM = ("optim.evals", "optim.accept_ratio", "optim.max_iters_share")
DEPENDS = {
    "make_dataset": ("cli.generate_s",),
    "make_test_set": ("cli.testset_s",),
    "gar_fit_recursive": ("cli.fit_s", "gar.fit_s"),
    "gar_predict": ("cli.predict_s", "gar.predict_s", "gar.predict_ms_per_query"),
    "save_gar": ("cli.save_s", "gar.save_s", "gar.model_bytes"),
    "save_dataset": ("pdebench.save_dataset_s",),
    "solve_field": ("pdebench.solve_calls", "pdebench.solve_s", "pdebench.repeat_solve_share"),
    "tgp_predict": ("hogp.predict_s",),
    "gar_nll_nonsubset": ("gar.nll_nonsubset_s",),
    "load_gar": ("gar.load_s",),
    "cigar_fit": ("cigar.fit_s",),
    "hogp.minimize": ("hogp.fit_s", "hogp.nll_evals", "hogp.nll_eval_ms") + _OPTIM,
    "gar.minimize": ("gar.stage2_evals", "gar.resid_eval_ms", "gar.collapsed_eval_ms",
                     "gar.inexact_stage2_share", "cigar.project_s") + _OPTIM,
}


def _layer_of(obj, fallback: str) -> str:
    module = getattr(obj, "__module__", None) or ""
    name = module.rsplit(".", 1)[-1]
    return name if name in LAYERS else fallback


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        # one list per span: [name, layer, start, end, parent index, job id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self.nonsubset_jobs: set[str] = set()
        self.missing: list[str] = []
        self.stages: list[dict] = []
        self.solve_keys: set = set()
        self.solve_repeats = 0
        self.model_bytes: list[int] = []
        self.queries = 0
        self.eig_sizes: list[int] | None = None
        self._patched: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def job_scope(self, job_id: str, nonsubset: bool):
        self.job = job_id
        if nonsubset:
            self.nonsubset_jobs.add(job_id)
        try:
            yield
        finally:
            self.job = None

    # -- patching -----------------------------------------------------------

    def patch(self, module, attr: str, factory=None):
        """Replace ``module.attr`` by a traced wrapper, or note that it is gone."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        site = module.__name__.rsplit(".", 1)[-1]
        if factory is None:
            traced = self.wrap(f"{site}.{attr}", _layer_of(original, site), original)
        else:
            traced = factory(original, site)
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _run_job_factory(self, original, site):
        def traced(job):
            kind, n_high, repeat = job[0], job[1], job[2]
            with self.job_scope(f"{kind}/n{n_high}/r{repeat}", nonsubset=False):
                return self.call(f"{site}._run_job", "cli", original, job)

        return traced

    def _solve_factory(self, original, site):
        import numpy as np

        def traced(spec, params, fidelity="high"):
            key = (repr(spec), fidelity, np.asarray(params, dtype=float).tobytes())
            if key in self.solve_keys:
                self.solve_repeats += 1
            else:
                self.solve_keys.add(key)
            return self.call(f"{site}.solve_field", "pdebench", original, spec, params, fidelity)

        return traced

    def _minimize_factory(self, original, site):
        def traced(objective, init, *args, project=None, **kwargs):
            owner = getattr(objective, "__self__", None)
            label = type(owner).__name__ if owner is not None else site
            layer = _layer_of(type(owner), site) if owner is not None else site
            stage = {"label": label, "layer": layer, "job": self.job, "evals": 0}

            def counted(p):
                stage["evals"] += 1
                return self.call(f"{label}.objective", layer, objective, p)

            hook = None if project is None else self.wrap(f"{label}.project", "cigar", project)
            result = self.call(
                f"{site}.minimize", "optim", original, counted, init, *args, project=hook, **kwargs
            )
            config = args[0] if args else kwargs.get("config")
            records = getattr(result[1], "records", [])
            stage["accepted"] = max(len(records) - 1, 0)
            max_iters = getattr(config, "max_iters", None)
            stage["hit_max_iters"] = (
                bool(records) and max_iters is not None and records[-1][0] >= max_iters
            )
            self.stages.append(stage)
            return result

        return traced

    def _predict_factory(self, original, site):
        import numpy as np

        def traced(model, x_star, *args, **kwargs):
            self.queries += np.atleast_2d(np.asarray(x_star)).shape[0]
            return self.call(f"{site}.gar_predict", "gar", original, model, x_star, *args, **kwargs)

        return traced

    def _save_gar_factory(self, original, site):
        def traced(model, path, *args, **kwargs):
            out = self.call(f"{site}.save_gar", "gar", original, model, path, *args, **kwargs)
            self.model_bytes.append(os.path.getsize(path))
            return out

        return traced

    def install(self, cli_workload: bool):
        """Wrap the names a workload reaches (the CLI's or the library's)."""
        mod = {name: importlib.import_module(f"mfgar.{name}") for name in LAYERS}
        special = {
            "_run_job": self._run_job_factory,
            "solve_field": self._solve_factory,
            "minimize": self._minimize_factory,
            "gar_predict": self._predict_factory,
            "save_gar": self._save_gar_factory,
        }
        if cli_workload:
            targets = [(mod["cli"], name) for names in CLI_PHASES.values() for name in names]
            targets.append((mod["cli"], "_run_job"))
        else:
            targets = [
                (mod[module], name) for module, names in LIBRARY_NAMES.items() for name in names
            ]
        targets += [
            (mod["pdebench"], "solve_field"),
            (mod["hogp"], "minimize"),
            (mod["gar"], "minimize"),
        ]
        for module, name in targets:
            self.patch(module, name, special.get(name))

    @contextlib.contextmanager
    def eig_tracking(self):
        tensalg = importlib.import_module("mfgar.tensalg")
        track = getattr(tensalg, "track_eig_sizes", None)
        if track is None:
            self.missing.append("mfgar.tensalg.track_eig_sizes")
            yield
            return
        with track() as sizes:
            self.eig_sizes = sizes
            yield

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, layer, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Sum of self time per layer (span duration minus its direct children)."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, job in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, layer, start, end, parent, job) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
    return out


def _total(spans, names) -> float:
    return sum((end - start for name, _, start, end, _, _ in spans if name in names), 0.0)


def _mean_ms(spans, name) -> float:
    durations = [end - start for n, _, start, end, _, _ in spans if n == name]
    return 1e3 * statistics.fmean(durations) if durations else 0.0


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values by name; names whose wrapped calls are gone are left out."""
    spans = tracer.spans
    stages = tracer.stages
    stage2 = [s for s in stages if s["layer"] == "gar"]
    full_nonsubset = [
        s for s in stage2
        if s["job"] in tracer.nonsubset_jobs and s["label"] in (RESIDUAL_PACK, DENSE_NONSUBSET_PACK)
    ]
    evals = sum(s["evals"] for s in stages)
    self_by_layer = self_times(spans)

    def cli(phase):
        return _total(spans, {f"cli.{n}" for n in CLI_PHASES[phase]})

    def named(*attrs):
        sites = ("cli", "gar", "hogp", "cigar", "pdebench")
        return {f"{site}.{a}" for a in attrs for site in sites}

    metrics = {
        "cli.generate_s": cli("generate"),
        "cli.testset_s": cli("testset"),
        "cli.fit_s": cli("fit"),
        "cli.predict_s": cli("predict"),
        "cli.save_s": cli("save"),
        "pdebench.solve_calls": float(sum(1 for s in spans if s[0] == "pdebench.solve_field")),
        "pdebench.solve_s": _total(spans, {"pdebench.solve_field"}),
        "pdebench.repeat_solve_share": _share(
            tracer.solve_repeats, tracer.solve_repeats + len(tracer.solve_keys)
        ),
        "pdebench.save_dataset_s": _total(spans, named("save_dataset")),
        "hogp.fit_s": _total(spans, {"hogp.minimize"}),
        "hogp.nll_evals": float(sum(s["evals"] for s in stages if s["label"] == TGP_PACK)),
        "hogp.nll_eval_ms": _mean_ms(spans, f"{TGP_PACK}.objective"),
        "hogp.predict_s": _total(spans, named("tgp_predict")),
        "gar.fit_s": _total(spans, named("gar_fit_recursive")),
        "gar.stage2_evals": float(sum(s["evals"] for s in stage2)),
        "gar.resid_eval_ms": _mean_ms(spans, f"{RESIDUAL_PACK}.objective"),
        "gar.collapsed_eval_ms": _mean_ms(spans, f"{COLLAPSED_PACK}.objective"),
        "gar.inexact_stage2_share": _share(
            sum(1 for s in full_nonsubset if s["label"] == RESIDUAL_PACK), len(full_nonsubset)
        ),
        "gar.predict_s": _total(spans, named("gar_predict")),
        "gar.predict_ms_per_query": 1e3 * _total(spans, named("gar_predict")) / tracer.queries
        if tracer.queries else 0.0,
        "gar.nll_nonsubset_s": _total(spans, named("gar_nll_nonsubset")),
        "gar.save_s": _total(spans, named("save_gar")),
        "gar.load_s": _total(spans, named("load_gar")),
        "gar.model_bytes": statistics.fmean(tracer.model_bytes) if tracer.model_bytes else 0.0,
        "cigar.fit_s": _total(spans, named("cigar_fit")),
        "cigar.project_s": sum(
            (end - start for name, _, start, end, _, _ in spans if name.endswith(".project")), 0.0
        ),
        "optim.evals": float(evals),
        "optim.accept_ratio": _share(sum(s["accepted"] for s in stages), evals),
        "optim.max_iters_share": _share(sum(s["hit_max_iters"] for s in stages), len(stages)),
        "trace.overhead_share": traced_wall / untraced_wall,
        "trace.layer_share": sum(self_by_layer.get(layer, 0.0) for layer in LAYERS) / traced_wall,
    }
    for layer in LAYERS:
        if layer != "tensalg":
            metrics[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    if tracer.eig_sizes is not None:
        metrics["tensalg.eig_calls"] = float(len(tracer.eig_sizes))
        metrics["tensalg.eig_max_n"] = float(max(tracer.eig_sizes, default=0))

    # "mfgar.gar.minimize" is gone: match both "gar.minimize" and "minimize"
    gone = {form for m in tracer.missing for form in (m.split(".", 1)[1], m.rsplit(".", 1)[1])}
    for wrapped, names in DEPENDS.items():
        if wrapped in gone:
            for name in names:
                metrics.pop(name, None)
    return metrics
