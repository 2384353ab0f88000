#!/usr/bin/env python3
"""Run one benchmark workload of mfgar and print its metrics.

Usage, from the root of the repository::

    python3 benchmarks/run.py --workload poisson-sweep --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload burgers-sweep --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --self-test

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from an extra traced pass.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check fails and 2 when the sources or the workload cannot be found.

BLAS threads and ``MFGAR_WORKERS`` are pinned to 1 for every process this
script starts.  The workload runs in one child process, whose peak resident
set size is reported.  That process also times set-up, in fresh
interpreters importing ``mfgar`` and ``mfgar.cli`` between its passes, and
scales pass and set-up times to a reference host speed (see worker.py).
The full result (metrics, checks, provenance, job rows) and, when tracing,
every span are written under ``.bench_out/`` in the repository root.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MFGAR_WORKERS": "1",
}
WORKER_TIMEOUT_S = 900
# Counters that must repeat exactly between two runs of the same code and seed.
EXACT_COUNTS = ("pdebench.solve_calls", "hogp.nll_evals", "gar.stage2_evals", "optim.evals",
                "tensalg.eig_calls", "tensalg.eig_max_n", "gar.model_bytes")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    request = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "result": str(OUT / f"{stem}.json"),
        "spans": str(OUT / f"spans-{stem}.jsonl"),
    }
    Path(request["result"]).unlink(missing_ok=True)
    # the program's own prints go to stderr so the result line stays last on stdout
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)],
        env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(request["result"]) as fh:
        result = json.load(fh)
    result["result_path"] = request["result"]
    return result


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {section: doc[section] for section in ("end_to_end", "per_layer")}


def select(values: dict, declared: list) -> dict:
    """The declared metrics with their units; a missing one is reported, not faked."""
    out = {}
    for m in declared:
        if m["name"] in values:
            out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            sys.stderr.write(f"warning: metric {m['name']} was not measured\n")
    return out


def benchmark(args) -> int:
    declared = declared_metrics()
    result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = select(values, section)

    for m in section:
        if m["name"] in metrics:
            print(f"{m['name']:28s} {metrics[m['name']]['value']:.6g} {m['unit']} "
                  f"(better: {m['better']})")
    print(f"failed_share {result['failed_share']:.6g} ({result['failed']}/{result['attempted']}), "
          f"passes {result['passes']}, raw pass walls "
          + " ".join(f"{w:.3g}" for w in result["pass_walls_s"]))
    if not args.trace:
        print(f"raw: mean pass wall {values['wall_raw_s']:.4g} s, median setup "
              f"{values['setup_raw_s']:.4g} s; reference kernel "
              + " ".join(f"{1e3 * r:.3g}" for r in result["reference_samples_s"]) + " ms")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"full result: {result['result_path']}")
    for problem in result["problems"]:
        sys.stderr.write(f"CHECK FAILED: {problem}\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def self_test() -> int:
    """Every workload path at tiny sizes, traced, twice; checks and exact counts.

    One more tiny run per workload, untraced, covers the timed loop and the
    set-up samples.
    """
    declared = declared_metrics()
    failures = []
    for name in WORKLOADS:
        first = run_worker(name, 0, 0, 1, tiny=True)
        second = run_worker(name, 0, 0, 1, tiny=True)
        untraced = run_worker(name, 0, 0, 0, tiny=True)
        for run in (first, second, untraced):
            failures += run["problems"]
        for section, run in (("end_to_end", untraced), ("per_layer", first)):
            for m in declared[section]:
                if m["name"] not in run[section]:
                    failures.append(f"{name}: metric {m['name']} missing")
        if untraced["rows"] != first["rows"]:
            failures.append(f"{name}: job rows differ between untraced and traced runs")
        for count in EXACT_COUNTS:
            a, b = first["per_layer"].get(count), second["per_layer"].get(count)
            if a != b:
                failures.append(f"{name}: {count} differs between runs ({a} vs {b})")
        if first["rows"] != second["rows"]:
            failures.append(f"{name}: job rows differ between runs")
        layer = first["per_layer"]
        print(f"self-test {name}: solve_calls {layer.get('pdebench.solve_calls'):.0f}, "
              f"optim.evals {layer.get('optim.evals'):.0f}, "
              f"layer share {layer.get('trace.layer_share'):.3f}, "
              f"setup_s {untraced['end_to_end']['setup_s']:.3f}")
    for failure in failures:
        sys.stderr.write(f"SELF-TEST FAILED: {failure}\n")
    print("self-test " + ("failed" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes with tracing and checks")
    args = parser.parse_args(argv)
    if not (SRC / "mfgar" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mfgar sources under {SRC}; run from a full checkout\n")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return benchmark(args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
