"""One workload run in a fresh process: timed passes, checks, metrics.

Started by ``run.py`` with one JSON argument::

    {"workload": ..., "seed": ..., "seconds": ..., "trace": 0|1,
     "tiny": bool, "result": path, "spans": path}

A warm-up pass at tiny sizes (``workloads.WARMUP``) runs first, untimed, so
the timed passes do not pay for lazy imports and first-call caches.  Untraced
passes then repeat while another pass and a set-up sample still fit in
``seconds`` (at least one pass); after each pass one fresh interpreter
times ``import mfgar, mfgar.cli``, topped up to ``SETUP_SAMPLES`` at the
end, so the set-up samples are spread over the run like the passes.  A
reference kernel is timed before the first pass and after every pass and
set-up sample.  ``wall_s`` is the mean pass time and ``setup_s`` the median
set-up sample, scaled to a fixed host speed by the run's mean kernel time
(see ``host_scaled``); ``wall_s`` is left raw for workloads whose
``scale_wall`` is false.  With ``trace`` set, one untraced pass is followed
by one traced pass and no set-up is timed.  Every pass must produce the
same deterministic job columns.  The result (metrics, checks, provenance,
job rows) is written as JSON to the ``result`` path; the exit code is 0
even when a check fails, so the caller can report the failure with the
numbers.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mfgar  # noqa: E402
import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import TINY, WARMUP, WORKLOADS, check_rows, job_rows, quality_metrics  # noqa: E402

SETUP_SAMPLES = 5
# Time of ``reference_kernel`` on a 2-vCPU Xeon VM in its faster periods;
# scaled times read as seconds on such a host.
REFERENCE_S = 0.014


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "MFGAR_WORKERS")},
        "git_commit": _git_commit(),
    }


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((8, 16, 16))
_REF_MATRIX = _REF_RNG.standard_normal((160, 160))


def reference_kernel() -> float:
    """Fixed work unrelated to mfgar: interpreter loop, small numpy, one matmul size."""
    total = 0.0
    for i in range(60000):
        total += i * 0.5
    for _ in range(900):
        total += float((_REF_SMALL * 2.0 + 1.0).sum())
    for _ in range(30):
        total += float((_REF_MATRIX @ _REF_MATRIX)[0, 0])
    return total


def reference_sample() -> float:
    """Mean of five timings of ``reference_kernel``: the host's current speed.

    The mean, not the median: the kernel's time flips between two levels
    about 1.5x apart, and the mean tracks the share of time spent in each.
    """
    start = time.perf_counter()
    for _ in range(5):
        reference_kernel()
    return (time.perf_counter() - start) / 5


def host_scaled(seconds: float, reference: float) -> float:
    """A time measured while the kernel took ``reference``, at the speed ``REFERENCE_S`` names.

    A shared 2-vCPU Xeon VM switched between two speeds about 1.5x apart,
    each held for under a second to minutes, and CPU time moved with wall
    time: the host's speed changed, not the program's waiting.  The kernel slows down with it, so the ratio keeps the
    program's share and drops most of the host's.  A pass lasts longer than
    the host often holds one speed, so kernel times taken just around it
    say little about it; the run's mean pass time and its mean kernel time
    both average over the same mix of speeds, and their ratio spread least
    across runs.  Raw times are kept in the result next to the scaled ones.
    """
    return seconds * REFERENCE_S / reference


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing mfgar and mfgar.cli.

    Taken after a pass, whose own import byte-compiled the sources and
    warmed the file cache.  The child inherits the pinned environment and
    the ``PYTHONPATH`` that ``run.py`` gives this process.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mfgar, mfgar.cli"], cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_pass(workload, seed: int, scratch: Path, tracer=None):
    """One pass of the workload into a fresh directory; returns (wall seconds, rows)."""
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        start = time.perf_counter()
        if tracer is None:
            rows = workload.run(seed, out)
        else:
            rows = tracer.call("bench.pass", "bench", workload.run, seed, out, tracer)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, rows


def main(request: dict) -> int:
    if not Path(mfgar.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"error: mfgar imported from {mfgar.__file__}, not from {SRC}\n")
        return 2
    name, seed = request["workload"], int(request["seed"])
    workload = (TINY if request.get("tiny") else WORKLOADS)[name]
    scratch = Path(request["result"]).parent
    problems: list = []

    started = time.perf_counter()
    if not request.get("tiny"):
        _, warm_rows = run_pass(WARMUP[name], seed, scratch)
        problems += check_rows(f"{name} warm-up", warm_rows)
    walls, passes, setups, refs = [], [], [], [reference_sample()]
    while True:
        lap = time.perf_counter()
        wall, rows = run_pass(workload, seed, scratch)
        refs.append(reference_sample())
        walls.append(wall)
        passes.append(rows)
        if request["trace"]:
            break
        setups.append(setup_sample())
        refs.append(reference_sample())
        now = time.perf_counter()
        if now - started + (now - lap) > float(request["seconds"]):
            break
    while not request["trace"] and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
        refs.append(reference_sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = {}
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install(cli_workload=workload.cli)
        try:
            with tracer.eig_tracking():
                traced_wall, traced_rows = run_pass(workload, seed, scratch, tracer)
        finally:
            tracer.restore()
        passes.append(traced_rows)
        layer = tracing.layer_metrics(tracer, traced_wall, statistics.median(walls))
        tracer.write_jsonl(Path(request["spans"]))
        for name_missing in tracer.missing:
            sys.stderr.write(f"warning: {name_missing} is gone; its metrics are left out\n")
        solves = layer.get("pdebench.solve_calls")
        if solves is not None and solves != workload.expected_solves:
            problems.append(
                f"{name}: {solves:.0f} solver calls in the traced pass, expected "
                f"{workload.expected_solves}"
            )

    rows = passes[0]
    problems += check_rows(name, rows)
    for i, other in enumerate(passes[1:], start=1):
        if other != rows:
            problems.append(f"{name}: pass {i} differs from pass 0 in the deterministic columns")

    attempted = sum(len(job_rows(p)) for p in passes)
    failed = sum(1 for p in passes for r in job_rows(p) if r["status"] != "ok")
    reference = statistics.fmean(refs)
    end_to_end = {
        "wall_s": host_scaled(statistics.fmean(walls), reference)
        if workload.scale_wall else statistics.fmean(walls),
        "wall_raw_s": statistics.fmean(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if setups:
        end_to_end["setup_s"] = host_scaled(statistics.median(setups), reference)
        end_to_end["setup_raw_s"] = statistics.median(setups)
    end_to_end.update(quality_metrics(rows))
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "passes": len(passes),
        "pass_walls_s": walls,
        "setup_samples_s": setups,
        "reference_samples_s": refs,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "provenance": provenance(name, seed),
        "rows": rows,
    }
    with open(request["result"], "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
