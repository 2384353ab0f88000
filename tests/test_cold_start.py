"""Cold start: a fresh interpreter loads numpy only, never scipy, on import.

scipy subsystems are imported inside the functions that use them, so
``import mfgar`` and the CLI's argument parsing pay for none of them, and
the Poisson subset path (solver, fits, prediction, saving) uses none.  The
checks run in a child interpreter and look at ``sys.modules`` or block
scipy, not at timings.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import mfgar

SRC = str(Path(mfgar.__file__).resolve().parent.parent)

REPORT_SCIPY = (
    "import sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    proc = _child(f"import mfgar, mfgar.cli; {REPORT_SCIPY}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_cli_help_loads_no_scipy():
    # run ``python -m mfgar --help`` in-process so the module table can be read after it
    code = (
        "import runpy, sys\n"
        "sys.argv = ['mfgar', '--help']\n"
        "try:\n"
        "    runpy.run_module('mfgar', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"{REPORT_SCIPY}\n"
    )
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    assert "usage: mfgar" in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_sobol_draw_loads_no_scipy():
    # the Sobol generator is numpy only: no scipy.stats (nor any scipy) behind a draw
    code = (
        "from mfgar.pdebench import pde_spec, sample_inputs\n"
        "assert sample_inputs(pde_spec('poisson'), 8, 'sobol', seed=0).shape == (8, 5)\n"
        f"{REPORT_SCIPY}\n"
    )
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_poisson_subset_benchmark_runs_without_scipy(tmp_path):
    # A Poisson subset sweep (solve, fit, predict and save) is numpy only:
    # with scipy unimportable every gar, cigar and hogp job still succeeds.
    out = tmp_path / "run"
    argv = [
        "benchmark", "--pde", "poisson", "--aligned", "--structure", "subset",
        "--model", "gar,cigar,hogp", "--n-low", "6", "--n-high-sweep", "2,3",
        "--n-test", "4", "--repeats", "1", "--max-iters", "5", "--out", str(out),
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from mfgar.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.csv", newline="") as fh:
        jobs = [r for r in csv.DictReader(fh) if not r["status"].startswith("summary")]
    assert len(jobs) == 6
    assert all(r["status"] == "ok" for r in jobs), [r["status"] for r in jobs]
