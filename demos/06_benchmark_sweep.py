"""A miniature RMSE sweep through the command-line harness.

Runs the benchmark subcommand in-process on a reduced Poisson protocol
(fewer repeats and test points than the full acceptance run) and prints the
resulting mean-RMSE table.  The run's artifacts live in a temporary
directory that is removed when the demo exits.  The same thing from a
shell, keeping them under ``runs/poisson``:

    mfgar benchmark --pde poisson --model gar,cigar,hogp --n-low 32 \
        --n-high-sweep 4,8,16,32 --n-test 128 --repeats 5 --aligned \
        --seed 0 --out runs/poisson
"""

import csv
import tempfile
from pathlib import Path

from mfgar.cli import main

with tempfile.TemporaryDirectory(prefix="mfgar_sweep_") as tmp:
    out = Path(tmp)
    code = main(
        [
            "benchmark", "--pde", "poisson", "--model", "gar,cigar,hogp",
            "--n-low", "24", "--n-high-sweep", "4,8,16", "--n-test", "48",
            "--repeats", "2", "--max-iters", "120", "--aligned",
            "--sampler", "uniform", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0

    means = {}
    with open(out / "results.csv") as fh:
        for row in csv.DictReader(fh):
            if row["repeat"] == "mean" and row["rmse"]:
                means[(row["model"], int(row["n_high"]))] = float(row["rmse"])
    artifacts = sorted(p.name for p in out.iterdir())

models = ["gar", "cigar", "hogp"]
sweep = [4, 8, 16]
print(f"\nmean test RMSE (Poisson, 24 coarse solves, aligned outputs)\n")
print("n_high   " + "".join(f"{m:>10s}" for m in models))
for n in sweep:
    print(f"{n:6d}   " + "".join(f"{means[(m, n)]:10.4f}" for m in models))
print(f"\nthe run wrote {', '.join(artifacts)} (removed on exit)")
