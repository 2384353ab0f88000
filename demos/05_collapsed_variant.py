"""The conditional-independent variant: same means, input-space-only cost.

With identity output covariances and orthonormal weight factors, posterior
means are unchanged (the mean never depends on the output covariance) while
every solve collapses onto N x N input matrices.  This script checks the
mean agreement numerically, shows that non-subset prediction and exact
scoring stay in input space too, and shows the wall-time gap as the output
dimension grows.
"""

import time

import numpy as np

from mfgar import GarConfig, MultiFidelityDataset, OptimConfig, cigar_fit
from mfgar.gar import gar_fit_recursive, gar_nll_nonsubset, gar_predict
from mfgar.tensalg import track_eig_sizes

rng = np.random.default_rng(0)


def smooth_dataset(d_low, d_high, n_low=10, n_high=4, n_new=0):
    """Coarse and fine fields; the last ``n_new`` fine inputs have no coarse twin."""
    X = rng.uniform(0, 1, size=(n_low + n_new, 2))
    X_low, X_high = X[:n_low], np.vstack([X[: n_high - n_new], X[n_low:]])
    g_l, g_h = np.linspace(0, 1, d_low), np.linspace(0, 1, d_high)
    f = lambda X, g: np.sin(2 * np.pi * (X[:, :1] + g[None, :])) + X[:, 1:2]
    return MultiFidelityDataset([(X_low, f(X_low, g_l)), (X_high, 1.3 * f(X_high, g_h) + 0.1)])


print("== the collapsed fit never factorizes an output-sized matrix ==")
ds = smooth_dataset(d_low=5, d_high=64)
with track_eig_sizes() as sizes:
    fast = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=60, step=0.05)))
print(f"matrix sizes eigendecomposed during the collapsed fit: {sorted(set(sizes))}"
      " (its likelihoods run on N x N Choleskys)")
with track_eig_sizes() as sizes:
    full = gar_fit_recursive(ds, GarConfig(optim=OptimConfig(max_iters=60, step=0.05)))
print(f"... and during the full fit:                        {sorted(set(sizes))}")

Xq = rng.uniform(0, 1, size=(5, 2))
pf, pc = gar_predict(full, Xq), gar_predict(fast, Xq)
print(f"\nboth models predict the held-out fields "
      f"(rmse gap between means: {np.sqrt(np.mean((pf.mean - pc.mean)**2)):.2e})")
print("(means coincide exactly only at shared parameters; each model fits its own)")

print("\n== ... nor do non-subset prediction and exact scoring ==")
ds = smooth_dataset(d_low=5, d_high=256, n_high=5, n_new=3)
model = cigar_fit(ds, GarConfig(optim=OptimConfig(max_iters=25, step=0.05)))
with track_eig_sizes() as sizes:
    gar_predict(model, Xq)
print("d_high = 256, 3 of 5 fine inputs without a coarse twin")
print(f"matrix sizes eigendecomposed during gar_predict:       {sorted(set(sizes))}"
      " (none: each level reads k* G^-1 off one N x N Cholesky)")
with track_eig_sizes() as sizes:
    nll = gar_nll_nonsubset(model)
print(f"... and during gar_nll_nonsubset:                      {sorted(set(sizes))}")
print(f"exact non-subset NLL: {nll:.1f}")

print("\n== wall-time scaling in the output dimension (fixed sample counts) ==")
for d_high in (64, 256, 1024):
    ds = smooth_dataset(d_low=5, d_high=d_high)
    cfg = GarConfig(optim=OptimConfig(max_iters=25, step=0.05), share_latents=False)
    t0 = time.perf_counter()
    cigar_fit(ds, cfg)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    gar_fit_recursive(ds, cfg)
    t_full = time.perf_counter() - t0
    print(f"d_high = {d_high:5d}: collapsed {t_fast:6.2f}s   full {t_full:6.2f}s")
