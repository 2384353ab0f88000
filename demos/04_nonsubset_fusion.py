"""Fusion without a subset design: the imaginary-subset closed form.

Here none of the fine heat solves share an input with the coarse solves.
The missing coarse observations are imputed from the low model's posterior
and integrated out exactly: the residual likelihood stays Gaussian with its
covariance inflated by the propagated imputation uncertainty, and the
predictive variance picks up a matching correction term.  With latent output
covariances the fit optimizes the imputed-residual objective (the residual
against the imputed means, without that inflation); the NLL printed below is
the exact marginal of the fitted model, inflation included.
"""

import numpy as np

from mfgar import (
    GarConfig,
    OptimConfig,
    build_subset_plan,
    gar_fit_recursive,
    gar_nll_nonsubset,
    gar_predict,
    make_dataset,
    make_test_set,
    pde_spec,
    rmse,
)

spec = pde_spec("heat")
dataset = make_dataset(
    spec, n_low=24, n_high=6, sampler="sobol", structure="nonsubset", aligned=True, seed=0
)
plan = build_subset_plan(dataset)
print(f"design: {dataset.levels[0].n_samples} coarse, {dataset.levels[1].n_samples} fine; "
      f"matched {plan.n_matched}, imaginary {plan.n_unmatched}")

model = gar_fit_recursive(dataset, GarConfig(optim=OptimConfig(max_iters=120, step=0.05)))
trans = model.transitions[0]
ws = trans.workspace
x_hat = trans.residual.X[trans.plan.n_matched :]  # the unmatched (imaginary) inputs
print(f"imputation: posterior mean at {x_hat.shape[0]} imaginary inputs, "
      f"input-space uncertainty trace {np.trace(ws.s_hat):.3e}")
print("fit objective: imputed residual (no imputation-uncertainty inflation)")
print(f"exact marginal NLL of the fit (imaginary block integrated out): "
      f"{gar_nll_nonsubset(model):.1f}")

X_test, Y_test = make_test_set(spec, 32, sampler="sobol", seed=0, skip=40)
pred = gar_predict(model, X_test)
print(f"\ntest rmse: {rmse(pred.mean, Y_test):.4f}")

# the imputation correction widens predictions away from the fine data
at_train = gar_predict(model, dataset.levels[1].X[0]).variance_diag.mean()
gap = X_test[np.argmax(np.min(
    np.linalg.norm(X_test[:, None, :] - dataset.levels[1].X[None, :, :], axis=2), axis=1
))]
at_gap = gar_predict(model, gap).variance_diag.mean()
print(f"mean predictive variance at a fine training input {at_train:.2e} "
      f"vs in the widest design gap {at_gap:.2e}")
