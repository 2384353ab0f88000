"""Multi-fidelity surrogate modeling with tensor-variate Gaussian processes.

The package fuses cheap low-fidelity and scarce high-fidelity simulation
outputs: each fidelity step applies trainable per-mode linear maps (a Tucker
transform) to the lower level's tensor field and adds an independent tensor
GP residual.  Subset designs factorize exactly into independent stage fits;
arbitrary (non-subset) designs are handled in closed form through an
imaginary-subset marginalization.  A conditional-independent variant trades
calibrated variances for input-space-only cost while keeping the same
posterior means.  A deterministic PDE benchmark harness (Burgers, Poisson,
heat) and a CLI for dataset generation, training, and RMSE sweeps round out
the toolkit.
"""

from .kernels import (
    ArdKernelParams,
    LatentFeatures,
    ard_gram,
    output_cov,
)
from .tensalg import (
    EigenFactors,
    mode_product,
    sym_eig,
    tucker_apply,
    unvec,
    vec,
)
from .optim import OptimConfig, OptimTrace, minimize
from .hogp import (
    FitConfig,
    PosteriorField,
    TgpModel,
    load_tgp,
    save_tgp,
    tgp_fit,
    tgp_nll,
    tgp_predict,
)
from .gar import (
    FidelityLevel,
    GarConfig,
    GarModel,
    GarTransition,
    MultiFidelityDataset,
    NonSubsetWorkspace,
    SubsetPlan,
    TuckerWeights,
    ar_baseline_fit,
    build_subset_plan,
    gar_fit_recursive,
    gar_fit_subset,
    gar_nll_nonsubset,
    gar_predict,
    load_gar,
    save_gar,
)
from .cigar import CigarModel, cigar_fit, orthonormalize
from .pdebench import (
    FieldSample,
    PdeSpec,
    load_dataset,
    make_dataset,
    make_test_set,
    pde_spec,
    save_dataset,
    sobol_points,
    solve_burgers,
    solve_field,
    solve_heat,
    solve_poisson,
    upsample_bilinear,
)
from .metrics import nll_metric, rmse

__version__ = "0.1.0"
