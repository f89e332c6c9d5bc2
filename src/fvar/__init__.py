"""Sparse vector functional autoregression toolkit.

Three-stage estimation for panels of functional time series: regularized
FPCA per variable, standardized group lasso row regressions solved by
restart-based block FISTA, and recovery of the transition kernels, from
which a directed Granger network is read off.  Also ships the simulation
generators, the functional stability measure for finite-dimensional VAR
surrogates, and a Monte Carlo harness for the estimator error rates.
"""

__version__ = "0.1.0"

from .basis import BasisSpec, GramPair, evaluate_basis, gram_matrices
from .errors import (ConfigError, DataError, FvarError, NonstationaryError,
                     NumericalError)
from .fpca import KLModel, cross_validate, fit_regularized_fpca, reconstruct
from .harness import SCENARIOS, run_concentration
from .moments import (StabilityReport, operator_norm_var1_kernel,
                      stability_measure_var1, var1_spectral_density,
                      var1_stationary_cov)
from .network import (CausalGraph, EvalReport, cidr_transform, extract_network,
                      relative_error, roc_and_auroc)
from .panel import CurvePanel
from .pipeline import fit_vfar, fpca_panel, sweep_path, truncate_models
from .solver import (DesignSet, FitResult, KernelEstimate, accel_backend,
                     block_fista_gram, build_design, fit_row,
                     group_soft_threshold, recover_kernels,
                     regularization_path)
from .streams import rng_stream
from .vfar import (VFARModel, companion_form, gen_block_banded,
                   gen_block_sparse, simulate, simulate_coefficients,
                   spectral_radius)
