"""End-to-end orchestration: stage-1 FPCA, row fits, path sweeps.

Everything runs on the calling thread.  Stage 1 (``fpca.fpca_panel``,
re-exported here) handles the whole panel in stacked arrays; the
fixed-gamma row fits loop over the variables, one ``fit_row`` each, because
the benchmark counts fits by wrapping ``fit_row``; a regularization path makes
one batched solve per path index for every row
(``solver.regularization_path``).  ``fpca_panel`` and ``sweep_path``
still accept a ``threads`` keyword, and the CLI a ``--threads`` flag, that
nothing reads: the benchmark in ``benchmarks/`` passes them.
"""

from __future__ import annotations

from .basis import BasisSpec
from .fpca import fpca_panel, truncate_models  # noqa: F401 (re-exported)
from .panel import CurvePanel
from .solver import (DesignSet, FitResult, KernelEstimate, best_fit,
                     build_design, check_criterion, fit_row, recover_kernels,
                     regularization_path)


def fit_rows(design: DesignSet, gamma: float | None = None,
             criterion: str = "bic", n_gammas: int = 50,
             min_ratio: float = 1e-3, tol: float = 1e-8,
             max_iter: int = 10000):
    """Fit every row, either at a fixed gamma or at the IC-selected one.

    Returns (fits, ic_rows) where ic_rows holds one (j, gamma, rss, df, aic,
    bic) record per evaluated path point.
    """
    if gamma is not None:
        return [fit_row(j, design, gamma, tol=tol, max_iter=max_iter)
                for j in range(design.p)], []
    check_criterion(criterion)
    paths = regularization_path(design, range(design.p), n_gammas=n_gammas,
                                min_ratio=min_ratio, tol=tol,
                                max_iter=max_iter)
    ic_rows = [(f.j, f.gamma, f.rss, f.df, f.aic, f.bic)
               for path in paths for f in path]
    return [best_fit(path, criterion) for path in paths], ic_rows


def sweep_path(design: DesignSet, kl_models, n_gammas: int = 50,
               min_ratio: float = 1e-3, tol: float = 1e-8,
               max_iter: int = 10000, threads: int = 1):
    """Row-wise regularization paths plus one kernel estimate per path index.

    Each row uses its own geometric grid from its own gamma_max, so path
    index i combines the i-th strongest penalty of every row.  ``threads``
    is accepted but not read: all rows are solved together, one batched
    solve per path index.
    """
    paths = regularization_path(design, range(design.p), n_gammas=n_gammas,
                                min_ratio=min_ratio, tol=tol,
                                max_iter=max_iter)
    estimates = [recover_kernels([path[i] for path in paths], kl_models)
                 for i in range(n_gammas)]
    return paths, estimates


def fit_vfar(panel: CurvePanel, basis: BasisSpec, L: int = 1,
             q_grid=(4, 5, 6), eta_grid=(0.0, 1e-4, 1e-2), folds: int = 5,
             gamma: float | None = None, criterion: str = "bic",
             n_gammas: int = 50, min_ratio: float = 1e-3, seed: int = 0,
             tol: float = 1e-8, max_iter: int = 10000):
    """Full three-stage fit: FPCA per variable, penalized row regressions,
    kernel recovery.  Returns (kernel estimate, fits, fpca result, ic rows)."""
    stage1 = fpca_panel(panel, basis, q_grid, eta_grid, folds=folds, seed=seed)
    design = build_design(stage1.kl_models, L)
    fits, ic_rows = fit_rows(design, gamma=gamma, criterion=criterion,
                             n_gammas=n_gammas, min_ratio=min_ratio, tol=tol,
                             max_iter=max_iter)
    kernels = recover_kernels(fits, stage1.kl_models)
    return kernels, fits, stage1, ic_rows
