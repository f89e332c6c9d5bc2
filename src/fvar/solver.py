"""Penalized least squares for the lagged score regression.

Row j of the model solves, over the blocks Psi_jk^(h),

    0.5 || V_j^(0) - sum_h sum_k V_k^(h) Psi_jk^(h) ||_F^2
        + gamma * sum_h sum_k || V_k^(h) Psi_jk^(h) ||_F,

a standardized group lasso.  Internally each predictor block is scaled by
the inverse symmetric square root D^{-1} of its empirical score Gram, which
turns the penalty into a plain Frobenius-norm group penalty on the
standardized coefficients B = D Psi; gamma is therefore expressed in
standardized units throughout, differing from the raw-penalty parameter by
the factor sqrt(n - L) (raw = standardized / sqrt(n - L)).

The solver is a restart-based block FISTA: gradient step, blockwise group
soft-threshold, momentum extrapolation, and a restart that drops the
momentum whenever trace{(X - Xt_new)^T (Xt_new - Xt)} > 0.  It is written
once in numpy and works on whole arrays per iteration: block norms through
``np.add.reduceat`` over the block offsets and the blockwise shrink factors
spread back to rows with ``np.repeat``, so an iteration costs a few matrix
products plus a fixed number of numpy calls, independent of the number of
blocks.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalError
from .fpca import KLModel

IC_FLOOR = 1e-300
# relative objective increase, on the scale of ||Y||_F^2, that a
# momentum-free step may show at the optimum through rounding alone
STALL_RTOL = 1e-12


@dataclass
class DesignSet:
    """Responses, the standardized lagged design and precomputed Gram data."""

    n: int
    L: int
    responses: list            # j -> (n-L, q_j) scores at times L+1..n
    unstandardize: np.ndarray  # (r, r) block diagonal of the D^{-1}
    design: np.ndarray         # (n-L, r) standardized stacked predictors
    offsets: np.ndarray        # (p*L + 1,) block row offsets
    gram: np.ndarray           # design^T design
    _step: float | None = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return len(self.responses)

    @property
    def n_eff(self) -> int:
        return self.n - self.L

    @property
    def r(self) -> int:
        return self.design.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.offsets.size - 1

    def block_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def step_size(self) -> float:
        """0.9 / lambda_max(design^T design)."""
        if self._step is None:
            self._step = 0.9 / np.linalg.eigvalsh(self.gram)[-1]
        return self._step


@dataclass
class FitResult:
    """One penalized row fit: coefficient blocks and selection summaries."""

    j: int
    gamma: float
    psi_stacked: np.ndarray    # (r, q_j) un-standardized blocks
    offsets: np.ndarray        # block row offsets into psi_stacked
    p: int
    coeffs_std: np.ndarray     # (r, q_j) standardized solution
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    rss: float
    vpsi_sq: np.ndarray        # per block ||V Psi||_F^2
    df: float
    aic: float
    bic: float

    def active(self) -> np.ndarray:
        return self.vpsi_sq > 0

    @property
    def psi(self) -> list:
        """``psi[h-1][k]`` is the (q_k, q_j) block Psi_jk^(h) of
        ``psi_stacked``; see PsiLag."""
        return [PsiLag(self.psi_stacked, self.offsets, h, self.p)
                for h in range((len(self.offsets) - 1) // self.p)]

    def to_dict(self) -> dict:
        return {
            "j": self.j, "gamma": self.gamma,
            "psi": [[b.tolist() for b in row] for row in self.psi],
            "iterations": self.iterations, "converged": self.converged,
            "rss": self.rss, "df": self.df, "aic": self.aic, "bic": self.bic,
        }


class PsiLag(Sequence):
    """One lag of one row's psi, held as the row's stacked (r, q_j) array.

    ``lag[k]`` is a copy of the (q_k, q_j) block of variable k, sliced from
    the array on access; assigning ``lag[k]`` writes the block back into
    it.  Only the array is referenced, not the fit that made it.
    """

    __slots__ = ("stacked", "offsets", "first", "p")

    def __init__(self, stacked: np.ndarray, offsets: np.ndarray, h: int, p: int):
        self.stacked, self.offsets, self.first, self.p = stacked, offsets, h * p, p

    def __len__(self) -> int:
        return self.p

    def _rows(self, k) -> slice:
        k = operator.index(k)
        if not -self.p <= k < self.p:
            raise IndexError("variable index out of range")
        b = self.first + k % self.p
        return slice(self.offsets[b], self.offsets[b + 1])

    def __getitem__(self, k) -> np.ndarray:
        return self.stacked[self._rows(k)].copy()

    def __setitem__(self, k, value) -> None:
        self.stacked[self._rows(k)] = value


def _sym_inv_root(gram_block: np.ndarray, k: int) -> np.ndarray:
    sym = 0.5 * (gram_block + gram_block.T)
    w, V = np.linalg.eigh(sym)
    if w.min() <= 1e-12 * max(w.max(), 1.0):
        raise NumericalError(
            f"score Gram of variable {k} is singular; use a smaller q for it")
    return (V * (w ** -0.5)) @ V.T


def build_design(kl_models: list[KLModel], L: int) -> DesignSet:
    """Assemble the standardized lagged design.

    Row i (0-based) of the lag-h block of variable k holds the scores at time
    L + i - h, so the response rows (lag 0) align with times L+1..n.
    """
    if L < 1:
        raise ConfigError("lag order must be at least 1")
    n = kl_models[0].n
    if any(m.n != n for m in kl_models):
        raise ConfigError("KL models must share the sample size")
    if n <= L:
        raise ConfigError(f"need more than L={L} observations, got {n}")

    scores = [m.scores for m in kl_models]
    n_eff = n - L
    roots_inv, cols = [], []
    for h in range(1, L + 1):
        for k, s in enumerate(scores):
            V = s[L - h: n - h]
            Dinv = _sym_inv_root(V.T @ V / n_eff, k)
            roots_inv.append(Dinv)
            cols.append(V @ Dinv)

    design = np.concatenate(cols, axis=1)
    sizes = [c.shape[1] for c in cols]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return DesignSet(n=n, L=L, responses=[s[L:] for s in scores],
                     unstandardize=scipy.linalg.block_diag(*roots_inv),
                     design=design, offsets=offsets, gram=design.T @ design)


def group_soft_threshold(Z: np.ndarray, tau: float, offsets=None) -> np.ndarray:
    """Blockwise (1 - tau/||Z_k||_F)_+ Z_k; a single block when offsets is None."""
    if tau < 0:
        raise ConfigError("threshold must be nonnegative")
    Z = np.asarray(Z, dtype=float)
    if offsets is None:
        offsets = np.array([0, Z.shape[0]], dtype=np.int64)
    out = np.zeros_like(Z)
    for k in range(len(offsets) - 1):
        block = Z[offsets[k]: offsets[k + 1]]
        nrm = np.linalg.norm(block)
        if nrm > tau:
            out[offsets[k]: offsets[k + 1]] = (1.0 - tau / nrm) * block
    return out


def block_sq_norms(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row block of the 2-d array ``a``;
    block k starts at row ``starts[k]`` and ends where the next one starts.
    Every block must be nonempty: ``reduceat`` reads an empty one as the
    single row at its start."""
    return np.add.reduceat(np.einsum("ij,ij->i", a, a), starts)


def accel_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


@dataclass
class SolveInfo:
    x: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def block_fista_gram(gram: np.ndarray, hmat: np.ndarray, ynorm_sq: float,
                     offsets: np.ndarray, gamma: float, step: float,
                     tol: float = 1e-8, max_iter: int = 10000,
                     x0: np.ndarray | None = None) -> SolveInfo:
    """Minimize 0.5*||Y - B X||_F^2 + gamma * sum_k ||X_k||_F blockwise.

    Works on the Gram form: ``gram = B.T @ B``, ``hmat = B.T @ Y`` and
    ``ynorm_sq = ||Y||_F^2``, so the data matrix itself is never touched
    inside the iteration.  ``offsets`` delimits the row blocks of X and
    must rise strictly from 0 to the row count of ``hmat``.

    Per iteration: gradient step from the extrapolated point, blockwise
    group soft-threshold with threshold gamma*step, momentum update
    theta -> (1 + sqrt(1 + 4 theta^2))/2, extrapolation, and a restart
    whenever trace{(X - Xt_new)^T (Xt_new - Xt)} > 0, in which case the
    accumulated momentum is dropped (X kept at the previous iterate,
    theta reset to 1).  It stops when the relative objective change falls
    below ``tol`` or when a momentum-free step cannot lower the objective
    beyond rounding; a momentum-free step that raises it materially means
    the step size exceeds the inverse Lipschitz bound and raises
    NumericalError.

    ``objective_trace`` holds the objective at each proximal point, entry 0
    at ``x0``.
    """
    if gamma < 0:
        raise ConfigError("gamma must be nonnegative")
    offsets = np.asarray(offsets, dtype=np.int64)
    if (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0
            or offsets[-1] != hmat.shape[0] or np.any(np.diff(offsets) < 1)):
        raise ConfigError("block offsets must rise strictly from 0 to the "
                          "number of design columns")
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    tau = gamma * step
    # z blocks at or below tau shrink to zero: 1 - tau/max(norm, tau) = 0;
    # with tau = 0 nothing shrinks and the floor only keeps 0/0 out
    floor = tau if tau > 0.0 else 1.0

    def objective(xt, penalty):
        return 0.5 * (ynorm_sq - 2.0 * np.vdot(hmat, xt)
                      + np.vdot(xt, gram @ xt)) + penalty

    # no array is updated in place below, so x and xt may share storage
    xt = np.zeros_like(hmat) if x0 is None else np.array(x0, dtype=float)
    x = xt                 # extrapolated iterate X^{(m)}; xt is Xt^{(m)}
    theta = 1.0

    trace = np.empty(max_iter + 1)
    g_prev = objective(xt, gamma * np.sum(np.sqrt(block_sq_norms(xt, starts))))
    trace[0] = g_prev
    n_trace = 1
    converged = False
    skip_check = False
    pure_step = True  # x holds the last proximal point, no momentum mixed in

    for _ in range(max_iter):
        z = x - step * (gram @ x - hmat)
        zn = np.sqrt(block_sq_norms(z, starts))
        scale = 1.0 - tau / np.maximum(zn, floor)
        xt_new = z * np.repeat(scale, sizes)[:, None]
        g_cand = objective(xt_new, gamma * np.vdot(scale, zn))

        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        omega = (theta - 1.0) / theta_new
        restarted = np.vdot(x - xt_new, xt_new - xt) > 0.0
        rejected = (not math.isfinite(g_cand)) or g_cand > g_prev
        if rejected and pure_step:
            # a momentum-free proximal step can only increase the objective
            # when the stepsize exceeds the inverse Lipschitz bound, or by
            # rounding at a fixed point of the proximal map
            if not g_cand - g_prev <= STALL_RTOL * max(ynorm_sq, abs(g_prev)):
                raise NumericalError("objective diverged; step size too large")
            trace[n_trace] = g_prev
            n_trace += 1
            converged = True
            break
        pure_step = rejected
        if rejected:
            # the restart test is only a proxy for descent; when the
            # candidate proximal point increases the objective, drop it and
            # restart the momentum from the previous proximal point
            x = xt
            theta = 1.0
            g = g_prev
        elif restarted:
            theta = 1.0
            # X^{(m+1)} = X^{(m)}: keep x as is.
            xt = xt_new
            g = g_cand
        else:
            theta = theta_new
            x = xt_new + omega * (xt_new - xt)
            xt = xt_new
            g = g_cand

        trace[n_trace] = g
        n_trace += 1

        rel = abs(g_prev - g) / max(abs(g_prev), 1e-12)
        g_prev = g
        # restarts re-derive the previous proximal point on the next pass,
        # so their zero objective change carries no convergence signal
        if rel < tol and not skip_check and not restarted and not rejected:
            converged = True
            break
        skip_check = restarted or rejected

    return SolveInfo(x=xt, objective_trace=trace[:n_trace].copy(),
                     iterations=n_trace - 1, converged=converged)


def df_from_contributions(vpsi_sq: np.ndarray, group_sizes: np.ndarray,
                          gamma: float) -> float:
    """Effective degrees of freedom: per selected block, one plus the
    shrinkage fraction of the remaining q_j*q_k - 1 parameters."""
    vpsi_sq = np.asarray(vpsi_sq, dtype=float)
    group_sizes = np.asarray(group_sizes, dtype=float)
    active = vpsi_sq > 0
    df = float(active.sum())
    with np.errstate(invalid="ignore"):
        shrink = np.where(active, vpsi_sq / (vpsi_sq + gamma), 0.0)
    df += float(np.sum((group_sizes - 1.0) * shrink))
    return df


def information_criterion(design: DesignSet, fit: "FitResult",
                          kappa: float) -> float:
    """N log(RSS) + kappa * df with N = (n - L) * q_j the scalar observation
    count of the row regression and the RSS floored away from zero."""
    n_obs = design.n_eff * design.responses[fit.j].shape[1]
    return n_obs * np.log(max(fit.rss, IC_FLOOR)) + kappa * fit.df


def fit_row(j: int, design: DesignSet, gamma: float, tol: float = 1e-8,
            max_iter: int = 10000, x0: np.ndarray | None = None) -> FitResult:
    """Solve row j at the given (standardized-units) gamma and attach the
    selection summaries (df, AIC, BIC).

    The df shrinkage ratio uses the same gamma the solver minimized with;
    the information criteria multiply log(RSS) by the scalar observation
    count (n - L) * q_j of the row regression, with kappa = 2 for AIC and
    log(n) for BIC.
    """
    Y = design.responses[j]
    hmat = design.design.T @ Y
    info = block_fista_gram(design.gram, hmat, float(np.sum(Y * Y)),
                            design.offsets, gamma, design.step_size(),
                            tol, max_iter, x0)
    X = info.x
    resid = Y - design.design @ X
    vpsi_sq = design.n_eff * block_sq_norms(X, design.offsets[:-1])
    fit = FitResult(j=j, gamma=gamma, psi_stacked=design.unstandardize @ X,
                    offsets=design.offsets, p=design.p, coeffs_std=X,
                    objective_trace=info.objective_trace,
                    iterations=info.iterations, converged=info.converged,
                    rss=float(np.sum(resid * resid)), vpsi_sq=vpsi_sq,
                    df=df_from_contributions(
                        vpsi_sq, design.block_sizes() * Y.shape[1], gamma),
                    aic=0.0, bic=0.0)
    fit.aic = information_criterion(design, fit, 2.0)
    fit.bic = information_criterion(design, fit, np.log(design.n))
    return fit


def gamma_max(design: DesignSet, j: int) -> float:
    """Smallest gamma at which the all-zero solution is optimal (padded by a
    1e-10 relative margin so the boundary survives floating-point rounding)."""
    hmat = design.design.T @ design.responses[j]
    top = max(
        float(np.linalg.norm(hmat[design.offsets[k]: design.offsets[k + 1]]))
        for k in range(design.n_blocks))
    return top * (1.0 + 1e-10)


def default_gamma_grid(design: DesignSet, j: int, n_gammas: int = 50,
                       min_ratio: float = 1e-3) -> np.ndarray:
    top = gamma_max(design, j)
    if top <= 0:
        return np.zeros(1)
    return np.geomspace(top, top * min_ratio, n_gammas)


def regularization_path(design: DesignSet, j: int, gamma_grid=None,
                        n_gammas: int = 50, min_ratio: float = 1e-3,
                        warm_start: bool = True, tol: float = 1e-8,
                        max_iter: int = 10000) -> list[FitResult]:
    """Fits along a descending gamma grid, warm-starting by default."""
    if gamma_grid is None:
        gamma_grid = default_gamma_grid(design, j, n_gammas, min_ratio)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(np.diff(gamma_grid) > 0):
        raise ConfigError("gamma grid must be nonincreasing")
    fits = []
    x0 = None
    for gamma in gamma_grid:
        fit = fit_row(j, design, float(gamma), tol=tol, max_iter=max_iter, x0=x0)
        fits.append(fit)
        if warm_start:
            x0 = fit.coeffs_std
    return fits


def select_gamma(design: DesignSet, j: int, criterion: str = "bic",
                 gamma_grid=None, n_gammas: int = 50, min_ratio: float = 1e-3,
                 tol: float = 1e-8, max_iter: int = 10000):
    """Minimize AIC or BIC along the path; returns (best fit, path)."""
    if criterion not in ("aic", "bic"):
        raise ConfigError("criterion must be 'aic' or 'bic'")
    path = regularization_path(design, j, gamma_grid=gamma_grid,
                               n_gammas=n_gammas, min_ratio=min_ratio,
                               tol=tol, max_iter=max_iter)
    values = [getattr(f, criterion) for f in path]
    return path[int(np.argmin(values))], path


def kkt_residuals(design: DesignSet, fit: FitResult) -> tuple[float, float]:
    """Optimality certificate in standardized coordinates.

    Returns (worst zero-block excess ||grad_k|| - gamma, worst active-block
    stationarity norm ||grad_k + gamma X_k / ||X_k|| ||).
    """
    X = fit.coeffs_std
    starts = design.offsets[:-1]
    x_norm = np.sqrt(block_sq_norms(X, starts))
    active = x_norm > 0.0
    # gamma / ||X_k|| on active blocks, 0 on zero blocks, whose residual
    # is then the plain gradient norm
    pull = np.divide(fit.gamma, x_norm, out=np.zeros_like(x_norm), where=active)
    grad = design.gram @ X - design.design.T @ design.responses[fit.j]
    res = np.sqrt(block_sq_norms(
        grad + np.repeat(pull, design.block_sizes())[:, None] * X, starts))
    zero_excess = max(0.0, float(np.max(res[~active], initial=0.0)) - fit.gamma)
    return zero_excess, float(np.max(res[active], initial=0.0))


@dataclass
class KernelEstimate:
    """Estimated transition kernels in the eigenfunction bases.

    ``psi[h-1][j][k]`` is the (q_k, q_j) block of row j; the kernel is
    A_jk^(h)(u, v) = phi_k(v)^T Psi_jk^(h) phi_j(u).
    """

    L: int
    kl_models: list
    psi: list
    hs: np.ndarray  # (L, p, p)

    @property
    def p(self) -> int:
        return len(self.kl_models)

    def evaluate(self, h: int, j: int, k: int, u, v) -> np.ndarray:
        phi_j = self.kl_models[j].eigenfunctions(u)
        phi_k = self.kl_models[k].eigenfunctions(v)
        return phi_j @ self.psi[h - 1][j][k].T @ phi_k.T

    def support(self) -> np.ndarray:
        return (self.hs > 0).any(axis=0)

    def edge_weights(self) -> np.ndarray:
        """(p, p) matrix of max-over-lag Hilbert-Schmidt norms."""
        return self.hs.max(axis=0)

    def to_json(self) -> str:
        return json.dumps({
            "L": self.L,
            "kl_models": [m.to_dict() for m in self.kl_models],
            "psi": [[[b.tolist() for b in row] for row in lag] for lag in self.psi],
        })

    @classmethod
    def from_json(cls, text: str) -> "KernelEstimate":
        obj = json.loads(text)
        kl_models = [KLModel.from_dict(d) for d in obj["kl_models"]]
        psi = [[[np.asarray(b, dtype=float) for b in row] for row in lag]
               for lag in obj["psi"]]
        return _kernel_estimate(int(obj["L"]), kl_models, psi)


def _nested_norms(psi) -> np.ndarray:
    """Frobenius norms of the blocks of a three-level nested psi."""
    return np.array([[[np.linalg.norm(b) for b in inner] for inner in outer]
                     for outer in psi])


def _kernel_estimate(L: int, kl_models: list, psi: list) -> KernelEstimate:
    return KernelEstimate(L=L, kl_models=kl_models, psi=psi,
                          hs=_nested_norms(psi))


def recover_kernels(fits: list[FitResult], kl_models: list[KLModel]) -> KernelEstimate:
    """Assemble the functional estimates from the p row fits."""
    if len(fits) != len(kl_models):
        raise ConfigError("need one fit per variable")
    rows = [f.psi for f in sorted(fits, key=lambda f: f.j)]
    L = len(rows[0])
    psi = [[row[h] for row in rows] for h in range(L)]
    return KernelEstimate(L=L, kl_models=kl_models, psi=psi,
                          hs=_nested_norms(rows).transpose(1, 0, 2))
