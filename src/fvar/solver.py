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
once in numpy and solves a batch of rows at once.  The rows share the
design, its Gram matrix and the step size, and differ only in B^T Y_j and
gamma, so their coefficients are stacked side by side as the columns of one
(r, sum_j q_j) array:

- one Gram product per iteration serves every row.  G Xt feeds the
  objective, and G X, the gradient's product, is extrapolated with the same
  momentum weight as X instead of being recomputed.  The working arrays
  hold the transposes, one contiguous row per column of X;
- the (block, row) norms are a 0/1 block-membership product followed by a
  sum over each row's columns;
- momentum, restart, rejection and convergence are per-row vectors, so
  each row takes exactly the steps it would take alone, up to rounding;
- a row that has converged is frozen and its columns are compacted out of
  the working arrays.

``regularization_path`` is the one fit driver: it walks the rows'
warm-started gamma grids together, one batched solve and one set of
whole-array summary products per grid index.  ``fit_row`` is its one-row,
one-point call.  Fixed-gamma ``pipeline.fit_rows`` still calls ``fit_row``
once per row, because the benchmark counts fits by wrapping ``fit_row``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ConfigError, DataError, NumericalError, parse_json
from .fpca import KLModel
from .moments import check_indices, sym_inv_sqrt

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

    def __post_init__(self):
        self.psi_stacked.flags.writeable = False

    def active(self) -> np.ndarray:
        return self.vpsi_sq > 0

    @cached_property
    def psi(self) -> list:
        """``psi[h-1][k]`` is a view of the (q_k, q_j) block Psi_jk^(h) of
        the read-only ``psi_stacked``.  Assigning ``psi[h-1][k]`` replaces
        the block this fit reports; ``psi_stacked`` stays as it is."""
        o = self.offsets
        return [[self.psi_stacked[o[b]:o[b + 1]] for b in range(h, h + self.p)]
                for h in range(0, len(o) - 1, self.p)]

    def to_dict(self) -> dict:
        return {
            "j": self.j, "gamma": self.gamma,
            "psi": [[b.tolist() for b in row] for row in self.psi],
            "iterations": self.iterations, "converged": self.converged,
            "rss": self.rss, "df": self.df, "aic": self.aic, "bic": self.bic,
        }


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

    n_eff = n - L
    for k, m in enumerate(kl_models):
        if n_eff < m.q:
            raise ConfigError(
                f"variable {k} has q={m.q} scores but n={n} observations leave "
                f"n-L={n_eff} rows at lag order L={L}; its score Gram needs "
                f"n >= L + q = {L + m.q}")
    scores = [m.scores for m in kl_models]
    roots_inv, cols = [], []
    for h in range(1, L + 1):
        for k, s in enumerate(scores):
            V = s[L - h: n - h]
            Dinv = sym_inv_sqrt(V.T @ V / n_eff, f"score Gram of variable {k} "
                                f"is singular; use a smaller q for it")
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
    """Result of one batched solve of independent row problems.

    ``x`` stacks the row solutions column-wise as ``hmat`` does;
    ``iterations`` is the sum of the per-row iteration counts."""

    x: np.ndarray
    traces: list               # per row, objective at each proximal point
    row_iterations: np.ndarray
    row_converged: np.ndarray
    iterations: int

    @property
    def objective_trace(self) -> np.ndarray:
        """The trace of a one-row solve."""
        (trace,) = self.traces
        return trace

    @property
    def converged(self) -> bool:
        return bool(self.row_converged.all())


def _check_offsets(offsets, end: int, what: str) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0
            or offsets[-1] != end or np.any(np.diff(offsets) < 1)):
        raise ConfigError(f"{what} offsets must rise strictly from 0 to {end}")
    return offsets


def block_fista_gram(gram: np.ndarray, hmat: np.ndarray, ynorm_sq, offsets,
                     gamma, step: float, tol: float = 1e-8,
                     max_iter: int = 10000, x0: np.ndarray | None = None,
                     col_offsets=None, row_ids=None) -> SolveInfo:
    """Minimize 0.5*||Y_b - B X_b||_F^2 + gamma_b * sum_k ||X_bk||_F
    blockwise, for each row problem b of a batch sharing the design B.

    Works on the Gram form: ``gram = B.T @ B``, which must be symmetric;
    ``hmat`` stacks the ``B.T @ Y_b`` column-wise, with row b in columns
    ``col_offsets[b]:col_offsets[b+1]`` (one row when ``col_offsets`` is
    None), and ``ynorm_sq`` and ``gamma`` hold ||Y_b||_F^2 and gamma_b, one
    value per row or one for all.  ``offsets`` delimits the row blocks of X
    and must rise strictly from 0 to the row count of ``hmat``; ``row_ids``
    names the rows in error messages (default 0, 1, ...).

    Per iteration and row: gradient step from the extrapolated point,
    blockwise group soft-threshold with threshold gamma*step, momentum
    update theta -> (1 + sqrt(1 + 4 theta^2))/2, extrapolation, and a
    restart whenever trace{(X - Xt_new)^T (Xt_new - Xt)} > 0, in which case
    the accumulated momentum is dropped (X kept at the previous iterate,
    theta reset to 1).  A row stops when its relative objective change is
    at most ``tol`` or when a momentum-free step cannot lower its objective
    beyond rounding; a momentum-free step that raises it materially means
    the step size exceeds the inverse Lipschitz bound and raises
    NumericalError naming the row.

    ``traces[b]`` holds row b's objective at each proximal point, entry 0
    at ``x0``.
    """
    hmat = np.asarray(hmat, dtype=float)
    r, width = hmat.shape
    offsets = _check_offsets(offsets, r, "block")
    col_offsets = _check_offsets([0, width] if col_offsets is None
                                 else col_offsets, width, "column")
    n_rows = col_offsets.size - 1
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n_rows,))
    if not np.all(gamma >= 0):
        raise ConfigError("gamma must be nonnegative")
    yn = np.broadcast_to(np.asarray(ynorm_sq, dtype=float), (n_rows,))
    row_ids = list(range(n_rows)) if row_ids is None else list(row_ids)
    widths = np.diff(col_offsets)
    sizes = np.diff(offsets)
    # 0/1 block membership: a @ member sums the columns of a block by block
    member = np.zeros((r, sizes.size))
    member[np.arange(r), np.repeat(np.arange(sizes.size), sizes)] = 1.0

    # The working arrays hold X^T, one contiguous row per hmat column, so
    # per-column factors broadcast along r; gram is symmetric, so
    # xt @ gram = (G Xt)^T.
    # They keep the columns of the rows still running: ``active`` names
    # those rows, ``cols`` the hmat columns they occupy.
    active = np.arange(n_rows)
    cols = np.arange(width)
    ht = np.ascontiguousarray(hmat.T)
    h2 = 2.0 * ht
    tau = (gamma * step)[:, None]
    # z blocks at or below tau shrink to zero: 1 - tau/max(norm, tau) = 0;
    # with tau = 0 nothing shrinks and the floor only keeps 0/0 out
    floor = np.where(tau > 0.0, tau, 1.0)

    def layout():
        """Column starts of the active rows, and each column's row."""
        w = widths[active]
        return (np.concatenate([[0], np.cumsum(w)[:-1]]),
                np.repeat(np.arange(active.size), w))

    starts, col_row = layout()

    def row_sums(a, b):
        return np.add.reduceat(np.einsum("ij,ij->i", a, b), starts)

    def block_norms(a):
        """(row, block) Frobenius norms."""
        return np.sqrt(np.add.reduceat((a * a) @ member, starts, axis=0))

    # gx and gxt hold (G x)^T and (G xt)^T; x and xt may share storage
    xt = (np.zeros_like(ht) if x0 is None
          else np.array(np.asarray(x0, dtype=float).T, order="C"))
    gxt = xt @ gram
    x, gx = xt, gxt
    g_prev = (0.5 * (yn + row_sums(xt, gxt - h2))
              + gamma * block_norms(xt).sum(axis=1))
    if not np.all(np.isfinite(g_prev)):
        j = row_ids[int(np.argmin(np.isfinite(g_prev)))]
        raise NumericalError(
            f"row {j}: objective is not finite at the starting point")
    g_start = g_prev
    theta = np.ones(n_rows)
    pure_step = np.ones(n_rows, dtype=bool)  # x is the last proximal point
    skip_check = np.zeros(n_rows, dtype=bool)
    x_out = np.empty_like(ht)
    converged = np.zeros(n_rows, dtype=bool)
    # objective histories: one array over the active rows per iteration,
    # split into epochs at each change of the active set
    epochs, hist = [], []

    for _ in range(max_iter):
        z = x - step * (gx - ht)
        zn = block_norms(z)
        scale = 1.0 - tau / np.maximum(zn, floor)
        xt_new = z * np.repeat(scale[col_row], sizes, axis=1)
        gxt_new = xt_new @ gram
        g_cand = (0.5 * (yn + row_sums(xt_new, gxt_new - h2))
                  + gamma * np.einsum("ij,ij->i", scale, zn))

        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        omega = ((theta - 1.0) / theta_new)[col_row, None]
        advance = xt_new - xt
        restarted = row_sums(x - xt_new, advance) > 0.0
        # NaN and inf compare false, so a non-finite candidate is rejected
        rejected = ~(g_cand <= g_prev)
        moved = restarted | rejected
        # restarts re-derive the previous proximal point on the next pass,
        # so their zero objective change carries no convergence signal
        rel = np.abs(g_prev - g_cand) / np.maximum(np.abs(g_prev), 1e-12)
        done = (rel <= tol) & ~(skip_check | moved)
        x_ext = xt_new + omega * advance
        gx_ext = gxt_new + omega * (gxt_new - gxt)
        if np.count_nonzero(moved):
            stalled = rejected & pure_step
            if np.count_nonzero(stalled):
                # a momentum-free proximal step can only increase the
                # objective when the stepsize exceeds the inverse Lipschitz
                # bound, or by rounding at a fixed point of the proximal map
                bad = stalled & ~(g_cand - g_prev <= STALL_RTOL
                                  * np.maximum(yn, np.abs(g_prev)))
                if np.count_nonzero(bad):
                    j = row_ids[active[int(np.argmax(bad))]]
                    raise NumericalError(
                        f"row {j}: objective diverged; step size too large")
                done |= stalled
            # the arrays made in this iteration are the only ones written
            # in place: restarted rows keep x, X^{(m+1)} = X^{(m)}; rejected
            # rows drop the candidate and restart from the previous
            # proximal point
            hold = np.flatnonzero((restarted & ~rejected)[col_row])
            x_ext[hold] = x[hold]
            gx_ext[hold] = gx[hold]
            back = np.flatnonzero(rejected[col_row])
            x_ext[back] = xt_new[back] = xt[back]
            gx_ext[back] = gxt_new[back] = gxt[back]
            theta = np.where(moved, 1.0, theta_new)
            g = np.where(rejected, g_prev, g_cand)
        else:
            theta, g = theta_new, g_cand
        x, gx, xt, gxt = x_ext, gx_ext, xt_new, gxt_new
        hist.append(g)
        g_prev = g
        pure_step = rejected
        skip_check = moved
        if np.count_nonzero(done):
            # freeze the finished rows and compact their columns out
            fin = done[col_row]
            x_out[cols[fin]] = xt[fin]
            converged[active[done]] = True
            epochs.append((active, hist))
            hist = []
            live, keep = ~fin, ~done
            x, gx, xt, gxt, ht, h2, cols = (a[live] for a in
                                            (x, gx, xt, gxt, ht, h2, cols))
            active, theta, g_prev, pure_step, skip_check, tau, floor, \
                gamma, yn = (v[keep] for v in (
                    active, theta, g_prev, pure_step, skip_check, tau, floor,
                    gamma, yn))
            if active.size == 0:
                break
            starts, col_row = layout()

    x_out[cols] = xt
    epochs.append((active, hist))
    parts = [[g_start[b: b + 1]] for b in range(n_rows)]
    for rows, h in epochs:
        if h:
            stacked = np.array(h)
            for i, b in enumerate(rows):
                parts[b].append(stacked[:, i])
    traces = [np.concatenate(p) for p in parts]
    iterations = np.array([t.size - 1 for t in traces])
    return SolveInfo(x=np.ascontiguousarray(x_out.T), traces=traces,
                     row_iterations=iterations,
                     row_converged=converged, iterations=int(iterations.sum()))


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


def check_solve_options(tol: float | None = None, max_iter: int | None = None,
                        n_gammas: int | None = None,
                        min_ratio: float | None = None) -> None:
    """Raise ConfigError naming the first given solver or path option that
    is out of range."""
    def integer(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

    if max_iter is not None and not (integer(max_iter) and max_iter >= 1):
        raise ConfigError(
            f"max_iter must be an integer >= 1; got {max_iter!r}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0; got {tol!r}")
    if n_gammas is not None and not (integer(n_gammas) and n_gammas >= 1):
        raise ConfigError(
            f"n_gammas must be an integer >= 1; got {n_gammas!r}")
    if min_ratio is not None and not 0 < min_ratio <= 1:
        raise ConfigError(f"min_ratio must lie in (0, 1]; got {min_ratio!r}")


def check_criterion(criterion: str) -> None:
    if criterion not in ("aic", "bic"):
        raise ConfigError("criterion must be 'aic' or 'bic'")


def fit_row(j: int, design: DesignSet, gamma: float, tol: float = 1e-8,
            max_iter: int = 10000) -> FitResult:
    """Row j at the given (standardized-units) gamma, with its selection
    summaries (df, AIC, BIC): the one-point path of ``regularization_path``.
    """
    return regularization_path(design, j, gamma_grid=[gamma], tol=tol,
                               max_iter=max_iter)[0]


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
    """``n_gammas`` geometric steps from gamma_max down to min_ratio times
    it; all zeros when the zero fit is optimal at every gamma."""
    check_solve_options(n_gammas=n_gammas, min_ratio=min_ratio)
    top = gamma_max(design, j)
    if top <= 0:
        return np.zeros(n_gammas)
    return np.geomspace(top, top * min_ratio, n_gammas)


def regularization_path(design: DesignSet, j, gamma_grid=None,
                        n_gammas: int = 50, min_ratio: float = 1e-3,
                        tol: float = 1e-8, max_iter: int = 10000) -> list:
    """Warm-started fits along a descending gamma grid.

    ``j`` is one row, for which the fits along its grid are returned, or a
    sequence of distinct rows, for which one such list per row is returned;
    a row outside [0, p) is a ConfigError.  All rows step down their grids
    together: at each grid index one batched ``block_fista_gram`` solves
    every row, each warm-started from its own previous point.
    ``gamma_grid`` is one grid for all rows; by default each row uses its
    own ``default_gamma_grid``.
    """
    one = np.ndim(j) == 0
    rows = check_indices([j] if one else j, design.p, "row", "p")
    check_solve_options(tol, max_iter)
    if gamma_grid is None:
        grids = np.array([default_gamma_grid(design, b, n_gammas, min_ratio)
                          for b in rows])
    else:
        grid = np.asarray(gamma_grid, dtype=float)
        if grid.ndim != 1:
            raise ConfigError("gamma grid must be one-dimensional")
        if grid.size == 0:
            raise ConfigError("gamma grid is empty")
        if np.any(np.diff(grid) > 0):
            raise ConfigError("gamma grid must be nonincreasing")
        grids = np.broadcast_to(grid, (len(rows), grid.size))

    responses = [design.responses[b] for b in rows]
    col_offsets = np.cumsum([0] + [Y.shape[1] for Y in responses])
    Y = np.concatenate(responses, axis=1)
    hmat = design.design.T @ Y
    ynorm_sq = np.array([float(np.sum(Y * Y)) for Y in responses])
    paths = [[] for _ in rows]
    x0 = None
    for gammas in grids.T:
        info = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                gammas, design.step_size(), tol, max_iter, x0,
                                col_offsets=col_offsets, row_ids=rows)
        x0 = info.x
        # one product each gives every row's blocks and residuals; the
        # ||V Psi||^2 column sums stay a per-row einsum, as in a lone row's
        # fit, so that fixed-gamma fits stay bit-identical
        psi = design.unstandardize @ x0
        resid = Y - design.design @ x0
        sq = resid * resid
        for b, (row, lo, hi) in enumerate(zip(rows, col_offsets,
                                              col_offsets[1:])):
            # copies, so that a fit kept alone does not keep its index's
            # whole arrays alive
            X = x0[:, lo:hi].copy()
            vpsi_sq = design.n_eff * block_sq_norms(X, design.offsets[:-1])
            fit = FitResult(
                j=row, gamma=float(gammas[b]),
                psi_stacked=psi[:, lo:hi].copy(),
                offsets=design.offsets, p=design.p, coeffs_std=X,
                objective_trace=info.traces[b],
                iterations=int(info.row_iterations[b]),
                converged=bool(info.row_converged[b]),
                rss=float(np.sum(sq[:, lo:hi])), vpsi_sq=vpsi_sq,
                df=df_from_contributions(
                    vpsi_sq, design.block_sizes() * (hi - lo), gammas[b]),
                aic=0.0, bic=0.0)
            fit.aic = information_criterion(design, fit, 2.0)
            fit.bic = information_criterion(design, fit, np.log(design.n))
            paths[b].append(fit)
    return paths[0] if one else paths


def best_fit(path: list, criterion: str = "bic") -> FitResult:
    """The first fit of a path that minimizes ``criterion``, "aic" or
    "bic"."""
    return path[int(np.argmin([getattr(f, criterion) for f in path]))]


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

    ``lags`` holds one read-only (sum q, sum q) array per lag, its rows and
    columns split by variable at ``offsets``.  Row j's blocks sit side by
    side in column slice j, so ``lags[h-1][k slice, j slice]`` is the
    (q_k, q_j) block Psi_jk^(h), and the kernel is
    A_jk^(h)(u, v) = phi_k(v)^T Psi_jk^(h) phi_j(u).  ``psi[h-1][j][k]`` is
    a view of that block, made on each access of ``psi``.
    """

    kl_models: list
    lags: np.ndarray                                # (L, sum q, sum q)
    offsets: np.ndarray = field(init=False)         # (p + 1,)
    hs: np.ndarray = field(init=False, repr=False)  # (L, p, p)

    def __post_init__(self):
        self.offsets = np.cumsum([0] + [m.q for m in self.kl_models])
        if self.lags.shape[1:] != (self.offsets[-1],) * 2:
            raise ConfigError(f"psi arrays of shape {self.lags.shape[1:]} do "
                              "not match the components of the KL models")
        self.lags.flags.writeable = False
        # squares summed over each column block j, then each row block k:
        # sq[h, k, j] = ||Psi_jk^(h)||_F^2
        starts = self.offsets[:-1]
        sq = np.add.reduceat(np.add.reduceat(self.lags * self.lags, starts,
                                             axis=2), starts, axis=1)
        self.hs = np.sqrt(sq).transpose(0, 2, 1)

    @property
    def L(self) -> int:
        return len(self.lags)

    @property
    def p(self) -> int:
        return len(self.kl_models)

    @property
    def psi(self) -> list:
        # not cached: kept on each of a path sweep's estimates, the views
        # would take about as much memory as the lag arrays
        o = self.offsets
        return [[[lag[o[k]:o[k + 1], o[j]:o[j + 1]] for k in range(self.p)]
                 for j in range(self.p)] for lag in self.lags]

    def evaluate(self, h: int, j: int, k: int, u, v) -> np.ndarray:
        o = self.offsets
        phi_j = self.kl_models[j].eigenfunctions(u)
        phi_k = self.kl_models[k].eigenfunctions(v)
        block = self.lags[h - 1][o[k]:o[k + 1], o[j]:o[j + 1]]
        return phi_j @ block.T @ phi_k.T

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
        return parse_json(text, lambda obj: _kernel_estimate(
            int(obj["L"]), [KLModel.from_dict(d) for d in obj["kl_models"]],
            obj["psi"]), "kernel estimate")


def _kernel_estimate(L: int, kl_models: list, psi: list) -> KernelEstimate:
    """Estimate from nested blocks: ``psi[h-1][j][k]`` is row j's (q_k, q_j)
    block."""
    if len(psi) != L:
        raise DataError(f"psi has {len(psi)} lags, expected L={L}")
    try:
        lags = np.array([np.hstack([np.vstack(row) for row in lag])
                         for lag in psi], dtype=float)
    except ValueError as exc:
        raise DataError(f"psi blocks do not fit together: {exc}") from None
    return KernelEstimate(kl_models=kl_models, lags=lags)


def recover_kernels(fits: list[FitResult], kl_models: list[KLModel]) -> KernelEstimate:
    """Assemble the functional estimates from the p row fits: row j's
    ``psi_stacked`` is column slice j of the stacked lag arrays.  The fits
    must cover each row 0..p-1 once."""
    fits = sorted(fits, key=lambda f: f.j)
    rows = [f.j for f in fits]
    if rows != list(range(len(kl_models))):
        raise ConfigError(f"need one fit for each of the {len(kl_models)} "
                          f"rows 0..{len(kl_models) - 1}; got rows {rows}")
    stacked = np.hstack([f.psi_stacked for f in fits])
    q = stacked.shape[1]
    return KernelEstimate(kl_models=kl_models, lags=stacked.reshape(-1, q, q))
