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

``regularization_path`` is the one fit driver, one batched solve per index
of the rows' warm-started gamma grids; ``fit_row`` is its one-row,
one-point call.  A fit keeps only Psi_k = D_k^{-1} X_k.  Psi and the
residuals are whole-array products, and the ||V Psi||^2, RSS and df
summaries a loop over the rows, so that they stay bit-identical to a lone
row's fit.  ``standardized_coeffs`` recovers X for the KKT check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericalError, parse_json
from .fpca import KLModel
from .moments import check_indices, sym_inv_sqrt

IC_FLOOR = 1e-300
# relative objective increase, on the scale of ||Y||_F^2, that a
# momentum-free step may show at the optimum through rounding alone
STALL_RTOL = 1e-12


@dataclass
class DesignSet:
    """Responses and the standardized lagged design: block b of ``design``
    (columns ``offsets[b]:offsets[b+1]``, lag-major) is the lagged scores V_b
    times ``roots_inv[b]`` = (V_b^T V_b / (n - L))^{-1/2}.  ``gram`` and
    ``step_size`` are derived from ``design`` on first use."""

    n: int
    L: int
    responses: list       # j -> (n-L, q_j) scores at times L+1..n
    roots_inv: list       # b -> (q_b, q_b) D_b^{-1}, in offsets order
    design: np.ndarray    # (n-L, r) standardized stacked predictors
    offsets: np.ndarray   # (p*L + 1,) block row offsets

    @property
    def p(self) -> int:
        return len(self.responses)

    @property
    def n_eff(self) -> int:
        return self.n - self.L

    @property
    def n_blocks(self) -> int:
        return self.offsets.size - 1

    def block_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def gram(self) -> np.ndarray:
        """design^T design in a 64-byte aligned buffer: at one BLAS thread a
        (5 x 400)(400 x 400) product with it takes 44 us aligned and 62 us
        16, 32 or 48 bytes off, with the same bits."""
        r = self.design.shape[1]
        buf = np.empty(r * r + 8)
        start = -buf.ctypes.data % 64 // buf.itemsize
        return np.matmul(self.design.T, self.design,
                         out=buf[start:start + r * r].reshape(r, r))

    @cached_property
    def step_size(self) -> float:
        """0.9 / lambda_max(design^T design)."""
        return 0.9 / np.linalg.eigvalsh(self.gram)[-1]


@dataclass
class FitResult:
    """One penalized row fit: original-scale coefficient blocks and
    selection summaries.  ``aic`` and ``bic`` are N log(max(RSS, IC_FLOOR))
    + kappa df, with N = (n - L) q_j and kappa = 2 or log n."""

    j: int
    gamma: float
    psi_stacked: np.ndarray    # (r, q_j) un-standardized blocks
    offsets: np.ndarray        # block row offsets into psi_stacked
    p: int
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
    offsets = np.cumsum([0] + [m.q for m in kl_models] * L, dtype=np.int64)
    design = np.empty((n_eff, offsets[-1]))
    roots_inv = []
    for b, (a, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        h, k = divmod(b, len(scores))  # block b is lag h + 1 of variable k
        V = scores[k][L - h - 1: n - h - 1]
        Dinv = sym_inv_sqrt(V.T @ V / n_eff, f"score Gram of variable {k} "
                            f"is singular; use a smaller q for it")
        roots_inv.append(Dinv)
        design[:, a:e] = V @ Dinv
    return DesignSet(n=n, L=L, responses=[s[L:] for s in scores],
                     roots_inv=roots_inv, design=design, offsets=offsets)


def group_soft_threshold(Z: np.ndarray, tau: float, offsets=None) -> np.ndarray:
    """Blockwise (1 - tau/||Z_k||_F)_+ Z_k; a single block when offsets is None."""
    if not tau >= 0:
        raise ConfigError(f"threshold must be >= 0; got {tau!r}")
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
    row_iterations: np.ndarray
    row_converged: np.ndarray
    iterations: int

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
    """
    check_solve_options(tol, max_iter)
    hmat = np.asarray(hmat, dtype=float)
    r, width = hmat.shape
    offsets = _check_offsets(offsets, r, "block")
    col_offsets = _check_offsets([0, width] if col_offsets is None
                                 else col_offsets, width, "column")
    n_rows = col_offsets.size - 1
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n_rows,))
    if not np.all((0 <= gamma) & (gamma < np.inf)):
        raise ConfigError("gamma must be finite and nonnegative")
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
    g_floor = 1e-12 * np.where(yn > 0.0, yn, 1.0)  # |g| floor, as ||Y||^2

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
    theta = np.ones(n_rows)
    pure_step = np.ones(n_rows, dtype=bool)  # x is the last proximal point
    skip_check = np.zeros(n_rows, dtype=bool)
    x_out = np.empty_like(ht)
    converged = np.zeros(n_rows, dtype=bool)
    # every running row takes each iteration, so a row's count is the
    # iteration at which it is frozen
    row_iterations = np.full(n_rows, max_iter)

    for it in range(1, max_iter + 1):
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
        rel = np.abs(g_prev - g_cand) / np.maximum(np.abs(g_prev), g_floor)
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
        g_prev = g
        pure_step = rejected
        skip_check = moved
        if np.count_nonzero(done):
            # freeze the finished rows and compact their columns out
            fin = done[col_row]
            x_out[cols[fin]] = xt[fin]
            converged[active[done]] = True
            row_iterations[active[done]] = it
            live, keep = ~fin, ~done
            x, gx, xt, gxt, ht, h2, cols = (a[live] for a in
                                            (x, gx, xt, gxt, ht, h2, cols))
            active, theta, g_prev, pure_step, skip_check, tau, floor, \
                g_floor, gamma, yn = (v[keep] for v in (
                    active, theta, g_prev, pure_step, skip_check, tau, floor,
                    g_floor, gamma, yn))
            if active.size == 0:
                break
            starts, col_row = layout()

    x_out[cols] = xt
    return SolveInfo(x=np.ascontiguousarray(x_out.T),
                     row_iterations=row_iterations, row_converged=converged,
                     iterations=int(row_iterations.sum()))


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
    o = design.offsets
    paths = [[] for _ in rows]
    x0 = None
    for gammas in grids.T:
        info = block_fista_gram(design.gram, hmat, ynorm_sq, o, gammas,
                                design.step_size, tol, max_iter, x0,
                                col_offsets=col_offsets, row_ids=rows)
        x0 = info.x
        # Psi_k = D_k^{-1} X_k block by block, then every row's residuals in
        # one product; the ||V Psi||^2 column sums stay a per-row einsum, as
        # in a lone row's fit, so that fixed-gamma fits stay bit-identical
        psi = np.empty_like(x0)
        for a, e, Dinv in zip(o[:-1], o[1:], design.roots_inv):
            psi[a:e] = Dinv @ x0[a:e]
        resid = Y - design.design @ x0
        sq = resid * resid
        for b, (row, lo, hi) in enumerate(zip(rows, col_offsets,
                                              col_offsets[1:])):
            vpsi_sq = design.n_eff * block_sq_norms(x0[:, lo:hi], o[:-1])
            rss = float(np.sum(sq[:, lo:hi]))
            df = df_from_contributions(
                vpsi_sq, design.block_sizes() * (hi - lo), gammas[b])
            n_log_rss = design.n_eff * (hi - lo) * np.log(max(rss, IC_FLOOR))
            # a copy, so that a fit kept alone does not keep its index's
            # whole array alive
            paths[b].append(FitResult(
                j=row, gamma=float(gammas[b]),
                psi_stacked=psi[:, lo:hi].copy(), offsets=o,
                p=design.p, iterations=int(info.row_iterations[b]),
                converged=bool(info.row_converged[b]), rss=rss,
                vpsi_sq=vpsi_sq, df=df, aic=n_log_rss + 2.0 * df,
                bic=n_log_rss + np.log(design.n) * df))
    return paths[0] if one else paths


def best_fit(path: list, criterion: str = "bic") -> FitResult:
    """The first fit of a path that minimizes ``criterion``, "aic" or
    "bic"."""
    return path[int(np.argmin([getattr(f, criterion) for f in path]))]


def standardized_coeffs(design: DesignSet, fit: FitResult) -> np.ndarray:
    """The standardized solution X = D Psi of a row fit: block k solves
    against ``design.roots_inv[k]`` = D_k^{-1}, so a zero block stays
    exactly zero."""
    o = design.offsets
    return np.concatenate([
        np.linalg.solve(Dinv, fit.psi_stacked[a:b])
        for a, b, Dinv in zip(o[:-1], o[1:], design.roots_inv)])


def kkt_residuals(design: DesignSet, fit: FitResult) -> tuple[float, float]:
    """Optimality certificate in standardized coordinates, at the X that
    ``standardized_coeffs`` recovers from the fit's blocks.

    Returns (worst zero-block excess ||grad_k|| - gamma, worst active-block
    stationarity norm ||grad_k + gamma X_k / ||X_k|| ||).
    """
    X = standardized_coeffs(design, fit)
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

    ``columns[j]`` is row j's read-only array, kept as given (a fit's
    ``psi_stacked``): its rows (h-1) sum q + offsets[k:k+2] hold the block
    Psi_jk^(h) of A_jk^(h)(u, v) = phi_k(v)^T Psi_jk^(h) phi_j(u).  The view
    ``psi[h-1][j][k]`` of each block, and ``lags``, the (L, sum q, sum q)
    stack with row j in column slice j, are made on each access."""

    kl_models: list
    columns: list                                   # j -> (L sum q, q_j)
    offsets: np.ndarray = field(init=False)         # (p + 1,)
    hs: np.ndarray = field(init=False, repr=False)  # (L, p, p)

    def __post_init__(self):
        self.offsets = np.cumsum([0] + [m.q for m in self.kl_models])
        q, widths = self.offsets[-1], np.diff(self.offsets).tolist()
        shapes = [c.shape for c in self.columns]
        height = shapes[0][0] if shapes else 0
        if not height or height % q or shapes != [(height, w) for w in widths]:
            raise ConfigError(f"psi columns of shapes {shapes} do not match "
                              f"the KL models' components {widths}")
        for c in self.columns:
            c.flags.writeable = False
        # sq[h, k, j] = ||Psi_jk^(h)||_F^2, from reduceat's in-order sums
        row_sq = np.hstack([np.add.reduceat(c * c, [0], axis=1)
                            for c in self.columns])
        sq = np.add.reduceat(row_sq.reshape(self.L, q, self.p),
                             self.offsets[:-1], axis=1)
        self.hs = np.sqrt(sq).transpose(0, 2, 1)

    @property
    def L(self) -> int:
        return len(self.columns[0]) // int(self.offsets[-1])

    @property
    def p(self) -> int:
        return len(self.kl_models)

    @property
    def psi(self) -> list:
        # not cached: a path sweep's views would take as much memory as Psi
        o = self.offsets
        return [[[c[h + o[k]:h + o[k + 1]] for k in range(self.p)]
                 for c in self.columns] for h in o[-1] * np.arange(self.L)]

    @property
    def lags(self) -> np.ndarray:
        return np.hstack(self.columns).reshape(self.L, self.offsets[-1], -1)

    def evaluate(self, h: int, j: int, k: int, u, v) -> np.ndarray:
        a = (h - 1) * self.offsets[-1] + self.offsets[k]
        block = self.columns[j][a:a + self.kl_models[k].q]
        return (self.kl_models[j].eigenfunctions(u) @ block.T
                @ self.kl_models[k].eigenfunctions(v).T)

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
    """Estimate from nested blocks, ``psi[h-1][j][k]`` = Psi_jk^(h)."""
    if len(psi) != L:
        raise DataError(f"psi has {len(psi)} lags, expected L={L}")
    try:
        rows = [[np.vstack(row, dtype=float) for row in lag] for lag in psi]
        if len({r.shape[0] for lag in rows for r in lag}) != 1:
            raise ValueError("rows of unequal heights, or none")
        columns = [np.vstack(lags) for lags in zip(*rows, strict=True)]
    except ValueError as exc:
        raise DataError(f"psi blocks do not fit together: {exc}") from None
    return KernelEstimate(kl_models=kl_models, columns=columns)


def recover_kernels(fits: list[FitResult], kl_models: list[KLModel]) -> KernelEstimate:
    """The estimate whose column j is row j's ``psi_stacked`` itself."""
    fits = sorted(fits, key=lambda f: f.j)
    rows = [f.j for f in fits]
    if rows != list(range(len(kl_models))):
        raise ConfigError(f"need one fit for each of the {len(kl_models)} "
                          f"rows 0..{len(kl_models) - 1}; got rows {rows}")
    return KernelEstimate(kl_models, [f.psi_stacked for f in fits])
