"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the mathematical definitions
rather than the package internals: de Boor recursion for B-splines, dense-grid
quadrature for Gram matrices, cyclic blockwise proximal coordinate descent for
the group lasso, and a trace-based characteristic polynomial for spectral
radii.  ``fista_loop``, ``fista_row``, ``path_rows``, ``fit_result_loop``,
``kkt_loop``, ``hs_norms_loop``, the FPCA refits, ``stability_loop``, ``stability_grid_tops``, ``simulate_scores_loop``,
``replication_errors_loop``, ``relative_error_loop`` and
``write_panel_csv_reference`` are the package's earlier, slower
formulations, kept as references its faster ones must match.
"""

import csv
import math

import numpy as np

from fvar.basis import evaluate_basis
from fvar.errors import ConfigError, DataError


def deboor_basis(x, knots, degree, n_basis):
    """Evaluate all B-spline basis functions by the Cox-de Boor recursion."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.asarray(knots, dtype=float)
    out = np.zeros((x.size, n_basis))
    for idx, xv in enumerate(x):
        # zero-degree indicator functions, right-closed at the last knot
        nfun = len(t) - 1
        b = np.zeros(nfun)
        for i in range(nfun):
            if t[i] <= xv < t[i + 1]:
                b[i] = 1.0
        if xv >= t[-1]:
            for i in range(nfun - 1, -1, -1):
                if t[i] < t[i + 1]:
                    b[i] = 1.0
                    break
        for d in range(1, degree + 1):
            b_new = np.zeros(nfun - d)
            for i in range(nfun - d):
                left = 0.0
                if t[i + d] > t[i]:
                    left = (xv - t[i]) / (t[i + d] - t[i]) * b[i]
                right = 0.0
                if t[i + d + 1] > t[i + 1]:
                    right = (t[i + d + 1] - xv) / (t[i + d + 1] - t[i + 1]) * b[i + 1]
                b_new[i] = left + right
            b = b_new
        out[idx] = b[:n_basis]
    return out


def dense_gram(fn, a, b, n_points=100001):
    """Trapezoid-rule Gram matrix of the columns of fn(grid)."""
    grid = np.linspace(a, b, n_points)
    F = fn(grid)
    w = np.full(n_points, (b - a) / (n_points - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return (F * w[:, None]).T @ F


def group_objective(Y, B, X, offsets, gamma):
    resid = Y - B @ X
    pen = sum(np.linalg.norm(X[offsets[k]: offsets[k + 1]])
              for k in range(len(offsets) - 1))
    return 0.5 * float(np.sum(resid * resid)) + gamma * pen


def group_objective_gram(gram, hmat, ynorm_sq, X, offsets, gamma):
    """``group_objective`` from the Gram data of ``block_fista_gram``:
    0.5 (||Y||^2 - 2 <B^T Y, X> + <X, B^T B X>) + gamma sum_k ||X_k||_F."""
    pen = sum(np.linalg.norm(X[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))
    return (0.5 * (ynorm_sq - 2.0 * np.vdot(hmat, X) + np.vdot(X, gram @ X))
            + gamma * pen)


def block_coordinate_descent(Y, B, offsets, gamma, tol=1e-12, max_sweeps=200000):
    """Cyclic blockwise proximal gradient for the group lasso.

    Each block takes a proximal step with its own stepsize
    1 / lambda_max(B_k^T B_k); sweeps continue until the relative objective
    change falls below tol.
    """
    n, q = Y.shape
    r = B.shape[1]
    nb = len(offsets) - 1
    X = np.zeros((r, q))
    R = Y.copy()
    lips = []
    for k in range(nb):
        Bk = B[:, offsets[k]: offsets[k + 1]]
        lips.append(np.linalg.eigvalsh(Bk.T @ Bk)[-1])
    obj = group_objective(Y, B, X, offsets, gamma)
    for _ in range(max_sweeps):
        for k in range(nb):
            lo, hi = offsets[k], offsets[k + 1]
            Bk = B[:, lo:hi]
            Xk = X[lo:hi]
            Z = Xk + Bk.T @ R / lips[k]
            nz = np.linalg.norm(Z)
            thr = gamma / lips[k]
            X_new = np.zeros_like(Z) if nz <= thr else (1.0 - thr / nz) * Z
            if not np.array_equal(X_new, Xk):
                R -= Bk @ (X_new - Xk)
                X[lo:hi] = X_new
        new_obj = group_objective(Y, B, X, offsets, gamma)
        if abs(obj - new_obj) <= tol * max(abs(obj), 1e-12):
            break
        obj = new_obj
    return X, group_objective(Y, B, X, offsets, gamma)


def charpoly_spectral_radius(M):
    """Spectral radius via Faddeev-LeVerrier coefficients and np.roots."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    A = np.eye(d)
    for k in range(1, d + 1):
        A = M @ A
        coeffs[k] = -np.trace(A) / k
        A += coeffs[k] * np.eye(d)
    return float(np.max(np.abs(np.roots(coeffs))))


def lyapunov_series(C, N, terms=20000, tol=1e-16):
    """Plain series sum S = sum_h C^h N (C^h)^T."""
    S = N.copy()
    A = np.eye(C.shape[0])
    for _ in range(terms):
        A = C @ A
        term = A @ N @ A.T
        S += term
        if np.abs(term).max() < tol:
            break
    return S


def fista_loop(gram, hmat, ynorm_sq, offsets, gamma, step, tol, max_iter, x0):
    """Restarted block FISTA written element by element, with the arguments
    of ``fvar.solver.block_fista_gram``.

    Returns ``(x, trace, n_trace, status)``: the objective at each proximal
    point (entry 0 at ``x0``), its length, and status 1 when converged, 0 at
    the iteration cap, -1 when a momentum-free step raised the objective by
    more than rounding (1e-12 relative to max(||Y||^2, objective)).  A
    rise within rounding is a stall at the optimum and counts as converged.
    """
    r, q = hmat.shape
    nblocks = len(offsets) - 1
    tau = gamma * step

    def objective(xt, penalty):
        fit = 0.0
        for i in range(r):
            for j in range(q):
                fit += xt[i, j] * (np.dot(gram[i], xt[:, j]) - 2.0 * hmat[i, j])
        return 0.5 * (ynorm_sq + fit) + penalty

    x = x0.copy()
    xt = x0.copy()
    theta = 1.0
    trace = [objective(xt, gamma * sum(
        np.sqrt(sum(xt[i, j] ** 2 for i in range(offsets[k], offsets[k + 1])
                    for j in range(q))) for k in range(nblocks)))]
    status, skip_check, pure_step = 0, False, True
    for _ in range(max_iter):
        z = x - step * (gram @ x - hmat)
        xt_new = np.zeros((r, q))
        penalty = 0.0
        for k in range(nblocks):
            lo, hi = offsets[k], offsets[k + 1]
            bn = np.sqrt(sum(z[i, j] ** 2 for i in range(lo, hi) for j in range(q)))
            if bn > tau:
                scale = 1.0 - tau / bn
                for i in range(lo, hi):
                    for j in range(q):
                        xt_new[i, j] = scale * z[i, j]
                penalty += gamma * scale * bn
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        omega = (theta - 1.0) / theta_new
        restart = sum((x[i, j] - xt_new[i, j]) * (xt_new[i, j] - xt[i, j])
                      for i in range(r) for j in range(q))
        g_cand = objective(xt_new, penalty)
        g_prev = trace[-1]
        restarted = restart > 0.0
        rejected = (not np.isfinite(g_cand)) or g_cand > g_prev
        if rejected and pure_step:
            if g_cand - g_prev <= 1e-12 * max(ynorm_sq, abs(g_prev)):
                trace.append(g_prev)
                status = 1
            else:
                trace.append(g_cand)
                status = -1
            break
        pure_step = rejected
        if rejected:
            x, theta, g = xt.copy(), 1.0, g_prev
        elif restarted:
            theta, xt, g = 1.0, xt_new, g_cand
        else:
            theta = theta_new
            x = xt_new + omega * (xt_new - xt)
            xt, g = xt_new, g_cand
        trace.append(g)
        if (abs(g_prev - g) / max(abs(g_prev), 1e-12) < tol and not skip_check
                and not restarted and not rejected):
            status = 1
            break
        skip_check = restarted or rejected
    return xt, np.asarray(trace), len(trace), status


def fista_row(gram, hmat, ynorm_sq, offsets, gamma, step, tol=1e-8,
              max_iter=10000, x0=None):
    """One row of restarted block FISTA in whole-array numpy: the package's
    per-row kernel before rows were batched, with two Gram products per
    iteration (gradient at x, objective at the candidate).

    Returns ``(x, trace, iterations, converged)``; raises RuntimeError where
    ``fista_loop`` reports status -1.
    """
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    sizes = np.diff(offsets)
    tau = gamma * step
    floor = tau if tau > 0.0 else 1.0

    def sq_norms(a):
        return np.add.reduceat(np.einsum("ij,ij->i", a, a), starts)

    def objective(xt, penalty):
        return 0.5 * (ynorm_sq - 2.0 * np.vdot(hmat, xt)
                      + np.vdot(xt, gram @ xt)) + penalty

    xt = np.zeros_like(hmat) if x0 is None else np.array(x0, dtype=float)
    x = xt
    theta = 1.0
    trace = [objective(xt, gamma * np.sum(np.sqrt(sq_norms(xt))))]
    g_prev = trace[0]
    converged, skip_check, pure_step = False, False, True
    for _ in range(max_iter):
        z = x - step * (gram @ x - hmat)
        zn = np.sqrt(sq_norms(z))
        scale = 1.0 - tau / np.maximum(zn, floor)
        xt_new = z * np.repeat(scale, sizes)[:, None]
        g_cand = objective(xt_new, gamma * np.vdot(scale, zn))
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        omega = (theta - 1.0) / theta_new
        restarted = np.vdot(x - xt_new, xt_new - xt) > 0.0
        rejected = (not math.isfinite(g_cand)) or g_cand > g_prev
        if rejected and pure_step:
            if not g_cand - g_prev <= 1e-12 * max(ynorm_sq, abs(g_prev)):
                raise RuntimeError("objective diverged")
            trace.append(g_prev)
            converged = True
            break
        pure_step = rejected
        if rejected:
            x, theta, g = xt, 1.0, g_prev
        elif restarted:
            theta, xt, g = 1.0, xt_new, g_cand
        else:
            theta = theta_new
            x = xt_new + omega * (xt_new - xt)
            xt, g = xt_new, g_cand
        trace.append(g)
        rel = abs(g_prev - g) / max(abs(g_prev), 1e-12)
        g_prev = g
        if rel < tol and not skip_check and not restarted and not rejected:
            converged = True
            break
        skip_check = restarted or rejected
    return xt, np.asarray(trace), len(trace) - 1, converged


def path_rows(design, grids, tol=1e-8, max_iter=10000, warm_starts=None):
    """Row-by-row warm-started paths with ``fista_row``: ``grids[j]`` is row
    j's descending gamma grid.  Point i starts from ``warm_starts[j][i]``
    when given, else from row j's own point i-1 (zeros at i = 0).  Returns
    ``paths[j][i] = (x, iterations, converged)``."""
    step = design.step_size
    paths = []
    for j, grid in enumerate(grids):
        Y = design.responses[j]
        hmat = design.design.T @ Y
        x0, path = None, []
        for i, gamma in enumerate(grid):
            if warm_starts is not None:
                x0 = warm_starts[j][i]
            x, _, iterations, converged = fista_row(
                design.gram, hmat, float(np.sum(Y * Y)), design.offsets,
                float(gamma), step, tol, max_iter, x0)
            path.append((x, iterations, converged))
            x0 = x
        paths.append(path)
    return paths


def fit_result_loop(design, j, gamma, X, iterations, converged):
    """Row j's solution X with its selection summaries, one row at a time:
    the package's per-row summary before a path index's rows were summarized
    together.  Psi_k is D_k^{-1} X_k, block by block.  The effective
    degrees of freedom count each selected block as one plus the shrinkage
    fraction ||V Psi||^2 / (||V Psi||^2 + gamma) of its other q_j q_k - 1
    parameters; the criteria are
    N log(max(RSS, 1e-300)) + kappa df with N = (n - L) q_j and kappa = 2
    (AIC) or log n (BIC)."""
    from fvar.solver import FitResult

    Y = design.responses[j]
    resid = Y - design.design @ X
    rss = float(np.sum(resid * resid))
    vpsi_sq = design.n_eff * np.add.reduceat(np.einsum("ij,ij->i", X, X),
                                             design.offsets[:-1])
    active = vpsi_sq > 0
    sizes = (design.block_sizes() * Y.shape[1]).astype(float)
    with np.errstate(invalid="ignore"):
        shrink = np.where(active, vpsi_sq / (vpsi_sq + gamma), 0.0)
    df = float(active.sum()) + float(np.sum((sizes - 1.0) * shrink))
    n_obs = design.n_eff * Y.shape[1]
    o = design.offsets
    psi = np.concatenate([Dinv @ X[lo:hi] for lo, hi, Dinv in
                          zip(o, o[1:], design.roots_inv)])
    return FitResult(
        j=j, gamma=gamma, psi_stacked=psi,
        offsets=design.offsets, p=design.p, iterations=iterations,
        converged=converged, rss=rss, vpsi_sq=vpsi_sq, df=df,
        aic=n_obs * np.log(max(rss, 1e-300)) + 2.0 * df,
        bic=n_obs * np.log(max(rss, 1e-300)) + np.log(design.n) * df)


def kkt_loop(gram, hmat, X, offsets, gamma):
    """Group-lasso KKT residuals block by block: the worst zero-block excess
    max(0, ||g_k|| - gamma) and the worst active-block norm
    ||g_k + gamma X_k / ||X_k|| ||, with g = gram @ X - hmat."""
    grad = gram @ X - hmat
    zero_excess, active_res = 0.0, 0.0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        gb, xb = grad[lo:hi], X[lo:hi]
        nx = np.linalg.norm(xb)
        if nx == 0.0:
            zero_excess = max(zero_excess, np.linalg.norm(gb) - gamma)
        else:
            active_res = max(active_res, np.linalg.norm(gb + gamma * xb / nx))
    return zero_excess, active_res


def stacked_lags(kernels):
    """(L, sum q, sum q) stack of an estimate's columns: lag h-1 holds
    Psi_jk^(h) in rows offsets[k:k+2] and columns offsets[j:j+2]."""
    return np.hstack(kernels.columns).reshape(kernels.L, kernels.offsets[-1], -1)


def hs_norms_loop(kernels):
    """(L, p, p) Frobenius norms of the blocks Psi_jk^(h), one
    ``np.linalg.norm`` per block."""
    o = kernels.offsets
    blocks = [slice(a, b) for a, b in zip(o, o[1:])]
    return np.array([[[np.linalg.norm(lag[k, j]) for k in blocks]
                      for j in blocks] for lag in stacked_lags(kernels)])


def hs_stacked(kernels):
    """(L, p, p) Frobenius norms of the blocks Psi_jk^(h) from the stacked
    (L, sum q, sum q) lag arrays: the squares summed over each column block
    j, then over each row block k, by two ``reduceat``s."""
    lags, starts = stacked_lags(kernels), kernels.offsets[:-1]
    sq = np.add.reduceat(np.add.reduceat(lags * lags, starts, axis=2), starts,
                         axis=1)
    return np.sqrt(sq).transpose(0, 2, 1)


def fpca_components(delta, grams, q, eta):
    """The first q regularized FPCA components of the coefficient rows
    ``delta`` in whitened-eigenvalue order, from a fresh whitening and
    eigendecomposition.  Returns (mean, zetas, lambdas, scores, truncated)."""
    n, G = delta.shape
    if q < 1 or q > min(G, n):
        raise ValueError("q out of range")
    mean = delta.mean(axis=0)
    dc = delta - mean
    J, Q = grams.J, grams.Q
    U = J @ (dc.T @ dc) @ J / n
    M = J + eta * Q
    w, P = np.linalg.eigh(0.5 * (M + M.T))
    s1 = w ** -0.5
    K = s1[:, None] * (P.T @ U @ P) * s1[None, :]
    evals, evecs = np.linalg.eigh(0.5 * (K + K.T))
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    positive = evals > max(evals.max(), 0.0) * 1e-12
    keep = min(q, int(positive.sum()))
    zetas = np.empty((keep, G))
    lambdas = np.empty(keep)
    scores = np.empty((n, keep))
    for l in range(keep):
        zeta = P @ (s1 * evecs[:, l])
        zeta = zeta / np.sqrt(zeta @ J @ zeta)
        zetas[l] = zeta
        lambdas[l] = max(float(zeta @ U @ zeta), 0.0)
        scores[:, l] = dc @ (J @ zeta)
    return mean, zetas, lambdas, scores, keep < q


def fpca_refit(delta, grams, q, eta):
    """The q-component model refitted from scratch: ``fpca_components``
    re-sorted by score variance, each component signed so that its largest
    coefficient is positive.  Returns (mean, zetas, lambdas, scores,
    truncated) as ``KLModel`` stores them."""
    mean, zetas, lambdas, scores, truncated = fpca_components(delta, grams, q, eta)
    order = np.argsort(-lambdas, kind="stable")
    zetas, lambdas, scores = zetas[order], lambdas[order], scores[:, order]
    for l in range(lambdas.size):
        peak = np.argmax(np.abs(zetas[l]))
        if zetas[l, peak] < 0:
            zetas[l] = -zetas[l]
            scores[:, l] = -scores[:, l]
    return mean, zetas, lambdas, scores, truncated


def cross_validate_refit(delta, curves, B, grams, q_grid, eta_grid, folds, seed):
    """The K-fold CV table of ``fvar.fpca.cross_validate`` with one full
    refit per (q, eta, fold), from the coefficient rows ``delta``, the
    curves, their basis matrix ``B`` and the Gram pair: rows (q, eta, mean
    squared held-out error)."""
    n = curves.shape[0]
    perm = np.random.Generator(np.random.Philox(key=seed)).permutation(n)
    fold_idx = np.array_split(perm, folds)
    table = []
    for q in q_grid:
        for eta in eta_grid:
            total = 0.0
            for test in fold_idx:
                train = np.setdiff1d(np.arange(n), test)
                mean, zetas, *_ = fpca_refit(delta[train], grams, q, eta)
                sc = (delta[test] - mean) @ (grams.J @ zetas.T)
                pred = (mean + sc @ zetas) @ B.T
                total += float(np.sum((curves[test] - pred) ** 2))
            table.append((q, eta, total / (folds * B.shape[0])))
    return table


def stability_loop(C, N, theta_grid_size, subset=None):
    """The stability measure on the full theta grid, one frequency at a time:
    invert A = I - e^{-i theta} C, form 2 pi f = A^{-1} N A^{-H}, restrict it
    and the stationary covariance (from ``lyapunov_series``) to ``subset``,
    whiten and take the top eigenvalue.  Returns (value, argmax_theta), the
    argmax being the first grid point that attains the maximum."""
    C = np.asarray(C, dtype=float)
    N = np.asarray(N, dtype=float)
    d = C.shape[0]
    idx = np.arange(d) if subset is None else np.asarray(list(subset), dtype=int)
    S0 = lyapunov_series(C, N)[np.ix_(idx, idx)]
    w, V = np.linalg.eigh(0.5 * (S0 + S0.T))
    root = (V * w ** -0.5) @ V.T
    best, best_theta = -np.inf, None
    for theta in np.linspace(-np.pi, np.pi, theta_grid_size):
        Ainv = np.linalg.inv(np.eye(d) - C * np.exp(-1j * theta))
        f2pi = (Ainv @ N @ Ainv.conj().T)[np.ix_(idx, idx)]
        mat = root @ f2pi @ root
        lam = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])
        if lam > best:
            best, best_theta = lam, float(theta)
    return best, best_theta


def stability_grid_tops(C, N, theta_grid_size, subset=None):
    """The stability measure's batched evaluation of every point of the
    non-positive half grid, as ``fvar.moments`` made it before it skipped
    points: the same stationary covariance, whitening and per-theta
    arithmetic, so each top eigenvalue is bit-identical to the package's.
    Returns (value, argmax_theta, tops), the argmax being the first grid
    point that attains the maximum."""
    from fvar.moments import (_BATCH_BYTES, _density_forms, sym_inv_sqrt,
                              var1_stationary_cov)
    C = np.asarray(C, dtype=float)
    N = np.asarray(N, dtype=float)
    d = C.shape[0]
    idx = np.arange(d) if subset is None else np.asarray(list(subset), dtype=int)
    S0 = var1_stationary_cov(C, N)
    left = np.zeros((idx.size, d))
    left[:, idx] = sym_inv_sqrt(S0[np.ix_(idx, idx)], "singular")
    thetas = np.linspace(-np.pi, np.pi, theta_grid_size)[: (theta_grid_size + 1) // 2]
    batch = max(1, _BATCH_BYTES // (16 * d * d))
    tops = np.concatenate([
        np.linalg.eigvalsh(_density_forms(C, N, thetas[i: i + batch], left))[:, -1]
        for i in range(0, thetas.size, batch)])
    best = int(np.argmax(tops))
    return float(tops[best]), -abs(float(thetas[best])), tops


def simulate_scores_loop(n, p, lams, ar, rng):
    """The AR(1) score fixture of ``fvar.harness`` one time step at a time:
    x[0] from the stationary law, then x[t] = ar x[t-1] + shock."""
    q0 = lams.size
    if ar == 0.0:
        return rng.standard_normal((n, p, q0)) * np.sqrt(lams)
    x = np.empty((n, p, q0))
    innov_sd = np.sqrt(lams * (1.0 - ar * ar))
    x[0] = rng.standard_normal((p, q0)) * np.sqrt(lams)
    shocks = rng.standard_normal((n - 1, p, q0)) * innov_sd
    for t in range(1, n):
        x[t] = ar * x[t - 1] + shocks[t - 1]
    return x


def replication_errors_loop(xi, lams, alpha):
    """The concentration metrics of ``fvar.harness`` for one (n, p, q0) score
    panel: the largest blockwise Hilbert-Schmidt error of the lag-0
    covariance, the largest relative eigenvalue error, and the largest scaled
    error of the covariance of the sign-aligned rotated scores, recomputed
    from a second pass over the data."""
    n, p, q0 = xi.shape
    flat = xi.reshape(n, p * q0)
    cov = flat.T @ flat / n
    blocks = cov.reshape(p, q0, p, q0).transpose(0, 2, 1, 3)

    truth = np.zeros((p, p, q0, q0))
    truth[np.arange(p), np.arange(p)] = np.diag(lams)
    err_sigma = float(np.sqrt(((blocks - truth) ** 2).sum(axis=(2, 3))).max())

    err_eig = 0.0
    scaled = (np.maximum.outer(np.arange(1, q0 + 1), np.arange(1, q0 + 1))
              ** (alpha + 1.0) * np.sqrt(np.outer(lams, lams)))
    xihat = np.empty_like(xi)
    for j in range(p):
        w, V = np.linalg.eigh(blocks[j, j])
        order = np.argsort(-w)
        w, V = w[order], V[:, order]
        err_eig = max(err_eig, float(np.max(np.abs(w - lams) / lams)))
        signs = np.sign(np.diag(V))
        signs[signs == 0] = 1.0
        xihat[:, j] = xi[:, j] @ (V * signs)

    flat_hat = xihat.reshape(n, p * q0)
    cov_hat = (flat_hat.T @ flat_hat / n).reshape(p, q0, p, q0).transpose(0, 2, 1, 3)
    err_score = float((np.abs(cov_hat - truth) / scaled).max())
    return err_sigma, err_eig, err_score


def relative_error_loop(kernels, truth, grid_size=200):
    """||Ahat - A||_F / ||A||_F in the functional Frobenius norm, with every
    Hilbert-Schmidt norm evaluated by trapezoid quadrature on a common grid."""
    if kernels.L != truth.L:
        raise ConfigError("lag orders of estimate and truth differ")
    a, b = truth.basis.domain
    u = np.linspace(a, b, grid_size)
    w = np.full(grid_size, (b - a) / (grid_size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    S = evaluate_basis(truth.basis, u)
    phis = [m.eigenfunctions(u) for m in kernels.kl_models]
    num = 0.0
    den = 0.0
    for h in range(truth.L):
        for j in range(truth.p):
            for k in range(truth.p):
                true_k = S @ truth.blocks[h, j, k] @ S.T
                est_k = phis[j] @ kernels.psi[h][j][k].T @ phis[k].T
                diff = est_k - true_k
                num += float(w @ (diff * diff) @ w)
                den += float(w @ (true_k * true_k) @ w)
    if den == 0.0:
        raise DataError("reference model has identically zero kernels")
    return float(np.sqrt(num / den))


def fpca_panel_loop(panel, basis, q_grid, eta_grid, folds=5, seed=0):
    """``fvar.fpca.fpca_panel`` one variable at a time: cross-validation
    from ``cross_validate_refit``, the chosen model from ``fpca_refit``, then
    the ``EIGEN_FLOOR`` truncation.  Returns (kl_models, selections)."""
    from fvar.basis import gram_matrices
    from fvar.fpca import EIGEN_FLOOR, KLModel, project_to_basis, truncate_models

    grams = gram_matrices(basis)
    B = evaluate_basis(basis, panel.grid)
    q_grid = [int(q) for q in q_grid]
    eta_grid = [float(e) for e in eta_grid]
    kl_models, selections = [], []
    for j in range(panel.p):
        curves = panel.values[:, j, :]
        delta = project_to_basis(curves, panel.grid, basis)
        if len(q_grid) == 1 and len(eta_grid) == 1:
            q, eta = q_grid[0], eta_grid[0]
        else:
            table = cross_validate_refit(delta, curves, B, grams, q_grid,
                                         eta_grid, folds, seed * 100003 + j)
            q, eta, _ = min(table, key=lambda row: (row[2], row[0], row[1]))
        mean, zetas, lambdas, scores, truncated = fpca_refit(delta, grams, q, eta)
        model = KLModel(basis=basis, mean_coeffs=mean, eigenvalues=lambdas,
                        eigen_coeffs=zetas, scores=scores, smoothing=eta,
                        truncated=truncated)
        if model.q > 1:
            keep = int(np.sum(model.eigenvalues >=
                              EIGEN_FLOOR * model.eigenvalues[0]))
            if keep < model.q:
                model = truncate_models([model], keep)[0]
        kl_models.append(model)
        selections.append((model.q, eta))
    return kl_models, selections


def write_panel_csv_reference(panel, path):
    """CurvePanel.to_csv as one csv.writer row per cell."""
    values = panel.values.tolist()  # Python floats write as exact reprs
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "variable", "grid_index", "value"])
        for t in range(panel.n):
            for j, name in enumerate(panel.ids):
                writer.writerows([t, name, s, v]
                                 for s, v in enumerate(values[t][j]))
