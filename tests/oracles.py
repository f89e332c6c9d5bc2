"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against the mathematical definitions
rather than the package internals: de Boor recursion for B-splines, dense-grid
quadrature for Gram matrices, cyclic blockwise proximal coordinate descent for
the group lasso, and a trace-based characteristic polynomial for spectral
radii.
"""

import numpy as np


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
