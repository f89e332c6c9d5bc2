"""Hot numeric kernels: restart-based block FISTA and lagged VAR recursion.

Both are written once in numpy.  The FISTA kernel works on whole arrays per
iteration: block norms through ``np.add.reduceat`` over the block offsets,
the blockwise shrink factors spread back to rows with ``np.repeat``, so its
per-iteration cost is a few matrix products plus a fixed number of numpy
calls, independent of the number of blocks.  ``fvar.accel_backend()`` names
the implementation; ``benchmarks/run.py`` records it next to its timings.
"""

from __future__ import annotations

import math

import numpy as np

# Status codes returned by the FISTA kernel.
FISTA_CONVERGED = 1
FISTA_MAX_ITER = 0
FISTA_DIVERGED = -1


def block_sq_norms(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row block of the 2-d array ``a``;
    block k starts at row ``starts[k]`` and ends where the next one starts.
    Every block must be nonempty: ``reduceat`` reads an empty one as the
    single row at its start."""
    return np.add.reduceat(np.einsum("ij,ij->i", a, a), starts)


def fista_solve(gram, hmat, ynorm_sq, offsets, gamma, step, tol, max_iter, x0):
    """Minimize 0.5*||Y - B X||_F^2 + gamma * sum_k ||X_k||_F blockwise.

    Works on the Gram form: ``gram = B.T @ B``, ``hmat = B.T @ Y`` and
    ``ynorm_sq = ||Y||_F^2``, so the data matrix itself is never touched
    inside the iteration.  ``offsets`` delimits the row blocks of X, each
    of at least one row.

    Per iteration: gradient step from the extrapolated point, blockwise
    group soft-threshold with threshold gamma*step, momentum update
    theta -> (1 + sqrt(1 + 4 theta^2))/2, extrapolation, and a restart
    whenever trace{(X - Xt_new)^T (Xt_new - Xt)} > 0, in which case the
    accumulated momentum is dropped (X kept at the previous iterate,
    theta reset to 1).

    Returns ``(x, trace, n_trace, status)`` where ``trace[:n_trace]`` holds
    the objective evaluated at each proximal point (entry 0 is the
    objective at ``x0``) and ``status`` is one of the FISTA_* codes.
    """
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
    xt = x0.copy()         # proximal point  Xt^{(m)}
    x = xt                 # extrapolated iterate X^{(m)}
    theta = 1.0

    trace = np.empty(max_iter + 1)
    g_prev = objective(xt, gamma * np.sum(np.sqrt(block_sq_norms(xt, starts))))
    trace[0] = g_prev
    n_trace = 1
    status = FISTA_MAX_ITER
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
            # when the stepsize exceeds the inverse Lipschitz bound
            trace[n_trace] = g_cand
            n_trace += 1
            status = FISTA_DIVERGED
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
            status = FISTA_CONVERGED
            break
        skip_check = restarted or rejected

    return xt, trace, n_trace, status


def var_lag_path(coefs, innov):
    """Iterate x_t = sum_h coefs[h-1] @ x_{t-h} + innov[t] from zero history.

    ``coefs`` has shape (L, d, d) and ``innov`` (nsteps, d); returns the
    (nsteps, d) path.
    """
    nsteps, d = innov.shape
    nlags = coefs.shape[0]
    out = np.zeros((nsteps, d))
    for t in range(nsteps):
        acc = innov[t].copy()
        for h in range(1, nlags + 1):
            if t - h >= 0:
                acc = acc + np.dot(coefs[h - 1], out[t - h])
        out[t] = acc
    return out


def accel_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
