"""Correctness checks, computed with the benchmark's own numpy.

Each check recomputes a result apart from the layer that produced it, or
tests a property the method must have, and returns the measured gap so the
caller can both gate on it and report it.  Nothing here calls the fvar
function whose output it checks.
"""

from __future__ import annotations

import numpy as np

KKT_TOL = 2e-2          # scaled residual; see README for how it was set
CIDR_TOL = 1e-12
STABILITY_TOL = 1e-8
EDGE_WEIGHT_RTOL = 1e-12
QUADRATURE_POINTS = 401  # odd, for Simpson's rule
AUROC_FLOOR = 0.85
SLOPE_RANGE = (-0.6, -0.4)


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ score design

def _sym_roots(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(0.5 * (gram + gram.T))
    return (V * np.sqrt(w)) @ V.T, (V * w ** -0.5) @ V.T


def standardized_design(scores: list, L: int = 1):
    """Responses, standardized lagged design, block offsets and the
    per-block roots D (psi = D^{-1} X), built from the FPC scores."""
    n = scores[0].shape[0]
    n_eff = n - L
    cols, roots = [], []
    for h in range(1, L + 1):
        for s in scores:
            V = s[L - h: n - h]
            D, Dinv = _sym_roots(V.T @ V / n_eff)
            cols.append(V @ Dinv)
            roots.append(D)
    sizes = [c.shape[1] for c in cols]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return [s[L:] for s in scores], np.hstack(cols), offsets, roots


def kkt_worst(scores: list, psi_rows: list, gammas: list, L: int = 1) -> float:
    """Worst KKT residual over rows, scaled by 1 + gamma.

    ``psi_rows[j][h-1][k]`` is row j's (q_k, q_j) block.  For an active
    block the residual is ||g_b + gamma X_b / ||X_b|| ||, for a zero block
    the excess max(0, ||g_b|| - gamma), with g the gradient of the squared
    loss in the standardized coordinates X_b = D_b psi_b.
    """
    Y_all, B, offsets, roots = standardized_design(scores, L)
    p = len(scores)
    worst = 0.0
    for j, (psi, gamma) in enumerate(zip(psi_rows, gammas)):
        X = np.vstack([roots[h * p + k] @ np.asarray(psi[h][k])
                       for h in range(L) for k in range(p)])
        grad = B.T @ (B @ X - Y_all[j])
        for b in range(len(offsets) - 1):
            gb = grad[offsets[b]: offsets[b + 1]]
            xb = X[offsets[b]: offsets[b + 1]]
            nx = np.sqrt(np.sum(xb * xb))
            if nx == 0.0:
                res = max(0.0, np.sqrt(np.sum(gb * gb)) - gamma)
            else:
                r = gb + gamma * xb / nx
                res = np.sqrt(np.sum(r * r))
            worst = max(worst, float(res) / (1.0 + gamma))
    return worst


# ------------------------------------------------------- kernel accuracy

def simpson_weights(a: float, b: float, m: int = QUADRATURE_POINTS) -> tuple:
    """Nodes and composite Simpson weights on [a, b] (m odd)."""
    u = np.linspace(a, b, m)
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return u, w * (u[1] - u[0]) / 3.0


def kernel_relative_error(psi, phis: list, truth_blocks: np.ndarray,
                          truth_basis_values: np.ndarray, weights) -> float:
    """||Ahat - A|| / ||A|| in the functional Frobenius norm.

    Expands ||Ahat - A||^2 = ||Ahat||^2 - 2<Ahat, A> + ||A||^2 through
    quadrature Gram matrices of the eigenfunctions ``phis[j]`` (nodes x
    q_j) and of the truth's basis values (nodes x G), so no kernel is ever
    evaluated on the product grid.
    """
    S = truth_basis_values
    Wphi = [ph.T * weights for ph in phis]
    G_pp = [Wphi[j] @ phis[j] for j in range(len(phis))]
    G_ps = [Wphi[j] @ S for j in range(len(phis))]
    G_ss = (S.T * weights) @ S
    L, p = truth_blocks.shape[:2]
    est_sq = cross = true_sq = 0.0
    for h in range(L):
        for j in range(p):
            for k in range(p):
                M = np.asarray(psi[h][j][k]).T      # (q_j, q_k)
                A = truth_blocks[h, j, k]           # (G, G)
                est_sq += float(np.sum(M * (G_pp[j] @ M @ G_pp[k])))
                cross += float(np.sum(M * (G_ps[j] @ A @ G_ps[k].T)))
                true_sq += float(np.sum(A * (G_ss @ A @ G_ss)))
    return float(np.sqrt(max(est_sq - 2.0 * cross + true_sq, 0.0) / true_sq))


def auroc(supports, truth_support) -> float:
    """Trapezoid area under the ROC points of a path of supports."""
    truth = np.asarray(truth_support, dtype=bool)
    pts = {(0.0, 0.0), (1.0, 1.0)}
    for est in supports:
        est = np.asarray(est, dtype=bool)
        pts.add((float((est & ~truth).sum() / (~truth).sum()),
                 float((est & truth).sum() / truth.sum())))
    arr = np.array(sorted(pts))
    return float(np.sum(np.diff(arr[:, 0]) * (arr[1:, 1] + arr[:-1, 1]) / 2.0))


def psi_support(psi) -> np.ndarray:
    """(p, p) mask of blocks nonzero at some lag."""
    return np.array([[any(np.any(np.asarray(lag[j][k]) != 0) for lag in psi)
                      for k in range(len(psi[0]))] for j in range(len(psi[0]))])


# ----------------------------------------------------------------- network

def check_graph(graph: dict, psi, indegree: int) -> None:
    """Exactly p * indegree edges, each target's top sources by max-over-lag
    Frobenius norm of psi (ties to the smaller index), with that weight."""
    p = len(psi[0])
    weights = np.array([[max(float(np.sqrt(np.sum(np.asarray(lag[j][k]) ** 2)))
                             for lag in psi) for k in range(p)]
                        for j in range(p)])
    edges = graph["edges"]
    require(len(edges) == p * indegree,
            f"graph has {len(edges)} edges, expected {p * indegree}")
    for j in range(p):
        expected = sorted(range(p), key=lambda k: (-weights[j, k], k))[:indegree]
        got = [e for e in edges if e["target"] == j]
        require(sorted(e["source"] for e in got) == sorted(expected),
                f"target {j}: sources {[e['source'] for e in got]}, "
                f"expected {expected}")
        for e in got:
            want = weights[j, e["source"]]
            require(abs(e["weight"] - want) <= EDGE_WEIGHT_RTOL * max(want, 1e-300),
                    f"edge {e['source']}->{j} weight {e['weight']!r}, "
                    f"recomputed {want!r}")


# -------------------------------------------------------------------- CIDR

def expected_cidr(prices: np.ndarray) -> np.ndarray:
    """100 (log P - log P_open), centred per variable over days."""
    logp = np.log(prices)
    curves = 100.0 * (logp - logp[:, :, :1])
    return curves - curves.mean(axis=0, keepdims=True)


# --------------------------------------------------------------- stability

def stability_closed_form(a: np.ndarray, theta_grid_size: int) -> float:
    """max over theta and i of (1 - a_i^2) / (1 - 2 a_i cos theta + a_i^2)."""
    cos = np.cos(np.linspace(-np.pi, np.pi, theta_grid_size))[:, None]
    a = np.asarray(a)[None, :]
    return float(np.max((1.0 - a * a) / (1.0 - 2.0 * a * cos + a * a)))


def stability_2x2(a: float, b: float, sigma: float,
                  theta_grid_size: int) -> tuple[float, float]:
    """(operator norm, stability measure) of C = [[a, b], [0, a]] with noise
    sigma^2 I, vectorised over the theta grid in closed form."""
    s2 = sigma * sigma
    # stationary covariance (upper-triangular Jordan-type C)
    g22 = s2 / (1 - a * a)
    g12 = a * b * g22 / (1 - a * a)
    g11 = (s2 + b * b * g22 + 2 * a * b * g12) / (1 - a * a)
    S0 = np.array([[g11, g12], [g12, g22]])
    w, V = np.linalg.eigh(S0)
    R = (V * w ** -0.5) @ V.T

    theta = np.linspace(-np.pi, np.pi, theta_grid_size)
    z = np.exp(-1j * theta)
    # A = I - C z = [[1 - a z, -b z], [0, 1 - a z]], inverse upper-triangular
    d = 1.0 - a * z
    Ainv = np.zeros((theta.size, 2, 2), dtype=complex)
    Ainv[:, 0, 0] = 1.0 / d
    Ainv[:, 0, 1] = b * z / (d * d)
    Ainv[:, 1, 1] = 1.0 / d
    f2pi = s2 * Ainv @ np.conj(np.swapaxes(Ainv, 1, 2))   # 2 pi f(theta)
    M = R @ f2pi @ R
    tr = (M[:, 0, 0] + M[:, 1, 1]).real
    det = (M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]).real
    lam = tr / 2 + np.sqrt(np.maximum(tr * tr / 4 - det, 0.0))

    CtC = np.array([[a * a, a * b], [a * b, b * b + a * a]])
    tr_c, det_c = np.trace(CtC), np.linalg.det(CtC)
    op = np.sqrt(tr_c / 2 + np.sqrt(max(tr_c * tr_c / 4 - det_c, 0.0)))
    return float(op), float(lam.max())
