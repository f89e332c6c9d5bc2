"""Regularized functional PCA and cross-validated tuning, for a whole panel.

The fit maximizes the penalized sample variance of the basis-expanded
curves: with J the basis Gram matrix, Q the curvature penalty and
U = J delta^T delta J / n the coefficient covariance in the J-metric, the
problem is solved by whitening with J + eta Q (Silverman 1996), an ordinary
symmetric eigendecomposition, and a back-transform, so that each component
phi_l satisfies ||phi_l|| = 1 and <phi_l, phi_m> + eta <phi_l'', phi_m''> = 0
for l != m.  The q-component model takes the first q components in
whitened-eigenvalue order, re-sorted by score variance; at eta > 0 they are
not always the q of largest score variance.

All variables share J, Q and so the whitening for each eta, and a CV fold
has the same size for every variable, so stage 1 stacks the variables on a
leading axis: one whitening per eta, one ``eigh`` per (fold, eta) and one
per chosen eta for the full-sample models.  ``cross_validate`` and
``fit_regularized_fpca`` are the case p = 1.  A slice of a stacked
``matmul`` or ``eigh`` is bit-identical to the one-variable call when it
keeps that call's memory layout, and per-component vectors stay
matrix-vector products, ``(P @ X[..., None])[..., 0]``: ``P @ X`` would be
a GEMM that rounds differently.  The curves go to basis coefficients by
one least-squares projector per basis, R^-1 Q^T from one QR of the basis
matrix, applied to the whole stack by one ``matmul``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSpec, GramPair, evaluate_basis, gram_matrices
from .errors import ConfigError, DataError, NumericalError
from .moments import positive_eigh

EIGEN_FLOOR = 1e-2


@dataclass
class KLModel:
    """Truncated Karhunen-Loeve representation of one variable.

    phi_l(u) = eigen_coeffs[l] @ b(u), with eigenvalues the sample score
    variances in nonincreasing order and ``scores[t, l]`` the projection of
    the centered curve t onto phi_l.
    """

    basis: BasisSpec
    mean_coeffs: np.ndarray
    eigenvalues: np.ndarray
    eigen_coeffs: np.ndarray
    scores: np.ndarray
    smoothing: float = 0.0
    truncated: bool = False

    @property
    def q(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])

    def eigenfunctions(self, points) -> np.ndarray:
        """Matrix (len(points), q) of eigenfunction values."""
        return evaluate_basis(self.basis, points) @ self.eigen_coeffs.T

    def mean_curve(self, points) -> np.ndarray:
        return evaluate_basis(self.basis, points) @ self.mean_coeffs

    def to_dict(self) -> dict:
        return {
            "basis": json.loads(self.basis.to_json()),
            "mean_coeffs": self.mean_coeffs.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "eigen_coeffs": self.eigen_coeffs.tolist(),
            "scores": self.scores.tolist(),
            "smoothing": self.smoothing,
            "truncated": self.truncated,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KLModel":
        return cls(
            basis=BasisSpec.from_dict(obj["basis"]),
            mean_coeffs=np.asarray(obj["mean_coeffs"], dtype=float),
            eigenvalues=np.asarray(obj["eigenvalues"], dtype=float),
            eigen_coeffs=np.asarray(obj["eigen_coeffs"], dtype=float),
            scores=np.asarray(obj["scores"], dtype=float),
            smoothing=float(obj["smoothing"]),
            truncated=bool(obj["truncated"]),
        )


@dataclass
class CVResult:
    q: int
    eta: float
    table: list = field(default_factory=list)  # rows (q, eta, cv)


@dataclass
class PanelFPCA:
    kl_models: list

    @property
    def selections(self) -> list:  # per variable (q, eta)
        return [(m.q, m.smoothing) for m in self.kl_models]


def project_to_basis(curves: np.ndarray, grid: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Penalty-free least-squares basis coefficients, one row per curve:
    (n, T) curves give (n, G), a (p, n, T) stack gives (p, n, G).  A basis
    without full column rank on the grid is a ConfigError.

    R is exactly upper triangular, so the LU in ``solve`` pivots nowhere
    and the solve is the triangular one, bit for bit.  The projector is
    made C-ordered: ``matmul`` with a transposed operand rounds differently."""
    B = evaluate_basis(basis, grid)
    if np.linalg.matrix_rank(B) < B.shape[1]:
        raise ConfigError(f"{basis.kind} basis of dimension {basis.dimension} "
                          f"is rank deficient on the {len(grid)}-point grid")
    Q, R = np.linalg.qr(B)
    return np.asarray(curves, dtype=float) @ np.ascontiguousarray(
        np.linalg.solve(R, Q.T).T)


def _whiten(grams: GramPair, eta: float):
    """(P, s) with P^T (J + eta Q) P = diag(s)^-2; it depends only on the
    basis and eta."""
    if not 0 <= eta < np.inf:
        raise ConfigError("smoothing parameter must be finite and "
                          f"nonnegative; got {float(eta)!r}")
    w, P = positive_eigh(grams.J + eta * grams.Q,
                         "J + eta*Q is numerically rank deficient")
    return P, w ** -0.5


def _check_q(q_grid, G: int, n: int) -> None:
    if min(q_grid) < 1 or max(q_grid) > min(G, n):
        raise ConfigError(f"q must be in [1, min(G, n)] = [1, {min(G, n)}]")


def _quad(z: np.ndarray, M: np.ndarray) -> np.ndarray:
    """z^T M z for every stacked vector z, as matrix-vector products."""
    return ((z[..., None, :] @ M) @ z[..., None])[..., 0, 0]


def _decompose(dc: np.ndarray, J: np.ndarray, whitening, q: np.ndarray):
    """One stacked eigendecomposition for the centered coefficient rows
    dc (p, m, G).

    Returns the first max(q) components of each variable in
    whitened-eigenvalue order, their score variances and the rank.
    Variable j's first min(q[j], rank[j]) variances must not be negative.
    """
    U = J @ (np.swapaxes(dc, 1, 2) @ dc) @ J / dc.shape[1]
    P, s1 = whitening
    K = s1[:, None] * (P.T @ U @ P) * s1[None, :]
    evals, evecs = np.linalg.eigh(0.5 * (K + np.swapaxes(K, 1, 2)))
    order = np.argsort(-evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    rank = np.sum(evals > np.maximum(evals.max(axis=1), 0.0)[:, None] * 1e-12,
                  axis=1)
    k = int(q.max())
    X = s1 * np.take_along_axis(np.swapaxes(evecs, 1, 2), order[:, :k, None], axis=1)
    zetas = (P @ X[..., None])[..., 0]
    zetas = zetas / np.sqrt(_quad(zetas, J))[..., None]
    lambdas = _quad(zetas, U[:, None])
    if np.any((lambdas < -1e-12) & (np.arange(k) < np.minimum(q, rank)[:, None])):
        raise NumericalError("negative component variance")
    return zetas, np.where(lambdas < 0.0, 0.0, lambdas), rank


def _leading(zetas: np.ndarray, lambdas: np.ndarray, k: int):
    """The k-component models of a stack: the first k components re-sorted
    to nonincreasing score variance, each signed so that its largest
    coefficient is positive.  Returns (eigen_coeffs, eigenvalues, order,
    sign)."""
    order = np.argsort(-lambdas[:, :k], axis=1, kind="stable")
    z = np.take_along_axis(zetas[:, :k], order[..., None], axis=1)
    peak = np.take_along_axis(z, np.abs(z).argmax(axis=2)[..., None], axis=2)
    sign = np.where(peak[..., 0] < 0, -1.0, 1.0)
    return z * sign[..., None], np.take_along_axis(lambdas, order, axis=1), order, sign


def _groups(keep: np.ndarray):
    """(k, index of the variables that keep k) for each positive k in
    ``keep``; the index is a full slice when that is every variable."""
    return [(int(k), slice(None) if (keep == k).all() else keep == k)
            for k in np.unique(keep[keep > 0])]


def _cv_errors(D, curves, B, J, whitenings, q_grid, folds, seeds) -> np.ndarray:
    """(len(q_grid), len(whitenings), p) K-fold held-out errors, total
    squared error / (folds * grid length); variable j draws its folds from
    Philox keyed with ``seeds[j]``."""
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    if not q_grid or not whitenings:
        raise ConfigError("empty tuning grid")
    n = D.shape[1]
    perms = np.stack([np.random.Generator(np.random.Philox(key=s)).permutation(n)
                      for s in seeds])
    tests = np.array_split(perms, folds, axis=1)
    if tests[-1].shape[1] < 2:
        raise ConfigError("a fold has fewer than 2 samples; reduce folds")
    _check_q(q_grid, D.shape[2], n - tests[0].shape[1])
    total = np.zeros((len(q_grid), len(whitenings), len(D)))
    for test in tests:
        total += _fold_errors(D, curves, B, J, whitenings, q_grid, test)
    return total / (folds * B.shape[0])


def _fold_errors(D, curves, B, J, whitenings, q_grid, test) -> np.ndarray:
    """Squared held-out errors of one fold; variable j holds out its rows
    ``test[j]``."""
    p, n, _ = D.shape
    rows = np.arange(p)[:, None]
    train = np.ones((p, n), dtype=bool)
    np.put_along_axis(train, test, False, axis=1)
    dc = D[rows, np.nonzero(train)[1].reshape(p, -1)]
    mean = dc.mean(axis=1)
    dc -= mean[:, None]
    fits = [_decompose(dc, J, w, np.full(p, max(q_grid))) for w in whitenings]
    del dc  # free it before the held-out stacks, which are as large
    D_test, C_test = D[rows, test], curves[rows, test]
    errors = np.empty((len(q_grid), len(whitenings), p))
    for e, (zetas, lambdas, rank) in enumerate(fits):
        for a, q in enumerate(q_grid):
            for k, g in _groups(np.minimum(q, rank)):
                E = _leading(zetas[g], lambdas[g], k)[0]
                m = mean[g][:, None]
                sc = (D_test[g] - m) @ (J @ np.swapaxes(E, 1, 2))
                errors[a, e, g] = _sq_errors((m + sc @ E) @ B.T, C_test[g])
    return errors


def _sq_errors(pred: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Sum over the last two axes of (pred - obs)^2, formed in ``pred``;
    the square of pred - obs is that of obs - pred to the bit."""
    pred -= obs
    return np.sum(np.square(pred, out=pred), axis=(1, 2))


def _cv_result(errors: np.ndarray, q_grid, eta_grid) -> CVResult:
    """One variable's CV table; ties prefer smaller q, then smaller eta."""
    table = [(q, eta, float(errors[a, e])) for a, q in enumerate(q_grid)
             for e, eta in enumerate(eta_grid)]
    best = min(table, key=lambda row: (row[2], row[0], row[1]))
    return CVResult(q=best[0], eta=best[1], table=table)


def _fit_models(D, basis, J, whitenings, eta_grid, q, e) -> list:
    """Full-sample models, variable j with q[j] components at
    eta_grid[e[j]]: one decomposition of every variable per chosen eta.
    Centers the coefficient rows D in place."""
    _check_q(q, D.shape[2], D.shape[1])
    models = [None] * len(D)
    mean = D.mean(axis=1)
    dc = np.subtract(D, mean[:, None], out=D)
    for ei in np.unique(e):
        chosen = np.where(e == ei, q, 0)
        zetas, lambdas, rank = _decompose(dc, J, whitenings[ei], chosen)
        scores = (dc[:, None] @ (J @ zetas[..., None]))[..., 0]
        for k, g in _groups(np.minimum(chosen, rank)):
            E, lams, order, sign = _leading(zetas[g], lambdas[g], k)
            S = np.take_along_axis(scores[g][:, :k], order[..., None], axis=1)
            S = np.swapaxes(S, 1, 2) * sign[:, None, :]
            for i, j in enumerate(np.arange(len(D))[g]):
                models[j] = KLModel(basis, mean[j], lams[i], E[i], S[i],
                                    smoothing=float(eta_grid[ei]),
                                    truncated=bool(k < q[j]))
    return models


def fit_regularized_fpca(curves: np.ndarray, grid: np.ndarray, basis: BasisSpec,
                         q: int, eta: float = 0.0) -> KLModel:
    """Fit the penalized FPCA pipeline to an (n, T) matrix of curves."""
    grams = gram_matrices(basis)
    D = project_to_basis(np.asarray(curves, dtype=float)[None], grid, basis)
    return _fit_models(D, basis, grams.J, [_whiten(grams, eta)], [eta],
                       np.array([q]), np.array([0]))[0]


def reconstruct(model: KLModel, t: int, points) -> np.ndarray:
    """mu(u) + sum_l score[t, l] phi_l(u) at the given points."""
    if not 0 <= t < model.n:
        raise ConfigError("sample index out of range")
    coeffs = model.mean_coeffs + model.scores[t] @ model.eigen_coeffs
    return evaluate_basis(model.basis, points) @ coeffs


def cross_validate(curves: np.ndarray, grid: np.ndarray, basis: BasisSpec,
                   q_grid, eta_grid, folds: int = 5, seed: int = 0) -> CVResult:
    """K-fold curve-reconstruction CV over the (q, eta) grid.

    Folds are drawn uniformly at random; the held-out error compares raw
    observed values against mean-plus-truncated-expansion predictions and is
    averaged as total squared error / (folds * grid length).  Ties prefer
    smaller q, then smaller eta.
    """
    curves = np.asarray(curves, dtype=float)[None]
    q_grid = [int(q) for q in q_grid]
    eta_grid = [float(e) for e in eta_grid]
    grams = gram_matrices(basis)
    errors = _cv_errors(project_to_basis(curves, grid, basis), curves,
                        evaluate_basis(basis, grid), grams.J,
                        [_whiten(grams, eta) for eta in eta_grid],
                        q_grid, folds, [seed])
    return _cv_result(errors[..., 0], q_grid, eta_grid)


def fpca_panel(panel, basis: BasisSpec, q_grid, eta_grid,
               folds: int = 5, seed: int = 0, threads: int = 1) -> PanelFPCA:
    """Fit regularized FPCA to every variable of a ``CurvePanel``,
    cross-validating (q, eta) whenever the grids leave a choice; variable j
    draws its folds with seed ``seed * 100003 + j``.

    Components whose eigenvalue falls below ``EIGEN_FLOOR`` times the leading
    one are dropped: the downstream regression standardizes each score block,
    which amplifies a direction by 1 / sqrt(lambda_l / lambda_1), so keeping
    near-degenerate components injects unbounded noise into the recovered
    kernels.

    A variable whose curves are the same at every time point has no
    variance to decompose and is a ``DataError``.  ``threads`` is not
    read.
    """
    constant = np.ptp(panel.values, axis=0).max(axis=1) == 0
    if constant.any():
        j = int(np.argmax(constant))
        raise DataError(f"variable {j} ({panel.ids[j]}) has zero variance: "
                        f"its curves are the same at every time point")
    q_grid = [int(q) for q in q_grid]
    eta_grid = [float(e) for e in eta_grid]
    grams = gram_matrices(basis)
    curves = np.swapaxes(panel.values, 0, 1)
    D = project_to_basis(curves, panel.grid, basis)
    whitenings = [_whiten(grams, eta) for eta in eta_grid]
    if len(q_grid) == 1 and len(eta_grid) == 1:
        q, e = np.full(panel.p, q_grid[0]), np.zeros(panel.p, dtype=int)
    else:
        errors = _cv_errors(D, curves, evaluate_basis(basis, panel.grid), grams.J,
                            whitenings, q_grid, folds,
                            [seed * 100003 + j for j in range(panel.p)])
        cvs = [_cv_result(errors[..., j], q_grid, eta_grid) for j in range(panel.p)]
        q = np.array([cv.q for cv in cvs])
        e = np.array([eta_grid.index(cv.eta) for cv in cvs])

    models = []
    for m in _fit_models(D, basis, grams.J, whitenings, eta_grid, q, e):
        keep = int(np.sum(m.eigenvalues >= EIGEN_FLOOR * m.eigenvalues[0]))
        models.extend(truncate_models([m], keep) if keep < m.q else [m])
    return PanelFPCA(kl_models=models)


def truncate_models(kl_models, q: int) -> list:
    """Keep only the leading q components of each variable."""
    return [replace(m, eigenvalues=m.eigenvalues[:q], eigen_coeffs=m.eigen_coeffs[:q],
                    scores=m.scores[:, :q]) for m in kl_models]
