"""Regularized functional PCA per variable and cross-validated tuning.

The fit maximizes the penalized sample variance of the basis-expanded
curves: with J the basis Gram matrix, Q the curvature penalty and
U = J delta^T delta J / n the coefficient covariance in the J-metric, the
problem is solved by whitening with J + eta Q, an ordinary symmetric
eigendecomposition, and a back-transform, so that each component phi_l
satisfies ||phi_l|| = 1 and <phi_l, phi_m> + eta <phi_l'', phi_m''> = 0
for l != m.

Cross-validation whitens once per eta and decomposes once per (fold, eta)
for all q.  The q-component model takes the first q components in
whitened-eigenvalue order, re-sorted by score variance; at eta > 0 they are
not always the q of largest score variance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, GramPair, evaluate_basis, gram_matrices
from .errors import ConfigError, NumericalError

_RANK_TOL = 1e-12


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
            basis=BasisSpec(kind=obj["basis"]["kind"],
                            dimension=int(obj["basis"]["dimension"]),
                            domain=tuple(obj["basis"]["domain"])),
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


def project_to_basis(curves: np.ndarray, grid: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Penalty-free least-squares basis coefficients, one row per curve."""
    B = evaluate_basis(basis, grid)
    coeffs, *_ = np.linalg.lstsq(B, np.asarray(curves, dtype=float).T, rcond=None)
    return coeffs.T


def _whiten(grams: GramPair, eta: float):
    """(P, s) with P^T (J + eta Q) P = diag(s)^-2; it depends only on the
    basis and eta."""
    if eta < 0:
        raise ConfigError("smoothing parameter must be nonnegative")
    M = grams.J + eta * grams.Q
    w, P = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() <= _RANK_TOL * max(w.max(), 1.0):
        raise NumericalError("J + eta*Q is numerically rank deficient")
    return P, w ** -0.5


def _decompose(delta: np.ndarray, basis: BasisSpec, grams: GramPair,
               whitening, eta: float, q_grid):
    """One eigendecomposition of the whitened covariance of the rows of
    ``delta``, returned as model(q) for every q of ``q_grid``: the first q
    components in whitened-eigenvalue order, re-sorted to nonincreasing
    score variance, each signed so that its largest coefficient is positive."""
    n, G = delta.shape
    if min(q_grid) < 1 or max(q_grid) > min(G, n):
        raise ConfigError(f"q must be in [1, min(G, n)] = [1, {min(G, n)}]")

    mean_coeffs = delta.mean(axis=0)
    dc = delta - mean_coeffs
    J = grams.J
    U = J @ (dc.T @ dc) @ J / n

    P, s1 = whitening
    K = s1[:, None] * (P.T @ U @ P) * s1[None, :]
    evals, evecs = np.linalg.eigh(0.5 * (K + K.T))
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > max(evals.max(), 0.0) * 1e-12))
    keep = min(max(q_grid), rank)

    zetas = np.empty((keep, G))
    lambdas = np.empty(keep)
    scores = np.empty((n, keep))
    for l in range(keep):
        zeta = P @ (s1 * evecs[:, l])
        zeta = zeta / np.sqrt(zeta @ J @ zeta)
        lam = float(zeta @ U @ zeta)
        if lam < -1e-12:
            raise NumericalError("negative component variance")
        zetas[l] = zeta
        lambdas[l] = max(lam, 0.0)
        scores[:, l] = dc @ (J @ zeta)

    def model(q: int) -> KLModel:
        keep = min(q, rank)
        order = np.argsort(-lambdas[:keep], kind="stable")
        z = zetas[order]
        sign = np.where(z[np.arange(keep), np.abs(z).argmax(axis=1)] < 0, -1.0, 1.0)
        return KLModel(basis=basis, mean_coeffs=mean_coeffs,
                       eigenvalues=lambdas[order], eigen_coeffs=z * sign[:, None],
                       scores=scores[:, order] * sign, smoothing=float(eta),
                       truncated=keep < q)
    return model


def fit_regularized_fpca(curves: np.ndarray, grid: np.ndarray, basis: BasisSpec,
                         q: int, eta: float = 0.0) -> KLModel:
    """Fit the penalized FPCA pipeline to an (n, T) matrix of curves."""
    grams = gram_matrices(basis)
    delta = project_to_basis(curves, grid, basis)
    return _decompose(delta, basis, grams, _whiten(grams, eta), eta, [q])(q)


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
    curves = np.asarray(curves, dtype=float)
    n = curves.shape[0]
    q_grid = [int(q) for q in q_grid]
    eta_grid = [float(e) for e in eta_grid]
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    if not q_grid or not eta_grid:
        raise ConfigError("empty tuning grid")

    rng = np.random.Generator(np.random.Philox(key=seed))
    perm = rng.permutation(n)
    fold_idx = np.array_split(perm, folds)
    if min(len(f) for f in fold_idx) < 2:
        raise ConfigError("a fold has fewer than 2 samples; reduce folds")

    grams = gram_matrices(basis)
    B = evaluate_basis(basis, grid)
    delta = project_to_basis(curves, grid, basis)
    trains = [np.setdiff1d(np.arange(n), test) for test in fold_idx]
    models = []  # one decomposition per (eta, fold), read for every q
    for eta in eta_grid:
        whitening = _whiten(grams, eta)
        models.append([_decompose(delta[train], basis, grams, whitening, eta, q_grid)
                       for train in trains])

    table = []
    for q in q_grid:
        for eta, per_fold in zip(eta_grid, models):
            total = 0.0
            for model_of, test in zip(per_fold, fold_idx):
                model = model_of(q)
                sc = (delta[test] - model.mean_coeffs) @ (grams.J @ model.eigen_coeffs.T)
                pred = (model.mean_coeffs + sc @ model.eigen_coeffs) @ B.T
                total += float(np.sum((curves[test] - pred) ** 2))
            table.append((q, eta, total / (folds * grid.size)))

    best = min(table, key=lambda row: (row[2], row[0], row[1]))
    return CVResult(q=best[0], eta=best[1], table=table)
