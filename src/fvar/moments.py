"""Autocovariance estimators, score covariances and the stability measure.

The stability measure of a stationary process with a known finite-dimensional
VAR(1) representation x_t = C x_{t-1} + e_t is the supremum over frequencies
of the largest eigenvalue of 2 pi S0^{-1/2} f(theta) S0^{-1/2}, where S0
solves the discrete Lyapunov equation S0 = C S0 C^T + noise_cov and f is the
spectral density matrix.  It equals 1 for temporally independent processes
and grows with the strength of the dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .errors import ConfigError, NonstationaryError, NumericalError


@dataclass
class AutocovEstimate:
    """Lag-h autocovariance in basis coordinates.

    ``blocks[j, k]`` is the G x G matrix C_jk with kernel
    Sigma_jk(u, v) = b(u)^T C_jk b(v).
    """

    h: int
    blocks: np.ndarray  # (p, p, G, G)
    basis: BasisSpec

    def stacked(self) -> np.ndarray:
        """The pG x pG block matrix."""
        p, _, G, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(p * G, p * G)

    def hs_norms(self) -> np.ndarray:
        """(p, p) Hilbert-Schmidt norms, exact for an orthonormal basis."""
        return np.sqrt(np.einsum("jkab,jkab->jk", self.blocks, self.blocks))


@dataclass
class ScoreCov:
    """Lag-h covariances sigma_jklm between FPC scores.

    ``blocks[j][k]`` is the (q_j, q_k) matrix with (l, m) entry
    (n-h)^{-1} sum_t xi_{t,j,l} xi_{t+h,k,m}.
    """

    h: int
    blocks: list

    def get(self, j: int, k: int, l: int, m: int) -> float:
        return float(self.blocks[j][k][l, m])


@dataclass
class StabilityReport:
    value: float
    argmax_theta: float
    theta_grid_size: int
    lambda0: float


def autocov_empirical(coeff_panel: np.ndarray, h: int,
                      basis: BasisSpec) -> AutocovEstimate:
    """Empirical lag-h autocovariance (n-h)^{-1} sum_t X_t(u) X_{t+h}(v)^T.

    ``coeff_panel`` holds centered basis coefficients with shape (n, p, G).
    """
    panel = np.asarray(coeff_panel, dtype=float)
    n = panel.shape[0]
    if h < 0 or h >= n:
        raise ConfigError(f"lag {h} needs more than {h} observations")
    head = panel[: n - h]
    tail = panel[h:]
    blocks = np.einsum("tja,tkb->jkab", head, tail) / (n - h)
    return AutocovEstimate(h=h, blocks=blocks, basis=basis)


def score_autocov(scores, h: int) -> ScoreCov:
    """Lag-h covariances of per-variable score matrices.

    ``scores`` is a sequence of (n, q_j) arrays sharing n.
    """
    mats = [np.asarray(s, dtype=float) for s in scores]
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ConfigError("score matrices must share the sample size")
    if h < 0 or h >= n:
        raise ConfigError(f"lag {h} needs more than {h} observations")
    blocks = [[mats[j][: n - h].T @ mats[k][h:] / (n - h) for k in range(len(mats))]
              for j in range(len(mats))]
    return ScoreCov(h=h, blocks=blocks)


def spectral_radius_matrix(mat: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(mat, dtype=float)))))


def var1_stationary_cov(C: np.ndarray, noise_cov: np.ndarray,
                        tol: float = 1e-12, max_doublings: int = 200) -> np.ndarray:
    """Stationary covariance of x_t = C x_{t-1} + e_t by doubling iteration.

    Solves S = C S C^T + noise_cov, i.e. S = sum_{h>=0} C^h N (C^h)^T, by
    repeated squaring: S <- S + A S A^T with A <- A A.
    """
    C = np.asarray(C, dtype=float)
    N = np.asarray(noise_cov, dtype=float)
    if spectral_radius_matrix(C) >= 1.0:
        raise NonstationaryError("spectral radius >= 1; no stationary solution")
    S = N.copy()
    A = C.copy()
    for _ in range(max_doublings):
        update = A @ S @ A.T
        S_new = S + update
        A = A @ A
        if np.linalg.norm(update, "fro") <= tol * max(np.linalg.norm(S_new, "fro"), 1e-300):
            return 0.5 * (S_new + S_new.T)
        S = S_new
    raise NumericalError("Lyapunov doubling iteration did not converge")


def var1_spectral_density(C: np.ndarray, noise_cov: np.ndarray,
                          theta: float) -> np.ndarray:
    """Spectral density matrix of the VAR(1) process at frequency theta.

    Uses the closed geometric form f = (2 pi)^{-1} A^{-1} N A^{-H} with
    A = I - C e^{-i theta}, equal to the two-sided autocovariance series.
    """
    C = np.asarray(C, dtype=float)
    if spectral_radius_matrix(C) >= 1.0:
        raise NonstationaryError("spectral radius >= 1; no stationary solution")
    return _spectral_density(C, np.asarray(noise_cov, dtype=float), theta)


def _spectral_density(C: np.ndarray, N: np.ndarray, theta: float) -> np.ndarray:
    """The density formula of ``var1_spectral_density`` on float arrays,
    without its stationarity check."""
    A = np.eye(C.shape[0]) - C * np.exp(-1j * theta)
    Ainv = np.linalg.inv(A)
    f = Ainv @ N @ Ainv.conj().T / (2.0 * np.pi)
    return 0.5 * (f + f.conj().T)


def _sym_inv_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if w.min() <= 1e-12 * max(w.max(), 1.0):
        raise NumericalError("covariance matrix is numerically singular")
    return (V * w ** -0.5) @ V.T


def stability_measure_var1(C: np.ndarray, noise_cov: np.ndarray,
                           theta_grid_size: int = 1024,
                           subset=None) -> StabilityReport:
    """Grid maximum of the normalized spectral Rayleigh quotient.

    When ``subset`` is given the process is restricted to those coordinates
    (the stability measure of the subprocess); the restriction applies to the
    spectral density and the stationary covariance alike.  Stationarity is
    checked once, by the stationary covariance.
    """
    if theta_grid_size < 64:
        raise ConfigError("theta grid size must be at least 64")
    C = np.asarray(C, dtype=float)
    N = np.asarray(noise_cov, dtype=float)
    S0 = var1_stationary_cov(C, N)
    idx = np.arange(C.shape[0]) if subset is None else np.asarray(list(subset), dtype=int)
    root = _sym_inv_sqrt(S0[np.ix_(idx, idx)])

    thetas = np.linspace(-np.pi, np.pi, theta_grid_size)
    best = -np.inf
    best_theta = thetas[0]
    for theta in thetas:
        f = _spectral_density(C, N, theta)[np.ix_(idx, idx)]
        mat = 2.0 * np.pi * root @ f @ root
        lam = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])
        if lam > best:
            best = lam
            best_theta = float(theta)
    lambda0 = float(np.max(np.diag(S0)[idx]))
    return StabilityReport(value=best, argmax_theta=best_theta,
                           theta_grid_size=theta_grid_size, lambda0=lambda0)


def operator_norm_var1_kernel(C: np.ndarray) -> float:
    """Operator norm of the kernel psi(u)^T C psi(v) with orthonormal psi,
    i.e. the largest singular value of C."""
    return float(np.linalg.norm(np.asarray(C, dtype=float), 2))


def stability_sweep(a_values, b_values, sigma: float = 1.0,
                    theta_grid_size: int = 1024):
    """Operator norm and stability measure over the two-parameter family
    C = [[a, b], [0, a]] with isotropic noise; returns rows
    (a, b, operator_norm, stability)."""
    rows = []
    noise = sigma ** 2 * np.eye(2)
    for a in a_values:
        for b in b_values:
            C = np.array([[a, b], [0.0, a]])
            norm = operator_norm_var1_kernel(C)
            rep = stability_measure_var1(C, noise, theta_grid_size)
            rows.append((float(a), float(b), norm, rep.value))
    return rows
