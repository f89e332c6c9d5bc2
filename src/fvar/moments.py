"""Autocovariance estimators, score covariances and the stability measure.

The stability measure of a stationary process with a known finite-dimensional
VAR(1) representation x_t = C x_{t-1} + e_t is the supremum over frequencies
of the largest eigenvalue of 2 pi S0^{-1/2} f(theta) S0^{-1/2}, where S0
solves the discrete Lyapunov equation S0 = C S0 C^T + noise_cov and f is the
spectral density matrix.  It equals 1 for temporally independent processes
and grows with the strength of the dependence.

The measure is evaluated on the non-positive half of the theta grid.  With C
and noise_cov real, f(-theta) is the complex conjugate of f(theta), and the
two have the same eigenvalues, so the other half adds nothing.  Each
frequency costs one linear solve with A(theta) = I - e^{-i theta} C and no
inverse, and the frequencies are batched so that no (batch, d, d) complex
array exceeds ``_BATCH_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .errors import ConfigError, DataError, NonstationaryError, NumericalError


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


def _check_system(C, noise_cov) -> tuple[np.ndarray, np.ndarray]:
    """C and noise_cov as float arrays: square, of one shape and finite."""
    C = np.asarray(C, dtype=float)
    N = np.asarray(noise_cov, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise DataError(f"C must be a non-empty square matrix; got shape {C.shape}")
    if N.shape != C.shape:
        raise DataError(f"noise_cov has shape {N.shape}; C has shape {C.shape}")
    for name, mat in (("C", C), ("noise_cov", N)):
        if not np.all(np.isfinite(mat)):
            raise DataError(f"{name} has non-finite entries")
    return C, N


def _check_subset(subset, d: int) -> np.ndarray:
    """The coordinates of ``subset`` (all d when None) as an index array."""
    if subset is None:
        return np.arange(d)
    idx = np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        raise ConfigError("subset is empty")
    if idx.min() < 0 or idx.max() >= d:
        raise ConfigError(f"subset {idx.tolist()} is out of range for d={d}")
    if np.unique(idx).size != idx.size:
        raise ConfigError(f"subset {idx.tolist()} repeats a coordinate")
    return idx


def _density_forms(C: np.ndarray, N: np.ndarray, thetas: np.ndarray,
                   left: np.ndarray) -> np.ndarray:
    """B N B^H with B = left A(theta)^{-1} and A(theta) = I - e^{-i theta} C,
    stacked over ``thetas``: 2 pi left f(theta) left^T.

    B is the transpose of the solution of A(theta)^T X = left^T, one solve
    per theta and no inverse.
    """
    A = np.eye(C.shape[0]) - np.exp(-1j * thetas)[:, None, None] * C
    B = np.linalg.solve(A.transpose(0, 2, 1), left.T).transpose(0, 2, 1)
    return B @ N @ B.conj().transpose(0, 2, 1)


def var1_spectral_density(C: np.ndarray, noise_cov: np.ndarray,
                          theta: float) -> np.ndarray:
    """Spectral density matrix of the VAR(1) process at frequency theta.

    Uses the closed geometric form f = (2 pi)^{-1} A^{-1} N A^{-H} with
    A = I - C e^{-i theta}, equal to the two-sided autocovariance series.
    """
    C, N = _check_system(C, noise_cov)
    if spectral_radius_matrix(C) >= 1.0:
        raise NonstationaryError("spectral radius >= 1; no stationary solution")
    f = _density_forms(C, N, np.array([theta], dtype=float),
                       np.eye(C.shape[0]))[0] / (2.0 * np.pi)
    return 0.5 * (f + f.conj().T)


def sym_inv_sqrt(S: np.ndarray, singular: str) -> np.ndarray:
    """The inverse square root of the symmetric part of S; a
    ``NumericalError`` with the message ``singular`` when it is
    numerically singular."""
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if w.min() <= 1e-12 * max(w.max(), 1.0):
        raise NumericalError(singular)
    return (V * w ** -0.5) @ V.T


# Largest (theta, d, d) complex array one batch of frequencies may build:
# every theta of a 2x2 system at once, one theta at a time at d=100.  Larger
# batches raise the peak memory and gain nothing once d is large.
_BATCH_BYTES = 256 * 1024


def stability_measure_var1(C: np.ndarray, noise_cov: np.ndarray,
                           theta_grid_size: int = 1024,
                           subset=None) -> StabilityReport:
    """Grid maximum of the normalized spectral Rayleigh quotient.

    The grid is ``np.linspace(-pi, pi, theta_grid_size)``, of which only the
    first ceil(theta_grid_size / 2) points are evaluated: f(-theta) is the
    conjugate of f(theta) and has the same eigenvalues.  An odd size keeps
    theta = 0.  ``argmax_theta`` is the non-positive member of the mirrored
    pair {theta, -theta} that attains the maximum.

    At each theta the whitened density is M = B N B^H with
    B = S0_idx^{-1/2} E_idx A(theta)^{-1}, where E_idx selects the
    coordinates of ``subset`` (all of them when None), so the measure of a
    subprocess restricts the spectral density and the stationary covariance
    alike.  B comes from one solve with A(theta)^T, and the frequencies are
    batched under ``_BATCH_BYTES``.  Stationarity is checked once, by the
    stationary covariance.
    """
    if theta_grid_size < 64:
        raise ConfigError("theta grid size must be at least 64")
    C, N = _check_system(C, noise_cov)
    d = C.shape[0]
    idx = _check_subset(subset, d)
    S0 = var1_stationary_cov(C, N)
    left = np.zeros((idx.size, d))
    left[:, idx] = sym_inv_sqrt(S0[np.ix_(idx, idx)],
                                "covariance matrix is numerically singular")

    thetas = np.linspace(-np.pi, np.pi, theta_grid_size)[: (theta_grid_size + 1) // 2]
    batch = max(1, _BATCH_BYTES // (16 * d * d))
    tops = np.concatenate([
        np.linalg.eigvalsh(_density_forms(C, N, thetas[i: i + batch], left))[:, -1]
        for i in range(0, thetas.size, batch)])
    best = int(np.argmax(tops))
    lambda0 = float(np.max(np.diag(S0)[idx]))
    return StabilityReport(value=float(tops[best]),
                           argmax_theta=-abs(float(thetas[best])),
                           theta_grid_size=theta_grid_size, lambda0=lambda0)


def operator_norm_var1_kernel(C: np.ndarray) -> float:
    """Operator norm of the kernel psi(u)^T C psi(v) with orthonormal psi,
    i.e. the largest singular value of C."""
    return float(np.linalg.norm(np.asarray(C, dtype=float), 2))


def stability_sweep(a_values, b_values, sigma: float = 1.0,
                    theta_grid_size: int = 1024):
    """Operator norm and stability measure over the two-parameter family
    C = [[a, b], [0, a]] with isotropic noise; returns rows
    (a, b, operator_norm, stability).

    The inputs are checked before any solve: both value lists nonempty and
    finite, sigma finite and positive, and every pair stationary (the
    spectral radius of C is |a|)."""
    for name, values in (("a_values", a_values), ("b_values", b_values)):
        if len(values) == 0:
            raise ConfigError(f"{name} is empty; give at least one value")
    for name, values in (("a_values", a_values), ("b_values", b_values),
                         ("sigma", [sigma])):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ConfigError(f"{name} must be finite; got {list(values)}")
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive; got {sigma}")
    for a in a_values:
        if abs(a) >= 1:
            raise ConfigError(
                f"a_values: the (a, b) pair ({a}, {b_values[0]}) has spectral "
                f"radius |a| = {abs(a)} >= 1, as has every pair with a = {a}; "
                f"no stationary solution")
    rows = []
    noise = sigma ** 2 * np.eye(2)
    for a in a_values:
        for b in b_values:
            C = np.array([[a, b], [0.0, a]])
            norm = operator_norm_var1_kernel(C)
            rep = stability_measure_var1(C, noise, theta_grid_size)
            rows.append((float(a), float(b), norm, rep.value))
    return rows
