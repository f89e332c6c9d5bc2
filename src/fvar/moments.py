"""The functional stability measure and its building blocks.

The stability measure of a stationary process with a known finite-dimensional
VAR(1) representation x_t = C x_{t-1} + e_t is the supremum over frequencies
of the largest eigenvalue of 2 pi S0^{-1/2} f(theta) S0^{-1/2}, where S0
solves the discrete Lyapunov equation S0 = C S0 C^T + noise_cov and f is the
spectral density matrix.  It equals 1 for temporally independent processes
and grows with the strength of the dependence.

The measure is the maximum over the non-positive half of the theta grid.
With C and noise_cov real, f(-theta) is the complex conjugate of f(theta),
and the two have the same eigenvalues, so the other half adds nothing.  Each
frequency evaluated costs one linear solve with A(theta) = I - e^{-i theta} C
and no inverse, and the frequencies are batched so that no (batch, d, d)
complex array exceeds ``_BATCH_BYTES``.

Only the grid points that can hold the maximum are evaluated.  A coarse pass
over every ``_COARSE_STRIDE``-th point gives a level g the grid attains.  The
level-set method for the H-infinity norm (Boyd, Balakrishnan & Kabamba 1989;
Bruinsma & Steinbuch 1990) then finds every frequency where the whitened
density reaches g as the unit-circle eigenvalues of a real 2d x 2d pencil.
The pencil is shifted to e^{i theta0}, at the coarse point theta0 with the
lowest top eigenvalue: every eigenvalue of the density is below g there, so
the shifted pencil is regular, with a margin of g minus that top, and one
complex solve and one ``eigvals`` (which balances the matrix it is given)
yield all its eigenvalues.  When that margin is within ``_ARC_RTOL`` of g,
the density is flat at the coarse points and the whole half grid is
evaluated.  Otherwise, between two crossings the density stays above g or
below it throughout, so one point in the middle of each arc tells which
arcs to evaluate whole; the others are below g and cannot hold the maximum.
fvar needs nothing but numpy at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NonstationaryError, NumericalError


@dataclass
class StabilityReport:
    value: float
    argmax_theta: float
    lambda0: float
    theta_evaluations: int  # grid points at which the density was evaluated


def spectral_radius_matrix(mat: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(mat, dtype=float)))))


_DOUBLING_TOL = 1e-12
_MAX_DOUBLINGS = 200


def var1_stationary_cov(C: np.ndarray, noise_cov: np.ndarray) -> np.ndarray:
    """Stationary covariance of x_t = C x_{t-1} + e_t by doubling iteration.

    Solves S = C S C^T + noise_cov, i.e. S = sum_{h>=0} C^h N (C^h)^T, by
    repeated squaring: S <- S + A S A^T with A <- A A, until an update is
    at most ``_DOUBLING_TOL`` of S in Frobenius norm; ``NumericalError``
    after ``_MAX_DOUBLINGS`` updates, or when S or its norm overflows.
    """
    C = np.asarray(C, dtype=float)
    N = np.asarray(noise_cov, dtype=float)
    if spectral_radius_matrix(C) >= 1.0:
        raise NonstationaryError("spectral radius >= 1; no stationary solution")
    S = N.copy()
    A = C.copy()
    with np.errstate(over="raise"):
        try:
            for _ in range(_MAX_DOUBLINGS):
                update = A @ S @ A.T
                S = S + update
                A = A @ A
                if (np.linalg.norm(update, "fro") <= _DOUBLING_TOL
                        * max(np.linalg.norm(S, "fro"), 1e-300)):
                    return 0.5 * (S + S.T)
        except FloatingPointError:
            raise NumericalError(
                "the stationary covariance, or its Frobenius norm, overflows "
                "the floating-point range; rescale C or noise_cov") from None
    raise NumericalError("Lyapunov doubling iteration did not converge")


def _check_system(C, noise_cov) -> tuple[np.ndarray, np.ndarray]:
    """C and noise_cov as float arrays: square, of one shape and finite, with
    noise_cov symmetric and positive semidefinite to 1e-12 of its largest
    entry."""
    C = np.asarray(C, dtype=float)
    N = np.asarray(noise_cov, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise DataError(f"C must be a non-empty square matrix; got shape {C.shape}")
    if N.shape != C.shape:
        raise DataError(f"noise_cov has shape {N.shape}; C has shape {C.shape}")
    for name, mat in (("C", C), ("noise_cov", N)):
        if not np.all(np.isfinite(mat)):
            raise DataError(f"{name} has non-finite entries")
    scale = 1e-12 * np.max(np.abs(N))
    if np.max(np.abs(N - N.T)) > scale:
        raise DataError("noise_cov is not symmetric; a covariance matrix is")
    low = float(np.linalg.eigvalsh(N)[0])
    if low < -scale:
        raise DataError(f"noise_cov has the negative eigenvalue {low:.3e}; "
                        f"a covariance matrix is positive semidefinite")
    return C, N


def check_indices(values, size: int, what: str, bound: str) -> list:
    """``values`` as a nonempty list of distinct integers in [0, size); a
    ``ConfigError`` names any other entry as a ``what``."""
    seen = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ConfigError(f"{what} {v!r} is not an integer")
        if not 0 <= v < size:
            raise ConfigError(f"{what} {v} is out of range for {bound}={size}")
        if v in seen:
            raise ConfigError(f"{what} {v} is repeated")
        seen.append(int(v))
    if not seen:
        raise ConfigError(f"no {what} given")
    return seen


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


def positive_eigh(S: np.ndarray, singular: str):
    """(w, V) = ``eigh`` of the symmetric part of S; a ``NumericalError``
    with the message ``singular`` when it is numerically singular: its
    smallest eigenvalue is at most 1e-12 of its largest, whatever the scale
    of S."""
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if w.min() <= 1e-12 * w.max():
        raise NumericalError(singular)
    return w, V


def sym_inv_sqrt(S: np.ndarray, singular: str) -> np.ndarray:
    """The inverse square root of the symmetric part of S, which
    ``positive_eigh`` checks."""
    w, V = positive_eigh(S, singular)
    return (V * w ** -0.5) @ V.T


# Largest (theta, d, d) complex array one batch of frequencies may build:
# every theta of a 2x2 system at once, one theta at a time at d=100.  Larger
# batches raise the peak memory and gain nothing once d is large.
_BATCH_BYTES = 256 * 1024

# The coarse pass evaluates every _COARSE_STRIDE-th point of the half grid.
# A pencil eigenvalue w with | |w| - 1 | <= _CIRCLE_TOL counts as a frequency
# on the unit circle; a loose tolerance only adds crossings, never drops one.
# An arc is evaluated whole when its middle reaches (1 - _ARC_RTOL) g, and
# the half grid when every coarse point does, which covers a density that is
# flat to rounding, where crossings are ill-posed.
_COARSE_STRIDE = 16
_CIRCLE_TOL = 1e-6
_ARC_RTOL = 1e-9


def _top_eigenvalues(C: np.ndarray, N: np.ndarray, thetas: np.ndarray,
                     left: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of left 2 pi f(theta) left^T at each of ``thetas``,
    in batches under ``_BATCH_BYTES``."""
    d = C.shape[0]
    batch = max(1, _BATCH_BYTES // (16 * d * d))
    return np.concatenate([
        np.linalg.eigvalsh(_density_forms(C, N, thetas[i: i + batch], left))[:, -1]
        for i in range(0, thetas.size, batch)])


def _level_crossings(C: np.ndarray, N: np.ndarray, gram: np.ndarray,
                     level: float, theta0: float) -> np.ndarray:
    """Sorted frequencies theta in [-pi, 0] at which some eigenvalue of
    left 2 pi f(theta) left^T equals ``level`` > 0, where gram = left^T left,
    given a frequency ``theta0`` at which every such eigenvalue is below
    ``level``.

    With N = B B^T, these eigenvalues are the squared singular values of
    left (wI - C)^{-1} B at w = e^{i theta}, and ``level`` is one of them
    exactly when w is an eigenvalue of the real pencil (a, b) =
    ([[C, s N/level], [0, I]], [[I, 0], [gram/s, C^T]]) for any s > 0.
    numpy finds them by a shift: with sigma = e^{i theta0}, w is an
    eigenvalue of the pencil exactly when mu = 1/(w - sigma) is an eigenvalue
    of (a - sigma b)^{-1} b, so one complex solve and one ``eigvals`` give
    every w = sigma + 1/mu.  a - sigma b is regular because no eigenvalue of
    the density at theta0 equals ``level``, and it is the better conditioned
    the wider the margin between ``level`` and the density's top eigenvalue
    at theta0; the caller evaluates the whole grid instead when that margin
    is within ``_ARC_RTOL`` of ``level``.  The eigenvalues come in conjugate
    pairs, as f(-theta) mirrors f(theta), and each maps to -|angle w|.  An
    eigenvalue at infinity (C singular) is mu = 0 and drops out.

    Scaling: ``eigvals`` (LAPACK geev) balances (a - sigma b)^{-1} b by a
    diagonal similarity of powers of 2 itself, so C needs no balancing of
    its own, unlike a QZ of the pencil.  The factor s balances the two
    coupling blocks before the solve.  With s = 1 and ``_CIRCLE_TOL``
    tightened to 1e-9, 2 of 1 000 near-unit-root stress systems lost a
    crossing and their maximum; with s, none of 6 000 did at 1e-10.
    """
    d = C.shape[0]
    s = np.sqrt(level * np.max(np.abs(gram)) / np.max(np.abs(N)))
    a = np.zeros((2 * d, 2 * d))
    b = np.zeros((2 * d, 2 * d))
    a[:d, :d], a[:d, d:], a[d:, d:] = C, (s / level) * N, np.eye(d)
    b[:d, :d], b[d:, :d], b[d:, d:] = np.eye(d), gram / s, C.T
    sigma = np.exp(1j * theta0)
    mu = np.linalg.eigvals(np.linalg.solve(a - sigma * b, b))
    # w = alpha / mu with alpha = sigma mu + 1, tested without dividing
    alpha, scale = sigma * mu + 1.0, np.abs(mu)
    on_circle = (scale > 0) & (np.abs(np.abs(alpha) - scale) <= _CIRCLE_TOL * scale)
    return np.sort(-np.abs(np.angle(alpha[on_circle] * np.conj(mu[on_circle]))))


def stability_measure_var1(C: np.ndarray, noise_cov: np.ndarray,
                           theta_grid_size: int = 1024,
                           subset=None) -> StabilityReport:
    """Grid maximum of the normalized spectral Rayleigh quotient.

    The grid is ``np.linspace(-pi, pi, theta_grid_size)``, and the maximum is
    taken over its first ceil(theta_grid_size / 2) points: f(-theta) is the
    conjugate of f(theta) and has the same eigenvalues.  An odd size keeps
    theta = 0.  ``argmax_theta`` is the non-positive member of the mirrored
    pair {theta, -theta} at the first grid point that attains the maximum.

    At each theta the whitened density is M = B N B^H with
    B = S0_idx^{-1/2} E_idx A(theta)^{-1}, where E_idx selects the
    coordinates of ``subset`` (all of them when None), so the measure of a
    subprocess restricts the spectral density and the stationary covariance
    alike.  B comes from one solve with A(theta)^T, and the frequencies are
    batched under ``_BATCH_BYTES``.  Stationarity is checked once, by the
    stationary covariance.

    Not every grid point is evaluated; ``theta_evaluations`` counts those
    that are.  The coarse pass takes every ``_COARSE_STRIDE``-th point and
    both ends; their maximum g is a value of the grid.  When the lowest of
    them reaches (1 - ``_ARC_RTOL``) g, every point is evaluated.  Otherwise
    ``_level_crossings``, shifted to the lowest coarse point, finds every
    theta where some eigenvalue of M equals g, and these cut the half grid
    into arcs on which the top eigenvalue stays above g or below it.  The
    points on either side of each crossing and the middle point of each arc
    are evaluated, and so is every point of an arc whose middle reaches
    (1 - ``_ARC_RTOL``) g.  Every skipped point lies below g, and every
    evaluated one goes through the same arithmetic as a full-grid pass, so
    the value and ``argmax_theta`` equal those of evaluating the whole grid.
    A level-set solve that overflows, for a noise_cov far below unit scale,
    is a ``NumericalError``.
    """
    if (not isinstance(theta_grid_size, (int, np.integer))
            or isinstance(theta_grid_size, bool) or theta_grid_size < 64):
        raise ConfigError(f"theta grid size must be an integer of at least 64; "
                          f"got {theta_grid_size!r}")
    C, N = _check_system(C, noise_cov)
    d = C.shape[0]
    idx = np.array(range(d) if subset is None else
                   check_indices(subset, d, "subset coordinate", "d"))
    S0 = var1_stationary_cov(C, N)
    left = np.zeros((idx.size, d))
    left[:, idx] = sym_inv_sqrt(S0[np.ix_(idx, idx)],
                                "covariance matrix is numerically singular")

    thetas = np.linspace(-np.pi, np.pi, theta_grid_size)[: (theta_grid_size + 1) // 2]
    size = thetas.size
    tops = np.full(size, -np.inf)
    done = np.zeros(size, dtype=bool)

    def evaluate(points):
        points = np.unique(points)
        points = points[~done[points]]
        if points.size:
            tops[points] = _top_eigenvalues(C, N, thetas[points], left)
            done[points] = True

    coarse = np.r_[np.arange(0, size, _COARSE_STRIDE), size - 1]
    evaluate(coarse)
    g = tops.max()
    low = coarse[np.argmin(tops[coarse])]
    # M averages to the identity over theta, so g > 0 unless M vanishes at
    # every coarse point
    if g <= 0 or tops[low] >= g * (1.0 - _ARC_RTOL):
        evaluate(np.arange(size))  # flat at the coarse points
    else:
        with np.errstate(over="raise"):
            try:
                crossings = _level_crossings(C, N, left.T @ left, g,
                                             thetas[low])
            except FloatingPointError:
                raise NumericalError(
                    "the level-set solve overflows the floating-point range; "
                    "rescale noise_cov") from None
        cuts = np.searchsorted(thetas, crossings)
        bounds = np.unique(np.r_[0, cuts, size])
        starts, ends = bounds[:-1], bounds[1:]
        mids = (starts + ends - 1) // 2
        evaluate(np.r_[np.clip(np.r_[cuts - 1, cuts], 0, size - 1), mids])
        high = tops[mids] >= g * (1.0 - _ARC_RTOL)
        evaluate(np.flatnonzero(np.repeat(high, ends - starts)))

    best = int(np.argmax(tops))
    return StabilityReport(value=float(tops[best]),
                           argmax_theta=-abs(float(thetas[best])),
                           lambda0=float(np.max(np.diag(S0)[idx])),
                           theta_evaluations=int(done.sum()))


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
    finite, sigma positive and at most 1e154, so that sigma**2 is finite,
    and every pair stationary (the spectral radius of C is |a|)."""
    for name, values in (("a_values", a_values), ("b_values", b_values)):
        if len(values) == 0:
            raise ConfigError(f"{name} is empty; give at least one value")
    for name, values in (("a_values", a_values), ("b_values", b_values),
                         ("sigma", [sigma])):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ConfigError(f"{name} must be finite; got {list(values)}")
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive; got {sigma}")
    if sigma > 1e154:
        raise ConfigError(f"sigma must be at most 1e154, where sigma**2 "
                          f"overflows; got {sigma}")
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
