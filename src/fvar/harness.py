"""Monte Carlo harness for the large-sample error rates of the moment and
FPCA estimators.

The fixture is a panel of p independent variables, each with q0 orthonormal
components whose scores follow either an i.i.d. stream or a scalar AR(1)
with autocorrelation ``ar`` (stationary start, exact variances lambda_l =
l^{-alpha}).  For the AR(1) stream the stability measure is
(1 + ar) / (1 - ar), equal to 1 in the independent case.

For each sample size the harness records, over replications, the median of

* the largest blockwise Hilbert-Schmidt error of the lag-0 autocovariance,
* the largest relative eigenvalue error, and
* the largest scaled score-covariance error
  |sighat - sig| / ((l v m)^(alpha+1) sqrt(lambda_l lambda_m)),

then fits the slope of log median error against log n.  A sqrt(1/n) rate
shows up as a slope near -1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .streams import rng_stream


@dataclass
class ConcentrationReport:
    ns: list
    medians: dict          # metric name -> list of medians, one per n
    slopes: dict           # metric name -> fitted log-log slope
    stability: float
    reps: int
    p: int
    q0: int
    alpha: float
    ar: float

    def rows(self):
        for i, n in enumerate(self.ns):
            yield (n, self.medians["sigma_max"][i], self.medians["eigen_rel"][i],
                   self.medians["score_scaled"][i])


METRICS = ("sigma_max", "eigen_rel", "score_scaled")


# Largest block of score panels simulated together: the AR(1) recursion
# steps through the time points once for the whole block of replications.
# A 1 MB block was faster again but raised the peak resident memory of a
# c07-sized run by ~1.5 MB, against ~0.3 MB for this one.
_BLOCK_BYTES = 1 << 19


def _simulate_scores(n: int, p: int, lams: np.ndarray, ar: float,
                     rngs) -> np.ndarray:
    """(n, len(rngs), p, q0) block of score panels, one per generator along
    axis 1, each exactly stationary."""
    q0 = lams.size
    x = np.empty((n, len(rngs), p, q0))
    for k, rng in enumerate(rngs):
        if ar == 0.0:
            np.multiply(rng.standard_normal((n, p, q0)), np.sqrt(lams), out=x[:, k])
        else:
            x[0, k] = rng.standard_normal((p, q0)) * np.sqrt(lams)
            np.multiply(rng.standard_normal((n - 1, p, q0)),
                        np.sqrt(lams * (1.0 - ar * ar)), out=x[1:, k])
    # x[t] = shock + ar * x[t-1] in place for the whole block, with the same
    # two roundings per step as ar * x[t-1] + shock; time-major storage keeps
    # each step one contiguous array
    steps = list(x) if ar != 0.0 else []
    for prev, cur in zip(steps, steps[1:]):
        cur += ar * prev
    return x


def _replication_errors(xi: np.ndarray, lams: np.ndarray,
                        alpha: float) -> tuple[float, float, float]:
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
        # align each estimated eigenvector with its population counterpart
        signs = np.sign(np.diag(V))
        signs[signs == 0] = 1.0
        xihat[:, j] = xi[:, j] @ (V * signs)

    flat_hat = xihat.reshape(n, p * q0)
    cov_hat = (flat_hat.T @ flat_hat / n).reshape(p, q0, p, q0).transpose(0, 2, 1, 3)
    err_score = float((np.abs(cov_hat - truth) / scaled).max())
    return err_sigma, err_eig, err_score


def run_concentration(p: int = 5, q0: int = 3, ns=(250, 500, 1000, 2000, 4000),
                      reps: int = 100, seed: int = 0, ar: float = 0.0,
                      alpha: float = 2.0) -> ConcentrationReport:
    """Sweep n, run ``reps`` replications each, and fit log-log slopes."""
    if not 0 <= ar < 1:
        raise ConfigError("ar must lie in [0, 1) for a stationary fixture")
    for name, value in (("reps", reps), ("p", p), ("q0", q0)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1; got {value}")
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite; got {alpha}")
    if any(n < 2 for n in ns):
        raise ConfigError(f"every sample size in ns must be at least 2; got {list(ns)}")
    if len(set(ns)) < 2:
        raise ConfigError(f"ns needs at least two distinct sample sizes to fit a slope; "
                          f"got {list(ns)}")
    lams = np.arange(1, q0 + 1, dtype=float) ** -alpha
    medians = {m: [] for m in METRICS}
    for i, n in enumerate(ns):
        n = int(n)
        block = max(1, _BLOCK_BYTES // (8 * n * p * q0))
        errs = []
        for first in range(0, reps, block):
            rngs = [rng_stream(seed, stream=i * reps + r)
                    for r in range(first, min(first + block, reps))]
            x = _simulate_scores(n, p, lams, ar, rngs)
            errs.extend(_replication_errors(x[:, k], lams, alpha)
                        for k in range(len(rngs)))
        errs = np.asarray(errs)
        for col, name in enumerate(METRICS):
            medians[name].append(float(np.median(errs[:, col])))

    logn = np.log(np.asarray(ns, dtype=float))
    design = np.column_stack([logn, np.ones_like(logn)])
    slopes = {}
    for name in METRICS:
        coef, *_ = np.linalg.lstsq(design, np.log(medians[name]), rcond=None)
        slopes[name] = float(coef[0])
    stability = (1.0 + ar) / (1.0 - ar)
    return ConcentrationReport(ns=list(ns), medians=medians, slopes=slopes,
                               stability=stability, reps=reps, p=p, q0=q0,
                               alpha=alpha, ar=ar)


@dataclass
class Scenario:
    """A simulation preset: sample size, dimension and observation design."""

    n: int
    p: int
    grid_size: int = 50
    basis_dim: int = 5
    measurement_noise: float = 0.5
    degree: int = 5
    bandwidth: int = 2


SCENARIOS = {
    "paper-n100-p40": Scenario(n=100, p=40),
    "paper-n200-p40": Scenario(n=200, p=40),
    "paper-n200-p80": Scenario(n=200, p=80),
    "desk": Scenario(n=200, p=20),
}
