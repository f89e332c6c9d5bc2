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

The replications of one sample size are simulated together, one chunk of
time points at a time: each replication draws its chunk from its own Philox
stream (chunked draws equal one draw) into a (batch, T, p, q0) buffer, and
the last state of the AR(1) recursion carries into the next chunk.  Each
chunk adds its score cross-products to a per-replication (p q0 x p q0)
accumulator, so no full panel is ever held.  One stacked ``eigh`` of the
diagonal blocks then gives the eigenvalues, and the covariance of the
rotated scores is R^T cov R with R the block-diagonal of the sign-aligned
eigenvectors.  One byte budget bounds both the number of replications
reduced at once and the chunk length; the chunk boundaries fix how the
covariance sums are grouped, so moving them changes the last bits.

numpy's inner loop runs over the last axis of a contiguous operand, so both
passes over a chunk are laid out to give it long runs.  The innovation
standard deviations are a (T, p, q0) array made once per call, not a (q0,)
vector, which numpy would loop over q0 values at a time.  The recursion
steps once per time point for the whole batch, so it runs on a time-major
(T, batch, p, q0) copy of the chunk, where each step updates one contiguous
batch p q0 slab; the chunk is yielded as its transposed view, which
``_errors`` reshapes without a copy.  Each score sees the same operations
in the same order as in a one-replication loop, so the panels equal that
loop's bit for bit, and the layout leaves the covariances and medians as
they were.
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

    def rows(self):
        for i, n in enumerate(self.ns):
            yield (n, self.medians["sigma_max"][i], self.medians["eigen_rel"][i],
                   self.medians["score_scaled"][i])


METRICS = ("sigma_max", "eigen_rel", "score_scaled")

# Bytes for the covariance accumulators of one batch of replications plus
# one chunk of their scores; half of it goes to each.
_BUDGET_BYTES = 1 << 20


def _batch_sizes(reps: int, d: int, budget: int) -> tuple[int, int]:
    """(replications per batch, time points per chunk) for score dimension d."""
    batch = min(reps, max(1, budget // (16 * d * d)))
    return batch, max(1, budget // (16 * batch * d))


def _score_chunks(n: int, p: int, lams: np.ndarray, ar: float, rngs, chunk: int):
    """Yield (len(rngs), T, p, q0) chunks of exactly stationary score panels,
    one per generator along axis 0, in time order.  The buffers are reused:
    each chunk is valid until the next one is drawn."""
    x = np.empty((len(rngs), min(chunk, n), p, lams.size))
    innov_sd = np.sqrt(lams * (1.0 - ar * ar))
    scale = np.empty(x.shape[1:])
    scale[:] = innov_sd
    scale[0] = np.sqrt(lams)
    if ar != 0.0:
        steps = np.empty((x.shape[1], len(rngs), *x.shape[2:]))
    for t0 in range(0, n, chunk):
        cur = x[:, :n - t0]
        T = cur.shape[1]
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=cur[k])
        cur *= scale[:T]
        scale[0] = innov_sd
        if ar != 0.0:
            tm = steps[:T]
            tm[...] = cur.transpose(1, 0, 2, 3)
            # x[t] = shock + ar * x[t-1], the same two roundings per step as
            # ar * x[t-1] + shock
            if t0:
                tm[0] += ar * last
            for t in range(1, T):
                tm[t] += ar * tm[t - 1]
            last = tm[-1].copy()
            cur = tm.transpose(1, 0, 2, 3)
        yield cur


def _errors(chunks, n: int, lams: np.ndarray, alpha: float) -> np.ndarray:
    """(batch, 3) errors of the lag-0 covariances of a batch of score panels
    given as (batch, T, p, q0) time chunks: the largest blockwise HS error,
    relative eigenvalue error and scaled score-covariance error."""
    flats = (x.reshape(x.shape[0], x.shape[1], -1) for x in chunks)
    cov = sum(f.transpose(0, 2, 1) @ f for f in flats) / n
    batch, d, _ = cov.shape
    q0 = lams.size
    p = d // q0
    diag = np.arange(p)
    w, V = np.linalg.eigh(cov.reshape(batch, p, q0, p, q0)[:, diag, :, diag, :])
    w, V = w[..., ::-1], V[..., ::-1]                    # (p, batch, q0[, q0])
    err_eig = (np.abs(w - lams) / lams).max(axis=(0, 2))
    # align each estimated eigenvector with its population counterpart
    signs = np.sign(np.diagonal(V, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    R = np.zeros_like(cov)
    R.reshape(batch, p, q0, p, q0)[:, diag, :, diag, :] = V * signs[..., None, :]
    cov_hat = R.transpose(0, 2, 1) @ cov @ R

    truth = np.diag(np.tile(lams, p))
    cov -= truth
    cov **= 2
    err_sigma = np.sqrt(cov.reshape(batch, p, q0, p, q0).sum(axis=(2, 4)))
    idx = np.arange(1, q0 + 1)
    scaled = (np.maximum.outer(idx, idx) ** (alpha + 1.0)
              * np.sqrt(np.outer(lams, lams)))
    cov_hat -= truth
    np.abs(cov_hat, out=cov_hat)
    cov_hat /= np.tile(scaled, (p, p))
    return np.column_stack([err_sigma.max(axis=(1, 2)), err_eig,
                            cov_hat.max(axis=(1, 2))])


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; bools are flags, not sizes."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def run_concentration(p: int = 5, q0: int = 3, ns=(250, 500, 1000, 2000, 4000),
                      reps: int = 100, seed: int = 0, ar: float = 0.0,
                      alpha: float = 2.0) -> ConcentrationReport:
    """Sweep n, run ``reps`` replications each, and fit log-log slopes."""
    if not 0 <= ar < 1:
        raise ConfigError("ar must lie in [0, 1) for a stationary fixture")
    for name, value in (("reps", reps), ("p", p), ("q0", q0), ("seed", seed)):
        if not _is_integer(value):
            raise ConfigError(f"{name} must be an integer; got {value!r}")
    ns = list(ns)
    if not all(_is_integer(n) for n in ns):
        raise ConfigError(f"every sample size in ns must be an integer; got {ns}")
    ns = [int(n) for n in ns]
    for name, value in (("reps", reps), ("p", p), ("q0", q0)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1; got {value}")
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite; got {alpha}")
    if any(n < 2 for n in ns):
        raise ConfigError(f"every sample size in ns must be at least 2; got {ns}")
    if len(set(ns)) < 2:
        raise ConfigError(f"ns needs at least two distinct sample sizes to fit a slope; "
                          f"got {ns}")
    lams = np.arange(1, q0 + 1, dtype=float) ** -alpha
    d = p * q0
    batch, chunk = _batch_sizes(reps, d, _BUDGET_BYTES)
    medians = {m: [] for m in METRICS}
    for i, n in enumerate(ns):
        errs = []
        for first in range(0, reps, batch):
            rngs = [rng_stream(seed, stream=i * reps + r)
                    for r in range(first, min(first + batch, reps))]
            errs.append(_errors(_score_chunks(n, p, lams, ar, rngs, chunk), n,
                                lams, alpha))
        errs = np.concatenate(errs)
        for col, name in enumerate(METRICS):
            medians[name].append(float(np.median(errs[:, col])))

    logn = np.log(np.asarray(ns, dtype=float))
    design = np.column_stack([logn, np.ones_like(logn)])
    slopes = {}
    for name in METRICS:
        coef, *_ = np.linalg.lstsq(design, np.log(medians[name]), rcond=None)
        slopes[name] = float(coef[0])
    stability = (1.0 + ar) / (1.0 - ar)
    return ConcentrationReport(ns=ns, medians=medians, slopes=slopes,
                               stability=stability)


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
