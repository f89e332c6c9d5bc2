"""Vector functional autoregressive models: representation, random model
generators, simulation by the lagged VAR recursion, and the lag-1 companion
embedding.

A model of lag L over p functional variables stores G x G coefficient blocks
B_jk^(h) in a fixed basis s, so the transition kernels are
A_jk^(h)(u, v) = s(u)^T B_jk^(h) s(v) and the basis coefficients of the
curves follow an ordinary VAR(L).

The companion matrix of that VAR(L) (Lutkepohl 2005, section 2.1) is the one
lag layout: the spectral radius, the simulation recursion and the companion
model all read their lag matrices from ``VFARModel.companion_matrix``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, evaluate_basis
from .errors import ConfigError, NonstationaryError, parse_json
from .moments import spectral_radius_matrix as spectral_radius
from .panel import CurvePanel
from .streams import rng_stream

DEFAULT_BURN_IN = 500


@dataclass
class VFARModel:
    """Lag-L autoregression on p functional variables in a common basis.

    ``blocks[h-1, j, k]`` is B_jk^(h).  ``noise_vars`` restricts innovations
    to the first that many variables (used by the companion embedding, whose
    lagged copies are noise free); None means all p variables.
    """

    L: int
    p: int
    basis: BasisSpec
    blocks: np.ndarray  # (L, p, p, G, G)
    noise_scale: float = 1.0
    measurement_noise: float = 0.0
    noise_vars: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.L < 1 or self.p < 1:
            raise ConfigError(f"L and p must be >= 1; got L={self.L}, p={self.p}")
        self.blocks = np.asarray(self.blocks, dtype=float)
        G = self.basis.dimension
        if self.blocks.shape != (self.L, self.p, self.p, G, G):
            raise ConfigError("blocks must have shape (L, p, p, G, G)")
        if not 0 < self.noise_scale < np.inf:
            raise ConfigError("noise_scale must be positive and finite; "
                              f"got {self.noise_scale!r}")
        if not 0 <= self.measurement_noise < np.inf:
            raise ConfigError("measurement_noise must be nonnegative and finite; "
                              f"got {self.measurement_noise!r}")
        if self.noise_vars is not None and not 1 <= self.noise_vars <= self.p:
            raise ConfigError("noise_vars must be in [1, p]")

    @property
    def G(self) -> int:
        return self.basis.dimension

    def companion_matrix(self) -> np.ndarray:
        """The pLG x pLG transition matrix of the lag-1 embedding: the top
        pG rows hold [A_1 ... A_L], an identity shifts the history down."""
        d = self.p * self.G
        out = np.eye(self.L * d, k=-d)
        out[:d] = self.blocks.transpose(1, 3, 0, 2, 4).reshape(d, self.L * d)
        return out

    def spectral_radius(self) -> float:
        return spectral_radius(self.companion_matrix())

    def is_stationary(self) -> bool:
        return self.spectral_radius() < 1.0

    def kernel_on_grid(self, h: int, j: int, k: int, u, v) -> np.ndarray:
        """A_jk^(h) evaluated on the product grid u x v."""
        Su = evaluate_basis(self.basis, u)
        Sv = evaluate_basis(self.basis, v)
        return Su @ self.blocks[h - 1, j, k] @ Sv.T

    def hs_norms(self) -> np.ndarray:
        """(L, p, p) Hilbert-Schmidt norms of the kernels (orthonormal basis)."""
        return np.sqrt(np.einsum("hjkab,hjkab->hjk", self.blocks, self.blocks))

    def support(self) -> np.ndarray:
        """(p, p) boolean matrix: True where some lag kernel is nonzero."""
        return (self.hs_norms() > 0).any(axis=0)

    def to_json(self) -> str:
        return json.dumps({
            "L": self.L, "p": self.p,
            "basis": self.basis.to_dict(),
            "blocks": self.blocks.tolist(),
            "noise_scale": self.noise_scale,
            "measurement_noise": self.measurement_noise,
            "noise_vars": self.noise_vars,
            "meta": self.meta,
        })

    @classmethod
    def from_json(cls, text: str) -> "VFARModel":
        return parse_json(text, lambda obj: cls(
            L=int(obj["L"]), p=int(obj["p"]),
            basis=BasisSpec.from_dict(obj["basis"]),
            blocks=np.asarray(obj["blocks"], dtype=float),
            noise_scale=float(obj["noise_scale"]),
            measurement_noise=float(obj["measurement_noise"]),
            noise_vars=obj.get("noise_vars"), meta=obj.get("meta", {})),
            "model")


def _entries(rng, p: int, G: int) -> np.ndarray:
    """The (1, p, p, G, G) standard-normal draw both generators start from."""
    if p < 1 or G < 1:
        raise ConfigError(f"need p >= 1 and basis dimension G >= 1; got p={p}, G={G}")
    return rng.standard_normal((1, p, p, G, G))


def _random_model(kind: str, mask: np.ndarray, entries: np.ndarray, rng,
                  measurement_noise: float, seed: int, **meta) -> VFARModel:
    """Lag-1 model with blocks ``entries`` on the (p, p) ``mask``, rescaled to
    spectral radius iota ~ U[0.5, 1] drawn from ``rng``."""
    model = VFARModel(L=1, p=len(mask),
                      basis=BasisSpec("fourier", entries.shape[-1]),
                      blocks=entries * mask[None, :, :, None, None],
                      measurement_noise=measurement_noise)
    rho = model.spectral_radius()
    if rho <= 0:
        raise ConfigError("generated transition matrix is identically zero")
    iota = float(rng.uniform(0.5, 1.0))
    model.blocks = model.blocks * (iota / rho)
    model.meta = {"kind": kind, **meta, "iota": iota, "seed": seed}
    return model


def gen_block_sparse(p: int, G: int = 5, per_row_degree: int = 5, seed: int = 0,
                     measurement_noise: float = 0.5) -> VFARModel:
    """Lag-1 model in the G-dimensional Fourier basis with exactly
    ``per_row_degree`` nonzero blocks per block row at uniformly random
    positions, standard-normal entries, rescaled to spectral radius
    iota ~ U[0.5, 1]; innovations have unit scale."""
    if not 1 <= per_row_degree <= p:
        raise ConfigError("per_row_degree must be in [1, p]")
    rng = rng_stream(seed)
    entries = _entries(rng, p, G)
    mask = np.zeros((p, p), dtype=bool)
    for j in range(p):
        mask[j, rng.choice(p, size=per_row_degree, replace=False)] = True
    return _random_model("block_sparse", mask, entries, rng, measurement_noise,
                         seed, degree=per_row_degree)


def gen_block_banded(p: int, G: int = 5, bandwidth: int = 2, seed: int = 0,
                     measurement_noise: float = 0.5) -> VFARModel:
    """Lag-1 model in the G-dimensional Fourier basis with nonzero blocks
    exactly where |j - k| <= bandwidth, drawn and rescaled as in
    ``gen_block_sparse``."""
    if bandwidth < 0:
        raise ConfigError("bandwidth must be nonnegative")
    rng = rng_stream(seed)
    entries = _entries(rng, p, G)
    j_idx, k_idx = np.indices((p, p))
    mask = np.abs(j_idx - k_idx) <= bandwidth
    return _random_model("block_banded", mask, entries, rng, measurement_noise,
                         seed, bandwidth=bandwidth)


def var_lag_path(coefs: np.ndarray, innov: np.ndarray) -> np.ndarray:
    """Iterate x_t = sum_h coefs[h-1] @ x_{t-h} + innov[t] from zero history.

    ``coefs`` has shape (L, d, d) and ``innov`` (nsteps, d); returns the
    (nsteps, d) path.
    """
    nlags, d = coefs.shape[:2]
    oldest_first = coefs[::-1].transpose(1, 0, 2).reshape(d, nlags * d)  # [A_L ... A_1]
    hist = np.zeros((nlags + len(innov), d))  # L rows of zero history first
    for t in range(len(innov)):
        hist[nlags + t] = oldest_first @ hist[t:t + nlags].ravel() + innov[t]
    return hist[nlags:]


def simulate_coefficients(model: VFARModel, n: int, burn_in: int = DEFAULT_BURN_IN,
                          seed: int = 0, stream: int = 0) -> np.ndarray:
    """Coefficient panel (n, p, G) of the stationary path after burn-in.

    The recursion starts from zero history; innovations are drawn once per
    step for the noise-carrying variables only, so a companion model and its
    original share innovation streams under paired seeds.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1; got {n}")
    if burn_in < 0:
        raise ConfigError("burn_in must be nonnegative")
    if not model.is_stationary():
        raise NonstationaryError("model spectral radius >= 1")
    p, G = model.p, model.G
    noise_p = model.noise_vars if model.noise_vars is not None else p
    steps = burn_in + n
    rng = rng_stream(seed, stream)
    innov = np.zeros((steps, p * G))
    innov[:, : noise_p * G] = model.noise_scale * rng.standard_normal((steps, noise_p * G))
    lags = model.companion_matrix()[:p * G].reshape(p * G, model.L, p * G)
    path = var_lag_path(lags.transpose(1, 0, 2), innov)
    return path[burn_in:].reshape(n, p, G)


def simulate(model: VFARModel, n: int, grid=None, burn_in: int = DEFAULT_BURN_IN,
             seed: int = 0, stream: int = 0) -> CurvePanel:
    """Simulate n curves per variable on the grid (50 uniform points over
    the basis domain by default), adding i.i.d. Gaussian measurement error
    of scale ``model.measurement_noise``; the variables are named x0, x1, ..."""
    if grid is None:
        grid = np.linspace(model.basis.domain[0], model.basis.domain[1], 50)
    grid = np.asarray(grid, dtype=float)
    coeffs = simulate_coefficients(model, n, burn_in=burn_in, seed=seed, stream=stream)
    S = evaluate_basis(model.basis, grid)
    values = np.einsum("tjg,sg->tjs", coeffs, S)
    if model.measurement_noise > 0:
        # separate stream component so the innovation draws stay aligned
        # with coefficient-level simulation under the same (seed, stream)
        noise_rng = rng_stream(seed, stream + 2**32)
        values = values + model.measurement_noise * noise_rng.standard_normal(values.shape)
    return CurvePanel(values=values, grid=grid)


def companion_form(model: VFARModel) -> VFARModel:
    """Rewrite a lag-L model as a lag-1 model on the stacked last-L states.

    The top block row holds [A_1 ... A_L]; identity kernels shift the history
    down; only the first p variables receive innovations.
    """
    if model.L == 1:
        return dataclasses.replace(model, meta=dict(model.meta))
    Lp, G = model.L * model.p, model.G
    blocks = model.companion_matrix().reshape(Lp, G, Lp, G).transpose(0, 2, 1, 3)
    return dataclasses.replace(model, L=1, p=Lp, blocks=blocks[None],
                               noise_vars=model.p,
                               meta={**model.meta, "companion_of_lag": model.L})
