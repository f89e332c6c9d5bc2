"""Vector functional autoregressive models: representation, random model
generators, simulation by the lagged VAR recursion, and the lag-1 companion
embedding.

A model of lag L over p functional variables stores G x G coefficient blocks
B_jk^(h) in a fixed basis s, so the transition kernels are
A_jk^(h)(u, v) = s(u)^T B_jk^(h) s(v) and the basis coefficients of the
curves follow an ordinary VAR(L).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, evaluate_basis
from .errors import ConfigError, NonstationaryError
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
        self.blocks = np.asarray(self.blocks, dtype=float)
        G = self.basis.dimension
        if self.blocks.shape != (self.L, self.p, self.p, G, G):
            raise ConfigError("blocks must have shape (L, p, p, G, G)")
        if self.noise_scale <= 0:
            raise ConfigError("noise_scale must be positive")
        if self.measurement_noise < 0:
            raise ConfigError("measurement_noise must be nonnegative")
        if self.noise_vars is not None and not 1 <= self.noise_vars <= self.p:
            raise ConfigError("noise_vars must be in [1, p]")

    @property
    def G(self) -> int:
        return self.basis.dimension

    def lag_matrices(self) -> np.ndarray:
        """(L, pG, pG) stacked transition matrices of the coefficient VAR."""
        L, p, G = self.L, self.p, self.G
        return self.blocks.transpose(0, 1, 3, 2, 4).reshape(L, p * G, p * G)

    def companion_matrix(self) -> np.ndarray:
        """The pLG x pLG transition matrix of the lag-1 embedding."""
        lags = self.lag_matrices()
        d = self.p * self.G
        out = np.zeros((self.L * d, self.L * d))
        out[:d] = np.concatenate(list(lags), axis=1)
        for s in range(1, self.L):
            out[s * d:(s + 1) * d, (s - 1) * d:s * d] = np.eye(d)
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
            "basis": json.loads(self.basis.to_json()),
            "blocks": self.blocks.tolist(),
            "noise_scale": self.noise_scale,
            "measurement_noise": self.measurement_noise,
            "noise_vars": self.noise_vars,
            "meta": self.meta,
        })

    @classmethod
    def from_json(cls, text: str) -> "VFARModel":
        obj = json.loads(text)
        basis = BasisSpec(kind=obj["basis"]["kind"],
                          dimension=int(obj["basis"]["dimension"]),
                          domain=tuple(obj["basis"]["domain"]))
        return cls(L=int(obj["L"]), p=int(obj["p"]), basis=basis,
                   blocks=np.asarray(obj["blocks"], dtype=float),
                   noise_scale=float(obj["noise_scale"]),
                   measurement_noise=float(obj["measurement_noise"]),
                   noise_vars=obj.get("noise_vars"),
                   meta=obj.get("meta", {}))


def _rescaled(blocks: np.ndarray, rng, p: int, G: int) -> tuple[np.ndarray, float]:
    """Rescale the stacked lag-1 matrix to spectral radius iota ~ U[0.5, 1]."""
    stacked = blocks.transpose(0, 1, 3, 2, 4).reshape(p * G, p * G)
    rho = spectral_radius(stacked)
    if rho <= 0:
        raise ConfigError("generated transition matrix is identically zero")
    iota = float(rng.uniform(0.5, 1.0))
    return blocks * (iota / rho), iota


def gen_block_sparse(p: int, G: int = 5, per_row_degree: int = 5, seed: int = 0,
                     noise_scale: float = 1.0, measurement_noise: float = 0.5,
                     basis: BasisSpec | None = None) -> VFARModel:
    """Lag-1 model with exactly ``per_row_degree`` nonzero blocks per block
    row at uniformly random positions, standard-normal entries, rescaled to
    spectral radius iota ~ U[0.5, 1]."""
    if not 1 <= per_row_degree <= p:
        raise ConfigError("per_row_degree must be in [1, p]")
    rng = rng_stream(seed)
    entries = rng.standard_normal((1, p, p, G, G))
    mask = np.zeros((p, p), dtype=bool)
    for j in range(p):
        mask[j, rng.choice(p, size=per_row_degree, replace=False)] = True
    blocks = entries * mask[None, :, :, None, None]
    blocks, iota = _rescaled(blocks, rng, p, G)
    basis = basis or BasisSpec("fourier", G)
    return VFARModel(L=1, p=p, basis=basis, blocks=blocks,
                     noise_scale=noise_scale, measurement_noise=measurement_noise,
                     meta={"kind": "block_sparse", "degree": per_row_degree,
                           "iota": iota, "seed": seed})


def gen_block_banded(p: int, G: int = 5, bandwidth: int = 2, seed: int = 0,
                     noise_scale: float = 1.0, measurement_noise: float = 0.5,
                     basis: BasisSpec | None = None) -> VFARModel:
    """Lag-1 model with nonzero blocks exactly where |j - k| <= bandwidth."""
    if bandwidth < 0:
        raise ConfigError("bandwidth must be nonnegative")
    rng = rng_stream(seed)
    entries = rng.standard_normal((1, p, p, G, G))
    j_idx, k_idx = np.indices((p, p))
    mask = np.abs(j_idx - k_idx) <= bandwidth
    blocks = entries * mask[None, :, :, None, None]
    blocks, iota = _rescaled(blocks, rng, p, G)
    basis = basis or BasisSpec("fourier", G)
    return VFARModel(L=1, p=p, basis=basis, blocks=blocks,
                     noise_scale=noise_scale, measurement_noise=measurement_noise,
                     meta={"kind": "block_banded", "bandwidth": bandwidth,
                           "iota": iota, "seed": seed})


def var_lag_path(coefs: np.ndarray, innov: np.ndarray) -> np.ndarray:
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


def simulate_coefficients(model: VFARModel, n: int, burn_in: int = DEFAULT_BURN_IN,
                          seed: int = 0, stream: int = 0) -> np.ndarray:
    """Coefficient panel (n, p, G) of the stationary path after burn-in.

    The recursion starts from zero history; innovations are drawn once per
    step for the noise-carrying variables only, so a companion model and its
    original share innovation streams under paired seeds.
    """
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
    path = var_lag_path(model.lag_matrices(), innov)
    return path[burn_in:].reshape(n, p, G)


def simulate(model: VFARModel, n: int, grid=None, burn_in: int = DEFAULT_BURN_IN,
             seed: int = 0, stream: int = 0, ids=None) -> CurvePanel:
    """Simulate n curves per variable on the grid, adding i.i.d. Gaussian
    measurement error of scale ``model.measurement_noise``."""
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
    return CurvePanel(values=values, grid=grid,
                      ids=list(ids) if ids else [f"x{j}" for j in range(model.p)])


def companion_form(model: VFARModel) -> VFARModel:
    """Rewrite a lag-L model as a lag-1 model on the stacked last-L states.

    The top block row holds [A_1 ... A_L]; identity kernels shift the history
    down; only the first p variables receive innovations.
    """
    if model.L == 1:
        return VFARModel(L=1, p=model.p, basis=model.basis, blocks=model.blocks,
                         noise_scale=model.noise_scale,
                         measurement_noise=model.measurement_noise,
                         noise_vars=model.noise_vars, meta=dict(model.meta))
    L, p, G = model.L, model.p, model.G
    blocks = np.zeros((1, L * p, L * p, G, G))
    for h in range(L):
        blocks[0, :p, h * p:(h + 1) * p] = model.blocks[h]
    eye = np.eye(G)
    for s in range(1, L):
        for j in range(p):
            blocks[0, s * p + j, (s - 1) * p + j] = eye
    meta = dict(model.meta)
    meta["companion_of_lag"] = L
    return VFARModel(L=1, p=L * p, basis=model.basis, blocks=blocks,
                     noise_scale=model.noise_scale,
                     measurement_noise=model.measurement_noise,
                     noise_vars=p, meta=meta)
