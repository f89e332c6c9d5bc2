"""Basis systems on a closed interval and their Gram/penalty matrices.

Two families are supported:

* ``fourier`` — the orthonormal system {1/sqrt(T), sqrt(2/T) sin(2 pi k u/T),
  sqrt(2/T) cos(2 pi k u/T)} on a domain of length T, ordered as the constant
  followed by sin/cos pairs of increasing frequency.
* ``bspline`` — cubic B-splines (order 4) on uniform clamped knots.

The Gram pair (J, Q) holds J = int b(u) b(u)^T du and the curvature penalty
Q = int b''(u) b''(u)^T du used by regularized FPCA.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .errors import ConfigError, DataError

SPLINE_ORDER = 4  # cubic
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """A basis family, its dimension and its domain interval."""

    kind: str
    dimension: int
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("fourier", "bspline"):
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        if self.kind == "fourier" and self.dimension < 1:
            raise ConfigError("fourier basis needs dimension >= 1")
        if self.kind == "bspline" and self.dimension < SPLINE_ORDER:
            raise ConfigError(f"cubic bspline basis needs dimension >= {SPLINE_ORDER}")
        a, b = self.domain
        if not b > a:
            raise ConfigError("domain must have positive length")
        object.__setattr__(self, "domain", (float(a), float(b)))

    @property
    def length(self) -> float:
        return self.domain[1] - self.domain[0]

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "dimension": self.dimension,
                           "domain": list(self.domain)})

    @classmethod
    def from_dict(cls, obj: dict) -> "BasisSpec":
        return cls(kind=obj["kind"], dimension=int(obj["dimension"]),
                   domain=tuple(obj["domain"]))

    @classmethod
    def from_json(cls, text: str) -> "BasisSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GramPair:
    """J = int b b^T and Q = int b'' (b'')^T for one basis."""

    J: np.ndarray
    Q: np.ndarray


def _check_points(spec: BasisSpec, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    a, b = spec.domain
    slack = _EDGE_TOL * max(1.0, abs(a), abs(b))
    if pts.size and (pts.min() < a - slack or pts.max() > b + slack):
        raise DataError(f"evaluation point outside domain [{a}, {b}]")
    return np.clip(pts, a, b)


def _bspline_knots(spec: BasisSpec) -> np.ndarray:
    a, b = spec.domain
    n_breaks = spec.dimension - SPLINE_ORDER + 2
    breaks = np.linspace(a, b, n_breaks)
    return np.r_[np.full(SPLINE_ORDER - 1, a), breaks, np.full(SPLINE_ORDER - 1, b)]


def evaluate_basis(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate all basis functions at the given points.

    Returns a (len(points), G) matrix whose row t is (b_1(u_t), ..., b_G(u_t)).
    Points outside the domain raise ``DataError``.
    """
    pts = _check_points(spec, points)
    G = spec.dimension
    if spec.kind == "fourier":
        a, _ = spec.domain
        T = spec.length
        u = (pts - a) / T
        out = np.empty((pts.size, G))
        out[:, 0] = 1.0 / np.sqrt(T)
        amp = np.sqrt(2.0 / T)
        for col in range(1, G):
            k = (col + 1) // 2
            arg = 2.0 * np.pi * k * u
            out[:, col] = amp * (np.sin(arg) if col % 2 == 1 else np.cos(arg))
        return out
    t = _bspline_knots(spec)
    return BSpline.design_matrix(pts, t, SPLINE_ORDER - 1, extrapolate=False).toarray()


def evaluate_basis_deriv2(spec: BasisSpec, points) -> np.ndarray:
    """Second derivatives of all basis functions, same layout as evaluate_basis."""
    pts = _check_points(spec, points)
    G = spec.dimension
    if spec.kind == "fourier":
        a, _ = spec.domain
        T = spec.length
        u = (pts - a) / T
        out = np.zeros((pts.size, G))
        amp = np.sqrt(2.0 / T)
        for col in range(1, G):
            k = (col + 1) // 2
            w2 = (2.0 * np.pi * k / T) ** 2
            arg = 2.0 * np.pi * k * u
            out[:, col] = -w2 * amp * (np.sin(arg) if col % 2 == 1 else np.cos(arg))
        return out
    t = _bspline_knots(spec)
    spline = BSpline(t, np.eye(G), SPLINE_ORDER - 1, extrapolate=False)
    return spline.derivative(2)(pts)


@functools.cache
def gram_matrices(spec: BasisSpec) -> GramPair:
    """Compute the Gram pair (J, Q), once per spec; both are read-only.

    The B-spline case integrates with Gauss-Legendre quadrature of order
    2 * dimension on every inter-knot interval, which is exact for the
    piecewise polynomial integrands; the Fourier case uses the closed forms
    of the orthonormal system (J identity, Q diagonal with the fourth powers
    of the angular frequencies).
    """
    G = spec.dimension
    if spec.kind == "fourier":
        T = spec.length
        J = np.eye(G)
        qdiag = np.zeros(G)
        for col in range(1, G):
            k = (col + 1) // 2
            qdiag[col] = (2.0 * np.pi * k / T) ** 4
        Q = np.diag(qdiag)
    else:
        breaks = np.unique(_bspline_knots(spec))
        nodes, weights = np.polynomial.legendre.leggauss(2 * G)
        J = np.zeros((G, G))
        Q = np.zeros((G, G))
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (hi - lo)
            x = lo + half * (nodes + 1.0)
            w = half * weights
            B = evaluate_basis(spec, x)
            D2 = evaluate_basis_deriv2(spec, x)
            J += (B * w[:, None]).T @ B
            Q += (D2 * w[:, None]).T @ D2
        J, Q = 0.5 * (J + J.T), 0.5 * (Q + Q.T)
    J.flags.writeable = Q.flags.writeable = False
    return GramPair(J=J, Q=Q)
