"""Granger network extraction, support-recovery metrics and CIDR ingestion."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .basis import evaluate_basis
from .errors import ConfigError, DataError
from .panel import CurvePanel, read_price_csv, write_csv  # noqa: F401
from .solver import KernelEstimate
from .vfar import VFARModel


@dataclass
class Edge:
    source: int
    target: int
    weight: float
    lag_weights: list


@dataclass
class CausalGraph:
    """Directed graph: edge k -> j when variable k drives variable j."""

    nodes: list
    edges: list

    def adjacency(self) -> np.ndarray:
        p = len(self.nodes)
        out = np.zeros((p, p), dtype=bool)
        for e in self.edges:
            out[e.target, e.source] = True
        return out

    def indegrees(self) -> np.ndarray:
        p = len(self.nodes)
        deg = np.zeros(p, dtype=int)
        for e in self.edges:
            deg[e.target] += 1
        return deg

    def to_dot(self) -> str:
        lines = ["digraph granger {"]
        for name in self.nodes:
            lines.append(f'  "{name}";')
        for e in self.edges:
            lines.append(f'  "{self.nodes[e.source]}" -> "{self.nodes[e.target]}"'
                         f' [weight={e.weight:.6g}];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "nodes": list(self.nodes),
            "edges": [{"source": int(e.source), "target": int(e.target),
                       "weight": float(e.weight),
                       "lag_weights": [float(w) for w in e.lag_weights]}
                      for e in self.edges],
        })


@dataclass
class EvalReport:
    """ROC points along a regularization path plus the trapezoid AUROC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auroc: float

    def to_csv(self, path) -> None:
        write_csv(path, ["fpr", "tpr"],
                  [*zip(self.fpr, self.tpr), ("auroc", self.auroc)])


def extract_network(kernels: KernelEstimate, threshold: float | None = None,
                    indegree: int | None = None, include_self: bool = True,
                    labels=None) -> CausalGraph:
    """Keep edges by weight threshold or by per-target indegree.

    Edge weights aggregate lags by the maximum Hilbert-Schmidt norm.  Under
    the indegree rule ties go to the smaller source index; self-loops are
    candidates unless ``include_self`` is False.
    """
    if (threshold is None) == (indegree is None):
        raise ConfigError("give exactly one of threshold or indegree")
    weights = kernels.edge_weights()
    lag_w = kernels.hs
    p = weights.shape[0]
    nodes = list(labels) if labels is not None else [f"x{j}" for j in range(p)]
    if len(nodes) != p:
        raise ConfigError("labels length does not match the variable count")

    if threshold is not None:
        if threshold < 0:
            raise ConfigError("threshold must be nonnegative")
        sources = [[k for k in range(p) if weights[j, k] > threshold]
                   for j in range(p)]
    else:
        if not 1 <= indegree <= p:
            raise ConfigError("indegree must be in [1, p]")
        sources = [sorted((k for k in range(p) if include_self or k != j),
                          key=lambda k: (-weights[j, k], k))[:indegree]
                   for j in range(p)]
    return CausalGraph(nodes=nodes, edges=[
        Edge(source=k, target=j, weight=float(weights[j, k]),
             lag_weights=list(lag_w[:, j, k]))
        for j in range(p) for k in sources[j]])


def roc_points(est_supports, true_support) -> EvalReport:
    """TPR/FPR for a sequence of boolean support matrices against the truth,
    with the curve augmented by the (0,0) and (1,1) corners."""
    truth = np.asarray(true_support, dtype=bool)
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())
    pts = {(0.0, 0.0), (1.0, 1.0)}
    for est in est_supports:
        est = np.asarray(est, dtype=bool)
        if est.shape != truth.shape:
            raise ConfigError(f"an estimate has p={len(est)} variables but the "
                              f"truth has p={len(truth)}")
        tp = int((est & truth).sum())
        fp = int((est & ~truth).sum())
        tpr = tp / n_pos if n_pos else 1.0
        fpr = fp / n_neg if n_neg else 0.0
        pts.add((fpr, tpr))
    arr = np.array(sorted(pts))
    fpr, tpr = arr[:, 0], arr[:, 1]
    return EvalReport(fpr=fpr, tpr=tpr, auroc=float(np.trapezoid(tpr, fpr)))


def roc_and_auroc(path, truth: VFARModel) -> EvalReport:
    """Support-recovery ROC of a path of kernel estimates against a model."""
    return roc_points([est.support() for est in path], truth.support())


GRID_SIZE = 200


def relative_error(kernels: KernelEstimate, truth: VFARModel) -> float:
    """||Ahat - A||_F / ||A||_F in the functional Frobenius norm, with every
    Hilbert-Schmidt norm evaluated by trapezoid quadrature, weights W, on a
    common grid of GRID_SIZE points.  With [U_j | V_j] the R factor of
    sqrt(W) [Phi_j | S], for variable j's eigenfunctions Phi_j and the
    truth's basis S on the grid, the quadrature of the squared difference of
    kernels (j, k) is ||U_j Psi_jk^T U_k^T - V_j B_jk V_k^T||_F^2."""
    if (kernels.L, kernels.p) != (truth.L, truth.p):
        raise ConfigError(f"the estimate has L={kernels.L}, p={kernels.p} but "
                          f"the true model has L={truth.L}, p={truth.p}")
    a, b = truth.basis.domain
    u = np.linspace(a, b, GRID_SIZE)
    w = np.full(GRID_SIZE, (b - a) / (GRID_SIZE - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    root_w = np.sqrt(w)[:, None]
    S = root_w * evaluate_basis(truth.basis, u)
    G = S.shape[1]
    R = [np.linalg.qr(np.hstack([root_w * m.eigenfunctions(u), S]), mode="r")
         for m in kernels.kl_models]
    U, V = [r[:, :-G] for r in R], [r[:, -G:] for r in R]
    o = kernels.offsets
    num = den = 0.0
    for lag, blocks in zip(kernels.lags, truth.blocks):
        for j in range(truth.p):
            est = U[j] @ lag[:, o[j]:o[j + 1]].T  # U_j Psi_jk^T, side by side
            true = V[j] @ blocks[j]               # V_j B_jk, stacked over k
            for k in range(truth.p):
                true_k = true[k] @ V[k].T
                diff = est[:, o[k]:o[k + 1]] @ U[k].T - true_k
                num += float(np.vdot(diff, diff))
                den += float(np.vdot(true_k, true_k))
    if den == 0.0:
        raise DataError("reference model has identically zero kernels")
    return float(np.sqrt(num / den))


def cidr_transform(prices: np.ndarray, grid=None, ids=None,
                   demean: bool = True) -> CurvePanel:
    """Cumulative intraday return curves, in percent:
    100 (log P(u) - log P(open)), optionally centered per variable."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 3:
        raise ConfigError("prices must be an (n, p, T) array")
    bad = np.argwhere(~(prices > 0))
    if bad.size:
        t, j, s = bad[0]
        raise DataError(f"nonpositive price at day={t}, variable={j}, point={s}")
    curves = 100.0 * (np.log(prices) - np.log(prices[:, :, :1]))
    if demean:
        curves = curves - curves.mean(axis=0, keepdims=True)
    if grid is None:
        grid = np.linspace(0.0, 1.0, prices.shape[2])
    return CurvePanel(values=curves, grid=np.asarray(grid, dtype=float),
                      ids=list(ids) if ids else [])
