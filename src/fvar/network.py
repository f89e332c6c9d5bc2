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
    candidates unless ``include_self`` is False, and each target gets
    exactly ``indegree`` sources: at most p, or p-1 without self-loops.
    """
    if (threshold is None) == (indegree is None):
        raise ConfigError("give exactly one of threshold or indegree")
    weights = kernels.edge_weights()
    lag_w = kernels.hs
    p = weights.shape[0]
    nodes = list(labels) if labels is not None else [f"x{j}" for j in range(p)]
    if len(nodes) != p:
        raise ConfigError("labels length does not match the variable count")
    for i, label in enumerate(nodes):  # each must name one DOT node
        if label in nodes[:i] or set(str(label)) & set('"\\\r\n'):
            raise ConfigError(f"label {label!r} repeats or holds a quote, "
                              "backslash or line break")

    if threshold is not None:
        if not threshold >= 0:
            raise ConfigError(f"threshold must be >= 0; got {threshold!r}")
        sources = [[k for k in range(p) if weights[j, k] > threshold]
                   for j in range(p)]
    else:
        name, top = ("p", p) if include_self else ("p-1", p - 1)
        if not 1 <= indegree <= top:
            raise ConfigError(f"indegree must be in [1, {name}] = [1, {top}]"
                              + ("" if include_self else
                                 " when self-loops are excluded")
                              + f"; got {indegree}")
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
# Largest (p, rows, rows) float array of kernel-difference blocks that one
# chunk of target variables in ``relative_error`` builds.
_CHUNK_BYTES = 64 * 1024


def _times_transposed(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every block left_j[:, k block] @ right_k^T, for left (c, m, p n) with
    its columns split into p blocks of n and right (p, m, n); stacked as
    (p, c m, m), one batched matmul over k."""
    c, m, _ = left.shape
    p, _, n = right.shape
    stacked = left.reshape(c, m, p, n).transpose(2, 0, 1, 3).reshape(p, c * m, n)
    return stacked @ right.transpose(0, 2, 1)


def relative_error(kernels: KernelEstimate, truth: VFARModel) -> float:
    """||Ahat - A||_F / ||A||_F in the functional Frobenius norm, with every
    Hilbert-Schmidt norm evaluated by trapezoid quadrature, weights W, on a
    common grid of GRID_SIZE points.  With [U_j | V_j] the R factor of
    sqrt(W) [Phi_j | S], for variable j's eigenfunctions Phi_j and the
    truth's basis S on the grid, the quadrature of the squared difference of
    kernels (j, k) is ||U_j Psi_jk^T U_k^T - V_j B_jk V_k^T||_F^2.

    Each distinct basis is evaluated on the grid once.  The U_j are
    zero-padded to a common shape, and the Psi_jk^T to q x q with q the
    largest q_j, so that all (j, k) products of a lag are batched matmuls
    over j and then k, in chunks of target variables j under
    ``_CHUNK_BYTES``; the zeros add nothing to the sums."""
    if (kernels.L, kernels.p) != (truth.L, truth.p):
        raise ConfigError(f"the estimate has L={kernels.L}, p={kernels.p} but "
                          f"the true model has L={truth.L}, p={truth.p}")
    a, b = truth.basis.domain
    u = np.linspace(a, b, GRID_SIZE)
    w = np.full(GRID_SIZE, (b - a) / (GRID_SIZE - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    root_w = np.sqrt(w)[:, None]
    models = kernels.kl_models
    values = {spec: evaluate_basis(spec, u)
              for spec in {truth.basis} | {m.basis for m in models}}
    S = root_w * values[truth.basis]
    R = [np.linalg.qr(np.hstack([root_w * (values[m.basis] @ m.eigen_coeffs.T), S]),
                      mode="r") for m in models]
    p, G = truth.p, S.shape[1]
    q, rows = max(m.q for m in models), max(r.shape[0] for r in R)
    U, V = np.zeros((p, rows, q)), np.zeros((p, rows, G))
    for j, r in enumerate(R):
        U[j, :r.shape[0], :r.shape[1] - G] = r[:, :-G]
        V[j, :r.shape[0]] = r[:, -G:]
    # padded positions of variable j's components: j q, ..., j q + q_j - 1
    pos = np.concatenate([j * q + np.arange(m.q) for j, m in enumerate(models)])
    o = kernels.offsets
    chunk = max(1, _CHUNK_BYTES // (8 * p * rows * rows))
    num = den = 0.0
    Q = o[-1]
    for h, blocks in enumerate(truth.blocks):
        for lo in range(0, p, chunk):
            hi = min(lo + chunk, p)
            n = hi - lo
            # row j of the chunk: [Psi_j1^T ... Psi_jp^T], and [B_j1 ... B_jp]
            psi_rows = np.zeros((n * q, p * q))
            psi_rows[np.ix_(pos[o[lo]:o[hi]] - lo * q, pos)] = np.vstack(
                [c[h * Q:(h + 1) * Q].T for c in kernels.columns[lo:hi]])
            b_rows = blocks[lo:hi].transpose(0, 2, 1, 3).reshape(n, G, p * G)
            true = _times_transposed(V[lo:hi] @ b_rows, V)
            diff = _times_transposed(U[lo:hi] @ psi_rows.reshape(n, q, p * q), U)
            diff -= true
            num += float(np.vdot(diff, diff))
            den += float(np.vdot(true, true))
    if den == 0.0:
        raise DataError("reference model has identically zero kernels")
    return float(np.sqrt(num / den))


def cidr_transform(prices: np.ndarray, ids=None,
                   demean: bool = True) -> CurvePanel:
    """Cumulative intraday return curves, in percent:
    100 (log P(u) - log P(open)), optionally centered per variable, on the
    uniform grid of [0, 1] with one point per intraday price."""
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
    return CurvePanel(values=curves, grid=np.linspace(0.0, 1.0, prices.shape[2]),
                      ids=list(ids) if ids else [])
