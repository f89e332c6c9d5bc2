"""Granger network extraction, support-recovery metrics and CIDR ingestion."""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass

import numpy as np

from .basis import evaluate_basis
from .errors import ConfigError, DataError
from .panel import CurvePanel
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
    relative_error: float | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr"])
            for f, t in zip(self.fpr, self.tpr):
                writer.writerow([repr(float(f)), repr(float(t))])
            writer.writerow(["auroc", repr(float(self.auroc))])


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

    edges = []
    if threshold is not None:
        if threshold < 0:
            raise ConfigError("threshold must be nonnegative")
        for j in range(p):
            for k in range(p):
                if weights[j, k] > threshold:
                    edges.append(Edge(source=k, target=j,
                                      weight=float(weights[j, k]),
                                      lag_weights=list(lag_w[:, j, k])))
    else:
        if not 1 <= indegree <= p:
            raise ConfigError("indegree must be in [1, p]")
        for j in range(p):
            candidates = [k for k in range(p) if include_self or k != j]
            ranked = sorted(candidates, key=lambda k: (-weights[j, k], k))
            for k in ranked[: min(indegree, len(ranked))]:
                edges.append(Edge(source=k, target=j,
                                  weight=float(weights[j, k]),
                                  lag_weights=list(lag_w[:, j, k])))
    return CausalGraph(nodes=nodes, edges=edges)


def roc_points(est_supports, true_support) -> EvalReport:
    """TPR/FPR for a sequence of boolean support matrices against the truth,
    with the curve augmented by the (0,0) and (1,1) corners."""
    truth = np.asarray(true_support, dtype=bool)
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())
    pts = {(0.0, 0.0), (1.0, 1.0)}
    for est in est_supports:
        est = np.asarray(est, dtype=bool)
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


def relative_error(kernels: KernelEstimate, truth: VFARModel,
                   grid_size: int = 200) -> float:
    """||Ahat - A||_F / ||A||_F in the functional Frobenius norm, with every
    Hilbert-Schmidt norm evaluated by trapezoid quadrature on a common grid."""
    if kernels.L != truth.L:
        raise ConfigError("lag orders of estimate and truth differ")
    a, b = truth.basis.domain
    u = np.linspace(a, b, grid_size)
    w = np.full(grid_size, (b - a) / (grid_size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    S = evaluate_basis(truth.basis, u)
    phis = [m.eigenfunctions(u) for m in kernels.kl_models]
    num = 0.0
    den = 0.0
    for h in range(truth.L):
        for j in range(truth.p):
            for k in range(truth.p):
                true_k = S @ truth.blocks[h, j, k] @ S.T
                est_k = phis[j] @ kernels.psi[h][j][k].T @ phis[k].T
                diff = est_k - true_k
                num += float(w @ (diff * diff) @ w)
                den += float(w @ (true_k * true_k) @ w)
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


def read_price_csv(path):
    """Read long-format prices (date, ticker, minute_index, price).

    Returns (prices, tickers, dates) with days ordered by date and tickers by
    first appearance; missing or repeated (date, ticker, minute)
    combinations are an error.  Rows are parsed into flat typed arrays and
    scattered into the panel at the end, so memory stays near that of the
    panel itself.
    """
    dates: dict[str, int] = {}
    tickers: dict[str, int] = {}
    day_of, ticker_of, minutes = array("q"), array("q"), array("q")
    values = array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        try:
            c_date, c_tick, c_minute, c_price = (
                header.index(c) for c in ("date", "ticker", "minute_index", "price"))
        except ValueError:
            raise DataError(f"{path}: need columns date, ticker, minute_index "
                            f"and price, got {header}") from None
        for line, rec in enumerate(reader, start=2):
            try:
                minute, price = int(rec[c_minute]), float(rec[c_price])
            except (IndexError, ValueError):
                raise DataError(f"{path}, line {line}: unparsable row {rec}") from None
            day_of.append(dates.setdefault(rec[c_date], len(dates)))
            ticker_of.append(tickers.setdefault(rec[c_tick], len(tickers)))
            minutes.append(minute)
            values.append(price)
    if not values:
        raise DataError(f"{path}: no price rows")
    minute_idx = np.frombuffer(minutes, dtype=np.int64)
    if minute_idx.min() < 0:
        raise DataError(f"{path}: negative minute_index")
    days = sorted(dates)
    day_rank = np.empty(len(days), dtype=np.int64)
    day_rank[[dates[d] for d in days]] = np.arange(len(days))
    day_idx = day_rank[np.frombuffer(day_of, dtype=np.int64)]
    tick_idx = np.frombuffer(ticker_of, dtype=np.int64)
    prices = np.full((len(days), len(tickers), int(minute_idx.max()) + 1), np.nan)
    prices[day_idx, tick_idx, minute_idx] = np.frombuffer(values, dtype=float)
    filled = prices.size - np.count_nonzero(np.isnan(prices))
    if len(values) > filled:
        # more rows than filled cells: a repeated key, or a NaN price
        cells = np.ravel_multi_index((day_idx, tick_idx, minute_idx), prices.shape)
        order = np.argsort(cells, kind="stable")
        repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
        if repeats.size:
            row = int(repeats.min())
            raise DataError(
                f"{path}, line {row + 2}: duplicate row for date "
                f"{days[day_idx[row]]}, ticker {list(tickers)[tick_idx[row]]}, "
                f"minute {minute_idx[row]}")
    if filled < prices.size:
        raise DataError("price panel has missing (date, ticker, minute) cells")
    return prices, list(tickers), days
