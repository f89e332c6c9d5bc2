"""The four workloads: inputs made in set-up, timed operations, checks.

A workload is a class with three methods.  ``setup(seed, work)`` makes the
inputs from the seed and writes any files into ``work``; it is timed as
``setup_s``.  ``run_pass(inputs, work, ops)`` performs the timed operations
through ``ops`` and returns the outputs to check.  ``check(inputs, out)``
verifies them with the benchmark's own numpy (see checks.py) and returns
the quality numbers; it raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np

import checks
import generators as gen
from checks import require
# fvar's functions are looked up on their modules at call time, so the
# wrappers a traced pass installs there are the ones called
from fvar import cli, harness, moments, network, pipeline, solver
from fvar.basis import BasisSpec, evaluate_basis
from fvar.fpca import KLModel


class OpFailed(Exception):
    """An operation of the workload raised or returned a failure code."""


class Ops:
    """Runs a pass's operations, timing each into named stage totals."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.done = 0

    def call(self, stages, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is one failed op
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc
        elapsed = time.perf_counter() - start
        for stage in stages:
            self.stages[stage] = self.stages.get(stage, 0.0) + elapsed
        self.done += 1
        return result

    def cli(self, stages, argv: list[str]) -> None:
        def command():
            with self.tracer.span("cli." + argv[0]), \
                    contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        code = self.call(stages, command)
        if code != 0:
            raise OpFailed(f"fvar {' '.join(argv)} exited with {code}")


def _kernels_psi(kernels_json: dict) -> list:
    return [[[np.asarray(b) for b in row] for row in lag]
            for lag in kernels_json["psi"]]


def _kernel_error(psi, kl_models: list, truth) -> float:
    u, w = checks.simpson_weights(*truth.basis.domain)
    phis = [m.eigenfunctions(u) for m in kl_models]
    return checks.kernel_relative_error(psi, phis, truth.blocks,
                                        evaluate_basis(truth.basis, u), w)


def _check_fitted_outputs(fit_dir: Path, gamma: float) -> dict:
    """Converged rows and a KKT certificate for every row of an fvar fit."""
    fits = json.loads((fit_dir / "fits.json").read_text())
    kernels = json.loads((fit_dir / "kernels.json").read_text())
    bad = [f["j"] for f in fits if not f["converged"]]
    require(not bad, f"rows {bad} did not converge")
    require(all(f["gamma"] == gamma for f in fits), "fits.json gamma differs")
    scores = [np.asarray(m["scores"]) for m in kernels["kl_models"]]
    kkt = checks.kkt_worst(scores, [f["psi"] for f in fits],
                           [f["gamma"] for f in fits], L=kernels["L"])
    require(kkt <= checks.KKT_TOL,
            f"worst scaled KKT residual {kkt:.3e} > {checks.KKT_TOL}")
    return {"kernels": kernels, "solver.kkt_worst": kkt}


# -------------------------------------------------------------- desk-path

class DeskPath:
    """The paper's simulation at desk scale, in-process with threads=1."""

    name = "desk-path"
    ops_per_pass = 7
    why = ("banded VFAR p=20 n=200, 50-point warm-started paths: the solver "
           "does ~97% of the work; the single-thread baseline")
    sizes = {
        "full": dict(p=20, n=200, grid=50, basis=15, q=[4, 5, 6],
                     eta=[0.0, 1e-4, 1e-2], folds=5, n_gammas=50),
        "smoke": dict(p=12, n=250, grid=20, basis=8, q=[2, 3],
                      eta=[0.0, 1e-2], folds=3, n_gammas=8),
    }
    extra_metrics = {"fit_s": "s", "auroc": "1", "kernel_rel_error": "1"}

    def __init__(self, size: str):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, work: Path):
        c = self.cfg
        truth = gen.banded_truth(c["p"], seed)
        return seed, truth, gen.simulated_panel(truth, c["n"], c["grid"], seed)

    def run_pass(self, inputs, work: Path, ops: Ops):
        seed, truth, panel = inputs
        c = self.cfg
        fit = ("fit_s",)
        stage1 = ops.call(fit, pipeline.fpca_panel, panel, BasisSpec("bspline", c["basis"]),
                          c["q"], c["eta"], folds=c["folds"], seed=seed, threads=1)
        design = ops.call(fit, solver.build_design, stage1.kl_models, 1)
        paths, estimates = ops.call(fit, pipeline.sweep_path, design, stage1.kl_models,
                                    n_gammas=c["n_gammas"], threads=1)
        selected = ops.call(fit, lambda: [min(path, key=lambda f: f.bic)
                                          for path in paths])
        kernels = ops.call(fit, solver.recover_kernels, selected, stage1.kl_models)
        report = ops.call((), network.roc_and_auroc, estimates, truth)
        rel = ops.call((), network.relative_error, kernels, truth)
        return dict(stage1=stage1, estimates=estimates, selected=selected,
                    kernels=kernels, auroc=report.auroc, rel=rel)

    def check(self, inputs, out) -> dict:
        _, truth, _ = inputs
        scores = [m.scores for m in out["stage1"].kl_models]
        kkt = checks.kkt_worst(scores, [f.psi for f in out["selected"]],
                               [f.gamma for f in out["selected"]])
        require(kkt <= checks.KKT_TOL,
                f"worst scaled KKT residual {kkt:.3e} > {checks.KKT_TOL}")
        rel = _kernel_error(out["kernels"].psi, out["stage1"].kl_models, truth)
        require(rel < 1.0, f"BIC kernel relative error {rel:.4f} >= 1")
        require(abs(rel - out["rel"]) <= 1e-3 * rel,
                f"relative_error {out['rel']!r} vs own quadrature {rel!r}")
        auroc = checks.auroc([checks.psi_support(e.psi) for e in out["estimates"]],
                             truth.support())
        require(abs(auroc - out["auroc"]) <= 1e-12,
                f"roc_and_auroc {out['auroc']!r} vs own {auroc!r}")
        require(auroc >= checks.AUROC_FLOOR,
                f"AUROC {auroc:.4f} < {checks.AUROC_FLOOR}")
        return {"auroc": auroc, "kernel_rel_error": rel, "solver.kkt_worst": kkt}


# ---------------------------------------------------------------- p80-fit

class P80Fit:
    """The paper's p>n regime through the CLI: one cold-start fit per row."""

    name = "p80-fit"
    ops_per_pass = 4
    why = ("paper-n200-p80 panel, fvar fit at one fixed gamma with --threads 2, "
           "then fvar network: r=400 predictors against n-L=199")
    sizes = {
        "full": dict(p=80, n=200, grid=50, gamma=60.0, indegree=5, extra=[]),
        "smoke": dict(p=8, n=80, grid=20, gamma=20.0, indegree=3,
                      extra=["--basis-dim", "8", "--q-grid", "2,3",
                             "--eta-grid", "0,0.01", "--folds", "3"]),
    }
    extra_metrics = {"fit_s": "s", "kernel_rel_error": "1"}

    def __init__(self, size: str):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, work: Path):
        c = self.cfg
        truth = gen.banded_truth(c["p"], seed)
        gen.simulated_panel(truth, c["n"], c["grid"], seed).to_npz(work / "panel.npz")
        return seed, truth

    def run_pass(self, inputs, work: Path, ops: Ops):
        seed, truth = inputs
        c = self.cfg
        fit_dir, net_dir = work / "fit", work / "net"
        ops.cli(("fit_s",), ["fit", "--panel", str(work / "panel.npz"),
                             "--gamma", repr(c["gamma"]), "--threads", "2",
                             "--seed", str(seed), "--out", str(fit_dir)]
                + c["extra"])
        ops.cli((), ["network", "--kernels", str(fit_dir / "kernels.json"),
                     "--indegree", str(c["indegree"]), "--out", str(net_dir)])
        kernels = ops.call((), lambda: solver.KernelEstimate.from_json(
            (fit_dir / "kernels.json").read_text()))
        rel = ops.call((), network.relative_error, kernels, truth)
        return dict(fit_dir=fit_dir, net_dir=net_dir, rel=rel,
                    kernels_json_bytes=(fit_dir / "kernels.json").stat().st_size)

    def check(self, inputs, out) -> dict:
        _, truth = inputs
        res = _check_fitted_outputs(out["fit_dir"], self.cfg["gamma"])
        psi = _kernels_psi(res["kernels"])
        kl = [KLModel.from_dict(m) for m in res["kernels"]["kl_models"]]
        rel = _kernel_error(psi, kl, truth)
        require(rel < 1.0, f"kernel relative error {rel:.4f} >= 1")
        require(abs(rel - out["rel"]) <= 1e-3 * rel,
                f"relative_error {out['rel']!r} vs own quadrature {rel!r}")
        graph = json.loads((out["net_dir"] / "graph.json").read_text())
        checks.check_graph(graph, psi, self.cfg["indegree"])
        return {"kernel_rel_error": rel, "solver.kkt_worst": res["solver.kkt_worst"]}


# ------------------------------------------------------------ cidr-ingest

class CidrIngest:
    """The financial application: price CSV to CIDR panel to network."""

    name = "cidr-ingest"
    ops_per_pass = 3
    why = ("40 tickers x 250 days x 78 points price CSV (~29 MB): "
           "read_price_csv and CurvePanel.to_csv dominate, the solver is small")
    sizes = {
        "full": dict(days=250, p=40, T=78, q=4, gamma=20.0, indegree=3),
        "smoke": dict(days=40, p=5, T=20, q=3, gamma=5.0, indegree=2),
    }
    extra_metrics = {"ingest_s": "s", "fit_s": "s"}

    def __init__(self, size: str):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, work: Path):
        c = self.cfg
        prices = gen.intraday_prices(seed, c["days"], c["p"], c["T"])
        days, tickers = gen.write_price_csv(work / "prices.csv", prices)
        return seed, prices, days, tickers

    def run_pass(self, inputs, work: Path, ops: Ops):
        seed = inputs[0]
        c = self.cfg
        ing, fit_dir, net_dir = work / "ingest", work / "fit", work / "net"
        ops.cli(("ingest_s",), ["ingest-cidr", "--prices", str(work / "prices.csv"),
                                "--out", str(ing)])
        ops.cli(("fit_s",), ["fit", "--panel", str(ing / "panel.npz"),
                             "--q", str(c["q"]), "--eta", "0",
                             "--gamma", repr(c["gamma"]), "--seed", str(seed),
                             "--out", str(fit_dir)])
        ops.cli((), ["network", "--kernels", str(fit_dir / "kernels.json"),
                     "--indegree", str(c["indegree"]), "--out", str(net_dir)])
        return dict(ingest_dir=ing, fit_dir=fit_dir, net_dir=net_dir,
                    kernels_json_bytes=(fit_dir / "kernels.json").stat().st_size)

    def check(self, inputs, out) -> dict:
        _, prices, days, tickers = inputs
        with np.load(out["ingest_dir"] / "panel.npz", allow_pickle=False) as data:
            values, ids = data["values"], [str(s) for s in data["ids"]]
        require(ids == tickers, "panel ids differ from the CSV tickers")
        require(json.loads((out["ingest_dir"] / "days.json").read_text()) == days,
                "days.json differs from the CSV dates")
        gap = float(np.abs(values - checks.expected_cidr(prices)).max())
        require(gap <= checks.CIDR_TOL, f"CIDR panel off by {gap:.3e}")
        res = _check_fitted_outputs(out["fit_dir"], self.cfg["gamma"])
        graph = json.loads((out["net_dir"] / "graph.json").read_text())
        checks.check_graph(graph, _kernels_psi(res["kernels"]), self.cfg["indegree"])
        return {"cidr_gap": gap, "solver.kkt_worst": res["solver.kkt_worst"]}


# -------------------------------------------------------------- stability

SWEEP_A = [0.1, 0.3, 0.5, 0.7, 0.9]        # fvar stability's defaults
SWEEP_B = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
C07 = dict(p=5, q0=3, ns=(250, 500, 1000, 2000, 4000), reps=100, seed=0)


class Stability:
    """The theory tools: one large dense measure, many tiny ones, and the
    concentration harness."""

    name = "stability"
    ops_per_pass = 4
    why = ("d=100 stability measure (LAPACK-bound), the default 35-system "
           "2x2 CLI sweep (call-overhead-bound) and the c07 harness fixtures")
    sizes = {
        "full": dict(d=100, theta=1024, sweep_args=[],
                     sweep=(SWEEP_A, SWEEP_B, 1024)),
        "smoke": dict(d=10, theta=256,
                      sweep_args=["--a-values", "0.2,0.8", "--b-values", "0,1",
                                  "--theta-grid", "256"],
                      sweep=([0.2, 0.8], [0.0, 1.0], 256)),
    }
    extra_metrics = {"stability_s": "s", "sweep_s": "s"}

    def __init__(self, size: str):
        self.cfg = self.sizes[size]

    def setup(self, seed: int, work: Path):
        return gen.var1_system(seed, self.cfg["d"])

    def run_pass(self, inputs, work: Path, ops: Ops):
        C, noise, _ = inputs
        report = ops.call(("stability_s",), moments.stability_measure_var1, C, noise,
                          self.cfg["theta"])
        sweep_dir = work / "sweep"
        ops.cli(("sweep_s",), ["stability", "--out", str(sweep_dir)]
                + self.cfg["sweep_args"])
        iid = ops.call((), harness.run_concentration, ar=0.0, **C07)
        dep = ops.call((), harness.run_concentration, ar=0.5, **C07)
        return dict(value=report.value, sweep_dir=sweep_dir, iid=iid, dep=dep)

    def check(self, inputs, out) -> dict:
        _, _, a = inputs
        closed = checks.stability_closed_form(a, self.cfg["theta"])
        gap = abs(out["value"] - closed)
        require(gap <= checks.STABILITY_TOL,
                f"d={a.size} stability {out['value']!r} vs closed form {closed!r}")

        a_vals, b_vals, theta = self.cfg["sweep"]
        with open(out["sweep_dir"] / "stability.csv", newline="") as fh:
            rows = [[float(x) for x in r] for r in list(csv.reader(fh))[1:]]
        require([(r[0], r[1]) for r in rows] == [(x, y) for x in a_vals for y in b_vals],
                "sweep rows are not the expected (a, b) grid")
        sweep_gap = 0.0
        for a_, b_, norm, value in rows:
            want_norm, want_value = checks.stability_2x2(a_, b_, 1.0, theta)
            sweep_gap = max(sweep_gap, abs(norm - want_norm), abs(value - want_value))
        require(sweep_gap <= checks.STABILITY_TOL,
                f"sweep row off by {sweep_gap:.3e}")

        lo, hi = checks.SLOPE_RANGE
        slopes = out["iid"].slopes
        require(all(lo <= s <= hi for s in slopes.values()),
                f"concentration slopes {slopes} outside [{lo}, {hi}]")
        require(all(np.all(np.asarray(out["dep"].medians[m])
                           > np.asarray(out["iid"].medians[m]))
                    for m in out["iid"].medians),
                "dependent fixture does not dominate the independent one")
        return {"stability_gap": gap, "sweep_gap": sweep_gap}


WORKLOADS = {w.name: w for w in (DeskPath, P80Fit, CidrIngest, Stability)}
