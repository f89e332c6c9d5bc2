"""Command-line surface.

Subcommands: simulate | fit | path | select | network | stability |
verify-concentration | ingest-cidr.  Every command writes a manifest.json
(resolved configuration, seed and library versions) next to its outputs so a
run can be reproduced bit-exactly.

Exit codes: 0 success, 2 configuration/data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisSpec
from .errors import ConfigError, DataError, NumericalError
from .harness import SCENARIOS, run_concentration
from .moments import stability_sweep
from .network import cidr_transform, extract_network, roc_and_auroc
from .panel import CurvePanel, read_price_csv, write_csv
from .pipeline import fit_vfar, fpca_panel, sweep_path
from .solver import KernelEstimate, accel_backend, build_design
from .vfar import VFARModel, gen_block_banded, gen_block_sparse, simulate


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out: Path) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "versions": {
            "fvar": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "kernel_backend": accel_backend(),
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _load_panel(path: str) -> CurvePanel:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"panel file not found: {p}")
    if p.suffix == ".npz":
        return CurvePanel.from_npz(p)
    return CurvePanel.from_csv(p)


def _load_model(path: str) -> VFARModel:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"model file not found: {p}")
    return VFARModel.from_json(p.read_text())


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    out = _outdir(args)
    if args.preset:
        if args.preset not in SCENARIOS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"choices: {sorted(SCENARIOS)}")
        sc = SCENARIOS[args.preset]
        n, p = sc.n, sc.p
        grid_size, basis_dim = sc.grid_size, sc.basis_dim
        sigma_e, degree, bandwidth = sc.measurement_noise, sc.degree, sc.bandwidth
    else:
        if args.n is None or args.p is None:
            raise ConfigError("give --preset or both --n and --p")
        n, p = args.n, args.p
        grid_size, basis_dim = args.grid_size, args.basis_dim
        sigma_e, degree, bandwidth = args.sigma_e, args.degree, args.bandwidth

    if args.model == "sparse":
        model = gen_block_sparse(p, G=basis_dim, per_row_degree=degree,
                                 seed=args.seed, measurement_noise=sigma_e)
    else:
        model = gen_block_banded(p, G=basis_dim, bandwidth=bandwidth,
                                 seed=args.seed, measurement_noise=sigma_e)

    grid = np.linspace(0.0, 1.0, grid_size)
    panel = simulate(model, n, grid=grid, burn_in=args.burn_in,
                     seed=args.seed, stream=1)
    panel.to_csv(out / "panel.csv")
    panel.to_npz(out / "panel.npz")
    (out / "model.json").write_text(model.to_json())
    _write_manifest(args, out)
    print(f"wrote panel ({n} x {p} x {grid_size}) and model to {out}")
    return 0


# --------------------------------------------------------------------- fit

def _stage1_inputs(args) -> dict:
    """Stage-1 arguments shared by fit, path and select: the panel, the
    basis, the q and eta grids, folds and seed."""
    return {
        "panel": _load_panel(args.panel),
        "basis": BasisSpec(kind=args.basis, dimension=args.basis_dim),
        "q_grid": [args.q] if args.q else _ints(args.q_grid),
        "eta_grid": [args.eta] if args.eta is not None else _floats(args.eta_grid),
        "folds": args.folds, "seed": args.seed,
    }


def _stage1_csv(out: Path, stage1) -> None:
    write_csv(out / "fpca_selection.csv", ["variable", "q", "eta"],
              [(j, q, eta) for j, (q, eta) in enumerate(stage1.selections)])


def _fit(args, gamma):
    """The three-stage fit of fit and select, at a fixed gamma or, when
    gamma is None, at the one selected by ``--ic``; writes
    fpca_selection.csv and the ic_table.csv of the evaluated path points."""
    out = _outdir(args)
    kernels, fits, stage1, ic_rows = fit_vfar(
        **_stage1_inputs(args), L=args.L, gamma=gamma, criterion=args.ic,
        n_gammas=args.n_gammas, min_ratio=args.min_gamma_ratio,
        tol=args.tol, max_iter=args.max_iter)
    _stage1_csv(out, stage1)
    if ic_rows:
        write_csv(out / "ic_table.csv",
                  ["variable", "gamma", "rss", "df", "aic", "bic"], ic_rows)
    return out, kernels, fits


def cmd_fit(args) -> int:
    out, kernels, fits = _fit(args, args.gamma)
    (out / "kernels.json").write_text(kernels.to_json())
    (out / "fits.json").write_text(json.dumps([f.to_dict() for f in fits]))
    write_csv(out / "hs_norms.csv", ["lag", "target", "source", "hs_norm"],
              [(h + 1, j, k, float(kernels.hs[h, j, k]))
               for h in range(kernels.L)
               for j in range(kernels.p) for k in range(kernels.p)])
    _write_manifest(args, out)
    print(f"fitted {kernels.p} rows (L={args.L}); outputs in {out}")
    return 0


def cmd_path(args) -> int:
    inputs = _stage1_inputs(args)
    truth = _load_model(args.truth) if args.truth else None
    if truth is not None and truth.p != inputs["panel"].p:
        raise ConfigError(f"the panel has p={inputs['panel'].p} variables but "
                          f"the truth has p={truth.p}")
    out = _outdir(args)
    stage1 = fpca_panel(**inputs)
    design = build_design(stage1.kl_models, args.L)
    paths, estimates = sweep_path(design, stage1.kl_models,
                                  n_gammas=args.n_gammas,
                                  min_ratio=args.min_gamma_ratio,
                                  tol=args.tol, max_iter=args.max_iter)
    records = [{
        "index": i,
        "gammas": [paths[j][i].gamma for j in range(design.p)],
        "active_blocks": int(sum(int(f.active().sum()) for f in
                                 (paths[j][i] for j in range(design.p)))),
    } for i in range(len(estimates))]
    (out / "path.json").write_text(json.dumps(records))
    _stage1_csv(out, stage1)
    if truth is not None:
        report = roc_and_auroc(estimates, truth)
        report.to_csv(out / "roc.csv")
        print(f"AUROC over {len(estimates)} path points: {report.auroc:.4f}")
    _write_manifest(args, out)
    return 0


def cmd_select(args) -> int:
    out, _, fits = _fit(args, None)
    selected = [{"variable": f.j, "gamma": f.gamma, "df": f.df,
                 "aic": f.aic, "bic": f.bic,
                 "active_blocks": int(f.active().sum())} for f in fits]
    (out / "selected.json").write_text(json.dumps(selected))
    _write_manifest(args, out)
    print(f"selected gammas by {args.ic} for {len(fits)} rows; outputs in {out}")
    return 0


# ----------------------------------------------------------------- network

def cmd_network(args) -> int:
    out = _outdir(args)
    path = Path(args.kernels)
    if not path.exists():
        raise ConfigError(f"kernel file not found: {path}")
    kernels = KernelEstimate.from_json(path.read_text())
    labels = args.labels.split(",") if args.labels else None
    graph = extract_network(kernels, threshold=args.threshold,
                            indegree=args.indegree,
                            include_self=not args.no_self, labels=labels)
    (out / "graph.dot").write_text(graph.to_dot())
    (out / "graph.json").write_text(graph.to_json())
    _write_manifest(args, out)
    print(f"graph with {len(graph.edges)} edges written to {out}")
    return 0


# --------------------------------------------------------------- stability

def cmd_stability(args) -> int:
    out = _outdir(args)
    rows = stability_sweep(_floats(args.a_values), _floats(args.b_values),
                           sigma=args.sigma, theta_grid_size=args.theta_grid)
    write_csv(out / "stability.csv",
              ["a", "b", "operator_norm", "stability_measure"], rows)
    _write_manifest(args, out)
    print(f"stability sweep over {len(rows)} (a, b) pairs written to {out}")
    return 0


# ------------------------------------------------- concentration harness

def cmd_verify_concentration(args) -> int:
    out = _outdir(args)
    ns = _ints(args.ns)
    report = run_concentration(p=args.p, q0=args.q0, ns=ns, reps=args.reps,
                               seed=args.seed, ar=args.ar, alpha=args.alpha)
    result = {
        "ns": report.ns, "medians": report.medians, "slopes": report.slopes,
        "stability": report.stability, "reps": report.reps,
    }
    if args.compare_ar is not None:
        dep = run_concentration(p=args.p, q0=args.q0, ns=ns, reps=args.reps,
                                seed=args.seed, ar=args.compare_ar,
                                alpha=args.alpha)
        result["compare"] = {
            "ar": args.compare_ar, "stability": dep.stability,
            "medians": dep.medians, "slopes": dep.slopes,
            "dominates_everywhere": {
                m: bool(np.all(np.asarray(dep.medians[m]) >
                               np.asarray(report.medians[m])))
                for m in report.medians
            },
        }
    write_csv(out / "rates.csv",
              ["n", "sigma_max", "eigen_rel", "score_scaled"], report.rows())
    (out / "report.json").write_text(json.dumps(result, indent=2))
    _write_manifest(args, out)
    for name, slope in report.slopes.items():
        print(f"slope[{name}] = {slope:+.3f}")
    return 0


# ------------------------------------------------------------ CIDR ingest

def cmd_ingest_cidr(args) -> int:
    out = _outdir(args)
    prices, tickers, days = read_price_csv(args.prices)
    panel = cidr_transform(prices, ids=tickers, demean=not args.no_demean)
    panel.to_csv(out / "panel.csv")
    panel.to_npz(out / "panel.npz")
    (out / "days.json").write_text(json.dumps(days))
    _write_manifest(args, out)
    print(f"CIDR panel for {len(tickers)} tickers over {len(days)} days in {out}")
    return 0


# ------------------------------------------------------------------ parser

def _add_common(sp) -> None:
    sp.add_argument("--out", type=str, default="out")
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file with default values for the flags")


def _add_fit_like(sp) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--panel", required=True)
    sp.add_argument("--L", type=int, default=1)
    sp.add_argument("--basis", choices=["bspline", "fourier"], default="bspline")
    sp.add_argument("--basis-dim", type=int, default=15)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--q-grid", type=str, default="4,5,6")
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--eta-grid", type=str, default="0,1e-4,1e-2")
    sp.add_argument("--folds", type=int, default=5)
    sp.add_argument("--n-gammas", type=int, default=50)
    sp.add_argument("--min-gamma-ratio", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvar",
        description="Sparse vector functional autoregression toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}
    parser.command_parsers = registry

    def sub(name: str, **kwargs) -> argparse.ArgumentParser:
        registry[name] = subparsers.add_parser(name, **kwargs)
        return registry[name]

    sp = sub("simulate", help="draw a panel from a random model")
    sp.add_argument("--preset", type=str, default=None,
                    help=f"one of {sorted(SCENARIOS)}")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--model", choices=["sparse", "banded"], default="banded")
    sp.add_argument("--degree", type=int, default=5)
    sp.add_argument("--bandwidth", type=int, default=2)
    sp.add_argument("--grid-size", type=int, default=50)
    sp.add_argument("--basis-dim", type=int, default=5)
    sp.add_argument("--sigma-e", type=float, default=0.5)
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub("fit", help="FPCA + penalized fit + kernel recovery")
    _add_fit_like(sp)
    sp.add_argument("--gamma", type=float, default=None,
                    help="fixed gamma (standardized units); overrides --ic")
    sp.add_argument("--ic", choices=["aic", "bic"], default="bic")
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub("path", help="regularization path and ROC vs a truth")
    _add_fit_like(sp)
    sp.add_argument("--truth", type=str, default=None,
                    help="model.json of the generating model")
    _add_common(sp)
    sp.set_defaults(func=cmd_path)

    sp = sub("select", help="IC tables and selected gammas")
    _add_fit_like(sp)
    sp.add_argument("--ic", choices=["aic", "bic"], default="bic")
    _add_common(sp)
    sp.set_defaults(func=cmd_select)

    sp = sub("network", help="extract the Granger network")
    sp.add_argument("--kernels", required=True)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--indegree", type=int, default=None)
    sp.add_argument("--no-self", action="store_true",
                    help="exclude self-loops from indegree candidates")
    sp.add_argument("--labels", type=str, default=None,
                    help="comma-separated node labels")
    _add_common(sp)
    sp.set_defaults(func=cmd_network)

    sp = sub("stability", help="(a, b) sweep of the stability measure")
    sp.add_argument("--a-values", type=str, default="0.1,0.3,0.5,0.7,0.9")
    sp.add_argument("--b-values", type=str, default="0,0.25,0.5,0.75,1,1.5,2")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--theta-grid", type=int, default=1024,
                    help="size of the theta grid on [-pi, pi], at least 64; "
                         "an odd size includes theta = 0")
    _add_common(sp)
    sp.set_defaults(func=cmd_stability)

    sp = sub("verify-concentration",
                        help="Monte Carlo rate check for the moment estimators")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--q0", type=int, default=3)
    sp.add_argument("--ns", type=str, default="250,500,1000,2000,4000")
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--ar", type=float, default=0.0)
    sp.add_argument("--compare-ar", type=float, default=None,
                    help="also run a dependent fixture and compare medians")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_concentration)

    sp = sub("ingest-cidr", help="prices CSV -> CIDR curve panel")
    sp.add_argument("--prices", required=True)
    sp.add_argument("--no-demean", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_ingest_cidr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            print(f"config file not found: {cfg_path}", file=sys.stderr)
            return 2
        try:
            defaults = json.loads(cfg_path.read_text())
        except ValueError:  # invalid JSON, or bytes that are not UTF-8
            defaults = None
        if not isinstance(defaults, dict):
            print(f"config file {cfg_path} must hold a JSON object of flag "
                  "defaults", file=sys.stderr)
            return 2
        unknown = set(defaults) - set(vars(args))
        if unknown:
            print(f"config keys not recognized by {args.command}: "
                  f"{sorted(unknown)}", file=sys.stderr)
            return 2
        parser.command_parsers[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
