"""fvar benchmark: one workload per process, set-up timed apart.

    python3 benchmarks/run.py --workload desk-path --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Set-up is repeated at least SETUP_REPEATS times, and up to SETUP_MAX times
while the repeats take less than SETUP_SECONDS, and reported as its median
(``setup_s``).  Then whole passes of the workload's operations run until
``--seconds`` have elapsed (at least one pass); each pass is checked
against the benchmark's own computations, and every metric is the median
over passes.  With ``--trace 1`` the run first makes the same untraced
passes, then installs the span wrappers, repeats set-up once and makes one
traced pass, and reports the per-layer metrics and the tracing overhead.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record, spans included when traced, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SCRATCH = HERE / ".scratch"
WORKLOAD_NAMES = ["desk-path", "p80-fit", "cidr-ingest", "stability"]
SETUP_REPEATS = 5       # at least this many set-ups per run ...
SETUP_SECONDS = 2.0     # ... and more, up to SETUP_MAX, while they are cheap
SETUP_MAX = 25

# One BLAS thread: each workload then starts at most two busy threads (the
# p80-fit pool), the core count of the reference machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_passes(workload, inputs, work: Path, seconds: float, tracer, stats):
    """Whole passes until ``seconds`` have elapsed; returns per-pass records."""
    from workloads import Ops, OpFailed
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        ops = Ops(tracer)
        t0 = time.perf_counter()
        try:
            out = workload.run_pass(inputs, work, ops)
        except OpFailed as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
            stats["attempted"] += workload.ops_per_pass
            stats["failed"] += workload.ops_per_pass - ops.done
            records.append({"failed": True})
            continue
        run_s = time.perf_counter() - t0
        stats["attempted"] += ops.done
        record = {"run_s": run_s, **ops.stages}
        if "kernels_json_bytes" in out:
            record["kernels_json_bytes"] = out["kernels_json_bytes"]
        record.update(workload.check(inputs, out))
        records.append(record)
    return records


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def layer_metrics(tracer, traced_run_s: float, untraced_run_s: float,
                  kkt_worst: float, kernels_bytes: float) -> dict:
    from tracing import LAYER_METRICS, SELF_TIME_METRICS
    self_t = tracer.self_times()
    c = tracer.counters
    iters = c.get("solver.fista_iterations", 0.0)
    thetas = tracer.span_count("moments.spectral_density")
    measured = {
        **{m: self_t.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()},
        "solver.fista_iterations": iters,
        "solver.fits": c.get("solver.fits", 0.0),
        "solver.us_per_iteration":
            1e6 * c.get("solver.fista_seconds", 0.0) / iters if iters else 0.0,
        "solver.nonconverged_fits": c.get("solver.nonconverged_fits", 0.0),
        "solver.kkt_worst": kkt_worst,
        "cli.self_s": sum(v for k, v in self_t.items() if k.startswith("cli.")),
        "cli.kernels_json_bytes": kernels_bytes,
        "moments.theta_evaluations": float(thetas),
        "moments.us_per_theta":
            1e6 * tracer.inclusive_time("moments.measure") / thetas if thetas else 0.0,
        "trace.overhead_ratio": traced_run_s / untraced_run_s,
    }
    return {name: {"value": measured[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def run_workload(args) -> int:
    if not (ROOT / "src" / "fvar" / "__init__.py").is_file():
        print(f"fvar sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import scipy
    import fvar
    from checks import CheckFailed
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    stats = {"attempted": 0, "failed": 0}
    correct = True
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size}
    tracer = None
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or (
                sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, work)
            setups.append(time.perf_counter() - start)
        records = make_passes(workload, inputs, work, args.seconds,
                              NullTracer(), stats)
        rss = peak_rss_mb()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                inputs = workload.setup(args.seed, work)
                traced = make_passes(workload, inputs, work, 0.0, tracer, stats)
            finally:
                tracer.uninstall()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        records = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_records = [r for r in records if not r.get("failed")]
    if correct and not ok_records:
        print("no pass completed, so no output could be checked", file=sys.stderr)
        correct = False

    metrics = {}
    if ok_records:
        values = {"setup_s": statistics.median(setups),
                  "run_s": median_of(ok_records, "run_s"),
                  "peak_rss_mb": rss}
        extras = {k: median_of(ok_records, k) for k in workload.extra_metrics}
        for name, unit in END_TO_END.items():
            print(f"{args.workload:12s} {name:24s} {values[name]:.6g} {unit}")
        for name, unit in workload.extra_metrics.items():
            print(f"{args.workload:12s} {name:24s} {extras[name]:.6g} {unit}")
        print(f"{args.workload:12s} {'passes':24s} {len(records)}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result.update(setup_runs_s=setups, passes=records,
                      workload_metrics={k: {"value": extras[k], "unit": u}
                                        for k, u in workload.extra_metrics.items()})
        if tracer is not None and traced and not traced[0].get("failed"):
            t = traced[0]
            metrics = layer_metrics(tracer, t["run_s"], values["run_s"],
                                    t.get("solver.kkt_worst", 0.0),
                                    t.get("kernels_json_bytes", 0.0))
            for name, m in metrics.items():
                print(f"{args.workload:12s} {name:28s} {m['value']:.6g} {m['unit']}")
            result["traced_pass"] = t
            spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
            spans_file.write_text(json.dumps(tracer.to_records()))

    result.update(
        correct=correct, metrics=metrics, **stats,
        environment={"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "backend": fvar.accel_backend(),
                     "cpu_count": os.cpu_count(), **BLAS_ENV})
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0 if correct and metrics else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        status = status or proc.returncode
    print(json.dumps({
        "correct": all(s is not None and s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values() if s),
        "failed": sum(s["failed"] for s in summary.values() if s),
        "workloads": summary}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
