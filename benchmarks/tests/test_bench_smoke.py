"""Smoke-size runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ["desk-path", "p80-fit", "cidr-ingest", "stability"]


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    import run as bench
    import tracing
    assert [w["name"] for w in spec["workloads"]] == bench.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload_runs_and_checks(workload):
    proc = run("--workload", workload, "--size", "smoke", "--seed", "3",
               "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    import tracing
    proc = run("--workload", "cidr-ingest", "--size", "smoke", "--seed", "3",
               "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert list(metrics) == list(tracing.LAYER_METRICS)
    for name in ("network.read_prices_s", "panel.to_csv_s", "solver.fit_rows_s",
                 "cli.self_s", "cli.kernels_json_bytes", "solver.fits"):
        assert metrics[name]["value"] > 0, name
    assert metrics["moments.theta_evaluations"]["value"] == 0


def test_same_seed_gives_the_same_inputs(tmp_path):
    import generators as gen
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    gen.write_price_csv(a, gen.intraday_prices(5, 6, 3, 10))
    gen.write_price_csv(b, gen.intraday_prices(5, 6, 3, 10))
    assert a.read_bytes() == b.read_bytes()
    gen.write_price_csv(b, gen.intraday_prices(6, 6, 3, 10))
    assert a.read_bytes() != b.read_bytes()
    p1 = gen.simulated_panel(gen.banded_truth(4, 9), 30, 10, 9)
    p2 = gen.simulated_panel(gen.banded_truth(4, 9), 30, 10, 9)
    assert (p1.values == p2.values).all()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".scratch",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "stability", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
