"""Tests for the Monte Carlo rate harness."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fvar import harness
from fvar.errors import ConfigError
from fvar.harness import METRICS, SCENARIOS, run_concentration
from fvar.streams import rng_stream

from oracles import (replication_errors_loop, score_chunks_batch_major,
                     simulate_scores_loop)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestConcentration:
    def test_iid_slopes_near_root_n(self):
        rep = run_concentration(p=5, q0=3, ns=(250, 500, 1000, 2000),
                                reps=40, seed=0)
        for name, slope in rep.slopes.items():
            assert -0.6 <= slope <= -0.4, name
        assert rep.stability == 1.0

    def test_dependence_slows_every_sample_size(self):
        ns = (250, 500, 1000)
        iid = run_concentration(p=5, q0=3, ns=ns, reps=50, seed=1, ar=0.0)
        dep = run_concentration(p=5, q0=3, ns=ns, reps=50, seed=1, ar=0.5)
        assert dep.stability > iid.stability
        for name in iid.medians:
            assert np.all(np.asarray(dep.medians[name]) >
                          np.asarray(iid.medians[name])), name

    def test_dimension_growth_within_log_factor(self):
        n = 1000
        small = run_concentration(p=5, q0=3, ns=(n, 2 * n), reps=50, seed=2)
        large = run_concentration(p=20, q0=3, ns=(n, 2 * n), reps=50, seed=2)
        ratio = large.medians["sigma_max"][0] / small.medians["sigma_max"][0]
        assert ratio <= 1.5 * np.sqrt(np.log(20) / np.log(5))

    def test_median_errors_decrease_in_n(self):
        rep = run_concentration(p=4, q0=2, ns=(200, 800, 3200), reps=30, seed=3)
        for name in rep.medians:
            assert np.all(np.diff(rep.medians[name]) < 0), name

    def test_invalid_ar_rejected(self):
        with pytest.raises(ConfigError):
            run_concentration(ns=(100, 200), reps=5, ar=1.0)

    def test_single_n_rejected(self):
        with pytest.raises(ConfigError):
            run_concentration(ns=(100,), reps=5)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(reps=0), "reps"), (dict(p=0), "p must"), (dict(q0=0), "q0"),
        (dict(ns=(250, 250)), "ns"), (dict(ns=(0, 100)), "ns"),
        (dict(ns=(1, 100)), "ns"), (dict(alpha=np.nan), "alpha"),
        (dict(alpha=np.inf), "alpha"), (dict(ns=(100.7, 200)), "ns"),
        (dict(reps=2.5), "reps"), (dict(p=2.0), "p must"), (dict(q0=True), "q0"),
        (dict(seed=1.5), "seed"), (dict(ns=(np.True_, 200)), "ns")])
    def test_invalid_arguments_rejected(self, kwargs, name):
        args = dict(ns=(100, 200), reps=2) | kwargs
        with pytest.raises(ConfigError, match=name):
            run_concentration(**args)

    def test_numpy_integer_sizes_accepted(self):
        want = run_concentration(p=2, q0=2, ns=(50, 100), reps=2, seed=1)
        got = run_concentration(p=np.int64(2), q0=np.int32(2),
                                ns=np.array([50, 100]), reps=np.int64(2),
                                seed=np.uint8(1))
        assert got.ns == [50, 100] and all(type(n) is int for n in got.ns)
        assert got.medians == want.medians

    @staticmethod
    def _assert_chunks_match_loop(n, reps, chunk, ar):
        p, lams = 4, np.arange(1, 4, dtype=float) ** -2.0
        if chunk is None:  # the harness's own chunk length
            chunk = harness._batch_sizes(reps, p * lams.size, harness._BUDGET_BYTES)[1]
        rngs = [rng_stream(11, stream=r) for r in range(reps)]
        got = np.concatenate(
            [x.copy() for x in harness._score_chunks(n, p, lams, ar, rngs, chunk)],
            axis=1)
        assert got.shape == (reps, n, p, 3)
        for r in range(reps):
            want = simulate_scores_loop(n, p, lams, ar, rng_stream(11, stream=r))
            assert np.array_equal(got[r], want)

    @pytest.mark.parametrize("ar", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n, reps", [(2, 1), (3, 2), (250, 1), (250, 5)])
    def test_fixture_matches_loop(self, n, reps, ar):
        self._assert_chunks_match_loop(n, reps, None, ar)

    @pytest.mark.parametrize("ar", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n, reps, chunk", [
        (2, 3, 1), (5, 1, 8), (5, 3, 8), (9, 3, 8), (17, 2, 8),
        (250, 4, 7), (251, 1, 250), (None, 3, None)])
    def test_chunk_boundaries_match_loop(self, n, reps, chunk, ar):
        if n is None:  # one point past the harness's own chunk length
            n = harness._batch_sizes(reps, 12, harness._BUDGET_BYTES)[1] + 1
        self._assert_chunks_match_loop(n, reps, chunk, ar)

    def test_medians_match_loop_fixture(self):
        p, q0, ns, reps, seed, alpha = 3, 2, (60, 400, 4000), 10, 4, 2.0
        # n=4000 spans many chunks
        assert harness._batch_sizes(reps, p * q0, harness._BUDGET_BYTES)[1] < 4000
        lams = np.arange(1, q0 + 1, dtype=float) ** -alpha
        for ar in (0.0, 0.5):
            want = []
            for i, n in enumerate(ns):
                errs = [replication_errors_loop(
                    simulate_scores_loop(n, p, lams, ar,
                                         rng_stream(seed, stream=i * reps + r)),
                    lams, alpha) for r in range(reps)]
                want.append(np.median(errs, axis=0))
            got = run_concentration(p=p, q0=q0, ns=ns, reps=reps, seed=seed, ar=ar,
                                    alpha=alpha)
            np.testing.assert_allclose([row[1:] for row in got.rows()], want,
                                       rtol=1e-12, atol=0, err_msg=f"ar={ar}")

    def test_replication_batches_match_one_batch(self, monkeypatch):
        args = dict(p=4, q0=3, ns=(50, 300), reps=7, seed=5, ar=0.5)
        d = 12
        assert harness._batch_sizes(7, d, harness._BUDGET_BYTES)[0] == 7
        one = run_concentration(**args)
        budget = 16 * d * d * 2
        assert harness._batch_sizes(7, d, budget)[0] == 2
        monkeypatch.setattr(harness, "_BUDGET_BYTES", budget)
        split = run_concentration(**args)
        for name in METRICS:
            np.testing.assert_allclose(split.medians[name], one.medians[name],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ar", [0.0, 0.5, 0.9])
    def test_layout_matches_batch_major_bit_for_bit(self, monkeypatch, ar):
        args = dict(p=4, q0=3, ns=(50, 300), reps=7, seed=5, ar=ar)
        d = 12
        budget = 16 * d * d * 2
        # two replications per batch, and 12-point chunks that 50 and 300 cross
        assert harness._batch_sizes(7, d, budget) == (2, 12)
        monkeypatch.setattr(harness, "_BUDGET_BYTES", budget)
        got = run_concentration(**args)
        monkeypatch.setattr(harness, "_score_chunks", score_chunks_batch_major)
        want = run_concentration(**args)
        assert got.medians == want.medians
        assert got.slopes == want.slopes

    def test_c07_run_stays_under_two_megabytes(self):
        tracemalloc.start()
        try:
            run_concentration(p=5, q0=3, ns=(250, 500, 1000, 2000, 4000),
                              reps=100, seed=0, ar=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def test_theory_tools_leave_scipy_signal_unimported():
    # importing scipy.signal costs ~23 MB of resident memory
    code = ("import sys\n"
            "import numpy as np\n"
            "from fvar.harness import run_concentration\n"
            "from fvar.moments import stability_measure_var1, stability_sweep\n"
            "stability_measure_var1(0.5 * np.eye(3), np.eye(3), 64)\n"
            "stability_sweep([0.5], [0.0, 1.0], theta_grid_size=64)\n"
            "run_concentration(p=2, q0=2, ns=(50, 100), reps=2, ar=0.5)\n"
            "print('scipy.signal' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fit_path_leaves_scipy_unimported(tmp_path):
    # scipy.interpolate and scipy.linalg cost ~50 MB of resident memory and
    # ~0.5 s of start-up; fitting and the stability measure load no scipy
    heavy = ["scipy.interpolate", "scipy.sparse", "scipy.special",
             "scipy.linalg"]
    code = ("import sys\n"
            "import numpy as np\n"
            "import fvar, fvar.cli\n"
            "from fvar.basis import BasisSpec\n"
            "from fvar.fpca import fpca_panel\n"
            "from fvar.moments import stability_measure_var1\n"
            "from fvar.network import extract_network\n"
            "from fvar.pipeline import fit_rows\n"
            "from fvar.solver import build_design, recover_kernels\n"
            "from fvar.vfar import gen_block_banded, simulate\n"
            "model = gen_block_banded(p=3, G=4, bandwidth=1, seed=1)\n"
            "panel = simulate(model, 40, grid=np.linspace(0, 1, 20), seed=1)\n"
            "stage1 = fpca_panel(panel, BasisSpec('bspline', 8), [2, 3],\n"
            "                    [0.0, 1e-4], folds=3)\n"
            "design = build_design(stage1.kl_models, 1)\n"
            "fits, _ = fit_rows(design, gamma=0.5)\n"
            "kernels = recover_kernels(fits, stage1.kl_models)\n"
            "extract_network(kernels, indegree=2)\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
            "stability_measure_var1(0.5 * np.eye(3), np.eye(3), 64)\n"
            f"fvar.cli.main(['stability', '--out', {str(tmp_path)!r}])\n"
            "print(any(m == 'scipy' or m.startswith('scipy.')\n"
            "          for m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # the sweep prints a summary between
    assert (lines[0], lines[-1]) == ("[]", "False")


def test_stability_runs_where_scipy_cannot_be_imported(tmp_path):
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any scipy import raises ImportError\n"
            "import numpy as np\n"
            "from fvar import cli\n"
            "from fvar.moments import stability_measure_var1\n"
            "rng = np.random.default_rng(1)\n"
            "T = np.eye(30) + 0.3 * rng.standard_normal((30, 30)) / np.sqrt(30)\n"
            "C = T @ np.diag(rng.uniform(-0.9, 0.9, 30)) @ np.linalg.inv(T)\n"
            "rep = stability_measure_var1(C, T @ T.T, 1024)\n"
            "assert rep.theta_evaluations < 512, rep\n"
            f"assert cli.main(['stability', '--out', {str(tmp_path)!r}]) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stability.csv").is_file()


def test_no_module_imports_scipy():
    for path in sorted((SRC / "fvar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], \
                f"{path.name}:{node.lineno} imports {names}"


class TestScenarios:
    def test_source_presets_present(self):
        sizes = {(sc.n, sc.p) for sc in SCENARIOS.values()}
        assert {(100, 40), (200, 40), (200, 80), (200, 20)} <= sizes

    def test_desk_preset_shape(self):
        sc = SCENARIOS["desk"]
        assert (sc.n, sc.p, sc.grid_size, sc.basis_dim) == (200, 20, 50, 5)
        assert sc.measurement_noise == 0.5
