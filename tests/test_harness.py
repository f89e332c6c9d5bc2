"""Tests for the Monte Carlo rate harness."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvar import harness
from fvar.errors import ConfigError
from fvar.harness import SCENARIOS, run_concentration
from fvar.streams import rng_stream

from oracles import simulate_scores_loop

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
        (dict(alpha=np.inf), "alpha")])
    def test_invalid_arguments_rejected(self, kwargs, name):
        args = dict(ns=(100, 200), reps=2) | kwargs
        with pytest.raises(ConfigError, match=name):
            run_concentration(**args)

    @pytest.mark.parametrize("ar", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n, block", [(2, 1), (3, 2), (250, 1), (250, 5)])
    def test_fixture_matches_loop(self, n, block, ar):
        lams = np.arange(1, 4, dtype=float) ** -2.0
        got = harness._simulate_scores(
            n, 4, lams, ar, [rng_stream(11, stream=r) for r in range(block)])
        assert got.shape == (n, block, 4, 3)
        for r in range(block):
            want = simulate_scores_loop(n, 4, lams, ar, rng_stream(11, stream=r))
            assert np.array_equal(got[:, r], want)

    def test_medians_match_loop_fixture(self):
        p, q0, ns, reps, seed, ar, alpha = 3, 2, (60, 400, 4000), 10, 4, 0.5, 2.0
        # the ten n=4000 replications span more than one block
        assert harness._BLOCK_BYTES // (8 * 4000 * p * q0) < reps
        lams = np.arange(1, q0 + 1, dtype=float) ** -alpha
        want = []
        for i, n in enumerate(ns):
            errs = [harness._replication_errors(
                simulate_scores_loop(n, p, lams, ar, rng_stream(seed, stream=i * reps + r)),
                lams, alpha) for r in range(reps)]
            want.append(np.median(errs, axis=0).tolist())
        got = run_concentration(p=p, q0=q0, ns=ns, reps=reps, seed=seed, ar=ar,
                                alpha=alpha)
        assert [list(row[1:]) for row in got.rows()] == want


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


class TestScenarios:
    def test_source_presets_present(self):
        sizes = {(sc.n, sc.p) for sc in SCENARIOS.values()}
        assert {(100, 40), (200, 40), (200, 80), (200, 20)} <= sizes

    def test_desk_preset_shape(self):
        sc = SCENARIOS["desk"]
        assert (sc.n, sc.p, sc.grid_size, sc.basis_dim) == (200, 20, 50, 5)
        assert sc.measurement_noise == 0.5
