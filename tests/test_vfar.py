"""Tests for model generators, simulation and the companion embedding."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvar
from fvar.basis import BasisSpec, evaluate_basis
from fvar.errors import ConfigError, NonstationaryError
from fvar.moments import var1_stationary_cov
from fvar.vfar import (VFARModel, companion_form, gen_block_banded,
                       gen_block_sparse, simulate, simulate_coefficients,
                       spectral_radius)

from oracles import charpoly_spectral_radius


def block_support(model):
    return (np.abs(model.blocks).max(axis=(3, 4)) > 0)[0]


class TestGenerators:
    def test_sparse_row_degrees(self):
        model = gen_block_sparse(p=40, G=3, per_row_degree=5, seed=0)
        sup = block_support(model)
        np.testing.assert_array_equal(sup.sum(axis=1), np.full(40, 5))
        assert sup.sum() == 200

    def test_sparse_full_degree_dense(self):
        model = gen_block_sparse(p=4, G=2, per_row_degree=4, seed=1)
        assert block_support(model).all()

    def test_rescaled_radius_is_iota(self):
        model = gen_block_sparse(p=6, G=3, per_row_degree=2, seed=2)
        iota = model.meta["iota"]
        assert 0.5 <= iota < 1.0
        assert model.spectral_radius() == pytest.approx(iota, rel=1e-10)

    def test_banded_support_counts(self):
        model = gen_block_banded(p=40, G=3, bandwidth=2, seed=3)
        sup = block_support(model)
        j, k = np.indices((40, 40))
        np.testing.assert_array_equal(sup, np.abs(j - k) <= 2)
        assert sup.sum() == 194  # 5p - 6 for p >= 3

    def test_bandwidth_zero_diagonal(self):
        model = gen_block_banded(p=5, G=2, bandwidth=0, seed=4)
        np.testing.assert_array_equal(block_support(model), np.eye(5, dtype=bool))

    def test_rescaling_preserves_pattern(self):
        model = gen_block_banded(p=7, G=3, bandwidth=1, seed=5)
        sup = block_support(model)
        zero_blocks = model.blocks[0][~sup]
        assert np.all(zero_blocks == 0.0)


class TestSimulate:
    def test_zero_transition_white_noise(self):
        basis = BasisSpec("fourier", 4)
        model = VFARModel(L=1, p=2, basis=basis, blocks=np.zeros((1, 2, 2, 4, 4)),
                          noise_scale=1.5, measurement_noise=0.0)
        coeffs = simulate_coefficients(model, 4000, burn_in=10, seed=0)
        flat = coeffs.reshape(4000, -1)
        cov = flat.T @ flat / 4000
        np.testing.assert_allclose(cov, 1.5**2 * np.eye(8), atol=0.25)

    def test_lag1_autocov_matches_lyapunov(self):
        model = gen_block_banded(p=3, G=3, bandwidth=1, seed=6,
                                 measurement_noise=0.0)
        n = 20000
        coeffs = simulate_coefficients(model, n, seed=7)
        B = model.companion_matrix()  # the lag-1 matrix itself
        S0 = var1_stationary_cov(B, np.eye(9))
        flat = coeffs.reshape(n, -1)
        est = flat[:-1].T @ flat[1:] / (n - 1)
        expected = S0 @ B.T  # E theta_t theta_{t+1}^T
        assert (np.linalg.norm(est - expected) / np.linalg.norm(expected)) < 0.1

    def test_bit_identical_reruns(self):
        model = gen_block_banded(p=4, G=3, bandwidth=1, seed=8)
        p1 = simulate(model, 30, seed=9)
        p2 = simulate(model, 30, seed=9)
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_distinct_streams_differ(self):
        model = gen_block_banded(p=2, G=3, bandwidth=1, seed=8)
        a = simulate_coefficients(model, 20, seed=9, stream=0)
        b = simulate_coefficients(model, 20, seed=9, stream=1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_length_rejected(self, n):
        model = gen_block_banded(p=2, G=3, bandwidth=1, seed=8)
        with pytest.raises(ConfigError, match=f"n must be >= 1; got {n}"):
            simulate_coefficients(model, n)

    @pytest.mark.parametrize("L, p", [(0, 2), (1, 0), (-1, 2)])
    def test_empty_model_rejected(self, L, p):
        with pytest.raises(ConfigError, match="L and p must be >= 1"):
            VFARModel(L=L, p=p, basis=BasisSpec("fourier", 3),
                      blocks=np.zeros((0, 0, 0, 3, 3)))

    @pytest.mark.parametrize("noise_scale", [0.0, float("nan"), float("inf")])
    def test_bad_noise_scale_rejected(self, noise_scale):
        with pytest.raises(ConfigError, match="noise_scale must be positive "
                           "and finite"):
            VFARModel(L=1, p=2, basis=BasisSpec("fourier", 3),
                      blocks=np.zeros((1, 2, 2, 3, 3)), noise_scale=noise_scale)

    def test_simulation_independent_of_blas_threads(self, tmp_path):
        """One saved p=80 model simulated under 1 and 2 OpenBLAS threads
        gives the same bytes; a generator's eigvals may differ, the
        recursion must not."""
        model = gen_block_banded(p=80, G=5, bandwidth=2, seed=1)
        (tmp_path / "model.json").write_text(model.to_json())
        script = ("import sys, numpy as np\n"
                  "from fvar.vfar import VFARModel, simulate\n"
                  "m = VFARModel.from_json(open(sys.argv[1]).read())\n"
                  "np.save(sys.argv[2], simulate(m, 200, seed=1, stream=1).values)\n")
        src = str(Path(fvar.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"values{threads}.npy")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", script,
                            tmp_path / "model.json", outs[-1]],
                           env=env, check=True, timeout=120)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_nonstationary_rejected(self):
        basis = BasisSpec("fourier", 2)
        blocks = np.zeros((1, 1, 1, 2, 2))
        blocks[0, 0, 0] = 1.05 * np.eye(2)
        model = VFARModel(L=1, p=1, basis=basis, blocks=blocks)
        with pytest.raises(NonstationaryError):
            simulate_coefficients(model, 10)

    def test_measurement_noise_added(self):
        model = gen_block_banded(p=2, G=3, bandwidth=1, seed=10,
                                 measurement_noise=0.5)
        noiseless = VFARModel(L=1, p=2, basis=model.basis, blocks=model.blocks,
                              noise_scale=1.0, measurement_noise=0.0)
        grid = np.linspace(0, 1, 50)
        with_noise = simulate(model, 200, grid=grid, seed=11)
        clean = simulate(noiseless, 200, grid=grid, seed=11)
        resid = with_noise.values - clean.values
        assert np.std(resid) == pytest.approx(0.5, rel=0.05)

    def test_stationary_after_burn_in(self):
        model = gen_block_banded(p=3, G=3, bandwidth=1, seed=12)
        coeffs = simulate_coefficients(model, 8000, seed=13).reshape(8000, -1)
        first = coeffs[:4000].T @ coeffs[:4000] / 4000
        second = coeffs[4000:].T @ coeffs[4000:] / 4000
        scale = np.linalg.norm(first)
        assert np.linalg.norm(first - second) / scale < 0.15


class TestCompanion:
    def vfar2_model(self, seed=19):
        rng = np.random.default_rng(seed)
        blocks = 0.25 * rng.standard_normal((2, 1, 1, 3, 3))
        return VFARModel(L=2, p=1, basis=BasisSpec("fourier", 3), blocks=blocks,
                         measurement_noise=0.0)

    def test_lag_one_unchanged(self):
        model = gen_block_banded(p=3, G=2, bandwidth=1, seed=15)
        comp = companion_form(model)
        assert comp.L == 1 and comp.p == 3
        np.testing.assert_array_equal(comp.blocks, model.blocks)

    def test_companion_matrix_layout(self):
        model = self.vfar2_model()
        comp = companion_form(model)
        assert comp.p == 2 and comp.noise_vars == 1
        top = comp.blocks[0, 0]
        np.testing.assert_array_equal(top[0], model.blocks[0, 0, 0])
        np.testing.assert_array_equal(top[1], model.blocks[1, 0, 0])
        np.testing.assert_array_equal(comp.blocks[0, 1, 0], np.eye(3))
        np.testing.assert_array_equal(comp.blocks[0, 1, 1], np.zeros((3, 3)))

    def test_paired_seed_paths_match(self):
        model = self.vfar2_model()
        comp = companion_form(model)
        direct = simulate_coefficients(model, 500, burn_in=100, seed=16)
        stacked = simulate_coefficients(comp, 500, burn_in=100, seed=16)
        np.testing.assert_allclose(stacked[:, 0, :], direct[:, 0, :],
                                   rtol=1e-8, atol=1e-10)

    @staticmethod
    def lagged_cov_with_se(x, h, n_batches=25):
        """Empirical lag-h cross-products and their batch-means MC errors."""
        prods = np.einsum("ta,tb->tab", x[: len(x) - h], x[h:])
        est = prods.mean(axis=0)
        batches = np.array_split(prods, n_batches)
        means = np.array([b.mean(axis=0) for b in batches])
        se = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        return est, se

    def test_independent_seeds_same_law(self):
        model = self.vfar2_model()
        comp = companion_form(model)
        n = 5000
        direct = simulate_coefficients(model, n, seed=17).reshape(n, -1)
        stacked = simulate_coefficients(comp, n, seed=18)[:, 0, :]
        for h in (0, 1, 2):
            a, se_a = self.lagged_cov_with_se(direct, h)
            b, se_b = self.lagged_cov_with_se(stacked, h)
            se = np.sqrt(se_a**2 + se_b**2)
            assert np.all(np.abs(a - b) < 3.0 * se)

    def test_companion_matrix_is_lag_row_over_shift(self):
        rng = np.random.default_rng(24)
        model = VFARModel(L=3, p=2, basis=BasisSpec("fourier", 2),
                          blocks=rng.standard_normal((3, 2, 2, 2, 2)))
        lags = [np.block([[model.blocks[h, j, k] for k in range(2)]
                          for j in range(2)]) for h in range(3)]
        eye, zero = np.eye(4), np.zeros((4, 4))
        np.testing.assert_array_equal(model.companion_matrix(), np.block(
            [lags, [eye, zero, zero], [zero, eye, zero]]))

    def test_companion_radius_tracks_stability(self):
        stable = self.vfar2_model()
        assert stable.is_stationary()
        coeffs = simulate_coefficients(stable, 5000, seed=19)
        assert np.abs(coeffs).max() < 50  # long-run boundedness

        blocks = np.zeros((2, 1, 1, 2, 2))
        blocks[0, 0, 0] = 0.8 * np.eye(2)
        blocks[1, 0, 0] = 0.5 * np.eye(2)
        unstable = VFARModel(L=2, p=1, basis=BasisSpec("fourier", 2), blocks=blocks)
        assert not unstable.is_stationary()
        with pytest.raises(NonstationaryError):
            simulate_coefficients(unstable, 10)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    @pytest.mark.parametrize("a,b", [(0.3, 0.9), (-0.6, 2.0)])
    def test_jordan_block(self, a, b):
        assert spectral_radius(np.array([[a, b], [0, a]])) == pytest.approx(abs(a))

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            M = rng.standard_normal((5, 5))
            assert spectral_radius(M) == pytest.approx(
                charpoly_spectral_radius(M), abs=1e-6)

    def test_matches_power_iteration_on_nonnegative(self):
        rng = np.random.default_rng(21)
        M = rng.uniform(0.1, 1.0, size=(10, 10))
        v = np.ones(10)
        lam = 0.0
        for _ in range(10000):
            w = M @ v
            lam_new = np.linalg.norm(w)
            v = w / lam_new
            if abs(lam_new - lam) < 1e-13 * lam_new:
                break
            lam = lam_new
        assert spectral_radius(M) == pytest.approx(lam, abs=1e-8)


class TestKernelRoundTrip:
    def test_fourier_round_trip(self):
        model = gen_block_banded(p=3, G=4, bandwidth=1, seed=22)
        u = np.linspace(0, 1, 80)
        S = evaluate_basis(model.basis, u)
        proj = np.linalg.pinv(S)
        for j in range(3):
            for k in range(3):
                A = model.kernel_on_grid(1, j, k, u, u)
                back = proj @ A @ proj.T
                np.testing.assert_allclose(back, model.blocks[0, j, k], atol=1e-8)

    def test_json_round_trip(self):
        model = gen_block_sparse(p=3, G=3, per_row_degree=2, seed=23)
        back = VFARModel.from_json(model.to_json())
        np.testing.assert_array_equal(back.blocks, model.blocks)
        assert back.basis == model.basis
        assert back.meta["iota"] == model.meta["iota"]
