"""Tests for autocovariances, score covariances and the stability measure."""

import numpy as np
import pytest

from fvar.basis import BasisSpec
from fvar.errors import ConfigError, DataError, NonstationaryError
from fvar.fpca import fit_regularized_fpca
from fvar.moments import (autocov_empirical, operator_norm_var1_kernel,
                          score_autocov, stability_measure_var1,
                          stability_sweep, var1_spectral_density,
                          var1_stationary_cov)

from oracles import lyapunov_series, stability_grid_tops, stability_loop

BASIS = BasisSpec("fourier", 4)


def random_system(d, radius=0.8, seed=0):
    """A dense VAR(1) transition with the given spectral radius and a
    correlated, well-conditioned noise covariance."""
    rng = np.random.default_rng(seed + d)
    C = rng.standard_normal((d, d))
    C *= radius / np.max(np.abs(np.linalg.eigvals(C)))
    M = rng.standard_normal((d, d))
    return C, M @ M.T / d + 0.5 * np.eye(d)


def var1_style_system(d, seed=1, a_max=0.9):
    """C = T diag(a) T^{-1} with noise T T^T: independent AR(1) series with
    coefficients in (-a_max, a_max), mixed by a dense non-orthogonal T."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-a_max, a_max, size=d)
    T = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    return T @ np.diag(a) @ np.linalg.inv(T), T @ T.T


def appendix_S0(a, b):
    return np.array([
        [1.0 / (1 - a**2) + (a**2 + 1) * b**2 / (1 - a**2) ** 3,
         a * b / (1 - a**2) ** 2],
        [a * b / (1 - a**2) ** 2, 1.0 / (1 - a**2)],
    ])


class TestAutocovEmpirical:
    def test_lag_needs_enough_samples(self):
        panel = np.zeros((1, 2, 4))
        with pytest.raises(ConfigError):
            autocov_empirical(panel, 1, BASIS)

    def test_rank_one_constant_loading(self):
        rng = np.random.default_rng(0)
        n = 200
        load = rng.standard_normal(n)
        load -= load.mean()
        panel = np.zeros((n, 1, 4))
        panel[:, 0, 0] = load
        est = autocov_empirical(panel, 0, BASIS)
        expected = np.zeros((4, 4))
        expected[0, 0] = load @ load / n
        np.testing.assert_allclose(est.blocks[0, 0], expected, atol=1e-12)

    def test_h0_block_symmetry_and_psd(self):
        rng = np.random.default_rng(1)
        panel = rng.standard_normal((50, 3, 4))
        panel -= panel.mean(axis=0)
        est = autocov_empirical(panel, 0, BASIS)
        for j in range(3):
            for k in range(3):
                np.testing.assert_allclose(est.blocks[j, k], est.blocks[k, j].T,
                                           atol=1e-12)
        eigs = np.linalg.eigvalsh(est.stacked())
        assert eigs.min() > -1e-10

    def test_iid_lag1_concentration(self):
        # max-block HS norm < 3 * lambda0 * sqrt(log p / n) in >= 95% of reps
        p, n, reps = 5, 2000, 200
        bound_hits = 0
        for r in range(reps):
            rng = np.random.default_rng(1000 + r)
            panel = rng.standard_normal((n, p, 4)) / 2.0
            panel -= panel.mean(axis=0)
            est = autocov_empirical(panel, 1, BASIS)
            lam0 = max(np.trace(panel[:, j].T @ panel[:, j] / n) for j in range(p))
            if est.hs_norms().max() < 3.0 * lam0 * np.sqrt(np.log(p) / n):
                bound_hits += 1
        assert bound_hits >= 0.95 * reps


class TestScoreAutocov:
    def test_diagonal_matches_eigenvalues(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 40)
        curves = rng.standard_normal((60, grid.size))
        model = fit_regularized_fpca(curves, grid, BasisSpec("fourier", 5), q=3, eta=0.0)
        cov = score_autocov([model.scores], 0)
        for l in range(3):
            assert cov.get(0, 0, l, l) == pytest.approx(model.eigenvalues[l],
                                                        abs=1e-10)

    def test_orthogonal_columns_vanish(self):
        rng = np.random.default_rng(3)
        scores = np.linalg.qr(rng.standard_normal((30, 3)))[0] * np.sqrt(30)
        cov = score_autocov([scores], 0)
        off = cov.blocks[0][0] - np.diag(np.diag(cov.blocks[0][0]))
        assert np.abs(off).max() < 1e-12

    def test_ar1_lag_one(self):
        rng = np.random.default_rng(4)
        n, a = 200000, 0.6
        x = np.empty(n)
        x[0] = rng.standard_normal() / np.sqrt(1 - a**2)
        eps = rng.standard_normal(n - 1)
        for t in range(1, n):
            x[t] = a * x[t - 1] + eps[t - 1]
        cov = score_autocov([x[:, None]], 1)
        lam = x @ x / n
        assert cov.get(0, 0, 0, 0) == pytest.approx(a * lam, rel=0.05)

    def test_h0_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        s1, s2 = rng.standard_normal((40, 2)), rng.standard_normal((40, 3))
        cov = score_autocov([s1, s2], 0)
        np.testing.assert_allclose(cov.blocks[0][1], cov.blocks[1][0].T, atol=1e-14)


class TestStationaryCov:
    def test_zero_transition(self):
        N = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(var1_stationary_cov(np.zeros((2, 2)), N), N)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
    def test_matches_closed_form(self, a, b):
        C = np.array([[a, b], [0.0, a]])
        S0 = var1_stationary_cov(C, np.eye(2))
        np.testing.assert_allclose(S0, appendix_S0(a, b), rtol=1e-10, atol=1e-10)

    def test_scalar_geometric_series(self):
        S0 = var1_stationary_cov(np.array([[0.5]]), np.array([[1.0]]))
        assert S0[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((3, 3))
        C *= 0.7 / np.max(np.abs(np.linalg.eigvals(C)))
        N = np.eye(3) * 0.5
        np.testing.assert_allclose(var1_stationary_cov(C, N),
                                   lyapunov_series(C, N), atol=1e-10)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonstationaryError):
            var1_stationary_cov(np.eye(2), np.eye(2))


class TestSpectralDensity:
    def test_white_noise_flat(self):
        N = np.diag([1.5, 0.5])
        for theta in (-np.pi, 0.0, 1.0):
            f = var1_spectral_density(np.zeros((2, 2)), N, theta)
            np.testing.assert_allclose(f, N / (2 * np.pi), atol=1e-14)

    def test_inversion_formula(self):
        C = np.array([[0.5, 0.4], [0.0, 0.5]])
        N = np.eye(2)
        thetas = np.linspace(-np.pi, np.pi, 4097)
        vals = np.array([var1_spectral_density(C, N, t) for t in thetas])
        integral = np.trapezoid(vals, thetas, axis=0).real
        np.testing.assert_allclose(integral, var1_stationary_cov(C, N), atol=1e-6)

    def test_scalar_ar1_closed_form(self):
        a = 0.5
        for theta in (0.3, -1.2):
            f = var1_spectral_density(np.array([[a, 0], [0, a]]), np.eye(2), theta)
            ref = 1.0 / (2 * np.pi * abs(1 - a * np.exp(-1j * theta)) ** 2)
            np.testing.assert_allclose(np.diag(f).real, ref, atol=1e-12)
            assert abs(f[0, 1]) < 1e-14

    def test_hermitian_reflection(self):
        C = np.array([[0.4, 0.3], [-0.2, 0.1]])
        N = np.array([[1.0, 0.2], [0.2, 2.0]])
        f_pos = var1_spectral_density(C, N, 0.7)
        f_neg = var1_spectral_density(C, N, -0.7)
        # each f(theta) is Hermitian and reflection conjugates it
        np.testing.assert_allclose(f_pos, f_pos.conj().T, atol=1e-14)
        np.testing.assert_allclose(f_neg, f_pos.conj(), atol=1e-14)
        assert np.linalg.eigvalsh(f_pos).min() > -1e-10


class TestStabilityMeasure:
    def test_no_dependence_gives_one(self):
        rep = stability_measure_var1(np.zeros((2, 2)), np.diag([2.0, 0.5]), 128)
        assert rep.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5, 0.9])
    def test_scalar_ar1_closed_form(self, a):
        # an odd grid holds theta = 0 and +-pi, where the maximum sits
        rep = stability_measure_var1(np.array([[a]]), np.eye(1), 1025)
        assert rep.value == pytest.approx((1 + abs(a)) / (1 - abs(a)),
                                          rel=1e-10)

    def test_monotone_in_a_and_b(self):
        a_grid = [0.2, 0.5, 0.8]
        b_grid = [0.0, 0.5, 1.0]
        vals = {(a, b): stability_measure_var1(
            np.array([[a, b], [0, a]]), np.eye(2), 256).value
            for a in a_grid for b in b_grid}
        for b in b_grid:
            seq = [vals[(a, b)] for a in a_grid]
            assert np.all(np.diff(seq) > -1e-8)
        for a in a_grid:
            seq = [vals[(a, b)] for b in b_grid]
            assert np.all(np.diff(seq) > -1e-8)

    def test_subprocess_measures_nested(self):
        C = np.array([[0.5, 0.3, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])
        N = np.eye(3)
        m1 = max(stability_measure_var1(C, N, 128, subset=[j]).value
                 for j in range(3))
        m2 = max(stability_measure_var1(C, N, 128, subset=[j, k]).value
                 for j in range(3) for k in range(j + 1, 3))
        m3 = stability_measure_var1(C, N, 128).value
        assert m1 <= m2 + 1e-8
        assert m2 <= m3 + 1e-8

    def test_lambda0_is_max_variance(self):
        C = np.array([[0.5, 0.4], [0.0, 0.5]])
        rep = stability_measure_var1(C, np.eye(2), 128)
        S0 = var1_stationary_cov(C, np.eye(2))
        assert rep.lambda0 == pytest.approx(np.diag(S0).max())

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            stability_measure_var1(np.zeros((2, 2)), np.eye(2), 32)

    @pytest.mark.parametrize("G", [64, 65, 256, 1024, 1025])
    @pytest.mark.parametrize("d, subset", [
        (1, None), (1, [0]), (2, None), (2, [1]), (12, None), (12, [7, 0, 3, 11])])
    def test_half_grid_matches_full_grid_loop(self, d, subset, G):
        C, N = random_system(d)
        rep = stability_measure_var1(C, N, G, subset=subset)
        value, theta = stability_loop(C, N, G, subset)
        assert abs(rep.value - value) <= 1e-10 * value
        assert rep.argmax_theta <= 0
        assert rep.argmax_theta == pytest.approx(-abs(theta), abs=1e-12)

    @pytest.mark.parametrize("C, N", [
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), np.eye(2)),
        (np.zeros((2, 2)), np.diag([1.0, np.inf])),
        (np.zeros((2, 3)), np.eye(2)),
        (np.zeros((2, 2)), np.eye(3)),
        (np.zeros(2), np.eye(2)),
        (0.5 * np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])),
        (0.5 * np.eye(2), np.diag([1.0, -0.1])),
    ])
    def test_malformed_system_rejected(self, C, N):
        with pytest.raises(DataError):
            stability_measure_var1(C, N, 64)
        with pytest.raises(DataError):
            var1_spectral_density(C, N, 0.5)

    @pytest.mark.parametrize("N, match", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "noise_cov is not symmetric"),
        (np.diag([1.0, -0.1]), "noise_cov has the negative eigenvalue -1.000e-01")])
    def test_noise_cov_that_is_no_covariance_is_named(self, N, match):
        with pytest.raises(DataError, match=match):
            stability_measure_var1(0.5 * np.eye(2), N, 64)

    def test_noise_cov_rounding_is_tolerated(self):
        N = np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
        rep = stability_measure_var1(0.5 * np.eye(2), N, 64)
        assert rep.value == stability_grid_tops(0.5 * np.eye(2), N, 64)[0]

    @pytest.mark.parametrize("G", [100.5, 128.0, True, "128", None])
    def test_non_integer_grid_size_rejected(self, G):
        with pytest.raises(ConfigError, match="theta grid size must be an integer"):
            stability_measure_var1(0.5 * np.eye(2), np.eye(2), G)

    def test_numpy_integer_grid_size_accepted(self):
        rep = stability_measure_var1(0.5 * np.eye(2), np.eye(2), np.int64(65))
        assert rep.value == stability_measure_var1(0.5 * np.eye(2), np.eye(2), 65).value


ORACLE_GRIDS = [64, 65, 1024, 1025]


class TestStabilitySkipsGridPoints:
    """The measure evaluates only the grid points that can hold the maximum;
    value and argmax_theta must equal the full-grid evaluation exactly."""

    @pytest.mark.parametrize("G", ORACLE_GRIDS)
    @pytest.mark.parametrize("d, subset", [
        (1, None), (2, None), (2, [1]), (5, None), (5, [4, 1]), (12, None),
        (12, [7, 0, 3, 11]), (30, None), (30, [2, 29, 11])])
    def test_random_systems_match_full_grid_oracle(self, d, subset, G):
        for seed in range(4):
            for C, N in (random_system(d, radius=0.3 + 0.2 * seed, seed=seed),
                         var1_style_system(d, seed=seed)):
                rep = stability_measure_var1(C, N, G, subset=subset)
                value, theta, _ = stability_grid_tops(C, N, G, subset)
                assert (rep.value, rep.argmax_theta) == (value, theta)
                assert rep.theta_evaluations <= (G + 1) // 2

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_cli_family_matches_full_grid_oracle(self, sigma):
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            for b in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
                C, N = np.array([[a, b], [0.0, a]]), sigma ** 2 * np.eye(2)
                for G in ORACLE_GRIDS:
                    rep = stability_measure_var1(C, N, G)
                    value, theta, _ = stability_grid_tops(C, N, G)
                    assert (rep.value, rep.argmax_theta) == (value, theta)

    @pytest.mark.parametrize("G", ORACLE_GRIDS)
    @pytest.mark.parametrize("C", [
        np.zeros((2, 2)),                       # constant density: a singular pencil
        np.diag([0.6, -0.6]),                   # equal peaks at theta = 0 and -pi
        np.array([[0.0, 5.0], [0.0, 0.0]]),     # nilpotent
        1e-12 * np.ones((3, 3)),                # flat to rounding
    ], ids=["zero", "tie", "nilpotent", "tiny"])
    def test_edge_systems_match_full_grid_oracle(self, C, G):
        N = np.eye(C.shape[0])
        rep = stability_measure_var1(C, N, G)
        value, theta, _ = stability_grid_tops(C, N, G)
        assert (rep.value, rep.argmax_theta) == (value, theta)

    @pytest.mark.parametrize("C, N, G, subset", [
        # eigenvalues at radius 0.9999935: the stationary covariance is ~1e7,
        # so the pencil's coupling blocks are ~1e5 and ~1e-7 apart
        (np.array([[2.982940114967829, -2.4219039551541908],
                   [5.724138122969613, -4.312297723905564]]),
         np.array([[5.1412223792076155, -0.2755930437620018],
                   [-0.2755930437620018, 1.0538570094067963]]), 64, [0]),
        # a rotation at radius 0.99724 in coordinates scaled by 0.08 to 44
        (np.array([[4.2353936693986585, 1.4659291095007711e+04, -1.3082754472576278e+01],
                   [1.5792949318516374e-02, 4.2883285876049165e+01, -3.7720397627337497e-02],
                   [1.9343501892314993e+01, 5.3525966234418389e+04, -4.7160206020833186e+01]]),
         np.array([[1.2992548053913062e+09, 1.3184899685121788e+07, -1.2141524461563554e+09],
                   [1.3184899685121788e+07, 4.2241991279296996e+05, -8.4217444723654613e+07],
                   [-1.2141524461563554e+09, -8.4217444723654613e+07, 1.2544122960485796e+11]]),
         4097, None),
    ], ids=["coupling-scale", "coordinate-scale"])
    def test_badly_scaled_systems_match_full_grid_oracle(self, C, N, G, subset):
        # unscaled, QZ puts these crossings 5e-6 off the unit circle
        rep = stability_measure_var1(C, N, G, subset=subset)
        value, theta, _ = stability_grid_tops(C, N, G, subset)
        assert (rep.value, rep.argmax_theta) == (value, theta)

    def test_constant_density_evaluates_every_point(self):
        rep = stability_measure_var1(np.zeros((2, 2)), np.eye(2), 1025)
        assert rep.theta_evaluations == 513

    def test_var1_system_evaluates_a_quarter_of_the_half_grid(self):
        C, N = var1_style_system(30)
        rep = stability_measure_var1(C, N, 1024)
        assert rep.theta_evaluations <= 512 // 4
        assert (rep.value, rep.argmax_theta) == stability_grid_tops(C, N, 1024)[:2]

    @pytest.mark.parametrize("subset", [[], [2], [-1], [0, 0], [1.7], [True]])
    def test_malformed_subset_rejected(self, subset):
        with pytest.raises(ConfigError):
            stability_measure_var1(0.5 * np.eye(2), np.eye(2), 64, subset=subset)


class TestStabilitySweep:
    def test_rows_match_the_measure(self):
        rows = stability_sweep([0.0, 0.5], [0.0, 1.0], sigma=2.0, theta_grid_size=64)
        assert [r[:2] for r in rows] == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0)]
        for a, b, norm, value in rows:
            C = np.array([[a, b], [0.0, a]])
            assert norm == operator_norm_var1_kernel(C)
            assert value == stability_measure_var1(C, 4.0 * np.eye(2), 64).value

    @pytest.mark.parametrize("kwargs, name", [
        (dict(a_values=[np.nan]), "a_values"), (dict(b_values=[0.0, np.inf]), "b_values"),
        (dict(sigma=0.0), "sigma"), (dict(sigma=np.nan), "sigma"),
        (dict(a_values=[]), "a_values"), (dict(b_values=[]), "b_values"),
        (dict(sigma=-1.0), "sigma"),
        (dict(a_values=[0.5, -1.2]), r"a_values: the \(a, b\) pair \(-1.2, 0.0\)")])
    def test_bad_arguments_rejected(self, kwargs, name):
        args = dict(a_values=[0.5], b_values=[0.0], sigma=1.0) | kwargs
        with pytest.raises(ConfigError, match=name):
            stability_sweep(**args, theta_grid_size=64)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm_var1_kernel(np.eye(2)) == pytest.approx(1.0)

    def test_known_singular_values(self):
        U, V = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2)))[0], \
            np.linalg.qr(np.random.default_rng(8).standard_normal((2, 2)))[0]
        C = U @ np.diag([2.0, 0.5]) @ V
        assert operator_norm_var1_kernel(C) == pytest.approx(2.0, rel=1e-12)

    def test_pattern_matches_stability_monotonicity(self):
        norms = [[operator_norm_var1_kernel(np.array([[a, b], [0, a]]))
                  for b in (0.0, 0.5, 1.0)] for a in (0.2, 0.5, 0.8)]
        arr = np.array(norms)
        assert np.all(np.diff(arr, axis=0) > 0)  # increasing in a
        assert np.all(np.diff(arr, axis=1) > 0)  # increasing in |b|
