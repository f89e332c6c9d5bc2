"""Tests for the stability measure and its building blocks."""

import numpy as np
import pytest

from fvar.errors import ConfigError, DataError, NonstationaryError, NumericalError
from fvar.moments import (operator_norm_var1_kernel, stability_measure_var1,
                          stability_sweep, sym_inv_sqrt,
                          var1_spectral_density, var1_stationary_cov)

from oracles import lyapunov_series, stability_grid_tops, stability_loop


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


def stress_system(rng):
    """A random VAR(1) of dimension 1 to 5 with spectral radius
    1 - 10^U(-8, -0.1), in coordinates scaled by 10^U(-3, 3), with a noise
    covariance scaled by 10^U(-8, 8)."""
    d = int(rng.integers(1, 6))
    C = rng.standard_normal((d, d))
    C *= (1.0 - 10.0 ** rng.uniform(-8, -0.1)) / np.max(np.abs(np.linalg.eigvals(C)))
    M = rng.standard_normal((d, d))
    D = 10.0 ** rng.uniform(-3, 3, size=d)
    N = 10.0 ** rng.uniform(-8, 8) * (M @ M.T / d + 0.1 * np.eye(d))
    return C * D[:, None] / D, N * np.outer(D, D)


def appendix_S0(a, b):
    return np.array([
        [1.0 / (1 - a**2) + (a**2 + 1) * b**2 / (1 - a**2) ** 3,
         a * b / (1 - a**2) ** 2],
        [a * b / (1 - a**2) ** 2, 1.0 / (1 - a**2)],
    ])


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

    def test_noise_scale_cannot_make_the_covariance_singular(self):
        # the measure is invariant under scaling the noise; the singularity
        # floor is relative to the covariance's largest eigenvalue
        C = np.array([[0.5, 0.3], [0.0, 0.5]])
        want = stability_measure_var1(C, np.eye(2), 64).value
        assert want == pytest.approx(4.093816284435, rel=1e-12)
        for scale in (1e-11, 1e-13, 1e-30):
            rep = stability_measure_var1(C, scale * np.eye(2), 64)
            assert rep.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
    def test_sym_inv_sqrt_floor_is_scale_free(self, scale):
        np.testing.assert_allclose(sym_inv_sqrt(scale * np.diag([4.0, 1.0]),
                                                "singular"),
                                   np.diag([0.5, 1.0]) / np.sqrt(scale),
                                   rtol=1e-14)
        for low in (1e-13, 0.0, -1.0):
            with pytest.raises(NumericalError, match="singular"):
                sym_inv_sqrt(scale * np.diag([1.0, low]), "singular")
        with pytest.raises(NumericalError, match="singular"):
            sym_inv_sqrt(np.zeros((2, 2)), "singular")


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
        # a QZ of the unscaled pencil put these crossings 5e-6 off the circle
        rep = stability_measure_var1(C, N, G, subset=subset)
        value, theta, _ = stability_grid_tops(C, N, G, subset)
        assert (rep.value, rep.argmax_theta) == (value, theta)

    def test_near_unit_root_stress_systems_match_full_grid_oracle(self):
        # eigenvalues up to 1e-8 from the unit circle, coordinates scaled by
        # up to 1e3 either way and noise by up to 1e8: the level-set solve's
        # shift must stay off every crossing and find them all on the circle
        rng = np.random.default_rng(16)
        compared, lowest = 0, set()
        for _ in range(300):
            C, N = stress_system(rng)
            d = C.shape[0]
            G = int(rng.choice([64, 65, 1025, 4097]))
            subset = (None if rng.random() < 0.5 else
                      [int(i) for i in rng.choice(d, rng.integers(1, d + 1),
                                                  replace=False)])
            try:
                value, theta, tops = stability_grid_tops(C, N, G, subset)
            except NumericalError:  # a stationary covariance singular to 1e-12
                with pytest.raises(NumericalError):
                    stability_measure_var1(C, N, G, subset=subset)
                continue
            rep = stability_measure_var1(C, N, G, subset=subset)
            assert (rep.value, rep.argmax_theta) == (value, theta)
            compared += 1
            # where the shift sits: the coarse point with the lowest top
            coarse = tops[np.r_[np.arange(0, tops.size, 16), tops.size - 1]]
            low = int(np.argmin(coarse))
            lowest.add("-pi" if low == 0 else
                       "interior" if low < coarse.size - 1 else "0")
        assert compared >= 200 and {"-pi", "interior"} <= lowest

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
