"""Tests for the regularized FPCA pipeline and its cross-validation."""

import numpy as np
import pytest
import scipy.linalg

from fvar.basis import BasisSpec, evaluate_basis, gram_matrices
from fvar.errors import ConfigError
from fvar.fpca import (EIGEN_FLOOR, cross_validate, fit_regularized_fpca,
                       fpca_panel, project_to_basis, reconstruct)
from fvar.panel import CurvePanel

from oracles import (cross_validate_refit, fpca_components, fpca_panel_loop,
                     fpca_refit)

GRID = np.linspace(0.0, 1.0, 50)


def single_factor_panel(n=400, noise=0.0, seed=1):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    curves = np.outer(z, np.sqrt(2) * np.sin(2 * np.pi * GRID))
    if noise:
        curves = curves + noise * rng.standard_normal(curves.shape)
    return curves, z


class TestPipeline:
    def test_single_factor_recovers_eigenfunction(self):
        curves, z = single_factor_panel()
        model = fit_regularized_fpca(curves, GRID, BasisSpec("fourier", 5), q=2, eta=0.0)
        phi = model.eigenfunctions(GRID)[:, 0]
        target = np.sqrt(2) * np.sin(2 * np.pi * GRID)
        err = min(np.abs(phi - target).max(), np.abs(phi + target).max())
        assert err < 1e-8
        zc = z - z.mean()
        assert model.eigenvalues[0] == pytest.approx(float(zc @ zc / len(z)), rel=1e-8)

    def test_eta_zero_matches_generalized_eigensolve(self):
        rng = np.random.default_rng(2)
        curves = rng.standard_normal((40, GRID.size)).cumsum(axis=1) / 5.0
        basis = BasisSpec("bspline", 9)
        model = fit_regularized_fpca(curves, GRID, basis, q=5, eta=0.0)
        grams = gram_matrices(basis)
        delta = project_to_basis(curves, GRID, basis)
        dc = delta - delta.mean(axis=0)
        U = grams.J @ (dc.T @ dc) @ grams.J / delta.shape[0]
        ref = np.sort(scipy.linalg.eigh(U, grams.J, eigvals_only=True))[::-1][:5]
        np.testing.assert_allclose(model.eigenvalues, ref, atol=1e-8 * max(ref))

    def test_eta_zero_fourier_equals_coefficient_pca(self):
        rng = np.random.default_rng(3)
        curves = rng.standard_normal((60, GRID.size))
        basis = BasisSpec("fourier", 5)
        model = fit_regularized_fpca(curves, GRID, basis, q=5, eta=0.0)
        delta = project_to_basis(curves, GRID, basis)
        dc = delta - delta.mean(axis=0)
        ref = np.sort(np.linalg.eigvalsh(dc.T @ dc / 60))[::-1]
        np.testing.assert_allclose(model.eigenvalues, ref, atol=1e-10)

    def test_large_eta_flattens_leading_component(self):
        rng = np.random.default_rng(4)
        curves = rng.standard_normal((50, GRID.size))
        basis = BasisSpec("bspline", 8)
        grams = gram_matrices(basis)
        model = fit_regularized_fpca(curves, GRID, basis, q=1, eta=1e6)
        zeta = model.eigen_coeffs[0]
        # penalty dominance drives the roughness c^T Q c toward zero
        assert zeta @ grams.Q @ zeta < 1e-4

    @pytest.mark.parametrize("eta", [0.0, 1e-4, 1e-2])
    def test_penalized_orthogonality(self, eta):
        rng = np.random.default_rng(5)
        curves = rng.standard_normal((45, GRID.size)).cumsum(axis=1) / 4.0
        basis = BasisSpec("bspline", 10)
        grams = gram_matrices(basis)
        model = fit_regularized_fpca(curves, GRID, basis, q=4, eta=eta)
        M = grams.J + eta * grams.Q
        Z = model.eigen_coeffs
        gram = Z @ M @ Z.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8
        norms = np.einsum("lg,gh,lh->l", Z, grams.J, Z)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_eigenvalues_nonincreasing_and_nonnegative(self):
        rng = np.random.default_rng(6)
        curves = rng.standard_normal((30, GRID.size))
        model = fit_regularized_fpca(curves, GRID, BasisSpec("bspline", 8), q=6, eta=1e-3)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0)

    def test_scores_centered_and_diagonal_at_eta_zero(self):
        rng = np.random.default_rng(7)
        curves = rng.standard_normal((80, GRID.size))
        model = fit_regularized_fpca(curves, GRID, BasisSpec("fourier", 5), q=4, eta=0.0)
        np.testing.assert_allclose(model.scores.mean(axis=0), 0.0, atol=1e-10)
        cov = model.scores.T @ model.scores / 80
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8
        np.testing.assert_allclose(np.diag(cov), model.eigenvalues, rtol=0,
                                   atol=1e-10)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        curves = rng.standard_normal((30, GRID.size))
        basis = BasisSpec("fourier", 5)
        m1 = fit_regularized_fpca(curves, GRID, basis, q=3, eta=0.0)
        m2 = fit_regularized_fpca(curves.copy(), GRID, basis, q=3, eta=0.0)
        np.testing.assert_array_equal(m1.eigen_coeffs, m2.eigen_coeffs)
        peaks = np.take_along_axis(
            m1.eigen_coeffs, np.abs(m1.eigen_coeffs).argmax(axis=1)[:, None], 1)
        assert np.all(peaks > 0)

    def test_rank_truncation_flag(self):
        curves, _ = single_factor_panel(n=40)
        model = fit_regularized_fpca(curves, GRID, BasisSpec("fourier", 5), q=4, eta=0.0)
        assert model.truncated
        assert model.q < 4

    def test_q_too_large_rejected(self):
        curves, _ = single_factor_panel(n=10)
        with pytest.raises(ConfigError):
            fit_regularized_fpca(curves, GRID, BasisSpec("fourier", 5), q=6, eta=0.0)

    @pytest.mark.parametrize("length", [1e-10, 1e-12])
    def test_short_domain_is_not_rank_deficient(self, length):
        # J shrinks with the domain's length but keeps its condition number
        # (28 here), so its singularity floor is relative to its largest
        # eigenvalue: the fit is the unit-domain fit, rescaled
        curves = np.random.default_rng(9).standard_normal((60, GRID.size))
        ref = fit_regularized_fpca(curves, GRID, BasisSpec("bspline", 8), q=3)
        model = fit_regularized_fpca(curves, length * GRID,
                                     BasisSpec("bspline", 8, (0.0, length)), q=3)
        np.testing.assert_allclose(model.eigenvalues, length * ref.eigenvalues,
                                   rtol=1e-14)
        want = np.sqrt(length) * ref.scores
        np.testing.assert_allclose(model.scores, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


class TestReconstruct:
    def test_full_rank_exact(self):
        rng = np.random.default_rng(9)
        basis = BasisSpec("fourier", 5)
        coeffs = rng.standard_normal((12, 5))
        from fvar.basis import evaluate_basis
        curves = coeffs @ evaluate_basis(basis, GRID).T
        model = fit_regularized_fpca(curves, GRID, basis, q=5, eta=0.0)
        for t in (0, 7):
            np.testing.assert_allclose(reconstruct(model, t, GRID),
                                       curves[t], atol=1e-8)

    def test_zero_scores_give_mean(self):
        curves, _ = single_factor_panel(n=25)
        model = fit_regularized_fpca(curves, GRID, BasisSpec("fourier", 5), q=1, eta=0.0)
        model.scores[3] = 0.0
        np.testing.assert_allclose(reconstruct(model, 3, GRID),
                                   model.mean_curve(GRID))

    def test_rank_one_beats_noise_floor(self):
        noise = 0.3
        curves, z = single_factor_panel(n=300, noise=noise, seed=10)
        model = fit_regularized_fpca(curves, GRID, BasisSpec("bspline", 8), q=1, eta=1e-6)
        errs = [np.mean((reconstruct(model, t, GRID) - curves[t]) ** 2)
                for t in range(50)]
        assert np.mean(errs) < noise ** 2


class TestCrossValidate:
    def test_single_candidate_returned(self):
        curves, _ = single_factor_panel(n=30)
        cv = cross_validate(curves, GRID, BasisSpec("fourier", 5), [2], [1e-3],
                            folds=3, seed=0)
        assert (cv.q, cv.eta) == (2, 1e-3)

    def test_rank_two_data_prefers_two_components(self):
        rng = np.random.default_rng(11)
        n = 120
        z = rng.standard_normal((n, 2)) * np.array([2.0, 1.0])
        phi = np.vstack([np.sqrt(2) * np.sin(2 * np.pi * GRID),
                         np.sqrt(2) * np.cos(2 * np.pi * GRID)])
        curves = z @ phi
        cv = cross_validate(curves, GRID, BasisSpec("fourier", 5), [1, 2, 3], [0.0],
                            folds=4, seed=1)
        table = {row[0]: row[2] for row in cv.table}
        assert table[2] <= table[1]
        assert table[2] == pytest.approx(table[3], abs=1e-8)
        assert cv.q == 2  # tie with q=3 broken toward smaller q

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        curves = rng.standard_normal((40, GRID.size))
        basis = BasisSpec("bspline", 8)
        cv1 = cross_validate(curves, GRID, basis, [2, 3], [0.0, 1e-3], folds=4, seed=7)
        cv2 = cross_validate(curves, GRID, basis, [2, 3], [0.0, 1e-3], folds=4, seed=7)
        assert cv1.table == cv2.table

    def test_tiny_folds_rejected(self):
        curves, _ = single_factor_panel(n=5)
        with pytest.raises(ConfigError):
            cross_validate(curves, GRID, BasisSpec("fourier", 3), [1], [0.0],
                           folds=4, seed=0)


class TestAgainstRefit:
    """One decomposition per (fold, eta) against a full refit per q."""

    ETAS = [0.0, 1e-4, 1e-2]
    Q_GRID = [1, 2, 3, 4, 5, 6]
    BASIS = BasisSpec("bspline", 9)

    @pytest.fixture(scope="class")
    def curves(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((40, GRID.size)).cumsum(axis=1) / 5.0

    def test_fixture_orders_differ_at_q_boundary(self, curves):
        # the q-component model is the first q components in whitened order,
        # which here is not the set of the q largest score variances
        delta = project_to_basis(curves, GRID, self.BASIS)
        grams = gram_matrices(self.BASIS)
        for eta in (1e-4, 1e-2):
            lambdas = fpca_components(delta, grams, 9, eta)[2]
            top = np.argsort(-lambdas, kind="stable")
            assert set(range(5)) != set(top[:5])

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_fit_equals_refit(self, curves, q, eta):
        model = fit_regularized_fpca(curves, GRID, self.BASIS, q=q, eta=eta)
        delta = project_to_basis(curves, GRID, self.BASIS)
        mean, zetas, lambdas, scores, truncated = fpca_refit(
            delta, gram_matrices(self.BASIS), q, eta)
        np.testing.assert_array_equal(model.mean_coeffs, mean)
        np.testing.assert_array_equal(model.eigen_coeffs, zetas)
        np.testing.assert_array_equal(model.eigenvalues, lambdas)
        np.testing.assert_array_equal(model.scores, scores)
        assert model.truncated == truncated
        assert model.smoothing == eta

    @pytest.mark.parametrize("folds, seed", [(4, 3), (5, 1)])
    def test_cv_table_equals_refit(self, curves, folds, seed):
        cv = cross_validate(curves, GRID, self.BASIS, self.Q_GRID, self.ETAS,
                            folds=folds, seed=seed)
        ref = cross_validate_refit(
            project_to_basis(curves, GRID, self.BASIS), curves,
            evaluate_basis(self.BASIS, GRID), gram_matrices(self.BASIS),
            self.Q_GRID, self.ETAS, folds, seed)
        assert cv.table == ref

    def test_one_eigh_per_fold_and_eta(self, curves, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        cross_validate(curves, GRID, self.BASIS, [4, 5, 6], self.ETAS,
                       folds=5, seed=0)
        assert len(calls) == 3 + 3 * 5  # one whitening per eta

    def test_grid_q_out_of_range_rejected(self, curves):
        with pytest.raises(ConfigError, match="q must be"):
            cross_validate(curves[:8], GRID, self.BASIS, [2, 7], [0.0],
                           folds=4, seed=0)

    def test_negative_eta_rejected(self, curves):
        with pytest.raises(ConfigError, match="nonnegative"):
            fit_regularized_fpca(curves, GRID, self.BASIS, q=2, eta=-1e-3)
        with pytest.raises(ConfigError, match="nonnegative"):
            cross_validate(curves, GRID, self.BASIS, [2], [0.0, -1e-3],
                           folds=4, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected(self, curves, eta):
        match = f"must be finite and nonnegative; got {eta!r}"
        with pytest.raises(ConfigError, match=match):
            fit_regularized_fpca(curves, GRID, self.BASIS, q=2, eta=eta)
        with pytest.raises(ConfigError, match=match):
            cross_validate(curves, GRID, self.BASIS, [2], [0.0, eta],
                           folds=4, seed=0)


def mixed_panel(n=62, seed=21):
    """Six variables that CV tells apart: exact rank one (fewer components
    than any q > 1 asks for), rank two, one dominant direction (cut by
    ``EIGEN_FLOOR``), a random walk, one smooth factor in strong noise (CV
    smooths it) and a rank-three mixture.  n = 62 is not a multiple of the BLAS kernel width."""
    rng = np.random.default_rng(seed)
    waves = np.vstack([np.sqrt(2) * np.sin(2 * np.pi * k * GRID)
                       for k in (1, 2, 3)])
    z = rng.standard_normal((n, 3))
    noise = rng.standard_normal((n, GRID.size))
    values = np.stack([
        np.outer(z[:, 0], waves[0]),
        z[:, :2] * [2.0, 1.0] @ waves[:2] + 0.05 * noise,
        z[:, :2] * [1.0, 0.02] @ waves[:2] + 1e-3 * noise,
        rng.standard_normal((n, GRID.size)).cumsum(axis=1) / 5.0,
        np.outer(z[:, 2], np.sin(np.pi * GRID)) + 0.5 * noise,
        z * [3.0, 2.0, 1.0] @ waves + 0.2 * rng.standard_normal((n, GRID.size)),
    ], axis=1)
    return CurvePanel(values=values, grid=GRID)


class TestPanel:
    """The stacked panel against one variable at a time."""

    BASIS = BasisSpec("bspline", 9)

    def assert_equal_to_loop(self, panel, q_grid, eta_grid, folds=4, seed=3):
        stage1 = fpca_panel(panel, self.BASIS, q_grid, eta_grid, folds=folds,
                            seed=seed)
        models, selections = fpca_panel_loop(panel, self.BASIS, q_grid,
                                             eta_grid, folds=folds, seed=seed)
        assert stage1.selections == selections
        for got, want in zip(stage1.kl_models, models, strict=True):
            for name in ("mean_coeffs", "eigenvalues", "eigen_coeffs", "scores"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert (got.smoothing, got.truncated) == (want.smoothing,
                                                      want.truncated)
        return stage1

    def test_cv_grid_with_different_choices(self):
        stage1 = self.assert_equal_to_loop(mixed_panel(), [1, 2, 3, 4],
                                           [0.0, 1e-5, 1e-3])
        assert len(set(stage1.selections)) > 2
        assert len({eta for _, eta in stage1.selections}) > 1

    def test_single_candidate(self):
        self.assert_equal_to_loop(mixed_panel(), [2], [1e-4])

    def test_eigen_floor_truncation(self):
        stage1 = self.assert_equal_to_loop(mixed_panel(), [3], [0.0])
        m = stage1.kl_models[2]
        assert m.q == 1 and not m.truncated
        assert stage1.kl_models[5].q == 3
        lams = fit_regularized_fpca(mixed_panel().values[:, 2], GRID,
                                    self.BASIS, q=3).eigenvalues
        assert lams[1] < EIGEN_FLOOR * lams[0]

    def test_q_above_rank_is_truncated(self):
        stage1 = self.assert_equal_to_loop(mixed_panel(), [4], [1e-2])
        m = stage1.kl_models[0]
        assert m.truncated and m.q == 1
        assert not any(m.truncated for m in stage1.kl_models[1:])

    @pytest.mark.parametrize("n, p", [(30, 3), (201, 1), (250, 20)])
    def test_stacked_projection_is_the_one_variable_projection(self, n, p):
        curves = np.random.default_rng(n + p).standard_normal((p, n, GRID.size))
        stacked = project_to_basis(curves, GRID, self.BASIS)
        for j in range(p):
            np.testing.assert_array_equal(
                stacked[j], project_to_basis(curves[j], GRID, self.BASIS))

    @pytest.mark.parametrize("kind", ["fourier", "bspline"])
    @pytest.mark.parametrize("G, T", [(4, 12), (5, 50), (9, 24), (15, 78),
                                      (25, 50), (40, 101)])
    def test_projector_is_scipys_triangular_solve(self, kind, G, T):
        grid = np.linspace(0.0, 1.0, T)
        basis = BasisSpec(kind, G)
        Q, R = np.linalg.qr(evaluate_basis(basis, grid))
        projector = scipy.linalg.solve_triangular(R, Q.T).T
        for shape in [(7, T), (3, 7, T)]:  # one variable, a stack
            curves = np.random.default_rng(G * T).standard_normal(shape)
            np.testing.assert_array_equal(
                project_to_basis(curves, grid, basis), curves @ projector)

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 1.0, 8),
                                      np.repeat(np.linspace(0.0, 1.0, 5), 2)],
                             ids=["fewer-points", "repeated-points"])
    def test_rank_deficient_basis_rejected(self, grid):
        with pytest.raises(ConfigError, match="rank deficient"):
            project_to_basis(np.ones((3, grid.size)), grid, self.BASIS)

    @pytest.mark.parametrize("p", [2, 6])
    def test_eigh_calls_do_not_grow_with_p(self, p, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        panel = mixed_panel()
        panel = CurvePanel(values=panel.values[:, :p], grid=GRID)
        etas, folds = [0.0, 1e-4, 1e-1], 4
        fpca_panel(panel, self.BASIS, [1, 2, 3], etas, folds=folds)
        assert len(calls) <= len(etas) * (1 + folds) + len(etas)
