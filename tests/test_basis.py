"""Tests for basis evaluation and Gram/penalty matrices."""

import numpy as np
import pytest

from fvar.basis import (BasisSpec, _bspline_knots, evaluate_basis,
                        evaluate_basis_deriv2, gram_matrices)
from fvar.errors import ConfigError, DataError

from oracles import deboor_basis, dense_gram


class TestFourierEvaluation:
    def test_constant_basis(self):
        spec = BasisSpec("fourier", 1)
        np.testing.assert_allclose(evaluate_basis(spec, [0.5]), [[1.0]])

    def test_value_at_zero(self):
        spec = BasisSpec("fourier", 3)
        row = evaluate_basis(spec, [0.0])[0]
        np.testing.assert_allclose(row, [1.0, 0.0, np.sqrt(2.0)], atol=1e-14)

    def test_ordering_constant_then_pairs(self):
        spec = BasisSpec("fourier", 5)
        u = np.linspace(0, 1, 7)
        B = evaluate_basis(spec, u)
        np.testing.assert_allclose(B[:, 1], np.sqrt(2) * np.sin(2 * np.pi * u))
        np.testing.assert_allclose(B[:, 2], np.sqrt(2) * np.cos(2 * np.pi * u))
        np.testing.assert_allclose(B[:, 3], np.sqrt(2) * np.sin(4 * np.pi * u))
        np.testing.assert_allclose(B[:, 4], np.sqrt(2) * np.cos(4 * np.pi * u))

    def test_scaled_domain_orthonormal(self):
        spec = BasisSpec("fourier", 5, domain=(0.0, 3.0))
        J = dense_gram(lambda g: evaluate_basis(spec, g), 0.0, 3.0)
        np.testing.assert_allclose(J, np.eye(5), atol=1e-8)

    def test_point_outside_domain_raises(self):
        spec = BasisSpec("fourier", 3)
        with pytest.raises(DataError):
            evaluate_basis(spec, [1.2])


class TestBsplineEvaluation:
    def test_partition_of_unity(self):
        spec = BasisSpec("bspline", 8)
        u = np.linspace(0, 1, 57)
        B = evaluate_basis(spec, u)
        np.testing.assert_allclose(B.sum(axis=1), np.ones(57), atol=1e-12)
        assert np.all(B >= -1e-14)

    def test_matches_deboor_recursion(self):
        spec = BasisSpec("bspline", 8)
        u = np.linspace(0, 1, 41)
        ours = evaluate_basis(spec, u)
        ref = deboor_basis(u, _bspline_knots(spec), 3, 8)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_endpoints_clamped(self):
        spec = BasisSpec("bspline", 6)
        B = evaluate_basis(spec, [0.0, 1.0])
        assert B[0, 0] == pytest.approx(1.0)
        assert B[1, -1] == pytest.approx(1.0)

    def test_outside_domain_raises(self):
        spec = BasisSpec("bspline", 6)
        with pytest.raises(DataError):
            evaluate_basis(spec, [-0.01])


class TestGramMatrices:
    def test_fourier_J_identity(self):
        pair = gram_matrices(BasisSpec("fourier", 5))
        np.testing.assert_allclose(pair.J, np.eye(5))

    def test_fourier_Q_analytic(self):
        pair = gram_matrices(BasisSpec("fourier", 3))
        expected = np.diag([0.0, (2 * np.pi) ** 4, (2 * np.pi) ** 4])
        np.testing.assert_allclose(pair.Q, expected)

    def test_fourier_closed_form_vs_quadrature(self):
        spec = BasisSpec("fourier", 5)
        pair = gram_matrices(spec)
        # composite Gauss-Legendre quadrature oracle
        nodes, weights = np.polynomial.legendre.leggauss(30)
        J = np.zeros((5, 5))
        Q = np.zeros((5, 5))
        panels = np.linspace(0, 1, 9)
        for lo, hi in zip(panels[:-1], panels[1:]):
            x = lo + 0.5 * (hi - lo) * (nodes + 1)
            w = 0.5 * (hi - lo) * weights
            B = evaluate_basis(spec, x)
            D2 = evaluate_basis_deriv2(spec, x)
            J += (B * w[:, None]).T @ B
            Q += (D2 * w[:, None]).T @ D2
        np.testing.assert_allclose(pair.J, J, atol=1e-10)
        np.testing.assert_allclose(pair.Q, Q, atol=1e-10 * (2 * np.pi) ** 4)

    def test_bspline_J_matches_dense_oracle(self):
        spec = BasisSpec("bspline", 6)
        pair = gram_matrices(spec)
        ref = dense_gram(lambda g: evaluate_basis(spec, g), 0.0, 1.0)
        np.testing.assert_allclose(pair.J, ref, atol=1e-8)

    def test_quadratic_form_equals_dense_integral(self):
        spec = BasisSpec("bspline", 7)
        pair = gram_matrices(spec)
        rng = np.random.default_rng(5)
        for _ in range(4):
            c = rng.standard_normal(7)
            grid = np.linspace(0, 1, 100001)
            vals = evaluate_basis(spec, grid) @ c
            w = np.full(grid.size, 1.0 / (grid.size - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            assert c @ pair.J @ c == pytest.approx(float(w @ vals**2), abs=1e-8)

    def test_Q_annihilates_linear_functions(self):
        spec = BasisSpec("bspline", 6)
        pair = gram_matrices(spec)
        grid = np.linspace(0, 1, 200)
        B = evaluate_basis(spec, grid)
        coef, *_ = np.linalg.lstsq(B, 2.0 + 3.0 * grid, rcond=None)
        # u -> a + b u lies in the cubic spline span, so c^T Q c = 0
        assert coef @ pair.Q @ coef == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ["bspline", "fourier"])
    def test_one_read_only_pair_per_spec(self, kind):
        pair = gram_matrices(BasisSpec(kind, 6, domain=(0.0, 2.0)))
        assert gram_matrices(BasisSpec(kind, 6, domain=(0, 2))) is pair
        for m in (pair.J, pair.Q):
            with pytest.raises(ValueError):
                m[0, 0] = 1.0
        assert gram_matrices(BasisSpec(kind, 7, domain=(0.0, 2.0))) is not pair


class TestBasisSpec:
    def test_json_round_trip(self):
        spec = BasisSpec("bspline", 9, domain=(0.0, 2.5))
        back = BasisSpec.from_json(spec.to_json())
        assert back == spec

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            BasisSpec("wavelet", 5)

    def test_bspline_minimum_dimension(self):
        with pytest.raises(ConfigError):
            BasisSpec("bspline", 3)

    def test_empty_domain(self):
        with pytest.raises(ConfigError):
            BasisSpec("fourier", 3, domain=(1.0, 1.0))
