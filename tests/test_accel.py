"""The numpy kernels (block FISTA, block norms, VAR recursion) against
plain-loop references."""

import numpy as np
import pytest

import fvar
from fvar.errors import NumericalError
from fvar.solver import block_fista_gram, block_sq_norms
from fvar.vfar import var_lag_path

from helpers import prefix_objectives
from oracles import fista_loop, group_objective_gram


def fista_inputs(sizes, q, gamma_ratio, seed=0, n=40, tol=1e-10):
    """Gram-form problem on blocks of the given row counts, at gamma a
    fraction of the smallest gamma with an all-zero solution."""
    rng = np.random.default_rng(seed)
    r = sum(sizes)
    B = rng.standard_normal((n, r))
    Y = rng.standard_normal((n, q))
    gram = B.T @ B
    hmat = B.T @ Y
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    top = max(np.linalg.norm(hmat[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))
    step = 0.9 / np.linalg.eigvalsh(gram)[-1]
    return (gram, hmat, float(np.sum(Y * Y)), offsets, gamma_ratio * top,
            step, tol, 20000, np.zeros((r, q)))


class TestBackends:
    def test_backend_reported(self):
        assert fvar.accel_backend() == "numpy"

    @pytest.mark.parametrize("sizes, q", [([3, 3, 3], 2), ([1, 3, 2, 1, 2, 3], 3),
                                          ([2, 1, 1, 3], 1)])
    @pytest.mark.parametrize("gamma_ratio", [0.0, 0.1, 0.5, 1.2])
    def test_fista_matches_loop_reference(self, sizes, q, gamma_ratio):
        args = fista_inputs(sizes, q, gamma_ratio, seed=len(sizes))
        info = block_fista_gram(*args)
        x_ref, trace_ref, n_ref, status_ref = fista_loop(*args)
        assert (info.converged, info.iterations) == (status_ref == 1, n_ref - 1)
        np.testing.assert_allclose(info.x, x_ref, rtol=0, atol=1e-12)
        # a solve capped at k iterations returns the k-th proximal point
        objectives = prefix_objectives(*args[:7], info.iterations, args[8])
        np.testing.assert_allclose(objectives[:, 0], trace_ref, rtol=1e-12)

    @pytest.mark.parametrize("sizes, q", [([3, 3, 3], 2), ([1, 3, 2, 1, 2, 3], 3),
                                          ([2, 1, 1, 3], 1)])
    @pytest.mark.parametrize("gamma_ratio", [0.0, 0.5])
    def test_fista_stall_at_optimum_converges(self, sizes, q, gamma_ratio):
        # with tol=0 only the stall exit ends the run: a momentum-free step
        # whose objective rises by rounding alone.  Where that happens
        # depends on each implementation's rounding, and an objective flat
        # to rounding pins x only to about sqrt(machine epsilon)
        args = fista_inputs(sizes, q, gamma_ratio, seed=len(sizes), tol=0.0)
        info = block_fista_gram(*args)
        x_ref, trace_ref, _, status_ref = fista_loop(*args)
        assert info.converged and status_ref == 1
        np.testing.assert_allclose(info.x, x_ref, rtol=0, atol=1e-6)
        gram, hmat, ynorm_sq, offsets, gamma = args[:5]
        np.testing.assert_allclose(
            group_objective_gram(gram, hmat, ynorm_sq, info.x, offsets, gamma),
            trace_ref[-1], rtol=1e-13)

    def test_fista_divergence_reported(self):
        args = list(fista_inputs([2, 1, 3], 2, 0.0))
        args[5] = 100.0  # far beyond 1 / lambda_max
        assert fista_loop(*args)[3] == -1
        with pytest.raises(NumericalError, match="diverged"):
            block_fista_gram(*args)

    def test_block_sq_norms_unequal_blocks(self):
        a = np.arange(12.0).reshape(6, 2)
        got = block_sq_norms(a, np.array([0, 1, 4]))
        want = [np.sum(a[0:1] ** 2), np.sum(a[1:4] ** 2), np.sum(a[4:6] ** 2)]
        np.testing.assert_array_equal(got, want)

    def test_var_path_zero_coefficients(self):
        innov = np.random.default_rng(2).standard_normal((50, 4))
        out = var_lag_path(np.zeros((1, 4, 4)), innov)
        np.testing.assert_array_equal(out, innov)

    def test_var_path_matches_manual_recursion(self):
        rng = np.random.default_rng(3)
        coefs = 0.3 * rng.standard_normal((2, 3, 3))
        innov = rng.standard_normal((40, 3))
        out = var_lag_path(coefs, innov)
        manual = np.zeros((40, 3))
        for t in range(40):
            acc = innov[t].copy()
            if t >= 1:
                acc += coefs[0] @ manual[t - 1]
            if t >= 2:
                acc += coefs[1] @ manual[t - 2]
            manual[t] = acc
        np.testing.assert_allclose(out, manual, atol=1e-12)
