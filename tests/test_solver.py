"""Tests for the design assembly, block FISTA solver, selection and recovery."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from fvar.basis import BasisSpec, evaluate_basis
from fvar.errors import ConfigError, DataError, NumericalError
from fvar.fpca import KLModel, fit_regularized_fpca
from fvar.moments import sym_inv_sqrt
from fvar.panel import CurvePanel
from fvar.pipeline import fit_rows, fpca_panel, sweep_path
from fvar.solver import (KernelEstimate, best_fit, block_fista_gram,
                         build_design, default_gamma_grid,
                         df_from_contributions, fit_row, gamma_max,
                         group_soft_threshold, kkt_residuals, recover_kernels,
                         regularization_path, standardized_coeffs)
from fvar.vfar import gen_block_banded, simulate, simulate_coefficients

from helpers import (kl_from_scores, lagged_scores, oracle_design,
                     oracle_models, prefix_objectives)
from oracles import (block_coordinate_descent, fista_row, fit_result_loop,
                     group_objective, hs_norms_loop, hs_stacked, kkt_loop,
                     path_rows)


def fista_from_data(Y, B, gamma, offsets, step=None, **kwargs):
    """Solve min_X 0.5||Y - B X||_F^2 + gamma sum_k ||X_k||_F from the data
    form, by default at step 0.9 / lambda_max(B^T B)."""
    gram = B.T @ B
    if step is None:
        step = 0.9 / np.linalg.eigvalsh(gram)[-1]
    return block_fista_gram(gram, B.T @ Y, float(np.sum(Y * Y)), offsets,
                            gamma, step, **kwargs)


def fit_objective(design, fit):
    """The group-lasso objective of a row fit at its own gamma."""
    return group_objective(design.responses[fit.j], design.design,
                           standardized_coeffs(design, fit), design.offsets,
                           fit.gamma)


def mixed_block_models(sizes=(1, 3, 2, 1), n=90, seed=21):
    """KL models with scores of unequal widths q_k, so a wrong block
    mapping in the solver cannot hide behind equal sizes."""
    model = gen_block_banded(p=len(sizes), G=max(sizes), bandwidth=1,
                             seed=seed, measurement_noise=0.0)
    coeffs = simulate_coefficients(model, n, seed=seed)
    return [kl_from_scores(coeffs[:, k, :q], BasisSpec("fourier", max(sizes)))
            for k, q in enumerate(sizes)]


def mixed_block_design(sizes=(1, 3, 2, 1), L=2, n=90, seed=21):
    """Design of ``mixed_block_models`` with L lags."""
    return build_design(mixed_block_models(sizes, n, seed), L)


class TestBuildDesign:
    def test_index_contract(self):
        n, p = 9, 2
        scores = [np.arange(n, dtype=float)[:, None] + 100 * j for j in range(p)]
        design = build_design([kl_from_scores(s) for s in scores], L=1)
        np.testing.assert_array_equal(design.responses[0][:, 0], np.arange(1, 9))
        raw = np.column_stack([np.arange(0, 8), np.arange(0, 8) + 100.0])
        np.testing.assert_allclose(design.design,
                                   raw @ block_diag(*design.roots_inv),
                                   rtol=1e-13)

    def test_two_lags_alignment(self):
        n = 10
        scores = np.arange(n, dtype=float)[:, None]
        design = build_design([kl_from_scores(scores)], L=2)
        np.testing.assert_array_equal(design.responses[0][:, 0], np.arange(2, 10))
        raw = np.column_stack([np.arange(1, 9), np.arange(0, 8.0)])
        np.testing.assert_allclose(design.design,
                                   raw @ block_diag(*design.roots_inv),
                                   rtol=1e-13)

    @pytest.mark.parametrize("L", [1, 2])
    def test_design_is_lagged_scores_unstandardized(self, L):
        # full (q_k, q_k) blocks of D^{-1}: diagonal-only blocks would break
        # this on the q_k > 1 blocks
        kl = mixed_block_models()
        design = build_design(kl, L)
        np.testing.assert_allclose(
            design.design, lagged_scores(kl, L) @ block_diag(*design.roots_inv),
            rtol=1e-10, atol=1e-12)

    def test_scalar_standardizer(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((40, 1))
        design = build_design([kl_from_scores(s)], L=1)
        assert 1.0 / block_diag(*design.roots_inv)[0, 0] == pytest.approx(
            np.sqrt(s[:-1, 0] @ s[:-1, 0] / 39))

    def test_standardized_blocks_orthonormal(self):
        design, _ = oracle_design()
        n_eff = design.n_eff
        for k in range(design.n_blocks):
            lo, hi = design.offsets[k], design.offsets[k + 1]
            blk = design.design[:, lo:hi]
            np.testing.assert_allclose(blk.T @ blk / n_eff,
                                       np.eye(hi - lo), atol=1e-10)

    def test_fpca_scores_near_diagonal_gram(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 40)
        curves = rng.standard_normal((200, grid.size))
        model = fit_regularized_fpca(curves, grid, BasisSpec("bspline", 8),
                                     q=3, eta=0.0)
        design = build_design([model], L=1)
        D = np.linalg.inv(block_diag(*design.roots_inv))
        off = np.abs(D - np.diag(np.diag(D))).max()
        # dropping one time point from the exactly-diagonal full-sample Gram
        # leaves off-diagonals of order lambda/n
        assert off < 10 * np.diag(D).max() / np.sqrt(200)

    def test_degenerate_scores_rejected(self):
        s = np.zeros((20, 2))
        s[:, 0] = np.random.default_rng(2).standard_normal(20)
        with pytest.raises(NumericalError, match="smaller q"):
            build_design([kl_from_scores(s)], L=1)

    def test_too_few_samples_rejected(self):
        s = np.ones((2, 1))
        with pytest.raises(ConfigError):
            build_design([kl_from_scores(s)], L=2)

    def test_fewer_lagged_rows_than_scores_rejected(self):
        rng = np.random.default_rng(3)
        kl = [kl_from_scores(rng.standard_normal((6, 2))),
              kl_from_scores(rng.standard_normal((6, 5)))]
        with pytest.raises(ConfigError, match=r"variable 1 has q=5 scores but "
                           r"n=6 .* n-L=4 .* L=2; .* n >= L \+ q = 7"):
            build_design(kl, L=2)
        build_design(kl[:1], L=2)


class TestGroupSoftThreshold:
    def test_annihilation(self):
        Z = np.array([[0.3, 0.4]])
        np.testing.assert_array_equal(group_soft_threshold(Z, 0.5), 0.0)
        np.testing.assert_array_equal(group_soft_threshold(Z, 10.0), 0.0)

    def test_tau_zero_identity(self):
        Z = np.random.default_rng(3).standard_normal((6, 2))
        offs = np.array([0, 3, 6])
        np.testing.assert_array_equal(group_soft_threshold(Z, 0.0, offs), Z)

    def test_hand_example(self):
        Z = np.array([[3.0, 0.0], [0.0, 4.0]])
        out = group_soft_threshold(Z, 1.0)
        np.testing.assert_allclose(out, [[2.4, 0.0], [0.0, 3.2]])

    def test_norm_shrinks_by_tau(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            Z = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 4)))
            tau = float(rng.uniform(0, 2))
            out = group_soft_threshold(Z, tau)
            nz = np.linalg.norm(Z)
            assert np.linalg.norm(out) == pytest.approx(max(0.0, nz - tau),
                                                        abs=1e-12)
            if np.linalg.norm(out) > 0:
                cos = np.sum(out * Z) / (np.linalg.norm(out) * nz)
                assert cos == pytest.approx(1.0, abs=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            group_soft_threshold(np.ones((2, 2)), -0.1)

    def test_nan_tau_rejected(self):
        with pytest.raises(ConfigError, match="threshold must be >= 0; got nan"):
            group_soft_threshold(np.ones((2, 2)), float("nan"))

    def test_infinite_tau_zeroes_every_block(self):
        out = group_soft_threshold(np.ones((4, 2)), np.inf, np.array([0, 1, 4]))
        np.testing.assert_array_equal(out, 0.0)


class TestBlockFista:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.n, self.q = 60, 2
        self.B = rng.standard_normal((self.n, 9))
        self.Y = rng.standard_normal((self.n, self.q))
        self.offs = np.array([0, 3, 6, 9], dtype=np.int64)

    def test_huge_gamma_annihilates(self):
        gmax = max(np.linalg.norm((self.B.T @ self.Y)[lo:hi])
                   for lo, hi in zip(self.offs[:-1], self.offs[1:]))
        info = fista_from_data(self.Y, self.B, gamma=1.01 * gmax,
                               offsets=self.offs)
        np.testing.assert_array_equal(info.x, 0.0)

    def test_gamma_zero_matches_normal_equations(self):
        info = fista_from_data(self.Y, self.B, gamma=0.0, offsets=self.offs,
                               tol=1e-14, max_iter=50000)
        X = np.linalg.solve(self.B.T @ self.B, self.B.T @ self.Y)
        f_star = 0.5 * np.sum((self.Y - self.B @ X) ** 2)
        f_hat = 0.5 * np.sum((self.Y - self.B @ info.x) ** 2)
        assert abs(f_hat - f_star) <= 1e-10 * f_star

    def test_matches_coordinate_descent_oracle(self):
        gamma = 3.0
        info = fista_from_data(self.Y, self.B, gamma=gamma, offsets=self.offs,
                               tol=1e-14, max_iter=50000)
        _, f_cd = block_coordinate_descent(self.Y, self.B, self.offs, gamma,
                                           tol=1e-12)
        f_fista = group_objective(self.Y, self.B, info.x, self.offs, gamma)
        assert abs(f_fista - f_cd) <= 1e-6 * abs(f_cd)

    def test_trace_nonincreasing(self):
        info = fista_from_data(self.Y, self.B, gamma=1.0, offsets=self.offs,
                               tol=1e-12, max_iter=20000)
        gram = self.B.T @ self.B
        objectives = prefix_objectives(
            gram, self.B.T @ self.Y, float(np.sum(self.Y * self.Y)), self.offs,
            1.0, 0.9 / np.linalg.eigvalsh(gram)[-1], 1e-12, info.iterations)[:, 0]
        diffs = np.diff(objectives)
        assert diffs.max() <= 1e-9 * max(1.0, objectives[0])

    def test_homogeneity_in_response_scale(self):
        c = 3.7
        a = fista_from_data(self.Y, self.B, gamma=2.0, offsets=self.offs,
                            tol=1e-13)
        b = fista_from_data(c * self.Y, self.B, gamma=2.0 * c, offsets=self.offs,
                            tol=1e-13)
        active_a = [np.linalg.norm(a.x[lo:hi]) > 0
                    for lo, hi in zip(self.offs[:-1], self.offs[1:])]
        active_b = [np.linalg.norm(b.x[lo:hi]) > 0
                    for lo, hi in zip(self.offs[:-1], self.offs[1:])]
        assert active_a == active_b
        np.testing.assert_allclose(b.x, c * a.x, atol=1e-6)

    @pytest.mark.parametrize("offsets", [[0, 3, 3, 9], [0, 4], [1, 9], [0, 6, 3, 9]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ConfigError, match="offsets"):
            fista_from_data(self.Y, self.B, gamma=1.0, offsets=offsets)

    def test_divergent_step_raises(self):
        with pytest.raises(NumericalError):
            fista_from_data(self.Y, self.B, gamma=0.0, offsets=self.offs,
                            step=100.0, max_iter=2000)

    def test_kkt_certificates_random_fixtures(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            design, _ = oracle_design(p=3, q=2, n=40, seed=30 + trial)
            gamma = float(rng.uniform(0.2, 0.8)) * gamma_max(design, 0)
            fit = fit_row(0, design, gamma, tol=1e-14, max_iter=100000)
            zero_excess, active_res = kkt_residuals(design, fit)
            assert zero_excess <= 1e-4 * (1 + gamma)
            assert active_res <= 1e-4 * (1 + gamma)


class TestMixedBlocks:
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("ratio", [0.05, 0.3, 0.7])
    def test_oracle_and_kkt_agreement(self, j, ratio):
        design = mixed_block_design()
        assert set(design.block_sizes()) == {1, 2, 3}
        gamma = ratio * gamma_max(design, j)
        fit = fit_row(j, design, gamma, tol=1e-14, max_iter=200000)
        Y, B = design.responses[j], design.design
        _, f_cd = block_coordinate_descent(Y, B, design.offsets, gamma,
                                           tol=1e-12)
        f_fista = group_objective(Y, B, standardized_coeffs(design, fit),
                                  design.offsets, gamma)
        assert abs(f_fista - f_cd) <= 1e-6 * abs(f_cd)
        zero_excess, active_res = kkt_residuals(design, fit)
        assert zero_excess <= 1e-4 * (1 + gamma)
        assert active_res <= 1e-4 * (1 + gamma)

    def test_psi_blocks_shapes_and_values(self):
        sizes = (1, 3, 2, 1)
        kl = mixed_block_models(sizes)
        design = build_design(kl, 2)
        raw = lagged_scores(kl, 2)
        j = 1
        gamma = 0.2 * gamma_max(design, j)
        fit = fit_row(j, design, gamma)
        Y = design.responses[j]
        X = block_fista_gram(design.gram, design.design.T @ Y,
                             float(np.sum(Y * Y)), design.offsets, gamma,
                             design.step_size).x
        assert len(fit.psi) == design.L and len(fit.psi[0]) == design.p
        for h in range(design.L):
            for k in range(design.p):
                block = fit.psi[h][k]
                assert block.shape == (sizes[k], sizes[j])
                # the raw lagged scores times psi give the block's share of
                # the standardized prediction
                rows = slice(design.offsets[h * design.p + k],
                             design.offsets[h * design.p + k + 1])
                np.testing.assert_allclose(
                    raw[:, rows] @ block,
                    design.design[:, rows] @ X[rows],
                    rtol=1e-10, atol=1e-12)
        with pytest.raises(IndexError):
            fit.psi[design.L]

    def test_psi_block_assignment(self):
        design = mixed_block_design()
        fit = fit_row(0, design, 0.2 * gamma_max(design, 0))
        est = recover_kernels(
            [fit_row(j, design, 0.2 * gamma_max(design, j)) if j else fit
             for j in range(design.p)],
            [kl_from_scores(r, BasisSpec("fourier", 3))
             for r in design.responses])
        saved = fit.psi[1][2]
        fit.psi[1][2] = 2.0 * saved + 1.0
        np.testing.assert_array_equal(fit.psi[1][2], 2.0 * saved + 1.0)
        # the estimate keeps the block the fit was recovered from
        np.testing.assert_array_equal(est.psi[1][0][2], saved)
        fit.psi[1][2] = saved
        np.testing.assert_array_equal(fit.psi[1][2], saved)

    def test_psi_views_are_read_only_fit_blocks(self):
        design = mixed_block_design()
        fits = [fit_row(j, design, 0.3 * gamma_max(design, j))
                for j in range(design.p)]
        est = recover_kernels(fits, [kl_from_scores(r, BasisSpec("fourier", 3))
                                     for r in design.responses])
        for h in range(design.L):
            for j in range(design.p):
                for k in range(design.p):
                    for block in (fits[j].psi[h][k], est.psi[h][j][k]):
                        assert not block.flags.writeable
                        with pytest.raises(ValueError):
                            block[...] = 0.0
                    np.testing.assert_array_equal(est.psi[h][j][k],
                                                  fits[j].psi[h][k])

    def test_fit_and_kernel_serialization_exact(self):
        design = mixed_block_design()
        fits = [fit_row(j, design, 0.3 * gamma_max(design, j))
                for j in range(design.p)]
        for fit in fits:
            d = fit.to_dict()
            for h in range(design.L):
                for k in range(design.p):
                    np.testing.assert_array_equal(np.asarray(d["psi"][h][k]),
                                                  fit.psi[h][k])
        kl = [kl_from_scores(r, BasisSpec("fourier", 3))
              for r in design.responses]
        est = recover_kernels(fits, kl)
        text = est.to_json()
        back = KernelEstimate.from_json(text)
        assert back.to_json() == text
        np.testing.assert_array_equal(back.hs, est.hs)
        loop = hs_norms_loop(est)
        np.testing.assert_allclose(est.hs, loop, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(est.hs > 0, loop > 0)
        for h in range(design.L):
            for j in range(design.p):
                for k in range(design.p):
                    np.testing.assert_array_equal(back.psi[h][j][k],
                                                  est.psi[h][j][k])

    @pytest.mark.parametrize("edit, match", [
        (lambda obj: obj["psi"][0][2][1].pop(), "do not fit together"),
        # a row one block taller, a lag one row short, a row one block short
        (lambda obj: obj["psi"][0][2].append(obj["psi"][0][2][0]),
         "do not fit together"),
        (lambda obj: obj["psi"][1].pop(), "do not fit together"),
        (lambda obj: obj["psi"][1][0].pop(), "do not fit together"),
        (lambda obj: obj.__setitem__("L", 3), "expected L=3")])
    def test_malformed_kernel_json_is_data_error(self, edit, match):
        design = mixed_block_design()
        est = recover_kernels(
            [fit_row(j, design, 0.3 * gamma_max(design, j))
             for j in range(design.p)],
            [kl_from_scores(r, BasisSpec("fourier", 3))
             for r in design.responses])
        obj = json.loads(est.to_json())
        edit(obj)
        with pytest.raises(DataError, match=match):
            KernelEstimate.from_json(json.dumps(obj))


class TestBlockNorms:
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.8, 1.5])
    def test_kkt_residuals_match_block_loop(self, ratio):
        design = mixed_block_design()
        j = 1
        # a loose tolerance leaves residuals well above rounding
        fit = fit_row(j, design, ratio * gamma_max(design, j), tol=1e-3)
        want = kkt_loop(design.gram, design.design.T @ design.responses[j],
                        standardized_coeffs(design, fit), design.offsets,
                        fit.gamma)
        np.testing.assert_allclose(kkt_residuals(design, fit), want,
                                   rtol=1e-10, atol=1e-13)


def block_norms_sq(X, design):
    return np.array([np.sum(X[lo:hi] ** 2) for lo, hi in
                     zip(design.offsets, design.offsets[1:])])


def stacked_rows(design):
    """hmat, ||Y||^2 and column offsets of every row of ``design``, in the
    batched layout of ``block_fista_gram``."""
    Ys = design.responses
    col_offsets = np.cumsum([0] + [Y.shape[1] for Y in Ys])
    return (design.design.T @ np.concatenate(Ys, axis=1),
            np.array([float(np.sum(Y * Y)) for Y in Ys]), col_offsets)


def desk_design():
    """A desk-scale design: p=20 variables of 5 scores, n=200."""
    return oracle_design(p=20, q=5, n=200, seed=3)[0]


def assert_rows_match_oracle(design, info, gammas, col_offsets, max_iter=10000,
                             x0=None):
    """Each row of a batched solve against ``fista_row`` from the same start:
    iteration counts within 2, and at most 5% of the rows off the oracle's
    count.  Where the counts are equal, |dx| <= 1e-12 and the objectives of
    the start and of the points the batch returns when capped at every k up
    to the last row's count (so across every freeze of a row's columns)
    match the oracle's trace to 1e-12."""
    hmat, ynorm_sq, _ = stacked_rows(design)
    k_max = int(info.row_iterations.max())
    objectives = prefix_objectives(design.gram, hmat, ynorm_sq, design.offsets,
                                   gammas, design.step_size, 1e-8, k_max, x0,
                                   col_offsets)
    off = 0
    for b, (lo, hi) in enumerate(zip(col_offsets, col_offsets[1:])):
        start = None if x0 is None else x0[:, lo:hi]
        x, trace, iterations, converged = fista_row(
            design.gram, hmat[:, lo:hi], ynorm_sq[b], design.offsets,
            gammas[b], design.step_size, 1e-8, max_iter, start)
        assert info.row_converged[b] == converged
        assert objectives[0, b] == pytest.approx(trace[0], rel=1e-12)
        assert abs(int(info.row_iterations[b]) - iterations) <= 2
        if info.row_iterations[b] == iterations:
            np.testing.assert_allclose(info.x[:, lo:hi], x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                objectives[:, b], trace[np.minimum(np.arange(k_max + 1),
                                                   iterations)], rtol=1e-12)
        else:
            off += 1
    assert off <= 0.05 * len(gammas) + 1
    assert info.iterations == int(info.row_iterations.sum())


class TestBatchedSolve:
    @pytest.mark.parametrize("make", [lambda: mixed_block_design(L=2),
                                      lambda: mixed_block_design(L=1),
                                      desk_design],
                             ids=["mixed-L2", "mixed-L1", "desk-p20"])
    def test_rows_match_per_row_oracle(self, make):
        # rows at different gammas converge at different iterations, so
        # their columns leave the working arrays at different times; one
        # row is optimal at x0 = 0 (gamma >= gamma_max), one has gamma = 0
        design = make()
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        ratios = np.resize([1.5, 0.0, 0.6, 0.05, 0.3, 0.9], design.p)
        gammas = ratios * np.array([gamma_max(design, j) for j in range(design.p)])
        info = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                gammas, design.step_size,
                                col_offsets=col_offsets)
        assert info.converged
        np.testing.assert_array_equal(info.x[:, :col_offsets[1]], 0.0)
        assert_rows_match_oracle(design, info, gammas, col_offsets)

    def test_warm_started_rows_match_oracle(self):
        design = desk_design()
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        tops = np.array([gamma_max(design, j) for j in range(design.p)])
        x0 = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                              0.4 * tops, design.step_size,
                              col_offsets=col_offsets).x
        info = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                0.3 * tops, design.step_size, x0=x0,
                                col_offsets=col_offsets)
        assert_rows_match_oracle(design, info, 0.3 * tops, col_offsets, x0=x0)

    def test_row_at_max_iter_beside_converged_rows(self):
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        tops = np.array([gamma_max(design, j) for j in range(design.p)])
        gammas = np.array([0.0, 0.5, 2.0, 0.8]) * tops
        full = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                gammas, design.step_size,
                                col_offsets=col_offsets)
        slow = int(np.argmax(full.row_iterations))
        cap = int(np.sort(full.row_iterations)[-2]) + 1
        assert cap < full.row_iterations[slow]
        info = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                gammas, design.step_size, max_iter=cap,
                                col_offsets=col_offsets)
        assert info.row_iterations[slow] == cap
        assert list(info.row_converged) == [b != slow for b in range(design.p)]
        assert_rows_match_oracle(design, info, gammas, col_offsets,
                                 max_iter=cap)

    def test_batch_of_one_is_the_one_row_solve(self):
        design = mixed_block_design()
        Y = design.responses[1]
        args = (design.gram, design.design.T @ Y, float(np.sum(Y * Y)),
                design.offsets, 0.2 * gamma_max(design, 1), design.step_size)
        one = block_fista_gram(*args)
        batch = block_fista_gram(*args, col_offsets=[0, Y.shape[1]])
        np.testing.assert_array_equal(one.x, batch.x)
        assert one.iterations == batch.iterations
        assert one.converged == batch.converged
        x, trace, iterations, converged = fista_row(*args)
        assert (one.iterations, one.converged) == (iterations, converged)
        np.testing.assert_allclose(one.x, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor", [2.5, 100.0])
    def test_divergence_names_the_row(self, factor):
        # only row 2 has data, so only it can diverge; at 2.5/lambda_max it
        # does so after the data-free rows have converged and left the
        # working arrays
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        keep = slice(col_offsets[2], col_offsets[3])
        hmat_one = np.zeros_like(hmat)
        hmat_one[:, keep] = hmat[:, keep]
        step = factor / np.linalg.eigvalsh(design.gram)[-1]
        with pytest.raises(NumericalError, match="row 9: objective diverged"):
            block_fista_gram(design.gram, hmat_one, ynorm_sq, design.offsets,
                             0.0, step, max_iter=5000, col_offsets=col_offsets,
                             row_ids=[5, 7, 9, 11])

    @pytest.mark.parametrize("ratios", [[0.0, 0.3, 0.8, 0.6],
                                        [0.0, 1.5, 0.8, 0.6]])
    def test_stall_at_optimum_ends_every_row(self, ratios):
        # with tol=0 a row ends at the stall exit or at a step that leaves
        # its objective exactly unchanged, as a row whose solution is zero
        # (gamma >= gamma_max) does from x0 = 0
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        tops = np.array([gamma_max(design, j) for j in range(design.p)])
        args = (design.gram, hmat, ynorm_sq, design.offsets,
                np.array(ratios) * tops, design.step_size, 0.0)
        info = block_fista_gram(*args, max_iter=20000, col_offsets=col_offsets)
        assert info.row_converged.all()
        assert info.row_iterations.max() < 20000
        objectives = prefix_objectives(*args, info.row_iterations.max(),
                                       col_offsets=col_offsets)
        for b, m in enumerate(info.row_iterations):
            # both exits end on a step that leaves the objective unchanged,
            # up to the rounding of the oracle's own arithmetic
            assert objectives[m, b] == pytest.approx(objectives[m - 1, b],
                                                     rel=1e-14)
        for b, ratio in enumerate(ratios):
            if ratio >= 1:
                assert info.row_iterations[b] == 1
                np.testing.assert_array_equal(
                    info.x[:, col_offsets[b]:col_offsets[b + 1]], 0.0)

    def test_non_finite_start_names_the_row(self):
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        x0 = np.zeros_like(hmat)
        x0[0, col_offsets[2]] = np.nan
        with pytest.raises(NumericalError, match="row 2: objective is not finite"):
            block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets, 1.0,
                             design.step_size, x0=x0, col_offsets=col_offsets)

    @pytest.mark.parametrize("col_offsets", [[0, 3], [0, 0, 7], [0, 5, 3, 7]])
    def test_bad_column_offsets_rejected(self, col_offsets):
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, _ = stacked_rows(design)
        with pytest.raises(ConfigError, match="column offsets"):
            block_fista_gram(design.gram, hmat, 1.0, design.offsets, 1.0,
                             design.step_size, col_offsets=col_offsets)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(max_iter=-3), "max_iter"), (dict(tol=np.nan), "tol")])
    def test_bad_options_rejected(self, kwargs, name):
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        with pytest.raises(ConfigError, match=name):
            block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets, 1.0,
                             design.step_size, col_offsets=col_offsets,
                             **kwargs)

    def test_negative_gamma_in_batch_rejected(self):
        design = mixed_block_design(L=1)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        with pytest.raises(ConfigError, match="gamma"):
            block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                             [1.0, -1.0, 1.0, 1.0], design.step_size,
                             col_offsets=col_offsets)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    @pytest.mark.parametrize("call", [
        lambda d, g: block_fista_gram(d.gram, d.design.T @ d.responses[0], 1.0,
                                      d.offsets, [1.0, g], d.step_size,
                                      col_offsets=[0, 1, 2]),
        lambda d, g: fit_row(0, d, g),
        lambda d, g: regularization_path(d, [0, 1], gamma_grid=[g]),
        lambda d, g: fit_rows(d, gamma=g)],
        ids=["block_fista_gram", "fit_row", "regularization_path", "fit_rows"])
    def test_non_finite_gamma_rejected(self, call, gamma):
        design, _ = oracle_design()
        with pytest.raises(ConfigError, match="gamma must be finite and nonneg"):
            call(design, gamma)


class TestFitRowAndSelection:
    def test_gamma_max_gives_zero_fit(self):
        design, _ = oracle_design()
        fit = fit_row(0, design, gamma_max(design, 0))
        assert fit.active().sum() == 0
        assert fit.df == 0.0

    def test_gamma_zero_df_total(self):
        design, _ = oracle_design(n=200)
        fit = fit_row(1, design, 0.0, tol=1e-12)
        q_j = design.responses[1].shape[1]
        assert fit.active().all()
        assert fit.df == pytest.approx(float((design.block_sizes() * q_j).sum()))

    def test_residual_consistent_with_raw_coordinates(self):
        kl, _ = oracle_models(n=80)
        design = build_design(kl, 1)
        fit = fit_row(0, design, 0.5 * gamma_max(design, 0), tol=1e-12)
        raw = lagged_scores(kl, 1)
        pred = np.zeros_like(design.responses[0])
        for h in range(1, design.L + 1):
            for k in range(design.p):
                b = (h - 1) * design.p + k
                pred += raw[:, design.offsets[b]: design.offsets[b + 1]] \
                    @ fit.psi[h - 1][k]
        rss = float(np.sum((design.responses[0] - pred) ** 2))
        assert rss == pytest.approx(fit.rss, rel=1e-10)

    def test_support_superset_at_small_gamma(self):
        design, model = oracle_design(p=3, q=3, n=2000, seed=42)
        truth = model.support()
        fit = fit_row(0, design, 0.0, tol=1e-10)
        est_active = np.array([np.linalg.norm(fit.psi[0][k]) > 0
                               for k in range(3)])
        assert np.all(est_active[truth[0]])

    def test_df_hand_example(self):
        assert df_from_contributions(np.array([9.0]), np.array([4]),
                                     3.0) == pytest.approx(3.25, abs=1e-12)

    def test_df_zero_when_inactive(self):
        assert df_from_contributions(np.zeros(3), np.full(3, 4), 2.0) == 0.0

    def test_ic_monotone_in_df(self):
        design, _ = oracle_design()
        fit = fit_row(0, design, 0.1 * gamma_max(design, 0))
        assert fit.df > 0
        n_obs = design.n_eff * design.responses[0].shape[1]
        base = n_obs * np.log(fit.rss)
        assert fit.aic - base == pytest.approx(2.0 * fit.df)
        assert fit.bic - base == pytest.approx(np.log(design.n) * fit.df)
        assert base < fit.aic < fit.bic

    def test_ic_floor_guards_perfect_fit(self):
        design, _ = oracle_design(n=20)
        # zero responses are fitted exactly by the zero solution
        design = dataclasses.replace(
            design, responses=[np.zeros_like(Y) for Y in design.responses])
        fit = fit_row(0, design, 0.0)
        assert fit.rss == 0.0 and fit.df == 0.0
        n_obs = design.n_eff * design.responses[0].shape[1]
        assert fit.aic == fit.bic == n_obs * np.log(1e-300)

    def test_stop_rule_is_scale_free(self):
        # curves scaled by c scale Y by c and the objective by c^2, so the
        # stop rule's floor under |objective| must scale with ||Y||^2: an
        # absolute 1e-12 stops rows early at c = 1e-7 (||Y_0||^2 = 6.7e-12)
        model = gen_block_banded(6, G=4, bandwidth=1, seed=5)
        panel = simulate(model, 60, grid=np.linspace(0, 1, 24), seed=5,
                         stream=1)
        runs = []
        for c in (1.0, 1e-3, 1e-5, 1e-7):
            stage1 = fpca_panel(CurvePanel(values=c * panel.values,
                                           grid=panel.grid, ids=panel.ids),
                                BasisSpec("bspline", 8), [3], [1e-4])
            path = regularization_path(build_design(stage1.kl_models, 1), 0,
                                       n_gammas=10)
            runs.append([(f.iterations, f.active().tolist()) for f in path])
        assert runs[1:] == runs[:1] * 3

    def test_bic_null_model_mostly_selects_empty(self):
        # measured behavior of the shrinkage-df BIC on pure noise: the
        # all-zero model wins in the large majority of replications, with an
        # occasional weakly-shrunk spurious block (cf. the near-one BIC
        # relative errors the source tables report at small n)
        picks_empty = 0
        reps = 50
        for r in range(reps):
            rng = np.random.default_rng(600 + r)
            kl = [kl_from_scores(rng.standard_normal((200, 2)),
                                 BasisSpec("fourier", 2)) for _ in range(5)]
            design = build_design(kl, 1)
            best = best_fit(regularization_path(design, 0, n_gammas=30), "bic")
            picks_empty += int(best.active().sum() == 0)
        assert picks_empty >= 0.8 * reps


class TestRegularizationPath:
    def test_first_point_zero(self):
        design, _ = oracle_design()
        path = regularization_path(design, 0, n_gammas=12)
        assert path[0].active().sum() == 0

    def test_active_count_mostly_monotone(self):
        design, _ = oracle_design(p=4, q=2, n=120, seed=50)
        path = regularization_path(design, 2, n_gammas=40)
        counts = [int(f.active().sum()) for f in path]
        ok = sum(b >= a for a, b in zip(counts, counts[1:]))
        assert ok >= 0.95 * (len(counts) - 1)

    def test_warm_equals_cold_objectives(self):
        design, _ = oracle_design(p=3, q=2, n=60, seed=51)
        grid = default_gamma_grid(design, 0, 15)
        warm = regularization_path(design, 0, gamma_grid=grid, tol=1e-12)
        cold = [fit_row(0, design, gamma, tol=1e-12) for gamma in grid]
        for fw, fc in zip(warm, cold):
            assert fw.converged and fc.converged
            fw_obj, fc_obj = fit_objective(design, fw), fit_objective(design, fc)
            assert abs(fw_obj - fc_obj) <= 1e-6 * max(1.0, abs(fc_obj))

    def test_increasing_grid_rejected(self):
        design, _ = oracle_design()
        with pytest.raises(ConfigError):
            regularization_path(design, 0, gamma_grid=[0.1, 0.5])

    @pytest.mark.parametrize("make", [lambda: mixed_block_design(L=2),
                                      desk_design], ids=["mixed-L2", "desk-p20"])
    def test_all_rows_path_matches_per_row_oracle(self, make):
        design = make()
        rows = range(design.p)
        paths = regularization_path(design, rows, n_gammas=20)
        grids = [[f.gamma for f in path] for path in paths]
        for j in rows:
            np.testing.assert_array_equal(grids[j],
                                          default_gamma_grid(design, j, 20))
        # each path warm-starts from its own previous points
        ref = path_rows(design, grids)
        counts = []
        for j in rows:
            for (x, iterations, converged), fit in zip(ref[j], paths[j]):
                assert fit.converged and converged
                assert (fit.active() == (block_norms_sq(x, design) > 0)).all()
                counts.append(fit.iterations - iterations)
        counts = np.array(counts)
        assert np.abs(counts).max() <= 2
        assert (counts == 0).mean() >= 0.95

    def test_one_row_path_is_the_batched_row(self):
        design = mixed_block_design(L=2)
        grid = default_gamma_grid(design, 2, 10)
        one = regularization_path(design, 2, gamma_grid=grid)
        many = regularization_path(design, [0, 2], gamma_grid=grid)[1]
        assert [f.j for f in one] == [2] * 10
        for a, b in zip(one, many):
            assert a.iterations == b.iterations
            np.testing.assert_allclose(a.psi_stacked, b.psi_stacked, rtol=0,
                                       atol=1e-13)

    @pytest.mark.parametrize("make", [lambda: mixed_block_design(L=2),
                                      desk_design], ids=["mixed-L2", "desk-p20"])
    def test_index_summaries_match_per_row_loop(self, make):
        design = make()
        paths = regularization_path(design, range(design.p), n_gammas=12)
        # the same batched solves give each index's X to the bit
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        x = None
        for i, gammas in enumerate(np.array([[f.gamma for f in path]
                                             for path in paths]).T):
            x = block_fista_gram(design.gram, hmat, ynorm_sq, design.offsets,
                                 gammas, design.step_size, x0=x,
                                 col_offsets=col_offsets).x
            for fit, lo, hi in zip((path[i] for path in paths), col_offsets,
                                   col_offsets[1:]):
                want = fit_result_loop(design, fit.j, fit.gamma,
                                       x[:, lo:hi].copy(), fit.iterations,
                                       fit.converged)
                np.testing.assert_array_equal(fit.active(), want.active())
                for name in ("psi_stacked", "vpsi_sq", "rss", "df", "aic",
                             "bic"):
                    np.testing.assert_allclose(getattr(fit, name),
                                               getattr(want, name),
                                               rtol=1e-13, atol=0)

    def test_all_rows_df_exact_at_gamma_zero(self):
        # c10's exact count, now from a batched index
        design, _ = oracle_design(p=3, q=2, n=80, seed=23)
        for (fit,) in regularization_path(design, range(design.p),
                                          gamma_grid=[0.0], tol=1e-12):
            q_j = design.responses[fit.j].shape[1]
            assert fit.df == float((design.block_sizes() * q_j).sum())

    @pytest.mark.parametrize("j, ratio", [(0, 0.0), (1, 0.3), (2, 0.05),
                                          (3, 1.5)])
    def test_fit_row_is_the_one_row_solve_exactly(self, j, ratio):
        design = mixed_block_design(L=2)
        gamma = ratio * gamma_max(design, j)
        Y = design.responses[j]
        info = block_fista_gram(design.gram, design.design.T @ Y,
                                float(np.sum(Y * Y)), design.offsets, gamma,
                                design.step_size, row_ids=[j])
        want = fit_result_loop(design, j, gamma, info.x, info.iterations,
                               info.converged)
        fit = fit_row(j, design, gamma)
        for name in ("psi_stacked", "vpsi_sq"):
            np.testing.assert_array_equal(getattr(fit, name),
                                          getattr(want, name))
        for name in ("j", "gamma", "iterations", "converged", "rss", "df",
                     "aic", "bic"):
            assert getattr(fit, name) == getattr(want, name)

    @pytest.mark.parametrize("call, match", [
        (lambda d: fit_row(-1, d, 1.0), "row -1 is out of range for p=3"),
        (lambda d: fit_row(3, d, 1.0), "row 3 is out of range for p=3"),
        (lambda d: regularization_path(d, [0, -1]), "row -1 is out of range"),
        (lambda d: regularization_path(d, [1, 1]), "row 1 is repeated"),
        (lambda d: regularization_path(d, [0, 1.0]), "not an integer")])
    def test_bad_rows_rejected(self, call, match):
        kl, _ = oracle_models(p=3)
        with pytest.raises(ConfigError, match=match):
            call(build_design(kl, 1))

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_gammas=0), "n_gammas"), (dict(min_ratio=0.0), "min_ratio"),
        (dict(min_ratio=-1.0), "min_ratio"), (dict(min_ratio=1.5), "min_ratio"),
        (dict(max_iter=0), "max_iter"), (dict(tol=-1.0), "tol"),
        (dict(tol=np.nan), "tol"), (dict(gamma_grid=[]), "empty"),
        (dict(gamma_grid=[[1.0, 0.5]]), "one-dimensional")])
    def test_bad_path_options_rejected(self, kwargs, name):
        design, _ = oracle_design()
        with pytest.raises(ConfigError, match=name):
            regularization_path(design, range(design.p), **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(max_iter=0), "max_iter"), (dict(tol=np.inf), "tol")])
    def test_bad_fit_row_options_rejected(self, kwargs, name):
        design, _ = oracle_design()
        with pytest.raises(ConfigError, match=name):
            fit_row(0, design, 1.0, **kwargs)


class TestDerivedValues:
    @pytest.mark.parametrize("ratio", [0.3, 0.8])
    def test_recovered_x_is_the_solve_with_zero_blocks_exact(self, ratio):
        design = desk_design()
        inactive = 0
        for j in range(design.p):
            gamma = ratio * gamma_max(design, j)
            Y = design.responses[j]
            x = block_fista_gram(design.gram, design.design.T @ Y,
                                 float(np.sum(Y * Y)), design.offsets, gamma,
                                 design.step_size).x
            got = standardized_coeffs(design, fit_row(j, design, gamma))
            assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)
            zero = block_norms_sq(x, design) == 0
            np.testing.assert_array_equal(block_norms_sq(got, design) == 0,
                                          zero)
            assert (got[np.repeat(zero, design.block_sizes())] == 0).all()
            inactive += zero.sum()
        assert 0 < inactive < design.p * design.n_blocks

    @pytest.mark.parametrize("build", [lambda: mixed_block_design(L=2),
                                       desk_design], ids=["mixed-L2", "desk-p20"])
    def test_gram_is_aligned_and_exact(self, build):
        design = build()
        assert design.gram.ctypes.data % 64 == 0
        assert design.gram.flags.c_contiguous
        np.testing.assert_array_equal(design.gram,
                                      design.design.T @ design.design)

    @pytest.mark.parametrize("L", [1, 2])
    def test_roots_inv_are_the_score_grams_inverse_square_roots(self, L):
        from scipy.linalg import sqrtm
        models = mixed_block_models()
        design = build_design(models, L)
        # lag-major, as the design's columns
        lagged = [m.scores[L - h: m.n - h]
                  for h in range(1, L + 1) for m in models]
        assert len(design.roots_inv) == len(lagged) == design.n_blocks
        for V, Dinv, q in zip(lagged, design.roots_inv, design.block_sizes()):
            gram = V.T @ V / design.n_eff
            assert Dinv.shape == (q, q) == gram.shape
            np.testing.assert_array_equal(Dinv, sym_inv_sqrt(gram, "singular"))
            np.testing.assert_allclose(Dinv, np.linalg.inv(sqrtm(gram)),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("L", [1, 2])
    def test_design_blocks_are_lagged_scores_times_roots_inv(self, L):
        models = mixed_block_models()
        design = build_design(models, L)
        o = design.offsets
        lagged = [m.scores[L - h: m.n - h]
                  for h in range(1, L + 1) for m in models]
        for b, (V, Dinv) in enumerate(zip(lagged, design.roots_inv)):
            np.testing.assert_array_equal(design.design[:, o[b]:o[b + 1]],
                                          V @ Dinv)

    @pytest.mark.parametrize("build", [lambda: mixed_block_design(L=2),
                                       desk_design], ids=["mixed-L2", "desk-p20"])
    def test_psi_blocks_are_roots_inv_times_x_with_positive_zeros(self, build):
        design = build()
        o = design.offsets
        paths = regularization_path(design, range(design.p), n_gammas=6)
        hmat, ynorm_sq, col_offsets = stacked_rows(design)
        x, zeros = None, 0
        for i, gammas in enumerate(np.array([[f.gamma for f in path]
                                             for path in paths]).T):
            x = block_fista_gram(design.gram, hmat, ynorm_sq, o, gammas,
                                 design.step_size, x0=x,
                                 col_offsets=col_offsets).x
            # one product per block over every row's columns, as the path
            # makes it
            want = [Dinv @ x[lo:hi] for lo, hi, Dinv in
                    zip(o, o[1:], design.roots_inv)]
            for fit, lo, hi in zip((path[i] for path in paths), col_offsets,
                                   col_offsets[1:]):
                for b, block in enumerate(want):
                    psi = fit.psi_stacked[o[b]:o[b + 1]]
                    np.testing.assert_array_equal(psi, block[:, lo:hi])
                    if not fit.active()[b]:
                        assert not np.any(psi) and not np.signbit(psi).any()
                        zeros += 1
        # the first index is all zeros, the last has active blocks
        assert 0 < zeros < len(paths[0]) * design.p * design.n_blocks

    def test_replaced_design_derives_its_own_gram_and_step(self):
        design = desk_design()
        step = design.step_size  # derived, and kept, before the replace
        k = 120
        short = dataclasses.replace(
            design, design=design.design[:k],
            responses=[Y[:k] for Y in design.responses])
        B = design.design[:k]
        np.testing.assert_array_equal(short.gram, B.T @ B)
        assert short.step_size == 0.9 / np.linalg.eigvalsh(B.T @ B)[-1]
        assert short.step_size != step


class TestSweepPathThreads:
    def test_output_independent_of_threads(self):
        design = mixed_block_design(L=1)
        kl = [kl_from_scores(r, BasisSpec("fourier", 3))
              for r in design.responses]
        runs = [sweep_path(design, kl, n_gammas=12, threads=t) for t in (1, 2)]
        (paths1, est1), (paths2, est2) = runs
        for row1, row2 in zip(paths1, paths2):
            for f1, f2 in zip(row1, row2):
                assert f1.gamma == f2.gamma
                np.testing.assert_array_equal(f1.psi_stacked, f2.psi_stacked)
                assert (f1.iterations, f1.converged) == \
                    (f2.iterations, f2.converged)
                assert fit_objective(design, f1) == fit_objective(design, f2)
        for e1, e2 in zip(est1, est2):
            np.testing.assert_array_equal(e1.hs, e2.hs)


class TestKernelColumns:
    """A kernel estimate holds its row fits' Psi arrays, not a copy."""

    @pytest.fixture(scope="class", params=[("uniform", 1), ("uniform", 2),
                                           ("mixed", 1), ("mixed", 2)],
                    ids=lambda v: f"{v[0]}-L{v[1]}")
    def sweep(self, request):
        blocks, L = request.param
        kl = (oracle_models(p=4, q=3)[0] if blocks == "uniform"
              else mixed_block_models())
        return sweep_path(build_design(kl, L), kl, n_gammas=6)

    def test_columns_are_the_fits_arrays(self, sweep):
        paths, estimates = sweep
        for i, est in enumerate(estimates):
            assert all(c is path[i].psi_stacked
                       for c, path in zip(est.columns, paths, strict=True))
        fits = [path[2] for path in paths][::-1]
        est = recover_kernels(fits, estimates[2].kl_models)
        for j, c in enumerate(est.columns):
            assert c is fits[-1 - j].psi_stacked

    def test_hs_equals_the_stacked_formula(self, sweep):
        _, estimates = sweep
        for est in estimates:
            np.testing.assert_array_equal(est.hs, hs_stacked(est))
        hs = np.array([est.hs for est in estimates])
        assert 0 < np.count_nonzero(hs) < hs.size

    def test_lags_are_the_stacked_layout(self, sweep):
        paths, estimates = sweep
        for i, est in enumerate(estimates):
            o, lags = est.offsets, est.lags
            assert lags.shape == (est.L, o[-1], o[-1])
            for h in range(est.L):
                for j, path in enumerate(paths):
                    for k in range(est.p):
                        block = lags[h, o[k]:o[k + 1], o[j]:o[j + 1]]
                        np.testing.assert_array_equal(block, path[i].psi[h][k])
                        np.testing.assert_array_equal(block, est.psi[h][j][k])

    def test_json_round_trip_is_byte_exact(self, sweep):
        _, estimates = sweep
        for est in estimates:
            text = est.to_json()
            back = KernelEstimate.from_json(text)
            assert back.to_json() == text
            np.testing.assert_array_equal(back.hs, est.hs)

    def test_estimates_add_little_to_their_fits(self):
        design = desk_design()
        kl = [kl_from_scores(r, BasisSpec("fourier", 5))
              for r in design.responses]
        paths = regularization_path(design, range(design.p), n_gammas=8)
        psi_bytes = sum(f.psi_stacked.nbytes for path in paths for f in path)
        tracemalloc.start()
        try:
            estimates = [recover_kernels([path[i] for path in paths], kl)
                         for i in range(8)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 8
        assert held < 0.1 * psi_bytes


class TestRecoverKernels:
    def test_zero_blocks_zero_kernel(self):
        design, _ = oracle_design()
        fits = [fit_row(j, design, gamma_max(design, j)) for j in range(design.p)]
        kl = [kl_from_scores(design.responses[j], BasisSpec("fourier", 2))
              for j in range(design.p)]
        est = recover_kernels(fits, kl)
        assert est.hs.max() == 0.0
        u = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(est.evaluate(1, 0, 1, u, u), 0.0)

    @pytest.mark.parametrize("rows", [[0, 0, 1], [0, 1], [0, 1, 2, 2],
                                      [0, 1, 3]])
    def test_fits_must_cover_each_row_once(self, rows):
        kl, _ = oracle_models(p=3)
        design = build_design(kl, 1)
        fits = {j: fit_row(j, design, 1.0) for j in range(3)}
        fits[3] = type("F", (), {"j": 3, "psi_stacked": fits[2].psi_stacked})()
        match = re.escape(f"got rows {sorted(rows)}")
        with pytest.raises(ConfigError, match=match):
            recover_kernels([fits[j] for j in rows], kl)

    def test_oracle_round_trip_reproduces_kernels(self):
        model = gen_block_banded(p=3, G=4, bandwidth=1, seed=60,
                                 measurement_noise=0.0)
        coeffs = simulate_coefficients(model, 50, seed=61)
        kl = [kl_from_scores(coeffs[:, j, :], model.basis) for j in range(3)]
        fits = []
        for j in range(3):
            stacked = np.vstack([model.blocks[0, j, k].T for k in range(3)])
            fits.append(type("F", (), {"j": j, "psi_stacked": stacked})())
        est = recover_kernels(fits, kl)
        u = np.linspace(0, 1, 30)
        for j in range(3):
            for k in range(3):
                np.testing.assert_allclose(est.evaluate(1, j, k, u, u),
                                           model.kernel_on_grid(1, j, k, u, u),
                                           atol=1e-8)

    def test_hs_norm_matches_quadrature(self):
        rng = np.random.default_rng(62)
        grid = np.linspace(0, 1, 60)
        curves = [rng.standard_normal((80, grid.size)) for _ in range(2)]
        kl = [fit_regularized_fpca(c, grid, BasisSpec("bspline", 8), q=3, eta=0.0)
              for c in curves]
        design = build_design(kl, 1)
        fit0 = fit_row(0, design, 0.3 * gamma_max(design, 0))
        fit1 = fit_row(1, design, 0.3 * gamma_max(design, 1))
        est = recover_kernels([fit0, fit1], kl)
        u = np.linspace(0, 1, 200)
        w = np.full(200, 1.0 / 199)
        w[0] *= 0.5
        w[-1] *= 0.5
        for j in range(2):
            for k in range(2):
                A = est.evaluate(1, j, k, u, u)
                quad = np.sqrt(float(w @ (A * A) @ w))
                assert quad == pytest.approx(est.hs[0, j, k], abs=1e-4)

    @pytest.mark.parametrize("make", [lambda: mixed_block_design(L=2),
                                      desk_design], ids=["mixed-L2", "desk-p20"])
    def test_hs_matches_norm_loop(self, make):
        design = make()
        kl = [kl_from_scores(r, BasisSpec("fourier", 5))
              for r in design.responses]
        _, estimates = sweep_path(design, kl, n_gammas=8)
        zeros = 0
        for est in estimates:
            loop = hs_norms_loop(est)
            np.testing.assert_array_equal(est.hs > 0, loop > 0)
            np.testing.assert_array_max_ulp(est.hs, loop, maxulp=4)
            zeros += int((loop == 0).sum())
        assert 0 < zeros < sum(est.hs.size for est in estimates)

    def test_json_round_trip(self):
        design, _ = oracle_design()
        fits = [fit_row(j, design, 0.4 * gamma_max(design, j))
                for j in range(design.p)]
        kl = [kl_from_scores(design.responses[j], BasisSpec("fourier", 2))
              for j in range(design.p)]
        est = recover_kernels(fits, kl)
        back = est.__class__.from_json(est.to_json())
        np.testing.assert_allclose(back.hs, est.hs, atol=1e-15)
        u = np.linspace(0, 1, 9)
        np.testing.assert_allclose(back.evaluate(1, 0, 1, u, u),
                                   est.evaluate(1, 0, 1, u, u), atol=1e-15)
