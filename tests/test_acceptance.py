"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale Monte
Carlo replications (criteria 8 and 9) are computed once in a module fixture
and take a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from fvar.basis import BasisSpec, gram_matrices
from fvar.fpca import fit_regularized_fpca, project_to_basis
from fvar.harness import run_concentration
from fvar.moments import (stability_measure_var1, var1_spectral_density,
                          var1_stationary_cov)
from fvar.network import cidr_transform, relative_error, roc_and_auroc
from fvar.pipeline import fpca_panel, sweep_path, truncate_models
from fvar.solver import (block_fista_gram, df_from_contributions, fit_row,
                         gamma_max, group_soft_threshold, kkt_residuals,
                         recover_kernels)
from fvar.vfar import VFARModel, companion_form, gen_block_banded, simulate, \
    simulate_coefficients

from helpers import kl_from_scores, oracle_design
from oracles import block_coordinate_descent, group_objective

LINE = "[acceptance] criterion {num:>2}: {status}  {detail}"


def report(num, ok, detail=""):
    print(LINE.format(num=num, status="PASS" if ok else "FAIL", detail=detail))
    assert ok, f"criterion {num} failed: {detail}"


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def desk_replications():
    """20 desk-scale replications of the banded model: AUROCs for the three
    competing methods plus AIC/BIC-selected relative errors."""
    out = {"full": [], "trunc2": [], "single": [], "bic": [], "aic": []}
    for seed in range(500, 520):
        model = gen_block_banded(p=20, G=5, bandwidth=2, seed=seed,
                                 measurement_noise=0.5)
        panel = simulate(model, 200, grid=np.linspace(0, 1, 50), seed=seed,
                         stream=1)
        stage1 = fpca_panel(panel, BasisSpec("bspline", 15), [4, 5, 6],
                            [0.0, 1e-4, 1e-2], folds=5, seed=seed, threads=4)
        from fvar.solver import build_design
        design = build_design(stage1.kl_models, 1)
        paths, estimates = sweep_path(design, stage1.kl_models, n_gammas=50,
                                      threads=4)
        out["full"].append(roc_and_auroc(estimates, model).auroc)
        for crit in ("bic", "aic"):
            fits = [min(paths[j], key=lambda f: getattr(f, crit))
                    for j in range(design.p)]
            est = recover_kernels(fits, stage1.kl_models)
            out[crit].append(relative_error(est, model))
        for name, q in (("trunc2", 2), ("single", 1)):
            kl = truncate_models(stage1.kl_models, q)
            design_q = build_design(kl, 1)
            _, est_q = sweep_path(design_q, kl, n_gammas=50, threads=4)
            out[name].append(roc_and_auroc(est_q, model).auroc)
    return {k: np.asarray(v) for k, v in out.items()}


# ------------------------------------------------------------------ criteria

def test_c01_solver_matches_coordinate_descent_oracle():
    design, _ = oracle_design(p=3, q=2, n=50, seed=7)
    Y = design.responses[0]
    B = design.design
    hmat = B.T @ Y
    ynn = float(np.sum(Y * Y))
    # warm the JIT outside the timed region; the budget is algorithmic
    block_fista_gram(design.gram, hmat, ynn, design.offsets, 1.0,
                     design.step_size, 1e-8, 50)

    top = gamma_max(design, 0)
    gammas = np.geomspace(top, 1e-3 * top, 10)
    start = time.monotonic()
    worst = 0.0
    for gamma in gammas:
        info = block_fista_gram(design.gram, hmat, ynn, design.offsets,
                                float(gamma), design.step_size,
                                tol=1e-13, max_iter=200000)
        f_fista = group_objective(Y, B, info.x, design.offsets, gamma)
        _, f_cd = block_coordinate_descent(Y, B, design.offsets, float(gamma),
                                           tol=1e-12)
        worst = max(worst, abs(f_fista - f_cd) / abs(f_cd))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-6 and elapsed < 10.0,
           f"max relative objective gap {worst:.2e} over 10 gammas, "
           f"{elapsed:.1f}s")


def test_c02_kkt_certificates_on_random_fixtures():
    rng = np.random.default_rng(11)
    worst_zero, worst_active = 0.0, 0.0
    for trial in range(20):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(40, 120))
        design, _ = oracle_design(p=p, q=q, n=n, seed=700 + trial)
        j = int(rng.integers(0, p))
        gamma = float(rng.uniform(0.05, 0.9)) * gamma_max(design, j)
        fit = fit_row(j, design, gamma, tol=1e-14, max_iter=200000)
        zero_excess, active_res = kkt_residuals(design, fit)
        worst_zero = max(worst_zero, zero_excess / (1 + gamma))
        worst_active = max(worst_active, active_res / (1 + gamma))
    ok = worst_zero <= 1e-4 and worst_active <= 1e-4
    report(2, ok, f"worst zero-block excess {worst_zero:.2e}, "
                  f"worst active stationarity {worst_active:.2e} (of 1e-4)")


def test_c03_threshold_formula_exact_on_random_blocks():
    rng = np.random.default_rng(12)
    failures = 0
    for trial in range(1000):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 5))
        Z = rng.standard_normal((rows, cols)) * float(rng.uniform(0.1, 5))
        nz = float(np.linalg.norm(Z))
        if trial % 2 == 0:
            tau = float(rng.uniform(0, 0.95)) * nz  # survives
        else:
            tau = nz * float(rng.uniform(1.0, 2.0))  # annihilated
        expected = np.zeros_like(Z) if nz <= tau else (1.0 - tau / nz) * Z
        got = group_soft_threshold(Z, tau)
        # formula identity with the canonical Frobenius norm ...
        if not np.array_equal(got, expected):
            failures += 1
        # ... and agreement with an independently summed norm to 2 ulp
        nz_ind = float(np.sqrt(np.sum(Z * Z)))
        indep = np.zeros_like(Z) if nz_ind <= tau else (1.0 - tau / nz_ind) * Z
        if np.abs(got - indep).max() > 2e-15 * max(1.0, np.abs(Z).max()):
            failures += 1
    report(3, failures == 0, f"{failures} mismatches in 1000 random blocks")


def test_c04_fpca_pipeline_against_dense_eigensolve():
    rng = np.random.default_rng(13)
    grid = np.linspace(0, 1, 60)
    curves = rng.standard_normal((50, grid.size)).cumsum(axis=1) / 6.0
    basis = BasisSpec("bspline", 10)
    grams = gram_matrices(basis)

    model0 = fit_regularized_fpca(curves, grid, basis, q=6, eta=0.0)
    delta = project_to_basis(curves, grid, basis)
    dc = delta - delta.mean(axis=0)
    U = grams.J @ (dc.T @ dc) @ grams.J / delta.shape[0]
    ref = np.sort(scipy.linalg.eigh(U, grams.J, eigvals_only=True))[::-1][:6]
    eig_err = float(np.max(np.abs(model0.eigenvalues - ref)))

    worst_orth = 0.0
    for eta in (0.0, 1e-4, 1e-2):
        m = fit_regularized_fpca(curves, grid, basis, q=5, eta=eta)
        M = grams.J + eta * grams.Q
        G = m.eigen_coeffs @ M @ m.eigen_coeffs.T
        worst_orth = max(worst_orth,
                         float(np.abs(G - np.diag(np.diag(G))).max()))
    ok = eig_err < 1e-8 and worst_orth < 1e-8
    report(4, ok, f"eigenvalue gap {eig_err:.2e}, penalized orthogonality "
                  f"{worst_orth:.2e} (both vs 1e-8)")


def test_c05_stability_measure_fixtures():
    rep0 = stability_measure_var1(np.zeros((2, 2)), np.eye(2), 1024)
    iid_gap = abs(rep0.value - 1.0)

    s0_gap = 0.0
    values = {}
    for a in (0.2, 0.5, 0.8):
        for b in (0.0, 0.5, 1.0):
            C = np.array([[a, b], [0.0, a]])
            S0 = var1_stationary_cov(C, np.eye(2))
            closed = np.array([
                [1 / (1 - a**2) + (a**2 + 1) * b**2 / (1 - a**2) ** 3,
                 a * b / (1 - a**2) ** 2],
                [a * b / (1 - a**2) ** 2, 1 / (1 - a**2)]])
            s0_gap = max(s0_gap, float(np.abs(S0 - closed).max()))
            values[(a, b)] = stability_measure_var1(C, np.eye(2), 256).value
    monotone = all(values[(a2, b)] >= values[(a1, b)] - 1e-8
                   for b in (0.0, 0.5, 1.0)
                   for a1, a2 in [(0.2, 0.5), (0.5, 0.8)]) and \
        all(values[(a, b2)] >= values[(a, b1)] - 1e-8
            for a in (0.2, 0.5, 0.8) for b1, b2 in [(0.0, 0.5), (0.5, 1.0)])

    C = np.array([[0.5, 0.5], [0.0, 0.5]])
    thetas = np.linspace(-np.pi, np.pi, 4097)
    f = np.array([var1_spectral_density(C, np.eye(2), t) for t in thetas])
    inv_gap = float(np.abs(np.trapezoid(f, thetas, axis=0).real
                           - var1_stationary_cov(C, np.eye(2))).max())

    ok = iid_gap <= 1e-8 and s0_gap <= 1e-10 and monotone and inv_gap <= 1e-6
    report(5, ok, f"|M(0)-1|={iid_gap:.1e}, S0 gap {s0_gap:.1e}, "
                  f"monotone={monotone}, inversion gap {inv_gap:.1e}")


def test_c06_companion_form_agrees_with_direct_simulation():
    rng = np.random.default_rng(19)
    blocks = 0.4 * rng.standard_normal((2, 2, 2, 3, 3))
    model = VFARModel(L=2, p=2, basis=BasisSpec("fourier", 3), blocks=blocks,
                      measurement_noise=0.0)
    if not model.is_stationary():
        blocks *= 0.5 / model.spectral_radius()
        model = VFARModel(L=2, p=2, basis=BasisSpec("fourier", 3),
                          blocks=blocks, measurement_noise=0.0)
    comp = companion_form(model)
    n = 5000
    direct = simulate_coefficients(model, n, seed=21).reshape(n, -1)
    stacked = simulate_coefficients(comp, n, seed=21)[:, :2, :].reshape(n, -1)

    worst = 0.0
    n_batches = 25
    for h in (0, 1, 2):
        pa = np.einsum("ta,tb->tab", direct[: n - h], direct[h:])
        pb = np.einsum("ta,tb->tab", stacked[: n - h], stacked[h:])
        gap = np.abs(pa.mean(axis=0) - pb.mean(axis=0))
        means = np.array([c.mean(axis=0) for c in
                          np.array_split(pa, n_batches)])
        se = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        worst = max(worst, float((gap / (3.0 * se)).max()))
    report(6, worst <= 1.0,
           f"max |autocov gap| / (3 MC se) = {worst:.3f} over lags 0..2")


def test_c07_concentration_rates_and_dependence():
    start = time.monotonic()
    ns = (250, 500, 1000, 2000, 4000)
    iid = run_concentration(p=5, q0=3, ns=ns, reps=100, seed=0, ar=0.0)
    dep = run_concentration(p=5, q0=3, ns=ns, reps=100, seed=0, ar=0.5)
    elapsed = time.monotonic() - start
    slopes_ok = all(-0.6 <= s <= -0.4 for s in iid.slopes.values())
    dominated = all(np.all(np.asarray(dep.medians[m]) >
                           np.asarray(iid.medians[m])) for m in iid.medians)
    ok = slopes_ok and dominated and elapsed < 600
    detail = ", ".join(f"{k}={v:+.3f}" for k, v in iid.slopes.items())
    report(7, ok, f"slopes [{detail}] in [-0.6,-0.4], dependent fixture "
                  f"(M={dep.stability:.0f}) dominates={dominated}, "
                  f"{elapsed:.0f}s")


def test_c08_desk_scale_auroc_ordering(desk_replications):
    res = desk_replications
    mean_full = res["full"].mean()
    order = (res["full"] > res["trunc2"]) & (res["trunc2"] > res["single"])
    ok = mean_full >= 0.85 and order.mean() >= 0.80
    report(8, ok, f"mean AUROC full={mean_full:.3f} (>=0.85), "
                  f"trunc2={res['trunc2'].mean():.3f}, "
                  f"single={res['single'].mean():.3f}; "
                  f"ordering rate {order.mean():.2f} (>=0.80)")


def test_c09_desk_scale_relative_error(desk_replications):
    res = desk_replications
    beat_zero = (res["bic"] < 1.0).mean()
    ok = beat_zero >= 0.90 and res["bic"].mean() < res["aic"].mean()
    report(9, ok, f"BIC rel err mean {res['bic'].mean():.3f} "
                  f"(<1 in {beat_zero:.2f} of reps), "
                  f"AIC mean {res['aic'].mean():.3f}")


def test_c10_degrees_of_freedom_formula():
    design, _ = oracle_design(p=3, q=2, n=80, seed=23)
    zero_fit = fit_row(0, design, gamma_max(design, 0))
    full_fit = fit_row(0, design, 0.0, tol=1e-12)
    q_j = design.responses[0].shape[1]
    total = float((design.block_sizes() * q_j).sum())
    hand = df_from_contributions(np.array([9.0]), np.array([4]), 3.0)
    ok = (zero_fit.df == 0.0 and full_fit.df == total
          and abs(hand - 3.25) <= 1e-12)
    report(10, ok, f"df(gamma_max)={zero_fit.df}, df(0)={full_fit.df} "
                   f"(expected {total}), hand case {hand}")


def test_c11_cidr_properties():
    rng = np.random.default_rng(29)
    prices = np.exp(0.01 * rng.standard_normal((5, 3, 12))).cumprod(axis=2)

    panel = cidr_transform(prices, demean=False)
    open_ok = float(np.abs(panel.values[:, :, 0]).max()) == 0.0

    scaled = prices * rng.uniform(0.5, 80.0, size=(1, 3, 1))
    scale_gap = float(np.abs(cidr_transform(scaled).values
                             - cidr_transform(prices).values).max())

    const = cidr_transform(np.full((4, 2, 6), 3.5), demean=False)
    const_ok = float(np.abs(const.values).max()) == 0.0

    ok = open_ok and scale_gap <= 1e-12 and const_ok
    report(11, ok, f"open-zero={open_ok}, scale-invariance gap "
                   f"{scale_gap:.1e}, constant-path-zero={const_ok}")
