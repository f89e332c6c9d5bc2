"""Shared fixtures builders for the test suite."""

import numpy as np

from fvar.basis import BasisSpec
from fvar.fpca import KLModel
from fvar.solver import block_fista_gram, build_design
from fvar.vfar import gen_block_banded, simulate_coefficients

from oracles import group_objective_gram

FOURIER5 = BasisSpec("fourier", 5)


def kl_from_scores(scores, basis=FOURIER5):
    """KL model whose eigenfunctions are the leading basis functions."""
    scores = np.asarray(scores, dtype=float)
    n, q = scores.shape
    G = basis.dimension
    coeffs = np.eye(q, G)
    lams = (scores**2).mean(axis=0)
    return KLModel(basis=basis, mean_coeffs=np.zeros(G), eigenvalues=lams,
                   eigen_coeffs=coeffs, scores=scores)


def oracle_models(p=3, q=2, n=50, seed=7):
    """KL models of the scores of a stationary coefficient VAR, and the VAR."""
    model = gen_block_banded(p=p, G=q, bandwidth=1, seed=seed,
                             measurement_noise=0.0)
    coeffs = simulate_coefficients(model, n, seed=seed)
    kl = [kl_from_scores(coeffs[:, j, :], BasisSpec("fourier", q))
          for j in range(p)]
    return kl, model


def oracle_design(p=3, q=2, n=50, seed=7, rho=0.5):
    """Lag-1 design of ``oracle_models``, and the VAR."""
    kl, model = oracle_models(p=p, q=q, n=n, seed=seed)
    return build_design(kl, 1), model


def lagged_scores(kl_models, L):
    """The raw lagged predictors, rebuilt from the KL scores: column block
    (h-1)*p + k holds variable k's scores at times L+1-h..n-h."""
    n = kl_models[0].n
    return np.concatenate([m.scores[L - h: n - h]
                           for h in range(1, L + 1) for m in kl_models],
                          axis=1)


def prefix_objectives(gram, hmat, ynorm_sq, offsets, gamma, step, tol, k_max,
                      x0=None, col_offsets=None):
    """Each row's objective at ``x0`` and at the point a solve capped at
    ``max_iter=k`` returns, for k = 1..k_max: row b's proximal point after k
    iterations, or its last one if it stopped earlier.  Arguments as for
    ``block_fista_gram``; returns a (k_max + 1, rows) array."""
    cols = [0, hmat.shape[1]] if col_offsets is None else list(col_offsets)
    rows = len(cols) - 1
    gammas = np.broadcast_to(gamma, (rows,))
    yn = np.broadcast_to(ynorm_sq, (rows,))
    x = np.zeros_like(hmat) if x0 is None else x0
    out = []
    for k in range(k_max + 1):
        if k:
            x = block_fista_gram(gram, hmat, ynorm_sq, offsets, gamma, step,
                                 tol, k, x0, col_offsets=col_offsets).x
        out.append([group_objective_gram(gram, hmat[:, lo:hi], yn[b],
                                         x[:, lo:hi], offsets, gammas[b])
                    for b, (lo, hi) in enumerate(zip(cols, cols[1:]))])
    return np.array(out)
