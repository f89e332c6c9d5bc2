"""Shared fixtures builders for the test suite."""

import numpy as np

from fvar.basis import BasisSpec
from fvar.fpca import KLModel
from fvar.solver import build_design
from fvar.vfar import gen_block_banded, simulate_coefficients

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
