"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes.  The VFAR truths come from fvar's own model generator, then are
rescaled to a fixed spectral radius, because the radius drawn per seed
(uniform on [0.5, 1]) changes the solver's iteration count by a factor of
two between seeds and would swamp any change in the code.  The price panel
and the VAR(1) system are drawn with plain numpy, apart from the program.
"""

from __future__ import annotations

import numpy as np

# looked up on the module at call time, so a traced set-up sees the wrappers
from fvar import vfar

RADIUS = 0.75
MEASUREMENT_NOISE = 0.5
TICK_VOL = 1e-3        # log-price sd of one intraday step
GAP_VOL = 5e-3         # log-price sd of the overnight gap
NEIGHBOUR_LAG = 0.3    # weight of yesterday's neighbour increment


def banded_truth(p: int, seed: int, G: int = 5, bandwidth: int = 2) -> vfar.VFARModel:
    """Lag-1 banded VFAR in a Fourier basis with spectral radius RADIUS."""
    drawn = vfar.gen_block_banded(p, G=G, bandwidth=bandwidth, seed=seed,
                                  measurement_noise=MEASUREMENT_NOISE)
    meta = dict(drawn.meta, iota=RADIUS)
    return vfar.VFARModel(L=1, p=p, basis=drawn.basis,
                          blocks=drawn.blocks * (RADIUS / drawn.meta["iota"]),
                          measurement_noise=MEASUREMENT_NOISE, meta=meta)


def simulated_panel(truth: vfar.VFARModel, n: int, grid_size: int, seed: int):
    """n curves per variable on a uniform grid, drawn from the truth."""
    return vfar.simulate(truth, n, grid=np.linspace(0.0, 1.0, grid_size),
                         seed=seed, stream=1)


def intraday_prices(seed: int, n_days: int, p: int, T: int) -> np.ndarray:
    """(n_days, p, T) positive prices.

    Each intraday log-price increment mixes a market factor, an
    idiosyncratic shock and NEIGHBOUR_LAG times yesterday's increment of the
    previous ticker at the same time of day, so ticker j-1 Granger-causes
    ticker j.  Each day opens at the previous close times an overnight gap.
    """
    rng = np.random.default_rng(seed)
    prices = np.empty((n_days, p, T))
    prev = np.zeros((p, T - 1))
    open_log = np.log(rng.uniform(20.0, 200.0, size=p))
    for t in range(n_days):
        inc = TICK_VOL * (0.6 * rng.standard_normal(T - 1)
                          + 0.8 * rng.standard_normal((p, T - 1)))
        inc += NEIGHBOUR_LAG * np.roll(prev, 1, axis=0)
        path = open_log[:, None] + np.concatenate(
            [np.zeros((p, 1)), np.cumsum(inc, axis=1)], axis=1)
        prices[t] = np.exp(path)
        open_log = path[:, -1] + GAP_VOL * rng.standard_normal(p)
        prev = inc
    return prices


def trading_days(n_days: int) -> list[str]:
    """Distinct ISO dates that sort in trading order."""
    return [f"{2000 + d // 240:04d}-{1 + (d // 20) % 12:02d}-{1 + d % 20:02d}"
            for d in range(n_days)]


def write_price_csv(path, prices: np.ndarray) -> tuple[list[str], list[str]]:
    """Long-format CSV (date, ticker, minute_index, price), one row per cell.

    Prices are written with repr, the shortest decimal that reads back to
    the same double, so the benchmark's expected panel is computed from
    exactly the values the program parses.
    """
    n_days, p, T = prices.shape
    days = trading_days(n_days)
    tickers = [f"TICK{j:03d}" for j in range(p)]
    values = prices.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("date,ticker,minute_index,price\n")
        for t, day in enumerate(days):
            for j, tick in enumerate(tickers):
                row = values[t][j]
                fh.write("".join(f"{day},{tick},{s},{row[s]!r}\n"
                                 for s in range(T)))
    return days, tickers


def var1_system(seed: int, d: int, a_max: float = 0.9):
    """Dense non-normal stationary VAR(1) with a known stability measure.

    C = T diag(a) T^{-1} with noise covariance T T^T, so x = T y where the
    y_i are independent AR(1) series with unit innovations.  Returns
    (C, noise_cov, a).
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-a_max, a_max, size=d)
    T = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    C = T @ np.diag(a) @ np.linalg.inv(T)
    return C, T @ T.T, a
