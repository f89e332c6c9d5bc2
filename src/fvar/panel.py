"""Panels of discretized curves and every CSV format of the package: the
long-format curve panel, long-format prices and the result tables."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class CurvePanel:
    """n x p panel of curves sampled on a common grid.

    ``values[t, j, s]`` is the observed value of variable ``j`` at time ``t``
    and grid point ``grid[s]``; ``ids`` labels the p variables.
    """

    values: np.ndarray
    grid: np.ndarray
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.grid = np.asarray(self.grid, dtype=float)
        if self.values.ndim != 3:
            raise ConfigError("values must be an (n, p, T) array")
        n, p, T = self.values.shape
        if T != self.grid.size:
            raise ConfigError("grid length does not match values")
        if T < 2:
            raise ConfigError("need at least two grid points")
        if np.any(np.diff(self.grid) <= 0):
            raise ConfigError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("panel contains missing or non-finite values")
        if not self.ids:
            self.ids = [f"x{j}" for j in range(p)]
        if len(self.ids) != p:
            raise ConfigError("ids length does not match number of variables")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        """Write long format with columns t, variable, grid_index, value."""
        values = self.values.tolist()  # Python floats write as exact reprs
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "variable", "grid_index", "value"])
            for t in range(self.n):
                for j, name in enumerate(self.ids):
                    writer.writerows([t, name, s, v]
                                     for s, v in enumerate(values[t][j]))

    @classmethod
    def from_csv(cls, path, grid=None) -> "CurvePanel":
        """Read the long format; the grid itself is not stored in the CSV,
        so pass it explicitly or a uniform [0, 1] grid is assumed.  A
        negative or repeated (variable, t, grid_index) is a DataError."""
        codes: dict[str, int] = {}
        times, var_of, points = array("q"), array("q"), array("q")
        values = array("d")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            c_t, c_var, c_s, c_value = _columns(
                path, reader, ("t", "variable", "grid_index", "value"))
            for line, rec in enumerate(reader, start=2):
                try:
                    name, t, s, value = rec[c_var], rec[c_t], rec[c_s], rec[c_value]
                except IndexError:
                    if not rec:  # a blank line
                        continue
                    raise DataError(f"{path}, line {line}: short row {rec}") from None
                try:
                    t, s = int(t), int(s)
                except ValueError:
                    raise DataError(f"variable {name!r}: unparsable t {t!r} or "
                                    f"grid_index {s!r}") from None
                if t < 0 or s < 0:
                    raise DataError(f"variable {name!r}: negative t={t} or "
                                    f"grid index {s}")
                try:
                    value = float(value)
                except ValueError:
                    raise DataError(
                        f"unparsable value {value!r} for variable {name!r} at "
                        f"t={t}, grid index {s}") from None
                times.append(t)
                var_of.append(codes.setdefault(name, len(codes)))
                points.append(s)
                values.append(value)
        if not values:
            raise DataError(f"{path}: no panel rows")
        ids = list(codes)
        t_idx, j_idx, s_idx = (np.frombuffer(a, dtype=np.int64)
                               for a in (times, var_of, points))
        value_arr = np.frombuffer(values, dtype=float)

        def key(row) -> str:
            return (f"variable {ids[j_idx[row]]!r} at t={t_idx[row]}, "
                    f"grid index {s_idx[row]}")

        bad = np.flatnonzero(~np.isfinite(value_arr))
        if bad.size:
            raise DataError("missing or non-finite value "
                            f"{float(value_arr[bad[0]])!r} for {key(bad[0])}")
        panel = _scatter((t_idx, j_idx, s_idx), value_arr,
                         lambda row: f"duplicate row for {key(row)}")
        if grid is None:
            grid = np.linspace(0.0, 1.0, panel.shape[2])
        return cls(values=panel, grid=np.asarray(grid, dtype=float), ids=ids)

    def to_npz(self, path) -> None:
        """Binary round-trip format (values, grid and ids)."""
        np.savez_compressed(path, values=self.values, grid=self.grid,
                            ids=np.array(self.ids))

    @classmethod
    def from_npz(cls, path) -> "CurvePanel":
        with np.load(path, allow_pickle=False) as data:
            return cls(values=data["values"], grid=data["grid"],
                       ids=[str(s) for s in data["ids"]])


def read_price_csv(path):
    """Read long-format prices (date, ticker, minute_index, price).

    Returns (prices, tickers, dates) with days ordered by date and tickers by
    first appearance; missing or repeated (date, ticker, minute)
    combinations and non-finite prices are an error.  Rows are parsed into
    flat typed arrays and scattered into the panel at the end, so memory
    stays near that of the panel itself.
    """
    dates: dict[str, int] = {}
    tickers: dict[str, int] = {}
    day_of, ticker_of, minutes = array("q"), array("q"), array("q")
    values = array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        c_date, c_tick, c_minute, c_price = _columns(
            path, reader, ("date", "ticker", "minute_index", "price"))
        for line, rec in enumerate(reader, start=2):
            try:
                minute, price = int(rec[c_minute]), float(rec[c_price])
            except (IndexError, ValueError):
                raise DataError(f"{path}, line {line}: unparsable row {rec}") from None
            day_of.append(dates.setdefault(rec[c_date], len(dates)))
            ticker_of.append(tickers.setdefault(rec[c_tick], len(tickers)))
            minutes.append(minute)
            values.append(price)
    if not values:
        raise DataError(f"{path}: no price rows")
    price_arr = np.frombuffer(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(price_arr))
    if bad.size:
        raise DataError(f"{path}, line {bad[0] + 2}: missing or non-finite "
                        f"price {float(price_arr[bad[0]])!r}")
    minute_idx = np.frombuffer(minutes, dtype=np.int64)
    if minute_idx.min() < 0:
        raise DataError(f"{path}: negative minute_index")
    days = sorted(dates)
    day_rank = np.empty(len(days), dtype=np.int64)
    day_rank[[dates[d] for d in days]] = np.arange(len(days))
    day_idx = day_rank[np.frombuffer(day_of, dtype=np.int64)]
    tick_idx = np.frombuffer(ticker_of, dtype=np.int64)
    prices = _scatter((day_idx, tick_idx, minute_idx), price_arr, lambda row: (
        f"{path}, line {row + 2}: duplicate row for date "
        f"{days[day_idx[row]]}, ticker {list(tickers)[tick_idx[row]]}, "
        f"minute {minute_idx[row]}"))
    if len(values) < prices.size:  # each row filled a cell of its own
        raise DataError("price panel has missing (date, ticker, minute) cells")
    return prices, list(tickers), days


def write_csv(path, header, rows) -> None:
    """Write a table; floats are written as their exact repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _columns(path, reader, names) -> list[int]:
    """Read the header; the position of each of ``names`` in it."""
    header = next(reader, [])
    try:
        return [header.index(c) for c in names]
    except ValueError:
        raise DataError(f"{path}: need columns {', '.join(names[:-1])} and "
                        f"{names[-1]}, got {header}") from None


def _scatter(index, values, duplicate) -> np.ndarray:
    """NaN-filled array with the finite ``values`` at the nonnegative ``index``
    arrays; the first row that repeats a key is the DataError duplicate(row)."""
    out = np.full(tuple(int(i.max()) + 1 for i in index), np.nan)
    out[index] = values
    if len(values) > out.size - np.count_nonzero(np.isnan(out)):
        # every value is finite, so more rows than filled cells means a
        # repeated key
        cells = np.ravel_multi_index(index, out.shape)
        order = np.argsort(cells, kind="stable")
        row = int(order[1:][cells[order[1:]] == cells[order[:-1]]].min())
        raise DataError(duplicate(row))
    return out
