"""Panels of discretized curves and their on-disk formats."""

from __future__ import annotations

import csv
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
        rows: dict[str, dict[tuple[int, int], float]] = {}
        max_t = -1
        max_s = -1
        order: list[str] = []
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                name = rec["variable"]
                try:
                    t = int(rec["t"])
                    s = int(rec["grid_index"])
                except ValueError:
                    raise DataError(
                        f"variable {name!r}: unparsable t {rec['t']!r} or "
                        f"grid_index {rec['grid_index']!r}") from None
                if t < 0 or s < 0:
                    raise DataError(f"variable {name!r}: negative t={t} or "
                                    f"grid index {s}")
                try:
                    value = float(rec["value"])
                except ValueError:
                    raise DataError(
                        f"unparsable value {rec['value']!r} for variable "
                        f"{name!r} at t={t}, grid index {s}") from None
                if name not in rows:
                    rows[name] = {}
                    order.append(name)
                if (t, s) in rows[name]:
                    raise DataError(f"duplicate row for variable {name!r} at "
                                    f"t={t}, grid index {s}")
                rows[name][(t, s)] = value
                max_t = max(max_t, t)
                max_s = max(max_s, s)
        n, T = max_t + 1, max_s + 1
        values = np.full((n, len(order), T), np.nan)
        for j, name in enumerate(order):
            for (t, s), v in rows[name].items():
                values[t, j, s] = v
        if grid is None:
            grid = np.linspace(0.0, 1.0, T)
        return cls(values=values, grid=np.asarray(grid, dtype=float), ids=order)

    def to_npz(self, path) -> None:
        """Binary round-trip format (values, grid and ids)."""
        np.savez_compressed(path, values=self.values, grid=self.grid,
                            ids=np.array(self.ids))

    @classmethod
    def from_npz(cls, path) -> "CurvePanel":
        with np.load(path, allow_pickle=False) as data:
            return cls(values=data["values"], grid=data["grid"],
                       ids=[str(s) for s in data["ids"]])
