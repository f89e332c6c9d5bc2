"""Panels of discretized curves and every CSV format of the package: the
long-format curve panel, long-format prices and the result tables.

The long formats are read and written in bounded memory.  ``to_csv`` writes
one time point at a time.  Both readers parse rows with ``csv.reader`` into
typed buffers and, after every ``_BLOCK_ROWS`` lines, scatter them into a NaN
panel that grows as new keys appear (``_BlockPanel``).  So they hold the
panel, its growth slack and one block of rows, never a per-row copy of the
file.  The faults that only the whole file can decide are recorded block by
block and raised at its end, in the same order and with the same text
whatever the block size.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import sys
import zipfile
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

_BLOCK_ROWS = 8192  # rows a reader parses between two scatters into its panel


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
        if not np.all(np.isfinite(self.grid)):
            raise ConfigError("grid points must be finite")
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
        """Write long format with columns t, variable, grid_index, value.

        Each time point is one write of a %-template of its p x T lines, made
        by csv.writer once, so ids are quoted as csv.writer quotes them and
        values are written as their exact repr.
        """
        n, p, T = self.values.shape
        lines = io.StringIO()
        csv.writer(lines).writerows(["%d", str(name).replace("%", "%%"), s, "%r"]
                                    for name in self.ids for s in range(T))
        template = lines.getvalue()
        args = [0] * (2 * p * T)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", "variable", "grid_index", "value"])
            for t in range(n):
                args[::2] = [t] * (p * T)
                args[1::2] = self.values[t].ravel().tolist()
                fh.write(template % tuple(args))

    @classmethod
    def from_csv(cls, path) -> "CurvePanel":
        """Read the long format.  The CSV stores grid indices, not grid
        points, so the panel gets the uniform grid of [0, 1].  A negative or
        repeated (variable, t, grid_index) is a DataError."""
        codes: dict[str, int] = {}
        times, var_of, points = array("q"), array("q"), array("q")
        values = array("d")
        block = _BLOCK_ROWS
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            c_t, c_var, c_s, c_value = _columns(
                path, reader, ("t", "variable", "grid_index", "value"))
            blocks = _BlockPanel(fh)
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
                try:
                    times.append(t)
                    points.append(s)
                except OverflowError:
                    raise DataError(f"variable {name!r}: t={t} or grid index {s} "
                                    "is out of range") from None
                var_of.append(codes.setdefault(name, len(codes)))
                values.append(value)
                if line % block == 0:
                    blocks.add((times, var_of, points), values)
            blocks.add((times, var_of, points), values)
        if not blocks.rows:
            raise DataError(f"{path}: no panel rows")
        ids = list(codes)
        kind, row = blocks.fault()
        if kind == "missing":
            n, p, T = blocks.extent
            raise DataError(f"{path}: panel has missing (t, variable, grid_index) "
                            f"cells: {blocks.rows} rows cannot fill the "
                            f"{n} x {p} x {T} panel they imply")
        if kind is not None:
            _, (t, j, s), value = row
            key = f"variable {ids[j]!r} at t={t}, grid index {s}"
            raise DataError({
                "non-finite": f"missing or non-finite value {value!r} for {key}",
                "range": f"{key} is out of range: {blocks.rows} rows cannot "
                         "fill the panel it implies",
                "duplicate": f"duplicate row for {key}",
            }[kind])
        panel = blocks.array()
        return cls(values=panel, grid=np.linspace(0.0, 1.0, panel.shape[2]),
                   ids=ids)

    def to_npz(self, path) -> None:
        """Binary round-trip format (values, grid and ids)."""
        np.savez_compressed(path, values=self.values, grid=self.grid,
                            ids=np.array(self.ids))

    @classmethod
    def from_npz(cls, path) -> "CurvePanel":
        """Read ``to_npz``'s archive.  A file that is not a zip archive, a
        damaged archive, a missing ``values``, ``grid`` or ``ids`` array, an
        object array and a non-numeric ``values`` or ``grid`` are
        DataErrors naming the file."""
        keys = ("values", "grid", "ids")
        if not zipfile.is_zipfile(path):
            raise DataError(f"{path} is not an npz (zip) archive")
        # zipfile, zlib and numpy's header parser each raise their own kinds
        # of error on a damaged archive
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: data[k] for k in keys if k in data}
        except Exception as exc:
            raise DataError(f"{path}: cannot read its arrays: {exc}") from None
        missing = [k for k in keys if k not in arrays]
        if missing:
            raise DataError(f"{path} has no {' or '.join(missing)} array")
        values, grid, ids = (arrays[k] for k in keys)
        for name, a in (("values", values), ("grid", grid)):
            if a.dtype.kind not in "biuf":
                raise DataError(f"{path}: {name} must be numeric; got dtype "
                                f"{a.dtype}")
        if ids.ndim != 1:
            raise DataError(f"{path}: ids must be one-dimensional")
        return cls(values=values, grid=grid, ids=[str(s) for s in ids])


def read_price_csv(path):
    """Read long-format prices (date, ticker, minute_index, price).

    Returns (prices, tickers, dates) with days ordered by date and tickers by
    first appearance; missing or repeated (date, ticker, minute)
    combinations and non-finite prices are an error.  Rows are scattered
    into the panel one block at a time, so memory stays under 2.5 times
    the panel (its growth slack, and the copy that orders the days) plus one
    block of rows.
    """
    dates: dict[str, int] = {}
    tickers: dict[str, int] = {}
    day_of, ticker_of, minutes = array("q"), array("q"), array("q")
    values = array("d")
    block = _BLOCK_ROWS
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        c_date, c_tick, c_minute, c_price = _columns(
            path, reader, ("date", "ticker", "minute_index", "price"))
        blocks = _BlockPanel(fh)
        for line, rec in enumerate(reader, start=2):
            try:
                minute, price = int(rec[c_minute]), float(rec[c_price])
            except (IndexError, ValueError):
                raise DataError(f"{path}, line {line}: unparsable row {rec}") from None
            try:
                minutes.append(minute)
            except OverflowError:
                raise DataError(f"{path}, line {line}: minute_index {minute} of "
                                f"ticker {rec[c_tick]} is out of range") from None
            day_of.append(dates.setdefault(rec[c_date], len(dates)))
            ticker_of.append(tickers.setdefault(rec[c_tick], len(tickers)))
            values.append(price)
            if line % block == 0:
                blocks.add((day_of, ticker_of, minutes), values)
        blocks.add((day_of, ticker_of, minutes), values)
    if not blocks.rows:
        raise DataError(f"{path}: no price rows")
    kind, row = blocks.fault()
    # with no other fault, rows fewer than cells leave some cell empty
    if kind == "missing" or (kind is None
                             and blocks.rows < math.prod(blocks.extent)):
        raise DataError("price panel has missing (date, ticker, minute) cells")
    if kind is not None:
        number, (day, tick, minute), price = row
        line, tick = number + 2, list(tickers)[tick]
        raise DataError({
            "non-finite": f"{path}, line {line}: missing or non-finite price "
                          f"{price!r}",
            "negative": f"{path}: negative minute_index",
            "range": f"{path}, line {line}: minute_index {minute} of ticker "
                     f"{tick} is out of range: {blocks.rows} rows cannot fill "
                     "the panel it implies",
            "duplicate": f"{path}, line {line}: duplicate row for date "
                         f"{list(dates)[day]}, ticker {tick}, minute {minute}",
        }[kind])
    days = sorted(dates)
    return blocks.array([dates[d] for d in days]), list(tickers), days


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


class _BlockPanel:
    """A panel filled from long-format rows one block at a time.

    Each block of rows is three index buffers (array("q")) and a value
    buffer (array("d")).  Its values go into ``store``, a NaN array that grows
    when a key past its edge appears: by half its length at least along the
    first axis, where days or time points arrive one after another, and
    exactly along the other two.  It stops growing once the keys imply more
    cells than the file's bytes could fill.

    Beside the array it keeps the first row, in file order, of each fault
    that needs the whole file to decide; ``fault`` names the one that does.
    """

    def __init__(self, fh):
        st = os.fstat(fh.fileno())
        # a row takes at least five bytes: three commas, an index and a
        # value; a pipe does not tell its size, so it bounds nothing
        self.limit = (st.st_size // 5 if stat.S_ISREG(st.st_mode)
                      else sys.maxsize)
        self.store = np.full((0, 0, 0), np.nan)
        self.extent = (0, 0, 0)  # one past the largest key on each axis
        self.rows = 0
        self.top = -1  # the largest index seen
        # the rows that raised ``top`` to at least the rows read so far: the
        # first row whose index reaches the final row count is one of them
        self.raisers: list[tuple] = []
        self.nonfinite = self.negative = self.duplicate = None

    def add(self, index, values) -> None:
        """Take one block of rows and empty its buffers."""
        if len(values) and self.nonfinite is None:
            self._take(np.stack([np.frombuffer(i, dtype=np.int64)
                                 for i in index]), np.frombuffer(values))
        for buf in (*index, values):
            del buf[:]

    def _take(self, keys, values) -> None:
        start = self.rows
        self.rows += values.size

        def row(i):
            i = int(i)
            return start + i, tuple(keys[:, i].tolist()), float(values[i])

        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:  # the fault of highest precedence: no later row matters
            self.nonfinite = row(bad[0])
            return
        if self.negative is not None:
            return
        bad = np.flatnonzero(keys.min(axis=0) < 0)
        if bad.size:
            self.negative = row(bad[0])
            return
        top = keys.max(axis=0)
        high = int(top.max())
        self.raisers = [r for r in self.raisers if max(r[1]) >= self.rows]
        if high >= self.rows:
            running = np.maximum.accumulate(np.concatenate(([self.top], top)))
            self.raisers += map(row, np.flatnonzero((top > running[:-1])
                                                    & (top >= self.rows)))
        self.top = max(self.top, high)
        self.extent = tuple(max(e, int(k) + 1)
                            for e, k in zip(self.extent, keys.max(axis=1)))
        if self.duplicate is not None or self.unfillable:
            return
        self._grow()
        flat = self.store.reshape(-1)
        _, n1, n2 = self.store.shape
        cells = (keys[0] * n1 + keys[1]) * n2 + keys[2]
        order = np.argsort(cells, kind="stable")
        again = order[1:][cells[order[1:]] == cells[order[:-1]]]
        taken = np.flatnonzero(~np.isnan(flat[cells]))
        if again.size or taken.size:
            self.duplicate = row(np.concatenate((again, taken)).min())
            return
        flat[cells] = values

    @property
    def unfillable(self) -> bool:
        return math.prod(self.extent) > self.limit

    def _grow(self) -> None:
        shape = self.store.shape
        if all(e <= s for e, s in zip(self.extent, shape)):
            return
        first = (shape[0] if self.extent[0] <= shape[0]
                 else max(self.extent[0], shape[0] * 3 // 2))
        grown = np.full((first, *(max(e, s) for e, s
                                  in zip(self.extent[1:], shape[1:]))), np.nan)
        grown[:shape[0], :shape[1], :shape[2]] = self.store
        self.store = grown

    def fault(self):
        """(kind, row) of the fault that decides the file's error, or (None,
        None).  In order of precedence the kinds are "non-finite",
        "negative", "range" (an index at or past the row count), "missing"
        (more cells than the file could fill; row is None) and
        "duplicate".  A row is (row number from 0, key, value)."""
        if self.nonfinite is not None:
            return "non-finite", self.nonfinite
        if self.negative is not None:
            return "negative", self.negative
        for r in self.raisers:
            if max(r[1]) >= self.rows:
                return "range", r
        if self.unfillable:
            return "missing", None
        if self.duplicate is not None:
            return "duplicate", self.duplicate
        return None, None

    def array(self, order=None) -> np.ndarray:
        """The panel cut to its extent, its first axis taken in ``order``."""
        panel = self.store[tuple(slice(e) for e in self.extent)]
        if order is not None:
            return panel[order]
        return panel if panel.shape == self.store.shape else panel.copy()
