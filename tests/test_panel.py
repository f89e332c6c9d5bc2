"""Tests for the long-format CSV writer and the two block-wise readers."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fvar.panel
from fvar.errors import ConfigError, DataError
from fvar.panel import CurvePanel, read_price_csv

from oracles import write_panel_csv_reference

SRC = Path(fvar.panel.__file__).resolve().parents[1]
DATES = ("2017-01-03", "2017-01-04", "2017-01-05")


class TestWriter:
    IDS = ["a,b", 'say "hi"', "100%", "%d %r %% %(x)s", "two\r\nlines",
           "one\nline", "Zürich €", ""]
    EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             0.1, 1 / 3, -2.5e-300]

    def panel(self):
        values = np.random.default_rng(0).standard_normal((3, len(self.IDS), 4))
        values.reshape(-1)[::5][:len(self.EDGES)] = self.EDGES
        return CurvePanel(values=values, grid=np.linspace(0, 1, 4), ids=self.IDS)

    def test_bytes_match_csv_writer_reference(self, tmp_path):
        panel = self.panel()
        panel.to_csv(tmp_path / "fast.csv")
        write_panel_csv_reference(panel, tmp_path / "reference.csv")
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_round_trip_through_reader(self, tmp_path):
        panel = self.panel()
        panel.to_csv(tmp_path / "first.csv")
        back = CurvePanel.from_csv(tmp_path / "first.csv")
        assert back.ids == self.IDS
        np.testing.assert_array_equal(back.values, panel.values)
        np.testing.assert_array_equal(np.signbit(back.values),
                                      np.signbit(panel.values))
        back.to_csv(tmp_path / "second.csv")
        assert ((tmp_path / "second.csv").read_bytes()
                == (tmp_path / "first.csv").read_bytes())


def _price_text(rows, header="date,ticker,minute_index,price"):
    return header + "\n" + "".join(f"{d},{k},{m},{v}\n" for d, k, m, v in rows)


def _panel_text(rows):
    return "t,variable,grid_index,value\n" + "".join(
        f"{t},{name},{s},{v}\n" for t, name, s, v in rows)


def _grid_rows(minutes=2):
    """Rows of a complete 3 x 2 x ``minutes`` panel in file order, each as
    (first axis, variable, last axis, value) with indices for the first."""
    return [[i, name, s, 100 * i + 10 * j + s]
            for i in range(3) for j, name in enumerate(("AAA", "BBB"))
            for s in range(minutes)]


def _as_prices(rows):
    return [(DATES[i] if isinstance(i, int) else i, k, s, v) for i, k, s, v in rows]


@pytest.fixture
def small_blocks(monkeypatch):
    # the readers scatter after every 4th line: block 1 holds lines 2-4,
    # block 2 lines 5-8, block 3 lines 9-12 and so on
    monkeypatch.setattr(fvar.panel, "_BLOCK_ROWS", 4)


@pytest.mark.usefixtures("small_blocks")
class TestPriceBlocks:
    def read(self, tmp_path, rows):
        path = tmp_path / "prices.csv"
        path.write_text(_price_text(_as_prices(rows)))
        return read_price_csv(path)

    def test_duplicate_of_an_earlier_block_named_at_repeating_line(self, tmp_path):
        rows = _grid_rows()
        rows[8][:3] = rows[0][:3]  # line 10 repeats line 2
        with pytest.raises(DataError, match="line 10: duplicate row for date "
                           "2017-01-03, ticker AAA, minute 0$"):
            self.read(tmp_path, rows)

    def test_non_finite_in_block_3_beats_duplicate_in_block_1(self, tmp_path):
        rows = _grid_rows()
        rows[1][:3] = rows[0][:3]
        rows[8][3] = "nan"
        with pytest.raises(DataError, match="line 10: missing or non-finite "
                           "price nan"):
            self.read(tmp_path, rows)

    def test_index_in_block_1_that_reaches_the_final_row_count(self, tmp_path):
        rows = _grid_rows()  # 12 rows
        rows[0][2] = 12
        with pytest.raises(DataError, match="line 2: minute_index 12 of ticker "
                           "AAA is out of range: 12 rows cannot fill"):
            self.read(tmp_path, rows)
        rows[0][2] = 11  # past every block's running count, not the final one
        with pytest.raises(DataError) as exc:
            self.read(tmp_path, rows)
        assert "missing" in str(exc.value)
        assert "out of range" not in str(exc.value)

    def test_rows_in_any_order(self, tmp_path, monkeypatch):
        rows = _grid_rows(minutes=3)
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled = self.read(tmp_path, [rows[i] for i in order])
        monkeypatch.setattr(fvar.panel, "_BLOCK_ROWS", 1 << 20)
        prices, tickers, days = self.read(tmp_path, rows)
        assert shuffled[2] == days == list(DATES)
        assert sorted(shuffled[1]) == tickers
        ticker_order = [tickers.index(k) for k in shuffled[1]]
        np.testing.assert_array_equal(shuffled[0], prices[:, ticker_order])

    def test_reversed_minutes_fill_one_curve(self, tmp_path):
        rows = [[0, "AAA", s, float(s)] for s in reversed(range(11))]
        prices, _, _ = self.read(tmp_path, rows)
        np.testing.assert_array_equal(prices, np.arange(11.0).reshape(1, 1, 11))


@pytest.mark.usefixtures("small_blocks")
class TestPanelBlocks:
    def read(self, tmp_path, rows):
        path = tmp_path / "panel.csv"
        path.write_text(_panel_text(rows))
        return CurvePanel.from_csv(path)

    def test_duplicate_of_an_earlier_block_named_at_repeating_line(self, tmp_path):
        rows = _grid_rows()
        rows[8][:3] = rows[1][:3]
        with pytest.raises(DataError, match="^duplicate row for variable 'AAA' "
                           "at t=0, grid index 1$"):
            self.read(tmp_path, rows)

    def test_non_finite_in_block_3_beats_duplicate_in_block_1(self, tmp_path):
        rows = _grid_rows()
        rows[1][:3] = rows[0][:3]
        rows[8][3] = "inf"
        with pytest.raises(DataError, match="non-finite value inf for variable "
                           "'AAA' at t=2, grid index 0"):
            self.read(tmp_path, rows)

    def test_index_in_block_1_that_reaches_the_final_row_count(self, tmp_path):
        rows = _grid_rows()
        rows[0][0] = 12
        with pytest.raises(DataError, match="variable 'AAA' at t=12, grid index 0 "
                           "is out of range: 12 rows cannot fill"):
            self.read(tmp_path, rows)
        rows[0][0] = 11
        with pytest.raises(DataError) as exc:
            self.read(tmp_path, rows)
        assert "missing" in str(exc.value)
        assert "out of range" not in str(exc.value)

    def test_rows_in_any_order(self, tmp_path):
        rows = _grid_rows(minutes=3)
        order = np.random.default_rng(6).permutation(len(rows))
        shuffled = [rows[i] for i in order]
        path = tmp_path / "panel.csv"
        # blank lines count toward a block but hold no row
        path.write_text(_panel_text(shuffled).replace("\n", "\n\n", 3))
        back = CurvePanel.from_csv(path)
        ids = list(dict.fromkeys(r[1] for r in shuffled))
        assert back.ids == ids
        for t, name, s, v in rows:
            assert back.values[t, ids.index(name), s] == v


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_non_finite_grid_is_config_error(bad, at):
    # NaN passes a strictly-increasing check on np.diff, and so does an
    # infinity at the end it increases toward
    grid = np.linspace(0.0, 1.0, 5)
    grid[at] = bad
    with pytest.raises(ConfigError, match="grid points must be finite"):
        CurvePanel(values=np.zeros((3, 2, 5)), grid=grid)


def test_reader_that_is_not_a_file_has_no_size_bound(tmp_path):
    fifo = tmp_path / "prices.fifo"
    os.mkfifo(fifo)
    text = _price_text(_as_prices(_grid_rows()))
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        prices, _, _ = read_price_csv(fifo)
    finally:
        writer.join()
    assert prices.shape == (3, 2, 2)


@pytest.mark.parametrize("reader", ["prices", "panel"])
def test_panel_the_file_cannot_fill_is_missing_cells(tmp_path, reader):
    # 2000 rows whose keys imply a panel of billions of cells, while no
    # index reaches the row count: the reader must stop before allocating
    if reader == "prices":
        rows = [f"D{i // 2:03d},T{i // 2:03d},{i % 2},1.0" for i in range(1999)]
        text = "date,ticker,minute_index,price\n" + "\n".join(
            rows + ["D000,T000,1999,1.0"]) + "\n"
        expected = "price panel has missing (date, ticker, minute) cells"
    else:
        rows = [f"0,v{i // 2:03d},{i % 2},1.0" for i in range(1999)]
        text = "t,variable,grid_index,value\n" + "\n".join(
            rows + ["1999,v000,1999,1.0"]) + "\n"
        expected = ("panel has missing (t, variable, grid_index) cells: 2000 "
                    "rows cannot fill the 2000 x 1000 x 2000 panel they imply")
    path = tmp_path / "sparse.csv"
    path.write_text(text)
    # a cap on the address space makes an attempted allocation fail at once
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from fvar.errors import DataError\n"
            "from fvar.panel import CurvePanel, read_price_csv\n"
            "read = read_price_csv if sys.argv[1] == 'prices' "
            "else CurvePanel.from_csv\n"
            "try:\n"
            "    read(sys.argv[2])\n"
            "except DataError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code, reader, str(path)],
                          env=dict(os.environ, PYTHONPATH=str(SRC),
                                   OPENBLAS_NUM_THREADS="1",
                                   OMP_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_reader_and_writer_memory_is_bounded(tmp_path):
    """The reader holds the panel, its growth slack and one block of rows;
    the writer holds one time point of lines."""
    days, p, T = 25, 20, 100  # 50 000 rows
    values = np.random.default_rng(1).uniform(10, 20, (days, p, T)).tolist()
    path = tmp_path / "prices.csv"
    with open(path, "w") as fh:
        fh.write("date,ticker,minute_index,price\n")
        for d in range(days):
            for j in range(p):
                fh.write("".join(f"2020-01-{d + 1:02d},T{j:02d},{s},{v!r}\n"
                                 for s, v in enumerate(values[d][j])))
    tracemalloc.start()
    try:
        prices, tickers, _ = read_price_csv(path)
        reader_peak = tracemalloc.get_traced_memory()[1]
        panel = CurvePanel(values=prices, grid=np.linspace(0, 1, T), ids=tickers)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        panel.to_csv(tmp_path / "panel.csv")
        writer_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a block: its four 8-byte row buffers and the scatter's temporaries
    block = 64 * fvar.panel._BLOCK_ROWS
    assert reader_peak < 3 * prices.nbytes + block
    assert writer_peak < 1_000_000
