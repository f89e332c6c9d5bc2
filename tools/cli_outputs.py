"""Write a fixed set of CLI outputs into OUTDIR, for byte-for-byte comparison.

Usage: python tools/cli_outputs.py OUTDIR

Runs fourteen ``fvar`` commands, each as a subprocess with one BLAS
thread, from inside OUTDIR and with relative ``--out`` and input names, so
that the manifests do not depend on where OUTDIR is.  They cover the
``desk`` preset at lags 1 and 2, a sparse simulation, and CIDR ingestion of
a small price CSV that the script writes first, followed by a fit that
reads the CIDR panel back from CSV.  The 59 files it writes are the same
from one run to the next on one machine, so a change that should leave
every output as it is can be checked with

    python tools/cli_outputs.py /tmp/before     # on the parent commit
    python tools/cli_outputs.py /tmp/after      # on the change
    diff -r /tmp/before /tmp/after

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

FIT = ("--panel", "sim/panel.npz")
COMMANDS = [
    ("simulate", "--preset", "desk", "--seed", "1", "--out", "sim"),
    ("fit", *FIT, "--out", "fit"),
    ("fit", *FIT, "--gamma", "20", "--out", "fit_gamma"),
    ("fit", *FIT, "--basis", "fourier", "--basis-dim", "9",
     "--out", "fit_fourier"),
    ("select", *FIT, "--ic", "aic", "--out", "select"),
    ("path", *FIT, "--truth", "sim/model.json", "--out", "path"),
    ("network", "--kernels", "fit/kernels.json", "--indegree", "3",
     "--out", "network"),
    ("stability", "--out", "stability"),
    ("verify-concentration", "--reps", "10", "--out", "concentration"),
    ("fit", *FIT, "--L", "2", "--gamma", "20", "--out", "fit_L2"),
    ("network", "--kernels", "fit_L2/kernels.json", "--indegree", "3",
     "--out", "network_L2"),
    ("ingest-cidr", "--prices", "prices.csv", "--out", "cidr"),
    # 12 grid points: a 15-dimensional B-spline basis would be rank deficient
    ("fit", "--panel", "cidr/panel.csv", "--basis-dim", "8", "--q", "3",
     "--eta", "0", "--gamma", "5", "--out", "fit_cidr"),
    ("simulate", "--n", "60", "--p", "6", "--model", "sparse", "--degree", "2",
     "--seed", "2", "--out", "sim_sparse"),
]


def write_prices(path: Path) -> None:
    """30 days x 4 tickers x 12 minutes of random-walk prices as a
    long-format CSV (date, ticker, minute_index, price), each price written
    as its repr."""
    rng = np.random.default_rng(1)
    log_prices = np.log(50.0) + np.cumsum(
        0.01 * rng.standard_normal((30, 4, 12)), axis=2)
    rows = [f"day{t:02d},T{j},{s},{float(np.exp(x))!r}"
            for (t, j, s), x in np.ndenumerate(log_prices)]
    path.write_text("\n".join(["date,ticker,minute_index,price", *rows]) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    write_prices(out / "prices.csv")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "fvar.cli", *command],
                              cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"fvar {' '.join(command)} exited {done.returncode}:\n"
                  f"{done.stderr}", file=sys.stderr)
            return 1
    files = sorted(p for p in out.rglob("*") if p.is_file())
    print(f"{len(files)} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
