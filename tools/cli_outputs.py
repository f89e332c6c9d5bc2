"""Write a fixed set of CLI outputs into OUTDIR, for byte-for-byte comparison.

Usage: python tools/cli_outputs.py OUTDIR

Runs nine ``fvar`` commands on the ``desk`` preset, each as a subprocess
with one BLAS thread, from inside OUTDIR and with relative ``--out`` and
input names, so that the manifests do not depend on where OUTDIR is.  The
37 files it writes are the same from one run to the next on one machine,
so a change that should leave every output as it is can be checked with

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
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
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
