"""Print what the CLI prints for a fixed grid of requests, one line each.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 tools/cli_grid.py > grid.txt

Each line is ``<id> <exit code> <json [stdout, stderr]>``, with the
temporary directory that holds the request files shown as ``<dir>``.
Every request runs in process through ``cli.main``, with warnings as
errors.  Run it on two checkouts (PYTHONPATH=<checkout>/src) and ``diff``
the outputs: the diff names every request whose output or exit code
moved.  A pass takes about a second.  main() exits 2 unless
OMP_NUM_THREADS and OPENBLAS_NUM_THREADS are both 1, so that two outputs
are never compared across BLAS thread counts.

The grid: three pure states, uniform on the levels {0, 1}, {0, 2, 3} and
{0, 1, 2} of their own Hamiltonians, each in six forms of the Hamiltonian
file: the levels form at tau = 2*pi, 1 and 1e5, the levels moved by 1e8
(tau = 2*pi), the levels in a seeded random ``"basis"`` (the state in that
basis too), and the dense diagonal matrix.  For each state and form it
runs ``measures``, ``dist`` at 1, 16 and 256 copies, and ``convert`` into
|+> on the levels {0, 1} in the same form, with ``--copies 16,64``, at the
default rate and at 0.9 and 1.1 times the exact rate (1, 56/9 and 8/3):
126 requests.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from coherence_forge import cli
from coherence_forge.linalg import array_to_json

# name, levels, exact rate into |+> (the variance over 1/4)
STATES = (("u01", [0, 1], Fraction(1)),
          ("u023", [0, 2, 3], Fraction(56, 9)),
          ("u012", [0, 1, 2], Fraction(8, 3)))
FORMS = ("tau2pi", "tau1", "tau1e5", "shift1e8", "basis", "dense")


def _basis(d: int) -> np.ndarray:
    """A seeded random d x d unitary, the same in every run."""
    g = np.random.default_rng(d)
    return np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))[0]


def _files(root: Path, name: str, levels: list, form: str) -> list:
    """[state file, Hamiltonian file] of the uniform state on levels."""
    d = len(levels)
    vec = np.ones(d) / math.sqrt(d)
    ham = {"levels_in_2pi_over_tau": levels, "tau": 2.0 * math.pi}
    if form == "tau1":
        ham["tau"] = 1.0
    elif form == "tau1e5":
        ham["tau"] = 1e5
    elif form == "shift1e8":
        ham["levels_in_2pi_over_tau"] = [n + 10**8 for n in levels]
    elif form == "basis":
        B = _basis(d)
        ham["basis"] = array_to_json(B)
        vec = B @ vec
    elif form == "dense":
        ham = array_to_json(np.diag(np.array(levels, dtype=float)))
    paths = [root / f"{name}-{form}-state.json", root / f"{name}-{form}.json"]
    for path, obj in zip(paths, (array_to_json(vec), ham)):
        path.write_text(json.dumps(obj))
    return [str(p) for p in paths]


def requests(root: Path) -> list:
    """(id, argv) for every request, in printed order; the request files
    are written to the directory root."""
    out = []
    for form in FORMS:
        plus = _files(root, "plus", [0, 1], form)
        for name, levels, rate in STATES:
            st, ham = _files(root, name, levels, form)
            out.append((f"measures/{name}/{form}",
                        ["measures", "--state", st, "--ham", ham]))
            out += [(f"dist/{name}/{form}/m{m}",
                     ["dist", "--state", st, "--ham", ham, "--copies", str(m)])
                    for m in (1, 16, 256)]
            argv = ["convert", "--in", st, ham, "--out", *plus,
                    "--copies", "16,64"]
            out.append((f"convert/{name}/{form}/max", argv))
            out += [(f"convert/{name}/{form}/x{f}",
                     argv + ["--rate", repr(f * float(rate))])
                    for f in (0.9, 1.1)]
    return out


def line(name: str, argv: list, root: Path) -> str:
    """The printed line of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    texts = [s.getvalue().replace(str(root), "<dir>") for s in (out, err)]
    return f"{name} {code} {json.dumps(texts)}"


def main() -> int:
    if not (os.environ.get("OMP_NUM_THREADS")
            == os.environ.get("OPENBLAS_NUM_THREADS") == "1"):
        print("error: set OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1",
              file=sys.stderr)
        return 2
    warnings.simplefilter("error")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, argv in requests(root):
            print(line(name, argv, root), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
