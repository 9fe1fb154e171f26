"""Print the BlockSum of every request of two fixed grids, one line each.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 tools/blocksum_grid.py > grid.txt

Each line is ``<grid> <id> <repr(astuple(BlockSum))>`` for a request that
iid_fidelity answers, or ``<grid> <id> <Class>: <message>`` for one it
refuses with a CoherenceForgeError.  Warnings are errors.  Run it on two
checkouts (PYTHONPATH=<checkout>/src) and ``diff`` the outputs: an empty
diff shows that every field of every BlockSum kept its bits and every
refusal its class and message.  A pass takes a few minutes.  main()
exits 2 unless OMP_NUM_THREADS and OPENBLAS_NUM_THREADS are both 1: at
two BLAS threads g180's rand3s*-012/plus/n3 lines print another gap and
min_slack, so a diff across thread counts shows changes that are not.

The grids:

* ``g519``: the 12 QUBIT_SOURCES under diag(0, 1), each into the 4
  QUBIT_TARGETS under diag(0, 1) at n in 1, 2, 3, 4, 5, 10, 30, 100, 181,
  200, and into |+> at n in 1000, 1446, 1447; then one copy of
  random_density(4, s) under diag(0, 1, 2, 3) into |+> for s in 91, 93, 94.
* ``g180``: lam |+><+| + (1 - lam) I/2 for lam in 0.3, 0.6, 0.9 under
  diag(0, 1) into (sqrt(w0), sqrt(1 - w0)) under diag(0, 1) for w0 in 0.6,
  0.8, 0.95, into |+> under diag(0, 2) and into the uniform state under
  diag(0, 1, 2), at n in 1, 2, 3, 5, 10, 30, 50, 100, 181; then
  random_density(3, s) under diag(0, 1, 2) and diag(0, 1, 3), and
  random_density(4, s) under diag(0, 1, 2, 3), for s = 1..5, into |+> at
  n in 1, 2, 3.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import astuple

import numpy as np

from coherence_forge.distill import iid_fidelity
from coherence_forge.errors import CoherenceForgeError
from coherence_forge.linalg import random_density

PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
H01 = np.diag([0.0, 1.0])


def _mixed(lam: float) -> np.ndarray:
    """lam |+><+| + (1 - lam) I/2."""
    return lam * np.outer(PLUS, PLUS) + (1 - lam) * np.eye(2) / 2


def _split(w0: float) -> np.ndarray:
    """(sqrt(w0), sqrt(1 - w0))."""
    return np.array([math.sqrt(w0), math.sqrt(1 - w0)])


QUBIT_SOURCES = (
    [(f"lam{lam}", _mixed(lam)) for lam in (0.1, 0.3, 0.6, 0.9, 0.99, 1)]
    + [(f"rand2s{s}", random_density(2, s)) for s in (1, 2, 3)]
    + [("pure0.8,0.6i", np.outer([0.8, 0.6j], np.conj([0.8, 0.6j]))),
       ("half", np.eye(2) / 2),
       ("real-pure", np.array([[0.9, 0.3], [0.3, 0.1]]))])
QUBIT_TARGETS = [("plus", PLUS)] + [(f"w{w0}", _split(w0))
                                    for w0 in (0.6, 0.8, 0.95)]


def requests() -> list:
    """(grid, id, (sigma, H, psi_B, H_B, copies)) for every request, in
    printed order."""
    out = [("g519", f"{name}/{target}/n{n}", (sigma, H01, psi, H01, n))
           for name, sigma in QUBIT_SOURCES
           for target, psi in QUBIT_TARGETS
           for n in (1, 2, 3, 4, 5, 10, 30, 100, 181, 200)]
    out += [("g519", f"{name}/plus/n{n}", (sigma, H01, PLUS, H01, n))
            for name, sigma in QUBIT_SOURCES for n in (1000, 1446, 1447)]
    out += [("g519", f"rand4s{s}/plus/n1",
             (random_density(4, s), np.diag([0.0, 1.0, 2.0, 3.0]), PLUS,
              H01, 1)) for s in (91, 93, 94)]
    targets = [(f"w{w0}", _split(w0), H01) for w0 in (0.6, 0.8, 0.95)]
    targets += [("plus-02", PLUS, np.diag([0.0, 2.0])),
                ("uniform3", np.ones(3) / math.sqrt(3),
                 np.diag([0.0, 1.0, 2.0]))]
    out += [("g180", f"lam{lam}/{target}/n{n}",
             (_mixed(lam), H01, psi, H_B, n))
            for lam in (0.3, 0.6, 0.9) for target, psi, H_B in targets
            for n in (1, 2, 3, 5, 10, 30, 50, 100, 181)]
    qudits = [(3, "012", [0, 1, 2]), (3, "013", [0, 1, 3]),
              (4, "0123", [0, 1, 2, 3])]
    out += [("g180", f"rand{d}s{s}-{name}/plus/n{n}",
             (random_density(d, s), np.diag(np.array(levels, dtype=float)),
              PLUS, H01, n))
            for d, name, levels in qudits for s in range(1, 6)
            for n in (1, 2, 3)]
    return out


def line(grid: str, name: str, args: tuple) -> str:
    """The printed line of one request."""
    try:
        result = repr(astuple(iid_fidelity(*args)))
    except CoherenceForgeError as err:
        result = f"{type(err).__name__}: {err}"
    return f"{grid} {name} {result}"


def main() -> int:
    if not (os.environ.get("OMP_NUM_THREADS")
            == os.environ.get("OPENBLAS_NUM_THREADS") == "1"):
        print("error: set OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1",
              file=sys.stderr)
        return 2
    warnings.simplefilter("error")
    for grid, name, args in requests():
        print(line(grid, name, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
