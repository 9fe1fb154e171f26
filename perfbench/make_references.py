"""Write references.json: F* and conversion tv as the seed code gives them.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_references.py

The checked-in file was made once, from the commit that added this
benchmark, at one BLAS thread like the benchmark itself.  The n = 4
request stalls there (and at two threads too), so it has no F* reference;
should it ever succeed, its gap and the qubit sandwich still check it.
Do not regenerate the file from a later commit: its point is that later
code is compared with the seed code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from coherence_forge import cli  # noqa: E402


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out.getvalue()


def distill_refs(write) -> dict:
    refs = {}
    cases = [(lam, n) for lam in workloads.DISTILL_GRID
             for n in workloads.DISTILL_CASES]
    cases.append(tuple(reversed(workloads.DISTILL_STALL)))
    for lam, n in cases:
        req = workloads.distill_request("ref", lam, n, 0, write)
        try:
            out = json.loads(_run(req.argv).strip().splitlines()[-1])
        except RuntimeError as exc:
            print(f"distill lam={lam} n={n}: {exc}; no reference",
                  file=sys.stderr)
            continue
        refs[f"{lam}@{n}"] = out["fidelity"]
    return refs


def convert_refs(write) -> dict:
    target = (write("cbit-psi", workloads.wire(np.full(2, 2 ** -0.5))),
              write("cbit-h", workloads.levels_json((0, 1))))
    refs = {}
    for pair, (levels, rate) in workloads.PAIRS.items():
        d = len(levels)
        files = (write(f"{pair}-psi", workloads.wire(np.full(d, d ** -0.5))),
                 write(f"{pair}-h", workloads.levels_json(levels)))
        for factor in workloads.RATE_FACTORS:
            jobs = workloads.CONVERT_JOBS + workloads.CONVERT_ONCE
            copies = sorted({m for p, f, ms in jobs
                             if p == pair and f == factor for m in ms})
            out = _run(["convert", "--in", *files, "--out", *target,
                        "--rate", repr(factor * rate),
                        "--copies", ",".join(map(str, copies))])
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            refs[f"{pair}@{factor}"] = {m: float(tv) for m, _, tv, _ in rows}
    return refs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write = workloads.Writer(tmp)
        refs = {
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__,
            "distill": distill_refs(write),
            "convert": convert_refs(write),
        }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
