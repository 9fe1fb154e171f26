"""Seeded inputs and request lists for the four benchmark workloads.

A request is one ``coherence_forge.cli.main(argv)`` call plus what its
check needs.  Every input is drawn from numpy generators seeded by
(seed, round, workload), written as JSON files, and never depends on the
library: the same seed always gives byte-identical files and argv lists.

A run is ``rounds`` repetitions of the workload's round, each round with
fresh inputs of the same sizes, then its run-once requests, so the work
(and the latency mix) of a run depends only on the workload and
``--seconds``, not on the seed or on how fast the machine is.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import calibration

WORKLOADS = ("spectral", "monotone", "convert", "distill")

# Seconds of one round, measured at one BLAS thread on a 2-CPU x86-64 box
# (numpy 2.4, OpenBLAS 0.3.31).  The run-once requests come on top: 3 to
# 12 s on convert and about 23 s on distill.
NOMINAL_S = {"spectral": 4.0, "monotone": 0.7, "convert": 1.3,
             "distill": 2.7}

# spectral: dimensions of the dense random states; the purify cost grows
# like d**6, so the top two sizes carry most of a round.
SPECTRAL_DIMS = (2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32)
RENYI_ALPHAS = (1.25, 1.5, 1.75, 2.0)

# monotone: measure configurations x chunks per round, trials per chunk.
MONOTONE_CONFIGS = (("F", None), ("P", None), ("W", None),
                    ("renyi", 1.5), ("renyi", 2.0))
MONOTONE_CHUNKS = 4
MONOTONE_TRIALS = 25

# convert: the two conversion pairs of acceptance criterion 8, with their
# exact max rates V1/V2 (cbit variance 1/4, u023 variance 14/9).
PAIRS = {"cbit": ((0, 1), 1.0), "u023": ((0, 2, 3), 56.0 / 9.0)}
RATE_FACTORS = (0.9, 1.1)
CONVERT_JOBS = tuple(
    [(pair, f, copies) for pair in ("cbit", "u023") for f in RATE_FACTORS
     for copies in ((16, 64, 256), (1024,))]
    + [("cbit", 0.9, (4096,)), ("cbit", 1.1, (4096,))])
# u023 -> cbit at 4096 copies: about 35k candidate shifts in best_shift,
# several seconds, so it runs once per run rather than every round.
CONVERT_ONCE = (("u023", 0.9, (4096,)),)
# dist requests all take the same copy count, so that the run's median
# latency falls inside one homogeneous class of requests.
DIST_LEVELS_MAX = 5
DIST_COPIES = 256
DIST_PER_ROUND = 20

# distill: qubit family rho(lam) = lam |+><+| + (1 - lam) I/2.  The grid
# leaves out the lam whose n <= 3 gap lands within 25% of the 1e-7 budget
# at one BLAS thread (0.5 and 0.75 and up), so that no n <= 3 verdict
# hinges on the CPU's rounding; the n = 4, lam = 0.6 request is the known
# stall and runs once in every run.
DISTILL_GRID = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.55, 0.6,
                0.65, 0.7)
# lam per copy count, the same in every round and run: n = 3 solves take
# 0.45 to 0.6 s depending on lam, so drawing them would make a round's work
# depend on the seed.
DISTILL_CASES = {1: DISTILL_GRID, 2: DISTILL_GRID, 3: (0.2, 0.35, 0.55, 0.7)}
DISTILL_STALL = (4, 0.6)

TWO_PI = 2.0 * math.pi


@dataclass
class Request:
    id: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that, with the calibration slices between requests, fill
    about ``seconds`` on the reference box."""
    slice_s = sum(calibration.PART_REF_S.values())
    per_round = NOMINAL_S[workload] * (1 + slice_s / calibration.EVERY_S)
    return max(1, int(seconds // per_round))


class Writer:
    """Writes JSON inputs into one directory under sequential names.  An
    input equal to one already written reuses that file: creating hundreds
    of small files is the slowest and least steady part of set-up."""

    def __init__(self, directory: str):
        self.directory = directory
        self.written = {}
        os.makedirs(directory, exist_ok=True)

    def __call__(self, stem: str, obj) -> str:
        text = json.dumps(obj)
        path = self.written.get(text)
        if path is None:
            path = os.path.join(self.directory,
                                f"{len(self.written):05d}-{stem}.json")
            with open(path, "w") as fh:
                fh.write(text)
            self.written[text] = path
        return path


def wire(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(),
            "im": a.imag.tolist()}


def levels_json(levels, basis=None) -> dict:
    obj = {"levels_in_2pi_over_tau": [int(n) for n in levels], "tau": TWO_PI}
    if basis is not None:
        obj["basis"] = wire(basis)
    return obj


def _gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_state(d: int, rng) -> np.ndarray:
    """Full-rank density matrix with eigenvalues at least 0.1/d."""
    G = _gaussian(rng, (d, d))
    W = G @ G.conj().T
    M = 0.9 * W / np.trace(W).real + 0.1 * np.eye(d) / d
    M = 0.5 * (M + M.conj().T)
    return M / np.trace(M).real


def _random_hamiltonian(d: int, rng) -> np.ndarray:
    G = _gaussian(rng, (d, d))
    return 0.5 * (G + G.conj().T)


def _random_unitary(d: int, rng) -> np.ndarray:
    Q, R = np.linalg.qr(_gaussian(rng, (d, d)))
    diag = np.diagonal(R)
    return Q * (diag / np.abs(diag)).conj()[None, :]


def _level_state(probs, basis, rng) -> np.ndarray:
    """Pure state with the given level populations and random phases."""
    phases = np.exp(2j * math.pi * rng.random(len(probs)))
    return basis @ (np.sqrt(np.asarray(probs, dtype=float)) * phases)


def _phased_plus(turns: int) -> np.ndarray:
    """|0> + i**turns |1>, normalized; quarter turns keep the entries exact."""
    return np.array([1.0, 1j ** turns]) / math.sqrt(2.0)


def _qubit_state(lam: float, turns: int) -> np.ndarray:
    v = _phased_plus(turns)
    return lam * np.outer(v, v.conj()) + (1.0 - lam) * np.eye(2) / 2.0


# ---------------------------------------------------------------------------
# workloads: each returns (requests run once, at the start; round maker)


def _spectral(run_rng, write):
    def round_(rid, r, rng):
        reqs = []
        for d in SPECTRAL_DIMS:
            rho = _random_state(d, rng)
            H = _random_hamiltonian(d, rng)
            alpha = float(rng.choice(RENYI_ALPHAS))
            st = write(f"rho{d}", wire(rho))
            h = write(f"h{d}", wire(H))
            data = {"rho": rho, "H": H}
            reqs.append(Request(f"{rid}-measures-d{d}",
                                ["measures", "--state", st, "--ham", h,
                                 "--alpha", repr(alpha)],
                                dict(data, alpha=alpha)))
            reqs.append(Request(f"{rid}-purify-d{d}",
                                ["purify", "--state", st, "--ham", h,
                                 "--ensemble"], data))
        return reqs
    return [], round_


def _proptest(rid, measure, alpha, trials, seed) -> Request:
    argv = ["proptest", "--measure", measure, "--trials", str(trials),
            "--seed", str(seed)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    return Request(f"{rid}-proptest-{measure}{alpha or ''}-{seed}", argv,
                   {"measure": measure, "alpha": alpha, "trials": trials,
                    "seed": seed})


def _monotone(run_rng, write):
    def round_(rid, r, rng):
        # one block of 10**6 seeds per round keeps every chunk seed distinct
        base = r * 10**6 + int(rng.integers(0, 10**6 - 100))
        return [_proptest(rid, measure, alpha, MONOTONE_TRIALS,
                          base + chunk * len(MONOTONE_CONFIGS) + j)
                for chunk in range(MONOTONE_CHUNKS)
                for j, (measure, alpha) in enumerate(MONOTONE_CONFIGS)]
    return [], round_


def _pair_files(pair: str, rng, write):
    levels, _ = PAIRS[pair]
    d = len(levels)
    B = _random_unitary(d, rng)
    psi = _level_state(np.full(d, 1.0 / d), B, rng)
    return write(f"{pair}-psi", wire(psi)), write(f"{pair}-h",
                                                   levels_json(levels, B))


def _convert_request(rid, pair, factor, copies, files) -> Request:
    spec = ",".join(str(m) for m in copies)
    return Request(
        f"{rid}-convert-{pair}-{factor}-{spec}",
        ["convert", "--in", *files[pair], "--out", *files["target"],
         "--rate", repr(factor * PAIRS[pair][1]), "--copies", spec],
        {"pair": pair, "factor": factor, "copies": list(copies)})


def _convert_files(rng, write) -> dict:
    files = {pair: _pair_files(pair, rng, write) for pair in PAIRS}
    files["target"] = _pair_files("cbit", rng, write)
    return files


def _dist_hamiltonian(rng, write):
    """(levels, basis, file) of a levels-form Hamiltonian for dist requests."""
    inner = sorted(int(n) for n in rng.choice(np.arange(1, DIST_LEVELS_MAX),
                                              size=2, replace=False))
    levels = [0] + inner + [DIST_LEVELS_MAX]
    B = _random_unitary(len(levels), rng)
    return levels, B, write("dist-h", levels_json(levels, B))


def _dist_request(rid: str, copies: int, ham, rng, write) -> Request:
    levels, B, h = ham
    probs = 0.1 + 0.6 * rng.dirichlet(np.ones(len(levels)))
    probs = probs / probs.sum()
    psi = _level_state(probs, B, rng)
    st = write("dist-psi", wire(psi))
    per_copy = np.zeros(DIST_LEVELS_MAX + 1)
    per_copy[levels] = probs
    return Request(f"{rid}-dist-m{copies}",
                   ["dist", "--state", st, "--ham", h,
                    "--copies", str(copies)],
                   {"per_copy": per_copy, "copies": copies})


def _convert(run_rng, write):
    files = _convert_files(run_rng, write)
    once = [_convert_request("once", *job, files) for job in CONVERT_ONCE]

    def round_(rid, r, rng):
        files = _convert_files(rng, write)
        # one Hamiltonian per round, so that set-up writes fewer files
        ham = _dist_hamiltonian(rng, write)
        return ([_convert_request(rid, *job, files) for job in CONVERT_JOBS]
                + [_dist_request(f"{rid}-{i}", DIST_COPIES, ham, rng, write)
                   for i in range(DIST_PER_ROUND)])
    return once, round_


def distill_request(rid: str, lam: float, n: int, turns: int,
                    write) -> Request:
    """n copies of rho(lam) rotated by a quarter-turn phase, with the
    equally rotated |+> as target.  The rotation is a time translation, so
    F* depends on (lam, n) only; a quarter turn also keeps the solver's
    arithmetic, and so its work, the same for every seed."""
    h = write("qubit-h", levels_json((0, 1)))
    return Request(f"{rid}-distill-n{n}-lam{lam}",
                   ["distill", "--in", write(f"qubit{lam}",
                                             wire(_qubit_state(lam, turns))),
                    h, "--target", write("target", wire(_phased_plus(turns))),
                    h, "--copies", str(n)],
                   {"lam": lam, "n": n})


def _distill(run_rng, write):
    # the known stall, with the same input in every run
    n, lam = DISTILL_STALL
    once = [distill_request("once", lam, n, 0, write)]
    cases = [(lam, n) for n, lams in DISTILL_CASES.items() for lam in lams]

    def round_(rid, r, rng):
        return [distill_request(rid, lam, n, int(rng.integers(4)), write)
                for lam, n in cases]
    return once, round_


_BUILDERS = {"spectral": _spectral, "monotone": _monotone,
             "convert": _convert, "distill": _distill}
_STREAM = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def build_rounds(workload: str, seed: int, rounds: int, directory: str):
    """Write the inputs of a run; return (run-once requests, request lists
    of the rounds)."""
    write = Writer(directory)
    once, round_ = _BUILDERS[workload](
        np.random.default_rng([seed, _STREAM[workload]]), write)
    return once, [round_(f"r{r}", r,
                         np.random.default_rng([seed, r, _STREAM[workload]]))
                  for r in range(rounds)]


def warmup_request(workload: str, seed: int, directory: str) -> Request:
    """One small request of the workload's kind, run untimed in set-up."""
    write = Writer(os.path.join(directory, "warmup"))
    rng = np.random.default_rng([seed, 0, 0])
    if workload == "spectral":
        return _spectral(rng, write)[1]("warmup", 0, rng)[0]
    if workload == "monotone":
        return _proptest("warmup", "F", None, 2, 0)
    if workload == "convert":
        return _dist_request("warmup", DIST_COPIES,
                             _dist_hamiltonian(rng, write), rng, write)
    return distill_request("warmup", DISTILL_GRID[0], 1, 0, write)
