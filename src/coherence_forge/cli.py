"""Batch command line front end.

Exit codes: 0 success, 1 input error (bad files, schemas, or values),
2 contract violation (a checked numerical guarantee did not hold).
Randomized subcommands default their seed to the COHERENCE_FORGE_SEED
environment variable (1234 if unset); --seed wins over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import channels, clockdist, convert, distill, measures, purification
from .config import DEFAULT
from .errors import (
    CertificateError,
    CoherenceForgeError,
    GcdNotOneError,
    SchemaError,
    SearchExhaustedError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    MAX_ENTRY,
    HermitianObservable,
    PureState,
    array_from_json,
    array_to_json,
    density_matrix,
    observable,
    pure_state,
)


def default_seed() -> int:
    raw = os.environ.get("COHERENCE_FORGE_SEED", "1234")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError("COHERENCE_FORGE_SEED must be an integer, "
                              f"got {raw!r}") from None


def _read_json(path: str):
    """The JSON value in the UTF-8 file at path.  A file that is not
    UTF-8, not JSON or nested too deeply for the parser raises
    SchemaError; one that cannot be opened, OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"{path}: {exc}") from None


def load_state(path: str):
    """Read a JSON state: a 1-D array is a pure state, 2-D a density
    matrix."""
    arr = array_from_json(_read_json(path))
    if arr.ndim == 1:
        return pure_state(arr)
    return density_matrix(arr)


def load_hamiltonian(path: str, tau: float | None = None):
    """Read a Hamiltonian file.

    Two schemas are accepted: a dense matrix {dim, re, im}, eigensolved
    once by observable, or the exact commensurate form
    {"levels_in_2pi_over_tau": [ints], "basis": matrix, "tau": t}, never
    eigensolved: H = basis diag(2*pi*n/tau) basis^dag has the spectrum
    2*pi*n/tau exactly, in stable ascending order of n, and the basis
    columns (unitary within cptp; the identity by default) in that order
    as its eigenbasis.  Returns (observable, tau, dense_fallback); dense
    inputs leave grid snapping to the downstream operation.
    """
    obj = _read_json(path)
    if isinstance(obj, dict) and "levels_in_2pi_over_tau" in obj:
        levels = obj["levels_in_2pi_over_tau"]
        # 2**53 bounds the integers a float holds exactly; it also turns
        # away inf and nan before int() sees them.  A JSON true or false
        # is a bool, which Python counts as an int, so it is refused by name
        if not isinstance(levels, list) or not all(
                isinstance(n, (int, float)) and not isinstance(n, bool)
                and abs(n) <= 2**53 and n == int(n) for n in levels):
            raise SchemaError("levels_in_2pi_over_tau must be integers "
                              "of magnitude at most 2**53")
        t = obj.get("tau", tau if tau is not None else 2.0 * math.pi)
        # float() would also take true and "6.28"; neither is a number
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise SchemaError(f"tau must be a number, got {t!r}")
        try:
            t = float(t)
        except OverflowError as exc:
            raise SchemaError(f"tau must be a number: {exc}") from exc
        clockdist.check_tau(t)
        unit = 2.0 * math.pi / t
        energies = [unit * int(n) for n in levels]
        # checked before the basis product, where inf * 0 would warn
        if not all(abs(e) <= MAX_ENTRY for e in energies):
            raise ValidationError(f"tau = {t!r} puts an energy 2*pi*n/tau "
                                  f"above MAX_ENTRY = {MAX_ENTRY:g}")
        H = np.diag(energies).astype(complex)
        B = np.eye(len(levels), dtype=complex)
        if "basis" in obj:
            B = array_from_json(obj["basis"])
            if B.ndim != 2 or B.shape[0] != len(levels):
                raise SchemaError("basis shape does not match levels")
            # B is the one Kraus operator of its unitary channel; an entry
            # past 2 (or not finite) is refused before the product overflows
            if not (np.abs(B).max(initial=0.0) <= 2.0 and np.max(np.abs(
                    B @ B.conj().T - np.eye(len(levels)))) <= DEFAULT.cptp):
                raise ValidationError("basis is not unitary")
            H = B @ H @ B.conj().T
        order = np.argsort(levels, kind="stable")
        ob = HermitianObservable(H, np.array(energies)[order], B[:, order])
        return ob, t, False
    arr = array_from_json(obj)
    if arr.ndim != 2:
        raise SchemaError("Hamiltonian matrix must be 2-D")
    return observable(arr), (tau if tau is not None else 2.0 * math.pi), True


def _dense_warning(dense: bool, what: str, grid: str) -> None:
    if dense:
        print(f"note: dense Hamiltonian for {what}; eigenvalues are "
              f"snapped to {grid} (level_rel tolerance)", file=sys.stderr)


def _pure_vec(state, what: str) -> np.ndarray:
    if isinstance(state, PureState):
        return state.vector
    raise ValidationError(f"{what} must be a pure state (1-D JSON array)")


def _emit(obj) -> None:
    print(json.dumps(obj))


def _mv(value: float) -> float | str:
    return "inf" if value == math.inf else value


def cmd_measures(args) -> int:
    st = load_state(args.state)
    H, tau, dense = load_hamiltonian(args.ham)
    pure = isinstance(st, PureState)
    # one cached spectrum serves every measure; the vector keeps the variance
    rho = density_matrix(st)
    out = {
        "F": measures.qfi(rho, H),
        "P": _mv(measures.purity_of_coherence(rho, H)),
        "W": measures.skew_information(rho, H),
        "variance_if_pure": measures.energy_variance(st, H) if pure else None,
        # in units of the reference qubit that the levels form's tau fixes
        "cost": None if dense else convert.coherence_cost(rho, H, tau),
        "support_commutes": measures.support_commutes(rho, H),
    }
    if args.alpha is not None:
        out["renyi"] = _mv(measures.renyi_purity_monotone(rho, H, args.alpha))
        out["renyi_alpha"] = args.alpha
    _emit(out)
    return 0


def cmd_purify(args) -> int:
    st = load_state(args.state)
    H, _, _ = load_hamiltonian(args.ham)
    # one cached spectrum serves the builder and the QFI
    rho = density_matrix(st)
    pur = purification.build_optimal_purification(rho, H)
    out = {
        "aux_hamiltonian": array_to_json(pur.aux_hamiltonian.matrix),
        "total_variance": pur.total_variance,
        "qfi_over_4": measures.qfi(rho, H) / 4.0,
        "kkt_residual": purification.kkt_residual(pur, H),
    }
    if args.ensemble:
        ens = purification.optimal_ensemble(pur, H)
        out["ensemble"] = [
            {"weight": float(w), "state": array_to_json(member)}
            for w, member in zip(ens.weights, ens.members.T)
        ]
    _emit(out)
    return 0


def cmd_dist(args) -> int:
    # --tau is checked before any file is read, whether or not the files
    # leave it anything to set
    if args.tau is not None:
        clockdist.check_tau(args.tau)
    st = load_state(args.state)
    H, tau, dense = load_hamiltonian(args.ham, args.tau)
    _dense_warning(dense, "clock distribution extraction",
                   "the 2*pi/tau grid")
    vec = _pure_vec(st, "--state")
    clock = clockdist.extract_distribution(vec, H, tau)
    p_m = clockdist.convolve_n(clock.distribution, args.copies)
    try:
        L = clockdist.overlap_copy_count(clock.distribution)
    except GcdNotOneError:
        L = "GcdNotOne"
    except SearchExhaustedError:
        L = "SearchExhausted"
    summary = {
        "period": clock.period,
        "L": L,
        "tv_to_tp": clockdist.tp_distance(clock.distribution, args.copies,
                                           p_m),
        "barbour_bound": _mv(clockdist.barbour_bound(clock.distribution,
                                                     args.copies)),
    }
    # the summary is built first, so an error never leaves half a table
    print("n,p")
    sys.stdout.writelines(f"{n},{p!r}\n"
                          for n, p in enumerate(p_m.probs.tolist(),
                                                p_m.offset))
    _emit(summary)
    return 0


def cmd_convert(args) -> int:
    if args.tau is not None:
        clockdist.check_tau(args.tau)
    s1 = load_state(args.infiles[0])
    H1, _, dense1 = load_hamiltonian(args.infiles[1], args.tau)
    s2 = load_state(args.outfiles[0])
    H2, _, dense2 = load_hamiltonian(args.outfiles[1], args.tau)
    _dense_warning(dense1 or dense2, "conversion planning",
                   "the grid of the pair's common period")
    v1, v2 = _pure_vec(s1, "--in"), _pure_vec(s2, "--out")
    try:
        copies = [int(tok) for tok in args.copies.split(",") if tok]
    except ValueError:
        copies = None
    if not copies:
        raise ValidationError("--copies must be comma-separated integers, "
                              f"got {args.copies!r}")
    c1, c2 = convert.intrinsic_clock(v1, H1), convert.intrinsic_clock(v2, H2)
    rate = args.rate
    if rate is None:
        rate = convert.max_rate(c1, c2)
        print(f"note: using max rate {rate!r}", file=sys.stderr)
    plans = convert.iid_sweep(c1, c2, rate, copies)
    print("m,k,tv_error,fidelity_floor")
    for plan in plans:
        print(f"{plan.copies_in},{plan.shift_k},{plan.tv_error!r},"
              f"{plan.fidelity_lower_bound!r}")
    return 0


def cmd_distill(args) -> int:
    st = load_state(args.infiles[0])
    # levels are grouped at gap_cutoff and never snapped, so a dense
    # file needs no note
    H, _, _ = load_hamiltonian(args.infiles[1])
    tgt = load_state(args.target[0])
    Ht, _, _ = load_hamiltonian(args.target[1])
    _pure_vec(tgt, "--target")  # so a mixed target's error names --target
    out = dataclasses.asdict(distill.iid_fidelity(st, H, tgt, Ht,
                                                  args.copies))
    fid = out.pop("fidelity")
    _emit({"fidelity": fid, "hmin": max(0.0, -math.log2(fid)), **out})
    return 0


def cmd_qubit_bound(args) -> int:
    # checks --lambda and --n, so bad ones leave stdout empty; after it
    # each row is printed as it is computed
    distill.qubit_infidelity_bound(args.lam, args.n)
    print("n,exact,asymptotic,cirac")
    for n in range(1, args.n + 1):
        exact, asym = distill.qubit_infidelity_bound(args.lam, n)
        ach = distill.cirac_comparison(args.lam, n)
        print(f"{n},{exact!r},{asym!r},{ach!r}")
    return 0


def cmd_proptest(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    rep = channels.monotonicity_suite(args.measure, trials=args.trials,
                                      seed=seed, alpha=args.alpha)
    _emit({"suite": "monotonicity", **dataclasses.asdict(rep)})
    return 0 if rep.violations == 0 else 2


def cmd_accept(args) -> int:
    # imported here, so that no other subcommand pays for compiling it
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        print(acceptance.format_result(r))
    return 0 if all(r.passed for r in results) else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each parse returns a
    fresh namespace, so one call's options never reach the next."""
    parser = argparse.ArgumentParser(
        prog="coherence-forge",
        description="Coherence and asymmetry toolkit: measures, optimal "
                    "purifications, clock distributions, conversion rates, "
                    "and distillation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="coherence measures of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--ham", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="also report the Renyi monotone at this order")

    p = sub.add_parser("purify", help="variance-optimal purification")
    p.add_argument("--state", required=True)
    p.add_argument("--ham", required=True)
    p.add_argument("--ensemble", action="store_true",
                   help="also emit the optimal pure-state ensemble")

    p = sub.add_parser("dist", help="clock energy distribution of copies")
    p.add_argument("--state", required=True)
    p.add_argument("--ham", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--copies", type=int, default=1)

    p = sub.add_parser("convert", help="iid conversion error sweep")
    p.add_argument("--in", dest="infiles", nargs=2, required=True,
                   metavar=("STATE", "HAM"))
    p.add_argument("--out", dest="outfiles", nargs=2, required=True,
                   metavar=("STATE", "HAM"))
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--copies", default="16,64,256")

    p = sub.add_parser("distill", help="single-shot distillation fidelity")
    p.add_argument("--in", dest="infiles", nargs=2, required=True,
                   metavar=("STATE", "HAM"))
    p.add_argument("--target", nargs=2, required=True,
                   metavar=("STATE", "HAM"))
    p.add_argument("--copies", type=int, default=1)

    p = sub.add_parser("qubit-bound", help="qubit infidelity bound table")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, default=20)

    p = sub.add_parser("proptest", help="randomized monotonicity suite")
    p.add_argument("--measure", choices=["F", "P", "W", "renyi", "cost"],
                   default="F")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)

    sub.add_parser("accept", help="run the acceptance suite")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, not stored in the cached parser, so that a
    # cmd_* replaced after the first call (a tracing wrapper) is the one run
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return cmd(args)
    except (SolverStallError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoherenceForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
