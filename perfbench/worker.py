"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py with the BLAS thread count pinned in its environment.
``--mode setup`` stops after set-up (import, input generation, one
untimed warm-up request) and reports only its duration; ``--mode run``
then sends the request list through ``coherence_forge.cli.main`` as a
closed loop with one client, timing slices of the calibration kernel
between requests, and reports round times scaled by the host's speed,
latencies, failures and peak memory; ``--mode trace`` runs every round
untraced and traced and reports the per-layer figures instead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from coherence_forge import cli  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10        # requests that must lie beyond the tail percentile
MAX_LISTED_FAILURES = 8
DEADLINE_FACTOR = 1.25  # no new round after this many times --seconds


class Outcome:
    """Latency and verdict of one request."""

    __slots__ = ("id", "latency", "error", "wrong")

    def __init__(self, req_id, latency, error, wrong):
        self.id = req_id
        self.latency = latency
        self.error = error
        self.wrong = wrong

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None

    def reason(self) -> str:
        return self.wrong or self.error


def run_request(req) -> Outcome:
    """Call cli.main(req.argv) with stdout and stderr captured, then check
    what it printed.  Never raises for a failing request."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:       # argparse rejects bad arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:        # a crash counts as a failed request
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = time.perf_counter() - t0
    printed = out.getvalue()
    wrong = checks.check(req, printed) if error is None and printed.strip() else None
    if error is None and code != 0:
        last = err.getvalue().strip().splitlines()
        error = f"exit code {code}" + (f": {last[-1]}" if last else "")
    return Outcome(req.id, latency, error, wrong)


def run_list(reqs, tracer=None) -> list:
    if tracer is None:
        return [run_request(r) for r in reqs]
    outcomes = []
    for r in reqs:
        with tracer.request(r.id):
            outcomes.append(run_request(r))
    return outcomes


def tail(latencies):
    """(value, percentile, requests beyond it) at the highest percentile
    with at least TAIL_BEYOND requests beyond it."""
    xs = sorted(latencies)
    idx = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def summarize(outcomes) -> dict:
    failed = [o for o in outcomes if o.failed]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(o.wrong is not None for o in outcomes),
        "failures": [f"{o.id}: {o.reason()}"
                     for o in failed[:MAX_LISTED_FAILURES]],
    }


def environment(args) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    inputs = os.path.join(args.workdir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        once, rounds = workloads.build_rounds(
            args.workload, args.seed,
            workloads.rounds_for(args.workload, args.seconds), inputs)
        warm = run_request(workloads.warmup_request(args.workload, args.seed,
                                                    inputs))
        setup_s = time.perf_counter() - _T0
        result = {"setup_s": setup_s,
                  "warmup": "ok" if not warm.failed else warm.reason()}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        result["env"] = environment(args)
        result["rounds"] = len(rounds)
        if args.mode == "run":
            result.update(_measure(once, rounds, args))
        else:
            result.update(_trace(once, rounds, args))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(once, rounds, args) -> dict:
    """The rounds, with a calibration slice before the first request and
    after every ``calibration.EVERY_S`` of request time; then the run-once
    requests, which are checked and counted but kept out of the timing.
    Rounds stop early only on a host far slower than the reference box."""
    kernel = calibration.Kernel()
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    outcomes, round_s, slices = [], [], []
    since_slice = calibration.EVERY_S
    for rnd in rounds:
        if round_s and time.perf_counter() > deadline:
            break
        part = []
        for req in rnd:
            if since_slice >= calibration.EVERY_S:
                slices.append(kernel.slice())
                since_slice = 0.0
            part.append(run_request(req))
            since_slice += part[-1].latency
        round_s.append(sum(o.latency for o in part))
        outcomes += part
    scale = calibration.host_scale(
        slices, calibration.PARTS.get(args.workload, calibration.ALL_PARTS))
    lat = [o.latency for o in outcomes]
    value, pct, beyond = tail(lat)
    once_out = run_list(once)
    out = summarize(outcomes + once_out)
    out.update({
        "wall_norm_s": scale * statistics.median(round_s),
        "host_scale": scale,
        "setup_scale": calibration.host_scale(slices),
        "rounds_run": len(round_s),
        "round_s": round_s,
        "calibration_slices": len(slices),
        "calibration_parts_s": {k: statistics.median(sl[k] for sl in slices)
                                for k in calibration.ALL_PARTS},
        "once_s": sum(o.latency for o in once_out),
        "req_p50_ms": 1e3 * statistics.median(lat),
        "req_tail_ms": 1e3 * value,
        "req_p50_norm_ms": 1e3 * scale * statistics.median(lat),
        "req_tail_norm_ms": 1e3 * scale * value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def _trace(once, rounds, args) -> dict:
    """Every round twice, untraced and traced, alternating which goes
    first so that neither side always meets the colder process; then the
    run-once requests, traced only."""
    tracer = tracing.Tracer()
    outcomes, plain, traced = [], 0.0, 0.0
    for i, rnd in enumerate(rounds):
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer.installed():
                    part = run_list(rnd, tracer)
                traced += sum(o.latency for o in part)
            else:
                part = run_list(rnd)
                plain += sum(o.latency for o in part)
            outcomes += part
    with tracer.installed():
        outcomes += run_list(once, tracer)
    spans_path = os.path.join(args.workdir, f"spans-{args.workload}.jsonl")
    tracer.write_jsonl(spans_path)
    out = summarize(outcomes)
    out.update({
        "layers": tracing.layer_metrics(tracer.spans),
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "trace_overhead_s": traced - plain,
        "spans": len(tracer.spans),
        "spans_file": spans_path,
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
