"""Benchmark entry point for coherence-forge.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each call sets the workload up several
times in fresh worker processes (worker.py) to time set-up, then runs the
workload once in another worker with OPENBLAS/OMP/MKL_NUM_THREADS=1 in
that worker's environment only.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of stdout is the result JSON; the line before it
holds the run's environment and details.  Exits non-zero, printing no
result, when the checkout has no coherence_forge sources or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3        # set-ups per call; the median is reported
TIME_LIMIT_S = 170.0     # whole call, all workers included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}
# Reported in the info line only: the median and the tail fall between
# classes of requests of very different cost, so they jump with the mix.
LATENCY_UNITS = {"req_p50_ms": "ms", "req_tail_ms": "ms",
                 "req_p50_norm_ms": "ms", "req_tail_norm_ms": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("n_max"):
        return "rows"
    if name == "distill.gap_max":
        return "dimensionless"
    if name == "distill.gap_margin":
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", WORKDIR]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(args) -> tuple:
    """(info, result) for one call."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(WORKDIR, exist_ok=True)
    setups = [spawn("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn("trace" if args.trace else "run", args, deadline)
    setups.append(res.pop("setup_s"))
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res.pop("layers").items()}
    else:
        values = {
            "setup_s": res["setup_scale"] * statistics.median(setups),
            "wall_norm_s": res["wall_norm_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        for k, unit in LATENCY_UNITS.items():
            res[k] = {"value": res[k], "unit": unit}
    info = dict(res, setup_samples_s=setups, fail_ratio=failed / attempted)
    result = {"correct": res["wrong"] == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "coherence_forge",
                                       "cli.py")):
        print("error: no coherence_forge sources under src/ in "
              f"{ROOT}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
