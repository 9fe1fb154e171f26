import filecmp
import json
import os
import subprocess
import sys

import pytest

import workloads
import worker

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cheap(req):
    """Requests that finish in a few milliseconds."""
    argv = req.argv
    if req.kind in ("measures", "purify"):
        return req.expect["rho"].shape[0] <= 8
    if req.kind in ("convert", "dist"):
        return max(int(m) for m in argv[argv.index("--copies") + 1].split(",")) <= 256
    if req.kind == "distill":
        return req.expect["n"] <= 2
    return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload, tmp_path):
    once, rounds = workloads.build_rounds(workload, 11, 1, str(tmp_path))
    reqs = [r for r in rounds[0] if _cheap(r)][:6]
    assert reqs
    summary = worker.summarize(worker.run_list(reqs))
    assert summary["failed"] == 0, summary["failures"]


def test_same_seed_gives_identical_inputs(tmp_path):
    def build(seed, d):
        once, rounds = workloads.build_rounds("convert", seed, 2, str(d))
        return [[a.replace(str(d), "") for a in r.argv]
                for r in once + [r for rnd in rounds for r in rnd]]

    a = build(5, tmp_path / "a")
    assert a == build(5, tmp_path / "b")
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert cmp.left_list and not cmp.diff_files and not cmp.left_only
    assert a == build(6, tmp_path / "c")
    assert filecmp.dircmp(tmp_path / "a", tmp_path / "c").diff_files


def test_monotone_chunk_seeds_are_distinct(tmp_path):
    rounds = workloads.build_rounds("monotone", 2, 6, str(tmp_path))[1]
    seeds = [r.expect["seed"] for rnd in rounds for r in rnd]
    assert len(set(seeds)) == len(seeds)


def test_bad_requests_count_as_failures_without_crashing(tmp_path):
    good = workloads.build_rounds("spectral", 1, 1, str(tmp_path))[1][0][0]
    missing = workloads.Request("missing", ["measures", "--state",
                                            str(tmp_path / "nope.json"),
                                            "--ham", good.argv[4]])
    bad_args = workloads.Request("bad-args", ["measures", "--bogus"])
    wrong = workloads.Request("wrong", good.argv,
                              dict(good.expect, H=2.0 * good.expect["H"]))
    outcomes = worker.run_list([good, missing, bad_args, wrong])
    summary = worker.summarize(outcomes)
    assert summary["attempted"] == 4
    assert summary["failed"] == 3
    assert summary["wrong"] == 1
    assert [o.failed for o in outcomes] == [False, True, True, True]


def test_tail_is_the_eleventh_largest():
    value, pct, beyond = worker.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert worker.tail([3.0, 1.0])[0] == 1.0


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_without_sources(tmp_path):
    subprocess.run(["cp", "-r", BENCH, str(tmp_path / "perfbench")], check=True)
    proc = _run_bench(tmp_path, "--workload", "monotone", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_end_to_end_result_line(trace):
    proc = _run_bench(os.path.dirname(BENCH), "--workload", "monotone",
                      "--seed", "4", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    info = json.loads(info_line)["info"]
    assert info["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace == "0":
        assert info["req_p50_ms"]["unit"] == info["req_tail_ms"]["unit"] == "ms"
    else:
        assert "trace_overhead_s" in info
