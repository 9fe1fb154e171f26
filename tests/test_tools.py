import ast
import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tier1():
    return _tool("tier1")


def test_tier1_reads_failed_and_errored_node_ids():
    # a parametrized id may hold spaces; a collection error names its file
    out = "\n".join([
        "..F.E",
        "=========================== short test summary info "
        "============================",
        "FAILED tests/test_a.py::test_x[twice the gap-1] - AssertionError: "
        "a - b",
        "FAILED tests/test_a.py::test_y",
        "ERROR tests/test_b.py - ImportError: no module",
        "2 failed, 3 passed, 1 error in 0.10s",
    ])
    assert _tier1().failed_tests(out) == {
        "tests/test_a.py::test_x[twice the gap-1]",
        "tests/test_a.py::test_y",
        "tests/test_b.py",
    }


def test_tier1_knows_the_two_failures_by_design():
    assert _tier1().KNOWN_FAILURES == {
        "tests/test_acceptance.py::test_criterion[8]",
        "tests/test_measures.py::test_skew_sandwich_against_qfi",
    }


def test_tier1_counts_source_lines_as_wc_does(tmp_path):
    # wc -l counts newline characters, so a last line without one is not
    # counted; only the package's own .py files are listed, by name
    src = tmp_path / "src" / "coherence_forge"
    (src / "sub").mkdir(parents=True)
    (src / "b.py").write_text("x = 1\ny = 2\n")
    (src / "a.py").write_text("\n" * 10)
    (src / "c.py").write_text("no newline")
    (src / "notes.txt").write_text("\n")
    (src / "sub" / "d.py").write_text("\n")
    assert _tier1().line_counts(tmp_path) == (
        "10 src/coherence_forge/a.py\n"
        " 2 src/coherence_forge/b.py\n"
        " 0 src/coherence_forge/c.py\n"
        "12 total\n")


def test_tier1_runs_pytest_at_one_blas_thread():
    # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so a
    # caller's value of either must not reach the child
    env = _tier1().child_env({"OMP_NUM_THREADS": "4",
                              "OPENBLAS_NUM_THREADS": "2",
                              "PYTHONPATH": "lib"})
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep) == ["src", "lib"]


def test_blocksum_grid_holds_two_grids_of_unique_ids():
    # built without solving: the 519- and the 180-request grid, each id
    # once, none with a space, since the printed line splits on spaces
    requests = _tool("blocksum_grid").requests()
    counts = collections.Counter(grid for grid, _, _ in requests)
    assert counts == {"g519": 519, "g180": 180}
    ids = [(grid, name) for grid, name, _ in requests]
    assert len(set(ids)) == len(ids)
    assert not any(" " in name for _, name in ids)


def test_blocksum_grid_prints_one_line_per_request():
    grid = _tool("blocksum_grid")
    requests = grid.requests()
    for request, head in zip(requests, [
            "g519 lam0.1/plus/n1", "g519 lam0.1/plus/n2",
            "g519 lam0.1/plus/n3"]):
        line = grid.line(*request)
        assert line.startswith(head + " ")
        # repr(astuple(BlockSum)): ten fields, the certificate eighth
        fields = ast.literal_eval(line[len(head) + 1:])
        assert len(fields) == 10 and fields[7] == "schur-chain"
    # a refusal prints its class and message in place of the fields
    refused = [r for r in requests if r[1] == "lam0.1/plus/n1447"][0]
    assert grid.line(*refused) == (
        "g519 lam0.1/plus/n1447 ValidationError: 1447 copies make spin "
        "blocks whose sides sum past the budget of 1024**2")


def test_cli_grid_holds_126_requests_of_unique_ids(tmp_path):
    # 3 states x 6 forms x (measures, 3 dist, 3 convert); the printed
    # line splits on spaces, so no id holds one
    requests = _tool("cli_grid").requests(tmp_path)
    ids = [name for name, _ in requests]
    assert len(ids) == 126 and len(set(ids)) == 126
    assert not any(" " in name for name in ids)
    assert collections.Counter(name.split("/")[0] for name in ids) == {
        "measures": 18, "dist": 54, "convert": 54}


def test_cli_grid_prints_id_exit_code_and_both_streams(tmp_path):
    grid = _tool("cli_grid")
    requests = dict(grid.requests(tmp_path))
    name, code, texts = grid.line(
        "convert/u01/tau2pi/max", requests["convert/u01/tau2pi/max"],
        tmp_path).split(" ", 2)
    assert (name, code) == ("convert/u01/tau2pi/max", "0")
    assert json.loads(texts) == [
        "m,k,tv_error,fidelity_floor\n16,0,0.0,1.0\n64,0,0.0,1.0\n",
        "note: using max rate 1.0\n"]
    # a refusal prints exit 1 and its message, the directory as <dir>
    argv = requests["measures/u01/tau2pi"][:2] + [str(tmp_path / "none")]
    assert grid.line("x", argv + ["--ham", "h"], tmp_path).startswith(
        'x 1 ["", "error: [Errno 2] No such file or directory: '
        "'<dir>/none'")


def test_grid_tools_refuse_to_run_off_one_blas_thread():
    # at two threads some lines print other bits, so a diff across thread
    # counts would report false changes; the tools refuse before any work
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [str(TOOLS.parent / "src"), os.environ.get("PYTHONPATH",
                                                              "")]))
    for name in ("blocksum_grid", "cli_grid"):
        run = subprocess.run([sys.executable, str(TOOLS / f"{name}.py")],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("error: ")
        assert run.stderr.count("\n") == 1
