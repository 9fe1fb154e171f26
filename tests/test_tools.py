import importlib.util
import os
from pathlib import Path

TIER1 = Path(__file__).resolve().parents[1] / "tools" / "tier1.py"


def _tier1():
    spec = importlib.util.spec_from_file_location("tier1", TIER1)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
