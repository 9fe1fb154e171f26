import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from coherence_forge import cli, linalg
from coherence_forge.linalg import (
    array_to_json,
    random_density,
    random_observable,
)

TAU = 2 * math.pi
# the child imports the same coherence_forge the tests do
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(*args, env_extra=None, module="coherence_forge.cli"):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture()
def fixtures(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = 0.6 * np.outer(plus, plus) + 0.4 * np.eye(2) / 2
    u023 = np.zeros(4)
    u023[0] = u023[2] = u023[3] = 1.0 / math.sqrt(3)
    return {
        "rho": dump("rho.json", array_to_json(rho)),
        "cbit": dump("cbit.json", array_to_json(plus)),
        "u023": dump("u023.json", array_to_json(u023)),
        "h2": dump("h2.json", {"levels_in_2pi_over_tau": [0, 1], "tau": TAU}),
        "h4": dump("h4.json", {"levels_in_2pi_over_tau": [0, 1, 2, 3],
                               "tau": TAU}),
        "hz_dense": dump("hz.json", array_to_json(np.diag([0.5, -0.5]))),
        "bad": dump("bad.json", {"re": "nonsense"}),
        "dir": tmp_path,
    }


def test_measures_reference_output(fixtures):
    res = run_cli("measures", "--state", fixtures["rho"],
                  "--ham", fixtures["hz_dense"], "--alpha", "2.0")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert abs(out["F"] - 0.36) < 1e-12
    assert abs(out["P"] - 0.5625) < 1e-12
    assert abs(out["W"] - 0.05) < 1e-12
    assert out["support_commutes"] is True
    assert out["variance_if_pure"] is None
    assert abs(out["renyi"] - out["P"]) < 1e-12


def test_measures_infinite_purity(fixtures):
    res = run_cli("measures", "--state", fixtures["cbit"],
                  "--ham", fixtures["hz_dense"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["P"] == "inf"
    assert abs(out["variance_if_pure"] - 0.25) < 1e-12



@pytest.mark.parametrize("tau", [TAU, 3.0])
def test_measures_cost_field(fixtures, tmp_path, capsys, tau):
    # the levels form's tau fixes the reference qubit, so cbit on levels
    # {0, 1} costs one reference qubit whatever tau is
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": [0, 1], "tau": tau}))
    assert cli.main(["measures", "--state", fixtures["cbit"],
                     "--ham", str(ham)]) == 0
    assert abs(json.loads(capsys.readouterr().out)["cost"] - 1.0) < 1e-12
    # a dense file carries no tau of its own
    assert cli.main(["measures", "--state", fixtures["cbit"],
                     "--ham", fixtures["hz_dense"]]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] is None


def test_levels_basis_must_be_unitary(fixtures, tmp_path, capsys):
    # the basis is the one Kraus operator of its unitary channel, judged
    # at cptp; a NaN entry fails the check rather than passing it
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    ham = tmp_path / "h.json"
    for basis, rc in ((hadamard, 0), (1.001 * hadamard, 1),
                      (np.array([[math.nan, 0.0], [0.0, 1.0]]), 1)):
        ham.write_text(json.dumps({"levels_in_2pi_over_tau": [0, 1],
                                   "basis": array_to_json(basis)}))
        assert cli.main(["measures", "--state", fixtures["cbit"],
                         "--ham", str(ham)]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert (out, err) == ("", "error: basis is not unitary\n")
        else:
            # H = B diag(0, 1) B^dag has |+> as an eigenstate: F = 0
            assert json.loads(out)["F"] < 1e-12


def _no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(linalg, "eig_hermitian", refuse)


def test_levels_file_carries_its_eigenpairs(tmp_path, monkeypatch):
    # unsorted, repeated levels in a random unitary basis load with no
    # eigensolve: the spectrum is the sorted grid exactly, and the
    # eigenbasis the basis columns in stable order of the levels
    levels, tau = [3, 0, 1, 0], 3.0
    G = np.random.default_rng(5).normal(size=(4, 4, 2)) @ [1.0, 1j]
    B = np.linalg.qr(G)[0]
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": levels, "tau": tau,
                               "basis": array_to_json(B)}))
    _no_eigensolve(monkeypatch)
    H, t, dense = cli.load_hamiltonian(str(ham))
    assert (t, dense) == (tau, False)
    E = 2.0 * math.pi / tau * np.array(levels)
    assert np.array_equal(H.spectrum, np.sort(E))
    assert np.array_equal(H.eigenbasis, B[:, [1, 3, 2, 0]])
    assert np.array_equal(H.matrix, B @ np.diag(E).astype(complex)
                          @ B.conj().T)
    assert np.allclose((H.eigenbasis * H.spectrum) @ H.eigenbasis.conj().T,
                       H.matrix, atol=1e-14)


def test_levels_file_without_basis_has_the_identity_basis(tmp_path,
                                                           monkeypatch):
    ham = tmp_path / "h.json"
    _no_eigensolve(monkeypatch)
    for levels, basis in (([0, 1, 3], np.eye(3)),
                          ([2, 0, 1], np.eye(3)[:, [1, 2, 0]])):
        ham.write_text(json.dumps({"levels_in_2pi_over_tau": levels}))
        H = cli.load_hamiltonian(str(ham))[0]
        assert np.array_equal(H.spectrum, np.sort(levels).astype(float))
        assert np.array_equal(H.eigenbasis, basis)
        assert np.array_equal(H.matrix, np.diag(levels).astype(complex))


def test_proptest_cost_report_is_frozen():
    # the cost measure is coherence_cost, (tau/2pi)^2 F; this report was
    # frozen from the same formula written inline in the suite
    res = run_cli("proptest", "--measure", "cost", "--trials", "200",
                  "--seed", "7")
    assert res.returncode == 0
    assert res.stdout == (
        '{"suite": "monotonicity", "measure": "cost", "alpha": null, '
        '"trials": 200, "seed": 7, "max_violation": 1.2206661476690594e-30, '
        '"worst_trial": 142, "violations": 0}\n')


@pytest.mark.parametrize("measure, alpha, report", [
    ("F", [], '"alpha": null, "trials": 60, "seed": 7, '
              '"max_violation": 2.466982515816891e-31, "worst_trial": 30'),
    ("P", [], '"alpha": null, "trials": 60, "seed": 7, '
              '"max_violation": 1.325356646656392e-31, "worst_trial": 30'),
    ("W", [], '"alpha": null, "trials": 60, "seed": 7, '
              '"max_violation": 1.6024952699529948e-32, "worst_trial": 36'),
    ("renyi", ["--alpha", "1.5"],
     '"alpha": 1.5, "trials": 60, "seed": 7, '
     '"max_violation": 3.031322894340544e-32, "worst_trial": 36'),
    ("renyi", ["--alpha", "2.0"],
     '"alpha": 2.0, "trials": 60, "seed": 7, '
     '"max_violation": 5.551115123125806e-17, "worst_trial": 30'),
])
def test_proptest_reports_are_frozen(measure, alpha, report):
    # frozen from the suite that drew, validated, twirled and applied
    # each trial's channel through the public channel calls one by one;
    # the stacked checks must not move a bit of any report
    res = run_cli("proptest", "--measure", measure, *alpha, "--trials",
                  "60", "--seed", "7")
    assert res.returncode == 0
    assert res.stdout == ('{"suite": "monotonicity", "measure": '
                          f'"{measure}", {report}, "violations": 0}}\n')


def test_purify_round_trip(fixtures):
    from coherence_forge.linalg import array_from_json

    res = run_cli("purify", "--state", fixtures["rho"],
                  "--ham", fixtures["hz_dense"], "--ensemble")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert abs(out["total_variance"] - out["qfi_over_4"]) < 1e-10
    assert abs(out["total_variance"] - 0.09) < 1e-10
    assert out["kkt_residual"] < 1e-10
    H_A = array_from_json(out["aux_hamiltonian"])
    assert np.max(np.abs(H_A - H_A.conj().T)) < 1e-12
    weights = [m["weight"] for m in out["ensemble"]]
    assert abs(sum(weights) - 1.0) < 1e-10


def test_dist_csv_and_summary(fixtures):
    res = run_cli("dist", "--state", fixtures["u023"],
                  "--ham", fixtures["h4"], "--copies", "4")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,p"
    summary = json.loads(lines[-1])
    assert abs(summary["period"] - TAU) < 1e-9
    assert summary["L"] == 2
    assert summary["tv_to_tp"] <= summary["barbour_bound"]
    rows = [ln.split(",") for ln in lines[1:-1]]
    total = sum(float(p) for _, p in rows)
    assert abs(total - 1.0) < 1e-9
    assert rows[0][0] == "0" and rows[-1][0] == "12"



def test_dist_convolves_once(fixtures, monkeypatch, capsys):
    # the table and tv_to_tp share one m-fold convolution
    calls = []
    convolve_n = cli.clockdist.convolve_n

    def counted(p, m):
        calls.append(m)
        return convolve_n(p, m)

    monkeypatch.setattr(cli.clockdist, "convolve_n", counted)
    assert cli.main(["dist", "--state", fixtures["u023"],
                     "--ham", fixtures["h4"], "--copies", "4"]) == 0
    capsys.readouterr()
    assert calls == [4]

def test_dist_tau_defers_to_a_levels_file(fixtures, tmp_path, capsys):
    # the file's own tau wins over --tau, as in convert
    ham = tmp_path / "h_tau3.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": [0, 1], "tau": 3}))
    outs = []
    for extra in ([], ["--tau", repr(TAU)]):
        assert cli.main(["dist", "--state", fixtures["cbit"],
                         "--ham", str(ham), *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert abs(json.loads(outs[0].splitlines()[-1])["period"] - 3) < 1e-12


def test_dist_tau_sets_the_grid_of_a_dense_file(fixtures, capsys):
    # levels 0 and 1: one grid step at tau = 2*pi, two at tau = 4*pi
    rows = []
    for tau in (TAU, 2 * TAU):
        assert cli.main(["dist", "--state", fixtures["cbit"],
                         "--ham", fixtures["hz_dense"],
                         "--tau", repr(tau)]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1:-1])
    assert rows == [["0,0.5", "1,0.5"], ["0,0.5", "1,0.0", "2,0.5"]]


@pytest.mark.parametrize("tau", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command,ham", [
    ("dist", "hz_dense"),
    # h2 names its own tau, and convert builds no grid for a dense file
    # from --tau, so in these three --tau goes unread
    ("dist", "h2"), ("convert", "h2"), ("convert", "hz_dense")])
def test_a_bad_tau_is_refused_before_any_file_is_read(fixtures, capsys,
                                                      command, ham, tau):
    ham = fixtures[ham]
    if command == "dist":
        argv = ["dist", "--state", fixtures["cbit"], "--ham", ham]
    else:
        argv = ["convert", "--in", fixtures["cbit"], ham,
                "--out", fixtures["cbit"], ham, "--copies", "4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # refused before any file is read: a missing state file goes unseen
    missing = str(fixtures["dir"] / "missing.json")
    for files in (argv, [missing if a == fixtures["cbit"] else a
                         for a in argv]):
        assert cli.main([*files, "--tau", tau]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: tau must be positive and finite, got {float(tau)}"]


@pytest.mark.parametrize("tau", ["0", "-1", "NaN", "Infinity"])
def test_a_bad_file_tau_is_refused_with_the_one_message(fixtures, capsys,
                                                        tau):
    ham = fixtures["dir"] / "bad_tau.json"
    ham.write_text(f'{{"levels_in_2pi_over_tau": [0, 1], "tau": {tau}}}')
    assert cli.main(["measures", "--state", fixtures["rho"],
                     "--ham", str(ham)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: tau must be positive and finite, got "
                   f"{float(tau)}\n")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("tau", [TAU, 3.0, 1e6, 1e150, 1e300])
def test_measures_prints_a_finite_cost_at_any_tau(fixtures, capsys, tau):
    # (tau/2pi)^2 F once printed "cost": NaN at tau = 1e300, which is not
    # JSON, with exit code 0
    rho = fixtures["dir"] / "rho_half.json"
    rho.write_text(json.dumps(array_to_json(np.array([[0.5, 0.3],
                                                      [0.3, 0.5]]))))
    ham = fixtures["dir"] / "h_tau.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": [0, 1],
                               "tau": tau}))
    assert cli.main(["measures", "--state", str(rho),
                     "--ham", str(ham)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert abs(out["cost"] - 0.36) < 1e-12


def test_dist_rows_are_the_reprs_of_the_convolution(fixtures, capsys):
    # u023 at 600 copies reaches masses near 1e-286 in its tails
    m = 600
    assert cli.main(["dist", "--state", fixtures["u023"],
                     "--ham", fixtures["h4"], "--copies", str(m)]) == 0
    lines = capsys.readouterr().out.splitlines()
    clock = cli.clockdist.extract_distribution(
        np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3), np.diag([0., 1, 2, 3]),
        TAU)
    p_m = cli.clockdist.convolve_n(clock.distribution, m)
    assert lines[0] == "n,p"
    assert lines[1:-1] == [f"{n},{p!r}" for n, p in
                           zip(range(p_m.offset, p_m.offset + len(p_m.probs)),
                               p_m.probs.tolist())]
    assert set(json.loads(lines[-1])) == {"period", "L", "tv_to_tp",
                                          "barbour_bound"}


def test_dist_gcd_not_one(fixtures, tmp_path):
    psi02 = np.zeros(3)
    psi02[0] = psi02[2] = 1.0 / math.sqrt(2)
    state = tmp_path / "psi02.json"
    state.write_text(json.dumps(array_to_json(psi02)))
    ham = tmp_path / "h3.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": [0, 1, 2],
                               "tau": TAU}))
    res = run_cli("dist", "--state", str(state), "--ham", str(ham))
    assert res.returncode == 0
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["L"] == "GcdNotOne"
    assert summary["barbour_bound"] == "inf"
    assert abs(summary["period"] - TAU / 2) < 1e-9


@pytest.mark.parametrize("top, L", [(127, 64), (129, "SearchExhausted")])
def test_dist_search_exhausted(tmp_path, capsys, top, L):
    # levels {0, 2, top}: writing 1 as a signed sum of 2 and top takes
    # (top + 1) / 2 terms, one more than MAX_OVERLAP_COPIES for top = 129
    psi = np.zeros(top + 1)
    psi[[0, 2, top]] = 1.0 / math.sqrt(3)
    state = tmp_path / "psi.json"
    state.write_text(json.dumps(array_to_json(psi)))
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": list(range(top + 1)),
                               "tau": TAU}))
    assert cli.main(["dist", "--state", str(state), "--ham", str(ham)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p"
    assert len(lines) > 2
    assert json.loads(lines[-1])["L"] == L


def test_dist_energy_eigenstate(fixtures, tmp_path, capsys):
    # a point mass: no period, no overlap with its shift, zero variance
    state = tmp_path / "ground.json"
    state.write_text(json.dumps({"dim": [2], "re": [1, 0], "im": [0, 0]}))
    assert cli.main(["dist", "--state", str(state),
                     "--ham", fixtures["h2"]]) == 0
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[:2] == ["n,p", "0,1.0"]
    summary = json.loads(lines[2])
    assert summary["period"] == 0
    assert summary["L"] == "GcdNotOne"
    assert summary["barbour_bound"] == "inf"


def test_convert_defaults_to_max_rate(fixtures):
    res = run_cli("convert", "--in", fixtures["u023"], fixtures["h4"],
                  "--out", fixtures["cbit"], fixtures["h2"],
                  "--copies", "8,32")
    assert res.returncode == 0
    assert "max rate" in res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "m,k,tv_error,fidelity_floor"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["8", "32"]
    for r in rows:
        tv = float(r[2])
        assert abs(float(r[3]) - max(0.0, 1 - 2 * tv)) < 1e-12


def test_convert_below_rate_improves_with_copies(fixtures):
    rate = 0.9 * 56.0 / 9.0
    res = run_cli("convert", "--in", fixtures["u023"], fixtures["h4"],
                  "--out", fixtures["cbit"], fixtures["h2"],
                  "--rate", repr(rate), "--copies", "16,128")
    assert res.returncode == 0
    rows = [ln.split(",") for ln in res.stdout.strip().splitlines()[1:]]
    assert float(rows[1][2]) < float(rows[0][2])


@pytest.mark.parametrize("flag, value", [
    ("--rate", "nan"), ("--rate", "inf"),
    ("--rate", "1e-300"),   # snaps to 0 at the rate's max denominator
    ("--copies", "abc"), ("--copies", "16,x"),
    ("--copies", ""), ("--copies", ","),   # no copy count at all
])
def test_convert_refuses_bad_rate_and_copies(fixtures, capsys, flag, value):
    argv = ["convert", "--in", fixtures["u023"], fixtures["h4"],
            "--out", fixtures["cbit"], fixtures["h2"],
            "--rate", "1.0", "--copies", "8"]
    argv[argv.index(flag) + 1] = value
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag.lstrip("-") in err


@pytest.mark.parametrize("argv", [
    # 16 copies in, 1.6 million cbit copies out
    ["convert", "--in", "cbit", "h2", "--out", "cbit", "h2",
     "--rate", "100000", "--copies", "16"],
    ["dist", "--state", "cbit", "--ham", "h2", "--copies", "3000000"],
])
def test_oversized_convolutions_are_refused(fixtures, capsys, argv):
    argv = [fixtures.get(a, a) for a in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "window" in err


def test_convert_max_rate_note_prints_a_plain_float(fixtures, capsys):
    assert cli.main(["convert", "--in", fixtures["cbit"], fixtures["h2"],
                     "--out", fixtures["cbit"], fixtures["h2"],
                     "--copies", "8"]) == 0
    assert capsys.readouterr().err == "note: using max rate 1.0\n"


def test_convert_is_independent_of_the_files_tau(fixtures, capsys):
    # levels-form files at tau = 1 carry H = 2*pi*n: the same integer
    # distributions as at tau = 2*pi, so the same certificates
    def dump(name, levels, tau):
        path = fixtures["dir"] / name
        path.write_text(json.dumps({"levels_in_2pi_over_tau": levels,
                                    "tau": tau}))
        return str(path)

    rows = []
    for tau in (TAU, 1.0):
        argv = ["convert", "--in", fixtures["u023"],
                dump("h4t.json", [0, 1, 2, 3], tau),
                "--out", fixtures["cbit"], dump("h2t.json", [0, 1], tau),
                "--rate", repr(0.9 * 56.0 / 9.0), "--copies", "16,256"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rows.append([ln.split(",") for ln in lines])
    for r2pi, r1 in zip(*rows):
        assert r2pi[:2] == r1[:2]
        assert abs(float(r2pi[2]) - float(r1[2])) < 1e-12


def test_cached_parser_matches_fresh_processes(fixtures, capsys):
    # the parser is built once per process; options of one call, and the
    # defaults they override, must not reach the next
    convert = ["convert", "--in", fixtures["u023"], fixtures["h4"],
               "--out", fixtures["cbit"], fixtures["h2"], "--copies", "8,16"]
    measures = ["measures", "--state", fixtures["rho"],
                "--ham", fixtures["hz_dense"]]
    calls = [convert + ["--rate", "2.5"], convert,
             measures + ["--alpha", "2.0"], measures,
             ["dist", "--state", fixtures["cbit"], "--ham", fixtures["h2"],
              "--copies", "3"],
             ["dist", "--state", fixtures["cbit"], "--ham", fixtures["h2"]]]
    outs = []
    for argv in calls:
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1] and outs[2] != outs[3] and outs[4] != outs[5]
    for argv, out in zip(calls, outs):
        res = run_cli(*argv)
        assert res.returncode == 0
        assert res.stdout == out


def test_command_replaced_after_first_call_is_run(monkeypatch, capsys):
    # the cached parser names the command; the function is looked up per
    # call, so a wrapper installed later (as tracing does) sees the call
    assert cli.main(["qubit-bound", "--lambda", "0.6", "--n", "1"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_qubit_bound",
                        lambda args: seen.append(args.n) or 0)
    assert cli.main(["qubit-bound", "--lambda", "0.6", "--n", "2"]) == 0
    assert seen == [2]
    capsys.readouterr()


def test_distill_single_and_double_copy(fixtures):
    for copies, expect in (("1", 0.8), ("2", 0.8)):
        res = run_cli("distill", "--in", fixtures["rho"], fixtures["h2"],
                      "--target", fixtures["cbit"], fixtures["h2"],
                      "--copies", copies)
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert abs(out["fidelity"] - expect) < 1e-5
        assert abs(out["hmin"] + math.log2(out["fidelity"])) < 1e-12
        assert out["gap"] < 1e-7
        assert out["bound_exact"] is not None
        assert out["bound_asymptotic"] is not None
        # a qubit source is certified block by block, here in closed form
        assert out["certificate"] == "schur-chain"
        assert out["newton_steps"] == 0
        assert out["blocks"] == 1 + (copies == "2")
        assert out["blocks_dropped"] == 0


@pytest.mark.parametrize("copies", ["1", "3"])
def test_distill_reports_the_barrier_solver_work(fixtures, capsys, copies):
    # a target with unequal weights on its two levels is no closed-form
    # chain, so every spin block goes through the barrier SDP
    psi = np.array([math.sqrt(0.7), math.sqrt(0.3)])
    target = fixtures["dir"] / "unbalanced.json"
    target.write_text(json.dumps(array_to_json(psi)))
    assert cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                     "--target", str(target), fixtures["h2"],
                     "--copies", copies]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] == "schur"
    assert out["blocks"] == 1 + (copies == "3")
    assert out["newton_steps"] > out["barrier_stages"] > 0
    assert 0.0 < out["min_slack"] < 1e-6
    assert out["gap"] < 1e-7
    H = np.diag([0.0, 1.0])
    dense = cli.distill.conditional_min_entropy(cli.distill.iid_omega_state(
        cli.load_state(fixtures["rho"]), H, psi, H, int(copies)))
    assert abs(out["fidelity"] - dense.optimum) < 1e-7


@pytest.mark.parametrize("state, levels, copies", [
    (np.array([1.0, 1.0]) / math.sqrt(2), [0, 1], 1),
    (np.array([1.0, 1.0]) / math.sqrt(2), [0, 1], 3),
    (np.array([0.6, 0.8j]), [0, 1], 2),
    (np.array([1.0, 1.0, 0.0]) / math.sqrt(2), [0, 1, 2], 1),
    (np.array([1.0, 1.0, 1.0]) / math.sqrt(3), [0, 1, 2], 2),
], ids=["plus-1", "plus-3", "phase-2", "qutrit-1", "qutrit-2"])
def test_distill_never_prints_a_fidelity_above_one(fixtures, capsys, state,
                                                   levels, copies):
    # F* <= 1 for every source; the barrier solver's primal excess once
    # printed 1.00000000625 for |+> itself
    tmp = fixtures["dir"]
    (tmp / "pure_s.json").write_text(json.dumps(array_to_json(state)))
    (tmp / "pure_h.json").write_text(
        json.dumps({"levels_in_2pi_over_tau": levels}))
    assert cli.main(["distill", "--in", str(tmp / "pure_s.json"),
                     str(tmp / "pure_h.json"), "--target", fixtures["cbit"],
                     fixtures["h2"], "--copies", str(copies)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] == ("dense" if len(levels) == 3
                                  else "schur-chain")
    assert out["fidelity"] <= 1.0 and out["hmin"] >= 0.0
    assert 0.0 <= out["gap"] < 1e-7
    assert abs(out["hmin"] + math.log2(out["fidelity"])) < 1e-12
    # |+> on the target's two levels is the target itself
    if np.allclose(np.abs(state[:2]) ** 2, 0.5):
        assert out["fidelity"] > 1.0 - 1e-7


@pytest.mark.parametrize("levels, source", [
    ([0, 1], 0.3), ([0, 1], 0.6), ([0, 1], 0.9), ([0, 1, 1], None),
])
def test_distill_is_independent_of_the_source_basis(fixtures, capsys,
                                                      levels, source):
    # a random unitary B applied to the source state and to its
    # Hamiltonian (the levels form's "basis") leaves F* unchanged
    rng = np.random.default_rng(67)
    d = len(levels)
    B = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    if source is None:
        rho = random_density(d, rng)
    else:
        plus = np.ones(2) / math.sqrt(2)
        rho = source * np.outer(plus, plus) + (1 - source) * np.eye(2) / 2
    tmp = fixtures["dir"]
    files = {}
    for name, state, ham in (
            ("plain", rho, {"levels_in_2pi_over_tau": levels}),
            ("rotated", B @ rho @ B.conj().T,
             {"levels_in_2pi_over_tau": levels, "basis": array_to_json(B)})):
        (tmp / f"{name}_s.json").write_text(json.dumps(array_to_json(state)))
        (tmp / f"{name}_h.json").write_text(json.dumps(ham))
        files[name] = [str(tmp / f"{name}_s.json"), str(tmp / f"{name}_h.json")]
    for n in ("1", "2", "3"):
        fids = []
        for name in ("plain", "rotated"):
            assert cli.main(["distill", "--in", *files[name], "--target",
                             fixtures["cbit"], fixtures["h2"],
                             "--copies", n]) == 0
            fids.append(json.loads(capsys.readouterr().out)["fidelity"])
        assert abs(fids[0] - fids[1]) < 1e-12, (n, fids)


def _qubit_family(lam):
    plus = np.ones(2) / math.sqrt(2)
    return lam * np.outer(plus, plus) + (1 - lam) * np.eye(2) / 2


def _distill_json(capsys, tmp, rho, levels, copies, target):
    (tmp / "src_s.json").write_text(json.dumps(array_to_json(rho)))
    (tmp / "src_h.json").write_text(
        json.dumps({"levels_in_2pi_over_tau": levels}))
    ham = str(tmp / "src_h.json")
    assert cli.main(["distill", "--in", str(tmp / "src_s.json"), ham,
                     "--target", target, ham, "--copies", str(copies)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("rho, levels, copies", [
    (np.array([[0.9, 0.3], [0.3, 0.1]]), [0, 1], 2),
    (_qubit_family(0.6), [0, 0], 1),
], ids=["populations", "degenerate"])
def test_distill_prints_no_bound_off_the_qubit_family(fixtures, capsys, rho,
                                                      levels, copies):
    # with lam = 2<+|rho|+> - 1 the bound would exceed 1 - F* on each
    out = _distill_json(capsys, fixtures["dir"], rho, levels, copies,
                        fixtures["cbit"])
    assert out["bound_exact"] is None and out["bound_asymptotic"] is None
    plus = np.ones(2) / math.sqrt(2)
    lam = 2 * float((plus @ rho @ plus).real) - 1
    old = cli.distill.qubit_infidelity_bound(lam, copies)[0]
    assert old > 1 - out["fidelity"] + out["gap"]


def test_distill_bounds_a_phased_source_by_its_coherence(fixtures, capsys):
    # the phase of rho_01 is a time translation, which leaves F* and
    # lam = 2|rho_01| = 0.6 as they are; at n = 1 the exact bound is
    # 1 - F* = 0.2 itself
    rho = (np.eye(2) + 0.6 * np.array([[0, 1 - 1j], [1 + 1j, 0]])
           / math.sqrt(2)) / 2
    out = _distill_json(capsys, fixtures["dir"], rho, [0, 1], 1,
                        fixtures["cbit"])
    exact, asym = cli.distill.qubit_infidelity_bound(0.6, 1)
    assert abs(out["bound_exact"] - exact) < 1e-12
    assert abs(out["bound_asymptotic"] - asym) < 1e-12
    assert out["bound_exact"] <= 1 - out["fidelity"] + out["gap"] + 1e-15
    # lam = 2<+|rho|+> - 1 would read the phase as lost visibility, and
    # its bound would exceed 1 - F*
    plus = np.ones(2) / math.sqrt(2)
    lam = 2 * float((plus @ rho @ plus).real) - 1
    old = cli.distill.qubit_infidelity_bound(lam, 1)[0]
    assert old > 1 - out["fidelity"] + out["gap"]


@pytest.mark.parametrize("levels", [[0, 1], [0, 0]])
def test_distill_prints_blocksum_as_it_is(fixtures, capsys, levels):
    # fidelity, then hmin, then the other fields of BlockSum in order, on
    # the Schur path and on the dense one
    out = _distill_json(capsys, fixtures["dir"], _qubit_family(0.6), levels,
                        2, fixtures["cbit"])
    names = [f.name for f in dataclasses.fields(cli.distill.BlockSum)]
    assert list(out) == ["fidelity", "hmin", *names[1:]]


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_distill_prints_no_bound_at_a_roundoff_visibility(fixtures, capsys,
                                                          copies):
    # sigma = I/2 gives lam = 2<+|sigma|+> - 1 = 0 up to roundoff, where
    # the asymptotic bound (1 - lam^2)/(4 lam^2 n) would print ~1e30
    out = _distill_json(capsys, fixtures["dir"], np.eye(2) / 2, [0, 1],
                        copies, fixtures["cbit"])
    assert out["bound_exact"] is None and out["bound_asymptotic"] is None


def test_distill_bounds_hold_on_the_qubit_family(fixtures, capsys):
    for lam in (0.3, 0.6, 0.9):
        for n in range(1, 5):
            out = _distill_json(capsys, fixtures["dir"], _qubit_family(lam),
                                [0, 1], n, fixtures["cbit"])
            exact, asym = cli.distill.qubit_infidelity_bound(lam, n)
            assert abs(out["bound_exact"] - exact) < 1e-12
            assert abs(out["bound_asymptotic"] - asym) < 1e-12
            assert out["bound_exact"] <= 1 - out["fidelity"] + out["gap"]


@pytest.mark.parametrize("copies", [1, 3])
def test_distill_bounds_a_pure_source_of_the_qubit_family(fixtures, capsys,
                                                          copies):
    # lam = 2<+|rho|+> - 1 reads 1 + 4e-16 on this vector; it is taken
    # as lam = 1, where both bounds are 0
    pure = np.full(2, 0.7071067811865476)
    out = _distill_json(capsys, fixtures["dir"], pure, [0, 1], copies,
                        fixtures["cbit"])
    assert out["bound_exact"] == 0.0 and out["bound_asymptotic"] == 0.0
    assert out["bound_exact"] <= 1 - out["fidelity"] + out["gap"]


@pytest.mark.parametrize("copies", [1, 3])
def test_distill_reaches_a_one_level_target(fixtures, capsys, copies):
    # discarding the source reaches a target of one level exactly
    tmp = fixtures["dir"]
    (tmp / "one_s.json").write_text(json.dumps(
        {"dim": [1], "re": [1.0], "im": [0.0]}))
    (tmp / "one_h.json").write_text(
        json.dumps({"levels_in_2pi_over_tau": [0]}))
    assert cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                     "--target", str(tmp / "one_s.json"),
                     str(tmp / "one_h.json"), "--copies", str(copies)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fidelity"] == 1.0 and out["hmin"] == 0.0


def test_distill_solves_through_iid_fidelity_alone(fixtures, monkeypatch,
                                                   capsys):
    # one library call per request; the Schur-Weyl split, the barrier
    # solver and the qubit family's bounds run only inside it
    real = cli.distill.iid_fidelity
    copies, inside, seen = [], [], []

    def traced(*args):
        copies.append(args[-1])
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    def inner(name):
        fn = getattr(cli.distill, name)

        def wrapped(*args, **kwargs):
            assert inside, f"{name} called outside iid_fidelity"
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_schur_blocks", "conditional_min_entropy",
                 "qubit_infidelity_bound"):
        monkeypatch.setattr(cli.distill, name, inner(name))
    monkeypatch.setattr(cli.distill, "iid_fidelity", traced)
    tmp = fixtures["dir"]
    (tmp / "qutrit_s.json").write_text(json.dumps(array_to_json(
        random_density(3, np.random.default_rng(74)))))
    (tmp / "qutrit_h.json").write_text(
        json.dumps({"levels_in_2pi_over_tau": [0, 1, 1]}))
    for source in ([fixtures["rho"], fixtures["h2"], "2"],
                   [str(tmp / "qutrit_s.json"), str(tmp / "qutrit_h.json"),
                    "1"]):
        assert cli.main(["distill", "--in", *source[:2], "--target",
                         fixtures["cbit"], fixtures["h2"],
                         "--copies", source[2]]) == 0
    kinds = [json.loads(line)["certificate"]
             for line in capsys.readouterr().out.splitlines()]
    assert kinds == ["schur-chain", "dense"]
    assert copies == [2, 1]
    assert seen == ["_schur_blocks", "qubit_infidelity_bound",
                    "conditional_min_entropy"]


def test_distill_on_the_chain_path_solves_only_its_operands(fixtures,
                                                           monkeypatch,
                                                           capsys):
    # every spin block of 30 copies takes the chain: its bands come from
    # recurrences and its re-check is in closed form, so the only
    # eigensolves are of the operands at load
    sizes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(M, *args, _real=real, **kwargs):
            sizes.append(np.shape(M)[-1])
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    out = _distill_json(capsys, fixtures["dir"], _qubit_family(0.6), [0, 1],
                        30, fixtures["cbit"])
    assert out["certificate"] == "schur-chain"
    assert out["blocks"] == 16
    assert len(sizes) <= 4 and set(sizes) == {2}


@pytest.mark.parametrize("lam", [0.9, 0.99, 1.0])
def test_distill_at_the_largest_budget_keeps_its_tails_finite(fixtures,
                                                             capsys, lam):
    # 1446 copies, the most the budget admits for a qubit target: the
    # tails of the blocks' bands fall below the double range (thousands
    # of entries near 1e-323, and 128 exact zeros for the pure source);
    # the chain takes them as logs, a zero as -inf, and nothing overflows
    out = _distill_json(capsys, fixtures["dir"], _qubit_family(lam), [0, 1],
                        1446, fixtures["cbit"])
    assert out["certificate"] == "schur-chain"
    assert all(math.isfinite(out[key]) for key in (
        "fidelity", "hmin", "gap", "min_slack", "bound_exact"))
    assert 0.0 <= out["gap"] < 1e-7
    assert out["bound_exact"] <= 1.0 - out["fidelity"] + out["gap"]


def test_distill_certifies_a_thousand_copies_in_a_pinned_time(fixtures,
                                                              capsys):
    # about 0.4 s at one BLAS thread on a 2-CPU Xeon; 1000 (1 - F*) sits
    # 6.0e-4 above the converse's (1 - lam^2)/(4 lam^2) = 0.4444
    start = time.perf_counter()
    out = _distill_json(capsys, fixtures["dir"], _qubit_family(0.6), [0, 1],
                        1000, fixtures["cbit"])
    assert time.perf_counter() - start < 5.0
    assert out["certificate"] == "schur-chain"
    assert out["gap"] < 1e-10
    assert abs(1000 * (1 - out["fidelity"]) - 0.445040) < 1e-6


@pytest.mark.parametrize("copies, target, levels", [
    pytest.param("200", "unbalanced", [0, 1], id="200"),
    pytest.param("1000", "unbalanced", [0, 1], id="1000"),
    pytest.param("200", "cbit", [0, 2], id="200-twice-the-gap"),
])
def test_distill_refuses_wide_blocks_the_chain_declines(fixtures, monkeypatch,
                                                        capsys, copies,
                                                        target, levels):
    # an unbalanced target, or one at twice the gap, is no closed-form
    # chain; at 200 copies every spin block is at most 402 wide, but the
    # cubed sides of the live blocks' Omega_j sum past 1024**3, and at
    # 1000 copies the first live block alone is wider than 1024: refused
    # before any block is solved, and before any band past the first is
    # swept
    def no_solve(*args, **kwargs):
        raise AssertionError("spin block solved")

    reaches = []
    blocks = cli.distill._schur_blocks

    def swept(s, H, copies, reach=1):
        reaches.append(reach)
        return blocks(s, H, copies, reach)

    monkeypatch.setattr(cli.distill, "conditional_min_entropy", no_solve)
    monkeypatch.setattr(cli.distill, "_schur_blocks", swept)
    if target == "unbalanced":
        target = fixtures["dir"] / "unbalanced.json"
        target.write_text(json.dumps(array_to_json(
            np.array([math.sqrt(0.7), math.sqrt(0.3)]))))
    else:
        target = fixtures[target]
    ham = fixtures["dir"] / "target_h.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": levels,
                               "tau": TAU}))
    assert cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                     "--target", str(target), str(ham),
                     "--copies", copies]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no closed-form chain" in err
    assert reaches == [1]


def test_distill_certifies_a_hundred_copies_in_closed_form(fixtures, capsys):
    # n (1 - F*) at lam = 0.6 approaches the converse's (1 - lam^2)/(4 lam^2)
    out = _distill_json(capsys, fixtures["dir"], _qubit_family(0.6), [0, 1],
                        100, fixtures["cbit"])
    assert out["certificate"] == "schur-chain"
    assert out["blocks"] + out["blocks_dropped"] == 51
    assert out["gap"] < 1e-12
    assert abs(100 * (1 - out["fidelity"]) - 0.4507) < 1e-3
    assert out["bound_exact"] <= 1 - out["fidelity"] + out["gap"]


@pytest.mark.parametrize("copies, levels, source", [
    # a qutrit source takes the dense path, whose budgets these are
    pytest.param("40", [0, 1, 2], "qutrit", id="40-levels0"),  # 3**40 * 2
    pytest.param("7", [0, 1, 2], "qutrit", id="7-levels1"),    # 3**7 * 2
    pytest.param("5", [0, 1, 2], "qutrit", id="5-qutrit"),     # 8953 params
    # one level: a single 32 x 32 tau block, 1024 parameters
    pytest.param("5", [0, 0], "rho", id="5-levels2"),
    pytest.param("0", [0, 1], "rho", id="0-levels3"),
    # a qubit state under a qutrit Hamiltonian
    pytest.param("3", [0, 1, 2], "rho", id="3-levels4"),
])
def test_distill_refuses_oversized_requests(fixtures, monkeypatch, capsys,
                                            copies, levels, source):
    # the refusal comes before any n-copy array is built
    def no_sectors(*args, **kwargs):
        raise AssertionError("n-copy sectors built")

    ham = fixtures["dir"] / "ham.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": levels}))
    qutrit = fixtures["dir"] / "qutrit.json"
    qutrit.write_text(json.dumps(array_to_json(
        random_density(3, np.random.default_rng(73)))))
    monkeypatch.setattr(cli.distill, "_sectors", no_sectors)
    rc = cli.main(["distill", "--in",
                   str(qutrit) if source == "qutrit" else fixtures[source],
                   str(ham), "--target", fixtures["cbit"], fixtures["h2"],
                   "--copies", copies])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("copies", ["1447", "1000000000"])
def test_distill_copy_budget_is_checked_before_any_block(fixtures,
                                                         monkeypatch, capsys,
                                                         copies):
    # the sides (2j + 1) * 2 of 1447 copies' spin blocks sum past 1024**2,
    # and those of 10**9 copies far past it
    mats = _eigh_log(monkeypatch)

    def no_blocks(*args, **kwargs):
        raise AssertionError("spin blocks built")

    monkeypatch.setattr(cli.distill, "_schur_blocks", no_blocks)
    rc = cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                   "--target", fixtures["cbit"], fixtures["h2"],
                   "--copies", copies])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    # rho at load (the levels files carry their eigenpairs); no n.J of any
    # spin block
    assert [M.shape[0] for M in mats] == [2]


def test_distill_refuses_a_bad_target_before_any_block(fixtures,
                                                       monkeypatch, capsys):
    # 179 copies pass the budget for a qubit target, but this target has
    # three levels under a qubit H_t: refused before any spin block's n.J
    mats = _eigh_log(monkeypatch)
    qutrit = fixtures["dir"] / "qutrit_t.json"
    qutrit.write_text(json.dumps(array_to_json(np.ones(3) / math.sqrt(3))))
    rc = cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                   "--target", str(qutrit), fixtures["h2"],
                   "--copies", "179"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    # rho at load only: the levels files carry their eigenpairs
    assert [M.shape[0] for M in mats] == [2]


def test_qubit_bound_table(fixtures):
    res = run_cli("qubit-bound", "--lambda", "0.6", "--n", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,exact,asymptotic,cirac"
    assert len(lines) == 6
    for ln in lines[1:]:
        n, exact, asym, cirac = ln.split(",")
        assert abs(float(cirac) / float(asym) - 2 / 1.6) < 1e-12


@pytest.mark.parametrize("lam, n", [
    ("0.6", "0"), ("0.6", "-3"),
    ("1.5", "20"), ("0", "20"), ("-0.2", "20"), ("nan", "20"),
], ids=["0", "-3", "lambda=1.5", "lambda=0", "lambda=-0.2", "lambda=nan"])
def test_qubit_bound_refuses_empty_table(capsys, lam, n):
    assert cli.main(["qubit-bound", "--lambda", lam, "--n", n]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_qubit_bound_prints_inf_once_lambda_squared_underflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["qubit-bound", "--lambda", "1e-300", "--n", "2"]) == 0
    assert capsys.readouterr() == (
        "n,exact,asymptotic,cirac\n1,0.5,inf,inf\n2,0.5,inf,inf\n", "")


def test_qubit_bound_streams_its_rows():
    # rows are printed as they are computed, so memory does not grow
    # with --n
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            rc = cli.main(["qubit-bound", "--lambda", "0.6",
                           "--n", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4 * 2**20


def test_package_runs_as_a_module(capsys):
    # python -m coherence_forge works from a checkout, with no install
    res = run_cli("qubit-bound", "--lambda", "0.6", "--n", "2",
                  module="coherence_forge")
    assert res.returncode == 0, res.stderr
    assert cli.main(["qubit-bound", "--lambda", "0.6", "--n", "2"]) == 0
    assert res.stdout == capsys.readouterr().out
    assert [row.split(",")[0] for row in res.stdout.split()[1:]] == ["1", "2"]


def test_proptest_deterministic_and_seeded():
    a = run_cli("proptest", "--measure", "F", "--trials", "40", "--seed", "7")
    b = run_cli("proptest", "--measure", "F", "--trials", "40", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    env = run_cli("proptest", "--measure", "F", "--trials", "40",
                  env_extra={"COHERENCE_FORGE_SEED": "99"})
    assert json.loads(env.stdout)["seed"] == 99
    # explicit flag beats the environment
    flag = run_cli("proptest", "--measure", "F", "--trials", "40",
                   "--seed", "3", env_extra={"COHERENCE_FORGE_SEED": "99"})
    assert json.loads(flag.stdout)["seed"] == 3
    # a seed that is not an integer is an input error, not a traceback
    bad = run_cli("proptest", "--measure", "F", "--trials", "40",
                  env_extra={"COHERENCE_FORGE_SEED": "abc"})
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: COHERENCE_FORGE_SEED")


def test_error_exit_codes(fixtures):
    missing = run_cli("measures", "--state", "/nonexistent.json",
                      "--ham", fixtures["hz_dense"])
    assert missing.returncode == 1
    bad = run_cli("measures", "--state", fixtures["bad"],
                  "--ham", fixtures["hz_dense"])
    assert bad.returncode == 1
    assert "error:" in bad.stderr
    # dist demands a pure state
    mixed = run_cli("dist", "--state", fixtures["rho"],
                    "--ham", fixtures["h2"])
    assert mixed.returncode == 1


def test_dense_hamiltonian_warns(fixtures):
    res = run_cli("dist", "--state", fixtures["cbit"],
                  "--ham", fixtures["hz_dense"])
    assert res.returncode == 0
    assert "snapped" in res.stderr


def test_dense_notes_name_the_grid_each_command_snaps_to(fixtures, capsys):
    # dist snaps to the 2*pi/tau grid, convert to the grid of the pair's
    # common period, and distill groups levels without snapping them
    dense, cbit = fixtures["hz_dense"], fixtures["cbit"]
    assert cli.main(["dist", "--state", cbit, "--ham", dense]) == 0
    assert "the 2*pi/tau grid" in capsys.readouterr().err
    assert cli.main(["convert", "--in", cbit, dense, "--out", cbit, dense,
                     "--rate", "1", "--copies", "4"]) == 0
    assert "the grid of the pair's common period" in capsys.readouterr().err
    assert cli.main(["distill", "--in", fixtures["rho"], dense,
                     "--target", cbit, dense]) == 0
    assert capsys.readouterr().err == ""


PLUS = {"re": [2 ** -0.5, 2 ** -0.5], "im": [0.0, 0.0]}
HALF = {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
HZ = {"re": [[0.5, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("state, ham, code", [
    # the README's list forms of "dim"
    ({"dim": [2], **PLUS}, {"dim": [2, 2], **HZ}, 0),
    ({"dim": [2, 2], **HALF}, {"levels_in_2pi_over_tau": [0, 1]}, 0),
    # bad input: exit 1 with a message, never a traceback
    ({"dim": [2, 3], **HALF}, {"dim": 2, **HZ}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, math.inf]}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, math.nan]}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 10 ** 400]}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1], "tau": "abc"}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1], "tau": 1e400}, 1),
    # a non-finite entry in a dense Hamiltonian, a density matrix or a
    # pure state
    ({"dim": 2, **HALF}, {"dim": 2, **HZ, "re": [[0.5, 0.0],
                                                 [0.0, math.nan]]}, 1),
    ({"dim": 2, **HALF, "re": [[math.nan, 0.0], [0.0, 0.5]]},
     {"dim": 2, **HZ}, 1),
    ({"dim": 2, **PLUS, "re": [math.nan, 1.0]}, {"dim": 2, **HZ}, 1),
    # JSON booleans and strings are not numbers, though Python counts
    # bool as int and float() reads "3.0"
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [True, False]}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1], "tau": True}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1], "tau": "3.0"}, 1),
    ({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1], "tau": 10 ** 400}, 1),
    # nor is a "dim" of 2.5, true or "2", though int() takes all three;
    # an integral number such as 2.0 is a side length
    ({"dim": 2.5, **PLUS}, {"dim": 2, **HZ}, 1),
    ({"dim": True, "re": [1.0], "im": [0.0]}, {"dim": 1, "re": [[0.0]],
                                               "im": [[0.0]]}, 1),
    ({"dim": "2", **PLUS}, {"dim": 2, **HZ}, 1),
    ({"dim": 2.0, **PLUS}, {"dim": [2.0, 2], **HZ}, 0),
    # files given as bytes: one that is not UTF-8, one nested deeper than
    # the JSON parser recurses, and one with an integer longer than
    # Python converts from a string
    pytest.param(b"\xff\xfe\x00", {"dim": 2, **HZ}, 1, id="not-utf8"),
    pytest.param({"dim": 2, **HALF}, b"[" * 200000, 1, id="too-deep"),
    pytest.param({"dim": 2, **HALF}, b"[" + b"1" * 5000 + b"]", 1,
                 id="long-int"),
    # an empty level list, and a basis whose shape misses the levels
    pytest.param({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": []}, 1,
                 id="no-levels"),
    pytest.param({"dim": 2, **PLUS}, {"levels_in_2pi_over_tau": [0, 1],
                                      "basis": array_to_json(np.eye(3))}, 1,
                 id="basis-shape"),
])
def test_loader_edges(tmp_path, capsys, state, ham, code):
    for name, obj in (("s.json", state), ("h.json", ham)):
        (tmp_path / name).write_bytes(
            obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    rc = cli.main(["measures", "--state", str(tmp_path / "s.json"),
                   "--ham", str(tmp_path / "h.json")])
    err = capsys.readouterr().err
    assert rc == code
    assert ("error:" in err) == (code == 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd, ham", [
    ("measures", {"dim": 2, **HZ, "re": [[0.0, 0.0], [0.0, 1e200]]}),
    ("measures", {"levels_in_2pi_over_tau": [0, 1], "tau": 1e-300}),
    ("purify", {"dim": 2, **HZ, "re": [[0.0, 0.0], [0.0, 1e160]]}),
])
def test_overflowing_hamiltonians_are_refused(tmp_path, cmd, ham):
    # energies whose squares overflow would print NaN or Infinity, which
    # is not JSON; the eigensolver refuses entries above MAX_ENTRY first
    (tmp_path / "s.json").write_text(json.dumps({"dim": 2, **HALF}))
    (tmp_path / "h.json").write_text(json.dumps(ham))
    res = run_cli(cmd, "--state", str(tmp_path / "s.json"),
                  "--ham", str(tmp_path / "h.json"))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("levels, tau", [([0, 1], 1e-310),
                                         ([0, 2 ** 53], 1e-300)])
def test_levels_whose_energies_overflow_are_refused(tmp_path, capsys, levels,
                                                    tau):
    # 2 pi n / tau is inf, or NaN at n = 0, and the basis product warned
    # "invalid value encountered in matmul" (a traceback in this suite)
    # before the eigensolver refused the matrix
    (tmp_path / "s.json").write_text(json.dumps({"dim": 2, **HALF}))
    (tmp_path / "h.json").write_text(json.dumps({
        "levels_in_2pi_over_tau": levels, "tau": tau,
        "basis": array_to_json(np.eye(2))}))
    assert cli.main(["measures", "--state", str(tmp_path / "s.json"),
                     "--ham", str(tmp_path / "h.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tau = ") and err.count("\n") == 1


def test_eigensolve_budget(tmp_path, monkeypatch, capsys):
    # every operand is eigendecomposed once, at load (a pure state once
    # as its density matrix); the purification is built from d x d
    # amplitude matrices, so no solve is ever larger than d, and its
    # ensemble measures A in the basis the one H_A solve gave
    rng = np.random.default_rng(60)
    d = 4
    (tmp_path / "rho.json").write_text(
        json.dumps(array_to_json(random_density(d, rng))))
    (tmp_path / "h.json").write_text(
        json.dumps(array_to_json(random_observable(d, rng))))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    (tmp_path / "psi.json").write_text(
        json.dumps(array_to_json(psi / np.linalg.norm(psi))))
    files = ["--state", str(tmp_path / "rho.json"),
             "--ham", str(tmp_path / "h.json")]
    sizes = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(["measures", *files, "--alpha", "1.5"]) == 0
    assert sizes == [d, d]
    sizes.clear()
    assert cli.main(["purify", *files, "--ensemble"]) == 0
    assert sizes == [d, d, d]   # the state, H and H_A
    sizes.clear()
    assert cli.main(["measures", "--state", str(tmp_path / "psi.json"),
                     "--ham", str(tmp_path / "h.json"), "--alpha", "1.5"]) == 0
    assert sizes == [d, d]
    sizes.clear()
    # a pure state's null block is aligned once, by the builder; the KKT
    # check reads the purification it built
    assert cli.main(["purify", "--state", str(tmp_path / "psi.json"),
                     "--ham", str(tmp_path / "h.json"), "--ensemble"]) == 0
    assert sizes == [d, d, d - 1, d]
    capsys.readouterr()


def _eigh_log(monkeypatch):
    """The 2-D matrices np.linalg.eigh is called on, in call order."""
    mats = []
    eigh = np.linalg.eigh

    def logged(M, *args, **kwargs):
        if M.ndim == 2:
            mats.append(np.array(M))
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", logged)
    return mats


def test_purify_decomposes_a_pure_state_once(fixtures, monkeypatch, capsys):
    # the pure state becomes one DensityMatrix that the builder, the QFI
    # and the KKT check share
    mats = _eigh_log(monkeypatch)
    assert cli.main(["purify", "--state", fixtures["cbit"],
                     "--ham", fixtures["hz_dense"], "--ensemble"]) == 0
    capsys.readouterr()
    assert len(mats) == 3   # the state, H and H_A


def test_distill_never_solves_the_copies_hamiltonian(fixtures, monkeypatch,
                                                     capsys):
    # the 3-copy eigenpairs are sums and Kronecker products of one copy's
    mats = _eigh_log(monkeypatch)
    assert cli.main(["distill", "--in", fixtures["rho"], fixtures["h2"],
                     "--target", fixtures["cbit"], fixtures["h2"],
                     "--copies", "3"]) == 0
    capsys.readouterr()
    # rho at load (the levels files carry their eigenpairs); the spin
    # blocks' bands and chains need no eigensolve, and Omega is never
    # decomposed
    assert [M.shape[0] for M in mats] == [2]
    H3 = np.diag(np.add.outer(np.add.outer([0, 1], [0, 1]), [0, 1]).ravel())
    assert not any(M.shape == H3.shape and np.allclose(M, H3) for M in mats)


@pytest.mark.parametrize("second_ok, code", [(True, 0), (False, 2)])
def test_accept_prints_one_line_per_criterion(monkeypatch, capsys,
                                              second_ok, code):
    # two fake rows stand in for the twelve criteria, so none of them runs
    from coherence_forge import acceptance

    rows = (("first fake", None, lambda: (True, "fine")),
            ("second fake", 5.0, lambda: (second_ok, "detail two")))
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    assert cli.main(["accept"]) == code
    lines = capsys.readouterr().out.splitlines()
    tag = "PASS" if second_ok else "FAIL"
    assert len(lines) == 2
    assert lines[0].startswith("PASS [ 1] first fake (")
    assert lines[0].endswith("s): fine")
    assert lines[1].startswith(f"{tag} [ 2] second fake (")
    assert lines[1].endswith("s): detail two")


def test_cli_import_leaves_acceptance_unloaded():
    # every worker that runs a subcommand compiles what it imports;
    # only accept needs the acceptance module
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, coherence_forge.cli\n"
         "print('coherence_forge.acceptance' in sys.modules)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, os.environ.get("PYTHONPATH", "")])))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


@pytest.mark.parametrize("argv, files, message", [
    # 1e19 grid units wrap negative when cast to int
    (["dist", "--state", "plus", "--ham", "big"],
     {"plus": array_to_json(np.array([1.0, 1.0]) / math.sqrt(2)),
      "big": array_to_json(np.diag([0.0, 1e19]))}, "past 2**53"),
    # 1j * inf in the decoder is (nan + inf j), with a warning
    (["measures", "--state", "inf_im", "--ham", "h2"],
     {"inf_im": '{"dim": 2, "re": [0.6, 0.8], "im": [Infinity, 0.0]}',
      "h2": {"levels_in_2pi_over_tau": [0, 1]}}, "non-finite entry"),
    # the sum of squares of 1e308 overflows in the norm
    (["measures", "--state", "huge", "--ham", "h2"],
     {"huge": array_to_json(np.array([1e308, 0.0])),
      "h2": {"levels_in_2pi_over_tau": [0, 1]}}, "norm is inf"),
], ids=["dense-h-past-the-grid", "infinite-im", "huge-pure-entry"])
def test_bad_input_exits_1_without_a_warning(tmp_path, capsys, argv, files,
                                             message):
    for name, obj in files.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str)
                                     else json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 1 and message in err
