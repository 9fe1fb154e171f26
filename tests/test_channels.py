import json
import math
import os
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

import coherence_forge

from coherence_forge import channels, cli
from coherence_forge.channels import (
    MonotonicityReport,
    apply,
    kraus_channel,
    monotonicity_suite,
    random_channel,
    twirl,
)
from coherence_forge.clockdist import snap_levels
from coherence_forge.config import DEFAULT
from coherence_forge.convert import coherence_cost
from coherence_forge.errors import (
    IncommensurateSpectrumError,
    ValidationError,
)
from coherence_forge.linalg import (
    DensityMatrix,
    HermitianObservable,
    density_matrix,
    observable,
    random_density,
)
from coherence_forge.measures import (
    _qfi,
    purity_of_coherence,
    qfi,
    renyi_purity_monotone,
    skew_information,
)
from coherence_forge.purification import coherence_sectors

TAU = 2 * math.pi


def test_kraus_channel_validation():
    ok = kraus_channel([np.eye(2) / math.sqrt(2), np.eye(2) / math.sqrt(2)])
    assert ok.kraus.shape[1:] == (2, 2)
    with pytest.raises(ValidationError):
        kraus_channel([np.eye(2) * 0.9])
    with pytest.raises(ValidationError):
        kraus_channel([])
    with pytest.raises(ValidationError):
        kraus_channel([np.full((2, 2), np.nan)])
    for bad in ([np.ones(2)], [np.ones((2, 2, 2))], [np.eye(2), np.eye(3)]):
        with pytest.raises(ValidationError, match="Kraus operators (must be "
                           "matrices|have mixed shapes)"):
            kraus_channel(bad)
    # a stacked (rank, d_out, d_in) array: two halves of a 3 x 2 isometry
    stacked = np.stack([np.eye(3)[:, :2], np.eye(3)[:, :2]]) / math.sqrt(2)
    ch = kraus_channel(stacked)
    assert ch.kraus.shape == (2, 3, 2)
    stacked[0] = 0.0   # the channel holds its own copy
    assert ch.kraus[0, 0, 0] != 0.0
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 0.0


def test_random_channel_is_cptp_and_deterministic():
    for seed in (0, 1, 7):
        ch = random_channel(3, 2, 4, seed)
        total = sum(K.conj().T @ K for K in ch.kraus)
        assert np.max(np.abs(total - np.eye(3))) < 1e-12
        ch2 = random_channel(3, 2, 4, seed)
        for a, b in zip(ch.kraus, ch2.kraus):
            assert np.max(np.abs(a - b)) == 0.0
    with pytest.raises(ValidationError):
        random_channel(4, 2, 1, 0)   # rank*d_out < d_in
    with pytest.raises(ValidationError, match=r"^rank must be in \[1, 4\]$"):
        random_channel(2, 2, 0, 0)


def test_channel_refuses_operands_of_the_wrong_dimension():
    ch = random_channel(2, 2, 2, 1)
    with pytest.raises(ValidationError,
                       match="^state dim 3 != channel input dim 2$"):
        apply(ch, random_density(3, 1))
    H2, H3 = np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 2.0])
    dims = "^Hamiltonian dims do not match the channel$"
    for H_in, H_out in ((H3, H2), (H2, H3)):
        with pytest.raises(ValidationError, match=dims):
            twirl(ch, H_in, H_out, TAU)


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(50)
    for seed in range(5):
        ch = random_channel(3, 4, 2, seed)
        rho = random_density(3, rng)
        out = apply(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12
        loop = sum(K @ rho @ K.conj().T for K in ch.kraus)
        assert np.max(np.abs(out - loop)) < 1e-14


# largest covariance residual that still counts as covariant
TI_RESIDUAL = 1e-10


def superoperator(ch):
    """Matrix of the channel on vectorized operators: sum_k K (x) conj(K)."""
    S = np.einsum("kab,kcd->acbd", ch.kraus, ch.kraus.conj())
    return S.reshape(ch.kraus.shape[1] ** 2, ch.kraus.shape[2] ** 2)


def is_ti(ch, H_in, H_out, tau):
    """Exact covariance check on the Bohr-mode mask, apart from twirl.

    The residual is the largest |sum_k K~_ab conj(K~_ce)| over eigenframe
    entries K~ = V_out^dag K V_in whose modes differ, n_out[a] - n_in[b]
    != n_out[c] - n_in[e]; the channel is covariant exactly when every
    such entry vanishes.  Returns (flag, max residual).
    """
    H_in, H_out = observable(H_in), observable(H_out)
    w_in, V_in = H_in.spectrum, H_in.eigenbasis
    w_out, V_out = H_out.spectrum, H_out.eigenbasis
    grid = (snap_levels(w_out, w_out[0], tau)[:, None]
            - snap_levels(w_in, w_in[0], tau)[None, :])
    Kt = V_out.conj().T @ ch.kraus @ V_in
    S = np.einsum("kab,kce->abce", Kt, Kt.conj())
    off = grid[:, :, None, None] != grid[None, None, :, :]
    resid = float(np.max(np.abs(S[off]), initial=0.0))
    return resid < TI_RESIDUAL, resid


def test_superoperator_matches_apply():
    rng = np.random.default_rng(51)
    ch = random_channel(3, 2, 3, 9)
    S = superoperator(ch)
    loop = sum(np.kron(K, K.conj()) for K in ch.kraus)
    assert np.max(np.abs(S - loop)) < 1e-14
    for _ in range(5):
        rho = random_density(3, rng)
        lhs = (S @ rho.ravel()).reshape(2, 2)
        assert np.max(np.abs(lhs - apply(ch, rho))) < 1e-12


def test_twirl_equals_discrete_time_average():
    # the covariance defect of the integrand lives on integer Bohr modes
    # bounded by 2*span, so averaging over 2*span + 1 equally spaced
    # times reproduces the continuous average exactly
    H_in = np.diag([0.0, 1.0, 3.0])
    H_out = np.diag([0.0, 2.0])
    ch = random_channel(3, 2, 3, 123)
    tw = twirl(ch, H_in, H_out, TAU)
    S = superoperator(ch)
    span = 3
    N = 2 * span + 1
    acc = np.zeros_like(superoperator(tw))
    w_in = np.diag(H_in)
    w_out = np.diag(H_out)
    for j in range(N):
        t = TAU * j / N
        U_in = np.diag(np.exp(-1j * w_in * t))
        U_out = np.diag(np.exp(-1j * w_out * t))
        C_in = np.kron(U_in, U_in.conj())
        C_out = np.kron(U_out, U_out.conj())
        acc += C_out.conj().T @ S @ C_in
    acc /= N
    assert np.max(np.abs(acc - superoperator(tw))) < 1e-12


def test_twirl_output_is_ti_and_idempotent():
    rng = np.random.default_rng(52)
    for seed in range(5):
        d_in, d_out = 3, 3
        H_in = np.diag([0.0, 1.0, 2.0])
        H_out = np.diag([0.0, 1.0, 3.0])
        ch = random_channel(d_in, d_out, 2, seed)
        flag, resid = is_ti(ch, H_in, H_out, TAU)
        tw = twirl(ch, H_in, H_out, TAU)
        flag_tw, resid_tw = is_ti(tw, H_in, H_out, TAU)
        assert flag_tw and resid_tw < 1e-12
        tw2 = twirl(tw, H_in, H_out, TAU)
        assert np.max(np.abs(superoperator(tw2) - superoperator(tw))) < 1e-12
        # a generic channel is not covariant
        assert not flag


def _sampled_is_ti(ch, H_in, H_out, tau):
    """Reference covariance check on the superoperator at sampled times.

    The covariance defect is a trigonometric polynomial whose frequencies
    are bounded by the larger integer level span, so vanishing at
    2*max_span + 2 equally spaced times in [0, tau) implies vanishing for
    all t.  Returns (flag, max residual).
    """
    w_in, V_in = np.linalg.eigh(H_in)
    w_out, V_out = np.linalg.eigh(H_out)
    n_in = snap_levels(w_in, w_in[0], tau)
    n_out = snap_levels(w_out, w_out[0], tau)
    S = sum(np.kron(K, K.conj()) for K in ch.kraus)
    span = max(int(n_in.max() - n_in.min()),
               int(n_out.max() - n_out.min()))
    n_t = 2 * span + 2
    resid = 0.0
    for j in range(n_t):
        t = tau * j / n_t
        U_in = (V_in * np.exp(-1j * w_in * t)) @ V_in.conj().T
        U_out = (V_out * np.exp(-1j * w_out * t)) @ V_out.conj().T
        C_in = np.kron(U_in, U_in.conj())
        C_out = np.kron(U_out, U_out.conj())
        resid = max(resid, float(np.max(np.abs(S @ C_in - C_out @ S))))
    return resid < TI_RESIDUAL, resid


def _rotated_integer_hamiltonian(d, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d)))
    return (Q * rng.integers(0, 4, size=d).astype(float)) @ Q.conj().T


def _perturbed_cptp(ch, eps, rng):
    # K + eps*E, then right-multiplied by T^{-1/2}, T = sum K^dag K
    K = ch.kraus + eps * (rng.normal(size=ch.kraus.shape)
                          + 1j * rng.normal(size=ch.kraus.shape))
    w, V = np.linalg.eigh(np.einsum("kab,kac->bc", K.conj(), K))
    return kraus_channel(K @ ((V / np.sqrt(w)) @ V.conj().T))


def test_is_ti_matches_sampled_reference():
    # random channels, their twirls, and twirls nudged off the mode mask
    flags = {"random": [], "twirl": [], "perturbed": []}
    for seed in range(200):
        rng = np.random.default_rng([77, seed])
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        H_in = _rotated_integer_hamiltonian(d_in, rng)
        H_out = _rotated_integer_hamiltonian(d_out, rng)
        rank = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        ch = random_channel(d_in, d_out, rank, rng)
        tw = twirl(ch, H_in, H_out, TAU)
        cases = {"random": ch, "twirl": tw,
                 "perturbed": _perturbed_cptp(tw, 1e-6, rng)}
        for kind, c in cases.items():
            flag, _ = is_ti(c, H_in, H_out, TAU)
            assert flag == _sampled_is_ti(c, H_in, H_out, TAU)[0], \
                (seed, kind)
            flags[kind].append(flag)
    assert all(flags["twirl"])
    # both verdicts occur: covariant ones only where a spectrum is flat
    assert sum(flags["random"]) < 50
    assert sum(flags["perturbed"]) < 50


def test_twirl_matches_per_mode_split():
    # reference: split each Kraus operator mode by mode, in a loop
    for seed in range(20):
        rng = np.random.default_rng([78, seed])
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        H_in = _rotated_integer_hamiltonian(d_in, rng)
        H_out = _rotated_integer_hamiltonian(d_out, rng)
        ch = random_channel(d_in, d_out, d_in, rng)
        w_in, V_in = np.linalg.eigh(H_in)
        w_out, V_out = np.linalg.eigh(H_out)
        grid = (snap_levels(w_out, w_out[0], TAU)[:, None]
                - snap_levels(w_in, w_in[0], TAU)[None, :])
        ops = []
        for K in ch.kraus:
            Kt = V_out.conj().T @ K @ V_in
            for mode in np.unique(grid):
                comp = np.where(grid == mode, Kt, 0.0)
                if np.max(np.abs(comp)) > DEFAULT.pair_cutoff:
                    ops.append(V_out @ comp @ V_in.conj().T)
        tw = twirl(ch, H_in, H_out, TAU)
        assert np.max(np.abs(tw.kraus - np.array(ops))) < 1e-13


def test_twirl_modes_annotated():
    H_in = np.diag([0.0, 1.0])
    H_out = np.diag([0.0, 1.0])
    ch = random_channel(2, 2, 2, 5)
    tw = twirl(ch, H_in, H_out, TAU)
    grid = np.subtract.outer(np.arange(2), np.arange(2))
    for K in tw.kraus:
        # each operator only connects levels with one n_out - n_in
        assert len(set(grid[np.abs(K) >= 1e-14].tolist())) == 1


def test_ti_channels_cannot_create_coherence():
    rng = np.random.default_rng(53)
    H = np.diag([0.0, 1.0, 2.0])
    rho = np.diag(rng.dirichlet(np.ones(3)))
    for seed in range(10):
        tw = twirl(random_channel(3, 3, 3, seed), H, H, TAU)
        out = apply(tw, rho)
        assert qfi(out, H) < 1e-10


def test_output_gap_gcd_divisible_by_input_gcd():
    # each twirled Kraus operator carries one mode, so output coherence
    # at gap g needs input coherence at the same gap; the output gcd is
    # then a multiple of the input gcd (or 0 for incoherent outputs)
    H = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
    psi = np.zeros(5)
    psi[0] = psi[2] = psi[4] = 1.0 / math.sqrt(3)   # gaps {2, 4}, gcd 2
    rho = np.outer(psi, psi)
    _, g_in = coherence_sectors(rho, H, TAU)
    assert g_in == 2
    for seed in range(10):
        tw = twirl(random_channel(5, 5, 3, seed), H, H, TAU)
        out = apply(tw, rho)
        _, g_out = coherence_sectors(out, H, TAU)
        assert g_out % 2 == 0


def test_twirl_rejects_incommensurate_hamiltonian():
    ch = random_channel(2, 2, 2, 3)
    with pytest.raises(IncommensurateSpectrumError):
        twirl(ch, np.diag([0.0, math.e]), np.diag([0.0, 1.0]), TAU)


def test_monotonicity_small_runs():
    for mid in ("F", "P", "W", "cost"):
        rep = monotonicity_suite(mid, trials=100, seed=2)
        assert rep.violations == 0
        assert rep.max_violation < 1e-8
    rep = monotonicity_suite("renyi", trials=100, seed=2, alpha=1.5)
    assert rep.violations == 0
    assert rep.alpha == 1.5


def _reference_phase_fixed_qr(G):
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    mag = np.abs(diag)
    phase = np.where(mag > 0, diag / np.where(mag > 0, mag, 1.0), 1.0)
    return Q * phase.conj()


def _reference_hamiltonian(d, rng):
    levels = rng.integers(0, 4, size=d)
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q = _reference_phase_fixed_qr(G)
    return (Q * levels.astype(float)) @ Q.conj().T


def _reference_measure(measure_id, rho, H, tau, alpha):
    if measure_id == "F":
        return qfi(rho, H)
    if measure_id == "P":
        return purity_of_coherence(rho, H)
    if measure_id == "W":
        return skew_information(rho, H)
    if measure_id == "renyi":
        return renyi_purity_monotone(rho, H, alpha)
    return coherence_cost(rho, H, tau)


def _reference_suite(measure_id, trials, seed, alpha=1.5):
    """The suite as a loop over single trials, each measure called once
    per state; also counts the outputs sigma without full support."""
    tau = 2.0 * math.pi
    worst, worst_trial, violations, deficient = -math.inf, -1, 0, 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        H_in = _reference_hamiltonian(d_in, rng)
        H_out = _reference_hamiltonian(d_out, rng)
        G = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        rho = G @ G.conj().T
        rho = rho / np.trace(rho).real
        rank_min = -(-d_in // d_out)
        rank = int(rng.integers(rank_min, d_in * d_out + 1))
        ch = random_channel(d_in, d_out, rank, rng)
        sigma = apply(twirl(ch, H_in, H_out, tau), rho)
        deficient += np.count_nonzero(density_matrix(sigma).spectrum
                                      > DEFAULT.rank_cutoff) < d_out
        v_in = _reference_measure(measure_id, rho, H_in, tau, alpha)
        v_out = _reference_measure(measure_id, sigma, H_out, tau, alpha)
        if v_in == v_out == math.inf:
            gap = 0.0
        else:
            gap = v_out - v_in
        if gap > worst:
            worst, worst_trial = gap, t
        if gap > 1e-8:
            violations += 1
    rep = MonotonicityReport(
        measure=measure_id, trials=trials, seed=seed,
        max_violation=worst, worst_trial=worst_trial,
        violations=violations,
        alpha=alpha if measure_id == "renyi" else None)
    return rep, deficient


@pytest.mark.parametrize("measure_id, alpha", [
    ("F", 1.5), ("P", 1.5), ("W", 1.5), ("renyi", 1.5), ("renyi", 2.0),
    ("cost", 1.5)])
def test_suite_matches_per_trial_reference(measure_id, alpha):
    # the stacked suite must reproduce the loop bit for bit; seeds 11, 16
    # and 47 hold outputs without full support, which P and renyi measure
    # with the same stacked kernels as full-rank ones
    deficient = 0
    for seed in (0, 11, 16, 47):
        ref, n = _reference_suite(measure_id, 40, seed, alpha)
        deficient += n
        rep = monotonicity_suite(measure_id, trials=40, seed=seed,
                                 alpha=alpha)
        assert repr(rep) == repr(ref)
    assert deficient > 0


def test_suite_blocks_match_per_trial_reference():
    # one full block and a partial one; the worst trial is in the second
    trials = channels._BLOCK + 7
    ref, deficient = _reference_suite("P", trials, 11)
    assert repr(monotonicity_suite("P", trials=trials, seed=11)) == repr(ref)
    assert deficient > 0


@pytest.mark.parametrize("measure_id", ["F", "P"])
def test_suite_eigensolve_budget(measure_id, monkeypatch, capsys):
    # per block and dimension, one stacked solve each for the
    # Hamiltonians, the states and the outputs; apply and the measures
    # read those eigenpairs, so no single matrix is decomposed
    stacks = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        stacks.append(M.shape[:-2])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(["proptest", "--measure", measure_id, "--trials", "300",
                     "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(stacks) == 18
    assert all(len(s) == 1 for s in stacks)
    assert sum(s[0] for s in stacks) == 1200


@pytest.mark.parametrize("core", ["_random_kraus", "_twirl"])
def test_suite_refuses_a_channel_that_is_not_cptp(core, monkeypatch):
    # trial 3's random or twirled channel misses sum K^dag K = I by 1e-6;
    # the block's stacked check of the random channels, made before any
    # twirl, or of the twirled ones, made after all of them, refuses it
    calls = {"_random_kraus": 0, "_twirl": 0}

    def counted(name):
        real = getattr(channels, name)

        def wrapped(*args):
            K = real(*args)
            calls[name] += 1
            if name == core and calls[name] == 4:
                K = K * math.sqrt(1.0 + 1e-6)
            return K
        return wrapped

    for name in calls:
        monkeypatch.setattr(channels, name, counted(name))
    with pytest.raises(ValidationError, match="misses identity by 1.000e-06"):
        monotonicity_suite("F", trials=10, seed=0)
    assert calls == {"_random_kraus": 10,
                     "_twirl": 0 if core == "_random_kraus" else 10}


def test_suite_validates_before_drawing(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(channels.np.random, "default_rng", no_draws)
    for kw in ({"measure_id": "nope"}, {"measure_id": "F", "trials": 0},
               {"measure_id": "renyi", "alpha": 2.5},
               {"measure_id": "renyi", "alpha": 1.0},
               {"measure_id": "F", "seed": -1},
               {"measure_id": "F", "seed": True},
               {"measure_id": "F", "seed": 1.0}):
        with pytest.raises(ValidationError):
            monotonicity_suite(**kw)
    # numpy refuses a negative seed only once it draws, with a traceback;
    # the environment's seed is read when --seed is not given
    monkeypatch.setenv("COHERENCE_FORGE_SEED", "-7")
    for argv in (["--measure", "renyi", "--alpha", "2.5"],
                 ["--trials", "3", "--seed", "-1"], ["--trials", "3"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["proptest", *argv])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_stacked_support_measures_match_public_functions():
    # full-rank, rank-deficient with a commuting support, and leaking
    # states, stacked by dimension: P and renyi give each row the value
    # of the public function, inf on the rows whose support leaks
    rng = np.random.default_rng(31)
    plus = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    flat = np.ones(3) / math.sqrt(3)
    H3 = observable(np.diag([0.0, 1.0, 2.0]))
    H2 = observable(np.diag([0.5, -0.5]))
    states = [
        random_density(3, rng),
        0.6 * np.outer(plus, plus) + 0.2 * np.diag([1.0, 1.0, 0.0]),
        0.5 * np.outer(flat, flat) + 0.5 * np.diag([1.0, 0.0, 0.0]),
        random_density(2, rng),
        np.outer(plus[:2], plus[:2]),
        np.diag([0.0, 1.0]),
    ]
    hams = [H3, H3, H3, H2, H2, H2]
    for measure_id, alpha, public in (
            ("P", 1.5, purity_of_coherence),
            ("renyi", 1.5, lambda r, h: renyi_purity_monotone(r, h, 1.5)),
            ("renyi", 2.0, lambda r, h: renyi_purity_monotone(r, h, 2.0))):
        measured = partial(channels._measured,
                           channels._suite_measure(measure_id, alpha))
        got = [float(v) for _, v in channels._by_dim(
            measured, [h.matrix for h in hams], states)]
        want = [public(r, h) for r, h in zip(states, hams)]
        assert got == want
        assert [v == math.inf for v in got] == [False, False, True,
                                               False, True, False]
        assert got[1] > 0.0


def test_suite_builds_no_container_and_one_pass_per_stack(monkeypatch):
    # a block builds, solves and measures each stack in one _by_dim pass
    # (Hamiltonians, input states, outputs) and wraps no eigenpairs in
    # containers; 300 trials are one full block and a partial one
    built, passes = [], []
    for cls in (HermitianObservable, DensityMatrix):
        def init(self, *args, _real=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    by_dim = channels._by_dim

    def counted(*args):
        passes.append(1)
        return by_dim(*args)

    monkeypatch.setattr(channels, "_by_dim", counted)
    monotonicity_suite("P", trials=300, seed=1)
    assert built == []
    assert len(passes) == 3 * 2
    # the patched constructors do count
    density_matrix(np.eye(2) / 2)
    assert set(built) == {"HermitianObservable", "DensityMatrix"}


def test_proptest_exits_on_the_suites_violation_count(monkeypatch, capsys):
    # a gap of exactly VIOLATION is no violation, for the report and
    # for the exit code alike
    monkeypatch.setattr(channels, "_gap", lambda v_in, v_out: 1e-8)
    rep = monotonicity_suite("F", trials=5, seed=0)
    assert (rep.violations, rep.max_violation) == (0, 1e-8)
    rc = cli.main(["proptest", "--measure", "F", "--trials", "5",
                   "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert (out["violations"], out["max_violation"]) == (0, 1e-8)
    assert rc == 0


def test_nan_measure_fails_the_suite(monkeypatch, capsys):
    # a NaN compares false both ways; it must count as a violation and
    # not be passed over as neither worst nor violating
    def poisoned(p, A):
        v = _qfi(p, A)
        if not hits:
            v[0] = math.nan
        hits.append(1)
        return v

    monkeypatch.setattr(channels, "_qfi", poisoned)
    hits = []
    rep = monotonicity_suite("F", trials=10, seed=0)
    assert rep.violations == 1
    assert rep.max_violation == math.inf
    hits = []
    rc = cli.main(["proptest", "--measure", "F", "--trials", "10",
                   "--seed", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["violations"] == 1


def test_proptest_does_not_import_numpy_ma():
    # np.unique pulls in numpy.ma (about 1.7 MB resident); a fresh
    # interpreter that twirls must not load it
    src = os.path.dirname(os.path.dirname(coherence_forge.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from coherence_forge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['proptest', '--trials', '5', '--seed', '1'])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "False"]
