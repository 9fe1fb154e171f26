import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coherence_forge

from coherence_forge.channels import (
    apply,
    is_ti,
    kraus_channel,
    monotonicity_suite,
    random_channel,
    superoperator,
    twirl,
)
from coherence_forge.clockdist import snap_levels
from coherence_forge.config import DEFAULT
from coherence_forge.errors import (
    DimMismatchError,
    IncommensurateSpectrumError,
    ValidationError,
)
from coherence_forge.linalg import eig_hermitian, random_density
from coherence_forge.measures import qfi
from coherence_forge.purification import coherence_sectors

TAU = 2 * math.pi


def test_kraus_channel_validation():
    ok = kraus_channel([np.eye(2) / math.sqrt(2), np.eye(2) / math.sqrt(2)])
    assert ok.d_in == ok.d_out == 2
    with pytest.raises(ValidationError):
        kraus_channel([np.eye(2) * 0.9])
    with pytest.raises(ValidationError):
        kraus_channel([])
    with pytest.raises(ValidationError):
        kraus_channel([np.full((2, 2), np.nan)])
    for bad in ([np.ones(2)], [np.ones((2, 2, 2))], [np.eye(2), np.eye(3)]):
        with pytest.raises(DimMismatchError):
            kraus_channel(bad)
    # a stacked (rank, d_out, d_in) array: two halves of a 3 x 2 isometry
    stacked = np.stack([np.eye(3)[:, :2], np.eye(3)[:, :2]]) / math.sqrt(2)
    ch = kraus_channel(stacked)
    assert ch.kraus.shape == (2, 3, 2)
    assert (ch.d_out, ch.d_in) == (3, 2)
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


def _sampled_is_ti(ch, H_in, H_out, tau, tols=DEFAULT):
    """Reference covariance check on the superoperator at sampled times.

    The covariance defect is a trigonometric polynomial whose frequencies
    are bounded by the larger integer level span, so vanishing at
    2*max_span + 2 equally spaced times in [0, tau) implies vanishing for
    all t.  Returns (flag, max residual).
    """
    w_in, V_in = np.linalg.eigh(H_in)
    w_out, V_out = np.linalg.eigh(H_out)
    n_in = snap_levels(w_in, w_in[0], tau, tols)
    n_out = snap_levels(w_out, w_out[0], tau, tols)
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
    return resid < tols.ti_residual, resid


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
        ops, modes = [], []
        for K in ch.kraus:
            Kt = V_out.conj().T @ K @ V_in
            for mode in np.unique(grid):
                comp = np.where(grid == mode, Kt, 0.0)
                if np.max(np.abs(comp)) > DEFAULT.pair_cutoff:
                    ops.append(V_out @ comp @ V_in.conj().T)
                    modes.append(int(mode))
        tw = twirl(ch, H_in, H_out, TAU)
        assert tw.mode_index == tuple(modes)
        assert np.max(np.abs(tw.kraus - np.array(ops))) < 1e-13


def test_twirl_modes_annotated():
    H_in = np.diag([0.0, 1.0])
    H_out = np.diag([0.0, 1.0])
    ch = random_channel(2, 2, 2, 5)
    tw = twirl(ch, H_in, H_out, TAU)
    assert len(tw.mode_index) == len(tw.kraus)
    for m, K in zip(tw.mode_index, tw.kraus):
        # mode m operators only connect levels with n_out - n_in = m
        for a in range(2):
            for b in range(2):
                if a - b != m:
                    assert abs(K[a, b]) < 1e-14


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
    _, g_in = coherence_sectors(rho, H, TAU, DEFAULT)
    assert g_in == 2
    for seed in range(10):
        tw = twirl(random_channel(5, 5, 3, seed), H, H, TAU)
        out = apply(tw, rho)
        _, g_out = coherence_sectors(out, H, TAU, DEFAULT)
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
    with pytest.raises(ValidationError):
        monotonicity_suite("nope", trials=1)


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
