import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import coherence_forge

from coherence_forge.config import DEFAULT
from coherence_forge.distill import (
    OmegaState,
    SdpResult,
    SectorMatrix,
    cirac_comparison,
    conditional_min_entropy,
    distillation_copy_floor,
    iid_fidelity,
    iid_omega_state,
    is_bound_resource,
    qubit_infidelity_bound,
    verify_certificate,
)
from coherence_forge.errors import (
    CertificateError,
    IncommensurateSpectrumError,
    ValidationError,
)
from coherence_forge.linalg import (
    DensityMatrix,
    HermitianObservable,
    density_matrix,
    level_labels,
    observable,
    pure_state,
    random_density,
    random_observable,
)
from coherence_forge.distill import (
    _chain,
    _min_trace_sdp,
    _qubit_frame,
    _schur_blocks,
    _sectors,
    _Sectors,
    _spin_omega,
)

TAU = 2 * math.pi
H_CBIT = np.diag([math.pi / TAU, -math.pi / TAU])
CBIT = np.array([1.0, 1.0]) / math.sqrt(2)


def dephase(rho, H):
    """Project rho onto the eigenspaces of H (pinching), with eigenvalues
    grouped into levels by level_labels."""
    H = observable(H)
    V, lab = H.eigenbasis, level_labels(H.spectrum)
    rt = V.conj().T @ rho @ V
    return V @ (rt * (lab[:, None] == lab[None, :])) @ V.conj().T


def as_entries(M):
    """Test-only: a dense matrix as the SectorMatrix of its nonzero
    entries."""
    M = np.asarray(M)
    rows, cols = np.nonzero(M)
    return SectorMatrix(rows, cols, M[rows, cols])


def as_dense(S, n):
    """Test-only: the n x n matrix of a SectorMatrix's entries."""
    M = np.zeros((n, n), dtype=complex)
    np.add.at(M, (S.rows, S.cols), S.values)
    return M


# the dense oracle of a spin block's rho_j, one eigh of n.J apart from the
# band sweep of _schur_blocks
def spin_state(s, P: int) -> DensityMatrix:
    """rho_j of side P = 2j + 1 as a dense DensityMatrix in _schur_blocks'
    basis, for a block the chain declines: with s = (I + r n.sigma)/2, it
    is diagonal in the eigenbasis of n.J (one eigh of a tridiagonal
    matrix; s = I/2 keeps the J_z basis) with weight a^(j+mu) b^(j-mu),
    a, b = (1 +- r)/2, on its eigenvalue mu, and comes with that
    eigendecomposition."""
    rz, s01 = float((s[0, 0] - s[1, 1]).real), complex(s[0, 1])
    r = min(1.0, math.hypot(rz, 2.0 * abs(s01)))
    i = np.arange(P)
    e_b = (P - 1 - i).astype(float)
    # a^i b^(P - 1 - i) on mu = i - j, with 0 log 0 = 0
    log_w = i * math.log((1.0 + r) / 2.0) + np.multiply(
        e_b, math.log((1.0 - r) / 2.0) if r < 1.0 else -math.inf,
        out=np.zeros(P), where=e_b > 0)
    w = np.exp(log_w - np.logaddexp.reduce(log_w))
    if r > 0.0:
        # r n.J in the basis m = j - i: r_z m on the diagonal, and
        # sigma_01 <m+1|J_+|m> above it
        off = (s01 / r) * np.sqrt((i[1:] * (P - i[1:])).astype(float))
        nJ = (np.diag((rz / r) * ((P - 1) / 2.0 - i)).astype(complex)
              + np.diag(off, 1) + np.diag(off.conj(), -1))
        U = np.linalg.eigh(nJ)[1]
    else:
        U = np.eye(P, dtype=complex)
    rho = (U * w) @ U.conj().T
    return DensityMatrix(matrix=0.5 * (rho + rho.conj().T), spectrum=w,
                         eigenbasis=U)


def single_sector(Om, d_A, d_B):
    """A joint state on A (x) B with no time-translation structure: one
    sector, so the SDP runs on the full space."""
    return OmegaState(matrix=as_entries(np.asarray(Om, dtype=complex)),
                      sectors=np.zeros((d_A, d_B), dtype=int))


def test_dephase_projects_and_is_idempotent():
    rng = np.random.default_rng(6)
    rho = random_density(4, rng)
    H = np.diag([0.0, 0.0, 1.0, 2.0])
    deph = dephase(rho, H)
    assert np.max(np.abs(dephase(deph, H) - deph)) < 1e-12
    assert np.max(np.abs(deph @ H - H @ deph)) < 1e-12
    # the degenerate 2x2 block survives
    assert np.max(np.abs(deph[:2, :2] - rho[:2, :2])) < 1e-12
    assert abs(deph[0, 2]) < 1e-14


def qubit(lam):
    """Full-rank coherent qubit: lam |+><+| + (1-lam) I/2."""
    return lam * np.outer(CBIT, CBIT) + (1 - lam) * np.eye(2) / 2


def test_is_bound_resource():
    assert is_bound_resource(qubit(0.6), H_CBIT)
    # incoherent: no resource at all
    assert not is_bound_resource(np.diag([0.7, 0.3]), H_CBIT)
    # pure coherent: support leaks, purity diverges, rate is positive
    assert not is_bound_resource(np.outer(CBIT, CBIT), H_CBIT)


def test_is_bound_resource_decomposes_plain_operands_once(monkeypatch):
    # rho and H are coerced once, for both the support test and the QFI
    rng = np.random.default_rng(68)
    rho, H = random_density(3, rng), random_observable(3, rng)
    sizes = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert is_bound_resource(rho, H)
    assert sizes == [3, 3]


def test_copy_floor_frozen_value():
    floor = distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, 0.01)
    # 0.25 * 197 / 0.5625
    assert abs(floor - 49.25 / 0.5625) < 1e-10
    half = distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, 0.01,
                                   prob=0.5)
    assert abs(half - floor / 2) < 1e-10


@pytest.mark.parametrize("lam", [0.4, 0.6, 0.9])
def test_copy_floor_reads_eps_as_a_trace_norm(lam):
    # one copy passed through the identity channel is within trace norm
    # 1 - lam of the target, so the floor at that eps is at most one
    # copy: 1 - ((1 - lam)/(2 lam))**2.  Its infidelity (1 - lam)/2 taken
    # as eps would demand 28/9 copies at lam = 0.6, more than that one.
    eps = float(np.sum(np.abs(np.linalg.eigvalsh(
        qubit(lam) - np.outer(CBIT, CBIT)))))
    assert abs(eps - (1 - lam)) < 1e-12
    floor = distillation_copy_floor(qubit(lam), H_CBIT, CBIT, H_CBIT, eps)
    assert abs(floor - (1 - ((1 - lam) / (2 * lam)) ** 2)) < 1e-12
    assert floor <= 1.0
    if lam == 0.6:
        as_infidelity = distillation_copy_floor(qubit(lam), H_CBIT, CBIT,
                                                H_CBIT, (1 - lam) / 2)
        assert abs(as_infidelity - 28 / 9) < 1e-12


def test_copy_floor_edge_cases():
    # V (2/eps - 3) is a floor only for eps in (0, 2/3)
    for bad in (0.0, 2.0 / 3.0, 1.0):
        with pytest.raises(ValidationError):
            distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, bad)
    with pytest.raises(ValidationError):
        distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, 0.01,
                                prob=0.0)
    # incoherent target demands nothing
    zero = distillation_copy_floor(qubit(0.6), H_CBIT,
                                   np.array([1.0, 0.0]), H_CBIT, 0.01)
    assert zero == 0.0
    # unbounded purity source pays nothing
    free = distillation_copy_floor(np.outer(CBIT, CBIT), H_CBIT,
                                   CBIT, H_CBIT, 0.01)
    assert free == 0.0
    # incoherent source can never deliver
    stuck = distillation_copy_floor(np.diag([0.7, 0.3]), H_CBIT,
                                    CBIT, H_CBIT, 0.01)
    assert stuck == math.inf


def test_omega_state_oracle_by_difference_hamiltonian():
    # with both Hamiltonians diagonal the construction reduces to
    # dephasing kron(sigma, conj-target) over the eigenspaces of
    # H_A (x) I - I (x) H_B, which dephase() computes directly
    rng = np.random.default_rng(60)
    for _ in range(10):
        d_A, d_B = 3, 2
        sigma = random_density(d_A, rng)
        H_A = np.diag(np.sort(rng.integers(0, 4, size=d_A)).astype(float))
        H_B = np.diag(np.sort(rng.integers(0, 3, size=d_B)).astype(float))
        psi = rng.normal(size=d_B) + 1j * rng.normal(size=d_B)
        psi = psi / np.linalg.norm(psi)
        om = iid_omega_state(sigma, H_A, psi, H_B, 1)
        bar = psi.conj()
        M0 = np.kron(sigma, np.outer(bar, bar.conj()))
        Delta = np.kron(H_A, np.eye(d_B)) - np.kron(np.eye(d_A), H_B)
        assert np.max(np.abs(as_dense(om.matrix, d_A * d_B)
                             - dephase(M0, Delta))) < 1e-10
        assert om.sectors.shape == (d_A, d_B)


def test_omega_state_eigenstate_target_factorizes():
    rng = np.random.default_rng(61)
    sigma = random_density(3, rng)
    H_A = np.diag([0.0, 1.0, 2.0])
    H_B = np.diag([0.0, 1.0])
    psi = np.array([0.0, 1.0])
    om = iid_omega_state(sigma, H_A, psi, H_B, 1)
    want = np.kron(dephase(sigma, H_A), np.outer(psi, psi))
    assert np.max(np.abs(as_dense(om.matrix, 6) - want)) < 1e-12


def test_omega_state_reads_cached_hamiltonian_spectra(monkeypatch):
    # observables lend their cached eigenpairs, which are the ones a
    # plain matrix would give: the same Omega, and only the source's own
    # validation solve, at its own size
    rng = np.random.default_rng(62)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    H_A = U @ np.diag([0.0, 1.0, 2.0]) @ U.conj().T
    H_B = np.diag([0.0, 1.0])
    sigma = random_density(3, rng)
    plain = iid_omega_state(sigma, H_A, CBIT, H_B, 1)
    obs_A, obs_B = observable(H_A), observable(H_B)
    sizes = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cached = iid_omega_state(sigma, obs_A, CBIT, obs_B, 1)
    assert sizes == [3]
    assert np.array_equal(as_dense(cached.matrix, 6),
                          as_dense(plain.matrix, 6))


@pytest.mark.parametrize("sigma, psi, match", [
    (np.diag([1.2, -0.2]), CBIT, "negative eigenvalue"),
    (np.diag([0.6, 0.6]), CBIT, "trace"),
    (qubit(0.6), 2 * CBIT, "norm"),   # refused, not normalised
])
def test_omega_state_refuses_bad_inputs_before_tensor_powers(
        monkeypatch, sigma, psi, match):
    # sigma is checked as a 2 x 2 state and psi_B as a unit vector, each
    # at its own size, before any n-copy array exists
    def no_sectors(*args, **kwargs):
        raise AssertionError("n-copy sectors built")

    monkeypatch.setattr(coherence_forge.distill, "_sectors", no_sectors)
    with pytest.raises(ValidationError, match=match):
        iid_omega_state(sigma, H_CBIT, psi, H_CBIT, 3)


@pytest.mark.parametrize("copies", [2.0, 2.5, True, "2", None])
def test_copies_must_be_an_integer(copies):
    # refused before any other check: sigma here is no state
    bad = np.diag([1.2, -0.2])
    for sigma, H in ((bad, H01), (qubit(0.6), H01),
                     (random_density(3, 1), np.diag([0.0, 1.0, 3.0]))):
        with pytest.raises(ValidationError, match="copies must be an integer"):
            iid_fidelity(sigma, H, CBIT, H01, copies)
        with pytest.raises(ValidationError, match="copies must be an integer"):
            iid_omega_state(sigma, H, CBIT, H01, copies)


def test_numpy_integer_copies_are_accepted():
    want = iid_fidelity(qubit(0.6), H01, CBIT, H01, 2)
    assert iid_fidelity(qubit(0.6), H01, CBIT, H01, np.int64(2)) == want
    om = iid_omega_state(qubit(0.6), H01, CBIT, H01, np.int32(2))
    assert np.array_equal(as_dense(om.matrix, 8), as_dense(iid_omega_state(
        qubit(0.6), H01, CBIT, H01, 2).matrix, 8))


def test_omega_state_at_the_side_budget_solves_no_wide_matrix(monkeypatch):
    # a 32-level source and a 32-level target make Omega 1024 wide; only
    # sigma, H and H_B are decomposed, each 32 x 32
    d = 32
    H = np.diag(np.arange(d, dtype=float))
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def counted(M, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes.append(M.shape[-1])
            return _solve(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    om = iid_omega_state(random_density(d, 67), H, np.ones(d) / math.sqrt(d),
                         H, 1)
    assert om.sectors.shape == (d, d)
    assert sizes == [d, d, d]


def test_omega_state_ambiguous_difference_spectrum():
    sigma = np.eye(2) / 2
    H_A = np.diag([0.0, 1e-6])
    H_B = np.diag([0.0])
    with pytest.raises(IncommensurateSpectrumError):
        iid_omega_state(sigma, H_A, np.array([1.0]), H_B, 1)


def test_sdp_uniform_and_entangled():
    Om = np.eye(4) / 4
    res = _min_trace_sdp(single_sector(Om, 2, 2))
    assert abs(res.optimum - 0.5) < 1e-6
    assert res.primal_dual_gap < 1e-7
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    res = _min_trace_sdp(single_sector(np.outer(phi, phi), 2, 2))
    assert abs(res.optimum - 2.0) < 1e-6


def test_sdp_block_diagonal_oracle():
    # Omega = sum_k |k><k|_A (x) B_k: the constraint decouples per block
    # and the optimum is the sum of the block spectral radii.  Trace-
    # normalized, matching the density matrices the solver sees in use.
    rng = np.random.default_rng(62)
    d_A, d_B = 3, 2
    Om = np.zeros((d_A * d_B, d_A * d_B), dtype=complex)
    for k in range(d_A):
        G = rng.normal(size=(d_B, d_B)) + 1j * rng.normal(size=(d_B, d_B))
        B = G @ G.conj().T / 4
        e_k = np.zeros((d_A, d_A))
        e_k[k, k] = 1.0
        Om += np.kron(e_k, B)
    Om = Om / np.trace(Om).real
    expect = 0.0
    for k in range(d_A):
        expect += float(np.max(np.linalg.eigvalsh(
            Om[k * d_B:(k + 1) * d_B, k * d_B:(k + 1) * d_B])))
    res = _min_trace_sdp(single_sector(Om, d_A, d_B))
    assert abs(res.optimum - expect) < 1e-6


def test_sdp_certificates():
    rng = np.random.default_rng(63)
    for trial in range(5):
        d_A, d_B = 2, 3
        G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        Om = G @ G.conj().T
        Om = Om / np.trace(Om).real
        res = _min_trace_sdp(single_sector(Om, d_A, d_B))
        assert res.primal_dual_gap < 1e-7
        # primal feasibility of tau
        slack = np.kron(as_dense(res.tau, d_A), np.eye(d_B)) - Om
        assert np.min(np.linalg.eigvalsh(slack)) > -1e-9
        # dual feasibility of X: PSD with Tr_B X <= I
        X = as_dense(res.dual_certificate, d_A * d_B)
        assert np.min(np.linalg.eigvalsh(X)) > -1e-11
        TrB = np.zeros((d_A, d_A), dtype=complex)
        for i in range(d_A):
            for j in range(d_A):
                TrB[i, j] = np.trace(
                    X[i * d_B:(i + 1) * d_B, j * d_B:(j + 1) * d_B])
        assert np.max(np.linalg.eigvalsh((TrB + TrB.conj().T) / 2)) < 1 + 1e-8
        # weak duality sandwich
        dual_val = float(np.trace(X @ Om).real)
        assert dual_val <= res.optimum + 1e-7


def test_min_entropy_fidelity_qubit():
    # one copy: best fidelity (1 + lam)/2
    for lam in (0.3, 0.6, 0.9):
        om = iid_omega_state(qubit(lam), H_CBIT, CBIT, H_CBIT, 1)
        f = conditional_min_entropy(om).optimum
        assert abs(f - (1 + lam) / 2) < 1e-6


def test_min_entropy_fidelity_three_copies():
    lam = 0.6
    rho3 = qubit(lam)
    rho3 = np.kron(np.kron(rho3, rho3), rho3)
    H1 = np.diag([0.0, 1.0])
    H3 = (np.kron(np.kron(H1, np.eye(2)), np.eye(2))
          + np.kron(np.kron(np.eye(2), H1), np.eye(2))
          + np.kron(np.kron(np.eye(2), np.eye(2)), H1))
    om = iid_omega_state(rho3, H3, CBIT, np.diag([0.0, 1.0]), 1)
    f = conditional_min_entropy(om).optimum
    assert abs(f - 0.868339) < 1e-5


def test_qubit_infidelity_bound_frozen():
    exact, asym = qubit_infidelity_bound(0.6, 10)
    assert abs(exact - 0.039279) < 1e-5
    assert abs(asym - (1 - 0.36) / (4 * 0.36 * 10)) < 1e-15
    with pytest.raises(ValidationError):
        qubit_infidelity_bound(0.0, 10)
    with pytest.raises(ValidationError):
        qubit_infidelity_bound(0.6, 0)


@pytest.mark.parametrize("n", [2.5, True, math.nan, 0, -3, "3"])
@pytest.mark.parametrize("fn", [qubit_infidelity_bound, cirac_comparison])
def test_qubit_family_takes_the_copy_count_rule(fn, n):
    # n follows iid_fidelity's copies rule: an integer (not a bool) >= 1
    with pytest.raises(ValidationError):
        fn(0.6, n)
    assert fn(0.6, np.int64(3)) == fn(0.6, 3)


def test_cirac_gap_is_exactly_two_over_one_plus_lam():
    for lam in (0.3, 0.6, 0.9):
        for n in (1, 10, 100):
            _, asym = qubit_infidelity_bound(lam, n)
            ratio = cirac_comparison(lam, n) / asym
            assert abs(ratio - 2 / (1 + lam)) < 1e-12


H01 = np.diag([0.0, 1.0])


def _dense_copies(rho1, H1, n):
    """n copies of rho1 with their summed Hamiltonian, built densely."""
    rho, H = rho1, H1
    for _ in range(n - 1):
        rho = np.kron(rho, rho1)
        H = np.kron(H, np.eye(len(H1))) + np.kron(np.eye(H.shape[0]), H1)
    return rho, H


def _qubit_copies(lam, n):
    """n copies of qubit(lam) with their summed Hamiltonian H01."""
    return _dense_copies(qubit(lam), H01, n)


def _rotated_instance():
    """(Omega, H_A) for a rotated, degenerate H_A and a generic target."""
    rng = np.random.default_rng(64)

    def rotated(levels):
        d = len(levels)
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        U = np.linalg.qr(G)[0]
        return U @ np.diag(levels) @ U.conj().T

    H_A = rotated([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
    H_B = rotated([0.0, 1.0, 3.0])
    sigma = random_density(6, rng)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = psi / np.linalg.norm(psi)
    return iid_omega_state(sigma, H_A, psi, H_B, 1), H_A


def test_sector_solve_matches_full_space_solve():
    # the sector-reduced problem and the one-sector problem on the same
    # Omega agree
    om, H_A = _rotated_instance()
    assert len(np.unique(om.sectors)) > 1
    full = single_sector(as_dense(om.matrix, 18), 6, 3)
    a = conditional_min_entropy(om)
    b = conditional_min_entropy(full)
    assert abs(a.optimum - b.optimum) < 1e-7
    # tau is block-diagonal over H_A's levels, in H_A's eigenbasis
    Ha = np.diag(np.linalg.eigvalsh(H_A))
    tau = as_dense(a.tau, 6)
    assert np.max(np.abs(tau @ Ha - Ha @ tau)) < 1e-9


# (newton_steps, old_steps, optimum).  The optima are those of commit
# e28f8b9, whose Newton system was solved in a real basis of the
# Hermitian blocks; they hold to 1e-12.  newton_steps pins the exact path
# of the long-step barrier schedule, so that an unintended path change
# shows; old_steps is the count of the schedule before it, which centred
# every barrier stage to the final decrement, and the long-step path must
# take at most half of it.
PARENT_PATH = {
    (1, 0.6): (22, 93, 0.8000000062499851),
    (1, 0.9): (22, 92, 0.9500000062499989),
    (2, 0.6): (35, 95, 0.8000000124999995),
    (2, 0.9): (33, 95, 0.9500000125000001),
    (3, 0.6): (35, 92, 0.8683389908633298),
    (3, 0.9): (37, 96, 0.9789817693783244),
    (4, 0.6): (44, 94, 0.87575850592743),
    (4, 0.9): (44, 100, 0.9824722612870068),
    "rotated sectors": (38, 93, 0.8670921733107926),
    "rotated full": (38, 93, 0.8670921733107932),
}


def test_newton_path_matches_parent():
    om, _ = _rotated_instance()
    cases = {"rotated sectors": om,
             "rotated full": single_sector(as_dense(om.matrix, 18), 6, 3)}
    for n in range(1, 5):
        for lam in (0.6, 0.9):
            rho, H = _qubit_copies(lam, n)
            cases[n, lam] = iid_omega_state(rho, H, CBIT, H01, 1)
    for key, omega in cases.items():
        steps, old_steps, optimum = PARENT_PATH[key]
        assert 2 * steps <= old_steps, key
        res = conditional_min_entropy(omega)
        assert res.newton_steps == steps, key
        assert abs(res.optimum - optimum) < 1e-12, key


def _trace_B(M, d_A, d_B):
    """Test-only Tr_B of an operator on A (x) B."""
    return np.einsum("ijkj->ik", M.reshape(d_A, d_B, d_A, d_B))


def _dense_newton_system(omega, ui, uk, x, mu):
    """Test-only reference for the Newton system on tau's units: g and K
    from the dense full-space S^-1 = (tau (x) I - Omega)^-1, by Tr_B and
    one gather per (j, j') of
    K[q, q'] = sum_{j, j'} S^-1[(i,j),(l,j')] S^-1[(m,j'),(k,j)] for
    q = (i, k), q' = (l, m)."""
    d_A, d_B = omega.sectors.shape
    tau = np.zeros((d_A, d_A), dtype=complex)
    tau[ui, uk] = x
    S_inv = np.linalg.inv(np.kron(tau, np.eye(d_B))
                          - as_dense(omega.matrix, d_A * d_B))
    g = np.eye(d_A) - mu * _trace_B(S_inv, d_A, d_B)
    R = S_inv.reshape(d_A, d_B, d_A, d_B)
    P1 = R.transpose(1, 3, 0, 2).reshape(d_B * d_B, d_A * d_A)
    P2 = R.transpose(3, 1, 2, 0).reshape(d_B * d_B, d_A * d_A)
    il = ui[:, None] * d_A + ui[None, :]
    km = uk[:, None] * d_A + uk[None, :]
    K = sum(P1[jj][il] * P2[jj][km] for jj in range(d_B * d_B))
    return g[ui, uk], K


def _oracle_cases():
    """Every PARENT_PATH instance, five qubit copies, and a qutrit source
    with a 3-level target."""
    om, _ = _rotated_instance()
    cases = {"rotated sectors": om,
             "rotated full": single_sector(as_dense(om.matrix, 18), 6, 3)}
    for n in range(1, 5):
        for lam in (0.6, 0.9):
            rho, H = _qubit_copies(lam, n)
            cases[n, lam] = iid_omega_state(rho, H, CBIT, H01, 1)
    cases["five qubit copies"] = iid_omega_state(qubit(0.6), H01, CBIT,
                                                 H01, 5)
    rng = np.random.default_rng(69)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    H3 = np.diag([0.0, 1.0, 2.0])
    cases["qutrit"] = iid_omega_state(random_density(3, rng), H3,
                                      psi / np.linalg.norm(psi), H3, 2)
    return cases


def test_gathered_newton_system_matches_the_dense_assembly():
    # at seeded interior iterates tau = 1.5 I + (block part of a Hermitian
    # H with ||H|| <= 0.4), tau (x) I - Omega >= 0.1 since ||Omega|| <= 1
    rng = np.random.default_rng(70)
    for key, omega in _oracle_cases().items():
        d_A, d_B = omega.sectors.shape
        sectors = _Sectors(omega.sectors, omega.matrix)
        for _ in range(3):
            G = rng.normal(size=(d_A, d_A)) + 1j * rng.normal(size=(d_A, d_A))
            H = G + G.conj().T
            H *= rng.uniform(0.0, 0.4) / np.linalg.norm(H, 2)
            x = 1.5 * sectors.eye + H[sectors.ui, sectors.uk]
            mu = 10.0 ** rng.uniform(-9.0, 0.0)
            w, V = sectors.slack(x)
            g = sectors.eye - mu * sectors.gram(V / np.sqrt(w)[:, None, :])
            K = sectors.hessian()
            g_ref, K_ref = _dense_newton_system(omega, sectors.ui,
                                                sectors.uk, x, mu)
            assert (np.max(np.abs(g - g_ref))
                    <= 1e-12 * np.max(np.abs(g_ref))), key
            assert (np.max(np.abs(K - K_ref))
                    <= 1e-12 * np.max(np.abs(K_ref))), key


@pytest.mark.parametrize("d_B", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_newton_maps_keep_exactly_the_live_terms(n, d_B):
    # a term (q, q', j, j') of K lives when S^-1[(i,j),(l,j')] and
    # S^-1[(m,j'),(k,j)] both lie inside a sector; count them one by one
    om = iid_omega_state(qubit(0.6), H01, np.ones(d_B) / math.sqrt(d_B),
                         np.diag(np.arange(d_B, dtype=float)), n)
    sectors = _Sectors(om.sectors, om.matrix)
    lab = om.sectors
    units = list(zip(sectors.ui, sectors.uk))
    live = 0
    for i, k in units:
        for l, m in units:
            for j in range(d_B):
                for jp in range(d_B):
                    live += (lab[i, j] == lab[l, jp]
                             and lab[m, jp] == lab[k, j])
    assert sum(cells.size for cells, _, _ in sectors.pieces) == live


def test_newton_maps_at_the_budget_edge_build_in_bounded_memory():
    # six qubit copies with a 16-level target pass both budgets, with 924
    # tau units: a dense (q, q', j, j') grid has 924**2 * 16**2 =
    # 218,566,656 entries, 12,831,672 of them live.  Building the maps
    # peaks below one int32 array of the dense grid.
    om = iid_omega_state(qubit(0.6), H01, np.ones(16) / 4,
                         np.diag(np.arange(16, dtype=float)), 6)
    tracemalloc.start()
    try:
        sectors = _Sectors(om.sectors, om.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sectors.eye.size == 924
    assert sum(cells.size for cells, _, _ in sectors.pieces) == 12_831_672
    assert peak < 4 * 924 ** 2 * 16 ** 2


def test_newton_term_budget_refuses_a_larger_system(monkeypatch):
    # a one-level target links every (j, j'), so the live terms approach
    # P^2 d_B^2: here all 16 (j, j') for each pair of units in one block,
    # whose sizes are 1, 2 and 1.  Past MAX_NEWTON_TERMS the solve is
    # refused.
    om = iid_omega_state(qubit(0.6), H01, np.ones(4) / 2, np.zeros((4, 4)),
                         2)
    sectors = _Sectors(om.sectors, om.matrix)
    live = sum(cells.size for cells, _, _ in sectors.pieces)
    assert live == 4 ** 2 * (1 + 2 ** 4 + 1)
    monkeypatch.setattr(coherence_forge.distill, "MAX_NEWTON_TERMS",
                        live - 1)
    with pytest.raises(ValidationError, match="live terms"):
        conditional_min_entropy(om)
    monkeypatch.setattr(coherence_forge.distill, "MAX_NEWTON_TERMS", live)
    assert conditional_min_entropy(om).primal_dual_gap < DEFAULT.sdp_gap


def test_newton_steps_build_no_full_space_matrix(monkeypatch):
    # the Newton steps and the final dual are gathered from the sector
    # blocks, and X is read off them as entries; verify_certificate
    # re-checks it sector by sector: neither the solver nor a whole
    # conditional_min_entropy takes a Kronecker product
    om = iid_omega_state(qubit(0.6), H01, CBIT, H01, 3)
    calls = {"kron": 0}
    kron = np.kron

    def counted_kron(*args):
        calls["kron"] += 1
        return kron(*args)

    monkeypatch.setattr(np, "kron", counted_kron)
    assert _min_trace_sdp(om).newton_steps > 3
    assert calls == {"kron": 0}
    conditional_min_entropy(om)
    assert calls == {"kron": 0}


def _dense_dual(S_inv, d_A, d_B):
    """Test-only reference for the final dual from a full-space mu S^-1:
    the congruence by T^-1/2 (x) I with T = Tr_B X, then the rescale to
    lambda_max(Tr_B X) <= 1."""
    wT, VT = np.linalg.eigh(_trace_B(S_inv, d_A, d_B))
    C = np.kron((VT / np.sqrt(wT)) @ VT.conj().T, np.eye(d_B))
    X = C @ S_inv @ C
    lam = float(np.linalg.eigvalsh(_trace_B(X, d_A, d_B))[-1])
    return X / max(lam, 1.0)


def test_final_dual_matches_the_dense_rescale(monkeypatch):
    # X = mu S^-1 at the last iterate is conditioned like S, about 1e9 at
    # the optimum: rebuilt from the returned tau alone it agrees to about
    # 1e-8 only.  So the exact reference scatters S^-1 from the solver's
    # last slack eigenpairs of the sector blocks into the full space and
    # takes the dense congruence and rescale from there.
    last = {}
    slack = _Sectors.slack

    def recorded(self, x):
        last["w"], last["V"] = slack(self, x)
        return last["w"], last["V"]

    monkeypatch.setattr(_Sectors, "slack", recorded)
    cases = _oracle_cases()
    # in units of 1e-9 the least slack in the solver's units passes the
    # unit eigenvalue of each pad, which min_slack must skip
    om = cases[3, 0.6]
    cases["small units"] = OmegaState(
        replace(om.matrix, values=1e-9 * om.matrix.values), om.sectors)
    for key, omega in cases.items():
        d_A, d_B = omega.sectors.shape
        N = d_A * d_B
        res = verify_certificate(_min_trace_sdp(omega), omega)
        # sector b holds the product indices labelled b, ascending, then pads
        lab = omega.sectors.ravel()
        Om, tau = as_dense(omega.matrix, N), as_dense(res.tau, d_A)
        S = np.kron(tau, np.eye(d_B)) - Om
        S_inv = np.zeros((N, N), dtype=complex)
        slacks = []
        for b, (w, V) in enumerate(zip(last["w"], last["V"])):
            idx = np.ix_(lab == b, lab == b)
            n = np.count_nonzero(lab == b)
            S_inv[idx] = ((V / w) @ V.conj().T)[:n, :n]
            slacks.append(np.linalg.eigvalsh(S[idx])[0])
        scale = float(np.linalg.eigvalsh(Om)[-1])
        mu = DEFAULT.sdp_gap / (4 * N * scale)
        X = as_dense(res.dual_certificate, N)
        X_ref = _dense_dual(mu * S_inv, d_A, d_B)
        assert np.max(np.abs(X - X_ref)) <= 1e-12 * np.max(np.abs(X_ref)), key
        gap = float(np.trace(tau).real - np.sum(Om * X_ref.T).real)
        assert abs(res.primal_dual_gap - gap) < 1e-14, key
        assert abs(res.min_slack - min(slacks)) < 1e-15, key
        assert np.all(X[lab[:, None] != lab[None, :]] == 0.0), key
        # the reference from tau alone, at the accuracy S's conditioning
        # allows
        X_tau = _dense_dual(DEFAULT.sdp_gap / (4 * N) * np.linalg.inv(S),
                            d_A, d_B)
        assert np.max(np.abs(X - X_tau)) <= 1e-6 * np.max(np.abs(X_tau)), key


def test_min_entropy_refuses_an_omega_off_unit_trace(monkeypatch):
    # sdp_gap is absolute: three qubit copies at lam = 0.6 scaled by 1e-9
    # were "certified" at 25.5e-9, where the optimum is 0.868e-9
    def no_solve(omega):
        raise AssertionError("a Newton step was taken")

    om = _oracle_cases()[3, 0.6]
    monkeypatch.setattr(coherence_forge.distill, "_min_trace_sdp", no_solve)
    for scale in (1e-9, 1.0 + 3 * DEFAULT.num, math.nan):
        values = scale * om.matrix.values
        scaled = OmegaState(replace(om.matrix, values=values), om.sectors)
        with pytest.raises(ValidationError, match="trace"):
            conditional_min_entropy(scaled)


def test_qubit_bounds_are_inf_once_lambda_squared_underflows():
    # (1 - lam^2) / (4 lam^2 n) and (1 - lam) / (2 lam^2 n) divided by 0
    for lam, n in ((1e-200, 3), (1e-162, 3), (1e-300, 2), (1e-158, 3)):
        assert qubit_infidelity_bound(lam, n) == (0.5, math.inf)
        assert cirac_comparison(lam, n) == math.inf


def _in_caller_basis(om, U_A, U_B):
    """Omega rotated from the U_A (x) U_B basis it is held in."""
    W = np.kron(U_A, U_B)
    return W @ as_dense(om.matrix, om.sectors.size) @ W.conj().T


def _iid_eigenbasis(H1, n):
    """The n-copy eigenbasis iid_omega_state sorts its levels into: the
    Kronecker power of H1's, columns in stable ascending order of the
    summed levels."""
    H1 = observable(H1)
    w1, V1 = H1.spectrum, H1.eigenbasis
    w, V = w1, V1
    for _ in range(n - 1):
        w, V = np.add.outer(w, w1).ravel(), np.kron(V, V1)
    return V[:, np.argsort(w, kind="stable")]


def test_iid_omega_state_matches_the_dense_build():
    # one copy's eigenpairs give the Omega that the dense n-copy
    # Hamiltonian gives, and the solve then takes the same Newton path
    U_B = observable(H01).eigenbasis

    def check(sigma, H1, n):
        rho, H = _dense_copies(sigma, H1, n)
        dense = iid_omega_state(rho, H, CBIT, H01, 1)
        om = iid_omega_state(sigma, H1, CBIT, H01, n)
        assert np.array_equal(om.sectors, dense.sectors)
        diff = (_in_caller_basis(om, _iid_eigenbasis(H1, n), U_B)
                - _in_caller_basis(dense, observable(H).eigenbasis, U_B))
        assert np.max(np.abs(diff)) < 1e-12
        return om

    for n in range(1, 5):
        for lam in (0.6, 0.9):
            om = check(qubit(lam), H01, n)
            steps, _, optimum = PARENT_PATH[n, lam]
            res = conditional_min_entropy(om)
            assert res.newton_steps == steps, (n, lam)
            assert abs(res.optimum - optimum) < 1e-12, (n, lam)
    # a rotated, degenerate qutrit: eigenvectors within a degenerate
    # level differ from eigh's, the pinched Omega does not
    rng = np.random.default_rng(65)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    check(random_density(3, rng), U @ np.diag([0.0, 1.0, 1.0]) @ U.conj().T, 3)


def _mask_pairs(labels):
    """The pairs of product indices that share a sector, as the N x N
    label mask gives them, row by row."""
    lab = labels.ravel()
    return np.nonzero(lab[:, None] == lab[None, :])


def test_sector_pairs_are_the_pairs_of_the_label_mask():
    # _sectors gives every pair of the mask once, the diagonal first: for
    # one block, several, degenerate B levels, incommensurate levels and
    # seeded level sets
    rng = np.random.default_rng(88)
    cases = [
        ([np.arange(6.0)], np.array([0.0, 1.0])),
        ([np.arange(k, 8.0 - k) for k in range(4)], np.array([0.0, 1.0, 2.0])),
        ([np.arange(5.0), np.arange(1.0, 4.0)], np.array([0.0, 0.0, 1.0])),
        ([np.array([0.0, math.sqrt(2), math.pi]), np.array([0.5, math.e])],
         np.array([0.0, math.sqrt(3), 2.0])),
    ]
    cases += [([np.sort(rng.integers(0, 5, size=rng.integers(1, 7))
                        ).astype(float) for _ in range(rng.integers(1, 4))],
               np.sort(rng.integers(0, 4, size=rng.integers(1, 4))
                       ).astype(float)) for _ in range(100)]
    for blocks, b in cases:
        labels, rows, cols = _sectors(blocks, b)
        N = labels.size
        assert np.array_equal(rows[:N], np.arange(N))
        assert np.array_equal(cols[:N], np.arange(N))
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == set(zip(*(x.tolist()
                                       for x in _mask_pairs(labels))))


def _masked_entries(sigma, H, psi_B, H_B, copies):
    """Omega's entries {(row, col): value} as iid_omega_state built them
    from the N x N label mask: sigma^(x)copies[a, c] t[b, b'] at each pair
    of the mask."""
    H, H_B = observable(H), observable(H_B)
    sigma, psi = density_matrix(sigma), pure_state(psi_B)
    a = H.spectrum
    for _ in range(copies - 1):
        a = np.add.outer(a, H.spectrum).ravel()
    perm = np.argsort(a, kind="stable")
    psi_bar = (H_B.eigenbasis.conj().T @ psi.vector).conj()
    V = H.eigenbasis
    sn = functools.reduce(np.kron, [V.conj().T @ sigma.matrix @ V] * copies)
    sn = sn[perm][:, perm]
    t = np.outer(psi_bar, psi_bar.conj())
    rows, cols = _mask_pairs(_sectors([a[perm]], H_B.spectrum)[0])
    (i, j), (k, m) = np.divmod(rows, H_B.dim), np.divmod(cols, H_B.dim)
    return dict(zip(zip(rows.tolist(), cols.tolist()),
                    (sn[i, k] * t[j, m]).tolist()))


def _widest_dense_request():
    """The widest n-copy request the budgets admit: 22 levels 2^k / 2^10,
    no two of whose pair sums collide, at two copies into a target under
    levels {0, 2^-10}; 968 product states and 946 tau parameters."""
    return (density_matrix(random_density(22, 5)),
            observable(np.diag(2.0 ** np.arange(22) / 2 ** 10)), CBIT,
            observable(np.diag([0.0, 2.0 ** -10])), 2)


def test_iid_omega_state_entries_are_those_of_the_label_mask():
    # the same entries, bit for bit, as a set: only their order moved
    rng = np.random.default_rng(89)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    H3 = np.diag([0.0, 1.0, 2.0])
    cases = [(qubit(0.6), H01, CBIT, H01, n) for n in (1, 2, 3, 4)]
    cases += [
        (random_density(3, rng), U @ np.diag([0.0, 1.0, 1.0]) @ U.conj().T,
         CBIT, H01, 2),
        (random_density(4, rng), np.diag([0.0, 1.0, 1.0, 3.0]),
         np.ones(3) / math.sqrt(3), H3, 1),
        (random_density(3, rng), np.diag([0.0, math.sqrt(2), math.pi]),
         np.array([0.6, 0.8j]), np.diag([0.0, math.e]), 2),
        (random_density(3, rng), np.diag([0.0, 1.0, 3.0]), CBIT, H01, 4),
        _widest_dense_request(),
    ]
    for sigma, H, psi, H_B, n in cases:
        M = iid_omega_state(sigma, H, psi, H_B, n).matrix
        entries = list(zip(zip(M.rows.tolist(), M.cols.tolist()),
                           M.values.tolist()))
        assert len(dict(entries)) == len(entries)
        assert dict(entries) == _masked_entries(sigma, H, psi, H_B, n)


def test_widest_dense_omega_state_peaks_below_a_megabyte():
    # sigma^(x)2 alone would take 3.7 MB at d = 22, and its row and column
    # permutations as much again; Omega has 2,140 entries in its sectors
    args = _widest_dense_request()
    tracemalloc.start()
    try:
        om = iid_omega_state(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert om.sectors.size == 968 and om.matrix.values.size == 2140
    assert peak < 1e6


def test_iid_param_count_is_exact(monkeypatch):
    # tau's parameter count sum_E deg(E)^2 over the n-copy levels E equals
    # the brute-force count from every n-copy sum, spaced levels or not;
    # a request within budget goes on to pair its product states
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    monkeypatch.setattr(coherence_forge.distill, "MAX_OMEGA_SIDE", 10**12)
    monkeypatch.setattr(coherence_forge.distill, "_sectors", built)
    rng = np.random.default_rng(62)
    unspaced = 0
    for _ in range(300):
        k = int(rng.integers(2, 5))
        distinct = np.sort(rng.choice(7, size=k, replace=False))
        levels = np.repeat(distinct, rng.integers(1, 4, size=k))
        n = int(rng.integers(1, 5))
        H = observable(np.diag(levels.astype(float)))
        sigma = np.eye(H.dim) / H.dim
        sums = np.zeros(1)
        for _ in range(n):
            sums = np.add.outer(sums, levels).ravel()
        exact = int(np.sum(np.unique(sums, return_counts=True)[1] ** 2))
        monkeypatch.setattr(coherence_forge.distill, "MAX_SDP_PARAMS",
                            exact - 1)
        with pytest.raises(ValidationError,
                           match=f"give {exact} SDP parameters"):
            iid_omega_state(sigma, H, CBIT, H01, n)
        monkeypatch.setattr(coherence_forge.distill, "MAX_SDP_PARAMS", exact)
        with pytest.raises(Built):
            iid_omega_state(sigma, H, CBIT, H01, n)
        unspaced += int(np.ptp(np.diff(distinct)) > 0)
    assert unspaced > 0


def test_iid_budget_admits_four_copies_of_unevenly_spaced_levels():
    # levels {0, 1, 3} at 4 copies: 743 tau parameters, the count the
    # solver's blocks give, within MAX_SDP_PARAMS; no solve is run
    om = iid_omega_state(random_density(3, 66), np.diag([0.0, 1.0, 3.0]),
                         CBIT, H01, 4)
    blocks = np.unique(om.sectors[:, 0], return_counts=True)[1]
    assert om.sectors.shape == (81, 2)
    assert int(np.sum(blocks ** 2)) == 743


@pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
def test_four_copy_gap_has_margin(lam):
    # the congruence-rescaled dual certifies the centered gap mu*N
    rho, H = _qubit_copies(lam, 4)
    res = conditional_min_entropy(iid_omega_state(rho, H, CBIT, H01, 1))
    assert res.primal_dual_gap < 5e-8


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gap_is_the_centred_gap(n, lam):
    # the loose intermediate stages leave the final stage centred: the
    # certified gap is mu*N = sdp_gap/4, a 4x margin under the budget
    rho, H = _qubit_copies(lam, n)
    res = conditional_min_entropy(iid_omega_state(rho, H, CBIT, H01, 1))
    centred = DEFAULT.sdp_gap / 4
    assert abs(res.primal_dual_gap - centred) < 0.01 * centred


def test_fstar_independent_of_blas_threads():
    # each child sets its own thread count; this process keeps its own
    src = os.path.dirname(os.path.dirname(coherence_forge.__file__))
    code = (
        "import math, numpy as np\n"
        "from coherence_forge.distill import conditional_min_entropy, "
        "iid_omega_state\n"
        "plus = np.array([1.0, 1.0]) / math.sqrt(2)\n"
        "h = np.diag([0.0, 1.0])\n"
        "for lam in (0.6, 0.75, 0.9):\n"
        "    q = lam * np.outer(plus, plus) + (1 - lam) * np.eye(2) / 2\n"
        "    rho, H = q, h\n"
        "    for _ in range(3):\n"
        "        rho = np.kron(rho, q)\n"
        "        H = np.kron(H, np.eye(2)) + np.kron(np.eye(len(H)), h)\n"
        "    om = iid_omega_state(rho, H, plus, h, 1)\n"
        "    print(repr(conditional_min_entropy(om).optimum))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 3


def test_sdp_result_reports_solver_work():
    rho, H = _qubit_copies(0.6, 2)
    om = iid_omega_state(rho, H, CBIT, H01, 1)
    res = conditional_min_entropy(om)
    assert res.newton_steps > res.barrier_stages > 0
    slack = np.kron(as_dense(res.tau, 4), np.eye(2)) - as_dense(om.matrix, 8)
    assert abs(res.min_slack - np.linalg.eigvalsh(slack)[0]) < 1e-12
    assert res.min_slack > 0.0


def test_verify_certificate_rejects_tampering():
    rho, H = _qubit_copies(0.6, 2)
    om = iid_omega_state(rho, H, CBIT, H01, 1)
    res = conditional_min_entropy(om)
    assert verify_certificate(res, om) is res
    d_A, N = om.sectors.shape[0], om.sectors.size
    tau, X = as_dense(res.tau, d_A), as_dense(res.dual_certificate, N)
    eye_A, eye = np.eye(tau.shape[0]), np.eye(X.shape[0])
    # eigvalsh reads one triangle, so these pass every eigenvalue test;
    # they lie inside the sector mask, so only the Hermitian test is left
    lab, block = om.sectors.ravel(), om.sectors[:, 0]
    upper_A = np.triu(block[:, None] == block[None, :], 1).astype(float)
    upper = np.triu(lab[:, None] == lab[None, :], 1).astype(float)

    def dense(tau=tau, X=X, **reported):
        return replace(res, tau=as_entries(tau),
                       dual_certificate=as_entries(X), **reported)

    def grown(S, n):
        # an entry past the side n of the matrix
        return SectorMatrix(np.append(S.rows, n), np.append(S.cols, 0),
                            np.append(S.values, 0.0))

    tampered = [
        (dense(tau=tau + upper_A), "tau is not Hermitian"),
        (dense(X=X + 0.3j * upper), "dual X is not Hermitian"),
        (dense(tau=tau - 1e-6 * eye_A), "Omega has eigenvalue"),
        (dense(X=X - 1e-6 * eye), "dual X has"),
        (dense(X=1.001 * X), "Tr_B X"),
        (dense(tau=tau + 1e-6 * eye_A,
               optimum=float(np.trace(tau).real) + 4e-6), "recomputed gap"),
        (replace(res, primal_dual_gap=0.0), "reported"),
        (replace(res, optimum=res.optimum - 1e-6), "reported"),
        # non-finite or misshapen results fail closed
        (replace(res, optimum=math.nan), "reported"),
        (replace(res, primal_dual_gap=math.nan), "reported"),
        (dense(tau=np.where(eye_A == 1, np.nan, tau)), "tau is not"),
        (dense(X=np.where(eye == 1, np.inf, X)), "dual X is not"),
        (replace(res, tau=grown(res.tau, d_A)), "tau is not"),
        (replace(res, dual_certificate=grown(res.dual_certificate, N)),
         "dual X is not"),
    ]
    for bad, match in tampered:
        with pytest.raises(CertificateError, match=match):
            verify_certificate(bad, om)


def test_sector_check_rejects_tampering():
    # the re-check of a chain's result reads entries only, sector by sector
    dense, om = _spin_omegas(qubit(0.6), 6, 0)
    res = _chain(om)
    assert verify_certificate(res, om) is res
    tau, X = res.tau, res.dual_certificate
    link = np.flatnonzero(X.rows != X.cols)[0]
    diag = np.flatnonzero(X.rows == X.cols)[0]

    def entries(rows=X.rows, cols=X.cols, values=X.values):
        return replace(res, dual_certificate=SectorMatrix(rows, cols, values))

    def bumped(at, by):
        values = X.values.astype(complex)
        values[at] += by
        return values

    def diagonal(values):
        return replace(res, tau=replace(tau, values=values))

    tampered = [
        (diagonal(0.999 * tau.values), "Omega has eigenvalue"),
        # product states (0, 0) and (1, 0) lie in different sectors
        (entries(np.append(X.rows, 0), np.append(X.cols, 2),
                 np.append(X.values, 0.0)), "off the sector mask"),
        (entries(values=bumped(link, 0.3j)), "dual X is not Hermitian"),
        (entries(values=bumped(diag, -X.values[diag] - 1e-6)), "dual X has"),
        (entries(values=1.001 * X.values), "Tr_B X"),
        (replace(diagonal(tau.values + 1e-6),
                 optimum=float(tau.values.sum()) + 7e-6), "recomputed gap"),
        (replace(res, primal_dual_gap=1e-8), "reported"),
        (replace(res, optimum=math.nan), "reported"),
        (diagonal(np.where(tau.values == tau.values.max(), np.nan,
                           tau.values)), "tau is not"),
        (diagonal(tau.values[:-1]), "tau is not"),
        (diagonal(tau.values + 1e-6j), "tau is not Hermitian"),
        (entries(values=bumped(diag, np.inf)), "dual X is not finite"),
        (entries(np.append(X.rows, om.sectors.size),
                 np.append(X.cols, 0), np.append(X.values, 0.0)),
         "dual X is not finite"),
    ]
    for bad, match in tampered:
        with pytest.raises(CertificateError, match=match):
            verify_certificate(bad, om)
    # an Omega must be zero off the sector mask
    assert verify_certificate(res, dense) is res
    off = as_dense(dense.matrix, dense.sectors.size)
    off[0, 2] = off[2, 0] = 1e-3
    with pytest.raises(CertificateError, match="Omega has an entry off"):
        verify_certificate(res, replace(dense, matrix=as_entries(off)))


def test_sector_check_solves_larger_sectors():
    # one sector of three product states: tau = Omega's diagonal and
    # X = I certify F* = 1 with gap 0; the 3 x 3 blocks go to eigvalsh
    om = OmegaState(
        matrix=SectorMatrix(np.arange(3), np.arange(3),
                            np.array([0.2, 0.3, 0.5])),
        sectors=np.zeros((3, 1), dtype=int))
    res = SdpResult(optimum=1.0,
                    tau=SectorMatrix(np.arange(3), np.arange(3),
                                     np.array([0.2, 0.3, 0.5])),
                    dual_certificate=SectorMatrix(np.arange(3), np.arange(3),
                                                  np.ones(3)),
                    primal_dual_gap=0.0, newton_steps=0, barrier_stages=0,
                    min_slack=0.0)
    assert verify_certificate(res, om) is res
    with pytest.raises(CertificateError, match="Omega has eigenvalue"):
        verify_certificate(replace(res, tau=replace(
            res.tau, values=0.999 * res.tau.values)), om)


def _barrier_result():
    """Omega of two qubit copies into |+> and its barrier result."""
    rho, H = _qubit_copies(0.6, 2)
    om = iid_omega_state(rho, H, CBIT, H01, 1)
    return om, conditional_min_entropy(om)


def test_sector_check_refuses_dense_entries_off_the_mask():
    # a small Hermitian entry of tau across A's level blocks, or of X
    # across sectors, passes every eigenvalue, marginal and gap test of
    # the full-space matrices, yet is no certificate of the pinched problem
    om, res = _barrier_result()
    d_A, d_B = om.sectors.shape
    lab = om.sectors.ravel()
    # A's levels i and k lie in different blocks when (i, 0) and (k, 0)
    # lie in different sectors
    levels = om.sectors[:, 0]
    i, k = 0, int(np.flatnonzero(levels != levels[0])[0])
    tau = as_dense(res.tau, d_A)
    tau[i, k] = tau[k, i] = 1e-13
    # p and q lie at different target levels, so Tr_B X is unchanged
    p, q = 0, int(np.flatnonzero((lab != lab[0])
                                 & (np.arange(lab.size) % d_B != 0))[0])
    X = as_dense(res.dual_certificate, lab.size)
    X[p, q] = X[q, p] = 1e-13
    Om = as_dense(om.matrix, lab.size)
    for bad in (replace(res, tau=as_entries(tau)),
                replace(res, dual_certificate=as_entries(X))):
        tau_bad = as_dense(bad.tau, d_A)
        X_bad = as_dense(bad.dual_certificate, lab.size)
        slack = np.kron(tau_bad, np.eye(d_B)) - Om
        assert np.linalg.eigvalsh(slack)[0] >= 0.0
        assert np.linalg.eigvalsh(X_bad)[0] >= -DEFAULT.sdp_feas
        assert (np.linalg.eigvalsh(_trace_B(X_bad, d_A, d_B))[-1]
                <= 1.0 + DEFAULT.sdp_feas)
        gap = float(np.trace(tau_bad).real - np.sum(Om * X_bad.T).real)
        assert abs(gap - res.primal_dual_gap) <= DEFAULT.sdp_feas
        with pytest.raises(CertificateError, match="off the sector mask"):
            verify_certificate(bad, om)


def test_verify_certificate_shares_no_code_with_either_solver(monkeypatch):
    # the re-check passes a barrier and a chain result with every solver
    # part that could build or read them refused
    om, barrier = _barrier_result()
    dense, banded = _spin_omegas(qubit(0.6), 6, 1)
    chain, dense_chain = _chain(banded), _chain(dense)

    def refused(*args, **kwargs):
        raise AssertionError("verify_certificate ran solver code")

    for name in ("_Sectors", "_min_trace_sdp", "_chain", "_schur_blocks",
                 "_sectors", "_spin_omega"):
        monkeypatch.setattr(coherence_forge.distill, name, refused)
    assert verify_certificate(barrier, om) is barrier
    assert verify_certificate(chain, banded) is chain
    assert verify_certificate(dense_chain, dense) is dense_chain


def _schur_cases():
    """(name, sigma, H, psi_B, H_B, certificate) for the Schur-path
    comparisons with the dense solve."""
    rng = np.random.default_rng(81)
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    off_axis = G @ G.conj().T / np.trace(G @ G.conj().T).real
    unbalanced = np.array([math.sqrt(0.7), math.sqrt(0.3)])
    cases = [(f"lam={lam}", qubit(lam), H01, CBIT, H01, "schur-chain")
             for lam in (0.1, 0.3, 0.6, 0.9)]
    cases += [
        ("off axis", off_axis, H01, CBIT, H01, "schur-chain"),
        ("gap 1.7", off_axis, np.diag([0.3, 2.0]), CBIT,
         np.diag([0.0, 1.7]), "schur-chain"),
        ("unbalanced", qubit(0.6), H01, unbalanced, H01, "schur"),
        ("twice the gap", qubit(0.6), H01, CBIT, np.diag([0.0, 2.0]),
         "schur"),
    ]
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_schur_blocks_match_the_dense_solve(n):
    for name, sigma, H, psi, H_B, kind in _schur_cases():
        res = iid_fidelity(sigma, H, psi, H_B, n)
        dense = conditional_min_entropy(iid_omega_state(sigma, H, psi, H_B, n))
        assert abs(res.fidelity - dense.optimum) < DEFAULT.sdp_gap, name
        assert 0.0 <= res.gap < DEFAULT.sdp_gap, name
        assert res.blocks + res.blocks_dropped == n // 2 + 1
        # a target at twice the gap leaves one copy's sectors singletons
        assert res.certificate == (
            "schur-chain" if name == "twice the gap" and n == 1 else kind), name
        if res.certificate == "schur-chain":
            assert res.newton_steps == res.barrier_stages == 0
            # the closed form sits below the barrier solver's primal
            assert res.fidelity <= dense.optimum + 1e-15, name
        else:
            assert res.newton_steps > res.barrier_stages > 0


def test_schur_blocks_resolve_the_spectrum_of_the_copies():
    # p_j rho_j (x) I/dim S_j over all j has the spectrum of sigma^(x)n,
    # and each block's bands are those of its dense rho_j
    n = 5
    rng = np.random.default_rng(82)
    sigma = random_density(2, rng)
    H = random_observable(2, rng)
    dense = np.linalg.eigvalsh(_dense_copies(sigma, H, n)[0])
    parts = []
    for log_p, levels, bands in _schur_blocks(sigma, H, n):
        P = levels.size
        j2 = P - 1
        k = (n - j2) // 2
        dim_s = math.comb(n, k) * (n - 2 * k + 1) // (n - k + 1)
        rho = spin_state(sigma, P)
        parts += [math.exp(log_p) * w / dim_s
                  for w in np.linalg.eigvalsh(rho.matrix)] * dim_s
        assert np.allclose(rho.spectrum, np.linalg.eigvalsh(rho.matrix),
                           atol=1e-14)
        assert np.allclose(np.diff(levels),
                           np.diff(np.linalg.eigvalsh(H))[0], atol=1e-12)
        assert np.allclose(np.exp(bands[0]), rho.matrix.diagonal().real,
                           atol=1e-15)
        assert np.allclose(np.exp(bands[1, 1:]),
                           np.abs(np.diagonal(rho.matrix, 1)), atol=1e-15)
    assert np.allclose(np.sort(parts), dense, atol=1e-14)


def _brute_sym(s, N):
    """Sym^N(s) in the basis i = 0..N of the copies in the upper level,
    summed over all 2^N x 2^N strings: <i|Sym^N s|i'> is the sum of
    prod_k s[x_k, y_k] over the strings x with i ones and y with i' ones,
    over sqrt(C(N, i) C(N, i'))."""
    x = np.array(list(itertools.product((0, 1), repeat=N)), dtype=int)
    weight = x.sum(axis=1)
    terms = np.prod(s[x[:, None, :], x[None, :, :]], axis=2)
    S = np.zeros((N + 1, N + 1))
    np.add.at(S, (weight[:, None], weight[None, :]), terms)
    comb = np.array([math.comb(N, i) for i in range(N + 1)], dtype=float)
    return S / np.sqrt(np.outer(comb, comb))


def test_schur_bands_match_the_brute_force_symmetric_power():
    # every superdiagonal r <= N of every block rho_j = Sym^N(s)/Tr, with
    # s_01's phase taken off, against the sum over all strings; a pure s
    # has one live block, and s = I/2 a diagonal rho_j
    rng = np.random.default_rng(87)
    pure = np.array([0.8, 0.6j])
    sources = [random_density(2, rng) for _ in range(3)]
    sources += [np.outer(pure, pure.conj()), np.eye(2) / 2]
    for s in sources:
        flat = np.array([[s[0, 0].real, abs(s[0, 1])],
                         [abs(s[0, 1]), s[1, 1].real]])
        for n in range(1, 8):
            for _, levels, bands in _schur_blocks(s, H01, n, n):
                N = levels.size - 1
                S = _brute_sym(flat, N)
                S /= np.trace(S)
                assert bands.shape == (n + 1, N + 1)
                assert np.all(bands[N + 1:] == -math.inf)
                for r in range(N + 1):
                    got = np.exp(bands[r, r:])
                    want = np.diagonal(S, r)
                    assert np.all(np.abs(got - want) <= 1e-13 * want), (n, r)
                    assert np.all(bands[r, :r] == -math.inf)


def test_schur_weights_sum_to_one_at_150_copies():
    blocks = _schur_blocks(qubit(0.6), H01, 150)
    assert len(blocks) == 76
    assert abs(sum(math.exp(log_p) for log_p, *_ in blocks) - 1) < 1e-12
    for _, _, bands in blocks:
        assert abs(np.exp(bands[0]).sum() - 1) < 1e-12


def test_schur_edge_sources_are_exact():
    # a pure source has one live block and F* = 1; sigma = I/2 gives 1/2;
    # neither takes a log of zero or divides by r = 0 (a RuntimeWarning is
    # an error in this suite)
    pure = np.array([[0.5, 0.5], [0.5, 0.5]])
    for n in (1, 4, 7):
        assert len(_schur_blocks(pure, H01, n)) == 1
        res = iid_fidelity(pure, H01, CBIT, H01, n)
        assert (res.blocks, res.blocks_dropped) == (1, n // 2)
        assert res.certificate == "schur-chain"
        assert abs(res.fidelity - 1.0) < 1e-14
        half = iid_fidelity(np.eye(2) / 2, H01, CBIT, H01, n)
        assert half.blocks == n // 2 + 1
        assert abs(half.fidelity - 0.5) < 1e-14
        for r in (res, half):
            assert all(math.isfinite(v) for v in (
                r.fidelity, r.gap, r.min_slack))
            assert r.min_slack > 0.0


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
def test_schur_fidelity_respects_the_converse_and_grows(lam):
    prev = None
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 20, 50, 100):
        res = iid_fidelity(qubit(lam), H01, CBIT, H01, n)
        assert res.certificate == "schur-chain"
        assert qubit_infidelity_bound(lam, n)[0] <= 1 - res.fidelity + res.gap
        if prev is not None:
            assert res.fidelity >= prev.fidelity - prev.gap, n
        prev = res


def _family_cases():
    """(name, sigma, H, psi_B, H_B, n) in the qubit family, where
    iid_fidelity reports the converse: a phase on sigma or a basis on
    either side is a covariant unitary, and the family keeps it."""
    rng = np.random.default_rng(83)
    B = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    phased = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
    cases = [(f"lam={lam} n={n}", qubit(lam), H01, CBIT, H01, n)
             for lam in (0.3, 0.6, 0.9) for n in (1, 2, 5)]
    cases += [
        ("phase", 0.6 * np.outer(phased, phased.conj()) + 0.2 * np.eye(2),
         H01, CBIT, H01, 2),
        ("source basis", B @ qubit(0.6) @ B.conj().T, B @ H01 @ B.conj().T,
         CBIT, H01, 2),
        ("target basis", qubit(0.6), H01, B @ CBIT, B @ H01 @ B.conj().T, 2),
    ]
    return cases


@pytest.mark.parametrize("case", _family_cases(), ids=lambda c: c[0])
def test_iid_fidelity_bounds_the_qubit_family(case):
    _, sigma, H, psi, H_B, n = case
    res = iid_fidelity(sigma, H, psi, H_B, n)
    V = np.linalg.eigh(H)[1]
    exact, asym = qubit_infidelity_bound(
        2 * abs((V.conj().T @ sigma @ V)[0, 1]), n)
    assert abs(res.bound_exact - exact) < 1e-12
    assert abs(res.bound_asymptotic - asym) < 1e-12
    # at n = 1 the exact bound is 1 - F* itself, so the slack is rounding
    assert res.bound_exact <= 1 - res.fidelity + res.gap + 1e-15


@pytest.mark.parametrize("sigma, psi, H_B", [
    (qubit(0.6), CBIT, np.diag([0.0, 2.0])),
    (qubit(0.6), np.array([math.sqrt(0.7), math.sqrt(0.3)]), H01),
    (qubit(0.6), np.ones(3) / math.sqrt(3), np.diag([0.0, 1.0, 2.0])),
    (qubit(0.6), CBIT, np.zeros((2, 2))),
    (np.array([[0.9, 0.3], [0.3, 0.1]]), CBIT, H01),
    (np.eye(2) / 2, CBIT, H01),
], ids=["twice the gap", "unbalanced", "three levels", "degenerate H_B",
        "populations", "half"])
@pytest.mark.parametrize("n", [1, 2])
def test_iid_fidelity_reports_no_bound_off_the_qubit_family(sigma, psi, H_B,
                                                            n):
    res = iid_fidelity(sigma, H01, psi, H_B, n)
    assert res.bound_exact is None and res.bound_asymptotic is None


def _band_and_dense(sigma, H, psi, H_B, n):
    """(p_j, band Omega_j, dense Omega_j) for each spin block with
    p_j >= 1e-17: the band one built by _spin_omega from _schur_blocks,
    swept as far as the block's sector pairs reach, as iid_fidelity builds
    it; the dense one from the oracle spin_state through iid_omega_state."""
    H, H_B, psi = observable(H), observable(H_B), pure_state(psi)
    s = _qubit_frame(density_matrix(sigma), H)
    log_t = np.log(np.abs(H_B.eigenbasis.conj().T @ psi.vector) ** 2)
    live = [(log_p, levels) for log_p, levels, _ in _schur_blocks(s, H, n)
            if log_p >= math.log(1e-17)]
    sectors = [_sectors([levels], H_B.spectrum) for _, levels in live]
    reach = max(int(np.abs(rows[lab.size:] // H_B.dim
                           - cols[lab.size:] // H_B.dim).max(initial=0))
                for lab, rows, cols in sectors)
    bands = {levels.size: b for _, levels, b in _schur_blocks(s, H, n, reach)}
    return [(math.exp(log_p),
             _spin_omega([(0.0, levels, bands[levels.size])], sec, log_t),
             iid_omega_state(spin_state(s, levels.size), np.diag(levels), psi,
                             H_B, 1))
            for (log_p, levels), sec in zip(live, sectors)]


def _band_cases():
    """(name, sigma, H, psi_B, H_B) on the qubit chain path."""
    rng = np.random.default_rng(81)
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    off_axis = G @ G.conj().T / np.trace(G @ G.conj().T).real
    B = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    phased = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
    cases = [(f"lam={lam}", qubit(lam), H01, CBIT, H01)
             for lam in (0.1, 0.3, 0.6, 0.9, 0.99)]
    return cases + [
        ("phased source",
         0.6 * np.outer(phased, phased.conj()) + 0.2 * np.eye(2), H01, CBIT,
         H01),
        ("phased target", qubit(0.6), H01, phased, H01),
        ("off-axis source", off_axis, H01, CBIT, H01),
        ("off-axis target", qubit(0.6), H01, B @ CBIT, B @ H01 @ B.conj().T),
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 30, 100, 179])
def test_band_path_matches_the_dense_path(n):
    # the bands give each block's F* as its dense Omega does, and
    # iid_fidelity's certified interval holds their weighted sum
    for name, sigma, H, psi, H_B in _band_cases():
        blocks = _band_and_dense(sigma, H, psi, H_B, n)
        band = sum(p * _chain(om).optimum for p, om, _ in blocks)
        dense = sum(p * _chain(om).optimum for p, _, om in blocks)
        assert abs(band - dense) < 1e-14, name
        res = iid_fidelity(sigma, H, psi, H_B, n)
        assert res.certificate == "schur-chain", name
        assert res.fidelity - res.gap <= band <= res.fidelity, name


def _fallback_cases():
    """(name, sigma, H, psi_B, H_B) whose spin blocks the chain declines,
    for the source at lam = 0.6 and a seeded off-axis one."""
    rng = np.random.default_rng(81)
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    off_axis = G @ G.conj().T / np.trace(G @ G.conj().T).real
    H012 = np.diag([0.0, 1.0, 2.0])
    targets = [
        ("twice the gap", CBIT, np.diag([0.0, 2.0])),
        ("three levels", np.ones(3) / math.sqrt(3), H012),
        ("degenerate H_B", CBIT, np.zeros((2, 2))),
        ("unbalanced 0.6", np.array([math.sqrt(0.6), math.sqrt(0.4)]), H01),
        ("unbalanced 0.7", np.array([math.sqrt(0.7), math.sqrt(0.3)]), H01),
        ("complex target", np.array([0.6, 0.48j, 0.64]), H012),
        ("levels 0 and 7", CBIT, np.diag([0.0, 7.0])),
    ]
    return [(f"{name}, {source}", sigma, H01, psi, H_B)
            for name, psi, H_B in targets
            for source, sigma in (("lam=0.6", qubit(0.6)),
                                  ("off axis", off_axis))]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_band_omega_of_a_declined_block_matches_the_dense_oracle(n):
    # each live block's band Omega_j, every superdiagonal its sectors
    # reach swept, has the |entries| of the dense oracle's and the same
    # min-entropy optimum; the oracle's phases are a time translation
    for name, sigma, H, psi, H_B in _fallback_cases():
        for _, band, dense in _band_and_dense(sigma, H, psi, H_B, n):
            assert np.array_equal(band.sectors, dense.sectors), name
            N = band.sectors.size
            B = np.abs(as_dense(band.matrix, N))
            D = np.abs(as_dense(dense.matrix, N))
            assert np.max(np.abs(B - D)) <= 1e-13 * D.max(), name
            assert abs(conditional_min_entropy(band).optimum
                       - conditional_min_entropy(dense).optimum
                       ) <= 2.0 * DEFAULT.sdp_gap, name


@pytest.mark.parametrize("n", [10, 50, 100, 179, 1000])
def test_certified_interval_holds_f_star_at_the_edges(n):
    # sigma = I/2 makes every Omega_j diagonal, so F* = max_b |<b|psi>|^2,
    # 1/2 to the rounding of |+>; at lam = 1e-12 F* lies between one
    # copy's (1 + lam)/2 and the converse.  Summed weights that miss 1
    # once put the interval above or below these
    half = max(np.abs(CBIT) ** 2)
    res = iid_fidelity(np.eye(2) / 2, H01, CBIT, H01, n)
    assert res.fidelity - res.gap <= half <= res.fidelity
    lam = 1e-12
    res = iid_fidelity(qubit(lam), H01, CBIT, H01, n)
    eps = np.finfo(float).eps
    assert res.fidelity >= (1.0 + lam) / 2.0 * (1.0 - 2.0 * eps)
    assert (res.fidelity - res.gap
            <= (1.0 - qubit_infidelity_bound(lam, n)[0]) * (1.0 + 2.0 * eps))


def test_converse_against_the_certified_optimum():
    # the exact converse bounds 1 - F* from below, and n (1 - F*) falls
    # towards C = (1 - lam^2)/(4 lam^2) as n grows: each step is shown by
    # the certified interval, n1 (1 - upper) > n2 (1 - lower)
    for lam in (0.3, 0.6, 0.9):
        prev = None
        for n in (100, 200, 500, 1000):
            res = iid_fidelity(qubit(lam), H01, CBIT, H01, n)
            assert res.certificate == "schur-chain"
            assert res.bound_exact <= 1.0 - res.fidelity + res.gap
            C = (1.0 - lam * lam) / (4.0 * lam * lam)
            if prev is not None:
                assert (prev[0] * (1.0 - prev[1].fidelity) - C
                        > n * (1.0 - res.fidelity + res.gap) - C), (lam, n)
            prev = (n, res)


def test_schur_copy_budget_is_checked_before_any_block(monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("spin blocks built")

    monkeypatch.setattr(coherence_forge.distill, "_schur_blocks", no_blocks)
    # the sides (2j + 1) * 2 of 1447 copies' spin blocks sum past 1024**2
    for n in (1447, 10 ** 9):
        with pytest.raises(ValidationError, match="sides sum"):
            iid_fidelity(qubit(0.6), H01, CBIT, H01, n)
    # a qutrit target makes each side 3 (2j + 1): 1446 copies pass the
    # summed sides for a qubit target, not for this one
    with pytest.raises(ValidationError, match="sides sum"):
        iid_fidelity(qubit(0.6), H01, np.ones(3) / math.sqrt(3),
                     np.diag([0.0, 1.0, 2.0]), 1446)
    for n in (0, 1447):
        with pytest.raises(ValidationError):
            iid_fidelity(qubit(0.6), H01, CBIT, H01, n)


def test_schur_copy_budget_boundary(monkeypatch):
    # for a qubit target the sides of 1446 copies' spin blocks sum to
    # 1,048,352, within 1024**2; those of 1447 copies to 1,049,800, past it
    calls = []
    blocks = _schur_blocks

    def record(sigma, H, copies):
        calls.append(copies)
        return blocks(sigma, H, 1)

    monkeypatch.setattr(coherence_forge.distill, "_schur_blocks", record)
    iid_fidelity(qubit(0.6), H01, CBIT, H01, 1446)
    assert calls == [1446]
    for n in (1447, 10 ** 9):
        with pytest.raises(ValidationError, match="sides sum"):
            iid_fidelity(qubit(0.6), H01, CBIT, H01, n)
    assert calls == [1446]


def test_bad_target_is_refused_before_any_spin_block(monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("spin blocks built")

    monkeypatch.setattr(coherence_forge.distill, "_schur_blocks", no_blocks)
    with pytest.raises(ValidationError,
                       match="state dim 3 != Hamiltonian dim 2"):
        iid_fidelity(qubit(0.6), H01, np.ones(3) / math.sqrt(3), H01, 179)
    with pytest.raises(ValidationError, match="norm"):
        iid_fidelity(qubit(0.6), H01, np.ones(2), H01, 179)


def _spin_omegas(sigma, n, block):
    """(dense Omega, band Omega) of one spin block of n copies of sigma
    under H01 into |+> under H01: the dense one from spin_state, the band
    one built as iid_fidelity builds it."""
    _, levels, bands = _schur_blocks(sigma, H01, n)[block]
    omega = iid_omega_state(spin_state(sigma, levels.size),
                            np.diag(levels), CBIT, H01, 1)
    return omega, _spin_omega([(0.0, levels, bands)],
                              _sectors([levels], np.array([0.0, 1.0])),
                              np.log(np.abs(CBIT) ** 2))


def test_chain_certificate_is_checked_by_verify_certificate():
    # the spin-2 block of six copies, from its dense Omega and its bands
    om, banded = _spin_omegas(qubit(0.6), 6, 1)
    res, res_b = _chain(om), _chain(banded)
    assert verify_certificate(res, om) is res
    assert verify_certificate(res_b, banded) is res_b
    assert res.primal_dual_gap < 1e-14
    assert abs(res.optimum - res_b.optimum) < 1e-14
    for r, o in ((res, om), (res_b, banded)):
        with pytest.raises(CertificateError, match="Omega has eigenvalue"):
            verify_certificate(replace(r, tau=replace(
                r.tau, values=0.999 * r.tau.values)), o)
    # Omega of sectors other than singletons and links is not a chain
    assert _chain(_rotated_instance()[0]) is None


def _same_result(a, b):
    """True when two SdpResults agree bit for bit, field by field."""
    return all(
        np.array_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f)))
        for f in ("optimum", "primal_dual_gap", "min_slack", "newton_steps",
                  "barrier_stages")) and all(
        np.array_equal(getattr(x, f), getattr(y, f))
        for x, y in ((a.tau, b.tau),
                     (a.dual_certificate, b.dual_certificate))
        for f in ("rows", "cols", "values"))


def test_chain_reads_omega_entries_in_any_order_and_split():
    # _chain sums repeated entries, as _Sectors and verify_certificate do:
    # shuffled entries, or one diagonal and one link entry each split into
    # two halves, give the same result bit for bit, for the real Omega of
    # a spin block and the complex one of its dense build
    rng = np.random.default_rng(42)
    dense, banded = _spin_omegas(qubit(0.6), 6, 1)
    for om in (banded, dense):
        res = _chain(om)
        assert res is not None
        M = om.matrix
        order = rng.permutation(M.values.size)
        shuffled = SectorMatrix(M.rows[order], M.cols[order],
                                M.values[order])
        link = np.flatnonzero(M.rows != M.cols)[0]
        split = np.array([0, link])
        halves = SectorMatrix(
            np.concatenate((M.rows, M.rows[split])),
            np.concatenate((M.cols, M.cols[split])),
            np.concatenate((M.values, 0.5 * M.values[split])))
        halves.values[split] *= 0.5
        for other in (shuffled, halves):
            assert _same_result(_chain(replace(om, matrix=other)), res)


def test_schur_chain_keeps_a_real_dual(monkeypatch):
    # the direct sum of spin blocks is a real Omega, and the chain's dual X
    # on it stays real, so verify_certificate sums no complex entries
    seen = []
    real = coherence_forge.distill.verify_certificate

    def recorded(result, omega):
        seen.append((result, omega))
        return real(result, omega)

    monkeypatch.setattr(coherence_forge.distill, "verify_certificate",
                        recorded)
    for n in (1, 4, 30):
        res = iid_fidelity(qubit(0.6), H01, CBIT, H01, n)
        assert res.certificate == "schur-chain"
    assert len(seen) == 3
    for result, omega in seen:
        assert not np.iscomplexobj(omega.matrix.values)
        assert not np.iscomplexobj(result.dual_certificate.values)


def test_refused_chain_certificate_falls_back_to_the_barrier(monkeypatch):
    # a chain whose tau is 0.1% short fails verify_certificate, and every
    # block is then solved by the barrier SDP instead
    chained = iid_fidelity(qubit(0.6), H01, CBIT, H01, 6)
    assert chained.certificate == "schur-chain"
    chain = coherence_forge.distill._chain

    def short(omega):
        res = chain(omega)
        return replace(res, tau=replace(res.tau,
                                        values=0.999 * res.tau.values))

    monkeypatch.setattr(coherence_forge.distill, "_chain", short)
    res = iid_fidelity(qubit(0.6), H01, CBIT, H01, 6)
    assert res.certificate == "schur"
    assert res.newton_steps > 0
    assert res.blocks == 4
    assert abs(res.fidelity - chained.fidelity) <= DEFAULT.sdp_gap


def test_iid_fidelity_never_returns_a_fidelity_above_one():
    # F* <= 1 for every source; unclipped, a pure qubit summed to
    # 1 + 7e-16 at n = 1 and 1 + 3.3e-15 at n = 3, and the pure qutrit's
    # dense Omega to 1 + 2e-15 (closed form) and 1 + 1.9e-8 (barrier)
    pure = np.full(2, math.sqrt(0.5))
    qutrit = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    cases = [(np.outer(pure, pure), H01, n, "schur-chain") for n in (1, 3)]
    cases += [(np.outer(qutrit, qutrit), np.diag([0.0, 1.0, 2.0]), n,
               "dense") for n in (1, 2)]
    for sigma, H, n, kind in cases:
        res = iid_fidelity(sigma, H, CBIT, H01, n)
        assert res.certificate == kind
        assert 1.0 - 1e-7 < res.fidelity <= 1.0, (kind, n)
        assert 0.0 <= res.gap < DEFAULT.sdp_gap, (kind, n)


@pytest.mark.parametrize("sigma, H, n", [
    (qubit(0.6), H01, 1),
    (qubit(0.6), H01, 3),
    (random_density(3, 1), np.diag([0.0, 1.0, 3.0]), 1),
], ids=["qubit-1", "qubit-3", "qutrit-1"])
def test_one_level_target_has_fidelity_one(sigma, H, n):
    # a target of one level is reached by discarding: tau = Omega, the
    # dephased source, is feasible and Tr tau >= Tr Omega = 1.  Omega has
    # no column for a second target level, and so no links
    res = iid_fidelity(sigma, H, [1.0], [[0.0]], n)
    assert res.fidelity == 1.0
    assert 0.0 <= res.gap < 1e-15


@pytest.mark.parametrize("levels, seed", [
    ([0, 1, 2], 91), ([0, 1, 3], 92), ([0, 1, 2, 3], 95),
])
def test_dense_chain_is_solved_in_closed_form(levels, seed):
    # one copy of a qudit under these levels meets |+> on two levels in
    # singletons and links {(m, 0), (m + 1, 1)}: a chain, as on a spin block
    sigma = random_density(len(levels), seed)
    H = np.diag(np.array(levels, dtype=float))
    res = iid_fidelity(sigma, H, CBIT, H01, 1)
    assert res.certificate == "dense"
    assert (res.blocks, res.blocks_dropped) == (1, 0)
    assert res.newton_steps == res.barrier_stages == 0
    assert res.gap < 1e-12
    dense = conditional_min_entropy(iid_omega_state(sigma, H, CBIT, H01, 1))
    assert abs(res.fidelity - dense.optimum) < DEFAULT.sdp_gap
    assert res.fidelity <= dense.optimum + 1e-15


@pytest.mark.parametrize("levels, seed", [
    # degenerate levels put three product states in one sector
    ([0, 1, 1], 94),
    # a chain of three links whose closed-form dual is clipped
    # (r_0 = u_0/u_1 > 1): its gap, 0.063, is past sdp_gap
    ([0, 1, 2, 3], 93),
])
def test_dense_omega_off_the_closed_form_takes_the_barrier_solver(levels,
                                                                  seed):
    sigma = random_density(len(levels), seed)
    H = np.diag(np.array(levels, dtype=float))
    res = iid_fidelity(sigma, H, CBIT, H01, 1)
    assert res.certificate == "dense"
    assert res.newton_steps > res.barrier_stages > 0
    assert 0.0 <= res.gap < DEFAULT.sdp_gap
    dense = conditional_min_entropy(iid_omega_state(sigma, H, CBIT, H01, 1))
    assert res.fidelity == dense.optimum


@pytest.mark.parametrize("seed", [91, 93, 94])
def test_non_optimal_chain_skips_the_dense_recheck(monkeypatch, seed):
    # these chains' closed-form gaps, 0.31, 0.063 and 0.083, are past
    # sdp_gap, so _chain declines them and only the barrier result is
    # re-checked
    sigma = random_density(4, seed)
    H = np.diag([0.0, 1.0, 2.0, 3.0])
    om = iid_omega_state(sigma, H, CBIT, H01, 1)
    assert _chain(om) is None
    dense = conditional_min_entropy(om)
    checks = []
    real = coherence_forge.distill.verify_certificate

    def counted(result, omega):
        checks.append(result)
        return real(result, omega)

    monkeypatch.setattr(coherence_forge.distill, "verify_certificate",
                        counted)
    res = iid_fidelity(sigma, H, CBIT, H01, 1)
    assert len(checks) == 1
    assert res.fidelity == dense.optimum
    assert res.newton_steps == dense.newton_steps > 0


def test_every_operand_is_held_as_sector_entries(monkeypatch):
    # Omega, tau and X reach verify_certificate as SectorMatrix entries on
    # the dense path (chain and barrier), the Schur chain and the Schur
    # fallback alike
    checked = []
    real = coherence_forge.distill.verify_certificate

    def recorded(result, omega):
        checked.append((result, omega))
        return real(result, omega)

    monkeypatch.setattr(coherence_forge.distill, "verify_certificate",
                        recorded)
    unbalanced = np.array([math.sqrt(0.7), math.sqrt(0.3)])
    for sigma, H, psi, n, kind in [
            (random_density(3, 91), np.diag([0.0, 1.0, 2.0]), CBIT, 1,
             "dense"),
            (random_density(3, 94), np.diag([0.0, 1.0, 1.0]), CBIT, 1,
             "dense"),
            (qubit(0.6), H01, CBIT, 5, "schur-chain"),
            (qubit(0.6), H01, unbalanced, 3, "schur")]:
        checked.clear()
        assert iid_fidelity(sigma, H, psi, H01, n).certificate == kind
        assert checked
        for result, omega in checked:
            for operand in (omega.matrix, result.tau,
                            result.dual_certificate):
                assert isinstance(operand, SectorMatrix), kind


def test_verify_certificate_refuses_a_dense_operand():
    om, res = _barrier_result()
    d_A, N = om.sectors.shape[0], om.sectors.size
    for bad, name in [
            (replace(res, tau=as_dense(res.tau, d_A)), "tau"),
            (replace(res, dual_certificate=as_dense(res.dual_certificate, N)),
             "dual X")]:
        with pytest.raises(CertificateError, match=f"^{name} is a ndarray"):
            verify_certificate(bad, om)
    with pytest.raises(CertificateError, match="^Omega is a ndarray"):
        verify_certificate(res, replace(om, matrix=as_dense(om.matrix, N)))


def test_off_mask_omega_is_refused_before_any_newton_step(monkeypatch):
    # the solver scatters Omega's entries into its sectors, and one
    # across two sectors is refused there, not dropped
    om = iid_omega_state(qubit(0.6), H01, CBIT, H01, 2)
    lab = om.sectors.ravel()
    p, q = 0, int(np.flatnonzero(lab != lab[0])[0])
    M = om.matrix
    off = replace(om, matrix=SectorMatrix(
        np.append(M.rows, [p, q]), np.append(M.cols, [q, p]),
        np.append(M.values, [1e-3, 1e-3])))

    def no_step(*args, **kwargs):
        raise AssertionError("Newton step taken")

    monkeypatch.setattr(_Sectors, "slack", no_step)
    with pytest.raises(CertificateError, match="Omega has an entry off"):
        conditional_min_entropy(off)


def test_iid_omega_state_forms_no_kronecker_product_with_the_target(
        monkeypatch):
    # no copy count takes np.kron: each entry of sigma^(x)n is read off
    # one copy, so neither the d^n power nor the N = d^n d_B Omega is built
    def no_kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    H3 = np.diag([0.0, 1.0, 2.0])
    om = iid_omega_state(random_density(3, 1), H3, np.ones(3) / math.sqrt(3),
                         H3, 1)
    assert om.sectors.size == 9
    om = iid_omega_state(qubit(0.6), H01, CBIT, H01, 3)
    assert om.sectors.size == 16


def test_omega_of_512_product_states_fits_in_a_few_megabytes():
    # a 256-level source into |+>: Omega has 512 product states but only
    # about 1,000 entries inside its sectors, and the barrier solver works
    # on them.  A dense Omega alone would take 4 MB, and the N x N dual
    # another 4; the whole call peaked at 18 MB with both.
    d = 256
    levels = np.arange(d, dtype=float)
    H = HermitianObservable(matrix=np.diag(levels).astype(complex),
                            spectrum=levels,
                            eigenbasis=np.eye(d, dtype=complex))
    sigma, H_B = density_matrix(random_density(d, 3)), observable(H01)
    tracemalloc.start()
    try:
        res = iid_fidelity(sigma, H, CBIT, H_B, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certificate == "dense" and res.newton_steps > 0
    assert peak < 8e6


@pytest.mark.parametrize("psi", [[1.0, 1e-320], [1.0, 1e-320j],
                                 [1e-320, 1.0]])
def test_subnormal_links_have_unit_phases(psi):
    # a target amplitude of 1e-320 makes Omega's links subnormal; their
    # phase link/|link| took 1/|link|, which overflowed (a RuntimeWarning
    # is an error in this suite).  Found by the seeded fuzz of test_fuzz.
    res = iid_fidelity(qubit(0.6), H01, np.array(psi), H01, 2)
    assert 1.0 - DEFAULT.sdp_gap < res.fidelity <= 1.0
    assert 0.0 <= res.gap < DEFAULT.sdp_gap
