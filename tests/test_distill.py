import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import coherence_forge

from coherence_forge.config import DEFAULT
from coherence_forge.distill import (
    cirac_comparison,
    conditional_min_entropy,
    distillation_copy_floor,
    is_bound_resource,
    omega_state,
    qubit_infidelity_bound,
    single_sector,
    verify_certificate,
)
from coherence_forge.errors import (
    CertificateError,
    EpsOutOfRangeError,
    IncommensurateSpectrumError,
    ValidationError,
)
from coherence_forge.linalg import dephase, observable, random_density
from coherence_forge.distill import _min_trace_sdp

TAU = 2 * math.pi
H_CBIT = np.diag([math.pi / TAU, -math.pi / TAU])
CBIT = np.array([1.0, 1.0]) / math.sqrt(2)


def qubit(lam):
    """Full-rank coherent qubit: lam |+><+| + (1-lam) I/2."""
    return lam * np.outer(CBIT, CBIT) + (1 - lam) * np.eye(2) / 2


def test_is_bound_resource():
    assert is_bound_resource(qubit(0.6), H_CBIT)
    # incoherent: no resource at all
    assert not is_bound_resource(np.diag([0.7, 0.3]), H_CBIT)
    # pure coherent: support leaks, purity diverges, rate is positive
    assert not is_bound_resource(np.outer(CBIT, CBIT), H_CBIT)


def test_copy_floor_frozen_value():
    floor = distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, 0.01)
    # 0.25 * 197 / 0.5625
    assert abs(floor - 49.25 / 0.5625) < 1e-10
    half = distillation_copy_floor(qubit(0.6), H_CBIT, CBIT, H_CBIT, 0.01,
                                   prob=0.5)
    assert abs(half - floor / 2) < 1e-10


def test_copy_floor_edge_cases():
    # V (2/eps - 3) is a floor only for eps in (0, 2/3)
    for bad in (0.0, 2.0 / 3.0, 1.0):
        with pytest.raises(EpsOutOfRangeError):
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
        om = omega_state(sigma, H_A, psi, H_B)
        bar = psi.conj()
        M0 = np.kron(sigma, np.outer(bar, bar.conj()))
        Delta = np.kron(H_A, np.eye(d_B)) - np.kron(np.eye(d_A), H_B)
        assert np.max(np.abs(om.matrix.matrix - dephase(M0, Delta))) < 1e-10
        assert om.dims == (d_A, d_B)


def test_omega_state_eigenstate_target_factorizes():
    rng = np.random.default_rng(61)
    sigma = random_density(3, rng)
    H_A = np.diag([0.0, 1.0, 2.0])
    H_B = np.diag([0.0, 1.0])
    psi = np.array([0.0, 1.0])
    om = omega_state(sigma, H_A, psi, H_B)
    want = np.kron(dephase(sigma, H_A), np.outer(psi, psi))
    assert np.max(np.abs(om.matrix.matrix - want)) < 1e-12


def test_omega_state_reads_cached_hamiltonian_spectra(monkeypatch):
    # observables lend their cached eigenpairs, which are the ones a
    # plain matrix would give: the same Omega, and only Omega's own
    # validation solve
    rng = np.random.default_rng(62)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    H_A = U @ np.diag([0.0, 1.0, 2.0]) @ U.conj().T
    H_B = np.diag([0.0, 1.0])
    sigma = random_density(3, rng)
    plain = omega_state(sigma, H_A, CBIT, H_B)
    obs_A, obs_B = observable(H_A), observable(H_B)
    sizes = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cached = omega_state(sigma, obs_A, CBIT, obs_B)
    assert sizes == [6]
    assert np.array_equal(cached.matrix.matrix, plain.matrix.matrix)


def test_omega_state_ambiguous_difference_spectrum():
    sigma = np.eye(2) / 2
    H_A = np.diag([0.0, 1e-6])
    H_B = np.diag([0.0])
    with pytest.raises(IncommensurateSpectrumError):
        omega_state(sigma, H_A, np.array([1.0]), H_B)


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
        slack = np.kron(res.tau, np.eye(d_B)) - Om
        assert np.min(np.linalg.eigvalsh(slack)) > -1e-9
        # dual feasibility of X: PSD with Tr_B X <= I
        X = res.dual_certificate
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
        om = omega_state(qubit(lam), H_CBIT, CBIT, H_CBIT)
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
    om = omega_state(rho3, H3, CBIT, np.diag([0.0, 1.0]))
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


def test_cirac_gap_is_exactly_two_over_one_plus_lam():
    for lam in (0.3, 0.6, 0.9):
        for n in (1, 10, 100):
            _, asym = qubit_infidelity_bound(lam, n)
            ratio = cirac_comparison(lam, n) / asym
            assert abs(ratio - 2 / (1 + lam)) < 1e-12


H01 = np.diag([0.0, 1.0])


def _qubit_copies(lam, n):
    """n copies of qubit(lam) with their summed Hamiltonian H01."""
    rho, H = qubit(lam), H01
    for _ in range(n - 1):
        rho = np.kron(rho, qubit(lam))
        H = np.kron(H, np.eye(2)) + np.kron(np.eye(H.shape[0]), H01)
    return rho, H


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
    return omega_state(sigma, H_A, psi, H_B), H_A


def test_sector_solve_matches_full_space_solve():
    # the sector-reduced problem and the one-sector problem on the same
    # Omega agree
    om, H_A = _rotated_instance()
    assert len(np.unique(om.sectors)) > 1
    full = single_sector(om.matrix.matrix, 6, 3)
    a = conditional_min_entropy(om)
    b = conditional_min_entropy(full)
    assert abs(a.optimum - b.optimum) < 1e-7
    # tau is block-diagonal over H_A's eigenspaces, in the caller's basis
    assert np.max(np.abs(a.tau @ H_A - H_A @ a.tau)) < 1e-9


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
             "rotated full": single_sector(om.matrix.matrix, 6, 3)}
    for n in range(1, 5):
        for lam in (0.6, 0.9):
            rho, H = _qubit_copies(lam, n)
            cases[n, lam] = omega_state(rho, H, CBIT, H01)
    for key, omega in cases.items():
        steps, old_steps, optimum = PARENT_PATH[key]
        assert 2 * steps <= old_steps, key
        res = conditional_min_entropy(omega)
        assert res.newton_steps == steps, key
        assert abs(res.optimum - optimum) < 1e-12, key


@pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
def test_four_copy_gap_has_margin(lam):
    # the congruence-rescaled dual certifies the centered gap mu*N
    rho, H = _qubit_copies(lam, 4)
    res = conditional_min_entropy(omega_state(rho, H, CBIT, H01))
    assert res.primal_dual_gap < 5e-8


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gap_is_the_centred_gap(n, lam):
    # the loose intermediate stages leave the final stage centred: the
    # certified gap is mu*N = sdp_gap/4, a 4x margin under the budget
    rho, H = _qubit_copies(lam, n)
    res = conditional_min_entropy(omega_state(rho, H, CBIT, H01))
    centred = DEFAULT.sdp_gap / 4
    assert abs(res.primal_dual_gap - centred) < 0.01 * centred


def test_fstar_independent_of_blas_threads():
    # each child sets its own thread count; this process keeps its own
    src = os.path.dirname(os.path.dirname(coherence_forge.__file__))
    code = (
        "import math, numpy as np\n"
        "from coherence_forge.distill import conditional_min_entropy, "
        "omega_state\n"
        "plus = np.array([1.0, 1.0]) / math.sqrt(2)\n"
        "h = np.diag([0.0, 1.0])\n"
        "for lam in (0.6, 0.75, 0.9):\n"
        "    q = lam * np.outer(plus, plus) + (1 - lam) * np.eye(2) / 2\n"
        "    rho, H = q, h\n"
        "    for _ in range(3):\n"
        "        rho = np.kron(rho, q)\n"
        "        H = np.kron(H, np.eye(2)) + np.kron(np.eye(len(H)), h)\n"
        "    om = omega_state(rho, H, plus, h)\n"
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
    om = omega_state(rho, H, CBIT, H01)
    res = conditional_min_entropy(om)
    assert res.newton_steps > res.barrier_stages > 0
    slack = np.kron(res.tau, np.eye(2)) - om.matrix.matrix
    assert abs(res.min_slack - np.linalg.eigvalsh(slack)[0]) < 1e-12
    assert res.min_slack > 0.0


def test_verify_certificate_rejects_tampering():
    rho, H = _qubit_copies(0.6, 2)
    om = omega_state(rho, H, CBIT, H01)
    res = conditional_min_entropy(om)
    assert verify_certificate(res, om) is res
    tau, X = res.tau, res.dual_certificate
    eye_A, eye = np.eye(tau.shape[0]), np.eye(X.shape[0])
    # eigvalsh reads one triangle, so these pass every eigenvalue test
    upper_A, upper = np.triu(np.ones_like(tau), 1), np.triu(np.ones_like(X), 1)
    tampered = [
        (replace(res, tau=tau + upper_A), "tau is not Hermitian"),
        (replace(res, dual_certificate=X + 0.3j * upper),
         "dual X is not Hermitian"),
        (replace(res, tau=tau - 1e-6 * eye_A), "Omega has eigenvalue"),
        (replace(res, dual_certificate=X - 1e-6 * eye), "dual X has"),
        (replace(res, dual_certificate=1.001 * X), "Tr_B X"),
        (replace(res, tau=tau + 1e-6 * eye_A,
                 optimum=float(np.trace(tau).real) + 4e-6), "recomputed gap"),
        (replace(res, primal_dual_gap=0.0), "reported"),
        (replace(res, optimum=res.optimum - 1e-6), "reported"),
    ]
    for bad, match in tampered:
        with pytest.raises(CertificateError, match=match):
            verify_certificate(bad, om)
