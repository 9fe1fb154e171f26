import math

import numpy as np
import pytest

from coherence_forge import purification
from coherence_forge.channels import apply, random_channel
from coherence_forge.linalg import (
    density_matrix,
    fidelity,
    observable,
    random_density,
    random_observable,
)
from coherence_forge.errors import (
    AlphaOutOfRangeError,
    NonHermitianError,
    ValidationError,
)
from coherence_forge.measures import (
    energy_variance,
    purity_of_coherence,
    qfi,
    qfi_via_fidelity,
    renyi_purity_monotone,
    skew_information,
    support_commutes,
)
from coherence_forge.purification import (
    build_optimal_purification,
    coherence_sectors,
    kkt_residual,
)

PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
SZ_HALF = np.diag([0.5, -0.5])
QUBIT = 0.6 * np.outer(PLUS, PLUS) + 0.4 * np.eye(2) / 2


def random_pure(d, rng):
    """Unit vector with complex Gaussian entries, real parts drawn first."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_qubit_reference_values():
    assert abs(qfi(QUBIT, SZ_HALF) - 0.36) < 1e-12
    assert abs(purity_of_coherence(QUBIT, SZ_HALF) - 0.5625) < 1e-12
    assert abs(skew_information(QUBIT, SZ_HALF) - 0.05) < 1e-12


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.5], [0.5, 1.0]]),   # trace 2
    np.array([[0.5, 0.8], [0.8, 0.5]]),   # trace 1, eigenvalue -0.3
], ids=["trace_2", "negative_eigenvalue"])
@pytest.mark.parametrize("call", [
    lambda rho: qfi(rho, SZ_HALF),
    lambda rho: purity_of_coherence(rho, SZ_HALF),
    lambda rho: fidelity(rho, np.eye(2) / 2),
    lambda rho: build_optimal_purification(rho, SZ_HALF),
    lambda rho: energy_variance(rho, SZ_HALF),
    lambda rho: apply(random_channel(2, 2, 2, 0), rho),
    lambda rho: fidelity(np.eye(2) / 2, rho),
    lambda rho: coherence_sectors(rho, SZ_HALF, 2 * math.pi),
], ids=["qfi", "purity", "fidelity", "purification", "energy_variance",
        "apply", "fidelity_sigma", "coherence_sectors"])
def test_a_matrix_that_is_not_a_state_is_refused(call, bad):
    # each coerces its state through density_matrix
    with pytest.raises(ValidationError):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda H, pur: qfi(QUBIT, H),
    lambda H, pur: purity_of_coherence(QUBIT, H),
    lambda H, pur: skew_information(QUBIT, H),
    lambda H, pur: energy_variance(PLUS, H),
    lambda H, pur: kkt_residual(pur, H),
    lambda H, pur: build_optimal_purification(QUBIT, H),
], ids=["qfi", "purity", "skew", "energy_variance", "kkt_residual",
        "purification"])
def test_a_non_hermitian_hamiltonian_is_refused(call, monkeypatch):
    # each coerces H through observable; the purification refuses H_S
    # itself, before any H_A is built from it
    pur = build_optimal_purification(QUBIT, SZ_HALF)

    def no_aux(*args):
        raise AssertionError("H_A built from a non-Hermitian H_S")

    monkeypatch.setattr(purification, "_coordinate_aux", no_aux)
    with pytest.raises(NonHermitianError):
        call(np.array([[0.0, 1.0], [0.0, 0.0]]), pur)


def test_qfi_pure_is_four_times_variance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        psi = random_pure(d, rng)
        H = np.diag(rng.normal(size=d))
        rho = np.outer(psi, psi.conj())
        assert abs(qfi(rho, H) - 4 * energy_variance(psi, H)) < 1e-10


def test_qfi_vanishes_for_commuting_state():
    H = np.diag([0.0, 1.0, 3.0])
    rho = np.diag([0.5, 0.3, 0.2])
    assert qfi(rho, H) < 1e-14
    assert skew_information(rho, H) < 1e-14
    assert purity_of_coherence(rho, H) < 1e-14


def test_purity_dominates_qfi():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        P = purity_of_coherence(rho, H)
        assert P < math.inf
        assert P >= qfi(rho, H) - 1e-10


def test_qubit_closed_form_identity():
    # for a qubit, P = F / (2 (1 - tr rho^2)) whenever rho is mixed
    rng = np.random.default_rng(12)
    for _ in range(50):
        rho = random_density(2, rng)
        H = np.diag(rng.normal(size=2))
        pur = np.trace(rho @ rho).real
        rhs = qfi(rho, H) / (2 * (1 - pur))
        P = purity_of_coherence(rho, H)
        assert abs(P - rhs) < 1e-10 * max(1.0, abs(P))


def test_skew_sandwich_against_qfi():
    """F/2 <= W <= F is asserted upstream; with the conventions fixed here
    (F of a pure state is 4V, W of a pure state is V) the true envelope is
    F/8 <= W <= F/4, so this check fails as written.  Kept faithful."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        F = qfi(rho, H)
        W = skew_information(rho, H)
        assert F / 2 - 1e-10 <= W <= F + 1e-10


def test_skew_true_envelope():
    rng = np.random.default_rng(14)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        F = qfi(rho, H)
        W = skew_information(rho, H)
        assert F / 8 - 1e-10 <= W <= F / 4 + 1e-10


def test_skew_pure_equals_variance():
    # sqrt(p) amplifies eigenvalue noise of the rank-1 projector
    # (1e-16 -> 1e-8), so the tolerance is looser than elsewhere
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        psi = random_pure(d, rng)
        H = np.diag(rng.normal(size=d))
        rho = np.outer(psi, psi.conj())
        assert abs(skew_information(rho, H) - energy_variance(psi, H)) < 1e-7


def test_purity_infinite_on_support_leak():
    # rank-1 |+><+| with H = sigma_z/2: support does not commute
    rho = np.outer(PLUS, PLUS)
    assert not support_commutes(rho, SZ_HALF)
    assert purity_of_coherence(rho, SZ_HALF) == math.inf
    assert renyi_purity_monotone(rho, SZ_HALF, 1.5) == math.inf
    # but a rank-1 eigenstate of H is fine
    e0 = np.diag([1.0, 0.0])
    assert support_commutes(e0, SZ_HALF)
    assert purity_of_coherence(e0, SZ_HALF) < 1e-14


@pytest.mark.parametrize("coupling, commutes", [(1.2e-9, False),
                                                 (0.5e-9, True)])
def test_support_verdict_is_the_same_in_every_frame(coupling, commutes):
    # rho = diag(1/2, 1/2, 0) with a support-kernel coupling H_02 = H_20:
    # ||[Pi, H]||_F = sqrt(2) x coupling, 1.7e-9 or 0.71e-9 against the
    # commute cutoff of 1e-9, whatever joint unitary U rotates the pair
    rho = np.diag([0.5, 0.5, 0.0])
    H = np.diag([0.0, 1.0, 2.0])
    H[0, 2] = H[2, 0] = coupling
    rng = np.random.default_rng(24)
    for _ in range(5):
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        U = np.linalg.qr(G)[0]
        rho_u, H_u = U @ rho @ U.conj().T, U @ H @ U.conj().T
        assert support_commutes(rho_u, H_u) == commutes
        assert math.isfinite(purity_of_coherence(rho_u, H_u)) == commutes


def test_renyi_alpha_two_matches_purity():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        r2 = renyi_purity_monotone(rho, H, 2.0)
        P = purity_of_coherence(rho, H)
        assert abs(r2 - P) < 1e-10 * max(1.0, P)


def test_renyi_alpha_range():
    with pytest.raises(AlphaOutOfRangeError):
        renyi_purity_monotone(QUBIT, SZ_HALF, 1.0)
    with pytest.raises(AlphaOutOfRangeError):
        renyi_purity_monotone(QUBIT, SZ_HALF, 2.5)


def test_qfi_via_fidelity_matches_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        F = qfi(rho, H)
        assert abs(qfi_via_fidelity(rho, H) - F) < 1e-5 * max(1.0, F)


def test_qfi_via_fidelity_reads_cached_spectra(monkeypatch):
    # a DensityMatrix and an observable lend their spectra to every
    # fidelity, so the curvature QFI makes no eigensolve of its own
    rng = np.random.default_rng(20)
    rho = density_matrix(random_density(4, rng))
    H = observable(random_observable(4, rng))
    calls = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        calls.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    F = qfi(rho, H)
    assert abs(qfi_via_fidelity(rho, H) - F) < 1e-5 * max(1.0, F)
    assert calls == []


def test_qfi_via_fidelity_decomposes_a_plain_rho_once(monkeypatch):
    # plain arrays, as acceptance criterion 6 passes them: one solve for
    # rho, kept for all five fidelities, and one for H
    rng = np.random.default_rng(20)
    rho, H = random_density(4, rng), random_observable(4, rng)
    F = qfi(rho, H)
    calls = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        calls.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert abs(qfi_via_fidelity(rho, H) - F) < 1e-5 * max(1.0, F)
    assert calls == [4, 4]


def test_near_mixed_deviation_is_quadratic():
    # rho = I/d + eps A: P/F - 1 vanishes like eps^2, so halving eps
    # cuts the deviation by about 4 (acceptance criterion 5 uses the
    # same window)
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = (A + A.conj().T) / 2
        A = A - np.trace(A) / d * np.eye(d)
        A = A / np.sum(np.abs(np.linalg.eigvalsh(A)))
        H = np.diag(rng.normal(size=d))
        devs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            rho = np.eye(d) / d + eps * A
            F = qfi(rho, H)
            P = purity_of_coherence(rho, H)
            devs.append(abs(P / F - 1.0))
        assert 0.2 < devs[1] / devs[0] < 0.3
        assert 0.2 < devs[2] / devs[1] < 0.3
