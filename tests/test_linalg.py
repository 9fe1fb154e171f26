import math

import numpy as np
import pytest

from coherence_forge.channels import is_ti, random_channel, twirl
from coherence_forge.config import DEFAULT
from coherence_forge.convert import intrinsic_period
from coherence_forge.distill import omega_state
from coherence_forge.errors import (
    DimMismatchError,
    NonHermitianError,
    SchemaError,
    ValidationError,
)
from coherence_forge.linalg import (
    array_from_json,
    array_to_json,
    dephase,
    density_matrix,
    eig_hermitian,
    fidelity,
    level_labels,
    noninteracting_hamiltonian,
    observable,
    partial_trace,
    psd_sqrt,
    pure_state,
    random_density,
    random_observable,
    state_matrix,
    tensor,
)
from coherence_forge.purification import coherence_sectors

H_1D = np.array([0.0, 1.0])   # a level list, not a Hamiltonian matrix
H_QUBIT = np.diag([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


def test_fidelity_pure_vs_maximally_mixed():
    rho = np.diag([1.0, 0.0])
    sigma = np.eye(2) / 2
    assert abs(fidelity(rho, sigma) - 1 / math.sqrt(2)) < 1e-12


def test_fidelity_bounds_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        sigma = random_density(d, rng)
        f = fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert abs(f - fidelity(sigma, rho)) < 1e-10
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        sigma = random_density(d, rng)
        f = fidelity(rho, sigma)
        td = float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
        assert 2 * (1 - f) <= td + 1e-9
        assert td <= 2 * math.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_bures_stability_under_common_unitary():
    # rotating both states by the same small unitary moves each
    # self-overlap by at most 4*sqrt(1 - fidelity(rho, sigma))
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        sigma = random_density(d, rng)
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        U = np.linalg.qr(G)[0]
        lhs = abs(fidelity(U @ rho @ U.conj().T, rho)
                  - fidelity(U @ sigma @ U.conj().T, sigma))
        assert lhs <= 4 * math.sqrt(max(0.0, 1 - fidelity(rho, sigma))) + 1e-9


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(3)
    H = random_observable(5, rng)
    w, V = eig_hermitian(H)
    assert np.max(np.abs((V * w) @ V.conj().T - H)) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e8])
def test_eig_hermitian_checks_scale_with_the_operator(scale):
    # a valid operator decomposes in any units, and a relative 1e-6
    # anti-Hermitian part is still caught
    rng = np.random.default_rng(6)
    for _ in range(5):
        H = scale * random_observable(16, rng)
        w, V = eig_hermitian(H)
        assert np.max(np.abs((V * w) @ V.conj().T - H)) < 1e-10 * scale
        K = 1j * random_observable(16, rng)
        with pytest.raises(NonHermitianError):
            eig_hermitian(H + 1e-6 * scale * K)


def test_eig_hermitian_accepts_stacks():
    rng = np.random.default_rng(7)
    for shape in ((5, 2), (4, 3), (2, 3, 4)):
        *lead, n = shape
        M = np.stack([random_observable(n, rng)
                      for _ in range(math.prod(lead))]).reshape(*lead, n, n)
        w, V = eig_hermitian(M)
        assert w.shape == (*lead, n) and V.shape == (*lead, n, n)
        for idx in np.ndindex(*lead):
            w1, V1 = eig_hermitian(M[idx])
            assert np.array_equal(w[idx], w1) and np.array_equal(V[idx], V1)
    # one bad matrix fails the stack
    M = np.stack([random_observable(3, rng) for _ in range(4)])
    M[2, 0, 1] += 1e-3
    with pytest.raises(NonHermitianError):
        eig_hermitian(M)
    # each matrix is judged at its own scale: units of 1e8 next to units
    # of 1 pass, and a 1e-6 defect in the small one is still caught
    M = np.stack([random_observable(4, rng), 1e8 * random_observable(4, rng)])
    w, V = eig_hermitian(M)
    assert np.max(np.abs((V[1] * w[1]) @ V[1].conj().T - M[1])) < 1e-10 * 1e8
    M[0] += 1e-6j * random_observable(4, rng)
    with pytest.raises(NonHermitianError):
        eig_hermitian(M)
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(DimMismatchError):
            eig_hermitian(bad)


def test_observable_passes_an_observable_through():
    H = observable(random_observable(3, np.random.default_rng(6)))
    assert observable(H) is H


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    rho = random_density(4, rng)
    s = psd_sqrt(rho)
    assert np.max(np.abs(s @ s - rho)) < 1e-10


def test_partial_trace_of_product():
    rng = np.random.default_rng(5)
    a = random_density(2, rng)
    b = random_density(3, rng)
    ab = tensor(a, b)
    assert np.max(np.abs(partial_trace(ab, (2, 3), "A") - a)) < 1e-12
    assert np.max(np.abs(partial_trace(ab, (2, 3), "B") - b)) < 1e-12
    for keep in (0, "C"):
        with pytest.raises(ValidationError):
            partial_trace(ab, (2, 3), keep)


def test_noninteracting_hamiltonian_two_qubits():
    h = np.diag([0.0, 1.0])
    H = noninteracting_hamiltonian([h, h])
    assert np.allclose(np.diag(H).real, [0.0, 1.0, 1.0, 2.0])


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


def _group_levels_reference(w, gap_cutoff):
    """The former grouping: a value joins the open group when it is within
    gap_cutoff of both its predecessor and the group's first value."""
    groups = [[0]]
    for i in range(1, len(w)):
        if (w[i] - w[groups[-1][0]] < gap_cutoff
                and w[i] - w[i - 1] < gap_cutoff):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def test_level_labels_match_former_grouping():
    rng = np.random.default_rng(8)
    for _ in range(300):
        d = int(rng.integers(1, 12))
        # distinct levels at least 1e-6 apart, repeated exactly or split
        # by 1e-12 to mimic a degenerate eigensolve
        steps = rng.choice([0.0, 1e-12, 1e-6, 0.3, 1.0], size=d,
                           p=[0.3, 0.2, 0.1, 0.2, 0.2])
        w = np.cumsum(steps) + rng.normal()
        lab = level_labels(w)
        groups = _group_levels_reference(w, DEFAULT.gap_cutoff)
        assert [np.flatnonzero(lab == k).tolist()
                for k in range(lab.max() + 1)] == groups


def test_level_labels_link_a_chain_of_small_steps():
    # each step is below gap_cutoff, the span is not: still one level
    lab = level_labels([0.0, 0.6e-8, 1.2e-8, 1.0])
    assert lab.tolist() == [0, 0, 0, 1]
    assert level_labels([]).size == 0


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        density_matrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(NonHermitianError):
        density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            density_matrix(np.diag([bad, 0.5]))
        with pytest.raises(ValidationError):
            observable(np.diag([bad, 0.5]))
        # a plain vector stands for its density matrix
        with pytest.raises(ValidationError):
            state_matrix(np.array([bad, 1.0]))


def test_pure_state_requires_unit_norm():
    st = pure_state(np.array([0.6, 0.8]))
    assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        pure_state(np.array([3.0, 4.0]))
    with pytest.raises(ValidationError):
        pure_state(np.zeros(3))
    with pytest.raises(ValidationError):
        pure_state(np.array([math.nan, 1.0]))


def test_json_round_trip():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    again = array_from_json(array_to_json(M))
    assert np.max(np.abs(again - M)) < 1e-15
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.max(np.abs(array_from_json(array_to_json(v)) - v)) < 1e-15


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        array_from_json({"re": [[1.0]]})
    with pytest.raises(SchemaError):
        array_from_json({"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})


@pytest.mark.parametrize("call", [
    lambda: dephase(np.eye(2) / 2, H_1D),
    lambda: coherence_sectors(np.eye(2) / 2, H_1D, 2 * math.pi),
    lambda: omega_state(np.eye(2) / 2, H_1D, PLUS, H_QUBIT),
    lambda: omega_state(np.eye(2) / 2, H_QUBIT, PLUS, H_1D),
    lambda: intrinsic_period(PLUS, H_1D),
    lambda: twirl(random_channel(2, 2, 2, 0), H_1D, H_QUBIT, 2 * math.pi),
    lambda: is_ti(random_channel(2, 2, 2, 0), H_QUBIT, H_1D, 2 * math.pi),
], ids=["dephase", "coherence_sectors", "omega_state_A", "omega_state_B",
        "intrinsic_period", "integer_levels", "is_ti"])
def test_one_dimensional_hamiltonian_is_refused(call):
    # a vector is a state to eig_of, but never a Hamiltonian
    with pytest.raises(DimMismatchError):
        call()
