import json
import math
import warnings

import numpy as np
import pytest

from coherence_forge import cli, distill
from coherence_forge.channels import monotonicity_suite, random_channel, twirl
from coherence_forge.clockdist import (
    IntegerDistribution,
    barbour_bound,
    convolve_n,
    tp_distance,
)
from coherence_forge.config import DEFAULT
from coherence_forge.convert import intrinsic_period, iid_sweep
from coherence_forge.distill import iid_omega_state
from coherence_forge.errors import (
    SchemaError,
    ValidationError,
)
from coherence_forge.linalg import (
    array_from_json,
    array_to_json,
    density_matrix,
    eig_hermitian,
    fidelity,
    level_labels,
    observable,
    psd_sqrt,
    pure_state,
    random_density,
    random_observable,
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
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_refuses_non_finite_entries():
    # NaN fails every comparison, so the Hermiticity and reconstruction
    # checks alone would let it through
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[math.nan, 0.0], [0.0, 1.0]]))
    M = np.stack([np.eye(3)] * 4)
    M[2, 1, 1] = math.nan
    with pytest.raises(ValidationError):
        eig_hermitian(M)


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
        with pytest.raises(ValidationError, match="deviates from Hermiticity"):
            eig_hermitian(H + 1e-6 * scale * K)


def test_eig_hermitian_verdict_does_not_depend_on_the_unit():
    # both limits scale with the matrix's own max|M|, with no floor of 1:
    # an operator in units of 1e-11 whose skew is as large as its entries
    # is refused, and at every power-of-two unit, where the checks'
    # arithmetic is exact, each verdict is the one at unit scale
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        observable(1e-11 * np.array([[1.0, 1.0], [0.0, 2.0]]))
    rng = np.random.default_rng(71)
    H = random_observable(6, rng)
    K = random_observable(6, rng)
    skewed = H + 0.01j * np.max(np.abs(H)) * K / np.max(np.abs(K))
    eig_hermitian(H)
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        eig_hermitian(skewed)
    for k in range(-40, 41):
        eig_hermitian(2.0 ** k * H)
        with pytest.raises(ValidationError, match="deviates from Hermiticity"):
            eig_hermitian(2.0 ** k * skewed)
    # the zero and empty matrices have nothing to misjudge
    assert eig_hermitian(np.zeros((2, 2)))[0].tolist() == [0.0, 0.0]
    assert eig_hermitian(np.zeros((0, 0)))[0].shape == (0,)
    assert eig_hermitian(np.zeros((0, 3, 3)))[0].shape == (0, 3)


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
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        eig_hermitian(M)
    # each matrix is judged at its own scale: units of 1e8 next to units
    # of 1 pass, and a 1e-6 defect in the small one is still caught
    M = np.stack([random_observable(4, rng), 1e8 * random_observable(4, rng)])
    w, V = eig_hermitian(M)
    assert np.max(np.abs((V[1] * w[1]) @ V[1].conj().T - M[1])) < 1e-10 * 1e8
    M[0] += 1e-6j * random_observable(4, rng)
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        eig_hermitian(M)
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(ValidationError,
                           match="expected a square matrix or a stack"):
            eig_hermitian(bad)


def test_observable_passes_an_observable_through():
    H = observable(random_observable(3, np.random.default_rng(6)))
    assert observable(H) is H


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    rho = random_density(4, rng)
    s = psd_sqrt(rho)
    assert np.max(np.abs(s @ s - rho)) < 1e-10


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
    with pytest.raises(ValidationError, match="deviates from Hermiticity"):
        density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            density_matrix(np.diag([bad, 0.5]))
        with pytest.raises(ValidationError):
            observable(np.diag([bad, 0.5]))
        # a plain vector stands for its density matrix
        with pytest.raises(ValidationError):
            density_matrix(np.array([bad, 1.0]))


def test_density_matrix_refuses_a_huge_vector_before_its_projector():
    # |v><v| of an entry near 1e155 or above would overflow in np.outer;
    # it is refused first, with no warning, and a unit vector's
    # projector is formed as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e200, 1e76, 1e155j):
            with pytest.raises(ValidationError, match="sqrt.MAX_ENTRY"):
                density_matrix(np.array([big, 0.0]))
    v = np.array([0.6, 0.8j])
    assert np.array_equal(density_matrix(pure_state(v)).matrix,
                          np.outer(v, v.conj()))


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
    lambda: coherence_sectors(np.eye(2) / 2, H_1D, 2 * math.pi),
    lambda: iid_omega_state(np.eye(2) / 2, H_1D, PLUS, H_QUBIT, 1),
    lambda: iid_omega_state(np.eye(2) / 2, H_QUBIT, PLUS, H_1D, 1),
    lambda: intrinsic_period(PLUS, H_1D),
    lambda: twirl(random_channel(2, 2, 2, 0), H_1D, H_QUBIT, 2 * math.pi),
    lambda: twirl(random_channel(2, 2, 2, 0), H_QUBIT, H_1D, 2 * math.pi),
], ids=["coherence_sectors", "omega_state_A", "omega_state_B",
        "intrinsic_period", "integer_levels", "integer_levels_out"])
def test_one_dimensional_hamiltonian_is_refused(call):
    # a vector is a state to density_matrix, but never a Hamiltonian
    with pytest.raises(ValidationError, match="expected a square matrix"):
        call()


def _levels_file(tmp_path):
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"levels_in_2pi_over_tau": [1, 0]}))
    return cli.load_hamiltonian(str(ham))[0]


@pytest.mark.parametrize("make", [
    lambda _: observable(random_observable(3, 0)),
    lambda _: density_matrix(random_density(3, 0)),
    _levels_file,
], ids=["observable", "density_matrix", "levels_file"])
def test_container_eigenpairs_are_read_only(tmp_path, make):
    # every builder goes through the container, which freezes both arrays
    ob = make(tmp_path)
    for arr in (ob.spectrum, ob.eigenbasis):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


_P = IntegerDistribution(offset=0, probs=np.array([0.25, 0.5, 0.25]))
# (entry point taking a count n, the name its messages give n)
COUNTED = [
    (lambda n: distill.iid_fidelity(np.eye(2) / 2, H_QUBIT, PLUS, H_QUBIT, n),
     "copies"),
    (lambda n: iid_omega_state(np.eye(2) / 2, H_QUBIT, PLUS, H_QUBIT, n),
     "copies"),
    (lambda n: distill.qubit_infidelity_bound(0.6, n), "n"),
    (lambda n: distill.cirac_comparison(0.6, n), "n"),
    (lambda n: convolve_n(_P, n), "m"),
    (lambda n: barbour_bound(_P, n), "m"),
    (lambda n: tp_distance(_P, n, _P), "m"),
    (lambda n: iid_sweep(PLUS, H_QUBIT, PLUS, H_QUBIT, 1.0, [n]),
     "copy counts"),
    (lambda n: monotonicity_suite("F", n), "trials"),
]


@pytest.mark.parametrize("fn, name", COUNTED,
                         ids=[name for _, name in COUNTED])
def test_every_count_takes_one_rule(fn, name):
    # an integer (a numpy one too, not a bool) of at least 1, refused
    # with the count's name before any work
    for n in (2.5, True, "3", None, math.nan, np.float64(2.0)):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be an integer"):
            fn(n)
    for n in (0, -3, np.int64(0)):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be at least 1"):
            fn(n)
    # read as the int it equals, so no numpy integer reaches the result
    assert repr(fn(np.int64(2))) == repr(fn(2))
