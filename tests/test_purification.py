import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coherence_forge import cli
from coherence_forge.config import DEFAULT
from coherence_forge.errors import PeriodMismatchError, ValidationError
from coherence_forge.linalg import (
    array_to_json,
    density_matrix,
    eig_hermitian,
    observable,
    random_density,
    random_observable,
)
from coherence_forge.measures import energy_variance, qfi, skew_information
from coherence_forge.purification import (
    aligned_eigensystem,
    build_optimal_purification,
    coherence_sectors,
    kkt_residual,
    optimal_ensemble,
    period_respecting_ensemble,
)


def _mixture(ens):
    """sum_k w_k |psi_k><psi_k| of a PureEnsemble."""
    return (ens.members * ens.weights) @ ens.members.conj().T


def test_canonical_purification_reduces_to_rho():
    # the optimal purification's joint state is the canonical one
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        phi = build_optimal_purification(rho, random_observable(d, rng)
                                         ).amplitudes.reshape(-1)
        joint = np.outer(phi, phi.conj())
        red = np.einsum("ijkj->ik", joint.reshape(d, d, d, d))
        assert np.max(np.abs(red - rho)) < 1e-10
        # reference: the sum over eigenpairs, one Kronecker term each
        # (same eigensolver, so the eigenvector phases agree)
        p, V = eig_hermitian(rho)
        ref = sum(np.sqrt(p[i]) * np.kron(V[:, i], V[:, i])
                  for i in range(d) if p[i] > 0)
        assert np.max(np.abs(phi - ref)) < 1e-12


def test_optimal_purification_hits_quarter_qfi():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        pur = build_optimal_purification(rho, H)
        F = qfi(rho, H)
        assert abs(pur.total_variance - F / 4) < 1e-8 * max(1.0, F)
        assert kkt_residual(pur, H) < 1e-10
        H_A = _stationary_aux_hamiltonian(rho, H)
        assert np.max(np.abs(pur.aux_hamiltonian.matrix - H_A)) < 1e-12


def _stationary_aux_hamiltonian(rho, H):
    """Reference H_A: for full-rank rho = V diag(p) V^dag, X = A^T (with
    A = V^dag H_A V) solves the stationarity equation
    (X D + D X)/2 = -sqrt(D) S sqrt(D), as a d^2 x d^2 linear system."""
    p, V = np.linalg.eigh(rho)
    d = p.size
    S = V.conj().T @ H @ V
    D = np.diag(p)
    lhs = 0.5 * (np.kron(D, np.eye(d)) + np.kron(np.eye(d), D))
    rhs = -(np.sqrt(D) @ S @ np.sqrt(D))
    X = np.linalg.solve(lhs, rhs.ravel()).reshape(d, d)
    return V @ X.T @ V.conj().T


def _degenerate_fixture():
    """rho with a two-fold degenerate eigenvalue, and a diagonal H."""
    rng = np.random.default_rng(32)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    V = np.linalg.qr(G)[0]
    rho = V @ np.diag([0.4, 0.3, 0.15, 0.15]) @ V.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho, np.diag(rng.normal(size=4))


def test_clipped_negative_eigenvalues_purify(tmp_path, capsys):
    # four eigenvalues at -9e-11, each within psd, and four equal ones
    # summing to 1: clipping the negative ones leaves ||Phi|| = 1 + 1.8e-10,
    # and since Phi is not validated again as a unit vector, a state that
    # density_matrix accepts also purifies
    rng = np.random.default_rng(41)
    G = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    Q = np.linalg.qr(G)[0]
    p = np.array([-9e-11] * 4 + [(1 + 4 * 9e-11) / 4] * 4)
    rho, H = (Q * p) @ Q.conj().T, np.diag(np.arange(8.0))
    assert np.min(density_matrix(rho).spectrum) < 0.0
    pur = build_optimal_purification(rho, H)
    F = qfi(rho, H)
    assert abs(4 * pur.total_variance - F) < 1e-8 * F
    assert kkt_residual(pur, H) < 1e-10
    ens = optimal_ensemble(pur, H)
    assert np.max(np.abs(_mixture(ens) - rho)) < 1e-9
    files = []
    for name, M in (("rho.json", rho), ("h.json", H)):
        (tmp_path / name).write_text(json.dumps(array_to_json(M)))
        files.append(str(tmp_path / name))
    assert cli.main(["purify", "--state", files[0], "--ham", files[1],
                     "--ensemble"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["ensemble"]) == ens.members.shape[1]


def test_optimal_purification_degenerate_spectrum():
    # two-fold degenerate rho eigenvalue: the aligned frame must still
    # deliver variance F/4 and a clean stationarity residual
    rho, H = _degenerate_fixture()
    pur = build_optimal_purification(rho, H)
    F = qfi(rho, H)
    assert abs(pur.total_variance - F / 4) < 1e-8 * max(1.0, F)
    assert kkt_residual(pur, H) < 1e-10
    # the container's cached eigenbasis gives the same result and is
    # neither rotated in place nor writable
    dm = density_matrix(rho)
    basis = dm.eigenbasis.copy()
    pur_dm = build_optimal_purification(dm, H)
    assert abs(pur_dm.total_variance - pur.total_variance) < 1e-12
    assert np.max(np.abs(pur_dm.aux_hamiltonian.matrix
                         - pur.aux_hamiltonian.matrix)) < 1e-12
    assert kkt_residual(pur_dm, H) < 1e-10
    assert np.array_equal(dm.eigenbasis, basis)
    with pytest.raises(ValueError):
        dm.eigenbasis[0, 0] = 0.0


def test_kkt_residual_detects_a_moved_aux_hamiltonian():
    # the residual is small only at the optimum: moving H_A by a seeded
    # Hermitian 1e-3 matrix, with the joint state kept, lifts it far
    # above the 1e-10 the built purification meets, for a mixed, a
    # degenerate and a pure state alike
    rng = np.random.default_rng(40)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    cases = [(random_density(4, rng), random_observable(4, rng)),
             _degenerate_fixture(),
             (np.outer(psi, psi.conj()), random_observable(4, rng))]
    for rho, H in cases:
        pur = build_optimal_purification(rho, H)
        assert kkt_residual(pur, H) < 1e-10
        moved = observable(pur.aux_hamiltonian.matrix
                           + 1e-3 * random_observable(4, rng))
        assert kkt_residual(replace(pur, aux_hamiltonian=moved), H) >= 1e-5
    with pytest.raises(ValidationError,
                       match="state dim 4 != Hamiltonian dim 3"):
        kkt_residual(pur, np.eye(3))


def _kron_variance(vec, H_S, H_A):
    """Reference: the variance of the d^2 x d^2 matrix H_S x I + I x H_A
    in the joint vector."""
    I = np.eye(H_S.shape[0])
    return energy_variance(vec, np.kron(H_S, I) + np.kron(I, H_A))


def test_joint_variance_matches_kronecker_reference():
    rng = np.random.default_rng(39)
    cases = [(random_density(d, rng), random_observable(d, rng))
             for d in range(2, 7) for _ in range(3)]
    for rho, H in cases + [_degenerate_fixture()]:
        F = qfi(rho, H)
        pur = build_optimal_purification(rho, H)
        ref = _kron_variance(pur.amplitudes.reshape(-1), H,
                             pur.aux_hamiltonian.matrix)
        assert abs(pur.total_variance - ref) < 1e-12 * max(1.0, F)
        # the transpose choice H_A = -S^T, with |Phi> as a sum of
        # Kronecker terms, has total variance twice the skew information
        p, V = aligned_eigensystem(density_matrix(rho), H)
        S = V.conj().T @ H @ V
        vec = sum(np.sqrt(p[i]) * np.kron(V[:, i], V[:, i])
                  for i in range(p.size) if p[i] > 0)
        ref = _kron_variance(vec, H, V @ (-S.T) @ V.conj().T)
        assert abs(ref - 2 * skew_information(rho, H)) < 1e-10 * max(1.0, F)


def test_optimal_ensemble_reconstructs_and_is_optimal():
    rng = np.random.default_rng(36)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        ens = optimal_ensemble(build_optimal_purification(rho, H), H)
        assert np.max(np.abs(_mixture(ens) - rho)) < 1e-9
        assert abs(sum(ens.weights) - 1.0) < 1e-12
        F = qfi(rho, H)
        assert abs(ens.average_variance - F / 4) < 1e-8 * max(1.0, F)


def test_optimal_ensemble_does_not_move_with_the_zero_of_energy():
    # the member variances are norms of (H - <H>) psi, so H + 1e6 I keeps
    # 4 x average_variance on F up to the rounding of H's entries
    H = np.diag([0.0, 1.0, 2.0]) + 1e6 * np.eye(3)
    for s in range(20):
        rho = random_density(3, s)
        F = qfi(rho, H)
        ens = optimal_ensemble(build_optimal_purification(rho, H), H)
        assert abs(4 * ens.average_variance - F) <= 1e-8 * F, s


def test_random_ensembles_cannot_undercut():
    # any ensemble of rho obtained through a random isometry on the
    # purifier has average variance >= F/4
    rng = np.random.default_rng(37)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        rho = random_density(d, rng)
        H = np.diag(rng.normal(size=d))
        F = qfi(rho, H)
        phi_mat = build_optimal_purification(rho, H).amplitudes
        for _ in range(20):
            G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            U = np.linalg.qr(G)[0]
            avg = 0.0
            for k in range(d):
                eta = phi_mat @ U[:, k].conj()
                w = float(np.vdot(eta, eta).real)
                if w < 1e-14:
                    continue
                avg += w * energy_variance(eta / math.sqrt(w), H)
            assert avg >= F / 4 - 1e-9


def _reference_ensemble(weights, states, H):
    """Renormalised weights, the members and the average of
    energy_variance over them, one member at a time."""
    weights = np.asarray(weights) / np.sum(weights)
    avg = float(sum(w * energy_variance(st, H)
                    for w, st in zip(weights, states)))
    return weights, states, avg


def _optimal_ensemble_reference(pur, H):
    """The former optimal_ensemble: one outcome of measuring A in the
    eigenbasis of H_A at a time, kept above rank_cutoff."""
    U = pur.aux_hamiltonian.eigenbasis
    weights, states = [], []
    for k in range(U.shape[0]):
        eta = pur.amplitudes @ U[:, k].conj()
        w = float(np.vdot(eta, eta).real)
        if w <= DEFAULT.rank_cutoff:
            continue
        weights.append(w)
        states.append(eta / np.sqrt(w))
    return _reference_ensemble(weights, states, H)


def _period_respecting_reference(rho, H, tau):
    """The former period_respecting_ensemble: each member of the optimal
    ensemble split over the coherence sectors, one part at a time."""
    projectors, _ = coherence_sectors(rho, H, tau)
    base_w, base_states, _ = _optimal_ensemble_reference(
        build_optimal_purification(rho, H), H)
    weights, states = [], []
    for w, st in zip(base_w, base_states):
        for P in projectors:
            comp = P @ st
            wc = float(np.vdot(comp, comp).real) * w
            if wc <= DEFAULT.rank_cutoff:
                continue
            weights.append(wc)
            states.append(comp / np.linalg.norm(comp))
    return _reference_ensemble(weights, states, H)


def _assert_matches_reference(ens, ref, F):
    weights, states, avg = ref
    assert ens.members.shape[1] == len(states)
    assert np.max(np.abs(ens.weights - weights)) < 1e-14
    for member, vec in zip(ens.members.T, states):
        assert np.max(np.abs(member - vec)) < 1e-14
    assert abs(ens.average_variance - avg) < 1e-12 * max(1.0, F)


def test_optimal_ensemble_matches_per_member_reference():
    rng = np.random.default_rng(45)
    cases = [(random_density(d, rng), random_observable(d, rng))
             for d in range(2, 33)]
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi = psi / np.linalg.norm(psi)
    G = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    low_rank = G @ G.conj().T
    cases += [_degenerate_fixture(),
              (np.outer(psi, psi.conj()), random_observable(5, rng)),
              (low_rank / np.trace(low_rank).real, random_observable(6, rng))]
    kept = []
    for rho, H in cases:
        pur = build_optimal_purification(rho, H)
        ens = optimal_ensemble(pur, H)
        ref = _optimal_ensemble_reference(pur, H)
        _assert_matches_reference(ens, ref, qfi(rho, H))
        kept.append(ens.members.shape[1])
    # the pure and the rank-2 state leave outcomes below rank_cutoff out
    assert kept[-2:] == [1, 2]


def test_rank_two_states_give_two_members():
    # measuring A in H_A's kernel eigenvectors leaves roundoff weight up
    # to 2.6e-11 on these cases, five of which a cut at pair_cutoff kept
    # as a third member of noise
    rng = np.random.default_rng(1)
    for d in (8, 16, 32, 64):
        for _ in range(5):
            G = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
            rho = G @ G.conj().T
            rho /= np.trace(rho).real
            H = random_observable(d, rng)
            ens = optimal_ensemble(build_optimal_purification(rho, H), H)
            assert ens.members.shape[1] == 2, d
            assert np.max(np.abs(_mixture(ens) - rho)) < DEFAULT.num


def _member_is_periodic(vec, H, tau):
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * w * tau)) @ V.conj().T
    out = U @ vec
    ph = np.vdot(vec, out)
    return np.max(np.abs(out - ph * vec)) < 1e-9


def test_period_respecting_ensemble_members_are_periodic():
    rng = np.random.default_rng(38)
    H = np.diag([0.0, 1.0, 2.0])
    tau = 2 * math.pi
    for _ in range(10):
        rho = random_density(3, rng)
        ens = period_respecting_ensemble(rho, H, tau)
        F = qfi(rho, H)
        assert abs(ens.average_variance - F / 4) < 1e-8 * max(1.0, F)
        assert np.max(np.abs(_mixture(ens) - rho)) < 1e-9
        _assert_matches_reference(
            ens, _period_respecting_reference(rho, H, tau), F)
        for member in ens.members.T:
            assert _member_is_periodic(member, H, tau)


def test_period_respecting_rejects_shorter_period():
    # coherence only across the gap 2 means the state repeats at tau/2
    psi = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    rho = np.outer(psi, psi)
    H = np.diag([0.0, 1.0, 2.0])
    with pytest.raises(PeriodMismatchError):
        period_respecting_ensemble(rho, H, 2 * math.pi)


def test_period_respecting_splits_cross_sector_members():
    # rho block-diagonal across sectors {0,1} and {2}: optimal-ensemble
    # members that straddle the sectors get split, without changing the
    # average variance
    H = np.diag([0.0, 1.0, 5.0])
    rho = np.zeros((3, 3), dtype=complex)
    psi01 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    rho += 0.7 * np.outer(psi01, psi01)
    rho[2, 2] = 0.3
    ens = period_respecting_ensemble(rho, H, 2 * math.pi)
    assert np.max(np.abs(_mixture(ens) - rho)) < 1e-9
    F = qfi(rho, H)
    assert abs(ens.average_variance - F / 4) < 1e-8 * max(1.0, F)
    _assert_matches_reference(
        ens, _period_respecting_reference(rho, H, 2 * math.pi), F)
    for member in ens.members.T:
        assert _member_is_periodic(member, H, 2 * math.pi)


def _coherence_sectors_reference(rho, H, tau, tols):
    """The former coherence_sectors: eigenvalue groups by first-value and
    neighbour gaps, each coherent pair of groups snapped on its own, and
    sectors from a union-find."""
    w, V = np.linalg.eigh(H)
    groups = [[0]]
    for i in range(1, w.size):
        if (w[i] - w[groups[-1][0]] < tols.gap_cutoff
                and w[i] - w[i - 1] < tols.gap_cutoff):
            groups[-1].append(i)
        else:
            groups.append([i])
    rt = V.conj().T @ rho @ V
    unit = 2.0 * np.pi / tau
    parent = list(range(len(groups)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gap_ints = []
    for g in range(len(groups)):
        for h in range(g + 1, len(groups)):
            block = rt[np.ix_(groups[g], groups[h])]
            if np.max(np.abs(block)) <= tols.rank_cutoff:
                continue
            gap = w[groups[h][0]] - w[groups[g][0]]
            k = round(gap / unit)
            if abs(gap - k * unit) > tols.level_rel * unit:
                raise PeriodMismatchError(f"coherence gap {gap:.6g}")
            gap_ints.append(abs(int(k)))
            parent[find(g)] = find(h)
    sectors = {}
    for g in range(len(groups)):
        sectors.setdefault(find(g), []).extend(groups[g])
    projectors = [V[:, m] @ V[:, m].conj().T for m in sectors.values()]
    return projectors, math.gcd(*gap_ints)


def test_coherence_sectors_match_union_find_reference():
    rng = np.random.default_rng(44)
    gcds = set()
    for _ in range(150):
        d = int(rng.integers(2, 7))
        tau = float(rng.choice([2 * math.pi, 1.0]))
        # integer levels, often degenerate, on a random eigenbasis
        step = int(rng.integers(1, 3))
        levels = step * np.sort(rng.integers(0, 4, size=d))
        U = np.linalg.qr(rng.normal(size=(d, d))
                         + 1j * rng.normal(size=(d, d)))[0]
        H = U @ np.diag(levels * 2 * math.pi / tau) @ U.conj().T
        H = (H + H.conj().T) / 2
        # a mixture of pure states, each on a few random levels, so that
        # sectors form from chains of coherent pairs as well as blocks
        distinct = np.unique(levels)
        M = np.zeros((d, d), dtype=complex)
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, min(3, distinct.size) + 1))
            on = np.isin(levels, rng.choice(distinct, size, replace=False))
            v = (rng.normal(size=d) + 1j * rng.normal(size=d)) * on
            M += np.outer(v, v.conj())
        V = np.linalg.eigh(H)[1]
        rho = V @ (M / np.trace(M).real) @ V.conj().T
        for t in (tau, 1.3 * tau):
            try:
                ref, ref_gcd = _coherence_sectors_reference(rho, H, t, DEFAULT)
            except PeriodMismatchError:
                with pytest.raises(PeriodMismatchError):
                    coherence_sectors(rho, H, t)
                continue
            got, got_gcd = coherence_sectors(rho, H, t)
            assert got_gcd == ref_gcd
            gcds.add(got_gcd)
            assert len(got) == len(ref)
            for P in ref:
                assert sum(np.max(np.abs(P - Q)) < 1e-12 for Q in got) == 1
    assert {0, 1, 2} <= gcds
