"""Minimal-variance purifications and variance-optimal pure ensembles.

Given rho on S with Hamiltonian H_S, there is a purification |Phi> on S x A
and an auxiliary Hamiltonian H_A such that the total energy variance of
|Phi> under H_S x I + I x H_A equals qfi(rho, H_S)/4, the minimum over all
purifications.  Measuring A in the eigenbasis of that optimal H_A collapses
|Phi> into a pure ensemble for rho whose average variance also equals F/4
(the convex-roof value).

Conventions used throughout: (p, V) is the eigendecomposition of rho with
degenerate eigenspaces rotated so that H_S is diagonal inside each block
(this pins down an otherwise arbitrary basis choice), S = V^dag H_S V, and
the purification is |Phi> = sum_i sqrt(p_i) |phi_i> x |phi_i> with the
*unconjugated* copy, so A-side operators built from coordinate formulas
must be transposed in this basis before rotating back.  |Phi> is held as
its d x d amplitude matrix Phi = V diag(sqrt p) V^T, indexed [s, a]
(Purification.amplitudes), and (H_S x I + I x H_A) vec Phi =
vec(H_S Phi + Phi H_A^T) keeps every joint-state quantity at d x d.  A
pure ensemble holds its unit members as the columns of one d x k array
(PureEnsemble.members); neither array is validated again once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .clockdist import snap_levels
from .errors import (
    IncommensurateSpectrumError,
    PeriodMismatchError,
    ValidationError,
)
from .linalg import (
    HermitianObservable,
    density_matrix,
    eig_hermitian,
    level_labels,
    observable,
    require_same_dim,
)


@dataclass(frozen=True)
class Purification:
    amplitudes: np.ndarray
    aux_hamiltonian: HermitianObservable
    total_variance: float


@dataclass(frozen=True)
class PureEnsemble:
    weights: np.ndarray
    members: np.ndarray
    average_variance: float


def aligned_eigensystem(rho, H):
    """Eigendecomposition of the DensityMatrix rho with the matrix H
    diagonalized inside each degenerate eigenspace of rho.  Returns
    (p ascending, V); V is a fresh array, so a cached eigenbasis is never
    rotated in place."""
    p, V = rho.spectrum, rho.eigenbasis.copy()
    lab = level_labels(p)
    for k in np.flatnonzero(np.bincount(lab) > 1):
        g = np.flatnonzero(lab == k)
        block = V[:, g].conj().T @ H @ V[:, g]
        _, Q = eig_hermitian(block)
        V[:, g] = V[:, g] @ Q
    return p, V


def _amplitudes(p, V) -> np.ndarray:
    """Amplitude matrix V diag(sqrt p) V^T of sum_i sqrt(p_i) |phi_i> x
    |phi_i> over the eigenpairs (p, V), nonpositive p_i left out."""
    return (V * np.sqrt(np.clip(p, 0.0, None))) @ V.T


def _joint_variance(phi, H_S, H_A) -> float:
    """<act|act> - <phi|act>^2, the variance of H_S x I + I x H_A in vec phi,
    with act = H_S phi + phi H_A^T, for plain matrices H_S and H_A."""
    act = H_S @ phi + phi @ H_A.T
    var = np.vdot(act, act).real - np.vdot(phi, act).real ** 2
    if var < -DEFAULT.num:
        raise ValidationError(f"variance {var:.3e} below -tolerance")
    return float(max(var, 0.0))


def _measure(eta, H):
    """Read a pure ensemble off the unnormalised members eta, the columns
    of a d x k array, under the plain matrix H.

    Member k has weight ||eta_k||^2; those at or below rank_cutoff, the
    support rule, are dropped, since on a rank-deficient state the
    outcomes in its kernel carry roundoff weight up to about 1e-11.
    Returns the kept weights renormalised, the kept members as unit
    columns M, and the weighted average of their variances
    ||H psi||^2 - <psi|H|psi>^2, each clamped at 0.
    """
    w = np.einsum("ik,ik->k", eta.conj(), eta).real
    keep = w > DEFAULT.rank_cutoff
    w = w[keep]
    M = eta[:, keep] / np.sqrt(w)
    HM = H @ M
    mean = np.einsum("ik,ik->k", M.conj(), HM).real
    var = np.einsum("ik,ik->k", HM.conj(), HM).real - mean ** 2
    w = w / w.sum()
    return w, M, float(np.sum(w * np.maximum(var, 0.0)))


def _outcomes(pur: Purification) -> np.ndarray:
    """Phi U^* for the eigenbasis U of pur's auxiliary Hamiltonian: column
    k is the unnormalised state S is left in by outcome k of measuring A."""
    U = pur.aux_hamiltonian.eigenbasis
    return pur.amplitudes @ U.conj()


def _coordinate_aux(p, S) -> np.ndarray:
    """Optimal H_A in rho-eigenbasis coordinates (before transposing).

    Entry [j, i] = -2 sqrt(p_i p_j)/(p_i + p_j) * S_ij; pairs with
    p_i + p_j below pair_cutoff sit in the kernel and are zeroed.
    """
    tot = p[:, None] + p[None, :]
    geo = np.sqrt(np.outer(np.clip(p, 0.0, None), np.clip(p, 0.0, None)))
    M = np.zeros_like(tot)
    np.divide(geo, tot, out=M, where=tot > DEFAULT.pair_cutoff)
    return -2.0 * M * S


def kkt_residual(pur: Purification, H_S) -> float:
    """Stationarity residual of the variance minimisation at pur.

    With act = H_S Phi + Phi H_A^T, the variance <act|act> - <Phi|act>^2
    of the amplitude matrix Phi is stationary in the Hermitian H_A
    exactly when the Hermitian part of act^dag Phi - <Phi|act> Phi^dag Phi
    vanishes.  Returns its max-abs entry.  It chooses no basis and runs
    no eigensolve, and the <Phi|act> term makes it blind to a multiple
    of the identity added to H_A, which shifts only the mean energy.
    """
    H_S, H_A = observable(H_S).matrix, pur.aux_hamiltonian.matrix
    require_same_dim(H_A.shape[0], H_S.shape[0])
    phi = pur.amplitudes
    act = H_S @ phi + phi @ H_A.T
    G = act.conj().T @ phi - np.vdot(phi, act).real * (phi.conj().T @ phi)
    return float(np.max(np.abs(0.5 * (G + G.conj().T))))


def build_optimal_purification(rho, H_S) -> Purification:
    """Assemble the minimal-variance purification of rho under H_S.

    The auxiliary Hamiltonian is given in the computational basis of A
    (A carries the same basis labels as S through the unconjugated
    purification, hence the transpose of the coordinate formula), shifted
    by a multiple of the identity so the mean total energy is zero.  rho
    and H_S are coerced once, before H_A is built.
    """
    rho, H_S = density_matrix(rho), observable(H_S).matrix
    require_same_dim(rho.dim, H_S.shape[0])
    p, V = aligned_eigensystem(rho, H_S)
    H_A = V @ _coordinate_aux(p, V.conj().T @ H_S @ V).T @ V.conj().T
    H_A = H_A - (np.trace(rho.matrix @ H_S).real
                 + np.trace(rho.matrix @ H_A).real) * np.eye(p.size)
    phi = _amplitudes(p, V)
    return Purification(amplitudes=phi,
                        aux_hamiltonian=observable(H_A),
                        total_variance=_joint_variance(phi, H_S, H_A))


def optimal_ensemble(pur: Purification, H_S) -> PureEnsemble:
    """Pure ensemble achieving average variance qfi/4, from the optimal
    purification pur of a state under H_S.

    Obtained by measuring the A side of pur in the cached eigenbasis of
    its auxiliary Hamiltonian; outcome k has weight ||<E_k|Phi>||^2 and
    leaves S in the corresponding conditional state.
    """
    H_S = observable(H_S)
    require_same_dim(pur.aux_hamiltonian.dim, H_S.dim)
    return PureEnsemble(*_measure(_outcomes(pur), H_S.matrix))


def coherence_sectors(rho, H, tau: float):
    """Partition the levels of H (see level_labels) into sectors linked by
    coherence of rho.

    Returns (sector projectors, gcd of the coherence-gap integers).  Two
    levels are coherent when a block of rho between them has an entry
    above rank_cutoff; a sector is a class of the transitive closure of
    that relation.  The mean-energy gaps of coherent pairs go through
    snap_levels on the 2*pi/tau grid; PeriodMismatchError when one is
    off it.  rho goes through density_matrix and H through observable.
    """
    rho, H = density_matrix(rho), observable(H)
    require_same_dim(rho.dim, H.dim)
    w, V = H.spectrum, H.eigenbasis
    lab = level_labels(w)
    energy = np.bincount(lab, weights=w) / np.bincount(lab)
    L = energy.size
    # largest coherence between each pair of levels
    C = np.zeros((L, L))
    np.maximum.at(C, (lab[:, None], lab[None, :]),
                  np.abs(V.conj().T @ rho.matrix @ V))
    coherent = C > DEFAULT.rank_cutoff
    lo, hi = np.nonzero(np.triu(coherent, 1))
    try:
        ks = snap_levels(energy[hi] - energy[lo], 0.0, tau)
    except IncommensurateSpectrumError as exc:
        raise PeriodMismatchError("a coherence gap is not a multiple of "
                                  f"2*pi/tau: {exc}") from exc
    # k squarings reach along paths of up to 2**k links; L - 1 suffice
    reach = coherent | coherent.T | np.eye(L, dtype=bool)
    for _ in range((L - 1).bit_length()):
        reach = (reach @ reach.astype(float)) > 0
    # each sector once, led by its lowest level, with columns ascending
    leads = np.flatnonzero(reach.argmax(axis=0) == np.arange(L))
    projectors = []
    for s in leads:
        Vs = V[:, reach[s][lab]]
        projectors.append(Vs @ Vs.conj().T)
    return projectors, math.gcd(*ks.tolist())


def period_respecting_ensemble(rho, H, tau: float) -> PureEnsemble:
    """Variance-optimal ensemble whose members are each tau-periodic.

    Requires rho itself to have full period tau (coherence-gap integers
    with gcd 1); incoherent rho is accepted trivially.  Each member of
    the optimal ensemble is split across the coherence sectors of rho;
    since rho carries no cross-sector coherence the split ensemble still
    averages to rho, and convex-roof minimality forces the average
    variance to stay at qfi/4 exactly.
    """
    rho, H = density_matrix(rho), observable(H)
    projectors, gcd = coherence_sectors(rho, H, tau)
    if gcd > 1:
        raise PeriodMismatchError(
            f"state period is tau/{gcd}, not tau"
        )
    eta = _outcomes(build_optimal_purification(rho, H))
    # column k * len(projectors) + j is the part of member k in sector j
    split = np.stack([P @ eta for P in projectors], axis=-1)
    return PureEnsemble(*_measure(split.reshape(rho.dim, -1), H.matrix))
