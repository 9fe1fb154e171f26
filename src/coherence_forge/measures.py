"""Coherence quantifiers for a state evolving under a Hamiltonian.

All quantities measure how far rho is from commuting with H:

    qfi                  F = 2 sum_{jk} (p_j-p_k)^2/(p_j+p_k) |H_jk|^2
    purity_of_coherence  P = tr(H rho^2 H rho^+) - tr(rho H^2)
    skew_information     W = -tr([sqrt(rho), H]^2)/2

with H_jk the matrix elements of H in the eigenbasis of rho.  F and W are
always finite; P (and the Renyi family that interpolates to it) blows up
whenever rho carries coherence between its support and its kernel, which
is flagged rather than returned as a float sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    AlphaOutOfRangeError,
    DimMismatchError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    density_matrix,
    eig_of,
    fidelity,
    obs_eig,
    obs_matrix,
    state_matrix,
)


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative measure that may be infinite.

    The flag is explicit so downstream branching never has to sniff float
    sentinels; value is math.inf exactly when infinite is True.
    """

    value: float
    infinite: bool = False

    @classmethod
    def finite(cls, v: float) -> "MeasureValue":
        return cls(value=float(v), infinite=False)

    @classmethod
    def inf(cls) -> "MeasureValue":
        return cls(value=math.inf, infinite=True)

    def __float__(self) -> float:
        return self.value


def _operands(rho, H):
    """rho and H as plain matrices, after checking that their dims agree."""
    rho, H = state_matrix(rho), obs_matrix(H)
    if rho.shape != H.shape:
        raise DimMismatchError(
            f"state dim {rho.shape[0]} != Hamiltonian dim {H.shape[0]}"
        )
    return rho, H


def _spectral(rho, H, tols: Tolerances):
    """Eigenvalues p of rho (ascending), its eigenbasis V, and
    A = V^dag H V, H in rho's eigenbasis."""
    _, H = _operands(rho, H)
    p, V = eig_of(rho, tols)
    return p, V, V.conj().T @ H @ V


def _support_commutes(p, V, H, tols: Tolerances) -> bool:
    """Max-abs entry of [Pi, H] below tols.commute, with Pi the projector
    onto the eigenvectors V of rho whose eigenvalue p clears rank_cutoff.

    The norm is taken in the computational basis, as H is given."""
    sup = p > tols.rank_cutoff
    if np.all(sup):
        return True
    H = obs_matrix(H)
    Vs = V[:, sup]
    proj = Vs @ Vs.conj().T
    comm = proj @ H - H @ proj
    return bool(np.max(np.abs(comm)) < tols.commute)


def qfi(rho, H, tols: Tolerances = DEFAULT) -> float:
    """Quantum Fisher information of t -> exp(-iHt) rho exp(iHt).

    Pairs with p_j + p_k below pair_cutoff contribute nothing (both
    populations are numerically zero) and are skipped to avoid 0/0.
    """
    p, _, A = _spectral(rho, H, tols)
    diff = p[:, None] - p[None, :]
    tot = p[:, None] + p[None, :]
    mask = tot > tols.pair_cutoff
    terms = np.zeros_like(tot)
    np.divide(diff * diff, tot, out=terms, where=mask)
    return float(2.0 * np.sum(terms * np.abs(A) ** 2))


def energy_variance(state, H, tols: Tolerances = DEFAULT) -> float:
    """<H^2> - <H>^2 in the given state (pure or mixed), clamped at 0."""
    rho, H = _operands(state, H)
    mean = np.trace(rho @ H).real
    second = np.trace(rho @ H @ H).real
    var = second - mean * mean
    if var < -tols.num:
        raise ValidationError(f"variance {var:.3e} below -tolerance")
    return max(var, 0.0)


def support_commutes(rho, H, tols: Tolerances = DEFAULT) -> bool:
    """Whether the support projector of rho commutes with H.

    This is exactly the finiteness condition for purity of coherence:
    coherence must not leak between the support and the kernel.
    """
    p, V, _ = _spectral(rho, H, tols)
    return _support_commutes(p, V, H, tols)


def purity_of_coherence(rho, H, tols: Tolerances = DEFAULT) -> MeasureValue:
    """P = tr(H rho^2 H rho^+) - tr(rho H^2), with rho^+ the support
    pseudo-inverse.  Infinite unless the support projector commutes with H.

    Computed as the eigenbasis sum over support pairs
    sum_{jk} (p_k^2 - p_j^2)/p_j |H_kj|^2, which is algebraically the same
    but never forms the pseudo-inverse explicitly.
    """
    p, V, A = _spectral(rho, H, tols)
    if not _support_commutes(p, V, H, tols):
        return MeasureValue.inf()
    sup = p > tols.rank_cutoff
    ps = p[sup]
    As = A[np.ix_(sup, sup)]
    # ratio[k, j] = (p_k^2 - p_j^2) / p_j
    ratio = (ps[:, None] ** 2 - ps[None, :] ** 2) / ps[None, :]
    val = np.sum(ratio * np.abs(As) ** 2)
    return MeasureValue.finite(max(val, 0.0))


def skew_information(rho, H, tols: Tolerances = DEFAULT) -> float:
    """Wigner-Yanase skew information -tr([sqrt(rho), H]^2)/2.

    Evaluated in the eigenbasis: sum_{jk} (p_j - sqrt(p_j p_k)) |H_jk|^2.
    """
    p, _, A = _spectral(rho, H, tols)
    p = np.clip(p, 0.0, None)
    root = np.sqrt(p)
    coeff = p[:, None] - root[:, None] * root[None, :]
    return max(float(np.sum(coeff * np.abs(A) ** 2)), 0.0)


def renyi_purity_monotone(rho, H, alpha: float,
                          tols: Tolerances = DEFAULT) -> MeasureValue:
    """tr(rho^alpha H rho^{1-alpha} H) - tr(rho H^2) for alpha in (1, 2].

    alpha = 2 reproduces purity_of_coherence; the same support condition
    governs finiteness (the p_k^{1-alpha} factor diverges on the kernel).
    """
    if not (1.0 < alpha <= 2.0):
        raise AlphaOutOfRangeError(f"alpha must be in (1, 2], got {alpha}")
    p, V, A = _spectral(rho, H, tols)
    if not _support_commutes(p, V, H, tols):
        return MeasureValue.inf()
    sup = p > tols.rank_cutoff
    ps = p[sup]
    As = np.abs(A[np.ix_(sup, sup)]) ** 2
    coeff = ps[:, None] ** alpha * ps[None, :] ** (1.0 - alpha) - ps[:, None]
    return MeasureValue.finite(max(float(np.sum(coeff * As)), 0.0))


def qfi_via_fidelity(rho, H, tols: Tolerances = DEFAULT) -> float:
    """QFI from the curvature of t -> fidelity(rho, e^{-iHt} rho e^{iHt}).

    Central second difference -4 (Fid(h) - 2 Fid(0) + Fid(-h)) / h^2 with
    one Richardson extrapolation step (h and h/2), h = tols.fd_step,
    which must lie in [1e-4, 1e-2].  A plain rho becomes a
    DensityMatrix once here, so every fidelity takes sqrt(rho) from one
    cached eigendecomposition.
    """
    h = tols.fd_step
    if not (1e-4 <= h <= 1e-2):
        raise ValidationError(f"step h must be in [1e-4, 1e-2], got {h}")
    rho_m, _ = _operands(rho, H)
    if not isinstance(rho, DensityMatrix):
        rho = density_matrix(rho_m, tols)
    w, V = obs_eig(H, tols)

    def rotated(t):
        U = (V * np.exp(-1j * w * t)) @ V.conj().T
        return U @ rho_m @ U.conj().T

    f0 = fidelity(rho, rho, tols)

    def second_diff(s):
        fp = fidelity(rho, rotated(s), tols)
        fm = fidelity(rho, rotated(-s), tols)
        return -4.0 * (fp - 2.0 * f0 + fm) / (s * s)

    coarse = second_diff(h)
    fine = second_diff(h / 2.0)
    return float((4.0 * fine - coarse) / 3.0)
