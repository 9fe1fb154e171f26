"""Coherence quantifiers for a state evolving under a Hamiltonian.

All quantities measure how far rho is from commuting with H:

    qfi                  F = 2 sum_{jk} (p_j-p_k)^2/(p_j+p_k) |H_jk|^2
    purity_of_coherence  P = tr(H rho^2 H rho^+) - tr(rho H^2)
    skew_information     W = -tr([sqrt(rho), H]^2)/2

with H_jk the matrix elements of H in the eigenbasis of rho.  F and W are
always finite; P (and the Renyi family that interpolates to it) blows up
whenever rho carries coherence between its support and its kernel, and
is then returned as math.inf.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT
from .errors import AlphaOutOfRangeError, ValidationError
from .linalg import (
    DensityMatrix,
    PureState,
    density_matrix,
    fidelity,
    observable,
    pure_state,
    require_same_dim,
)


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha <= 2.0):
        raise AlphaOutOfRangeError(f"alpha must be in (1, 2], got {alpha}")


def _spectral(rho, H):
    """(p, A): eigenvalues p of rho (ascending) and A = V^dag H V, H in
    rho's eigenbasis V.  rho goes through density_matrix and H through
    observable, so a matrix that is not a state raises ValidationError
    and a non-Hermitian H NonHermitianError."""
    rho, H = density_matrix(rho), observable(H).matrix
    require_same_dim(rho.dim, H.shape[0])
    V = rho.eigenbasis
    return rho.spectrum, V.conj().T @ H @ V


# Kernels: each measure from the spectrum p of rho and A = V^dag H V,
# broadcast over any leading stack axes.  The public functions call them
# on one matrix and the monotonicity suite on stacks, so both give the
# same bits.  _purity and _renyi sum over support pairs only and return
# inf where the support leaks.


def _pair_sum(coeff, A):
    """sum_jk coeff_jk |A_jk|^2 of each matrix, as one flat sum."""
    terms = coeff * np.abs(A) ** 2
    n = A.shape[-1]
    return terms.reshape(terms.shape[:-2] + (n * n,)).sum(axis=-1)


def _support_commutes(p, A):
    """Whether ||[Pi, H]||_F is below commute, with Pi the projector onto
    the eigenvectors whose eigenvalue p clears rank_cutoff: a bool per
    stack row.

    In rho's eigenbasis [Pi, H] holds A's support x kernel entries and
    their mirror images, so its squared norm is twice their |A_jk|^2 sum.
    The Frobenius norm is unitarily invariant, so the verdict does not
    depend on the basis H is given in, nor on the eigenbasis chosen
    within a degenerate support or kernel.
    """
    sup = p > DEFAULT.rank_cutoff
    return 2.0 * _pair_sum(sup[..., :, None] & ~sup[..., None, :],
                           A) < DEFAULT.commute ** 2


def _floor0(v):
    """max(v, 0.0) elementwise as Python's max takes it: NaN and -0.0
    pass through."""
    return np.where(v < 0.0, 0.0, v)


def _qfi(p, A):
    """2 sum_jk (p_j-p_k)^2/(p_j+p_k) |A_jk|^2, skipping pairs whose
    p_j + p_k is below pair_cutoff (both populations numerically zero)."""
    diff = p[..., :, None] - p[..., None, :]
    tot = p[..., :, None] + p[..., None, :]
    terms = np.zeros_like(tot)
    np.divide(diff * diff, tot, out=terms, where=tot > DEFAULT.pair_cutoff)
    return 2.0 * _pair_sum(terms, A)


def _skew(p, A):
    """sum_jk (p_j - sqrt(p_j p_k)) |A_jk|^2, negative p clipped to 0."""
    p = np.clip(p, 0.0, None)
    root = np.sqrt(p)
    return _floor0(_pair_sum(
        p[..., :, None] - root[..., :, None] * root[..., None, :], A))


def _support_sum(coeff, p, A):
    """_pair_sum of coeff(q) over the support pairs of each spectrum p,
    floored at 0, with q = p but 1 on the kernel so that no coefficient
    divides by zero; inf on rows whose support does not commute with H."""
    sup = p > DEFAULT.rank_cutoff
    c = coeff(np.where(sup, p, 1.0))
    pairs = sup[..., :, None] & sup[..., None, :]
    val = _floor0(_pair_sum(np.where(pairs, c, 0.0), A))
    return np.where(_support_commutes(p, A), val, math.inf)


def _purity(p, A):
    """sum_jk (p_k^2 - p_j^2)/p_j |A_kj|^2 over the support pairs."""
    # ratio[k, j] = (p_k^2 - p_j^2) / p_j
    return _support_sum(
        lambda q: (q[..., :, None] ** 2 - q[..., None, :] ** 2)
        / q[..., None, :], p, A)


def _renyi(p, A, alpha: float):
    """sum_jk (p_j^alpha p_k^(1-alpha) - p_j) |A_jk|^2 over the support
    pairs."""
    return _support_sum(
        lambda q: (q[..., :, None] ** alpha * q[..., None, :] ** (1.0 - alpha)
                   - q[..., :, None]), p, A)


def qfi(rho, H) -> float:
    """Quantum Fisher information of t -> exp(-iHt) rho exp(iHt).

    Pairs with p_j + p_k below pair_cutoff contribute nothing (both
    populations are numerically zero) and are skipped to avoid 0/0.
    """
    return float(_qfi(*_spectral(rho, H)))


def energy_variance(state, H) -> float:
    """<H^2> - <H>^2 in the given state, clamped at 0.  A vector or a
    PureState goes through pure_state (no eigensolve), a matrix through
    density_matrix."""
    H = observable(H).matrix
    if isinstance(state, PureState) or np.ndim(state) == 1:
        rho = pure_state(state).density()
    else:
        rho = density_matrix(state).matrix
    require_same_dim(rho.shape[0], H.shape[0])
    mean = np.trace(rho @ H).real
    second = np.trace(rho @ H @ H).real
    var = second - mean * mean
    if var < -DEFAULT.num:
        raise ValidationError(f"variance {var:.3e} below -tolerance")
    return max(var, 0.0)


def support_commutes(rho, H) -> bool:
    """Whether the support projector Pi of rho commutes with H, that is
    whether ||[Pi, H]||_F is below commute.

    This is exactly the finiteness condition for purity of coherence:
    coherence must not leak between the support and the kernel.
    """
    return bool(_support_commutes(*_spectral(rho, H)))


def purity_of_coherence(rho, H) -> float:
    """P = tr(H rho^2 H rho^+) - tr(rho H^2), with rho^+ the support
    pseudo-inverse.  math.inf unless the support projector commutes
    with H.

    Computed as the eigenbasis sum over support pairs
    sum_{jk} (p_k^2 - p_j^2)/p_j |H_kj|^2, which is algebraically the same
    but never forms the pseudo-inverse explicitly.
    """
    return float(_purity(*_spectral(rho, H)))


def skew_information(rho, H) -> float:
    """Wigner-Yanase skew information -tr([sqrt(rho), H]^2)/2.

    Evaluated in the eigenbasis: sum_{jk} (p_j - sqrt(p_j p_k)) |H_jk|^2.
    """
    return float(_skew(*_spectral(rho, H)))


def renyi_purity_monotone(rho, H, alpha: float) -> float:
    """tr(rho^alpha H rho^{1-alpha} H) - tr(rho H^2) for alpha in (1, 2].

    alpha = 2 reproduces purity_of_coherence; the same support condition
    governs finiteness (the p_k^{1-alpha} factor diverges on the kernel),
    and the value is math.inf when it fails.
    """
    _check_alpha(alpha)
    return float(_renyi(*_spectral(rho, H), alpha))


def qfi_via_fidelity(rho, H) -> float:
    """QFI from the curvature of t -> fidelity(rho, e^{-iHt} rho e^{iHt}).

    Central second difference -4 (Fid(h) - 2 Fid(0) + Fid(-h)) / h^2 with
    one Richardson extrapolation step (h and h/2), h = fd_step.  rho
    becomes a DensityMatrix and H an observable once here (each returns
    its own container as it is), so every fidelity takes sqrt(rho) from
    one cached eigendecomposition and every rotation from H's; each
    rotated state is a DensityMatrix with eigenbasis U V, at no eigensolve.
    """
    h = DEFAULT.fd_step
    rho, H = density_matrix(rho), observable(H)
    require_same_dim(rho.dim, H.dim)
    w, V = H.spectrum, H.eigenbasis

    def rotated(t):
        U = (V * np.exp(-1j * w * t)) @ V.conj().T
        return DensityMatrix(matrix=U @ rho.matrix @ U.conj().T,
                             spectrum=rho.spectrum,
                             eigenbasis=U @ rho.eigenbasis)

    f0 = fidelity(rho, rho)

    def second_diff(s):
        fp = fidelity(rho, rotated(s))
        fm = fidelity(rho, rotated(-s))
        return -4.0 * (fp - 2.0 * f0 + fm) / (s * s)

    coarse = second_diff(h)
    fine = second_diff(h / 2.0)
    return float((4.0 * fine - coarse) / 3.0)
