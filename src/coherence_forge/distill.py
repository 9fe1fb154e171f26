"""Distillation diagnostics, min-entropy SDP, and qubit fidelity bounds.

The single-shot optimal fidelity for preparing a pure target under
covariant operations equals 2^{-Hmin(B|A)} of a dephased source-target
state Omega, i.e. the optimum of

    minimize  Tr(tau)  subject to  tau (x) I_B >= Omega,  tau Hermitian.

The solver below is a log-barrier Newton method on that program with an
explicit dual certificate, so every reported optimum carries its own
weak-duality proof (gap below sdp_gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    EpsOutOfRangeError,
    IncommensurateSpectrumError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    density_matrix,
    eig_of,
    partial_trace,
    state_matrix,
)
from .measures import (
    MeasureValue,
    energy_variance,
    purity_of_coherence,
    qfi,
    support_commutes,
)


def is_bound_resource(rho, H, tols: Tolerances = DEFAULT) -> bool:
    """True when the state carries coherence that cannot be distilled.

    That is the case exactly when the support projector commutes with H
    (finite purity of coherence, hence zero distillation rate) while the
    QFI is still positive (some coherence is present)."""
    return support_commutes(rho, H, tols) and qfi(rho, H, tols) > tols.num


def distillation_copy_floor(rho, H, psi_target, H_t, eps: float,
                            prob: float = 1.0,
                            tols: Tolerances = DEFAULT) -> MeasureValue:
    """Minimum copies of rho needed for an eps-accurate target at success
    probability prob: prob * V(target) * (2/eps - 3) / P(rho).

    The target variance ceiling for eps-approximations turns the purity
    budget into a copy count.  Infinite when the source has no purity of
    coherence at all; zero when nothing is demanded (incoherent target or
    a source with unbounded purity)."""
    if not 0.0 < eps < 2.0 / 3.0:
        raise EpsOutOfRangeError(f"eps must lie in (0, 2/3), got {eps}")
    if not 0.0 < prob <= 1.0:
        raise ValidationError(f"prob must lie in (0, 1], got {prob}")
    v_t = energy_variance(psi_target, H_t, tols)
    if v_t <= tols.num:
        return MeasureValue.finite(0.0)
    P = purity_of_coherence(rho, H, tols)
    if P.infinite:
        return MeasureValue.finite(0.0)
    if P.value <= tols.num:
        return MeasureValue.inf()
    return MeasureValue.finite(prob * v_t * (2.0 / eps - 3.0) / P.value)


@dataclass(frozen=True)
class OmegaState:
    """Source-target joint state dephased in the eigenbasis of
    H_A (x) I - I (x) H_B."""

    matrix: DensityMatrix
    dims: tuple


def _pure_vector(psi) -> np.ndarray:
    if isinstance(psi, PureState):
        return psi.vector
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm <= 0:
        raise ValidationError("zero vector is not a state")
    return v / nrm


def omega_state(sigma_A, H_A, psi_B, H_B,
                tols: Tolerances = DEFAULT) -> OmegaState:
    """Dephase sigma_A (x) |conj(psi_B)><conj(psi_B)| over the eigenspaces
    of the difference Hamiltonian H_A (x) I - I (x) H_B.

    The conjugate of psi_B is taken in the H_B eigenbasis.  Eigenvalue
    differences are grouped at gap_cutoff; differences that are distinct
    yet closer than sqrt(gap_cutoff) make the grouping ill-defined and
    raise IncommensurateSpectrum."""
    sA = state_matrix(sigma_A)
    a, U_A = eig_of(H_A, tols)
    b, U_B = eig_of(H_B, tols)
    d_A, d_B = len(a), len(b)
    if sA.shape[0] != d_A:
        raise ValidationError("state and Hamiltonian dims differ on A")
    psi = _pure_vector(psi_B)
    if psi.size != d_B:
        raise ValidationError("target and Hamiltonian dims differ on B")
    psi_bar = (U_B.conj().T @ psi).conj()
    M = np.kron(U_A.conj().T @ sA @ U_A, np.outer(psi_bar, psi_bar.conj()))
    delta = (a[:, None] - b[None, :]).ravel()
    order = np.argsort(delta)
    labels = np.empty(delta.size, dtype=int)
    current = 0
    labels[order[0]] = 0
    for prev, here in zip(order[:-1], order[1:]):
        step = delta[here] - delta[prev]
        if step >= tols.gap_cutoff:
            if step < math.sqrt(tols.gap_cutoff):
                raise IncommensurateSpectrumError(
                    f"difference-spectrum gap {step:.3e} too small to "
                    "separate eigenspaces reliably"
                )
            current += 1
        labels[here] = current
    mask = labels[:, None] == labels[None, :]
    W = np.kron(U_A, U_B)
    Om = W @ (M * mask) @ W.conj().T
    return OmegaState(matrix=density_matrix(Om, tols), dims=(d_A, d_B))


@dataclass(frozen=True)
class SdpResult:
    optimum: float
    tau: np.ndarray
    dual_certificate: np.ndarray
    primal_dual_gap: float


def _hermitian_basis(d: int):
    basis = []
    for i in range(d):
        B = np.zeros((d, d), dtype=complex)
        B[i, i] = 1.0
        basis.append(B)
    r = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            B = np.zeros((d, d), dtype=complex)
            B[i, j] = r
            B[j, i] = r
            basis.append(B)
            B = np.zeros((d, d), dtype=complex)
            B[i, j] = 1j * r
            B[j, i] = -1j * r
            basis.append(B)
    return basis


def _min_trace_sdp(Om: np.ndarray, d_A: int, d_B: int,
                   tols: Tolerances) -> SdpResult:
    """Barrier Newton solve of min Tr(tau) s.t. tau (x) I >= Om.

    Works on Om scaled to unit largest eigenvalue; the barrier weight is
    driven down to gap_tol/(4*N*scale), which pins the centered duality
    gap mu*N under the requested tolerance after unscaling."""
    N = d_A * d_B
    scale = float(np.linalg.eigvalsh(Om).max())
    if scale <= 0.0:
        raise ValidationError("Omega must have a positive largest eigenvalue")
    Os = Om / scale
    I_B = np.eye(d_B)
    basis = _hermitian_basis(d_A)
    n_par = len(basis)
    lifted = [np.kron(B, I_B) for B in basis]
    trace_vec = np.array([float(B.trace().real) for B in basis])

    tau = 1.1 * np.eye(d_A, dtype=complex)
    mu_final = tols.sdp_gap / (4.0 * N * scale)
    mus = []
    mu = 1.0
    while mu > mu_final:
        mus.append(mu)
        mu = max(0.15 * mu, mu_final)
    mus.append(mu_final)

    steps = 0
    for mu in mus:
        for _ in range(60):
            S = np.kron(tau, I_B) - Os
            w, V = np.linalg.eigh(S)
            if w.min() <= 0.0:
                raise SolverStallError("barrier iterate left the cone")
            S_inv = (V / w) @ V.conj().T
            G_A = partial_trace(S_inv, (d_A, d_B), "A")
            grad = trace_vec - mu * np.array(
                [float(np.trace(G_A @ B).real) for B in basis])
            P = np.stack([S_inv @ L for L in lifted])
            Hmat = mu * np.einsum("rab,sba->rs", P, P).real
            Hmat = 0.5 * (Hmat + Hmat.T)
            dx = -np.linalg.solve(Hmat, grad)
            decrement = -float(grad @ dx)
            d_tau = sum(x * B for x, B in zip(dx, basis))
            S_half_inv = (V / np.sqrt(w)) @ V.conj().T
            T = S_half_inv @ np.kron(d_tau, I_B) @ S_half_inv
            t_min = float(np.linalg.eigvalsh(T).min())
            t = 1.0 if t_min >= 0.0 else min(1.0, 0.98 / (-t_min))
            tau = tau + t * d_tau
            steps += 1
            if steps > tols.sdp_max_newton:
                raise SolverStallError(
                    f"no gap < {tols.sdp_gap} within "
                    f"{tols.sdp_max_newton} Newton steps"
                )
            if t == 1.0 and decrement < 1e-13 * max(
                    1.0, abs(float(np.trace(tau).real))):
                break

    S = np.kron(tau, I_B) - Os
    w, V = np.linalg.eigh(S)
    S_inv = (V / w) @ V.conj().T
    X = mus[-1] * S_inv
    tb = partial_trace(X, (d_A, d_B), "A")
    lam = float(np.linalg.eigvalsh(tb).max())
    if lam > 1.0:
        X = X / lam
    primal = float(np.trace(tau).real)
    dual = float(np.trace(Os @ X).real)
    gap = scale * (primal - dual)
    if gap >= tols.sdp_gap:
        raise SolverStallError(f"certified gap {gap:.3e} over budget")
    return SdpResult(optimum=scale * primal, tau=scale * tau,
                     dual_certificate=X, primal_dual_gap=gap)


def conditional_min_entropy(omega: OmegaState,
                            tols: Tolerances = DEFAULT) -> SdpResult:
    """2^{-Hmin(B|A)} of the dephased state, with dual certificate."""
    d_A, d_B = omega.dims
    return _min_trace_sdp(omega.matrix.matrix, d_A, d_B, tols)


def max_distill_fidelity(sigma_A, H_A, psi_B, H_B,
                         tols: Tolerances = DEFAULT) -> float:
    """Best fidelity with the pure target reachable by any covariant
    channel from sigma_A: the min-entropy SDP optimum of the dephased
    joint state."""
    om = omega_state(sigma_A, H_A, psi_B, H_B, tols)
    return conditional_min_entropy(om, tols).optimum


def qubit_infidelity_bound(lam: float, n: int):
    """(exact_bound, asymptotic) lower bounds on the output infidelity
    when distilling one coherent qubit from n copies at visibility lam.

    exact_bound comes from the purity-of-coherence converse applied to
    the n-copy qubit family; asymptotic is its large-n expansion
    (1 - lam^2)/(4 lam^2 n)."""
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"lambda must lie in (0, 1], got {lam}")
    if n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    lt2 = n * lam * lam / (1.0 + (n - 1) * lam * lam)
    exact = 0.5 * (1.0 - math.sqrt(lt2))
    asym = (1.0 - lam * lam) / (4.0 * lam * lam * n)
    return exact, asym


def cirac_comparison(lam: float, n: int) -> float:
    """Published asymptotic infidelity (1-lam)/(2 lam^2 n) of the best
    known qubit purification channel; exceeds the asymptotic lower bound
    by exactly 2/(1+lam)."""
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"lambda must lie in (0, 1], got {lam}")
    if n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    return (1.0 - lam) / (2.0 * lam * lam * n)


def helper_bound(rho, H, chi, H_help, n: int, eps: float,
                 tols: Tolerances = DEFAULT) -> float:
    """Largest per-copy output variance a coherent helper chi admits:
    [eps*P(rho) + 2(d_chi - 1) V(chi)/n] / (1 - 3 eps).

    Quantifies how little a finite helper changes the zero-rate verdict:
    the ceiling shrinks with eps and 1/n."""
    if not 0.0 < eps < 1.0 / 3.0:
        raise EpsOutOfRangeError(f"eps must lie in (0, 1/3), got {eps}")
    if n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    P = purity_of_coherence(rho, H, tols)
    if P.infinite:
        return math.inf
    chi_vec = _pure_vector(chi)
    v = energy_variance(chi_vec, H_help, tols)
    return (eps * P.value + 2.0 * (chi_vec.size - 1) * v / n) / (1.0 - 3.0 * eps)
