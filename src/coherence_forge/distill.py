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
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .errors import (
    CertificateError,
    DimMismatchError,
    EpsOutOfRangeError,
    IncommensurateSpectrumError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    density_matrix,
    level_labels,
    obs_eig,
    partial_trace,
    state_matrix,
)
from .measures import (
    energy_variance,
    purity_of_coherence,
    qfi,
    support_commutes,
)

# ratio of successive barrier weights in the SDP's long-step schedule
BARRIER_FACTOR = 0.05
# a barrier stage before the last ends once the Newton decrement of the
# normalised barrier function, lambda^2 = decrement / mu, is at most this
CENTRING_DECREMENT = 1.0


def is_bound_resource(rho, H) -> bool:
    """True when the state carries coherence that cannot be distilled.

    That is the case exactly when the support projector commutes with H
    (finite purity of coherence, hence zero distillation rate) while the
    QFI is still positive (some coherence is present)."""
    return support_commutes(rho, H) and qfi(rho, H) > DEFAULT.num


def distillation_copy_floor(rho, H, psi_target, H_t, eps: float,
                            prob: float = 1.0) -> float:
    """Minimum copies of rho needed for an eps-accurate target at success
    probability prob: prob * V(target) * (2/eps - 3) / P(rho).

    The target variance ceiling for eps-approximations turns the purity
    budget into a copy count.  Infinite when the source has no purity of
    coherence at all (math.inf); zero when nothing is demanded (incoherent
    target or a source with unbounded purity)."""
    if not 0.0 < eps < 2.0 / 3.0:
        raise EpsOutOfRangeError(f"eps must lie in (0, 2/3), got {eps}")
    if not 0.0 < prob <= 1.0:
        raise ValidationError(f"prob must lie in (0, 1], got {prob}")
    v_t = energy_variance(psi_target, H_t)
    if v_t <= DEFAULT.num:
        return 0.0
    P = purity_of_coherence(rho, H)
    if P == math.inf:
        return 0.0
    if P <= DEFAULT.num:
        return math.inf
    return prob * v_t * (2.0 / eps - 3.0) / P


@dataclass(frozen=True)
class OmegaState:
    """Source-target joint state dephased in the eigenbasis of
    H_A (x) I - I (x) H_B.

    sectors[i, j] labels the difference eigenspace that holds
    U_A[:, i] (x) U_B[:, j]; rotated into the U_A (x) U_B basis, matrix
    is block-diagonal in these labels.  A joint state with no
    Hamiltonians is one sector in the standard bases (single_sector)."""

    matrix: DensityMatrix
    dims: tuple
    sectors: np.ndarray = field(repr=False)
    U_A: np.ndarray = field(repr=False)
    U_B: np.ndarray = field(repr=False)


def single_sector(Om, d_A: int, d_B: int) -> OmegaState:
    """A joint state on A (x) B with no time-translation structure: one
    sector, standard bases, so the SDP runs on the full space."""
    rho = density_matrix(Om)
    if rho.dim != d_A * d_B:
        raise DimMismatchError(
            f"dims ({d_A}, {d_B}) do not match a state of size {rho.dim}")
    return OmegaState(matrix=rho, dims=(d_A, d_B),
                      sectors=np.zeros((d_A, d_B), dtype=int),
                      U_A=np.eye(d_A), U_B=np.eye(d_B))


def _pure_vector(psi) -> np.ndarray:
    if isinstance(psi, PureState):
        return psi.vector
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm <= 0:
        raise ValidationError("zero vector is not a state")
    return v / nrm


def omega_state(sigma_A, H_A, psi_B, H_B) -> OmegaState:
    """Dephase sigma_A (x) |conj(psi_B)><conj(psi_B)| over the eigenspaces
    of the difference Hamiltonian H_A (x) I - I (x) H_B.

    The conjugate of psi_B is taken in the H_B eigenbasis.  Eigenvalue
    differences form levels by level_labels at gap_cutoff; a step between
    sorted differences that is at least gap_cutoff yet below
    sqrt(gap_cutoff) makes the levels ill-defined and raises
    IncommensurateSpectrum."""
    sA = state_matrix(sigma_A)
    a, U_A = obs_eig(H_A)
    b, U_B = obs_eig(H_B)
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
    steps = np.diff(delta[order])
    vague = ((steps >= DEFAULT.gap_cutoff)
             & (steps < math.sqrt(DEFAULT.gap_cutoff)))
    if np.any(vague):
        raise IncommensurateSpectrumError(
            f"difference-spectrum gap {steps[np.argmax(vague)]:.3e} too "
            "small to separate eigenspaces reliably")
    labels = np.empty(delta.size, dtype=int)
    labels[order] = level_labels(delta[order])
    mask = labels[:, None] == labels[None, :]
    W = np.kron(U_A, U_B)
    Om = W @ (M * mask) @ W.conj().T
    return OmegaState(matrix=density_matrix(Om), dims=(d_A, d_B),
                      sectors=labels.reshape(d_A, d_B), U_A=U_A, U_B=U_B)


@dataclass(frozen=True)
class SdpResult:
    """Optimum Tr(tau) with its primal tau and dual X in the caller's
    basis.  newton_steps and barrier_stages count the solver's work;
    min_slack is the least eigenvalue of tau (x) I - Omega it ended on."""

    optimum: float
    tau: np.ndarray
    dual_certificate: np.ndarray
    primal_dual_gap: float
    newton_steps: int
    barrier_stages: int
    min_slack: float


class _Sectors:
    """The LMI sectors of tau (x) I - Omega, padded to one size so that a
    Newton step treats all of them in one batched call.

    Row b of each padded array belongs to sector b, whose product
    indices fill the places where valid[b] holds; a pad entry is an
    identity row of the slack and zero elsewhere."""

    def __init__(self, lmi, d_B, Os):
        sizes = np.bincount(lmi)
        self.sizes = sizes
        n = sizes.max()
        self.valid = np.arange(n)[None, :] < sizes[:, None]
        E = np.zeros(self.valid.shape, dtype=int)
        E[self.valid] = np.argsort(lmi, kind="stable")
        a, j = np.divmod(E, d_B)
        self.pair = self.valid[:, :, None] & self.valid[:, None, :]
        self.same_j = self.pair & (j[:, :, None] == j[:, None, :])
        self.a_row, self.a_col = a[:, :, None], a[:, None, :]
        rows, cols = E[:, :, None], E[:, None, :]
        self.omega = (np.where(self.pair, Os[rows, cols], 0.0)
                      - (~self.valid)[:, :, None] * np.eye(n))
        self.rows = np.broadcast_to(rows, self.pair.shape)[self.pair]
        self.cols = np.broadcast_to(cols, self.pair.shape)[self.pair]

    def lift(self, t: np.ndarray) -> np.ndarray:
        """Each sector's block of t (x) I_B, zero on the pads."""
        return t[self.a_row, self.a_col] * self.same_j

    def slack(self, t: np.ndarray):
        """Eigenpairs of the sector blocks of t (x) I - Os."""
        w, V = np.linalg.eigh(self.lift(t) - self.omega)
        if w.min() <= 0.0:
            raise SolverStallError("barrier iterate left the cone")
        return w, V

    def inverse(self, w, V, N: int) -> np.ndarray:
        """S^-1 on the full space: block-diagonal, zero across sectors."""
        inv = (V / w[:, None, :]) @ V.conj().swapaxes(1, 2)
        out = np.zeros((N, N), dtype=complex)
        out[self.rows, self.cols] = inv[self.pair]
        return out


def _min_trace_sdp(omega: OmegaState) -> SdpResult:
    """Barrier Newton solve of min Tr(tau) s.t. tau (x) I >= Omega.

    Omega and the barrier are invariant under the time translations of
    H_A (x) I - I (x) H_B, so the optimal tau is block-diagonal over A's
    levels and the LMI splits into difference-energy sectors (Gatermann
    & Parrilo, 2004).  The solve runs on those blocks in the
    U_A (x) U_B basis and rotates tau and X back at the end.

    The unknowns are tau's complex block entries (sum of squared block
    sizes of them).  Each Newton step solves mu K d = -G on those
    entries, with G = I - mu Tr_B S^-1 the gradient and K the
    Hilbert-Schmidt matrix of d -> Tr_B(S^-1 (d (x) I) S^-1).  That map is
    self-adjoint and positive definite, so a Hermitian G gives a Hermitian
    d; one symmetrization removes the rounding.

    Works on Omega scaled to unit largest eigenvalue; the barrier weight
    is driven down by BARRIER_FACTOR per stage to gap_tol/(4*N*scale),
    which pins the centered duality gap mu*N under the requested
    tolerance after unscaling.  Only that last stage's centring reaches
    the certificate, so it alone runs to a full step with a decrement
    below 1e-13 x max(1, tr tau); every earlier stage ends once the
    decrement is at most CENTRING_DECREMENT * mu (Boyd & Vandenberghe,
    Convex Optimization, 11.3).  The
    dual X = mu S^-1 is rescaled by the congruence T^-1/2 (x) I with
    T = Tr_B X, which makes Tr_B X = I and keeps X >= 0."""
    d_A, d_B = omega.dims
    N = d_A * d_B
    scale = float(omega.matrix.spectrum[-1])
    W = np.kron(omega.U_A, omega.U_B)
    Os = W.conj().T @ omega.matrix.matrix @ W / scale
    # A's levels i and k share a tau block when (i, j) and (k, j) share a
    # sector.  omega_state's grouping makes that hold for every j or for
    # none: a_i - a_k is the same in each column, and its groups lie at
    # least sqrt(gap_cutoff) apart or it raises.  So column 0 gives the
    # blocks, and each sector is closed under them.
    labels = np.asarray(omega.sectors)
    sectors = _Sectors(labels.ravel(), d_B, Os)
    block = labels[:, 0]
    ui, uk = np.nonzero(block[:, None] == block[None, :])
    # K[q, q'] = (Tr_B S^-1 (E_q' (x) I) S^-1)[q] for units q = (i, k),
    # q' = (l, m) is sum_{j, j'} S^-1[(i,j),(l,j')] S^-1[(m,j'),(k,j)]:
    # one gather per (j, j') from the reshaped block-diagonal inverse
    il = ui[:, None] * d_A + ui[None, :]
    km = uk[:, None] * d_A + uk[None, :]

    tau = 1.1 * np.eye(d_A, dtype=complex)
    mu_final = DEFAULT.sdp_gap / (4.0 * N * scale)
    mus = []
    mu = 1.0
    while mu > mu_final:
        mus.append(mu)
        mu = max(BARRIER_FACTOR * mu, mu_final)
    mus.append(mu_final)

    steps = 0
    for mu in mus:
        for _ in range(60):
            w, V = sectors.slack(tau)
            S_inv = sectors.inverse(w, V, N)
            g = np.eye(d_A) - mu * partial_trace(S_inv, (d_A, d_B), "A")
            R = S_inv.reshape(d_A, d_B, d_A, d_B)
            P1 = R.transpose(1, 3, 0, 2).reshape(d_B * d_B, d_A * d_A)
            P2 = R.transpose(3, 1, 2, 0).reshape(d_B * d_B, d_A * d_A)
            K = sum(P1[jj][il] * P2[jj][km] for jj in range(d_B * d_B))
            d_tau = np.zeros((d_A, d_A), dtype=complex)
            d_tau[ui, uk] = np.linalg.solve(mu * K, -g[ui, uk])
            d_tau = 0.5 * (d_tau + d_tau.conj().T)
            decrement = -float(np.vdot(g, d_tau).real)
            # S^-1/2 dS S^-1/2 per sector, in each slack's eigenbasis
            r = 1.0 / np.sqrt(w)
            T = V.conj().swapaxes(1, 2) @ sectors.lift(d_tau) @ V
            t_min = float(np.linalg.eigvalsh(
                T * r[:, :, None] * r[:, None, :]).min())
            t = 1.0 if t_min >= 0.0 else min(1.0, 0.98 / (-t_min))
            tau = tau + t * d_tau
            steps += 1
            if steps > DEFAULT.sdp_max_newton:
                raise SolverStallError(
                    f"no gap < {DEFAULT.sdp_gap} within "
                    f"{DEFAULT.sdp_max_newton} Newton steps"
                )
            if mu > mu_final:
                if decrement <= CENTRING_DECREMENT * mu:
                    break
            elif t == 1.0 and decrement < 1e-13 * max(
                    1.0, abs(float(np.trace(tau).real))):
                break

    w, V = sectors.slack(tau)
    X = mus[-1] * sectors.inverse(w, V, N)
    wT, VT = np.linalg.eigh(partial_trace(X, (d_A, d_B), "A"))
    C = np.kron((VT / np.sqrt(wT)) @ VT.conj().T, np.eye(d_B))
    X = C @ X @ C
    lam = float(np.linalg.eigvalsh(partial_trace(X, (d_A, d_B), "A")).max())
    if lam > 1.0:
        X = X / lam
    primal = float(np.trace(tau).real)
    dual = float(np.sum(Os * X.T).real)
    gap = scale * (primal - dual)
    if gap >= DEFAULT.sdp_gap:
        raise SolverStallError(f"certified gap {gap:.3e} over budget")
    # the pads' unit eigenvalues are not slack: take each sector's own
    S = sectors.lift(tau) - sectors.omega
    min_slack = min(float(np.linalg.eigvalsh(S[b, :n, :n])[0])
                    for b, n in enumerate(sectors.sizes))
    U_A = omega.U_A
    return SdpResult(optimum=scale * primal,
                     tau=scale * (U_A @ tau @ U_A.conj().T),
                     dual_certificate=W @ X @ W.conj().T,
                     primal_dual_gap=gap, newton_steps=steps,
                     barrier_stages=len(mus), min_slack=scale * min_slack)


def verify_certificate(result: SdpResult, omega: OmegaState) -> SdpResult:
    """Re-check an SDP result on the dense full-space matrices, apart from
    the solver: tau and X are Hermitian within sdp_feas (the eigenvalue
    tests read one triangle only); tau (x) I - Omega has no negative
    eigenvalue; X >= 0 (within sdp_feas) with lambda_max(Tr_B X) <=
    1 + sdp_feas; the gap Tr tau - Tr(Omega X), recomputed, is below
    sdp_gap; and the reported optimum and gap match Tr tau and that gap
    within sdp_feas.

    Returns result; raises CertificateError on the first check that
    fails."""
    d_A, d_B = omega.dims
    Om = omega.matrix.matrix
    tau, X = result.tau, result.dual_certificate
    for name, M in (("tau", tau), ("dual X", X)):
        skew = float(np.max(np.abs(M - M.conj().T)))
        if skew > DEFAULT.sdp_feas:
            raise CertificateError(f"{name} is not Hermitian: {skew:.3e}")
    s_min = float(np.linalg.eigvalsh(np.kron(tau, np.eye(d_B)) - Om)[0])
    if s_min < 0.0:
        raise CertificateError(f"tau (x) I - Omega has eigenvalue {s_min:.3e}")
    x_min = float(np.linalg.eigvalsh(X)[0])
    if x_min < -DEFAULT.sdp_feas:
        raise CertificateError(f"dual X has eigenvalue {x_min:.3e}")
    marginal = float(np.linalg.eigvalsh(
        partial_trace(X, (d_A, d_B), "A"))[-1])
    if marginal > 1.0 + DEFAULT.sdp_feas:
        raise CertificateError(
            f"lambda_max(Tr_B X) = {marginal:.12f} exceeds 1")
    primal = float(np.trace(tau).real)
    gap = primal - float(np.sum(Om * X.T).real)
    if not gap < DEFAULT.sdp_gap:
        raise CertificateError(f"recomputed gap {gap:.3e} over budget")
    if (abs(result.optimum - primal) > DEFAULT.sdp_feas
            or abs(result.primal_dual_gap - gap) > DEFAULT.sdp_feas):
        raise CertificateError(
            f"reported optimum {result.optimum!r} and gap "
            f"{result.primal_dual_gap:.3e} differ from Tr tau = {primal!r} "
            f"and gap {gap:.3e}")
    return result


def conditional_min_entropy(omega: OmegaState) -> SdpResult:
    """2^{-Hmin(B|A)} of the dephased state, with a dual certificate that
    verify_certificate has re-checked."""
    return verify_certificate(_min_trace_sdp(omega), omega)


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
