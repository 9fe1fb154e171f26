"""Distillation diagnostics, min-entropy SDP, and qubit fidelity bounds.

The single-shot optimal fidelity for preparing a pure target under
covariant operations equals 2^{-Hmin(B|A)} of the source-target state
Omega, pinched onto the difference eigenspaces, i.e. the optimum of

    minimize  Tr(tau)  subject to  tau (x) I_B >= Omega,  tau Hermitian.

The solver below is a log-barrier Newton method on that program with an
explicit dual certificate, so every reported optimum carries its own
weak-duality proof (gap below sdp_gap).

iid_fidelity is the one entry point for n copies of any source, and the
one gate that checks each request before any block is built.  It
solves a list of blocks: copies of a qubit under a non-degenerate
Hamiltonian split by Schur-Weyl duality into one block per spin j
(_schur_blocks), and any other source is one block, its n-copy Omega.
A block whose sectors form a chain (a target with equal weights on two
levels at the source's gap) is solved in closed form with a dual built
along the chain (_chain); any other block goes to the barrier solver.
verify_certificate re-checks every block result either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .errors import (
    CertificateError,
    EpsOutOfRangeError,
    IncommensurateSpectrumError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    HermitianObservable,
    density_matrix,
    level_labels,
    observable,
    partial_trace,
    pure_state,
    require_same_dim,
    tensor,
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
# iid_omega_state refuses n copies whose dense Omega side d**n * d_B, or
# whose count of tau parameters, exceeds these: a dense Omega of side
# 1024 takes 16 MB per matrix, and 924 parameters (six qubit copies)
# take about 0.11 s per Newton step at one BLAS thread, 0.08 s of it the
# complex solve.  iid_fidelity bounds the cubes of all spin blocks'
# sides by the cube of MAX_OMEGA_SIDE, and so each side by it
MAX_OMEGA_SIDE = 1024
MAX_SDP_PARAMS = 1000
# _min_trace_sdp refuses an Omega whose Newton system has more live terms
# than this (see _Sectors), since it keeps three int32 indices a term.  Six
# qubit copies with a 16-level target have 12,831,672; degenerate levels
# can give up to P^2 d_B^2 for P tau entries
MAX_NEWTON_TERMS = 2 ** 24


def is_bound_resource(rho, H) -> bool:
    """True when the state carries coherence that cannot be distilled.

    That is the case exactly when the support projector commutes with H
    (finite purity of coherence, hence zero distillation rate) while the
    QFI is still positive (some coherence is present)."""
    rho, H = density_matrix(rho), observable(H)
    return support_commutes(rho, H) and qfi(rho, H) > DEFAULT.num


def distillation_copy_floor(rho, H, psi_target, H_t, eps: float,
                            prob: float = 1.0) -> float:
    """Minimum copies of rho needed for an output within trace norm eps
    of the target, ||out - psi||_1 <= eps, at success probability prob:
    prob * V(target) * (2/eps - 3) / P(rho).

    The target variance ceiling for eps-approximations turns the purity
    budget into a copy count.  eps is a trace norm, not an infidelity:
    one copy of lam |+><+| + (1 - lam) I/2 is within eps = 1 - lam of
    |+> (1 - F = (1 - lam)/2), and the floor there is
    1 - ((1 - lam)/(2 lam))^2, at most one copy.  Infinite when the
    source has no purity of coherence at all (math.inf); zero when
    nothing is demanded (incoherent target or a source with unbounded
    purity).  Every operand is validated before any early return."""
    if not 0.0 < eps < 2.0 / 3.0:
        raise EpsOutOfRangeError(f"eps must lie in (0, 2/3), got {eps}")
    if not 0.0 < prob <= 1.0:
        raise ValidationError(f"prob must lie in (0, 1], got {prob}")
    rho, H, H_t = density_matrix(rho), observable(H), observable(H_t)
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
    """Source-target joint state pinched onto the eigenspaces of
    H_A (x) I - I (x) H_B, in the basis U_A (x) U_B of the two
    Hamiltonians' eigenvectors (each ascending in energy).

    sectors[i, j] labels the difference eigenspace that holds basis
    vector (i, j); matrix is block-diagonal in these labels.  It is a
    state because the source and target it is built from are."""

    matrix: np.ndarray
    sectors: np.ndarray = field(repr=False)


def iid_omega_state(sigma, H, psi_B, H_B, copies: int) -> OmegaState:
    """Pinch sigma^(x)copies (x) |conj(psi_B)><conj(psi_B)| onto the
    eigenspaces of H_n (x) I - I (x) H_B, with H_n = sum_i H_i the
    non-interacting Hamiltonian of the copies; copies = 1 gives the
    state of any single source under any H.

    The conjugate of psi_B is taken in the H_B eigenbasis.  The levels
    of H_n are H's cached eigenvalues summed and sorted ascending by a
    stable sort; sigma^(x)copies in their eigenbasis is the Kronecker
    power of sigma in H's eigenbasis, its rows and columns permuted by
    that sort, so no n-copy matrix is decomposed and no n-copy
    eigenbasis or Hamiltonian is formed.

    Before any tensor power is built, sigma is checked as a d x d
    density_matrix and psi_B as a pure_state (each at its own size; Omega
    itself is never decomposed), and ValidationError is raised when
    copies < 1, when sigma and H differ in dimension, when the dense
    Omega side d**copies * d_B passes MAX_OMEGA_SIDE, or when tau's
    parameter count, sum_E deg(E)^2 over the level_labels E of the
    summed spectrum, passes MAX_SDP_PARAMS.  Eigenvalue differences
    form levels by level_labels at gap_cutoff; a step between sorted
    differences that is at least gap_cutoff yet below sqrt(gap_cutoff)
    makes the levels ill-defined and raises IncommensurateSpectrum."""
    if copies < 1:
        raise ValidationError(f"copies must be at least 1, got {copies}")
    H, H_B = observable(H), observable(H_B)
    sigma, psi = density_matrix(sigma), pure_state(psi_B)
    d = H.dim
    require_same_dim(sigma.dim, d)
    # a one-level source is counted as two, since each copy is a loop
    if (copies * math.log(max(d, 2)) + math.log(H_B.dim)
            > math.log(MAX_OMEGA_SIDE)):
        raise ValidationError(
            f"{copies} copies make Omega {d}**{copies} * {H_B.dim} wide, "
            f"above the budget of {MAX_OMEGA_SIDE}")
    a = H.spectrum
    for _ in range(copies - 1):
        a = np.add.outer(a, H.spectrum).ravel()
    perm = np.argsort(a, kind="stable")
    a = a[perm]
    params = int(np.sum(np.square(np.bincount(level_labels(a)))))
    if params > MAX_SDP_PARAMS:
        raise ValidationError(
            f"{copies} copies give {params} SDP parameters, above the "
            f"budget of {MAX_SDP_PARAMS}")
    require_same_dim(psi.dim, H_B.dim)
    b, U_B = H_B.spectrum, H_B.eigenbasis
    psi_bar = (U_B.conj().T @ psi.vector).conj()
    V = H.eigenbasis
    sn = tensor(*[V.conj().T @ sigma.matrix @ V] * copies)[perm][:, perm]
    M = np.kron(sn, np.outer(psi_bar, psi_bar.conj()))
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
    return OmegaState(matrix=M * mask,
                      sectors=labels.reshape(len(a), len(b)))


@dataclass(frozen=True)
class SdpResult:
    """Optimum Tr(tau) with its primal tau and dual X in the eigenbasis
    the OmegaState is held in: tau in the U_A basis, X in U_A (x) U_B.
    newton_steps and barrier_stages count the solver's work; min_slack
    is the least eigenvalue of tau (x) I - Omega it ended on, read off
    the sector eigensolve that also gives X."""

    optimum: float
    tau: np.ndarray
    dual_certificate: np.ndarray
    primal_dual_gap: float
    newton_steps: int
    barrier_stages: int
    min_slack: float


class _Sectors:
    """The LMI sectors of tau (x) I - Omega, padded to one size so that a
    Newton step treats all of them in one batched call, with the index
    maps that gather each Newton system from them.

    Row b of each padded array belongs to sector b, whose product
    indices fill the places where valid[b] holds; a pad entry is an
    identity row of the slack and zero elsewhere.  tau is held as the
    vector x of its P block entries, unit q being tau[ui[q], uk[q]].

    A's levels i and k share a tau block when (i, j) and (k, j) share a
    sector.  iid_omega_state's grouping makes that hold for every j or for
    none: a_i - a_k is the same in each column, and its groups lie at
    least sqrt(gap_cutoff) apart or it raises.  So column 0 of the labels
    gives the blocks, and each sector is closed under them."""

    def __init__(self, labels, Om):
        d_A, d_B = labels.shape
        lmi = labels.ravel()
        sizes = np.bincount(lmi)
        n = sizes.max()
        self.valid = np.arange(n)[None, :] < sizes[:, None]
        E = np.zeros(self.valid.shape, dtype=int)
        E[self.valid] = np.argsort(lmi, kind="stable")
        a, j = np.divmod(E, d_B)
        self.pair = self.valid[:, :, None] & self.valid[:, None, :]
        rows, cols = E[:, :, None], E[:, None, :]
        self.omega = (np.where(self.pair, Om[rows, cols], 0.0)
                      - (~self.valid)[:, :, None] * np.eye(n))
        self.rows = np.broadcast_to(rows, self.pair.shape)[self.pair]
        self.cols = np.broadcast_to(cols, self.pair.shape)[self.pair]
        block = labels[:, 0]
        ui, uk = np.nonzero(block[:, None] == block[None, :])
        P = ui.size
        unit = np.full((d_A, d_A), P)
        unit[ui, uk] = np.arange(P)
        # lift_map indexes x with a zero appended at place P
        same_j = self.pair & (j[:, :, None] == j[:, None, :])
        self.lift_map = np.where(same_j, unit[a[:, :, None], a[:, None, :]],
                                 P)
        self.d_A, self.ui, self.uk = d_A, ui, uk
        diagonal = ui == uk
        self.eye = diagonal.astype(float)
        self.diagonal = np.flatnonzero(diagonal)
        self.transpose = unit[uk, ui]
        # entry [r, c] of a sector-diagonal matrix in the padded stack sits
        # at base[r] + place[c] of flat, the stack's buffer, when r and c
        # share a sector; flat ends in one zero, the place of every pair
        # across sectors
        place = np.empty(lmi.size, dtype=int)
        place[E[self.valid]] = np.nonzero(self.valid)[1]
        base = (lmi * n + place) * n
        zero = sizes.size * n * n
        self.flat = np.zeros(zero + 1, dtype=complex)
        self.stack = self.flat[:-1].reshape(sizes.size, n, n)
        self.pad = np.zeros(1)
        itype = (np.int32 if max(zero, P * P) <= np.iinfo(np.int32).max
                 else np.int64)
        # the product indices (i, j) and (k, j) of unit q = (i, k) at
        # column j, flat over the pairs (q, j)
        r = (ui[:, None] * d_B + np.arange(d_B)).ravel()
        c = (uk[:, None] * d_B + np.arange(d_B)).ravel()
        self.trace_slots = np.where(lmi[r] == lmi[c], base[r] + place[c],
                                    zero).astype(itype).reshape(P, d_B)
        # K[q, q'] for units q = (i, k), q' = (l, m) is
        # sum_{j, j'} S^-1[(i,j),(l,j')] S^-1[(m,j'),(k,j)]; a term lives
        # when both factors lie inside a sector, that is when the pairs
        # (q, j) and (q', j') have one code for the sectors of (i, j) and
        # (k, j).  Each piece takes the pairs (q, j) whose masks over
        # (q', j') hold about 2**20 entries, and keeps its live terms, each
        # as its cell q P + q' and both factors' places, in (q, j, q', j')
        # order: np.add.at then sums each cell in (j, j') order.
        codes = lmi[r] * sizes.size + lmi[c]
        unit_of = np.repeat(np.arange(P), d_B)
        step = max(1, 2 ** 20 // codes.size)
        self.pieces = []
        live = 0
        for lo in range(0, codes.size, step):
            at, to = np.divmod(np.flatnonzero(
                codes[lo:lo + step, None] == codes), codes.size)
            live += at.size
            if live > MAX_NEWTON_TERMS:
                raise ValidationError(
                    f"the Newton system has over {MAX_NEWTON_TERMS} live "
                    "terms, above the budget")
            at += lo
            self.pieces.append((
                (unit_of[at] * P + unit_of[to]).astype(itype),
                (base[r[at]] + place[r[to]]).astype(itype),
                (base[c[to]] + place[c[at]]).astype(itype)))

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Each sector's block of tau (x) I_B, zero on the pads."""
        return np.concatenate((x, self.pad)).take(self.lift_map)

    def on_A(self, t: np.ndarray) -> np.ndarray:
        """The d_A x d_A matrix with t on tau's units, zero elsewhere."""
        M = np.zeros((self.d_A, self.d_A), dtype=complex)
        M[self.ui, self.uk] = t
        return M

    def slack(self, x: np.ndarray):
        """Eigenpairs of the sector blocks of tau (x) I - omega."""
        w, V = np.linalg.eigh(self.lift(x) - self.omega)
        if w.min() <= 0.0:
            raise SolverStallError("barrier iterate left the cone")
        return w, V

    def gram(self, Y: np.ndarray) -> np.ndarray:
        """Tr_B on tau's units of Y Y^dag, which it leaves in the stack."""
        np.matmul(Y, Y.conj().swapaxes(1, 2), out=self.stack)
        return self.flat.take(self.trace_slots).sum(axis=1)

    def hessian(self) -> np.ndarray:
        """K on tau's units from the live terms of the stack; run it
        after gram(V w^-1/2) at the slack eigenpairs w, V, which leaves
        S^-1 there."""
        P = self.eye.size
        K = np.zeros(P * P, dtype=complex)
        for cells, first, second in self.pieces:
            np.add.at(K, cells, self.flat.take(first) * self.flat.take(second))
        return K.reshape(P, P)


def _min_trace_sdp(omega: OmegaState) -> SdpResult:
    """Barrier Newton solve of min Tr(tau) s.t. tau (x) I >= Omega.

    Omega and the barrier are invariant under the time translations of
    H_A (x) I - I (x) H_B, so the optimal tau is block-diagonal over A's
    levels and the LMI splits into difference-energy sectors (Gatermann
    & Parrilo, 2004).  Omega comes in the U_A (x) U_B basis, where those
    blocks and sectors are index sets, and tau and X are returned in it.

    The unknowns are tau's complex block entries (sum of squared block
    sizes of them).  Each Newton step solves mu K d = -G on those
    entries, with G = I - mu Tr_B S^-1 the gradient and K the
    Hilbert-Schmidt matrix of d -> Tr_B(S^-1 (d (x) I) S^-1).  That map is
    self-adjoint and positive definite, so a Hermitian G gives a Hermitian
    d; one symmetrization removes the rounding.  S^-1 links only entries
    that share a sector, so G and K are gathered from the sector blocks
    of S^-1, K from its live terms only (Fujisawa, Kojima & Nakata,
    Math. Program. 79, 1997); no full-space matrix is formed, and X is
    scattered into the full space once.

    Works on Omega scaled to unit largest eigenvalue, read from the
    sector blocks' spectra; the barrier weight
    is driven down by BARRIER_FACTOR per stage to gap_tol/(4*N*scale),
    which pins the centered duality gap mu*N under the requested
    tolerance after unscaling.  Only that last stage's centring reaches
    the certificate, so it alone runs to a full step with a decrement
    below 1e-13 x max(1, tr tau); every earlier stage ends once the
    decrement is at most CENTRING_DECREMENT * mu (Boyd & Vandenberghe,
    Convex Optimization, 11.3).  The
    dual X = mu S^-1 is rescaled by the congruence C = T^-1/2 (x) I with
    T = Tr_B X, which makes Tr_B X = I and keeps X >= 0; with
    X = Y Y^dag per sector, C X C is the gram of C Y.

    Raises ValidationError before any Newton step when K has more than
    MAX_NEWTON_TERMS live terms."""
    d_A, d_B = omega.sectors.shape
    N = d_A * d_B
    sectors = _Sectors(np.asarray(omega.sectors), omega.matrix)
    # Omega's spectrum is its sector blocks'; each pad adds an eigenvalue -1
    scale = float(np.linalg.eigvalsh(sectors.omega).max())
    sectors.omega[sectors.pair] /= scale

    x = 1.1 * sectors.eye.astype(complex)
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
            w, V = sectors.slack(x)
            Vr = V / np.sqrt(w)[:, None, :]
            g = sectors.eye - mu * sectors.gram(Vr)
            dx = np.linalg.solve(mu * sectors.hessian(), -g)
            dx = 0.5 * (dx + dx.take(sectors.transpose).conj())
            decrement = -float(np.vdot(g, dx).real)
            # S^-1/2 dS S^-1/2 per sector
            t_min = float(np.linalg.eigvalsh(
                Vr.conj().swapaxes(1, 2) @ sectors.lift(dx) @ Vr).min())
            t = 1.0 if t_min >= 0.0 else min(1.0, 0.98 / (-t_min))
            x = x + t * dx
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
                    1.0, abs(float(np.sum(x[sectors.diagonal]).real))):
                break

    w, V = sectors.slack(x)
    Y = math.sqrt(mus[-1]) * V / np.sqrt(w)[:, None, :]
    wT, VT = np.linalg.eigh(sectors.on_A(sectors.gram(Y)))
    c = ((VT / np.sqrt(wT)) @ VT.conj().T)[sectors.ui, sectors.uk]
    marginal = sectors.on_A(sectors.gram(sectors.lift(c) @ Y))
    Xs = sectors.stack / max(float(np.linalg.eigvalsh(marginal)[-1]), 1.0)
    X = np.zeros((N, N), dtype=complex)
    X[sectors.rows, sectors.cols] = Xs[sectors.pair]
    tau = sectors.on_A(x)
    primal = float(np.trace(tau).real)
    dual = float(np.sum(sectors.omega * Xs.swapaxes(1, 2)).real)
    gap = scale * (primal - dual)
    if gap >= DEFAULT.sdp_gap:
        raise SolverStallError(f"certified gap {gap:.3e} over budget")
    # a pad's eigenvector is its own unit row: no weight on the valid rows
    live = np.sum(np.abs(V) ** 2, axis=1, where=sectors.valid[:, :, None])
    return SdpResult(optimum=scale * primal, tau=scale * tau,
                     dual_certificate=X, primal_dual_gap=gap,
                     newton_steps=steps, barrier_stages=len(mus),
                     min_slack=scale * float(w[live > 0.5].min()))


def verify_certificate(result: SdpResult, omega: OmegaState) -> SdpResult:
    """Re-check an SDP result on the dense full-space matrices, apart from
    the solver: tau and X are finite d_A x d_A and N x N matrices,
    Hermitian within sdp_feas (the eigenvalue tests read one triangle
    only); tau (x) I - Omega has no negative eigenvalue; X >= 0 (within
    sdp_feas) with lambda_max(Tr_B X) <= 1 + sdp_feas; the gap
    Tr tau - Tr(Omega X), recomputed, is below sdp_gap; and the reported
    optimum and gap match Tr tau and that gap within sdp_feas.  Every
    comparison fails on NaN.  Each check is unchanged by a product
    rotation U_A (x) U_B, so checking in the eigenbasis that Omega, tau
    and X share certifies the problem in any basis.

    Returns result; raises CertificateError on the first check that
    fails."""
    d_A, d_B = omega.sectors.shape
    Om = omega.matrix
    tau = np.asarray(result.tau)
    X = np.asarray(result.dual_certificate)
    for name, M, n in (("tau", tau, d_A), ("dual X", X, d_A * d_B)):
        if M.shape != (n, n) or not np.isfinite(M).all():
            raise CertificateError(f"{name} is not a finite {n} x {n} matrix")
        skew = float(np.max(np.abs(M - M.conj().T)))
        if not skew <= DEFAULT.sdp_feas:
            raise CertificateError(f"{name} is not Hermitian: {skew:.3e}")
    s_min = float(np.linalg.eigvalsh(np.kron(tau, np.eye(d_B)) - Om)[0])
    if not s_min >= 0.0:
        raise CertificateError(f"tau (x) I - Omega has eigenvalue {s_min:.3e}")
    x_min = float(np.linalg.eigvalsh(X)[0])
    if not x_min >= -DEFAULT.sdp_feas:
        raise CertificateError(f"dual X has eigenvalue {x_min:.3e}")
    marginal = float(np.linalg.eigvalsh(
        partial_trace(X, (d_A, d_B)))[-1])
    if not marginal <= 1.0 + DEFAULT.sdp_feas:
        raise CertificateError(
            f"lambda_max(Tr_B X) = {marginal:.12f} exceeds 1")
    primal = float(np.trace(tau).real)
    gap = primal - float(np.sum(Om * X.T).real)
    if not gap < DEFAULT.sdp_gap:
        raise CertificateError(f"recomputed gap {gap:.3e} over budget")
    if not (abs(result.optimum - primal) <= DEFAULT.sdp_feas
            and abs(result.primal_dual_gap - gap) <= DEFAULT.sdp_feas):
        raise CertificateError(
            f"reported optimum {result.optimum!r} and gap "
            f"{result.primal_dual_gap:.3e} differ from Tr tau = {primal!r} "
            f"and gap {gap:.3e}")
    return result


def conditional_min_entropy(omega: OmegaState) -> SdpResult:
    """2^{-Hmin(B|A)} of the pinched state Omega, with a dual certificate that
    verify_certificate has re-checked."""
    return verify_certificate(_min_trace_sdp(omega), omega)


def _splits(sigma: DensityMatrix, H: HermitianObservable) -> bool:
    """True when copies of sigma under H split into Schur-Weyl blocks:
    a qubit under a non-degenerate qubit Hamiltonian."""
    return sigma.dim == H.dim == 2 and level_labels(H.spectrum)[-1] == 1


def _schur_blocks(sigma, H, copies: int) -> list:
    """The Schur-Weyl blocks of sigma^(x)copies for a qubit sigma under a
    non-degenerate qubit H: (log p_j, rho_j, H_j) for each spin
    j = copies/2, copies/2 - 1, ... whose weight p_j is positive.

    sigma^(x)n is the direct sum over j of p_j rho_j (x) I_{S_j}/dim S_j,
    and H_n of H_j (x) I_{S_j}, so Omega and its SDP split into one
    problem per spin with F*(n) = sum_j p_j F*(rho_j) (Keyl & Werner, PRA
    64, 052311, 2001; Gatermann & Parrilo, J. Pure Appl. Algebra 192,
    2004).  With sigma = (I + r n.sigma)/2 in H's eigenbasis and
    a, b = (1 +- r)/2, the block state is diagonal in the eigenbasis of
    n.J (a tridiagonal matrix in the J_z basis) with weight
    a^(n/2+mu) b^(n/2-mu) on the eigenvalue mu, and
    dim S_j = C(n, k)(n - 2k + 1)/(n - k + 1) with k = n/2 - j; both are
    summed in logs.  rho_j is held in the basis m = j, j - 1, ..., -j,
    where H_j = n E_0 + g (n/2 - m) ascends; it comes with its
    eigendecomposition and H_j with its own, so neither is solved again.
    sigma = I/2 (r = 0) keeps the J_z basis, and a pure sigma has the one
    block j = n/2.

    Trusts iid_fidelity's checks of copies, the split and the budget;
    sigma and H may still be arrays."""
    H, sigma = observable(H), density_matrix(sigma)
    n = copies
    V = H.eigenbasis
    s = V.conj().T @ sigma.matrix @ V
    # the Bloch vector in H's eigenbasis, |0> the lower level
    rz, s01 = float((s[0, 0] - s[1, 1]).real), complex(s[0, 1])
    r = min(1.0, math.hypot(rz, 2.0 * abs(s01)))
    log_a = math.log((1.0 + r) / 2.0)
    log_b = math.log((1.0 - r) / 2.0) if r < 1.0 else -math.inf
    E0, g = float(H.spectrum[0]), float(H.spectrum[1] - H.spectrum[0])
    blocks = []
    for k in range(n // 2 + 1):
        P = n - 2 * k + 1
        i = np.arange(P)
        e_b = (n - k - i).astype(float)
        # a^(k + i) b^(n - k - i) on mu = i - j, with 0 log 0 = 0
        log_w = (k + i) * log_a + np.multiply(e_b, log_b, out=np.zeros(P),
                                              where=e_b > 0)
        log_sum = float(np.logaddexp.reduce(log_w))
        if log_sum == -math.inf:
            continue
        log_dim = (math.lgamma(n + 1) - math.lgamma(k + 1)
                   - math.lgamma(n - k + 1) + math.log(P)
                   - math.log(n - k + 1))
        w = np.exp(log_w - log_sum)
        if r > 0.0:
            # r n.J in the basis m = j - i: r_z m on the diagonal, and
            # sigma_01 <m+1|J_+|m> above it
            off = (s01 / r) * np.sqrt((i[1:] * (P - i[1:])).astype(float))
            nJ = (np.diag((rz / r) * ((P - 1) / 2.0 - i)).astype(complex)
                  + np.diag(off, 1) + np.diag(off.conj(), -1))
            U = np.linalg.eigh(nJ)[1]
        else:
            U = np.eye(P, dtype=complex)
        rho = (U * w) @ U.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        levels = n * E0 + g * (k + i)
        blocks.append((
            log_dim + log_sum,
            DensityMatrix(matrix=rho, spectrum=w, eigenbasis=U),
            HermitianObservable(matrix=np.diag(levels).astype(complex),
                                spectrum=levels,
                                eigenbasis=np.eye(P, dtype=complex))))
    return blocks


def _chain(omega: OmegaState) -> SdpResult | None:
    """The optimum of an Omega whose A levels m meet B's first two levels
    in sectors that are singletons or links {(m, 0), (m + 1, 1)}, each
    link's diagonal entries the largest of their rows (within num); None
    for any other Omega.

    tau is then diagonal, t_m = o_m + u_m with o_m the largest diagonal
    entry of row m, and the LMI reads u >= 0 and u_m u_{m+1} >= c_m^2,
    c_m = |Omega on link m|.  On each run of links with c > 0 every
    constraint is taken active: u_0 = x, u_{m+1} = c_m^2/u_m, so
    sum u = A x + B/x, least at x = sqrt(B/A); all of it in logs.  The
    dual is built forward along the run: p_0 = 1, r_m = p_m u_m/u_{m+1},
    p_{m+1} = 1 - r_m, each clipped to [0, 1], then all of X rescaled so
    that no entry of Tr_B X passes 1.  Link m carries
    X_m = [[p_m, q_m], [q_m^*, r_m]] with |q_m| = sqrt(p_m r_m) and
    Omega's phase; a row off every run carries a 1 at its largest entry.
    Every t_m is lifted by the least eta that leaves each sector of
    tau (x) I - Omega positive semidefinite after rounding, plus the
    N eps |tau| that a dense eigensolve may round away, so the slack is
    positive.  None, too, when the gap, by verify_certificate's formula,
    is not below sdp_gap; any other certificate is the caller's to check."""
    d_A, d_B = omega.sectors.shape
    N = d_A * d_B
    Om = omega.matrix
    lab = omega.sectors.ravel()
    sizes = np.bincount(lab)
    if sizes.max() > 2:
        return None
    order = np.argsort(lab, kind="stable")
    ends = np.cumsum(sizes)[sizes == 2]
    first, second = order[ends - 2], order[ends - 1]
    D = Om.diagonal().real.reshape(d_A, d_B)
    o = D.max(axis=1)
    m = first // d_B
    if first.size and not (
            np.all(first % d_B == 0) and np.all(second == first + d_B + 1)
            and np.all(D[m, 0] >= o[m] * (1.0 - DEFAULT.num))
            and np.all(D[m + 1, 1] >= o[m + 1] * (1.0 - DEFAULT.num))):
        return None
    link = np.zeros(d_A - 1, dtype=complex)
    link[m] = Om[first, second]
    c = np.abs(link)
    live = c > 0.0
    log_c2 = np.full(d_A - 1, -math.inf)
    log_c2[live] = 2.0 * np.log(c[live])
    log_u = np.full(d_A, -math.inf)
    p, r = np.zeros(d_A - 1), np.zeros(d_A - 1)
    # the runs of live links: rows s..e hold links s..e-1
    edges = np.flatnonzero(np.diff(np.concatenate(([0], live, [0]))))
    for s, e in zip(edges[::2], edges[1::2]):
        sign = 1.0 - 2.0 * (np.arange(e - s + 1) % 2)
        # log u_{s+i} = L_i + (-1)^i log x, L_{i+1} = log c^2 - L_i
        L = np.concatenate(([0.0], -sign[1:] * np.cumsum(
            sign[:-1] * log_c2[s:e])))
        log_x = 0.5 * (float(np.logaddexp.reduce(L[1::2]))
                       - float(np.logaddexp.reduce(L[0::2])))
        log_u[s:e + 1] = L + sign * log_x
        p_k = 1.0
        for k in range(s, e):
            p[k] = p_k
            r[k] = min(1.0, max(0.0, p_k * math.exp(log_u[k] - log_u[k + 1])))
            p_k = min(1.0, max(0.0, 1.0 - r[k]))
    in_run = np.zeros(d_A, dtype=bool)
    in_run[:-1] |= live
    in_run[1:] |= live
    single = np.ones(N, dtype=bool)
    single[first] = single[second] = False
    single = single.reshape(d_A, d_B)

    def least_slack(t):
        # singletons, then the links' 2 x 2 blocks in closed form; a B of
        # one level has no column 1 and no links
        least = (t[:, None] - D)[single].min(initial=math.inf)
        if m.size:
            a, b = t[m] - D[m, 0], t[m + 1] - D[m + 1, 1]
            pair = 0.5 * (a + b) - np.hypot(0.5 * (a - b), c[m])
            least = min(least, pair.min())
        return float(least)

    t = o + np.exp(log_u)
    eta = N * np.finfo(float).eps * float(t.max()) - min(least_slack(t), 0.0)
    t = t + eta
    X = np.zeros((N, N), dtype=complex)
    lone = np.flatnonzero(~in_run)
    at = lone * d_B + D[lone].argmax(axis=1)
    X[at, at] = 1.0
    k = np.flatnonzero(live)
    i, j = k * d_B, (k + 1) * d_B + 1
    X[i, i], X[j, j] = p[k], r[k]
    X[i, j] = np.sqrt(p[k] * r[k]) * link[k] / c[k]
    X[j, i] = X[i, j].conj()
    X /= max(1.0, float(partial_trace(X, (d_A, d_B)).real.diagonal().max()))
    primal = float(t.sum())
    gap = primal - float(np.sum(Om * X.T).real)
    if not gap < DEFAULT.sdp_gap:
        return None
    return SdpResult(optimum=primal, tau=np.diag(t).astype(complex),
                     dual_certificate=X, primal_dual_gap=gap,
                     newton_steps=0, barrier_stages=0,
                     min_slack=least_slack(t))


@dataclass(frozen=True)
class BlockSum:
    """F*(n) summed over the blocks iid_fidelity solves.

    With upper = sum_j p_j Tr tau_j over the blocks solved, plus the mass
    of the blocks dropped (p_j < 1e-17, each at most 1), fidelity is
    min(1, upper), so it bounds F* <= 1 from above, and fidelity - gap
    bounds it from below: gap is sum_j p_j gap_j plus that mass, less
    what the clip took off upper, and never negative.  newton_steps is
    summed over the blocks and barrier_stages is the largest; min_slack
    is the least eigenvalue of the direct sum of p_j (tau_j (x) I -
    Omega_j).  certificate is "dense" for one n-copy Omega, whichever
    solver certified it; for Schur-Weyl blocks it is "schur-chain" when
    every block solved was certified in closed form, "schur" when some
    block needed the barrier SDP."""

    fidelity: float
    gap: float
    newton_steps: int
    barrier_stages: int
    min_slack: float
    certificate: str
    blocks: int
    blocks_dropped: int


def iid_fidelity(sigma, H, psi_B, H_B, copies: int) -> BlockSum:
    """F*(copies) of any source sigma under H into any target psi_B under
    H_B, summed over a list of blocks (log p, rho, H_k, k): the Schur-Weyl
    blocks of a qubit under a non-degenerate qubit H (_schur_blocks),
    each one copy, or else the one block (0, sigma, H, copies).

    Each block's Omega = iid_omega_state(rho, H_k, psi_B, H_B, k) is
    solved by _chain where it applies and by _min_trace_sdp where it does
    not or where the chain's certificate fails; every result has passed
    verify_certificate.

    Every check comes before any block is built: copies >= 1, then
    sigma, H and H_B, then psi_B as a pure_state of H_B's dimension, then
    the split.  Schur-Weyl blocks have one copy budget: sum_j
    ((2j + 1) d_B)^3, the work of the dense checks, taken the largest
    block first, is at most MAX_OMEGA_SIDE^3, one dense check at the
    largest side one n-copy Omega admits; it bounds each side too.
    ValidationError or DimMismatchError otherwise, and wherever
    iid_omega_state raises."""
    if copies < 1:
        raise ValidationError(f"copies must be at least 1, got {copies}")
    sigma, H, H_B = density_matrix(sigma), observable(H), observable(H_B)
    psi_B = pure_state(psi_B)
    require_same_dim(psi_B.dim, H_B.dim)
    split = _splits(sigma, H)
    if split:
        work = 0
        for side in range(copies + 1, 0, -2):
            work += (side * H_B.dim) ** 3
            if work > MAX_OMEGA_SIDE ** 3:
                raise ValidationError(
                    f"{copies} copies make spin blocks whose cubed sides "
                    f"sum past the budget of {MAX_OMEGA_SIDE}**3")
        blocks = [(log_p, rho, H_j, 1)
                  for log_p, rho, H_j in _schur_blocks(sigma, H, copies)]
        count, kind = copies // 2 + 1, "schur-chain"
    else:
        blocks, count, kind = [(0.0, sigma, H, copies)], 1, "dense"
    upper = gap = dropped = 0.0
    steps = stages = solved = 0
    slack = math.inf
    for log_p, rho, H_k, k in blocks:
        p = math.exp(log_p)
        if p < 1e-17:
            dropped += p
            continue
        omega = iid_omega_state(rho, H_k, psi_B, H_B, k)
        res = _chain(omega)
        if res is not None:
            try:
                res = verify_certificate(res, omega)
            except CertificateError:
                res = None
        if res is None:
            res = conditional_min_entropy(omega)
            kind = "schur" if split else kind
        upper += p * res.optimum
        gap += p * res.primal_dual_gap
        steps += res.newton_steps
        stages = max(stages, res.barrier_stages)
        slack = min(slack, p * res.min_slack)
        solved += 1
    upper += dropped
    return BlockSum(
        fidelity=min(1.0, upper),
        gap=max(0.0, gap + dropped - max(0.0, upper - 1.0)),
        newton_steps=steps, barrier_stages=stages, min_slack=slack,
        certificate=kind, blocks=solved, blocks_dropped=count - solved)


def _check_qubit_family(lam: float, n: int) -> None:
    """ValidationError unless lam lies in (0, 1] and n >= 1."""
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"lambda must lie in (0, 1], got {lam}")
    if n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")


def qubit_infidelity_bound(lam: float, n: int):
    """(exact_bound, asymptotic) lower bounds on the output infidelity
    when distilling one coherent qubit from n copies at visibility lam.

    exact_bound comes from the purity-of-coherence converse applied to
    the n-copy qubit family; asymptotic is its large-n expansion
    (1 - lam^2)/(4 lam^2 n)."""
    _check_qubit_family(lam, n)
    lt2 = n * lam * lam / (1.0 + (n - 1) * lam * lam)
    exact = 0.5 * (1.0 - math.sqrt(lt2))
    asym = (1.0 - lam * lam) / (4.0 * lam * lam * n)
    return exact, asym


def cirac_comparison(lam: float, n: int) -> float:
    """Published asymptotic infidelity (1-lam)/(2 lam^2 n) of the best
    known qubit purification channel; exceeds the asymptotic lower bound
    by exactly 2/(1+lam)."""
    _check_qubit_family(lam, n)
    return (1.0 - lam) / (2.0 * lam * lam * n)
