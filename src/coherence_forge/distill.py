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
(_schur_blocks, which gives each block's state as its bands, as far as
the sectors reach, and _spin_omega, which builds Omega from them), and
any other source is one block, its n-copy Omega.  An Omega whose
sectors form a chain (a target with equal weights on two levels at the
source's gap) is solved in closed form from its entries, with a dual
built along the chain (_chain); the spin blocks go to it at once, as
one direct sum, and any block it declines goes to its own Omega
(_dense_block: the chain, else the barrier solver).  Omega, tau and X
are held as their entries inside the sectors (SectorMatrix) from
builder to certificate, and verify_certificate re-checks every block
result, the chain's and the barrier's alike, sector by sector on those
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .errors import (
    CertificateError,
    IncommensurateSpectrumError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    HermitianObservable,
    PureState,
    density_matrix,
    level_labels,
    observable,
    pure_state,
    require_count,
    require_same_dim,
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
# iid_omega_state refuses n copies whose Omega side d**n * d_B, or whose
# count of tau parameters, exceeds these: the side bounds the d**n sums of
# the n-copy spectrum and the N product states that _sectors pairs, and 924
# parameters (six qubit copies) take about 0.11 s per Newton step at one
# BLAS thread, 0.08 s of it the complex solve.  iid_fidelity bounds the
# summed sides of all spin blocks by the square of MAX_OMEGA_SIDE, and the
# cubed sides of the blocks solved one by one (those the chain declines)
# by its cube
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
        raise ValidationError(f"eps must lie in (0, 2/3), got {eps}")
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
class SectorMatrix:
    """A square matrix held as its entries: values[q] at (rows[q],
    cols[q]), repeated entries adding, and zero elsewhere.  On A (x) B,
    (a, b) has the product index a d_B + b.  Omega, tau and the dual X
    are held this way, with entries inside the sectors only."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class OmegaState:
    """Source-target joint state pinched onto the eigenspaces of
    H_A (x) I - I (x) H_B, in the basis U_A (x) U_B of the two
    Hamiltonians' eigenvectors (each ascending in energy).

    sectors[i, j] labels the difference eigenspace that holds basis
    vector (i, j); matrix is block-diagonal in these labels, held as the
    SectorMatrix of its entries inside the sectors.  It is a state
    because the source and target it is built from are."""

    matrix: SectorMatrix
    sectors: np.ndarray = field(repr=False)


def _sectors(blocks: list, b: np.ndarray) -> tuple:
    """(labels, rows, cols) for the product levels (i, j) of each block's
    A levels a (ascending, the blocks in order) and B levels b.  labels is
    a sum(len(a)) x len(b) array: within a block, the level_labels of the
    sorted differences a_i - b_j at gap_cutoff, numbered on from the
    previous block's, so that no sector spans two blocks.  rows and cols
    are the pairs of product indices i len(b) + j that share a sector:
    the diagonal pairs (q, q) first, in order, then the others.  A step
    between sorted differences of one block that is at least gap_cutoff
    yet below sqrt(gap_cutoff) makes the sectors ill-defined and raises
    IncommensurateSpectrumError."""
    a = np.concatenate(blocks)
    delta = (a[:, None] - b[None, :]).ravel()
    block = np.repeat(np.arange(len(blocks)),
                      [len(x) * len(b) for x in blocks])
    order = np.lexsort((delta, block))
    delta, block = delta[order], block[order]
    steps = delta[1:] - delta[:-1]
    new_block = block[1:] != block[:-1]
    vague = ((steps >= DEFAULT.gap_cutoff)
             & (steps < math.sqrt(DEFAULT.gap_cutoff)) & ~new_block)
    if np.any(vague):
        raise IncommensurateSpectrumError(
            f"difference-spectrum gap {steps[np.argmax(vague)]:.3e} too "
            "small to separate eigenspaces reliably")
    new = (steps >= DEFAULT.gap_cutoff) | new_block
    ordered = np.concatenate(([0], new.cumsum()))
    labels = np.empty(delta.size, dtype=int)
    labels[order] = ordered
    # in sector order, two product states of one sector lie d = 1, 2, ...
    # places apart, d below the largest sector's size
    q = np.arange(delta.size)
    rows, cols = [q], [q]
    for d in range(1, int(np.bincount(ordered).max())):
        same = ordered[d:] == ordered[:-d]
        u, v = order[:-d][same], order[d:][same]
        rows += [u, v]
        cols += [v, u]
    return (labels.reshape(len(a), len(b)), np.concatenate(rows),
            np.concatenate(cols))


def iid_omega_state(sigma, H, psi_B, H_B, copies: int) -> OmegaState:
    """Pinch sigma^(x)copies (x) |conj(psi_B)><conj(psi_B)| onto the
    eigenspaces of H_n (x) I - I (x) H_B, with H_n = sum_i H_i the
    non-interacting Hamiltonian of the copies; copies = 1 gives the
    state of any single source under any H.

    The conjugate of psi_B is taken in the H_B eigenbasis.  The levels
    of H_n are H's cached eigenvalues summed and sorted ascending by a
    stable sort, so no n-copy matrix is decomposed and no n-copy
    eigenbasis or Hamiltonian is formed.  Omega is returned as its
    entries at the pairs of product states that share a sector, each
    sigma^(x)copies[a, c] t[b, b'] with t = conj(psi_B) conj(psi_B)^dag.
    That entry of sigma^(x)copies is read off one copy's s = V^dag sigma
    V, V H's eigenbasis: the product of s at the base-d digits of a and c
    before the sort, taken left to right as a Kronecker product takes
    them.  No n-copy matrix and no N x N matrix is built.

    Before any n-copy array is built, sigma is checked as a d x d
    density_matrix and psi_B as a pure_state (each at its own size; Omega
    itself is never decomposed), and ValidationError is raised when
    copies is not an integer >= 1 (a bool is refused), when sigma and H
    differ in dimension, when the Omega side d**copies * d_B passes
    MAX_OMEGA_SIDE, or when tau's parameter count, sum_E deg(E)^2
    over the level_labels E of the summed spectrum, passes
    MAX_SDP_PARAMS.  Eigenvalue differences form levels by level_labels
    at gap_cutoff; a step between sorted differences that is at least
    gap_cutoff yet below sqrt(gap_cutoff) makes the levels ill-defined
    and raises IncommensurateSpectrum."""
    copies = require_count(copies, "copies")
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
    s = H.eigenbasis.conj().T @ sigma.matrix @ H.eigenbasis
    t = np.outer(psi_bar, psi_bar.conj())
    labels, rows, cols = _sectors([a], b)
    (i, j), (k, m) = np.divmod(rows, b.size), np.divmod(cols, b.size)
    x = np.unravel_index(perm[i], (d,) * copies)
    y = np.unravel_index(perm[k], (d,) * copies)
    sn = s[x[0], y[0]]
    for xc, yc in zip(x[1:], y[1:]):
        sn = sn * s[xc, yc]
    return OmegaState(SectorMatrix(rows, cols, sn * t[j, m]), labels)


@dataclass(frozen=True)
class SdpResult:
    """Optimum Tr(tau) with its primal tau and dual X in the eigenbasis
    the OmegaState is held in, each a SectorMatrix: tau in the U_A
    basis, X in U_A (x) U_B.  newton_steps and barrier_stages count the
    solver's work; min_slack is the least eigenvalue of tau (x) I - Omega
    it ended on, read off the sector eigensolve that also gives X."""

    optimum: float
    tau: SectorMatrix
    dual_certificate: SectorMatrix
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
    identity row of the slack and zero elsewhere.  Omega's entries are
    summed into their places, and one off the sector mask raises
    CertificateError before any Newton step.  tau is held as the vector
    x of its P block entries, unit q being tau[ui[q], uk[q]].

    A's levels i and k share a tau block when (i, j) and (k, j) share a
    sector.  iid_omega_state's grouping makes that hold for every j or for
    none: a_i - a_k is the same in each column, and its groups lie at
    least sqrt(gap_cutoff) apart or it raises.  So column 0 of the labels
    gives the blocks, and each sector is closed under them."""

    def __init__(self, labels, Om: SectorMatrix):
        d_A, d_B = labels.shape
        lmi = labels.ravel()
        if not (lmi[Om.rows] == lmi[Om.cols]).all():
            raise CertificateError("Omega has an entry off the sector mask")
        sizes = np.bincount(lmi)
        n = sizes.max()
        self.valid = np.arange(n)[None, :] < sizes[:, None]
        E = np.zeros(self.valid.shape, dtype=int)
        E[self.valid] = np.argsort(lmi, kind="stable")
        a, j = np.divmod(E, d_B)
        self.pair = self.valid[:, :, None] & self.valid[:, None, :]
        rows, cols = E[:, :, None], E[:, None, :]
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
        omega = np.zeros(zero, dtype=complex)
        np.add.at(omega, base[Om.rows] + place[Om.cols], Om.values)
        self.omega = (omega.reshape(sizes.size, n, n)
                      - (~self.valid)[:, :, None] * np.eye(n))
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
    Math. Program. 79, 1997); no full-space matrix is formed.

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
    MAX_NEWTON_TERMS live terms, and CertificateError when Omega has an
    entry off the sector mask."""
    N = omega.sectors.size
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
    primal = float(np.sum(x[sectors.diagonal]).real)
    dual = float(np.sum(sectors.omega * Xs.swapaxes(1, 2)).real)
    gap = scale * (primal - dual)
    if gap >= DEFAULT.sdp_gap:
        raise SolverStallError(f"certified gap {gap:.3e} over budget")
    # a pad's eigenvector is its own unit row: no weight on the valid rows
    live = np.sum(np.abs(V) ** 2, axis=1, where=sectors.valid[:, :, None])
    return SdpResult(optimum=scale * primal,
                     tau=SectorMatrix(sectors.ui, sectors.uk, scale * x),
                     dual_certificate=SectorMatrix(
                         sectors.rows, sectors.cols, Xs[sectors.pair]),
                     primal_dual_gap=gap,
                     newton_steps=steps, barrier_stages=len(mus),
                     min_slack=scale * float(w[live > 0.5].min()))


def _least_eigenvalue(stack: np.ndarray) -> float:
    """The least eigenvalue over a stack of Hermitian blocks, each read
    from its upper triangle: in closed form for blocks of side 1 or 2,
    by eigvalsh for larger ones."""
    if stack.shape[1] > 2:
        return float(np.linalg.eigvalsh(stack, UPLO="U").min())
    a = stack[:, 0, 0].real
    if stack.shape[1] == 1:
        return float(a.min())
    d = stack[:, 1, 1].real
    return float((0.5 * (a + d)
                  - np.hypot(0.5 * (a - d), np.abs(stack[:, 0, 1]))).min())


def _entries(name: str, M, n: int) -> tuple:
    """(rows, cols, values) of an n x n operand of verify_certificate: a
    SectorMatrix whose entries are finite and in range."""
    if not isinstance(M, SectorMatrix):
        raise CertificateError(
            f"{name} is a {type(M).__name__}, not a SectorMatrix")
    rows, cols, values = M.rows, M.cols, np.asarray(M.values)
    at = np.concatenate((rows, cols))
    if not (len(rows) == len(cols) == len(values)
            and np.isfinite(values).all()
            and (not at.size or 0 <= at.min() <= at.max() < n)):
        raise CertificateError(
            f"{name} is not finite entries of an {n} x {n} matrix")
    return rows, cols, values


def _summed(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """values summed per index at, as an array of size entries."""
    S = np.bincount(at, values.real, size)
    if np.iscomplexobj(values):
        S = S + 1j * np.bincount(at, values.imag, size)
    return S


def verify_certificate(result: SdpResult, omega: OmegaState) -> SdpResult:
    """Re-check an SDP result apart from the solver, the barrier's and a
    chain's alike, sector by sector from omega.sectors and sharing no
    code with either solver.  tau, Omega and X are each a SectorMatrix
    whose entries are finite and in range, and the entries of tau (x) I,
    Omega and X lie inside the sector mask.  Gathered by sector
    (repeated entries add), each of the three is Hermitian within
    sdp_feas, and the least eigenvalues, in closed form for sectors of
    one or two product states and by eigvalsh for larger ones, are >= 0
    for tau (x) I - Omega and >= -sdp_feas for X.  Gershgorin's bound on
    lambda_max(Tr_B X), from X's entries summed per cell of Tr_B X and
    exact for a chain's diagonal Tr_B X, is <= 1 + sdp_feas; the gap
    Tr tau - Tr(Omega X), recomputed, is below sdp_gap; and the reported
    optimum and gap match Tr tau and that gap within sdp_feas.  Every
    comparison fails on NaN.  Each check is unchanged by a product
    rotation U_A (x) U_B, so checking in the eigenbasis that Omega, tau
    and X share certifies the problem in any basis.

    Returns result; raises CertificateError on the first check that
    fails."""
    lab = np.asarray(omega.sectors).ravel()
    d_A, d_B = omega.sectors.shape
    N = lab.size
    ta, tc, tv = _entries("tau", result.tau, d_A)
    Om = _entries("Omega", omega.matrix, N)
    X = _entries("dual X", result.dual_certificate, N)
    sizes = np.bincount(lab)
    width = int(sizes.max())
    shape = (sizes.size, width, width)
    # entry [r, c] of a stack sits at base[r] + place[c] of its buffer when
    # r and c share a sector, place[c] being c's place inside it
    place = np.empty(N, dtype=int)
    place[np.argsort(lab, kind="stable")] = (
        np.arange(N) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    base = (lab * width + place) * width
    # tau[a, c] sits at ((a, b), (c, b)) of tau (x) I for every b
    b = np.arange(d_B)
    T = (np.add.outer(ta * d_B, b).ravel(), np.add.outer(tc * d_B, b).ravel(),
         tv.repeat(d_B))
    # each operand's entries, summed into its padded sector stack
    stacks = []
    for name, (rows, cols, values) in (("tau", T), ("Omega", Om),
                                       ("dual X", X)):
        if not (lab[rows] == lab[cols]).all():
            raise CertificateError(f"{name} has an entry off the sector mask")
        stack = _summed(base[rows] + place[cols], values,
                        math.prod(shape)).reshape(shape)
        skew = float(np.abs(stack - stack.conj().swapaxes(1, 2)).max())
        if not skew <= DEFAULT.sdp_feas:
            raise CertificateError(f"{name} is not Hermitian: {skew:.3e}")
        stacks.append(stack)
    Ts, Os, Xs = stacks
    # a pad is a zero row of both stacks: its eigenvalue 0 passes either
    # check
    s_min = _least_eigenvalue(Ts - Os)
    if not s_min >= 0.0:
        raise CertificateError(f"tau (x) I - Omega has eigenvalue {s_min:.3e}")
    x_min = _least_eigenvalue(Xs)
    if not x_min >= -DEFAULT.sdp_feas:
        raise CertificateError(f"dual X has eigenvalue {x_min:.3e}")
    # Tr_B X sums X's entries at ((a, b), (c, b)) into its cell (a, c):
    # the diagonal ones, and those off it, whose rows and columns differ
    # by a multiple of d_B
    rows, cols, values = X
    on = rows == cols
    off = ((rows - cols) % d_B == 0) & ~on
    bound = np.bincount(rows[on] // d_B, values[on].real, d_A)
    if off.any():
        # int64 codes, so that int32 indices cannot wrap
        cells, at = np.unique((rows[off] // d_B).astype(np.int64) * d_A
                              + cols[off] // d_B, return_inverse=True)
        bound += np.bincount(cells // d_A, np.abs(
            _summed(at, values[off], cells.size)), d_A)
    marginal = float(bound.max())
    if not marginal <= 1.0 + DEFAULT.sdp_feas:
        raise CertificateError(
            f"Gershgorin bound of Tr_B X = {marginal:.12f} exceeds 1")
    primal = float(tv[ta == tc].sum().real)
    gap = primal - float(np.vdot(Os.swapaxes(1, 2).conj(), Xs).real)
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
    verify_certificate has re-checked.  ValidationError, before any Newton
    step, unless Omega's trace is 1 within num: sdp_gap is absolute, so a
    gap below it certifies nothing on an Omega far below unit scale."""
    M = omega.matrix
    trace = float(np.sum(M.values[M.rows == M.cols]).real)
    if not abs(trace - 1.0) <= DEFAULT.num:   # NaN fails too
        raise ValidationError(f"Omega has trace {trace!r}, expected 1")
    return verify_certificate(_min_trace_sdp(omega), omega)


def _qubit_frame(sigma: DensityMatrix, H: HermitianObservable):
    """sigma in H's eigenbasis, the lower level first, when copies of
    sigma under H split into Schur-Weyl blocks: a qubit under a qubit
    Hamiltonian with two distinct levels.  None for any other source."""
    if not (sigma.dim == H.dim == 2 and level_labels(H.spectrum)[-1] == 1):
        return None
    V = H.eigenbasis
    return V.conj().T @ sigma.matrix @ V


def _visibility(s: np.ndarray | None, H: HermitianObservable,
                psi_B: PureState, H_B: HermitianObservable) -> float | None:
    """lam = 2|s_01| where the request is the qubit family that
    qubit_infidelity_bound is proved for, else None (s is _qubit_frame's):
    H_B has two distinct levels at H's gap (within level_rel), s_00 and
    |t_0|^2 are 1/2 within num (t is psi_B in H_B's eigenbasis), and lam
    passes num, so sigma = I/2 gives no bound.  No phase is read: one in
    either eigenbasis is a time translation, which leaves F* unchanged.
    A lam past 1 (a pure source reads 1 + 4e-16) is clipped to 1."""
    if s is None or H_B.dim != 2 or level_labels(H_B.spectrum)[-1] != 1:
        return None
    gap, gap_B = (float(h.spectrum[1] - h.spectrum[0]) for h in (H, H_B))
    t0 = np.vdot(H_B.eigenbasis[:, 0], psi_B.vector)
    lam = 2.0 * abs(complex(s[0, 1]))
    family = (abs(gap - gap_B) <= DEFAULT.level_rel * gap
              and abs(s[0, 0].real - 0.5) <= DEFAULT.num
              and abs(abs(t0) ** 2 - 0.5) <= DEFAULT.num
              and lam > DEFAULT.num)
    return min(lam, 1.0) if family else None


def _schur_blocks(s, H, copies: int, reach: int = 1) -> list:
    """The Schur-Weyl blocks of sigma^(x)copies, one (log p_j, levels,
    bands) for each spin j = copies/2, copies/2 - 1, ... of positive
    weight, from s = _qubit_frame(sigma, H) and the non-degenerate H:
    H_j's levels, ascending, and bands[r, m] = log rho_j[m - r, m] for
    r = 0..reach (-inf where it underflows, and at m < r).

    sigma^(x)n is the direct sum of p_j rho_j (x) I_{S_j}/dim S_j, and
    H_n of H_j (x) I_{S_j}, so F*(n) = sum_j p_j F*(rho_j) (Keyl & Werner,
    PRA 64, 052311, 2001; Gatermann & Parrilo, 2004).  With s_01's phase
    taken off (a time translation), rho_j is Sym^N(s) over its trace,
    N = 2j, in the basis i = 0..N of the copies in the upper level, where
    H_j = n E_0 + g (k + i), k = n/2 - j, and
    <i|Sym^N s|i + r> = sqrt(C(N, i + r)/C(N, i)) K_r(N - r - i, i) on the
    grid of (a, b) copies in the lower and upper level:
    K_r(a, b) = beta K_r(a, b - 1) + gamma K_{r-1}(a, b), K_0 = F,
    F(a, b) = alpha F(a - 1, b) + D(a, b) and D(a, b) = beta D(a, b - 1)
    + gamma^2 F(a - 1, b - 1), F(0, 0) = D(0, 0) = 1, with alpha, beta,
    gamma = s_00, s_11, |s_01| over s's larger eigenvalue.  The
    coefficients are non-negative, so one sweep of the anti-diagonals
    gives every block to rounding; it carries L_r(a, b) = K_r(a, b - r),
    so that the bands of block N lie on anti-diagonal N, O(reach P) work
    per block of side P = N + 1.  p_j = dim S_j det(s)^k Tr Sym^N(s), with
    dim S_j = C(n, k)(n - 2k + 1)/(n - k + 1), in logs.

    Trusts iid_fidelity's checks of copies, the split and the budget;
    H may still be an array."""
    H = observable(H)
    n = copies
    # the Bloch vector in H's eigenbasis, |0> the lower level, clipped to
    # the ball; s over its larger eigenvalue (1 + r)/2
    rz, rx = float((s[0, 0] - s[1, 1]).real), 2.0 * abs(complex(s[0, 1]))
    r = math.hypot(rz, rx)
    if r > 1.0:
        rz, rx, r = rz / r, rx / r, 1.0
    alpha, beta, gamma = (1.0 + rz) / (1.0 + r), (1.0 - rz) / (1.0 + r), \
        rx / (1.0 + r)
    log_top = math.log((1.0 + r) / 2.0)
    log_det = log_top + math.log((1.0 - r) / 2.0) if r < 1.0 else -math.inf
    E0, g = float(H.spectrum[0]), float(H.spectrum[1] - H.spectrum[0])
    # the blocks side by side, the largest spin first; the spins of weight
    # zero (k > 0 for a pure sigma) are left out
    ks = np.arange(n // 2 + 1 if log_det > -math.inf else 1)
    sides = n + 1 - 2 * ks
    starts = np.cumsum(sides) - sides
    start = dict(zip(sides.tolist(), starts.tolist()))
    raw = np.zeros((reach + 1, int(sides.sum())))
    # anti-diagonal N at places 1..N + 1 (a = 0..N), row r of L holding
    # L_r and row 0 F; place 0 and the places past N + 1 hold zeros
    L, L1, L2 = np.zeros((3, reach + 1, n + 2))
    D, D1 = np.zeros((2, n + 2))
    L1[0, 1] = D1[1] = 1.0
    root = np.sqrt(np.arange(n + 1.0))
    for N in range(n + 1):
        if N:
            D[1:N + 2] = beta * D1[1:N + 2] + gamma * gamma * L2[0, :N + 1]
            L[0, 1:N + 2] = alpha * L1[0, :N + 1] + D[1:N + 2]
            L[1:, 1:N + 2] = (beta * L1[1:, 1:N + 2]
                              + gamma * L1[:-1, 1:N + 2])
            L, L1, L2 = L2, L, L1
            D, D1 = D1, D
        # L1 and D1 now hold anti-diagonal N: column i of block N is
        # L_r(N - i, i) = K_r(N - i, i - r), and superdiagonal r takes the
        # factors sqrt(N + 1 - i + t)/sqrt(i - t) of sqrt(C(N, i)/C(N, i - r))
        # at i > t, one t < r at a time
        if N + 1 in start:
            at = start[N + 1]
            raw[:, at:at + N + 1] = L1[:, N + 1:0:-1]
            for t in range(min(reach, N)):
                band = raw[t + 1:, at + t + 1:at + N + 1]
                band *= root[N:t:-1]
                band /= root[1:N - t + 1]
    i = np.arange(raw.shape[1]) - starts.repeat(sides)
    log_totals = np.log(np.add.reduceat(raw[0], starts))
    with np.errstate(divide="ignore"):
        bands = np.log(raw) - log_totals.repeat(sides)
    levels = n * E0 + g * (ks.repeat(sides) + i)
    blocks = []
    for k, P, at, log_total in zip(ks.tolist(), sides.tolist(),
                                   starts.tolist(), log_totals.tolist()):
        log_dim = (math.lgamma(n + 1) - math.lgamma(k + 1)
                   - math.lgamma(n - k + 1) + math.log(P)
                   - math.log(n - k + 1))
        blocks.append((log_dim + (k * log_det if k else 0.0)
                       + (P - 1) * log_top + log_total,
                       levels[at:at + P], bands[:, at:at + P]))
    return blocks


def _spin_omega(blocks: list, sectors: tuple,
                log_t: np.ndarray) -> OmegaState:
    """The direct sum of p_j Omega_j over blocks (log p_j, levels, bands)
    of _schur_blocks, sectors = _sectors of their levels and H_B's, and
    log_t the logs of psi_B's weights in H_B's eigenbasis (its phases,
    like the source's, are a time translation): at each pair of product
    states (m, b), (m', b') that share a sector, in _sectors' order,
    exp(log rho_j[m, m'] + log p_j + (log t_b + log t_b')/2)."""
    labels, rows, cols = sectors
    d_B = labels.shape[1]
    # log p_j rho_j, band by band
    bands = np.concatenate([b[2] for b in blocks], axis=1) + np.repeat(
        [b[0] for b in blocks], [b[1].size for b in blocks])
    N = labels.size
    diagonal = np.exp(bands[0][:, None] + log_t).ravel()
    (m, b), (k, c) = np.divmod(rows[N:], d_B), np.divmod(cols[N:], d_B)
    off = np.exp(bands[np.abs(m - k), np.maximum(m, k)]
                 + 0.5 * (log_t[b] + log_t[c]))
    return OmegaState(SectorMatrix(rows, cols,
                                   np.concatenate((diagonal, off))), labels)


def _chain(omega: OmegaState) -> SdpResult | None:
    """The optimum of an Omega whose A levels m meet B's first two levels
    in sectors that are singletons or links (m, 0)-(m + 1, 1), each
    link's diagonal entries the largest of their rows (within num); None
    for any other Omega.  Omega's diagonal D and its entries c_m on the
    links are read off its entries, repeated entries adding.

    tau is then diagonal, t_m = o_m + u_m with o_m the largest entry of D
    on row m (or 0), and the LMI reads u >= 0 and u_m u_{m+1} >= |c_m|^2.
    On each run of links with c != 0 every constraint is taken active:
    u_0 = x, u_{m+1} = |c_m|^2/u_m, so sum u = A x + B/x, least at
    x = sqrt(B/A), solved in logs (a zero as -inf).  The dual is built
    forward along the run: p_0 = 1, r_m = p_m u_m/u_{m+1} (from its log),
    p_{m+1} = 1 - r_m, each clipped to [0, 1], then X rescaled so that
    Tr_B X <= I; link m carries [[p_m, q_m], [q_m^*, r_m]] with
    |q_m| = sqrt(p_m r_m) and c_m's phase (a sign for a real Omega, whose
    X stays real), and a row off every run a 1 at its largest entry.
    Each t_m is lifted by 16 eps of the largest t next to it, what a
    2 x 2 closed form may round away, then tau until every sector's
    closed form, read from D and |c|, is >= 0; the lift is local, so a
    direct sum of chains gives the sum of their optima.  None, too, when
    the gap Tr tau - Tr(Omega X) is not below sdp_gap."""
    labels = omega.sectors
    d_A, d_B = labels.shape
    sizes = np.bincount(labels.ravel())
    if sizes.max() > 2:
        return None
    M = omega.matrix
    on = M.rows == M.cols
    D = np.bincount(M.rows[on], M.values[on].real, d_A * d_B)
    # a diagonal entry rounded below zero counts as zero for the row's top
    top = np.maximum(D, 0.0)
    o = top.reshape(d_A, d_B).max(axis=1)
    # link m: (m, 0) and (m + 1, 1), at flat places first and second,
    # share a sector; every sector of two product states must be one
    m = (np.flatnonzero(labels[:-1, 0] == labels[1:, 1]) if d_B > 1
         else np.arange(0))
    first = m * d_B
    second = first + (d_B + 1)
    tol = 1.0 - DEFAULT.num
    if np.count_nonzero(sizes == 2) != m.size or not (
            (top[first] >= tol * o[m]).all()
            and (top[second] >= tol * o[m + 1]).all()):
        return None
    # inside the sectors, the checks above leave the links as the only
    # entries at (r, r + d_B + 1); one off them fails verify_certificate
    at = M.cols == M.rows + (d_B + 1)
    on_link = np.zeros(d_A, dtype=M.values.dtype)
    np.add.at(on_link, M.rows[at] // d_B, M.values[at])
    c = np.zeros(d_A - 1)
    c[m] = np.abs(on_link[m])
    with np.errstate(divide="ignore"):
        log_c = np.log(c)
    live = c > 0.0
    # link m's weights: p[m] on row m and r[m + 1] on row m + 1
    log_u = np.full(d_A, -math.inf)
    p, r = np.zeros(d_A), np.zeros(d_A)
    # the runs of live links: rows s..e hold links s..e-1
    edge = np.concatenate(([False], live, [False]))
    edges = (edge[1:] != edge[:-1]).nonzero()[0].tolist()
    alt = np.ones(d_A)
    alt[1::2] = -1.0
    for s, e in zip(edges[::2], edges[1::2]):
        sign = alt[:e - s + 1]
        # log u_{s+i} = L_i + (-1)^i log x, L_{i+1} = log c^2 - L_i
        L = np.concatenate(([0.0], (-2.0 * sign[1:]) * (
            sign[:-1] * log_c[s:e]).cumsum()))
        log_x = 0.5 * (np.logaddexp.reduce(L[1::2])
                       - np.logaddexp.reduce(L[0::2]))
        lu = L + sign * log_x
        log_u[s:e + 1] = lu
        # r_m = min(1, p_m u_m/u_{m+1}) and p_{m+1} = 1 - r_m stay in
        # [0, 1]; a ratio past e^709 gives r_m = 1 for any normal p_m
        ps = [1.0]
        for ratio in np.exp(np.minimum(lu[:-1] - lu[1:], 709.0)).tolist():
            ratio *= ps[-1]
            ps.append(1.0 - (ratio if ratio < 1.0 else 1.0))
        ps = np.array(ps)
        p[s:e] = ps[:-1]
        r[s + 1:e + 1] = 1.0 - ps[1:]
    t = o + np.exp(log_u)
    # 16 eps of the largest t a row shares a sector with: the rounding of
    # a 2 x 2 closed form is a few eps of its block's norm
    near = t.copy()
    np.maximum(near[1:], t[:-1], out=near[1:])
    np.maximum(near[:-1], t[1:], out=near[:-1])
    eps = float(np.finfo(float).eps)
    t += 16.0 * eps * near
    # the least eigenvalue of tau (x) I - Omega: the diagonal's least
    # entry (a link's entries bound its least eigenvalue from above), and
    # the links' 2 x 2 blocks in closed form; while it is negative, tau
    # is raised by twice the shortfall, and by at least eps t_m so that
    # every t_m moves
    for _ in range(8):
        slack = t.repeat(d_B) - D
        a, b = slack[first], slack[second]
        low = min(float(slack.min()),
                  float((0.5 * (a + b) - np.hypot(0.5 * (a - b), c[m])).min(
                      initial=math.inf)))
        if low >= 0.0:
            break
        t += np.maximum(-2.0 * low, eps * t)
    k = live.nonzero()[0]
    i = k * d_B
    j = i + (d_B + 1)
    in_run = np.zeros(d_A, dtype=bool)
    in_run[k] = in_run[k + 1] = True
    lone = (~in_run).nonzero()[0]
    at = lone * d_B + top.reshape(d_A, d_B)[lone].argmax(axis=1)
    pk, rk = p[k], r[k + 1]
    q = np.sqrt(pk * rk)
    scale = 1.0 / max(1.0, float((p + r + ~in_run).max()))
    # link/|link| would overflow at a subnormal |link|
    link = q * (np.exp(1j * np.angle(on_link[k]))
                if np.iscomplexobj(on_link) else np.sign(on_link[k]))
    X = SectorMatrix(np.concatenate((at, i, j, i, j)),
                     np.concatenate((at, i, j, j, i)),
                     scale * np.concatenate((np.ones(at.size), pk, rk, link,
                                             np.conj(link))))
    primal = float(t.sum())
    gap = primal - scale * float(D[at].sum() + (
        pk * D[i] + rk * D[j] + 2.0 * q * c[k]).sum())
    if not gap < DEFAULT.sdp_gap:
        return None
    diagonal = np.arange(d_A)
    return SdpResult(optimum=primal, tau=SectorMatrix(diagonal, diagonal, t),
                     dual_certificate=X, primal_dual_gap=gap, newton_steps=0,
                     barrier_stages=0, min_slack=low)


@dataclass(frozen=True)
class BlockSum:
    """F*(n) summed over the blocks iid_fidelity solves.

    With upper = sum_j p_j Tr tau_j over the blocks solved, plus the mass
    of the blocks dropped (p_j < 1e-17, each at most 1), fidelity is
    min(1, upper), so it bounds F* <= 1 from above, and fidelity - gap
    bounds it from below: gap is sum_j p_j gap_j plus that mass, less
    what the clip took off upper, and never negative.  Those bounds are
    certified for the Omega_j as computed, from their rounded bands for
    Schur-Weyl blocks.  For these a rounding correction widens them on
    both sides (added once to upper and twice to gap):
    |psi_B|^2 |1 - sum_j p_j| over all blocks, plus
    sum_j |p_j Tr Omega_j - p_j |psi_B|^2| over the blocks solved (read
    off the diagonal of their direct sum, which _spin_omega builds), plus
    (blocks + 2) eps/2 upper for the sum.  It is an estimate, not a
    proven bound: rounding errors of opposite sign within one Omega_j, or
    among the p_j, cancel in these traces.  bound_exact and
    bound_asymptotic are qubit_infidelity_bound(lam, n), lower bounds on
    1 - F*, where the request is the qubit family (_visibility), and None
    elsewhere.  newton_steps is summed over the blocks and barrier_stages
    is the largest; min_slack is the least eigenvalue of the direct sum
    of p_j (tau_j (x) I - Omega_j).  certificate is "dense" for one
    n-copy Omega, whichever solver certified it; for Schur-Weyl blocks it
    is "schur-chain" when every block solved was certified in closed
    form, "schur" when some block needed the barrier SDP."""

    fidelity: float
    gap: float
    bound_exact: float | None
    bound_asymptotic: float | None
    newton_steps: int
    barrier_stages: int
    min_slack: float
    certificate: str
    blocks: int
    blocks_dropped: int


def _certified(res: SdpResult | None, omega: OmegaState) -> SdpResult | None:
    """res when it is not None and verify_certificate passes it on omega,
    else None."""
    if res is None:
        return None
    try:
        return verify_certificate(res, omega)
    except CertificateError:
        return None


def _dense_block(omega: OmegaState) -> SdpResult:
    """An Omega solved by _chain where that certifies, else by
    conditional_min_entropy."""
    return (_certified(_chain(omega), omega)
            or conditional_min_entropy(omega))


def iid_fidelity(sigma, H, psi_B, H_B, copies: int) -> BlockSum:
    """F*(copies) of any source sigma under H into any target psi_B under
    H_B, summed over blocks: the Schur-Weyl blocks of a qubit under a
    non-degenerate qubit H (_schur_blocks), or else the one n-copy
    Omega = iid_omega_state(sigma, H, psi_B, H_B, copies).  _qubit_frame
    decides the split, and its one frame also feeds _schur_blocks and the
    bounds' qubit-family rule (_visibility).

    The spin blocks with p_j >= 1e-17 go to _chain at once, as one
    OmegaState, the direct sum of p_j Omega_j that _spin_omega builds from
    their bands; that same Omega goes to verify_certificate, and its
    diagonal to the rounding estimate.  The bands are swept as far as the
    sector pairs of _sectors reach, the farthest |m - m'| in one sector;
    past the first the direct sum is no chain.  Then, or if that chain or
    its sector-wise verify_certificate fails, each block goes to
    _dense_block on its own Omega_j from _spin_omega, as the one n-copy
    Omega of any other source does.

    Every check comes before any block is built: copies an integer >= 1
    (not a bool), then sigma, H and H_B, then psi_B as a pure_state of
    H_B's dimension, then the split.  Schur-Weyl blocks have one copy
    budget, the work of the band path: their sides (2j + 1) d_B sum to
    at most MAX_OMEGA_SIDE^2 (n <= 1446 for a qubit target).  Blocks the
    chain declines are refused before any band past the first is swept,
    and before any is solved on its own, when the cubed sides of their
    Omega_j, the work of the block solves, sum past MAX_OMEGA_SIDE^3.
    ValidationError otherwise, and wherever iid_omega_state raises."""
    copies = require_count(copies, "copies")
    sigma, H, H_B = density_matrix(sigma), observable(H), observable(H_B)
    psi_B = pure_state(psi_B)
    require_same_dim(psi_B.dim, H_B.dim)
    d_B = H_B.dim
    s = _qubit_frame(sigma, H)
    if s is None:
        results = [(1.0, _dense_block(
            iid_omega_state(sigma, H, psi_B, H_B, copies)))]
        count = solved = 1
        upper = gap = 0.0
    else:
        half = copies // 2
        if (half + 1) * (copies + 1 - half) * d_B > MAX_OMEGA_SIDE ** 2:
            raise ValidationError(
                f"{copies} copies make spin blocks whose sides sum past "
                f"the budget of {MAX_OMEGA_SIDE}**2")
        weight = np.abs(H_B.eigenbasis.conj().T @ psi_B.vector) ** 2
        with np.errstate(divide="ignore"):
            log_t = np.log(weight)
        blocks = _schur_blocks(s, H, copies)
        p = np.exp([b[0] for b in blocks])
        keep = p >= 1e-17
        live = [b for b, k in zip(blocks, keep) if k]
        count, solved = half + 1, len(live)
        sides = [b[1].size for b in live]
        labels, rows, cols = sectors = _sectors([b[1] for b in live],
                                                H_B.spectrum)
        # the farthest superdiagonal a sector pair (or its mirror) reaches:
        # past the first, the direct sum is no chain
        reach = int((rows[labels.size:] // d_B
                     - cols[labels.size:] // d_B).max(initial=0))
        res = None
        if reach <= 1:
            omega = _spin_omega(live, sectors, log_t)
            res = _certified(_chain(omega), omega)
        if res is None and sum((P * d_B) ** 3
                               for P in sides) > MAX_OMEGA_SIDE ** 3:
            raise ValidationError(
                f"{copies} copies make spin blocks that are no closed-form "
                "chain, and the cubed sides of their Omega_j sum past "
                f"the budget of {MAX_OMEGA_SIDE}**3")
        if reach > 1:
            live = [b for b, k in zip(_schur_blocks(s, H, copies, reach),
                                      keep) if k]
            omega = _spin_omega(live, sectors, log_t)
        results = [(1.0, res)] if res is not None else [
            (math.exp(log_p), _dense_block(_spin_omega(
                [(0.0, levels, bands)], _sectors([levels], H_B.spectrum),
                log_t))) for log_p, levels, bands in live]
        # a dropped block adds at most its weight; what the rounded
        # weights miss of 1 and each block's rounded diagonal misses of
        # psi_B's norm widen the interval by their size on both sides
        w = float(weight.sum())
        dropped = float(p[~keep].sum())
        D = omega.matrix.values[:labels.size].reshape(-1, d_B)
        mass = np.add.reduceat(D.sum(axis=1), np.cumsum([0] + sides[:-1]))
        error = (w * abs(1.0 - float(p.sum()))
                 + float(np.abs(mass - w * p[keep]).sum()))
        upper, gap = dropped + error, dropped + 2.0 * error
    upper += sum(p_j * r.optimum for p_j, r in results)
    gap += sum(p_j * r.primal_dual_gap for p_j, r in results)
    if s is not None:
        # the rounding of the sum over blocks
        rounding = (solved + 2) * 0.5 * float(np.finfo(float).eps) * upper
        upper += rounding
        gap += 2.0 * rounding
    lam = _visibility(s, H, psi_B, H_B)
    exact, asym = ((None, None) if lam is None
                   else qubit_infidelity_bound(lam, copies))
    stages = max(r.barrier_stages for _, r in results)
    return BlockSum(
        fidelity=min(1.0, upper),
        gap=max(0.0, gap - max(0.0, upper - 1.0)),
        bound_exact=exact, bound_asymptotic=asym,
        newton_steps=sum(r.newton_steps for _, r in results),
        barrier_stages=stages,
        min_slack=min(p_j * r.min_slack for p_j, r in results),
        certificate=("dense" if s is None
                     else "schur" if stages else "schur-chain"),
        blocks=solved, blocks_dropped=count - solved)


def _check_qubit_family(lam: float, n: int) -> int:
    """n as an int; ValidationError unless 0 < lam <= 1 and n is a count."""
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"lambda must lie in (0, 1], got {lam}")
    return require_count(n, "n")


def qubit_infidelity_bound(lam: float, n: int):
    """(exact_bound, asymptotic) lower bounds on the output infidelity
    when distilling one coherent qubit from n copies at visibility lam.

    exact_bound comes from the purity-of-coherence converse applied to
    the n-copy qubit family; asymptotic is its large-n expansion
    (1 - lam^2)/(4 lam^2 n), math.inf where that denominator underflows
    to 0."""
    n = _check_qubit_family(lam, n)
    lt2 = n * lam * lam / (1.0 + (n - 1) * lam * lam)
    exact = 0.5 * (1.0 - math.sqrt(lt2))
    den = 4.0 * lam * lam * n
    return exact, (1.0 - lam * lam) / den if den else math.inf


def cirac_comparison(lam: float, n: int) -> float:
    """Published asymptotic infidelity (1-lam)/(2 lam^2 n) of the best
    known qubit purification channel; exceeds the asymptotic lower bound
    by exactly 2/(1+lam).  math.inf where the denominator underflows to
    0."""
    n = _check_qubit_family(lam, n)
    den = 2.0 * lam * lam * n
    return (1.0 - lam) / den if den else math.inf
