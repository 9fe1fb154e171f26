"""Kraus channels, time-translation twirling, and monotonicity trials.

A channel E is covariant (TI) when E(e^{-iH_in t} X e^{iH_in t}) =
e^{-iH_out t} E(X) e^{iH_out t} for all t.  For Hamiltonians whose spectra
sit on an integer grid 2*pi*n/tau, write each Kraus operator in the energy
eigenframes, K~_ab = <a|V_out^dag K V_in|b>, and give entry (a, b) the Bohr
mode n_out[a] - n_in[b].  E is covariant exactly when its eigenframe
superoperator sum_k K~_ab conj(K~_ce) vanishes wherever the modes of (a, b)
and (c, e) differ (Marvian & Spekkens, PRA 90, 062110, 2014).  The twirl
keeps the on-mode part by splitting each operator by mode; is_ti measures
the off-mode part.  Both read the one mode mask of _eigenframe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .clockdist import snap_levels
from .convert import coherence_cost
from .errors import DimMismatchError, ValidationError
from .linalg import obs_eig, state_matrix
from .measures import (
    MeasureValue,
    purity_of_coherence,
    qfi,
    renyi_purity_monotone,
    skew_information,
)


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map stored as one read-only (rank, d_out, d_in) Kraus array."""

    kraus: np.ndarray

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]


@dataclass(frozen=True)
class TIChannel(KrausChannel):
    """Kraus channel with one Bohr mode per operator (integer energy-gap
    index), covariant for the Hamiltonians it was twirled against."""

    mode_index: tuple = ()


def kraus_channel(ops, tols: Tolerances = DEFAULT) -> KrausChannel:
    """Validated channel from d_out x d_in operators, given as a sequence
    or as one stacked (rank, d_out, d_in) array."""
    try:
        K = np.array(tuple(ops), dtype=complex)
    except ValueError as exc:
        raise DimMismatchError("Kraus operators have mixed shapes") from exc
    if len(K) == 0:
        raise ValidationError("a channel needs at least one Kraus operator")
    if K.ndim != 3:
        raise DimMismatchError(
            f"Kraus operators must be matrices, got shape {K.shape[1:]}"
        )
    total = np.einsum("kab,kac->bc", K.conj(), K)
    resid = np.max(np.abs(total - np.eye(K.shape[2])))
    if not resid <= tols.cptp:   # NaN fails too
        raise ValidationError(f"sum K^dag K misses identity by {resid:.3e}")
    K.setflags(write=False)
    return KrausChannel(kraus=K)


def _phase_fixed_qr(G) -> np.ndarray:
    """Q of G = QR with R's diagonal rotated to be real positive, so Q is
    a deterministic function of G (and Haar for a complex Gaussian G)."""
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    mag = np.abs(diag)
    phase = np.where(mag > 0, diag / np.where(mag > 0, mag, 1.0), 1.0)
    return Q * phase.conj()


def random_channel(d_in: int, d_out: int, rank: int,
                   seed, tols: Tolerances = DEFAULT) -> KrausChannel:
    """Seeded random CPTP map via a QR-orthonormalized Gaussian isometry.

    rank Kraus operators of shape d_out x d_in require rank * d_out >= d_in
    for trace preservation.
    """
    if rank < 1 or rank > d_in * d_out:
        raise ValidationError(f"rank must be in [1, {d_in * d_out}]")
    if rank * d_out < d_in:
        raise ValidationError(
            f"rank {rank} too small: need rank*d_out >= d_in"
        )
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(rank * d_out, d_in)) \
        + 1j * rng.normal(size=(rank * d_out, d_in))
    return kraus_channel(_phase_fixed_qr(G).reshape(rank, d_out, d_in), tols)


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_k K rho K^dag as a plain density matrix."""
    rho = state_matrix(rho)
    if rho.shape[0] != ch.d_in:
        raise DimMismatchError(
            f"state dim {rho.shape[0]} != channel input dim {ch.d_in}"
        )
    K = ch.kraus
    return np.sum(K @ rho @ K.conj().transpose(0, 2, 1), axis=0)


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Matrix of the channel on vectorized operators: sum_k K (x) conj(K)."""
    S = np.einsum("kab,kcd->acbd", ch.kraus, ch.kraus.conj())
    return S.reshape(ch.d_out ** 2, ch.d_in ** 2)


def _eigenframe(ch: KrausChannel, H_in, H_out, tau: float,
                tols: Tolerances):
    """(K~, grid, V_in, V_out): every Kraus operator as V_out^dag K V_in,
    and the Bohr mode grid[a, b] = n_out[a] - n_in[b] of each entry, with
    levels snapped to the 2*pi/tau grid above each lowest eigenvalue."""
    w_in, V_in = obs_eig(H_in, tols)
    w_out, V_out = obs_eig(H_out, tols)
    n_in = snap_levels(w_in, w_in[0], tau, tols)
    n_out = snap_levels(w_out, w_out[0], tau, tols)
    if len(n_in) != ch.d_in or len(n_out) != ch.d_out:
        raise DimMismatchError("Hamiltonian dims do not match the channel")
    Kt = V_out.conj().T @ ch.kraus @ V_in
    return Kt, n_out[:, None] - n_in[None, :], V_in, V_out


def twirl(ch: KrausChannel, H_in, H_out, tau: float,
          tols: Tolerances = DEFAULT) -> TIChannel:
    """Time average of the channel over the period tau, computed exactly.

    Each Kraus operator is split in the energy eigenframe by Bohr mode;
    only the fixed-mode components survive the average.  Components with
    max-abs weight below pair_cutoff are dropped; the rest are kept
    operator-major, modes ascending within each operator.
    """
    Kt, grid, V_in, V_out = _eigenframe(ch, H_in, H_out, tau, tols)
    # ascending modes without np.unique, which imports numpy.ma
    lo = grid.min()
    modes = np.flatnonzero(np.bincount((grid - lo).ravel())) + lo
    comps = np.where(grid == modes[:, None, None], Kt[:, None], 0.0)
    keep = np.max(np.abs(comps), axis=(2, 3)) > tols.pair_cutoff
    base = kraus_channel(V_out @ comps[keep] @ V_in.conj().T, tols)
    return TIChannel(kraus=base.kraus,
                     mode_index=tuple(modes[np.nonzero(keep)[1]].tolist()))


def is_ti(ch: KrausChannel, H_in, H_out, tau: float,
          tols: Tolerances = DEFAULT):
    """Exact covariance check on the Bohr-mode mask.

    The residual is the largest |sum_k K~_ab conj(K~_ce)| over eigenframe
    entries whose modes differ, n_out[a] - n_in[b] != n_out[c] - n_in[e];
    the channel is covariant exactly when every such entry vanishes.
    Returns (flag, max residual).
    """
    Kt, grid, _, _ = _eigenframe(ch, H_in, H_out, tau, tols)
    S = np.einsum("kab,kce->abce", Kt, Kt.conj())
    off = grid[:, :, None, None] != grid[None, None, :, :]
    resid = float(np.max(np.abs(S[off]), initial=0.0))
    return resid < tols.ti_residual, resid


@dataclass(frozen=True)
class MonotonicityReport:
    measure_id: str
    trials: int
    seed: int
    max_violation: float
    worst_trial: int
    violations: int
    alpha: float | None = None


def _measure(measure_id: str, rho, H, tau: float, alpha: float,
             tols: Tolerances) -> MeasureValue:
    if measure_id == "F":
        return MeasureValue.finite(qfi(rho, H, tols))
    if measure_id == "P":
        return purity_of_coherence(rho, H, tols)
    if measure_id == "W":
        return MeasureValue.finite(skew_information(rho, H, tols))
    if measure_id == "renyi":
        return renyi_purity_monotone(rho, H, alpha, tols)
    if measure_id == "cost":
        return MeasureValue.finite(coherence_cost(rho, H, tau, tols))
    raise ValidationError(f"unknown measure id {measure_id!r}")


def _random_integer_hamiltonian(d: int, rng, tols: Tolerances) -> np.ndarray:
    levels = rng.integers(0, 4, size=d)
    Q = _phase_fixed_qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (Q * levels.astype(float)) @ Q.conj().T


def monotonicity_suite(measure_id: str, trials: int = 100, seed: int = 0,
                       alpha: float = 1.5,
                       tols: Tolerances = DEFAULT) -> MonotonicityReport:
    """Monte Carlo check that the measure never grows under twirled
    channels.

    Each trial draws its own RNG stream from (seed, trial) so trials are
    reproducible independently of each other; dims run 2-4 and the input
    state is full rank, keeping all measures finite.  tau is fixed at
    2*pi so integer levels are energies directly.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    tau = 2.0 * math.pi
    worst = -math.inf
    worst_trial = -1
    violations = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        H_in = _random_integer_hamiltonian(d_in, rng, tols)
        H_out = _random_integer_hamiltonian(d_out, rng, tols)
        G = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        rho = G @ G.conj().T
        rho = rho / np.trace(rho).real
        rank_min = -(-d_in // d_out)
        rank = int(rng.integers(rank_min, d_in * d_out + 1))
        ch = random_channel(d_in, d_out, rank, rng, tols)
        tw = twirl(ch, H_in, H_out, tau, tols)
        sigma = apply(tw, rho)
        v_in = _measure(measure_id, rho, H_in, tau, alpha, tols)
        v_out = _measure(measure_id, sigma, H_out, tau, alpha, tols)
        if v_in.infinite:
            gap = 0.0 if v_out.infinite else -math.inf
        elif v_out.infinite:
            gap = math.inf
        else:
            gap = v_out.value - v_in.value
        if gap > worst:
            worst = gap
            worst_trial = t
        if gap > 1e-8:
            violations += 1
    return MonotonicityReport(measure_id=measure_id, trials=trials,
                              seed=seed, max_violation=worst,
                              worst_trial=worst_trial,
                              violations=violations,
                              alpha=alpha if measure_id == "renyi" else None)
