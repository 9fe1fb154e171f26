"""Kraus channels, time-translation twirling, and monotonicity trials.

A channel E is covariant (TI) when E(e^{-iH_in t} X e^{iH_in t}) =
e^{-iH_out t} E(X) e^{iH_out t} for all t.  For Hamiltonians whose spectra
sit on an integer grid 2*pi*n/tau this is equivalent to every Kraus
operator splitting into Bohr-mode components connecting levels with a
fixed integer gap; the twirl here performs that mode split exactly
instead of averaging over sampled times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .clockdist import snap_levels
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
    """CPTP map stored as Kraus operators, each d_out x d_in."""

    kraus: tuple
    d_in: int
    d_out: int


@dataclass(frozen=True)
class TIChannel(KrausChannel):
    """Kraus channel with one Bohr mode per operator (integer energy-gap
    index), covariant for the Hamiltonians it was twirled against."""

    mode_index: tuple = ()


def kraus_channel(ops, tols: Tolerances = DEFAULT) -> KrausChannel:
    ops = tuple(np.asarray(K, dtype=complex) for K in ops)
    if not ops:
        raise ValidationError("a channel needs at least one Kraus operator")
    d_out, d_in = ops[0].shape
    for K in ops:
        if K.shape != (d_out, d_in):
            raise DimMismatchError("Kraus operators have mixed shapes")
    total = sum(K.conj().T @ K for K in ops)
    resid = np.max(np.abs(total - np.eye(d_in)))
    if resid > tols.cptp:
        raise ValidationError(f"sum K^dag K misses identity by {resid:.3e}")
    return KrausChannel(kraus=ops, d_in=d_in, d_out=d_out)


def random_channel(d_in: int, d_out: int, rank: int,
                   seed, tols: Tolerances = DEFAULT) -> KrausChannel:
    """Seeded random CPTP map via a QR-orthonormalized Gaussian isometry.

    The R-factor phases are normalized so the draw is deterministic per
    seed.  rank Kraus operators of shape d_out x d_in require
    rank * d_out >= d_in for trace preservation.
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
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    phase = np.where(np.abs(diag) > 0, diag / np.abs(np.where(
        np.abs(diag) > 0, diag, 1.0)), 1.0)
    Q = Q * phase.conj()[None, :]
    ops = tuple(Q[k * d_out:(k + 1) * d_out, :] for k in range(rank))
    return kraus_channel(ops, tols)


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_k K rho K^dag as a plain density matrix."""
    rho = state_matrix(rho)
    if rho.shape[0] != ch.d_in:
        raise DimMismatchError(
            f"state dim {rho.shape[0]} != channel input dim {ch.d_in}"
        )
    out = np.zeros((ch.d_out, ch.d_out), dtype=complex)
    for K in ch.kraus:
        out += K @ rho @ K.conj().T
    return out


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Matrix of the channel on vectorized operators: sum_k K (x) conj(K)."""
    S = np.zeros((ch.d_out ** 2, ch.d_in ** 2), dtype=complex)
    for K in ch.kraus:
        S += np.kron(K, K.conj())
    return S


def _integer_levels(H, tau: float, tols: Tolerances):
    """Eigensystem of H with eigenvalues snapped to the 2*pi/tau grid.

    Returns (n, w, V) where n[i] is the integer level of eigenvector i,
    referenced to the lowest eigenvalue w[0].
    """
    w, V = obs_eig(H, tols)
    return snap_levels(w, w[0], tau, tols), w, V


def twirl(ch: KrausChannel, H_in, H_out, tau: float,
          tols: Tolerances = DEFAULT) -> TIChannel:
    """Time average of the channel over the period tau, computed exactly.

    Each Kraus operator is rotated into the product energy eigenframe and
    split by integer Bohr mode (output level minus input level); only the
    fixed-mode components survive the average.  Components with max-abs
    weight below pair_cutoff are dropped.
    """
    n_in, _, V_in = _integer_levels(H_in, tau, tols)
    n_out, _, V_out = _integer_levels(H_out, tau, tols)
    if len(n_in) != ch.d_in or len(n_out) != ch.d_out:
        raise DimMismatchError("Hamiltonian dims do not match the channel")
    mode_grid = n_out[:, None] - n_in[None, :]
    ops = []
    modes = []
    for K in ch.kraus:
        Kt = V_out.conj().T @ K @ V_in
        for mode in np.unique(mode_grid):
            comp = np.where(mode_grid == mode, Kt, 0.0)
            if np.max(np.abs(comp)) <= tols.pair_cutoff:
                continue
            ops.append(V_out @ comp @ V_in.conj().T)
            modes.append(int(mode))
    base = kraus_channel(ops, tols)
    return TIChannel(kraus=base.kraus, d_in=base.d_in, d_out=base.d_out,
                     mode_index=tuple(modes))


def is_ti(ch: KrausChannel, H_in, H_out, tau: float,
          tols: Tolerances = DEFAULT):
    """Covariance check on the superoperator at sampled times.

    The covariance defect is a trigonometric polynomial whose frequencies
    are bounded by the larger integer level span, so vanishing at
    2*max_span + 2 equally spaced times in [0, tau) implies vanishing for
    all t.  Returns (flag, max residual).
    """
    n_in, w_in, V_in = _integer_levels(H_in, tau, tols)
    n_out, w_out, V_out = _integer_levels(H_out, tau, tols)
    S = superoperator(ch)
    span = max(int(n_in.max() - n_in.min()),
               int(n_out.max() - n_out.min()))
    n_t = 2 * span + 2
    resid = 0.0
    for j in range(n_t):
        t = tau * j / n_t
        U_in = (V_in * np.exp(-1j * w_in * t)) @ V_in.conj().T
        U_out = (V_out * np.exp(-1j * w_out * t)) @ V_out.conj().T
        C_in = np.kron(U_in, U_in.conj())
        C_out = np.kron(U_out, U_out.conj())
        resid = max(resid, float(np.max(np.abs(S @ C_in - C_out @ S))))
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
        scale = tau / (2.0 * math.pi)
        return MeasureValue.finite(scale * scale * qfi(rho, H, tols))
    raise ValidationError(f"unknown measure id {measure_id!r}")


def _random_integer_hamiltonian(d: int, rng, tols: Tolerances) -> np.ndarray:
    levels = rng.integers(0, 4, size=d)
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    Q = Q * (diag / np.abs(diag)).conj()[None, :]
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
