"""Kraus channels, time-translation twirling, and monotonicity trials.

A channel E is covariant (TI) when E(e^{-iH_in t} X e^{iH_in t}) =
e^{-iH_out t} E(X) e^{iH_out t} for all t.  For Hamiltonians whose spectra
sit on an integer grid 2*pi*n/tau, write each Kraus operator in the energy
eigenframes, K~_ab = <a|V_out^dag K V_in|b>, and give entry (a, b) the Bohr
mode n_out[a] - n_in[b].  E is covariant exactly when sum_k K~_ab
conj(K~_ce) vanishes wherever the modes of (a, b) and (c, e) differ
(Marvian & Spekkens, PRA 90, 062110, 2014).  The twirl keeps the
on-mode part by splitting each operator by mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import DEFAULT
from .clockdist import snap_levels
from .errors import DimMismatchError, ValidationError
from .linalg import (
    DensityMatrix,
    HermitianObservable,
    density_matrix,
    eig_hermitian,
    observable,
)
from .measures import _check_alpha, _purity, _qfi, _renyi, _skew


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


def kraus_channel(ops) -> KrausChannel:
    """Validated channel from d_out x d_in operators, given as a sequence
    or as one stacked (rank, d_out, d_in) array."""
    try:
        # a stacked array copies whole; tuple() would split it into views
        K = np.array(ops if isinstance(ops, np.ndarray) else tuple(ops),
                     dtype=complex)
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
    if not resid <= DEFAULT.cptp:   # NaN fails too
        raise ValidationError(f"sum K^dag K misses identity by {resid:.3e}")
    K.setflags(write=False)
    return KrausChannel(kraus=K)


def _phase_fixed_qr(G) -> np.ndarray:
    """Q of G = QR with R's diagonal rotated to be real positive, so Q is
    a deterministic function of G (and Haar for a complex Gaussian G).
    G may be a stack (..., m, n)."""
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    phase = np.where(mag > 0, diag / np.where(mag > 0, mag, 1.0), 1.0)
    return Q * phase.conj()[..., None, :]


def _gaussian(rng, m: int, n: int) -> np.ndarray:
    """m x n complex Gaussian, real part drawn first."""
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


def random_channel(d_in: int, d_out: int, rank: int, seed) -> KrausChannel:
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
    G = _gaussian(np.random.default_rng(seed), rank * d_out, d_in)
    return kraus_channel(_phase_fixed_qr(G).reshape(rank, d_out, d_in))


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_k K rho K^dag as a plain density matrix; rho
    goes through density_matrix."""
    rho = density_matrix(rho)
    if rho.dim != ch.d_in:
        raise DimMismatchError(
            f"state dim {rho.dim} != channel input dim {ch.d_in}"
        )
    K = ch.kraus
    return np.sum(K @ rho.matrix @ K.conj().transpose(0, 2, 1), axis=0)


def twirl(ch: KrausChannel, H_in, H_out, tau: float) -> KrausChannel:
    """Time average of the channel over the period tau, computed exactly.

    Each Kraus operator is split in the energy eigenframe by Bohr mode,
    n_out[a] - n_in[b] for entry (a, b) of V_out^dag K V_in, with levels
    snapped to the 2*pi/tau grid above each lowest eigenvalue; only the
    fixed-mode components survive the average.  Components with max-abs
    weight below pair_cutoff are dropped; the rest are kept
    operator-major, modes ascending within each operator.
    """
    H_in, H_out = observable(H_in), observable(H_out)
    V_in, V_out = H_in.eigenbasis, H_out.eigenbasis
    n_in = snap_levels(H_in.spectrum, H_in.spectrum[0], tau)
    n_out = snap_levels(H_out.spectrum, H_out.spectrum[0], tau)
    if len(n_in) != ch.d_in or len(n_out) != ch.d_out:
        raise DimMismatchError("Hamiltonian dims do not match the channel")
    Kt = V_out.conj().T @ ch.kraus @ V_in
    grid = n_out[:, None] - n_in[None, :]
    # ascending modes without np.unique, which imports numpy.ma
    lo = grid.min()
    modes = np.flatnonzero(np.bincount((grid - lo).ravel())) + lo
    comps = np.where(grid == modes[:, None, None], Kt[:, None], 0.0)
    keep = np.max(np.abs(comps), axis=(2, 3)) > DEFAULT.pair_cutoff
    return kraus_channel(V_out @ comps[keep] @ V_in.conj().T)


@dataclass(frozen=True)
class MonotonicityReport:
    measure_id: str
    trials: int
    seed: int
    max_violation: float
    worst_trial: int
    violations: int
    alpha: float | None = None


# Trials are drawn, stacked and measured this many at a time, so that
# peak memory does not grow with the trial count.
_BLOCK = 256

# A trial whose measure grows by more than this counts as a violation.
VIOLATION = 1e-8


def _dag(X) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _by_dim(fn, *cols) -> list:
    """fn run once per dimension on stacked items, results per item.

    cols are equal-length sequences of arrays whose last axis is the
    item's dimension; items group by the first column.  fn takes one
    stack per column and returns a tuple of arrays indexed by stack row;
    item i gets the tuple of its rows, in the order of the input.
    """
    groups = {}
    for i, a in enumerate(cols[0]):
        groups.setdefault(a.shape[-1], []).append(i)
    out = [None] * len(cols[0])
    for rows in groups.values():
        res = fn(*(np.stack([c[i] for i in rows]) for c in cols))
        for j, i in enumerate(rows):
            out[i] = tuple(r[j] for r in res)
    return out


def _draw(seed: int, t: int):
    """Trial t's inputs from its own stream (seed, t), in a fixed order:
    dims, then (levels, G) of H_in and of H_out, the state's G, the rank,
    and last the channel."""
    rng = np.random.default_rng([seed, t])
    d_in = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, 5))
    hams = [(rng.integers(0, 4, size=d), _gaussian(rng, d, d))
            for d in (d_in, d_out)]
    G = _gaussian(rng, d_in, d_in)
    rank = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
    return hams, G, random_channel(d_in, d_out, rank, rng)


def _hamiltonians(levels, G):
    """H = Q diag(levels) Q^dag for the phase-fixed Q of each G."""
    Q = _phase_fixed_qr(G)
    return (Q * levels.astype(float)[..., None, :]) @ _dag(Q)


def _densities(G):
    """G G^dag / tr for each G."""
    R = G @ _dag(G)
    return R / np.trace(R, axis1=-2, axis2=-1).real[..., None, None]


def _containers(cls, build, *cols):
    """cls(matrix, spectrum, eigenbasis) per item: the matrices build
    makes of cols stacked by dimension (_by_dim), with the read-only
    eigenpairs of one stacked solve."""
    def solved(*stacks):
        M = build(*stacks)
        w, V = eig_hermitian(M)
        w.flags.writeable = V.flags.writeable = False
        return M, w, V

    return [cls(matrix=M, spectrum=w, eigenbasis=V)
            for M, w, V in _by_dim(solved, *cols)]


def _suite_measure(measure_id: str, alpha: float):
    """values(states, hams): the measure of each DensityMatrix under its
    observable, as floats with inf for an infinite value.

    F, P, W and renyi read each state's cached eigenpairs and run one
    kernel per stack of equal dimension, the kernels the public functions
    call: P and renyi sum over each state's support pairs and give inf
    where the support does not commute with the observable.  The id and
    alpha are checked here, before any trial is drawn.
    """
    if measure_id == "renyi":
        _check_alpha(alpha)
    kernels = {"F": _qfi,
               # coherence_cost is (tau/2pi)^2 F once the state is
               # tau-periodic; at tau = 2pi with integer levels every
               # state is, and the scale is 1, so cost is F
               "cost": _qfi,
               "P": _purity,
               "W": _skew,
               "renyi": partial(_renyi, alpha=alpha)}
    if measure_id not in kernels:
        raise ValidationError(f"unknown measure id {measure_id!r}")
    kernel = kernels[measure_id]

    def stacked(p, V, H):
        return (kernel(p, _dag(V) @ H @ V),)

    return lambda states, hams: [
        float(v) for (v,) in _by_dim(
            stacked, [s.spectrum for s in states],
            [s.eigenbasis for s in states], [h.matrix for h in hams])]


def _gap(v_in: float, v_out: float) -> float:
    """v_out - v_in, 0 when both are infinite; a NaN measure counts as an
    infinite violation."""
    if math.isnan(v_in) or math.isnan(v_out):
        return math.inf
    if v_in == v_out == math.inf:
        return 0.0
    return v_out - v_in


def _block_gaps(measure, seed: int, ts, tau: float):
    """Gaps of the trials ts: drawn one at a time, then stacked by
    dimension into the containers of the Hamiltonians, the states and
    the outputs; only each trial's twirl and apply run alone."""
    draws = [_draw(seed, t) for t in ts]
    levels, Gs = zip(*(h for hams, _, _ in draws for h in hams))
    obs = _containers(HermitianObservable, _hamiltonians, levels, Gs)
    obs_in, obs_out = obs[0::2], obs[1::2]
    rhos = _containers(DensityMatrix, _densities, [G for _, G, _ in draws])
    sigmas = _containers(DensityMatrix, lambda S: S,
                         [apply(twirl(ch, h_in, h_out, tau), rho)
                          for (_, _, ch), rho, h_in, h_out
                          in zip(draws, rhos, obs_in, obs_out)])
    return map(_gap, measure(rhos, obs_in), measure(sigmas, obs_out))


def monotonicity_suite(measure_id: str, trials: int = 100, seed: int = 0,
                       alpha: float = 1.5) -> MonotonicityReport:
    """Monte Carlo check that the measure never grows under twirled
    channels.

    Each trial draws its own RNG stream from (seed, trial) so trials are
    reproducible independently of each other; dims run 2-4 and the input
    state is full rank, keeping all measures finite.  tau is fixed at
    2*pi so integer levels are energies directly.  Trials run in blocks
    of _BLOCK, with their linear algebra stacked by dimension; the
    report is bit for bit what a loop over single trials gives.  A NaN
    measure counts as a violation of size inf.
    """
    tau = 2.0 * math.pi
    measure = _suite_measure(measure_id, alpha)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    worst = -math.inf
    worst_trial = -1
    violations = 0
    for start in range(0, trials, _BLOCK):
        ts = range(start, min(start + _BLOCK, trials))
        for t, gap in zip(ts, _block_gaps(measure, seed, ts, tau)):
            if gap > worst:
                worst = gap
                worst_trial = t
            if gap > VIOLATION:
                violations += 1
    return MonotonicityReport(measure_id=measure_id, trials=trials,
                              seed=seed, max_violation=worst,
                              worst_trial=worst_trial,
                              violations=violations,
                              alpha=alpha if measure_id == "renyi" else None)
