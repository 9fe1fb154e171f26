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
from .linalg import density_matrix, eig_hermitian, observable, require_count
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
    _require_cptp([K])
    K.setflags(write=False)
    return KrausChannel(kraus=K)


def _require_cptp(kraus) -> None:
    """ValidationError unless sum_k K^dag K = I within cptp for every
    (rank, d_out, d_in) Kraus array in kraus.  The Grams M^dag M of their
    (rank * d_out) x d_in isometries M are held to I in one stack,
    zero-padded per d_in, which stays small however many operators a
    twirl leaves."""
    d_in = np.array([K.shape[2] for K in kraus])
    gram = np.zeros((len(kraus), d_in.max(), d_in.max()), dtype=complex)
    for g, K, d in zip(gram, kraus, d_in):
        M = K.reshape(-1, d)
        g[:d, :d] = M.conj().T @ M
    eye = np.eye(gram.shape[2]) * (np.arange(gram.shape[2])
                                   < d_in[:, None, None])
    resid = np.max(np.abs(gram - eye))
    if not resid <= DEFAULT.cptp:   # NaN fails too
        raise ValidationError(f"sum K^dag K misses identity by {resid:.3e}")


def _phase_fixed_qr(G) -> np.ndarray:
    """Q of G = QR with R's diagonal rotated to be real positive, so Q is
    a deterministic function of G (and Haar for a complex Gaussian G).
    G may be a stack (..., m, n)."""
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    phase = np.divide(diag, mag, out=np.ones_like(diag), where=mag > 0)
    return Q * phase.conj()[..., None, :]


def _gaussian(rng, m: int, n: int) -> np.ndarray:
    """m x n complex Gaussian, real part drawn first."""
    z = np.empty((m, n), dtype=complex)
    z.real = rng.normal(size=(m, n))
    z.imag = rng.normal(size=(m, n))
    return z


def _random_kraus(d_in: int, d_out: int, rank: int, rng) -> np.ndarray:
    """Unvalidated Kraus array of random_channel, drawn from rng."""
    if rank < 1 or rank > d_in * d_out:
        raise ValidationError(f"rank must be in [1, {d_in * d_out}]")
    if rank * d_out < d_in:
        raise ValidationError(
            f"rank {rank} too small: need rank*d_out >= d_in"
        )
    G = _gaussian(rng, rank * d_out, d_in)
    return _phase_fixed_qr(G).reshape(rank, d_out, d_in)


def random_channel(d_in: int, d_out: int, rank: int, seed) -> KrausChannel:
    """Seeded random CPTP map via a QR-orthonormalized Gaussian isometry.

    rank Kraus operators of shape d_out x d_in require rank * d_out >= d_in
    for trace preservation.
    """
    return kraus_channel(
        _random_kraus(d_in, d_out, rank, np.random.default_rng(seed)))


def _apply(K, rho) -> np.ndarray:
    """sum_k K rho K^dag for the Kraus array K and the plain matrix rho."""
    if rho.shape[0] != K.shape[2]:
        raise DimMismatchError(
            f"state dim {rho.shape[0]} != channel input dim {K.shape[2]}"
        )
    return np.sum(K @ rho @ K.conj().transpose(0, 2, 1), axis=0)


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Channel output sum_k K rho K^dag as a plain density matrix; rho
    goes through density_matrix."""
    return _apply(ch.kraus, density_matrix(rho).matrix)


def _twirl(K, V_in, n_in, V_out, n_out) -> np.ndarray:
    """Unvalidated Kraus array of the twirl of K, for the eigenbases V and
    the snapped integer levels n of H_in and H_out."""
    if len(n_in) != K.shape[2] or len(n_out) != K.shape[1]:
        raise DimMismatchError("Hamiltonian dims do not match the channel")
    Kt = V_out.conj().T @ K @ V_in
    grid = n_out[:, None] - n_in[None, :]
    # ascending modes without np.unique, which imports numpy.ma
    modes = np.array(sorted(set(grid.ravel().tolist())))
    comps = np.where(grid == modes[:, None, None], Kt[:, None], 0.0)
    keep = np.max(np.abs(comps), axis=(2, 3)) > DEFAULT.pair_cutoff
    return V_out @ comps[keep] @ V_in.conj().T


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
    n_in = snap_levels(H_in.spectrum, H_in.spectrum[0], tau)
    n_out = snap_levels(H_out.spectrum, H_out.spectrum[0], tau)
    return kraus_channel(_twirl(ch.kraus, H_in.eigenbasis, n_in,
                                H_out.eigenbasis, n_out))


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
        res = fn(*(np.array([c[i] for i in rows]) for c in cols))
        for i, item in zip(rows, zip(*res)):
            out[i] = item
    return out


def _hamiltonians(levels, G):
    """H = Q diag(levels) Q^dag for the phase-fixed Q of each G."""
    Q = _phase_fixed_qr(G)
    return (Q * levels.astype(float)[..., None, :]) @ _dag(Q)


def _densities(G):
    """G G^dag / tr for each G."""
    R = G @ _dag(G)
    return R / np.trace(R, axis1=-2, axis2=-1).real[..., None, None]


def _suite_measure(measure_id: str, alpha: float):
    """The stacked kernel (p, A) of the measure id, the one the public
    function calls: P and renyi sum over each state's support pairs and
    give inf where the support does not commute with the observable.
    The id and alpha are checked here, before any trial is drawn.
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
    return kernels[measure_id]


def _measured(kernel, H, R):
    """(R, kernel values) for a stack of states R under the stacked
    observables H, read off one stacked eigensolve of R."""
    p, V = eig_hermitian(R)
    return R, kernel(p, _dag(V) @ H @ V)


def _gap(v_in: float, v_out: float) -> float:
    """v_out - v_in, 0 when both are infinite; a NaN measure counts as an
    infinite violation."""
    if math.isnan(v_in) or math.isnan(v_out):
        return math.inf
    if v_in == v_out == math.inf:
        return 0.0
    return v_out - v_in


def _block_gaps(kernel, seed: int, ts, tau: float):
    """Gaps of the trials ts.  Each trial draws from its own stream
    (seed, t) in a fixed order: dims, then (levels, G) of H_in and of
    H_out, the state's G, the rank, and last the channel.  Each stack of
    equal dimension is built, solved and snapped or measured in one
    _by_dim pass: the Hamiltonians, the input states with their H_in,
    and the outputs with their H_out."""
    hams, Gs, kraus = [], [], []
    for t in ts:
        rng = np.random.default_rng([seed, t])
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        hams += [(rng.integers(0, 4, size=d), _gaussian(rng, d, d))
                 for d in (d_in, d_out)]
        Gs.append(_gaussian(rng, d_in, d_in))
        rank = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        kraus.append(_random_kraus(d_in, d_out, rank, rng))
    _require_cptp(kraus)

    def solved(levels, G):
        H = _hamiltonians(levels, G)
        w, V = eig_hermitian(H)
        return H, V, snap_levels(w, w[:, :1], tau)

    H, V, n = zip(*_by_dim(solved, *zip(*hams)))
    kraus = [_twirl(*args) for args
             in zip(kraus, V[0::2], n[0::2], V[1::2], n[1::2])]
    _require_cptp(kraus)
    measured = partial(_measured, kernel)
    rhos, v_in = zip(*_by_dim(lambda Hs, G: measured(Hs, _densities(G)),
                              H[0::2], Gs))
    _, v_out = zip(*_by_dim(measured, H[1::2],
                            [_apply(K, r) for K, r in zip(kraus, rhos)]))
    return (_gap(float(a), float(b)) for a, b in zip(v_in, v_out))


def monotonicity_suite(measure_id: str, trials: int = 100, seed: int = 0,
                       alpha: float = 1.5) -> MonotonicityReport:
    """Monte Carlo check that the measure never grows under twirled
    channels.

    Each trial draws its own RNG stream from (seed, trial) so trials are
    reproducible independently of each other; dims run 2-4 and the input
    state is full rank, keeping all measures finite.  tau is fixed at
    2*pi so integer levels are energies directly.  Trials run in blocks
    of _BLOCK, with their linear algebra stacked by dimension: each
    stack is built, solved and snapped or measured in one pass.  A block
    checks its random channels and its twirled ones CPTP in one stacked
    call each, so only each trial's draws, QR, twirl and apply
    arithmetic run alone, in the cores that random_channel, twirl and
    apply call.  Every check of those public calls is made, and the
    report is bit for bit what a loop over single trials gives.  A NaN
    measure counts as a violation of size inf.
    """
    tau = 2.0 * math.pi
    kernel = _suite_measure(measure_id, alpha)
    trials = require_count(trials, "trials")
    worst = -math.inf
    worst_trial = -1
    violations = 0
    for start in range(0, trials, _BLOCK):
        ts = range(start, min(start + _BLOCK, trials))
        for t, gap in zip(ts, _block_gaps(kernel, seed, ts, tau)):
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
