"""Integer energy distributions of periodic states and their limit shapes.

A pure state that returns to itself after time tau occupies energy levels
2*pi*n/tau (up to a reference shift); its physics under covariant
operations is captured by the integer distribution p(n) of those
occupations.  This module extracts that distribution, convolves it
(many-copy statistics), compares it in total variation to a translated
Poisson approximant, and evaluates the quantitative approximation bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import (
    GcdNotOneError,
    IncommensurateSpectrumError,
    SearchExhaustedError,
    ValidationError,
)
from .linalg import (level_labels, observable, pure_state, require_count,
                     require_same_dim)

# np.convolve is direct, O(W^2) in the window W: the last squaring at
# W = 2**17 takes about 1.2 s on one Xeon core, at 2**18 about 6 s.  2**17
# admits the 112k-entry windows of a 16384-copy conversion sweep at 1.1x
# the u023 -> cbit rate.  extract_distribution holds its level window to
# the same budget, so a near-degenerate level pair cannot make it build
# an array of millions of entries that no convolution could take.
MAX_CONV_WINDOW = 2**17

# sqrt of the smallest normal float, 2.0 ** -511: _convolve zeroes masses
# below it, so that the product of two kept masses is never subnormal
TINY = math.sqrt(np.finfo(float).tiny)

# overlap_copy_count gives up after this many copies
MAX_OVERLAP_COPIES = 64


@dataclass(frozen=True)
class IntegerDistribution:
    """Probability mass function on a contiguous integer window.

    probs[i] is the mass at integer offset + i.
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def support_max(self) -> int:
        return self.offset + len(self.probs) - 1

    def mean(self) -> float:
        n = self.offset + np.arange(len(self.probs))
        return float(np.sum(n * self.probs))

    def variance(self) -> float:
        n = self.offset + np.arange(len(self.probs))
        m = np.sum(n * self.probs)
        return float(np.sum((n - m) ** 2 * self.probs))


def integer_distribution(offset: int, probs) -> IntegerDistribution:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError("probs must be a nonempty 1-D array")
    if not np.all(np.isfinite(probs)):
        raise ValidationError("masses must be finite")
    if np.min(probs) < -DEFAULT.prob:
        raise ValidationError(f"negative mass {np.min(probs):.3e}")
    total = float(np.sum(probs))
    if abs(total - 1.0) > DEFAULT.prob:
        raise ValidationError(f"mass sums to {total:.15f}, expected 1")
    return IntegerDistribution(offset=int(offset),
                               probs=np.clip(probs, 0.0, None))


@dataclass(frozen=True)
class PeriodicClockState:
    """The integer energy occupation data of a pure state.

    distribution puts the lowest occupied level at 0; period is the
    reference period tau divided by the gcd of the occupied levels (0.0
    flags an energy eigenstate, which never moves).
    """

    distribution: IntegerDistribution
    period: float


def check_tau(tau: float) -> None:
    """ValidationError unless the reference period tau is positive and
    finite."""
    if not 0 < tau < math.inf:   # NaN fails too
        raise ValidationError(f"tau must be positive and finite, got {tau}")


def snap_levels(energies, ref, tau: float) -> np.ndarray:
    """Integer levels n with energies = ref + (2*pi/tau) * n.

    tau goes through check_tau, which every library tau reaches here.
    Each energy must lie within 2**53 grid units of ref (the integers a
    float holds), else ValidationError, and within level_rel grid units
    of its integer, else IncommensurateSpectrumError.  The op is
    element-wise: energies may be a stack of spectra and ref an array
    that broadcasts against it, and each entry gets the bits it gets alone.
    """
    check_tau(tau)
    with np.errstate(over="ignore"):   # an overflow is inf, refused below
        x = (np.asarray(energies, dtype=float) - ref) / (2.0 * math.pi / tau)
    if not (np.abs(x) <= 2.0 ** 53).all():   # NaN fails too
        raise ValidationError("an energy lies past 2**53 grid units")
    n = np.rint(x)
    off = np.abs(x - n) > DEFAULT.level_rel
    if np.any(off):
        raise IncommensurateSpectrumError(
            f"level offset {x[off][0]:.12g} grid units from integer"
        )
    return n.astype(int)


def occupied_levels(psi, H):
    """(mean energies, masses) of the levels of H that psi occupies.

    Levels follow level_labels at gap_cutoff; a level is occupied when
    psi puts more than prob of its weight on it.  Energies ascend.
    """
    psi, H = pure_state(psi), observable(H)
    w, V = H.spectrum, H.eigenbasis
    require_same_dim(psi.dim, w.size)
    lab = level_labels(w)
    mass = np.bincount(lab, weights=np.abs(V.conj().T @ psi.vector) ** 2)
    energy = np.bincount(lab, weights=w) / np.bincount(lab)
    occ = mass > DEFAULT.prob
    return energy[occ], mass[occ]


def extract_distribution(psi, H, tau: float) -> PeriodicClockState:
    """Integer energy distribution of psi under H for reference period tau.

    Occupied levels must sit on the grid E_min + (2*pi/tau) * n within
    level_rel grid units, else IncommensurateSpectrum.  The lowest occupied
    level maps to n = 0.  psi and H are coerced by occupied_levels, which
    reads H's spectrum through one cached eigensolve.  ValidationError
    when the levels span more than MAX_CONV_WINDOW integers.
    """
    energies, masses = occupied_levels(psi, H)
    ns = snap_levels(energies, energies[0], tau).tolist()
    if ns[-1] >= MAX_CONV_WINDOW:
        raise ValidationError(f"occupied levels span {ns[-1] + 1} integers, "
                              f"above the budget of {MAX_CONV_WINDOW}")
    probs = np.bincount(ns, weights=masses)
    dist = integer_distribution(0, probs / probs.sum())
    g = math.gcd(*ns)
    per = 0.0 if g == 0 else float(tau / g)
    return PeriodicClockState(distribution=dist, period=per)


def shift(p: IntegerDistribution, k: int) -> IntegerDistribution:
    return IntegerDistribution(offset=p.offset + int(k), probs=p.probs)


def _convolve(p: IntegerDistribution,
              q: IntegerDistribution) -> IntegerDistribution:
    # masses below TINY go to 0 at unchanged lengths, so np.convolve
    # groups its sums as before and forms no subnormal product
    a = np.where(p.probs < TINY, 0.0, p.probs)
    b = a if q is p else np.where(q.probs < TINY, 0.0, q.probs)
    return IntegerDistribution(offset=p.offset + q.offset,
                               probs=np.convolve(a, b))


def convolve_n(p: IntegerDistribution, m: int) -> IntegerDistribution:
    """m-fold convolution by repeated squaring.  ValidationError, before
    any convolution, when the result window passes MAX_CONV_WINDOW.

    Each convolution first sets the masses below TINY in both operands to
    0, so no product of two kept masses is subnormal; the windows keep
    their lengths.  Over operands of widths W_a and W_b that moves the
    result by at most (W_a + W_b) * TINY in L1.  A later squaring doubles
    the deviation its operand carries, but that operand is half as wide,
    so each of the at most 2 log2(m) convolutions adds at most 2 W * TINY
    to the result's deviation, W the result's window.  The result thus
    stays within 4 log2(m) * W * TINY of the unflushed convolution in L1:
    below 2e-147 for every window MAX_CONV_WINDOW admits, far under the
    rounding of about W * eps that tv_distance already carries.
    """
    m = require_count(m, "m")
    window = m * (len(p.probs) - 1) + 1
    if window > MAX_CONV_WINDOW:
        raise ValidationError(f"{m}-fold convolution needs a window of "
                              f"{window} entries, above the budget of "
                              f"{MAX_CONV_WINDOW}")
    result = None
    base = p
    k = m
    while k:
        if k & 1:
            result = base if result is None else _convolve(result, base)
        k >>= 1
        if k:
            base = _convolve(base, base)
    return result


def tv_distance(p: IntegerDistribution, q: IntegerDistribution) -> float:
    """Total variation distance, windows aligned by their offsets."""
    lo = min(p.offset, q.offset)
    hi = max(p.support_max, q.support_max)
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[p.offset - lo: p.offset - lo + len(p.probs)] = p.probs
    b[q.offset - lo: q.offset - lo + len(q.probs)] = q.probs
    return float(0.5 * np.sum(np.abs(a - b)))


def overlap_copy_count(p: IntegerDistribution) -> int:
    """Copies needed before the convolution power can straddle a unit step.

    Writes 1 as a signed combination of the support offsets (integers
    with mass above prob, relative to the lowest of them) with as few
    terms as possible; that term count L certifies that p^{*L} and its
    unit shift share support, hence tv(p^{*L}, shift) < 1.  Found by
    breadth-first search over partial sums.  GcdNotOne when no
    combination exists (support gcd > 1); SearchExhausted when
    MAX_OVERLAP_COPIES copies do not suffice.
    """
    sup = np.flatnonzero(p.probs > DEFAULT.prob)
    offs = sorted({int(n - sup[0]) for n in sup} - {0})
    if not offs:
        raise GcdNotOneError("point mass never overlaps its shift")
    g = math.gcd(*offs)
    if g != 1:
        raise GcdNotOneError(f"support offsets share factor {g}")
    steps = offs + [-d for d in offs]
    frontier = {0}
    seen = {0}
    bound = max(offs) * (MAX_OVERLAP_COPIES + 1)
    for level in range(1, MAX_OVERLAP_COPIES + 1):
        nxt = set()
        for x in frontier:
            for s in steps:
                y = x + s
                if y == 1:
                    return level
                if abs(y) <= bound and y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    raise SearchExhaustedError(
        f"no combination within {MAX_OVERLAP_COPIES} copies")


def _poisson_window(lam: float):
    """Poisson(lam) pmf over a window whose discarded tails perturb the
    mean and variance by less than tail_eps.  Returns (k_lo, probs)."""
    if lam <= 0.0:
        return 0, np.array([1.0])
    half = int(20.0 * math.sqrt(lam) + 30.0)
    k0, k1 = max(0, int(lam) - half), int(lam) + half + 1
    ks = np.arange(k0, k1)
    pmf = np.exp(ks * math.log(lam) - lam
                 - np.fromiter(map(math.lgamma, range(k0 + 1, k1 + 1)),
                               float, k1 - k0))
    # trim each tail while its mean/variance impact stays under budget
    weight = pmf * (1.0 + np.abs(ks - lam) + (ks - lam) ** 2)
    budget = DEFAULT.tail_eps / 2.0
    lo = min(int(np.searchsorted(np.cumsum(weight), budget)), len(pmf) - 1)
    hi = max(len(pmf) - 1
             - int(np.searchsorted(np.cumsum(weight[::-1]), budget)), lo)
    return int(ks[lo]), pmf[lo: hi + 1]


def translated_poisson(mu: float, sigma2: float) -> IntegerDistribution:
    """TP(mu, sigma2): Z = s + Poisson(sigma2 + gamma) with s = floor(mu -
    sigma2) and gamma the leftover fraction, so the mean is exactly mu and
    the variance lands in [sigma2, sigma2 + 1); returned as its
    tail-truncated window."""
    if sigma2 < 0:
        raise ValidationError(f"sigma2 must be >= 0, got {sigma2}")
    s = math.floor(mu - sigma2)
    gamma = mu - sigma2 - s
    lam = sigma2 + gamma
    k_lo, pmf = _poisson_window(lam)
    return IntegerDistribution(offset=s + k_lo, probs=pmf)


def barbour_bound(p: IntegerDistribution, m: int) -> float:
    """Total-variation bound between p^{*m} and TP(m mu, m var):
    c / sqrt(m nu - 1/2) + 2 / (m sqrt(var)), with c = phi / var,

        phi = E[X(X-1)] + (|mu - var|/var) E[(X-1)(X-2)] + E|X(X-1)(X-2)|/var,
        nu = min(1/2, 1 - tv(p, p shifted by 1)).

    math.inf (the bound is vacuous) when the variance is zero or
    m nu <= 1/2, which covers a p disjoint from its unit shift (nu = 0).
    """
    m = require_count(m, "m")
    var = p.variance()
    if var < DEFAULT.prob:
        return math.inf
    nu = min(0.5, 1.0 - tv_distance(p, shift(p, 1)))
    if m * nu - 0.5 <= 0.0:
        return math.inf
    mu = p.mean()
    n = p.offset + np.arange(len(p.probs))
    e_ff = float(np.sum(p.probs * n * (n - 1)))
    e_gg = float(np.sum(p.probs * (n - 1) * (n - 2)))
    e_abs = float(np.sum(p.probs * np.abs(n * (n - 1) * (n - 2))))
    phi = e_ff + abs(mu - var) / var * e_gg + e_abs / var
    return phi / var / math.sqrt(m * nu - 0.5) + 2.0 / (m * math.sqrt(var))


def tp_distance(p: IntegerDistribution, m: int,
                conv: IntegerDistribution) -> float:
    """tv(conv, TP(m mu, m var)) for conv = convolve_n(p, m), which the
    caller already holds: the quantity barbour_bound dominates."""
    m = require_count(m, "m")
    return tv_distance(conv,
                       translated_poisson(m * p.mean(), m * p.variance()))
