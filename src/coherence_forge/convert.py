"""Planning covariant pure-state conversions at the distribution level.

Each pure state has one clock (intrinsic_clock): its integer energy
distribution on the grid of its own period.  m copies of psi1 turn into
about R*m copies of psi2 by a covariant operation when the clocks share a
period; R is the ratio V1/V2 of their integer variances, so neither the
period nor the rate depends on the zero or the unit of H.  The planner
takes the clocks, read once per state, and certifies how close a
conversion gets (tv -> fidelity floor 1 - 2*eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT
from .errors import PeriodMismatchError, ValidationError
from .clockdist import (
    IntegerDistribution,
    PeriodicClockState,
    convolve_n,
    extract_distribution,
    occupied_levels,
    shift,
    tv_distance,
)
from .linalg import (HermitianObservable, density_matrix, observable,
                     require_count)
from .measures import qfi
from .purification import coherence_sectors

@dataclass(frozen=True)
class ConversionPlan:
    """One certified conversion: m copies in, m2 copies out, output
    distribution shifted by k, total-variation error eps."""

    copies_in: int
    copies_out: int
    shift_k: int
    tv_error: float
    fidelity_lower_bound: float


def intrinsic_clock(psi, H) -> PeriodicClockState:
    """The clock of a pure state: its integer distribution on the grid
    of its own period.

    The occupied levels' gaps (clockdist.occupied_levels) over the least
    gap are snapped to rationals a/b (b <= max_denominator) only to pick
    a grid: with k the lcm of the b, extract_distribution gives the clock
    at tau' = 2*pi*k / (least gap).  There the levels k*a/b have gcd 1,
    so the period is tau' in any zero or unit of H.  An energy eigenstate
    has period 0.0.  IncommensurateSpectrumError when a level is off
    that grid.
    """
    H = observable(H)   # one eigensolve serves both reads of H
    energies, _ = occupied_levels(psi, H)
    gaps = energies[1:] - energies[0]
    unit = gaps[0] if gaps.size else 1.0   # one level fits any grid
    k = math.lcm(*(Fraction(x).limit_denominator(DEFAULT.max_denominator)
                   .denominator for x in (gaps / unit).tolist()))
    return extract_distribution(psi, H, 2.0 * math.pi * k / unit)


def _common_period(c1: PeriodicClockState, c2: PeriodicClockState) -> None:
    t1, t2 = c1.period, c2.period
    if t1 <= 0.0 or t2 <= 0.0:
        raise PeriodMismatchError("an energy eigenstate has no period")
    if abs(t1 - t2) > DEFAULT.level_rel * max(t1, t2):
        raise PeriodMismatchError(f"periods differ: {t1:.12g} vs {t2:.12g}")


def max_rate(c1: PeriodicClockState, c2: PeriodicClockState) -> float:
    """Asymptotically achievable copies of the state of clock c2 per copy
    of the state of clock c1: the ratio V1/V2 of the two intrinsic clocks'
    integer variances.  Both clocks must share a period, and the target's
    variance must pass num grid units^2."""
    v2 = c2.distribution.variance()
    if v2 <= DEFAULT.num:
        raise ValidationError("target state has no energy spread")
    _common_period(c1, c2)
    return c1.distribution.variance() / v2


def _shift_bounds(p: IntegerDistribution, q: IntegerDistribution):
    """LB(k) <= tv(p, shift(q, k)) for the shifts k = k_lo, k_lo + 1, ...
    where the windows overlap (k_lo = p.offset - q.support_max), and
    a margin that covers the rounding of the cumsums behind it."""
    cp = np.cumsum(p.probs)
    cq = np.concatenate(([0.0], np.cumsum(q.probs)))
    i0 = min(int(np.searchsorted(cp, 0.5 * cp[-1])), len(cp) - 1)
    n = len(cp) + len(cq) - 2
    # F_q(x0 - k), read from cq backwards
    top = p.offset + i0 - q.offset + 1 - (p.offset - q.support_max)
    fq = cq[np.clip(np.arange(top, top - n, -1), 0, len(cq) - 1)]
    lb = np.abs(cp[i0] - fq)                              # |A|
    lb += np.abs(fq + ((cp[-1] - cp[i0]) - cq[-1]))       # |B|
    lb *= 0.5
    mass = float(np.sum(np.abs(p.probs)) + np.sum(np.abs(q.probs)))
    return lb, 8.0 * n * np.finfo(float).eps * mass


def best_shift(p: IntegerDistribution, q: IntegerDistribution):
    """Integer shift k of q minimizing tv(p, shift(q, k)).

    Exact, but evaluates only the shifts that can still win.  With x0 at
    p's median, split the line at x0; the triangle inequality on each half
    gives, for every k at once from one cumsum of each operand,

        LB(k) = (|A| + |B|) / 2 <= tv(p, shift(q, k)),
        A = F_p(x0) - F_q(x0 - k),
        B = (M_p - F_p(x0)) - (M_q - F_q(x0 - k)),

    with F the cumulative mass and M the total mass (neither need be 1).
    Shifts are visited in ascending LB; the search stops at the first k
    whose LB, less a margin for cumsum rounding, exceeds the best tv so
    far by more than that margin.  Every shift not visited has a tv above
    that, so it could neither beat nor tie the minimum.  Two tvs closer
    than the margin are not told apart by rounding, so the visited shifts
    within the margin of the least tv tie: the smallest |k| wins, then
    the negative one.
    """
    k_lo = p.offset - q.support_max
    lb, margin = _shift_bounds(p, q)
    i_min = int(np.argmin(lb))
    best_e = tv_distance(p, shift(q, k_lo + i_min))
    visited = [(k_lo + i_min, best_e)]
    # only the shifts whose bound is within reach of that first tv are
    # sorted, and the full-length bound array is freed before the search
    near = np.flatnonzero(lb - margin <= best_e + margin)
    lb = lb[near]
    for j in np.argsort(lb, kind="stable"):
        if lb[j] - margin > best_e + margin:
            break
        if near[j] != i_min:
            k = k_lo + int(near[j])
            e = tv_distance(p, shift(q, k))
            visited.append((k, e))
            best_e = min(best_e, e)
    # every tv is NaN for a NaN mass, and then no shift can be certified
    best_k, best_e = min(
        ((k, e) for k, e in visited if e <= best_e + margin),
        key=lambda ke: (abs(ke[0]), ke[0]), default=(0, 1.0))
    return int(best_k), float(best_e)


def iid_sweep(c1, c2, R: float, m_list):
    """Conversion certificates at rate R for each copy count in m_list,
    from intrinsic clock c1 into intrinsic clock c2.

    For each m the planner compares the m-fold convolution of the input
    distribution against the ceil(R*m)-fold convolution of the target
    (R snapped to a rational first so the ceiling never flickers at
    representable boundaries).
    """
    if not 0 < R < math.inf:
        raise ValidationError(f"rate must be positive and finite, got {R}")
    r = Fraction(R).limit_denominator(DEFAULT.max_denominator)
    if r == 0:
        raise ValidationError(f"rate {R} snaps to 0 at denominator "
                              f"<= {DEFAULT.max_denominator}")
    _common_period(c1, c2)
    p, q = c1.distribution, c2.distribution
    plans = []
    for m in m_list:
        m = require_count(m, "copy counts")
        m2 = -((-r.numerator * m) // r.denominator)   # exact ceil(R m)
        k, eps = best_shift(convolve_n(p, m), convolve_n(q, m2))
        plans.append(ConversionPlan(
            copies_in=m, copies_out=m2, shift_k=k, tv_error=eps,
            fidelity_lower_bound=max(0.0, 1.0 - 2.0 * eps)))
    return plans


def coherence_cost(rho, H, tau: float) -> float:
    """Asymptotic cost of forming rho, in units of the reference two-level
    state of period tau: (tau/2pi)^2 * qfi(rho, H).

    rho must be tau-periodic (every coherence gap an integer multiple of
    2*pi/tau); incoherent states pass trivially with cost 0.
    """
    rho, H = density_matrix(rho), observable(H)
    coherence_sectors(rho, H, tau)   # raises PeriodMismatch if not
    # F under the grid-unit Hamiltonian s H, whose eigenpairs are H's
    # scaled by s > 0; s^2 F would overflow to inf and F underflow to 0
    # at a large tau
    s = tau / (2.0 * math.pi)
    return qfi(rho, HermitianObservable(matrix=s * H.matrix,
                                        spectrum=s * H.spectrum,
                                        eigenbasis=H.eigenbasis))
