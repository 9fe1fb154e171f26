"""Planning covariant pure-state conversions at the distribution level.

A covariant operation can turn m copies of psi1 into roughly R*m copies of
psi2 exactly when the integer energy distributions can be convolved and
shifted onto each other; the achievable rate is the variance ratio
V(psi1)/V(psi2).  The planner works entirely with those distributions:
it never synthesizes the channel, it certifies how close the conversion
can get (total variation -> fidelity floor 1 - 2*eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT
from .errors import (
    PeriodMismatchError,
    ValidationError,
    ZeroTargetVarianceError,
)
from .clockdist import (
    IntegerDistribution,
    convolve_n,
    extract_distribution,
    occupied_levels,
    shift,
    tv_distance,
)
from .linalg import (HermitianObservable, density_matrix, observable,
                     require_count)
from .measures import energy_variance, qfi
from .purification import coherence_sectors

# best_shift counts two total variations within this of each other as a tie
TIE_WIDTH = 1e-15


@dataclass(frozen=True)
class ConversionPlan:
    """One certified conversion: m copies in, m2 copies out, output
    distribution shifted by k, total-variation error eps."""

    rate: float
    copies_in: int
    copies_out: int
    shift_k: int
    tv_error: float
    fidelity_lower_bound: float


def intrinsic_period(psi, H) -> float:
    """Recurrence time of a pure state from its occupied energy gaps.

    The gaps between the mean energies of the occupied levels (see
    clockdist.occupied_levels) are divided by the smallest gap, and each
    ratio is snapped to a rational (denominator <= max_denominator) only
    to pick a candidate grid: with k the lcm of those denominators, the
    period is the one extract_distribution gives at tau' = 2*pi*k /
    (smallest gap), so snap_levels accepts or rejects the levels in grid
    units and the rule does not depend on the units of H.  0.0 flags an
    energy eigenstate.  IncommensurateSpectrum when a level is off that
    grid.
    """
    H = observable(H)   # one eigensolve serves both reads of H
    energies, _ = occupied_levels(psi, H)
    gaps = energies[1:] - energies[0]
    if not gaps.size:
        return 0.0
    k = math.lcm(*(Fraction(x).limit_denominator(DEFAULT.max_denominator)
                   .denominator for x in (gaps / gaps[0]).tolist()))
    return extract_distribution(psi, H, 2.0 * math.pi * k / gaps[0]).period


def _common_period(psi1, H1, psi2, H2) -> float:
    t1 = intrinsic_period(psi1, H1)
    t2 = intrinsic_period(psi2, H2)
    if t1 <= 0.0 or t2 <= 0.0:
        raise PeriodMismatchError("an energy eigenstate has no period")
    if abs(t1 - t2) > DEFAULT.level_rel * max(t1, t2):
        raise PeriodMismatchError(f"periods differ: {t1:.12g} vs {t2:.12g}")
    return t1


def max_rate(psi1, H1, psi2, H2) -> float:
    """Asymptotically achievable copies of psi2 per copy of psi1:
    the variance ratio V1/V2.  Both states must share a period."""
    H1, H2 = observable(H1), observable(H2)
    v2 = energy_variance(psi2, H2)
    if v2 <= DEFAULT.num:
        raise ZeroTargetVarianceError("target state has no energy spread")
    _common_period(psi1, H1, psi2, H2)
    v1 = energy_variance(psi1, H1)
    return float(v1 / v2)


def _shift_bounds(p: IntegerDistribution, q: IntegerDistribution):
    """LB(k) <= tv(p, shift(q, k)) for the shifts k = k_lo, k_lo + 1, ...
    where the windows overlap (k_lo = p.support_min - q.support_max), and
    a margin that covers the rounding of the cumsums behind it."""
    cp = np.cumsum(p.probs)
    cq = np.concatenate(([0.0], np.cumsum(q.probs)))
    i0 = min(int(np.searchsorted(cp, 0.5 * cp[-1])), len(cp) - 1)
    n = len(cp) + len(cq) - 2
    # F_q(x0 - k), read from cq backwards
    top = p.offset + i0 - q.offset + 1 - (p.support_min - q.support_max)
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
    far by more than TIE_WIDTH.  Every shift not visited has a tv above
    that, so it could neither beat nor tie the minimum.  The visited
    shifts then go through the tie rule in ascending k: a smaller tv by
    more than TIE_WIDTH wins, and ties go to the smaller |k|, then to the
    negative one.
    """
    k_lo = p.support_min - q.support_max
    lb, margin = _shift_bounds(p, q)
    i_min = int(np.argmin(lb))
    best_e = tv_distance(p, shift(q, k_lo + i_min))
    visited = [(k_lo + i_min, best_e)]
    # only the shifts whose bound is within reach of that first tv are
    # sorted, and the full-length bound array is freed before the search
    near = np.flatnonzero(lb - margin <= best_e + TIE_WIDTH)
    lb = lb[near]
    for j in np.argsort(lb, kind="stable"):
        if lb[j] - margin > best_e + TIE_WIDTH:
            break
        if near[j] != i_min:
            k = k_lo + int(near[j])
            e = tv_distance(p, shift(q, k))
            visited.append((k, e))
            best_e = min(best_e, e)
    best_k = None
    best_e = math.inf
    for k, e in sorted(visited):
        better = e < best_e - TIE_WIDTH
        tie = abs(e - best_e) <= TIE_WIDTH
        if better or (tie and (abs(k) < abs(best_k)
                               or (abs(k) == abs(best_k) and k < best_k))):
            best_k, best_e = k, e
    if best_k is None:
        # every tv was NaN (a NaN mass); no shift can be certified
        best_k, best_e = 0, 1.0
    return int(best_k), float(best_e)


def iid_sweep(psi1, H1, psi2, H2, R: float, m_list):
    """Conversion certificates at rate R for each copy count in m_list.

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
    H1, H2 = observable(H1), observable(H2)
    tau = _common_period(psi1, H1, psi2, H2)
    p = extract_distribution(psi1, H1, tau).distribution
    q = extract_distribution(psi2, H2, tau).distribution
    plans = []
    for m in m_list:
        m = require_count(m, "copy counts")
        m2 = -((-r.numerator * m) // r.denominator)   # exact ceil(R m)
        k, eps = best_shift(convolve_n(p, m), convolve_n(q, m2))
        plans.append(ConversionPlan(
            rate=float(R), copies_in=m, copies_out=m2, shift_k=k,
            tv_error=eps, fidelity_lower_bound=max(0.0, 1.0 - 2.0 * eps)))
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
