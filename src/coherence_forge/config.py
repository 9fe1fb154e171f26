"""Centralized numerical tolerances.

The cutoffs that judge inputs and decide what counts as "zero" are
fields of DEFAULT, which every function reads directly, so tests and the
CLI agree on them.  All values are absolute unless the name says
otherwise, save herm and recon: eig_hermitian scales both by the
matrix's own max|M_ij|, so an operator in any units is judged alike.  The
other values assume desk-scale inputs (matrix entries O(1), dimensions
in the tens).  Every field is read by the package itself; a cutoff that
only a test's reference implementation needs lives with that test.

convert.best_shift has no tie width of its own: two total variations
within the rounding margin of its cumsum bounds count as tied.  A few
algorithm constants stay in the module whose algorithm they tune:
channels.VIOLATION (1e-8, the growth the monotonicity suite counts as a
violation), the distill SDP's barrier schedule (distill.BARRIER_FACTOR,
0.05, the step of the barrier weight as each stage but the last ends;
distill.CENTRING_DECREMENT, the lambda^2 <= 1 that ends those stages;
and the Newton decrement of 1e-13 x max(1, tr tau) that ends the last: a
stage ends by these rules alone, and sdp_max_newton bounds the steps of
the one loop over all stages), clockdist.TINY (2**-511, the square root
of the smallest normal float: convolve_n zeroes masses below it, so no
product is subnormal), and the size budgets clockdist.MAX_CONV_WINDOW,
clockdist.MAX_OVERLAP_COPIES, distill.MAX_OMEGA_SIDE,
distill.MAX_SDP_PARAMS and distill.MAX_NEWTON_TERMS.  linalg.MAX_ENTRY
(1e150) is the largest entry magnitude eig_hermitian accepts, since the
measures and the purification square the energies.  The acceptance
criteria carry their own pass thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Hermiticity / state validation
    herm: float = 1e-10          # max |M - M^dag| entry, x max|M|
    trace: float = 1e-10         # |tr(rho) - 1|
    psd: float = 1e-10           # eigenvalues >= -psd
    norm: float = 1e-10          # | ||v|| - 1 | for pure states
    recon: float = 1e-10         # reconstruction residual, x max|M|

    # Spectral cutoffs
    rank_cutoff: float = 1e-10   # eigenvalue counts toward the support
    pair_cutoff: float = 1e-14   # p_j + p_k below this: pair skipped
    gap_cutoff: float = 1e-8     # steps below this link values into a level
    commute: float = 1e-9        # ||[Pi, H]||_F, Pi the support projector

    # Probability distributions
    prob: float = 1e-12          # weight renormalization / negativity slack
    tail_eps: float = 1e-12      # truncation mass for infinite supports

    # Integer-spectrum extraction: |E*tau/(2pi) - nearest int| allowed,
    # in units of 2pi/tau
    level_rel: float = 1e-9

    # Finite-difference QFI
    fd_step: float = 1e-3

    # Channel and basis unitarity check
    cptp: float = 1e-10          # |sum K^dag K - I| entry (B B^dag of a basis)

    # Semidefinite solver
    sdp_gap: float = 1e-7        # primal-dual gap target
    sdp_feas: float = 1e-9       # dual marginal feasibility residual
    sdp_max_newton: int = 500    # Newton steps, all stages of a solve

    # Generic numeric slack for identities that hold exactly in theory
    num: float = 1e-9

    # Rational snapping of gap ratios and rates
    max_denominator: int = 10**6


DEFAULT = Tolerances()
