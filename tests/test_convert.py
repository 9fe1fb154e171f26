import math
from fractions import Fraction

import numpy as np
import pytest

from coherence_forge import convert
from coherence_forge.clockdist import (
    IntegerDistribution,
    convolve_n,
    integer_distribution,
    occupied_levels,
    shift,
    tv_distance,
)
from coherence_forge.config import DEFAULT
from coherence_forge.convert import (
    best_shift,
    coherence_cost,
    intrinsic_clock,
    iid_sweep,
    max_rate,
)
from coherence_forge.errors import (
    IncommensurateSpectrumError,
    PeriodMismatchError,
    ValidationError,
)
from coherence_forge.linalg import HermitianObservable

TAU = 2 * math.pi
# reference two-level state: H = pi/tau sigma_z, state (|0> + |1>)/sqrt(2)
H_CBIT = np.diag([math.pi / TAU, -math.pi / TAU])
CBIT = np.array([1.0, 1.0]) / math.sqrt(2)
# uniform superposition on levels {0, 2, 3} of a four-level ladder
H4 = np.diag([0.0, 1.0, 2.0, 3.0])
U023 = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3)
# their clocks, the operands of max_rate and iid_sweep
C_CBIT, C_U023 = intrinsic_clock(CBIT, H_CBIT), intrinsic_clock(U023, H4)


def test_intrinsic_period():
    assert abs(intrinsic_clock(CBIT, H_CBIT).period - TAU) < 1e-9
    assert intrinsic_clock(np.array([1.0, 0.0]), H_CBIT).period == 0.0
    psi02 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    assert abs(intrinsic_clock(psi02, np.diag([0.0, 1.0, 2.0])).period
               - math.pi) < 1e-9
    # a lone gap is commensurate with itself, whatever its value
    gap = math.sqrt(2.0)
    assert abs(intrinsic_clock(CBIT, np.diag([0.0, gap])).period
               - TAU / gap) < 1e-8
    # a second gap that no denominator <= 1e6 can hit must be rejected
    psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    with pytest.raises(IncommensurateSpectrumError):
        intrinsic_clock(psi, np.diag([0.0, 1.0, 1.0 + 5e-7])).period


def _rational_period(psi, H, tols=DEFAULT):
    """Reference: the rational rule, which snaps each gap to a rational
    with the absolute slack level_rel * max(1, |gap|) and takes 2*pi over
    the rationals' gcd."""
    energies, _ = occupied_levels(psi, H)
    gaps = (energies[1:] - energies[0]).tolist()
    if not gaps:
        return 0.0
    fracs = [Fraction(x).limit_denominator(tols.max_denominator)
             for x in gaps]
    for gap, f in zip(gaps, fracs):
        if abs(gap - float(f)) > tols.level_rel * max(1.0, abs(gap)):
            raise IncommensurateSpectrumError(gap)
    den = math.lcm(*(f.denominator for f in fracs))
    num = math.gcd(*(f.numerator * (den // f.denominator) for f in fracs))
    return 2.0 * math.pi / float(Fraction(num, den))


def test_intrinsic_period_matches_rational_reference():
    # rotated integer-level states at scales where the rational rule
    # holds: the grid rule must give the same periods
    rng = np.random.default_rng(101)
    scales = (1.0, 0.5, 2.0 / 3.0, 3.0, 1.0 / 7.0)
    for i in range(400):
        d = int(rng.integers(2, 7))
        levels = rng.integers(-5, 21, size=d).astype(float)
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B, _ = np.linalg.qr(G)
        H = scales[i % 5] * (B * levels) @ B.conj().T
        amp = rng.normal(size=d) * (rng.random(d) < 0.7)
        amp[int(rng.integers(d))] += 1.0
        psi = B @ (amp / np.linalg.norm(amp))
        ref = _rational_period(psi, H)
        got = intrinsic_clock(psi, H).period
        assert abs(got - ref) <= 1e-12 * ref, (i, got, ref)


@pytest.mark.parametrize("s", [1e-7, math.sqrt(2), math.pi, 1e6])
def test_intrinsic_period_is_scale_free(s):
    # a rule with an absolute slack per gap refuses 1e-7, and gives u023
    # at sqrt(2) or pi a period near 1.2e12 * 2*pi
    for psi, H in ((CBIT, np.diag([0.0, 1.0])), (U023, H4)):
        assert abs(intrinsic_clock(psi, s * H).period * s / TAU - 1.0) < 1e-12


def test_intrinsic_period_rejects_irrational_gap_ratio():
    # 1 + sqrt(2) is irrational, yet a denominator of 665857 hits it
    # within an absolute slack of 1e-9
    psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    with pytest.raises(IncommensurateSpectrumError):
        intrinsic_clock(psi, np.diag([0.0, 1.0, 1.0 + math.sqrt(2)])).period


def test_intrinsic_period_refuses_a_grid_wider_than_the_budget():
    # gaps 2**-18 and 1 put the levels at 0, 1 and 2**18 on the grid
    psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    with pytest.raises(ValidationError):
        intrinsic_clock(psi, np.diag([0.0, 2.0 ** -18, 1.0])).period


def test_plain_hamiltonians_are_eigendecomposed_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(M, *args, **kwargs):
        calls.append(len(M))
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    intrinsic_clock(U023, H4).period
    assert len(calls) == 1
    calls.clear()
    # one solve per Hamiltonian serves both its period and its distribution
    c1, c2 = intrinsic_clock(U023, H4), intrinsic_clock(CBIT, H_CBIT)
    assert calls == [4, 2]
    calls.clear()
    # and the planner reads the clocks, never a Hamiltonian
    iid_sweep(c1, c2, 5.0, (4,))
    max_rate(c1, c2)
    assert calls == []


def test_max_rate_reference_values():
    assert abs(max_rate(C_CBIT, C_CBIT) - 1.0) < 1e-12
    assert type(max_rate(C_CBIT, C_CBIT)) is float
    assert abs(max_rate(C_U023, C_CBIT) - 56.0 / 9.0) < 1e-9
    assert abs(max_rate(C_CBIT, C_U023) - 9.0 / 56.0) < 1e-9


def test_max_rate_rejects_period_mismatch():
    psi02 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    with pytest.raises(PeriodMismatchError):
        max_rate(intrinsic_clock(psi02, np.diag([0.0, 1.0, 2.0])), C_CBIT)
    with pytest.raises(ValidationError,
                       match="target state has no energy spread"):
        max_rate(C_CBIT, intrinsic_clock(np.array([1.0, 0.0]), H_CBIT))
    with pytest.raises(PeriodMismatchError):
        max_rate(intrinsic_clock(np.array([1.0, 0.0]), H_CBIT), C_CBIT)


def _levels_observable(levels, B):
    """The observable a levels-form file builds: its spectrum exactly the
    levels, its eigenbasis the columns of B."""
    levels = np.asarray(levels, dtype=float)
    return HermitianObservable((B * levels) @ B.conj().T, levels, B)


@pytest.mark.parametrize("basis", ["identity", "random"])
def test_max_rate_does_not_move_with_the_zero_or_the_unit(basis):
    # u023 -> |+> on levels scaled by 1e-6, 1 and 1e6 and moved by 1e8:
    # the clocks are the same, so the rate is the same to the bit
    rng = np.random.default_rng(54)
    B4, B2 = np.eye(4, dtype=complex), np.eye(2, dtype=complex)
    if basis == "random":
        B4, B2 = (np.linalg.qr(rng.normal(size=(d, d))
                               + 1j * rng.normal(size=(d, d)))[0]
                  for d in (4, 2))
    rates = [max_rate(
        intrinsic_clock(B4 @ U023, _levels_observable(f(np.arange(4.0)), B4)),
        intrinsic_clock(B2 @ CBIT, _levels_observable(f(np.arange(2.0)), B2)))
        for f in (lambda n: 1e-6 * n, lambda n: n, lambda n: 1e6 * n,
                  lambda n: n + 1e8)]
    assert rates == [rates[1]] * 4
    assert abs(rates[1] - 56.0 / 9.0) < 1e-12


def test_sweep_and_rate_extract_each_clock_once(monkeypatch):
    # the planner reads only the clocks it is given
    def refused(*args):
        raise AssertionError("the planner read a state")

    monkeypatch.setattr(convert, "extract_distribution", refused)
    monkeypatch.setattr(convert, "occupied_levels", refused)
    assert iid_sweep(C_U023, C_CBIT, 5.0, (4,)) == [convert.ConversionPlan(
        copies_in=4, copies_out=20, shift_k=-3, tv_error=0.09931100445029181,
        fidelity_lower_bound=0.8013779910994163)]
    assert max_rate(C_U023, C_CBIT) == 6.222222222222223


def test_best_shift():
    p = integer_distribution(0, [0.5, 0.5])
    k, e = best_shift(p, p)
    assert k == 0 and e < 1e-15
    q = integer_distribution(5, [0.5, 0.5])
    k, e = best_shift(p, q)
    assert k == -5 and e < 1e-15
    # symmetric tie between k and -k resolves to the negative one
    p3 = integer_distribution(0, [0.25, 0.5, 0.25])
    q1 = integer_distribution(0, [1.0])
    k, e = best_shift(p3, q1)
    assert k in (0, 1) and abs(e - 0.5) < 1e-12


def _exhaustive_shift(p, q):
    """Reference: the tv at every k where the windows overlap, and the
    same tie rule: of the shifts within the rounding margin
    8 n eps (sum|p| + sum|q|) of the least tv, n + 1 the two lengths
    summed, the smallest |k| wins, then the negative one."""
    tvs = [(k, tv_distance(p, shift(q, k)))
           for k in range(p.offset - q.support_max,
                          p.support_max - q.offset + 1)]
    margin = (8.0 * (p.probs.size + q.probs.size - 1) * np.finfo(float).eps
              * float(np.sum(np.abs(p.probs)) + np.sum(np.abs(q.probs))))
    least = min(e for _, e in tvs)
    best_k, best_e = min(((k, e) for k, e in tvs if e <= least + margin),
                         key=lambda ke: (abs(ke[0]), ke[0]))
    return int(best_k), float(best_e)


def _random_pair(rng, kind):
    def draw(n):
        a = rng.random(n) * (rng.random(n) < 0.6)   # interior zeros
        a[[0, -1]] += rng.random(2)                 # nonzero at both ends
        return a / a.sum()

    def off():
        return int(rng.integers(-40, 41))            # negative offsets too

    p = IntegerDistribution(off(), draw(int(rng.integers(1, 25))))
    if kind == 0:     # two unrelated distributions
        return p, IntegerDistribution(off(), draw(int(rng.integers(1, 25))))
    if kind == 1:     # a point mass on either side
        pm = IntegerDistribution(off(), np.array([1.0]))
        return (p, pm) if rng.random() < 0.5 else (pm, p)
    if kind == 2:     # p == q
        return p, p
    if kind == 3:     # a shifted copy: tv 0 at exactly one k
        return p, shift(p, off())
    # ties: a palindrome against a point mass or another palindrome, or
    # two equal masses against a point mass, centred near 0 so that k and
    # -k compete
    h = rng.random(int(rng.integers(1, 6)))
    pal = np.concatenate([h, h[::-1][int(rng.integers(0, 2)):]])
    p = IntegerDistribution(-(len(pal) // 2), pal / pal.sum())
    if kind == 4:
        return p, IntegerDistribution(0, np.array([1.0]))
    if kind == 5:
        gap = int(rng.integers(1, 6))
        two = np.zeros(gap + 1)
        two[[0, gap]] = 0.5
        return IntegerDistribution(-(gap // 2), two), \
            IntegerDistribution(0, np.array([1.0]))
    h = rng.random(int(rng.integers(1, 4)))
    pal2 = np.concatenate([h, h[::-1][int(rng.integers(0, 2)):]])
    return p, IntegerDistribution(-(len(pal2) // 2), pal2 / pal2.sum())


def test_best_shift_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(90)
    for i in range(350):
        p, q = _random_pair(rng, i % 7)
        assert best_shift(p, q) == _exhaustive_shift(p, q), (p, q)
    # the m-copy pairs of acceptance criterion 8, as iid_sweep builds them
    seen = []

    def checked(p, q):
        got = best_shift(p, q)
        assert got == _exhaustive_shift(p, q)
        seen.append(got)
        return got

    monkeypatch.setattr(convert, "best_shift", checked)
    for clock in (C_CBIT, C_U023):
        R = max_rate(clock, C_CBIT)
        for f in (0.9, 1.1):
            iid_sweep(clock, C_CBIT, f * R, (16, 64, 256, 1024))
    assert len(seen) == 16


def test_best_shift_is_reproducible_under_rounding():
    # cbit masses moved by one ulp-scale step either way: 64 copies
    # against 71 have two shifts whose tvs differ by less than rounding,
    # and both moves must pick the same one, the smaller |k|
    plans = []
    for delta in (1e-15, -1e-15):
        cbit = IntegerDistribution(0, np.array([0.5 + delta, 0.5 - delta]))
        p, q = convolve_n(cbit, 64), convolve_n(cbit, 71)
        plans.append(best_shift(p, q))
        assert plans[-1] == _exhaustive_shift(p, q)
    (k1, e1), (k2, e2) = plans
    assert k1 == k2 == -3
    assert abs(e1 - e2) < 1e-14


def test_best_shift_budget(monkeypatch):
    # u023 -> cbit at 0.9R, 4096 copies: 35227 candidate shifts, each a
    # tv evaluation for the exhaustive search
    calls = []

    def counted(p, q):
        calls.append(1)
        return tv_distance(p, q)

    monkeypatch.setattr(convert, "tv_distance", counted)
    (plan,) = iid_sweep(C_U023, C_CBIT, 0.9 * 56.0 / 9.0, (4096,))
    assert (plan.shift_k, plan.tv_error) == (-4642, 0.025507420161638858)
    assert len(calls) <= 64


def test_iid_sweep_copy_accounting():
    R = 0.9 * 56.0 / 9.0
    plans = iid_sweep(C_U023, C_CBIT, R, (4, 16, 64))
    for plan, m in zip(plans, (4, 16, 64)):
        assert plan.copies_in == m
        assert plan.copies_out == math.ceil(R * m) or abs(
            plan.copies_out - R * m) < 1.0
        assert abs(plan.fidelity_lower_bound - (1 - 2 * plan.tv_error)) < 1e-12
    errs = [pl.tv_error for pl in plans]
    assert errs[2] < errs[0]
    # one copy of a state into one copy of itself is exact
    (plan,) = iid_sweep(C_CBIT, C_CBIT, 1.0, (1,))
    assert plan.tv_error < 1e-12
    assert plan.fidelity_lower_bound > 1.0 - 1e-11
    assert plan.copies_in == 1 and plan.copies_out == 1


def test_iid_sweep_below_rate_converges():
    R = 0.9 * 56.0 / 9.0
    (plan,) = iid_sweep(C_U023, C_CBIT, R, (256,))
    assert plan.tv_error < 0.05


def test_coherence_cost():
    rho_cbit = np.outer(CBIT, CBIT)
    assert abs(coherence_cost(rho_cbit, H_CBIT, TAU) - 1.0) < 1e-12
    # incoherent states cost nothing
    assert coherence_cost(np.diag([0.7, 0.3]), H_CBIT, TAU) < 1e-14
    # a gap of 1.5 grid units is not tau-periodic
    with pytest.raises(PeriodMismatchError):
        coherence_cost(rho_cbit, np.diag([0.0, 1.0]), 3 * math.pi)


@pytest.mark.parametrize("tau", [TAU, 3.0, 1e6, 1e150, 1e300])
def test_coherence_cost_is_the_grid_unit_qfi_at_any_tau(tau):
    # the levels {0, 1} of period tau cost F of diag(0, 1); (tau/2pi)^2
    # once overflowed to inf while F underflowed to 0, giving NaN
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    H = np.diag([0.0, 2.0 * math.pi / tau])
    assert abs(coherence_cost(rho, H, tau) - 0.36) < 1e-12
