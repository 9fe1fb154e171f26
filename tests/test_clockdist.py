import math

import numpy as np
import pytest

from coherence_forge import convert
from coherence_forge.channels import random_channel, twirl
from coherence_forge.clockdist import (
    MAX_CONV_WINDOW,
    TINY,
    IntegerDistribution,
    _poisson_window,
    barbour_bound,
    convolve_n,
    extract_distribution,
    integer_distribution,
    overlap_copy_count,
    shift,
    snap_levels,
    tp_distance,
    translated_poisson,
    tv_distance,
)
from coherence_forge.config import DEFAULT
from coherence_forge.errors import (
    GcdNotOneError,
    IncommensurateSpectrumError,
    ValidationError,
)
from coherence_forge.purification import (
    coherence_sectors,
    period_respecting_ensemble,
)

TAU = 2 * math.pi
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


def test_extract_cbit():
    H = np.diag([0.0, 1.0])
    clock = extract_distribution(PLUS, H, TAU)
    assert tuple(np.flatnonzero(clock.distribution.probs)) == (0, 1)
    assert np.allclose(clock.distribution.probs, [0.5, 0.5])
    assert abs(clock.period - TAU) < 1e-12


def test_extract_gap_two_halves_period():
    psi = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    H = np.diag([0.0, 1.0, 2.0])
    clock = extract_distribution(psi, H, TAU)
    assert tuple(np.flatnonzero(clock.distribution.probs)) == (0, 2)
    assert abs(clock.period - TAU / 2) < 1e-12


def test_extract_uniform_023():
    psi = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3)
    H = np.diag([0.0, 1.0, 2.0, 3.0])
    clock = extract_distribution(psi, H, TAU)
    assert tuple(np.flatnonzero(clock.distribution.probs)) == (0, 2, 3)
    assert abs(clock.period - TAU) < 1e-12
    assert abs(clock.distribution.variance() - 14.0 / 9.0) < 1e-12


def test_extract_eigenstate_has_no_period():
    H = np.diag([0.0, 1.0])
    clock = extract_distribution(np.array([1.0, 0.0]), H, TAU)
    assert clock.period == 0.0
    assert tuple(np.flatnonzero(clock.distribution.probs)) == (0,)


def test_extract_offset_spectrum_still_integer():
    # a constant shift of H must not break the integer grid
    H = np.diag([0.7, 1.7])
    clock = extract_distribution(PLUS, H, TAU)
    assert tuple(np.flatnonzero(clock.distribution.probs)) == (0, 1)


def test_extract_incommensurate_raises():
    H = np.diag([0.0, math.sqrt(2.0)])
    with pytest.raises(IncommensurateSpectrumError):
        extract_distribution(PLUS, H, TAU)


def test_snap_levels_matches_per_level_rounding():
    rng = np.random.default_rng(70)
    tau = 2 * math.pi / 3.0
    unit = 3.0
    for _ in range(20):
        ref = rng.normal()
        n = rng.integers(-5, 20, size=8)
        noise = rng.uniform(-1e-10, 1e-10, size=8) * unit
        energies = ref + unit * n + noise
        expect = [round((e - ref) / unit) for e in energies]
        assert snap_levels(energies, ref, tau).tolist() == expect
        energies[3] += 1e-6 * unit
        with pytest.raises(IncommensurateSpectrumError):
            snap_levels(energies, ref, tau)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
def test_every_library_tau_is_checked(tau):
    # snap_levels checks tau, and every library function that takes one
    # reaches it; a nan or inf tau once gave a huge gcd or INT64_MIN
    # levels, 0 a ZeroDivisionError, and a negative tau was accepted
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    H = np.diag([0.0, 1.0])
    calls = [lambda: snap_levels(np.array([0.0, 1.0]), 0.0, tau),
             lambda: coherence_sectors(rho, H, tau),
             lambda: convert.coherence_cost(rho, H, tau),
             lambda: period_respecting_ensemble(rho, H, tau),
             lambda: twirl(random_channel(2, 2, 2, 0), H, H, tau)]
    for call in calls:
        with pytest.raises(ValidationError,
                           match=f"tau must be positive and finite, got {tau}"):
            call()


def test_integer_distribution_validation():
    with pytest.raises(ValidationError):
        integer_distribution(0, [0.5, 0.4])
    with pytest.raises(ValidationError):
        integer_distribution(0, [1.2, -0.2])
    # NaN fails every comparison, so the negativity and sum checks alone
    # would let it through
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]):
        with pytest.raises(ValidationError):
            integer_distribution(0, bad)


def test_convolve_n_refuses_windows_over_budget(monkeypatch):
    def no_convolve(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", no_convolve)
    p = integer_distribution(0, [0.25, 0.5, 0.25])
    # 2 m + 1 entries: the first m past the budget is refused unconvolved
    with pytest.raises(ValidationError):
        convolve_n(p, MAX_CONV_WINDOW // 2)
    with pytest.raises(ValidationError):
        convolve_n(integer_distribution(0, [0.5, 0.5]), 3_000_000)
    # a window of exactly the budget is admitted
    wide = IntegerDistribution(0, np.full(MAX_CONV_WINDOW,
                                          1.0 / MAX_CONV_WINDOW))
    assert convolve_n(wide, 1) is wide


def test_convolution_moments():
    p = integer_distribution(1, [0.2, 0.5, 0.3])
    for m in (1, 2, 7, 16):
        c = convolve_n(p, m)
        assert abs(c.mean() - m * p.mean()) < 1e-9
        assert abs(c.variance() - m * p.variance()) < 1e-8
        assert abs(sum(c.probs) - 1.0) < 1e-12
    # squared-doubling agrees with naive repeated convolution
    naive = np.array([1.0])
    for _ in range(5):
        naive = np.convolve(naive, p.probs)
    c5 = convolve_n(p, 5)
    assert np.max(np.abs(c5.probs - naive)) < 1e-12
    assert c5.offset == 5


CBIT = integer_distribution(0, [0.5, 0.5])
U023 = integer_distribution(0, [1 / 3, 0, 1 / 3, 1 / 3])


def _unflushed_convolve_n(probs, m):
    """convolve_n's repeated squaring with no flush of small masses."""
    result, base = None, probs
    while m:
        if m & 1:
            result = base if result is None else np.convolve(result, base)
        m >>= 1
        if m:
            base = np.convolve(base, base)
    return result


def test_tiny_is_the_square_root_of_the_smallest_normal():
    assert TINY == 2.0 ** -511
    assert TINY * TINY == np.finfo(float).tiny


def test_convolution_operands_hold_no_mass_below_tiny(monkeypatch):
    operands = []
    convolve = np.convolve

    def recorded(a, b):
        operands.extend((a, b))
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", recorded)
    for p in (CBIT, U023):
        convolve_n(p, 4096)
    # without the flush both powers carry masses far below TINY
    assert len(operands) == 2 * 2 * 12
    for a in operands:
        assert not np.any((a > 0.0) & (a < TINY))


@pytest.mark.parametrize("p", [CBIT, U023], ids=["cbit", "u023"])
@pytest.mark.parametrize("m", [1024, 4096, 7009])
def test_flushed_convolution_matches_the_unflushed_one(p, m):
    ref = _unflushed_convolve_n(p.probs, m)
    c = convolve_n(p, m)
    assert c.offset == 0 and len(c.probs) == len(ref)
    # bit for bit wherever a mass is far above the flushed ones
    big = ref >= 1e-130
    assert np.array_equal(c.probs[big], ref[big])
    # and within convolve_n's stated L1 bound overall
    assert np.sum(np.abs(c.probs - ref)) <= (4 * math.log2(m) * len(ref)
                                             * TINY)


# iid_sweep tv errors of acceptance criterion 8's pairs (-> cbit at 0.9 and
# 1.1 times the max rate), as computed with unflushed convolutions
CRITERION_8_TV = {
    ("cbit", 0.9): (0.03385093767154768, 0.02538689286416172,
                    0.026038870287469762),
    ("cbit", 1.1): (0.023385596096447046, 0.025490507433314477,
                    0.02307871923207942),
    ("u023", 0.9): (0.02578321480076748, 0.025676868984780304,
                    0.025507420161638858),
    ("u023", 1.1): (0.023609796971450683, 0.023175942933332198,
                    0.023086657284673164),
}


@pytest.mark.parametrize("pair,factor", list(CRITERION_8_TV),
                         ids=[f"{p}-{f}" for p, f in CRITERION_8_TV])
def test_criterion_8_tv_errors_are_frozen(pair, factor):
    cbit = np.array([1.0, 1.0]) / math.sqrt(2.0)
    H_cbit = np.diag([0.0, 1.0])
    psi, H = {"cbit": (cbit, H_cbit),
              "u023": (np.sqrt(np.array([1, 1, 1]) / 3.0),
                       np.diag([0.0, 2.0, 3.0]))}[pair]
    rate = factor * convert.max_rate(psi, H, cbit, H_cbit)
    plans = convert.iid_sweep(psi, H, cbit, H_cbit, rate, (256, 1024, 4096))
    assert tuple(plan.tv_error for plan in plans) == CRITERION_8_TV[
        (pair, factor)]


def test_tv_distance_alignment():
    p = integer_distribution(0, [0.5, 0.5])
    q = integer_distribution(1, [0.5, 0.5])
    assert abs(tv_distance(p, q) - 0.5) < 1e-12
    assert abs(tv_distance(p, integer_distribution(2, [0.5, 0.5])) - 1.0) < 1e-12
    assert tv_distance(p, p) < 1e-15
    assert abs(tv_distance(p, shift(p, 10)) - 1.0) < 1e-15


def test_overlap_copy_count_cases():
    assert overlap_copy_count(integer_distribution(0, [0.5, 0.5])) == 1
    u = integer_distribution(0, [1 / 3, 0, 1 / 3, 1 / 3])
    assert overlap_copy_count(u) == 2
    with pytest.raises(GcdNotOneError):
        overlap_copy_count(integer_distribution(0, [0.5, 0.0, 0.5]))
    p25 = integer_distribution(0, [0.4, 0.0, 0.3, 0.0, 0.0, 0.3])
    assert overlap_copy_count(p25) == 3
    with pytest.raises(GcdNotOneError):
        overlap_copy_count(integer_distribution(3, [1.0]))


def test_translated_poisson_moments():
    for mu, s2 in ((4.0, 1.0), (10.3, 2.7), (0.9, 0.4), (300.0, 250.0)):
        tp = translated_poisson(mu, s2)
        assert abs(tp.mean() - mu) < 1e-9
        assert s2 - 1e-9 <= tp.variance() < s2 + 1.0
        assert abs(sum(tp.probs) - 1.0) < 1e-9
    tp = translated_poisson(4.0, 1.0)
    assert tp.offset == 3 and abs(tp.variance() - 1.0) < 1e-12


def _poisson_window_reference(lam, tail_eps):
    """The former small-lambda path: the pmf by the recursion
    p(k) = p(k-1) lam / k from k = 0, tails trimmed one entry at a time."""
    k_hi = int(lam + 20.0 * math.sqrt(lam + 1.0) + 30.0)
    ks = np.arange(k_hi + 1)
    pmf = np.empty(k_hi + 1)
    pmf[0] = math.exp(-lam)
    for k in range(1, k_hi + 1):
        pmf[k] = pmf[k - 1] * lam / k
    weight = pmf * (1.0 + np.abs(ks - lam) + (ks - lam) ** 2)
    budget = tail_eps / 2.0
    lo, acc = 0, 0.0
    while lo < len(pmf) - 1 and acc + weight[lo] < budget:
        acc += weight[lo]
        lo += 1
    hi, acc = len(pmf) - 1, 0.0
    while hi > lo and acc + weight[hi] < budget:
        acc += weight[hi]
        hi -= 1
    return int(ks[lo]), pmf[lo: hi + 1]


def test_poisson_window_matches_recursion():
    # the former code took the recursion below lam = 700, where exp(-lam)
    # is still a normal float
    for lam in np.geomspace(1e-3, 699.0, 120):
        k_lo, pmf = _poisson_window(float(lam))
        ref_lo, ref = _poisson_window_reference(float(lam), DEFAULT.tail_eps)
        assert (k_lo, len(pmf)) == (ref_lo, len(ref))
        assert np.max(np.abs(pmf - ref) / ref) < 1e-11


def test_poisson_window_matches_per_k_lgamma():
    # the window's log-factorials, one math.lgamma per k, bit for bit
    for lam in np.geomspace(1e-3, 5e4, 200).tolist():
        k_lo, pmf = _poisson_window(lam)
        half = int(20.0 * math.sqrt(lam) + 30.0)
        ks = np.arange(max(0, int(lam) - half), int(lam) + half + 1)
        ref = np.exp(ks * math.log(lam) - lam
                     - np.array([math.lgamma(k + 1) for k in ks]))
        lo = k_lo - int(ks[0])
        assert np.array_equal(pmf, ref[lo: lo + len(pmf)])


def test_barbour_bound_frozen_value():
    bern = integer_distribution(0, [0.5, 0.5])
    assert abs(barbour_bound(bern, 100) - 0.6085352436149613) < 1e-12


def test_barbour_bound_dominates_tp_distance():
    bern = integer_distribution(0, [0.5, 0.5])
    u = integer_distribution(0, [1 / 3, 0, 1 / 3, 1 / 3])
    for p in (bern, u):
        prev = None
        for m in (16, 64):
            d = tp_distance(p, m, convolve_n(p, m))
            assert d <= barbour_bound(p, m)
            if prev is not None:
                assert d < prev
            prev = d


def test_barbour_bound_vacuous_is_inf():
    # support {0, 2} is disjoint from its unit shift (nu = 0), and a point
    # mass has no variance: the bound is vacuous at every copy count
    for m in (1, 100):
        assert barbour_bound(integer_distribution(0, [0.5, 0.0, 0.5]),
                             m) == math.inf
        assert barbour_bound(integer_distribution(5, [1.0]), m) == math.inf
