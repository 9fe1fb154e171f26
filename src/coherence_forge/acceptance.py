"""Self-contained acceptance suite: twelve numbered criteria with
pass/fail verdicts, shared by the CLI `accept` subcommand and the test
suite.

CRITERIA holds one (name, budget, check) row per criterion, in order.
Each check draws its own seeded randomness and checks the stated
tolerances, so a verdict is reproducible in isolation; run_all times
every check and fails one that reaches its wall-clock budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import channels, clockdist, convert, distill, measures, purification
from .errors import GcdNotOneError
from .linalg import density_matrix, observable, random_density, random_observable


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
_H01 = np.diag([0.0, 1.0])


def _draws(seed, count, dims):
    """(rng, d, rho, H) for i < count: d = 2 + i % dims, and rho then H
    drawn from the stream [seed, i], which the caller may draw on."""
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        d = 2 + i % dims
        rho = density_matrix(random_density(d, rng))
        yield rng, d, rho, observable(random_observable(d, rng))


def _purification_variance():
    """Optimal purification: 4*V_tot = F and stationarity residual."""
    worst_rel = 0.0
    worst_kkt = 0.0
    for _, _, rho, H in _draws(101, 200, 5):
        pur = purification.build_optimal_purification(rho, H)
        F = measures.qfi(rho, H)
        rel = abs(4.0 * pur.total_variance - F) / max(F, 1e-12)
        worst_rel = max(worst_rel, rel)
        worst_kkt = max(worst_kkt, purification.kkt_residual(pur, H))
    ok = worst_rel <= 1e-8 and worst_kkt < 1e-10
    detail = f"max rel |4V-F| {worst_rel:.2e}, max KKT {worst_kkt:.2e}"
    return ok, detail


def _ensemble_optimality():
    """Optimal ensemble reaches F/4 and no alternative undercuts it."""
    worst_rel = 0.0
    worst_undercut = -math.inf
    for rng, d, rho, H in _draws(202, 30, 4):
        pur = purification.build_optimal_purification(rho, H)
        ens = purification.optimal_ensemble(pur, H)
        F = measures.qfi(rho, H)
        rel = abs(4.0 * ens.average_variance - F) / max(F, 1e-12)
        worst_rel = max(worst_rel, rel)
        phi = pur.amplitudes
        for _ in range(100):
            G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            U = np.linalg.qr(G)[0]
            _, _, alt = purification._measure(phi @ U.conj(), H.matrix)
            worst_undercut = max(worst_undercut,
                                 ens.average_variance - alt)
    ok = worst_rel <= 1e-8 and worst_undercut <= 1e-9
    detail = (f"max rel |4*avg-F| {worst_rel:.2e}, "
              f"worst undercut {worst_undercut:.2e}")
    return ok, detail


def _monotonicity():
    """Five measures non-increasing under 1000 twirled channels each."""
    worst = -math.inf
    parts = []
    jobs = [("F", None), ("P", None), ("W", None),
            ("renyi", 1.5), ("renyi", 2.0)]
    for idx, (mid, alpha) in enumerate(jobs):
        kw = {} if alpha is None else {"alpha": alpha}
        rep = channels.monotonicity_suite(mid, trials=1000,
                                          seed=3000 + idx, **kw)
        worst = max(worst, rep.max_violation)
        label = mid if alpha is None else f"{mid}({alpha})"
        parts.append(f"{label}:{rep.max_violation:.1e}")
    ok = worst < 1e-8
    return ok, "max violations " + ", ".join(parts)


def _inequality_chain():
    """P >= F, the envelope F/8 <= W <= F/4, and the qubit P/F identity.

    Per eigenbasis pair of rho, W/F = (p_j+p_k) / (4 (sqrt p_j + sqrt p_k)^2),
    which lies in [1/8, 1/4] because (sqrt a + sqrt b)^2 is between a+b
    and 2(a+b).
    """
    bad_pf = 0
    bad_w = 0
    bad_qubit = 0
    w_lo, w_hi = math.inf, -math.inf
    for _, d, rho, H in _draws(404, 1000, 4):
        F = measures.qfi(rho, H)
        P = measures.purity_of_coherence(rho, H)
        W = measures.skew_information(rho, H)
        if P < F - 1e-10:
            bad_pf += 1
        if not (F / 8 - 1e-10 <= W <= F / 4 + 1e-10):
            bad_w += 1
        if F > 0:
            w_lo = min(w_lo, W / F)
            w_hi = max(w_hi, W / F)
        if d == 2 and P < math.inf:
            purity = float(np.trace(rho.matrix @ rho.matrix).real)
            rhs = F / (2.0 * (1.0 - purity))
            if abs(P - rhs) > 1e-10 * max(1.0, abs(P)):
                bad_qubit += 1
    ok = bad_pf == 0 and bad_w == 0 and bad_qubit == 0
    detail = (f"P<F fails {bad_pf}, W-envelope fails {bad_w} "
              f"(observed W/F in [{w_lo:.4f}, {w_hi:.4f}]), "
              f"qubit identity fails {bad_qubit}")
    return ok, detail


def _near_mixed_scaling():
    """Near-mixed limit: |P/F - 1| shrinking quadratically in eps.

    Per eigenbasis pair, P/F = (p_j+p_k)^2 / (4 p_j p_k)
    = 1 + (p_j-p_k)^2 / (4 p_j p_k), so for rho = I/d + eps A the deviation
    is O(eps^2) and halving eps divides it by about 4.  The window
    [0.2, 0.3] rejects both a linear law (1/2) and a cubic one (1/8).
    """
    eps_list = (1e-2, 5e-3, 2.5e-3)
    r_lo, r_hi = math.inf, -math.inf
    bad = 0
    for i in range(20):
        rng = np.random.default_rng([505, i])
        d = 2 + i % 3
        A = random_observable(d, rng)
        A = A - np.trace(A) / d * np.eye(d)
        A = A / np.sum(np.abs(np.linalg.eigvalsh(A)))
        H = observable(random_observable(d, rng))
        devs = []
        for eps in eps_list:
            rho = density_matrix(np.eye(d) / d + eps * A)
            F = measures.qfi(rho, H)
            P = measures.purity_of_coherence(rho, H)
            devs.append(abs(P / F - 1.0))
        ratios = (devs[1] / devs[0], devs[2] / devs[1])
        r_lo = min(r_lo, *ratios)
        r_hi = max(r_hi, *ratios)
        if not all(0.2 <= r <= 0.3 for r in ratios):
            bad += 1
        if not devs[0] > devs[1] > devs[2]:
            bad += 1
    ok = bad == 0
    detail = (f"quadratic-law window [0.2, 0.3] misses {bad}/20 directions; "
              f"observed ratios in [{r_lo:.4f}, {r_hi:.4f}]")
    return ok, detail


def _fidelity_curvature():
    """Fidelity-curvature QFI agrees with the closed form."""
    worst = 0.0
    for _, _, rho, H in _draws(606, 100, 4):
        F = measures.qfi(rho, H)
        Ffd = measures.qfi_via_fidelity(rho, H)
        worst = max(worst, abs(Ffd - F) / max(1.0, F))
    ok = worst <= 1e-5
    return ok, f"max scaled error {worst:.2e}"


def _translated_poisson():
    """Translated-Poisson convergence under Barbour's bound."""
    fixtures = {
        "bernoulli": clockdist.integer_distribution(0, [0.5, 0.5]),
        "levels-023": clockdist.integer_distribution(
            0, [1 / 3, 0.0, 1 / 3, 1 / 3]),
    }
    ms = (16, 64, 256)
    ok = True
    notes = []
    for name, p in fixtures.items():
        tvs = [clockdist.tp_distance(p, m, clockdist.convolve_n(p, m))
               for m in ms]
        bounds = [clockdist.barbour_bound(p, m) for m in ms]
        if not (tvs[0] > tvs[1] > tvs[2]):
            ok = False
        if not all(tv < b for tv, b in zip(tvs, bounds)):
            ok = False
        ratios = (tvs[1] / tvs[0], tvs[2] / tvs[1])
        if not all(0.3 <= r <= 0.7 for r in ratios):
            ok = False
        notes.append(f"{name} tv={tvs[0]:.4f}/{tvs[1]:.4f}/{tvs[2]:.4f} "
                     f"ratios={ratios[0]:.3f},{ratios[1]:.3f}")
    return ok, "; ".join(notes)


def _rate_threshold():
    """Conversion rate threshold trend at 0.9x and 1.1x the limit."""
    u023 = np.sqrt(np.array([1, 1, 1]) / 3.0)
    H_023 = np.diag([0.0, 2.0, 3.0])
    ok = True
    notes = []
    for name, psi, H in (("cbit", _PLUS, _H01), ("u023", u023, H_023)):
        R = convert.max_rate(psi, H, _PLUS, _H01)
        lo = convert.iid_sweep(psi, H, _PLUS, _H01, 0.9 * R, (256,))[0]
        hi = convert.iid_sweep(psi, H, _PLUS, _H01, 1.1 * R, (256,))[0]
        if not lo.tv_error < 0.05:
            ok = False
        if not hi.tv_error >= 0.1:
            ok = False
        notes.append(f"{name}->cbit 0.9R tv={lo.tv_error:.4f}, "
                     f"1.1R tv={hi.tv_error:.4f}")
    return ok, "; ".join(notes)


def _sdp_sandwich():
    """Min-entropy SDP sandwiched by the qubit converse and
    discard-achievability; analytic plug-ins re-verified."""
    ok = True
    worst_gap = 0.0
    notes = []
    for lam in (0.3, 0.6, 0.9):
        rho1 = lam * np.outer(_PLUS, _PLUS) + (1 - lam) * np.eye(2) / 2
        for n in (1, 2, 3):
            res = distill.conditional_min_entropy(
                distill.iid_omega_state(rho1, _H01, _PLUS, _H01, n))
            worst_gap = max(worst_gap, res.primal_dual_gap)
            f_star = res.optimum
            lt = 2.0 * f_star - 1.0
            if lt * lt / (1.0 - lt * lt) > n * lam * lam / (1.0 - lam * lam) + 1e-6:
                ok = False
            if f_star < (1.0 + lam) / 2.0 - 1e-6:
                ok = False
            if n == 3:
                notes.append(f"F*(lam={lam},n=3)={f_star:.6f}")
    exact, asym = distill.qubit_infidelity_bound(0.6, 10)
    if abs(exact - 0.03927) > 1e-5 or abs(asym - 0.04444) > 1e-5:
        ok = False
    if worst_gap >= 1e-7:
        ok = False
    notes.append(f"max gap {worst_gap:.1e}; "
                 f"plug-ins {exact:.6f}/{asym:.6f}")
    return ok, "; ".join(notes)


def _bound_resource():
    """Bound-resource verdicts and 1/eps copy-floor scaling."""
    ok = True
    r_lo, r_hi = math.inf, -math.inf
    for _, _, rho, H in _draws(1010, 50, 3):
        if measures.qfi(rho, H) <= 1e-6:
            continue
        if not distill.is_bound_resource(rho, H):
            ok = False
        floors = [distill.distillation_copy_floor(
            rho, H, _PLUS, _H01, eps=e) for e in (0.04, 0.02, 0.01)]
        ratios = (floors[1] / floors[0], floors[2] / floors[1])
        r_lo = min(r_lo, *ratios)
        r_hi = max(r_hi, *ratios)
        if not all(1.9 <= r <= 2.1 for r in ratios):
            ok = False
    detail = f"floor ratios in [{r_lo:.4f}, {r_hi:.4f}]"
    return ok, detail


def _period_fixtures():
    """Period and minimal overlap-copy fixtures."""
    tau = 2.0 * math.pi
    ok = True
    notes = []
    st02 = clockdist.extract_distribution(
        np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0),
        np.diag([0.0, 1.0, 2.0]), tau)
    if st02.period != tau / 2:
        ok = False
    try:
        clockdist.overlap_copy_count(st02.distribution)
        ok = False
        notes.append("levels {0,2}: GcdNotOne not raised")
    except GcdNotOneError:
        notes.append(f"levels {{0,2}}: period tau/2, GcdNotOne")
    st023 = clockdist.extract_distribution(
        np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0),
        np.diag([0.0, 1.0, 2.0, 3.0]), tau)
    L = clockdist.overlap_copy_count(st023.distribution)
    if st023.period != tau or L != 2:
        ok = False
    notes.append(f"levels {{0,2,3}}: period tau, L={L}")
    return ok, "; ".join(notes)


def _achievability_gap():
    """Achievable-to-lower-bound infidelity ratio is 2/(1+lambda)."""
    worst = 0.0
    for lam in (0.3, 0.6, 0.9):
        for n in (1, 10, 100):
            _, asym = distill.qubit_infidelity_bound(lam, n)
            ach = distill.cirac_comparison(lam, n)
            worst = max(worst, abs(ach / asym - 2.0 / (1.0 + lam)))
    ok = worst <= 1e-12
    return ok, f"max ratio deviation {worst:.2e}"


# (printed name, wall-clock budget in seconds or None, check), in
# criterion order; each check returns (ok, detail)
CRITERIA = (
    ("optimal purification variance", 10.0, _purification_variance),
    ("convex-roof ensemble optimality", 20.0, _ensemble_optimality),
    ("measure monotonicity", 60.0, _monotonicity),
    ("inequality chain P>=F, F/8<=W<=F/4", None, _inequality_chain),
    ("near-mixed |P/F-1| scaling", None, _near_mixed_scaling),
    ("QFI via fidelity curvature", None, _fidelity_curvature),
    ("translated-Poisson convergence", 10.0, _translated_poisson),
    ("rate threshold trend", 30.0, _rate_threshold),
    ("min-entropy SDP sandwich", 60.0, _sdp_sandwich),
    ("bound-resource diagnostic", None, _bound_resource),
    ("period and Bezout fixtures", None, _period_fixtures),
    ("achievability-gap arithmetic", None, _achievability_gap),
)


def run_all() -> list[CriterionResult]:
    """Every criterion of CRITERIA, timed; one that runs for its budget
    or longer fails, and its detail says by how much."""
    results = []
    for index, (name, budget, check) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        ok, detail = check()
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            ok = False
            detail += f"; runtime {dt:.1f}s over budget {budget}s"
        results.append(CriterionResult(index=index, name=name, passed=ok,
                                       detail=detail, seconds=dt))
    return results


def format_result(r: CriterionResult) -> str:
    tag = "PASS" if r.passed else "FAIL"
    return f"{tag} [{r.index:2d}] {r.name} ({r.seconds:.2f}s): {r.detail}"
