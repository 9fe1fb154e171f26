"""Output checks for benchmark requests.

Each check reads what one ``cli.main`` call printed and returns ``None``
when the output is right, else a one-line reason.  Nothing here imports
coherence_forge: the references are either this file's own numpy
transcription of the seed code's formulas (F, P, W, Renyi, F/4, clock
distributions), or values the seed code produced once and that
``references.json`` keeps (F* of the distillation SDP, conversion tv).

Certificates are checked against their own invariants.  A tv certificate
passes when it is at most its reference, so a tighter certificate is never
a failure.  The four by-design-false guarantees (acceptance criteria 4, 5
and 8, and the W sandwich) are not checked.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

REL = 1e-8              # F, P, W, Renyi, F/4 and variances, relative
KKT_MAX = 1e-10         # stationarity residual of the purification
ENSEMBLE_ABS = 1e-9     # ensemble weights and mixture reconstruction
DIST_ABS = 1e-12        # clock-distribution probabilities, absolute
TV_SLACK = 1e-9         # tv certificate may exceed its reference by this
FSTAR_ABS = 2.5e-7      # F* against the seed code (two gaps of 1e-7)
SDP_GAP = 1e-7          # certified primal-dual gap budget
SANDWICH_SLACK = 1e-6   # qubit converse / discard-achievability
VIOLATION_MAX = 1e-8    # monotonicity violation budget

_REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "references.json")


@functools.cache
def references() -> dict:
    with open(_REF_PATH) as fh:
        return json.load(fh)


def _close(x, ref, rel=REL) -> bool:
    return abs(float(x) - ref) <= rel * max(1.0, abs(ref))


def _decode(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"],
                                                                dtype=float)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _csv_rows(stdout: str, header: str):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing CSV header {header!r}")
    rows = []
    for line in lines[1:]:
        if line.startswith("{"):
            break
        rows.append(line.split(","))
    return rows


# ---------------------------------------------------------------------------
# references


def _eig_frame(rho, H):
    p, V = np.linalg.eigh(rho)
    return p, V.conj().T @ H @ V


def ref_qfi(rho, H) -> float:
    p, A = _eig_frame(rho, H)
    num = (p[:, None] - p[None, :]) ** 2
    return float(2.0 * np.sum(num / (p[:, None] + p[None, :]) * np.abs(A) ** 2))


def ref_purity(rho, H) -> float:
    """tr(H rho^2 H rho^-1) - tr(rho H^2) for a full-rank rho."""
    val = np.trace(H @ rho @ rho @ H @ np.linalg.inv(rho)) - np.trace(rho @ H @ H)
    return float(val.real)


def _power(rho, a):
    p, V = np.linalg.eigh(rho)
    return (V * p ** a) @ V.conj().T


def ref_skew(rho, H) -> float:
    """-tr([sqrt(rho), H]^2) / 2."""
    root = _power(rho, 0.5)
    C = root @ H - H @ root
    return float(-0.5 * np.trace(C @ C).real)


def ref_renyi(rho, H, alpha) -> float:
    val = (np.trace(_power(rho, alpha) @ H @ _power(rho, 1.0 - alpha) @ H)
           - np.trace(rho @ H @ H))
    return float(val.real)


def ref_convolution(per_copy, m) -> np.ndarray:
    """m-fold self-convolution, one factor at a time."""
    out = np.array([1.0])
    for _ in range(m):
        out = np.convolve(out, per_copy)
    return out


# ---------------------------------------------------------------------------
# per-command checks


def _check_measures(req, stdout):
    out = _last_json(stdout)
    rho, H, alpha = req.expect["rho"], req.expect["H"], req.expect["alpha"]
    refs = {"F": ref_qfi(rho, H), "P": ref_purity(rho, H),
            "W": ref_skew(rho, H), "renyi": ref_renyi(rho, H, alpha)}
    for key, ref in refs.items():
        if out.get(key) == "inf" or not _close(out.get(key), ref):
            return f"{key}={out.get(key)!r}, reference {ref!r}"
    if out.get("support_commutes") is not True:
        return "support_commutes is not true for a full-rank state"
    return None


def _check_purify(req, stdout):
    out = _last_json(stdout)
    rho, H = req.expect["rho"], req.expect["H"]
    f4 = ref_qfi(rho, H) / 4.0
    if not _close(out["qfi_over_4"], f4):
        return f"qfi_over_4={out['qfi_over_4']!r}, reference {f4!r}"
    if not _close(out["total_variance"], out["qfi_over_4"]):
        return (f"total_variance {out['total_variance']!r} != qfi_over_4 "
                f"{out['qfi_over_4']!r}")
    if not out["kkt_residual"] < KKT_MAX:
        return f"kkt_residual {out['kkt_residual']!r} >= {KKT_MAX}"
    weights = np.array([m["weight"] for m in out["ensemble"]])
    states = [_decode(m["state"]) for m in out["ensemble"]]
    if weights.min() < 0 or abs(weights.sum() - 1.0) > ENSEMBLE_ABS:
        return "ensemble weights are not a distribution"
    mix = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, states))
    if np.max(np.abs(mix - rho)) > ENSEMBLE_ABS:
        return "ensemble does not average to the state"
    avg = 0.0
    for w, v in zip(weights, states):
        Hv = H @ v
        mean = np.vdot(v, Hv).real
        avg += w * (np.vdot(Hv, Hv).real - mean * mean)
    if not _close(avg, f4):
        return f"ensemble average variance {avg!r}, reference {f4!r}"
    return None


def _check_dist(req, stdout):
    rows = _csv_rows(stdout, "n,p")
    summary = _last_json(stdout)
    ref = ref_convolution(req.expect["per_copy"], req.expect["copies"])
    ns = [int(r[0]) for r in rows]
    probs = np.array([float(r[1]) for r in rows])
    if ns != list(range(len(ref))):
        return f"support {ns[0]}..{ns[-1]}, reference 0..{len(ref) - 1}"
    err = float(np.max(np.abs(probs - ref)))
    if err > DIST_ABS:
        return f"probabilities off by {err:.3e}"
    if not _close(summary["period"], 2.0 * math.pi, 1e-12):
        return f"period {summary['period']!r}, reference 2*pi"
    if not 0.0 <= summary["tv_to_tp"] <= 1.0:
        return f"tv_to_tp {summary['tv_to_tp']!r} outside [0, 1]"
    return None


def _check_convert(req, stdout):
    rows = _csv_rows(stdout, "m,k,tv_error,fidelity_floor")
    table = references()["convert"][f"{req.expect['pair']}@{req.expect['factor']}"]
    if [int(r[0]) for r in rows] != req.expect["copies"]:
        return "copy counts do not match the request"
    for m, _, tv, floor in rows:
        tv, floor = float(tv), float(floor)
        ref = table[m]
        if not 0.0 <= tv <= ref + TV_SLACK:
            return f"m={m}: tv {tv!r} above reference {ref!r}"
        if abs(floor - max(0.0, 1.0 - 2.0 * tv)) > 1e-12:
            return f"m={m}: fidelity floor {floor!r} != 1 - 2 tv"
    return None


def _check_distill(req, stdout):
    out = _last_json(stdout)
    lam, n = req.expect["lam"], req.expect["n"]
    f = out["fidelity"]
    ref = references()["distill"].get(f"{lam}@{n}")
    if ref is not None and abs(f - ref) > FSTAR_ABS:
        return f"F*={f!r}, reference {ref!r}"
    if not out["gap"] < SDP_GAP:
        return f"gap {out['gap']!r} >= {SDP_GAP}"
    if not _close(out["hmin"], -math.log2(f), 1e-12):
        return "hmin != -log2(F*)"
    if f < (1.0 + lam) / 2.0 - SANDWICH_SLACK:
        return f"F*={f!r} below discard achievability {(1 + lam) / 2!r}"
    lt = 2.0 * f - 1.0
    if lt * lt / (1.0 - lt * lt) > n * lam * lam / (1.0 - lam * lam) + SANDWICH_SLACK:
        return f"F*={f!r} above the qubit converse"
    exact = 0.5 * (1.0 - math.sqrt(n * lam * lam / (1.0 + (n - 1) * lam * lam)))
    asym = (1.0 - lam * lam) / (4.0 * lam * lam * n)
    if not (_close(out["bound_exact"], exact, 1e-12)
            and _close(out["bound_asymptotic"], asym, 1e-12)):
        return "qubit bound plug-ins disagree with their formulas"
    return None


def _check_proptest(req, stdout):
    out = _last_json(stdout)
    exp = req.expect
    if (out["measure"], out["trials"], out["seed"]) != (
            exp["measure"], exp["trials"], exp["seed"]):
        return "proptest echoed a different measure, trial count or seed"
    if exp["alpha"] is not None and out["alpha"] != exp["alpha"]:
        return "proptest echoed a different alpha"
    if not (out["max_violation"] < VIOLATION_MAX and out["violations"] == 0):
        return (f"max_violation {out['max_violation']!r}, "
                f"{out['violations']} violations")
    return None


_CHECKS = {"measures": _check_measures, "purify": _check_purify,
           "dist": _check_dist, "convert": _check_convert,
           "distill": _check_distill, "proptest": _check_proptest}


def check(req, stdout: str):
    """None when the printed output is right, else a reason."""
    try:
        return _CHECKS[req.kind](req, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
