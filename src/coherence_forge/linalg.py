"""Hermitian linear algebra core shared by every other module.

Wraps numpy's Hermitian eigensolver with explicit validation (finite
entries, Hermiticity, reconstruction residual) and provides the state /
observable containers, energy levels, fidelity, seeded samplers, and the
JSON wire format for matrices and vectors.

The containers are the only source of eigenpairs.  A
HermitianObservable owns the eigendecomposition of its operand: spectrum
ascending, eigenbasis columns aligned with it, both read-only.  A
DensityMatrix is a HermitianObservable checked to be a state.  They are
also the only coercions: every layer coerces a state once with
density_matrix (a vector or a PureState stands for its projector), a
pure state with pure_state, or a Hamiltonian with observable, and reads
.matrix, .spectrum and .eigenbasis, so an operand that is not a state or
not Hermitian is refused, and a validated one is eigendecomposed exactly
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .errors import SchemaError, ValidationError


# the largest entry magnitude eig_hermitian accepts: the measures and the
# purification square and multiply energies, and entries near 1e153
# already overflow at d = 32, while 1e150 stays finite there
MAX_ENTRY = 1e150


def require_finite(a: np.ndarray) -> np.ndarray:
    """a itself; raises ValidationError if an entry is NaN or infinite,
    which every later check (compared with >) would let through."""
    if not np.isfinite(a).all():
        raise ValidationError(f"non-finite entry in an array of shape {a.shape}")
    return a


def require_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    return require_finite(M)


def require_count(n, name: str) -> int:
    """n as an int; ValidationError naming it unless it is an integer (a
    numpy one too, not a bool) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"{name} must be at least 1, got {n}")
    return int(n)


def require_same_dim(state_dim: int, ham_dim: int) -> None:
    """ValidationError unless a state and a Hamiltonian share a dimension."""
    if state_dim != ham_dim:
        raise ValidationError(
            f"state dim {state_dim} != Hamiltonian dim {ham_dim}")


def eig_hermitian(M):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    stack of shape (..., n, n).

    Returns (w, V) with w ascending along its last axis and the columns
    of V the matching orthonormal eigenvectors; a stack gives stacks,
    each entry bit for bit what the single matrix gives.  Raises
    ValidationError on a NaN or infinite entry or one above MAX_ENTRY in
    magnitude, if a matrix is not Hermitian within herm, and if the
    reconstruction V diag(w) V^dag misses it by more than recon (which
    would indicate a solver failure, not bad input).  Both limits are scaled by each matrix's own
    max|M_ij|, so operators in any units are judged alike.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValidationError(
            f"expected a square matrix or a stack of them, got shape {M.shape}")
    # one flat reduction per matrix, cheaper than reducing an axis pair;
    # a single matrix is a stack of one, so the checks below see arrays
    flat = (math.prod(M.shape[:-2]), M.shape[-1] ** 2)
    scale = np.abs(M).reshape(flat).max(axis=-1, initial=0.0)
    # the max is NaN or inf exactly when an entry is, and NaN fails <=
    if not scale.max(initial=0.0) <= MAX_ENTRY:
        raise ValidationError("matrix entry not finite or above "
                              f"MAX_ENTRY = {MAX_ENTRY:g} in magnitude")
    Mh = M.conj().swapaxes(-1, -2)
    dev = np.abs(M - Mh).reshape(flat).max(axis=-1, initial=0.0)
    bad = dev > DEFAULT.herm * scale
    if np.count_nonzero(bad):
        raise ValidationError("matrix deviates from Hermiticity by "
                                f"{np.max(dev, where=bad, initial=0.0):.3e}")
    Msym = 0.5 * (M + Mh)
    w, V = np.linalg.eigh(Msym)
    resid = np.abs((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)
                   - Msym).reshape(flat).max(axis=-1, initial=0.0)
    bad = resid > DEFAULT.recon * scale
    if np.count_nonzero(bad):
        raise ValidationError("eigendecomposition residual "
                              f"{np.max(resid, where=bad, initial=0.0):.3e}")
    return w, V


def psd_sqrt(M):
    """Square root of the density matrix M, read from the cached
    eigendecomposition of density_matrix(M).  Eigenvalues in [-psd, 0)
    are treated as zero.
    """
    rho = density_matrix(M)
    V = rho.eigenbasis
    return (V * np.sqrt(np.clip(rho.spectrum, 0.0, None))) @ V.conj().T


def level_labels(w) -> np.ndarray:
    """Level index 0, 1, ... of each value of an ascending array.

    A step of gap_cutoff or more between neighbours starts a new level,
    so values linked by steps below it share a level.
    """
    w = np.asarray(w, dtype=float)
    return np.cumsum(np.diff(w, prepend=w[:1]) >= DEFAULT.gap_cutoff)


def fidelity(rho, sigma) -> float:
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    For a pure rho this reduces to sqrt(<psi|sigma|psi>).  Both go
    through density_matrix, so a matrix that is not a state raises
    ValidationError, and a DensityMatrix lends its cached
    eigendecomposition to sqrt(rho) and costs no eigensolve as sigma.
    """
    sq = psd_sqrt(rho)
    sigma = density_matrix(sigma).matrix
    if sq.shape != sigma.shape:
        raise ValidationError("states have different dimensions")
    inner = sq @ sigma @ sq
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class HermitianObservable:
    """Validated Hermitian matrix with a cached eigendecomposition.

    spectrum is ascending; eigenbasis columns align with it.  Both arrays
    are made read-only on construction, whoever builds the container.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(repr=False)
    eigenbasis: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.spectrum.flags.writeable = self.eigenbasis.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix(HermitianObservable):
    """HermitianObservable checked to be a state: trace 1 and no
    eigenvalue below -psd, so spectrum holds its populations, largest
    last."""


@dataclass(frozen=True)
class PureState:
    """Normalized state vector."""

    vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


def observable(M) -> HermitianObservable:
    """M with its eigendecomposition cached; a HermitianObservable is
    returned as it is, so a validated operand is solved only once."""
    if isinstance(M, HermitianObservable):
        return M
    M = require_square(M)
    w, V = eig_hermitian(M)
    return HermitianObservable(matrix=M, spectrum=w, eigenbasis=V)


def density_matrix(M) -> DensityMatrix:
    """M checked to be a state (trace 1, no eigenvalue below -psd), with
    its eigendecomposition cached.  A DensityMatrix is returned as it is,
    and a vector or a PureState v stands for |v><v|; a vector with an
    entry past sqrt(MAX_ENTRY) in magnitude, whose |v><v| would pass
    MAX_ENTRY or overflow, raises ValidationError before it is formed."""
    if isinstance(M, DensityMatrix):
        return M
    M = M.vector if isinstance(M, PureState) else np.asarray(M, complex)
    if M.ndim == 1:
        if not np.abs(require_finite(M)).max(initial=0.0) <= MAX_ENTRY ** 0.5:
            raise ValidationError("vector entry above sqrt(MAX_ENTRY) = "
                                  f"{MAX_ENTRY ** 0.5:g} in magnitude")
        M = np.outer(M, M.conj())
    ob = observable(M)
    w = ob.spectrum
    if abs(np.sum(w) - 1.0) > DEFAULT.trace:
        raise ValidationError(f"trace is {np.sum(w):.12f}, expected 1")
    if w[0] < -DEFAULT.psd:
        raise ValidationError(f"negative eigenvalue {w[0]:.3e}")
    return DensityMatrix(matrix=ob.matrix, spectrum=w,
                         eigenbasis=ob.eigenbasis)


def pure_state(v) -> PureState:
    """v checked to be a unit vector; a PureState is returned as it is."""
    if isinstance(v, PureState):
        return v
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValidationError(f"expected a vector, got shape {v.shape}")
    require_finite(v)
    with np.errstate(over="ignore"):   # an overflow is inf, refused below
        n = np.linalg.norm(v)
    if abs(n - 1.0) > DEFAULT.norm:
        raise ValidationError(f"norm is {n:.12f}, expected 1")
    return PureState(vector=v / n)


# ---------------------------------------------------------------------------
# seeded samplers


def random_observable(d: int, rng) -> np.ndarray:
    """Gaussian Hermitian matrix, entries O(1)."""
    rng = np.random.default_rng(rng)
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (G + G.conj().T) / 2.0


def random_density(d: int, rng) -> np.ndarray:
    """Random density matrix: G G^dag / tr for a Gaussian d x d factor."""
    rng = np.random.default_rng(rng)
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return M / np.trace(M).real


# ---------------------------------------------------------------------------
# JSON wire format


def array_to_json(a) -> dict:
    """Encode a vector or matrix as {"dim": n, "re": ..., "im": ...}."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1 or (a.ndim == 2 and a.shape[0] == a.shape[1]):
        return {"dim": int(a.shape[0]), "re": a.real.tolist(),
                "im": a.imag.tolist()}
    raise ValidationError(f"cannot encode array of shape {a.shape}")


def array_from_json(obj) -> np.ndarray:
    """Decode the wire format back into a 1-D or 2-D complex ndarray.

    "dim" is either the side length n or the full shape, [n] or [n, n].
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    try:
        dim = obj["dim"]
        # int() would also take true, "2" and 2.5; none is a side length
        if not all(isinstance(n, (int, float)) and not isinstance(n, bool)
                   and n == int(n)
                   for n in (dim if isinstance(dim, list) else [dim])):
            raise SchemaError(f"dim must hold integers, got {dim!r}")
        dim = [int(n) for n in dim] if isinstance(dim, list) else int(dim)
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"non-numeric payload: {exc}") from exc
    if re.shape != im.shape:
        raise SchemaError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    if re.ndim not in (1, 2):
        raise SchemaError(f"payload must be 1-D or 2-D, got {re.ndim}-D")
    # "dim" is n for either rank, or the shape itself: [n] or [n, n]
    shape = tuple(dim) if isinstance(dim, list) else (dim,) * re.ndim
    if re.shape != shape or len(set(shape)) != 1:
        raise SchemaError(f"payload shape {re.shape} does not match "
                          f"dim {obj['dim']}")
    # not re + 1j * im, which warns at an infinite im
    out = re.astype(complex)
    out.imag = im
    return out
