"""Hermitian linear algebra core shared by every other module.

Wraps numpy's Hermitian eigensolver with explicit validation (Hermiticity,
reconstruction residual) and provides the state / observable containers,
tensor-product helpers, energy levels and dephasing, and the JSON wire
format for matrices and vectors.

Each container owns the eigendecomposition of its operand: spectrum
ascending, eigenbasis columns aligned with it, both read-only.  eig_of
hands that cached pair to every layer, so a validated operand is
eigendecomposed exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .errors import (
    DimMismatchError,
    NonHermitianError,
    SchemaError,
    ValidationError,
)


def require_finite(a: np.ndarray) -> np.ndarray:
    """a itself; raises ValidationError if an entry is NaN or infinite,
    which every later check (compared with >) would let through."""
    if not np.isfinite(a).all():
        raise ValidationError(f"non-finite entry in an array of shape {a.shape}")
    return a


def require_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {M.shape}")
    return require_finite(M)


def eig_hermitian(M):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    stack of shape (..., n, n).

    Returns (w, V) with w ascending along its last axis and the columns
    of V the matching orthonormal eigenvectors; a stack gives stacks,
    each entry bit for bit what the single matrix gives.  Raises
    NonHermitianError if a matrix is not Hermitian within herm, and
    ValidationError if the reconstruction V diag(w) V^dag misses it by
    more than recon (which would indicate a solver failure, not bad
    input).  Both limits are scaled by each matrix's own
    max(1, max|M_ij|), so operators in any units are judged alike.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimMismatchError(
            f"expected a square matrix or a stack of them, got shape {M.shape}")
    # one flat reduction per matrix, cheaper than reducing an axis pair;
    # a single matrix is a stack of one, so the checks below see arrays
    flat = (math.prod(M.shape[:-2]), M.shape[-1] ** 2)
    Mh = M.conj().swapaxes(-1, -2)
    scale = np.abs(M).reshape(flat).max(axis=-1, initial=1.0)
    dev = np.abs(M - Mh).reshape(flat).max(axis=-1, initial=0.0)
    bad = dev > DEFAULT.herm * scale
    if np.count_nonzero(bad):
        raise NonHermitianError("matrix deviates from Hermiticity by "
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
    """Square root of a positive semidefinite Hermitian matrix.

    A DensityMatrix or HermitianObservable lends its cached
    eigendecomposition (see eig_of).  Eigenvalues in [-psd, 0) are treated
    as zero.
    """
    w, V = eig_of(M)
    if w.size and w[0] < -DEFAULT.psd:
        raise ValidationError(f"matrix has a negative eigenvalue {w[0]:.3e}")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def tensor(*ops) -> np.ndarray:
    """Kronecker product of the given matrices (or vectors), left to right."""
    if not ops:
        raise ValidationError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(M, dims, keep) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (dA, dB); keep = "A" keeps the first factor, "B" the second.
    """
    M = require_square(M)
    dA, dB = int(dims[0]), int(dims[1])
    if dA * dB != M.shape[0]:
        raise DimMismatchError(
            f"dims {dims} inconsistent with matrix of size {M.shape[0]}"
        )
    T = M.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("ijkj->ik", T)
    if keep == "B":
        return np.einsum("ijil->jl", T)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def noninteracting_hamiltonian(terms) -> np.ndarray:
    """Sum_i I x ... x H_i x ... x I for local terms acting on a chain."""
    terms = [require_square(h) for h in terms]
    dims = [h.shape[0] for h in terms]
    total = np.zeros((int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
    for i, h in enumerate(terms):
        left = np.eye(int(np.prod(dims[:i])))
        right = np.eye(int(np.prod(dims[i + 1:])))
        total += tensor(left, h, right)
    return total


def level_labels(w) -> np.ndarray:
    """Level index 0, 1, ... of each value of an ascending array.

    A step of gap_cutoff or more between neighbours starts a new level,
    so values linked by steps below it share a level.
    """
    w = np.asarray(w, dtype=float)
    return np.cumsum(np.diff(w, prepend=w[:1]) >= DEFAULT.gap_cutoff)


def dephase(rho, H) -> np.ndarray:
    """Project a state onto the eigenspaces of H (pinching).

    Eigenvalues of H linked by steps below gap_cutoff count as one level
    (see level_labels), so exact degeneracies survive intact.
    """
    rho = require_square(state_matrix(rho))
    w, V = obs_eig(H)
    if w.size != rho.shape[0]:
        raise DimMismatchError("state and Hamiltonian dimensions differ")
    lab = level_labels(w)
    rt = V.conj().T @ rho @ V
    return V @ (rt * (lab[:, None] == lab[None, :])) @ V.conj().T


def fidelity(rho, sigma) -> float:
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    For a pure rho this reduces to sqrt(<psi|sigma|psi>).  A DensityMatrix
    rho lends its cached eigendecomposition to sqrt(rho).
    """
    sq = psd_sqrt(rho)
    sigma = state_matrix(sigma)
    if sq.shape != sigma.shape:
        raise DimMismatchError("states have different dimensions")
    inner = sq @ sigma @ sq
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class HermitianObservable:
    """Validated Hermitian matrix with a cached eigendecomposition.

    spectrum is ascending; eigenbasis columns align with it.  Both arrays
    are read-only.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(repr=False)
    eigenbasis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix.

    spectrum is ascending (largest population last); eigenbasis columns
    align with it.  Both arrays are read-only.  support_rank counts
    eigenvalues above rank_cutoff.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(repr=False)
    eigenbasis: np.ndarray = field(repr=False)
    support_rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    w.flags.writeable = V.flags.writeable = False
    return HermitianObservable(matrix=M, spectrum=w, eigenbasis=V)


def density_matrix(M) -> DensityMatrix:
    M = require_square(M)
    w, V = eig_hermitian(M)
    w.flags.writeable = V.flags.writeable = False
    if abs(np.sum(w) - 1.0) > DEFAULT.trace:
        raise ValidationError(f"trace is {np.sum(w):.12f}, expected 1")
    if w[0] < -DEFAULT.psd:
        raise ValidationError(f"negative eigenvalue {w[0]:.3e}")
    rank = int(np.count_nonzero(w > DEFAULT.rank_cutoff))
    return DensityMatrix(matrix=M, spectrum=w, eigenbasis=V, support_rank=rank)


def pure_state(v) -> PureState:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimMismatchError(f"expected a vector, got shape {v.shape}")
    require_finite(v)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > DEFAULT.norm:
        raise ValidationError(f"norm is {n:.12f}, expected 1")
    return PureState(vector=v / n)


def state_matrix(x) -> np.ndarray:
    """Coerce DensityMatrix / PureState / vector / matrix to a density matrix
    as a plain ndarray. No validation beyond shape and finite entries."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, PureState):
        return x.density()
    a = np.asarray(x, dtype=complex)
    if a.ndim == 1:
        a = require_finite(a)
        return np.outer(a, a.conj())
    return require_square(a)


def obs_matrix(x) -> np.ndarray:
    """Coerce HermitianObservable / matrix to a plain ndarray."""
    if isinstance(x, HermitianObservable):
        return x.matrix
    return require_square(x)


def eig_of(x):
    """(w ascending, V) of a state or observable.

    A DensityMatrix or HermitianObservable hands back its cached,
    read-only pair; anything else is coerced like state_matrix (a vector
    or PureState stands for its density matrix) and decomposed by one
    eig_hermitian call.
    """
    if isinstance(x, (DensityMatrix, HermitianObservable)):
        return x.spectrum, x.eigenbasis
    return eig_hermitian(state_matrix(x))


def obs_eig(H):
    """(w ascending, V) of a Hamiltonian.

    A HermitianObservable hands back its cached pair; anything else goes
    through obs_matrix first, so a vector raises DimMismatchError instead
    of standing for |h><h| as it would in eig_of.
    """
    if isinstance(H, HermitianObservable):
        return H.spectrum, H.eigenbasis
    return eig_hermitian(obs_matrix(H))


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


def random_pure(d: int, rng) -> np.ndarray:
    rng = np.random.default_rng(rng)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON wire format


def array_to_json(a) -> dict:
    """Encode a vector or matrix as {"dim": n, "re": ..., "im": ...}."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1 or (a.ndim == 2 and a.shape[0] == a.shape[1]):
        return {"dim": int(a.shape[0]), "re": a.real.tolist(),
                "im": a.imag.tolist()}
    raise DimMismatchError(f"cannot encode array of shape {a.shape}")


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
    return re + 1j * im
