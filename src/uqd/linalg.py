"""Dense complex linear-algebra kernel used by every other module.

Conventions, fixed once for the whole package:

* Operators are square ``numpy`` arrays of complex dtype; pure states are
  1-D arrays of amplitudes with unit Euclidean norm.
* Vectorization is column-stacking: ``vec(M)[i + rows*j] = M[i, j]``.  Under
  this convention the matrix of the map ``rho -> K rho K^+`` is
  ``kron(K.conj(), K)``.
* All magnitude comparisons use the Frobenius norm against a mixed
  absolute/relative cutoff ``max(atol, rtol * scale)``.

Everything here is pure and stateless, so it is safe to share inputs and
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ValidationError

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative comparison tolerance; both parts finite and >= 0."""

    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 <= self.atol < np.inf and 0 <= self.rtol < np.inf):
            raise ValidationError("tolerance components must be finite and non-negative")

    def cutoff(self, scale: float) -> float:
        """Threshold for comparing quantities of the given magnitude."""
        return max(self.atol, self.rtol * abs(scale))


DEFAULT_TOL = Tolerance()


def as_operator(entries) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValidationError("matrices must have at least one row and column")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValidationError("matrix entries must be finite")
    return mat


def dagger(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).conj().T


def frobenius(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(vector: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`vec`; assumes a square matrix unless ``rows`` given."""
    vector = np.asarray(vector).reshape(-1)
    if rows is None:
        rows = int(round(np.sqrt(vector.size)))
        if rows * rows != vector.size:
            raise ValidationError("cannot unvec: length is not a perfect square")
    return vector.reshape((rows, vector.size // rows), order="F")


def normalize(psi: np.ndarray) -> np.ndarray:
    """Scale a state vector to unit norm, rejecting non-finite entries.

    Only a vector whose norm overflows, or underflows (squares to a subnormal
    number), is first divided by its largest real or imaginary part, so every
    other vector keeps its bits."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(psi)):
        raise ValidationError("state vector entries must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    if not np.sqrt(np.finfo(float).tiny) <= norm < np.inf:
        parts = np.ascontiguousarray(psi).view(float)
        top = np.max(np.abs(parts), initial=0.0)
        if top == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return normalize((parts / top).view(complex))
    return psi / norm


def density(psi: np.ndarray) -> np.ndarray:
    """Pure density matrix |psi><psi| of a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def numerical_rank(mat: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above ``max(atol, rtol * sigma_max)``."""
    mat = as_operator(mat)
    sigma = np.linalg.svd(mat, compute_uv=False)
    if sigma.size == 0:
        return 0
    return int(np.count_nonzero(sigma > tol.cutoff(sigma[0])))


def proportionality_coefficient(
    a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Optional[complex]:
    """Coefficient ``lam`` with ``a = lam * b``, or ``None`` if not proportional.

    ``lam`` is the Frobenius-inner-product projection ``<b, a> / <b, b>`` and
    is accepted when the residual ``|a - lam b|_F`` falls below the cutoff for
    ``|a|_F``.  A zero ``b`` is rejected outright.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _proportionality(a, b, frobenius(a), frobenius(b) ** 2, tol)


def _proportionality(
    a: np.ndarray, b: np.ndarray, norm_a: float, sq_b: float, tol: Tolerance
) -> Optional[complex]:
    """:func:`proportionality_coefficient` of two valid operators of equal
    shape, given ``|a|_F`` and ``|b|_F ** 2``."""
    if sq_b <= tol.atol**2:
        raise ValidationError("degenerate reference operator")
    lam = complex(np.vdot(b, a) / sq_b)
    if frobenius(a - lam * b) > tol.cutoff(norm_a):
        return None
    return lam


def superoperator_matrix(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of ``rho -> sum_k K_k rho K_k^+`` on column-stacked inputs.

    Two operator lists generate the same completely positive map exactly when
    these matrices agree.  The decision path never builds this dim^2 x dim^2
    matrix: it compares Frobenius norms of such sums through
    :func:`kron_sum_norm`.  The matrix serves the mean-state check and the
    tests.
    """
    ops = [as_operator(k) for k in kraus]
    if not ops:
        raise ValidationError("operator list must be non-empty")
    dim = ops[0].shape[0]
    for op in ops:
        if op.shape != (dim, dim):
            raise ValidationError(
                f"operators must be square with equal dimension; got {op.shape}"
            )
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in ops:
        out += np.kron(op.conj(), op)
    return out


def kron_sum_norm(lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]) -> float:
    """Frobenius norm of ``sum_i kron(lefts[i], rights[i])`` without forming it.

    Realignment permutes the entries of ``kron(A, B)`` into the outer product
    ``vec(A) vec(B)^T`` (Van Loan & Pitsianis, 1993), so the norm equals
    ``|U V^T|_F`` for ``U``, ``V`` stacking the vectorised factors as columns.
    With ``U = Q_u R_u`` and ``V = Q_v R_v`` that is ``|R_u R_v^T|_F``, at
    O(m^2 n) cost for m terms of n entries.  Orthogonal factors keep the
    rounding error at ``eps`` times the terms' size, so a gap far below the
    terms (a relative cutoff of 1e-10) is still resolved; expanding the norm
    into Gram traces would square that error.

    This is the all-columns case of :func:`kron_sum_core`.  ``Q_u`` and
    ``Q_v`` have orthonormal columns, so the terms of any column subset ``S``
    have the norm of ``R_u[:, S] R_v[:, S]^T``: one QR per stack serves
    every subset sum, and a difference of two subset sums is the difference
    of their cores.  Householder QR is columnwise backward stable (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 19.3): the
    computed ``R`` is exact for a stack perturbed column by column by
    ``eps`` times that column's norm.  So a subset's core carries rounding
    of ``eps`` times its own terms' size, not the whole stack's, and the
    argument above holds for each subset.
    """
    if len(lefts) != len(rights) or not lefts:
        raise ValidationError("Kronecker sum needs equally many left and right factors, at least one")
    return frobenius(kron_sum_core(stack_factor(lefts), stack_factor(rights)))


def stack_factor(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Triangular factor ``R`` of a QR of the vectorised factors stacked as
    columns; column ``i`` of ``R`` belongs to ``factors[i]``."""
    stack = np.stack([np.asarray(f, dtype=complex).reshape(-1) for f in factors], axis=1)
    return np.linalg.qr(stack, mode="r")


def kron_sum_core(r_lefts: np.ndarray, r_rights: np.ndarray, columns=slice(None)) -> np.ndarray:
    """``R_u[:, S] R_v[:, S]^T`` for the :func:`stack_factor` of the left and
    right factors: ``sum_{i in S} kron(lefts[i], rights[i])`` in the stacks'
    orthonormal bases, with the same Frobenius norm (see
    :func:`kron_sum_norm`)."""
    return r_lefts[:, columns] @ r_rights[:, columns].T


def identity_shift(mat: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Optional[complex]:
    """Scalar ``z`` with ``mat = z * 1``, or ``None`` if no such scalar fits."""
    mat = as_operator(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError("identity shift requires a square matrix")
    dim = mat.shape[0]
    z = complex(np.trace(mat) / dim)
    if frobenius(mat - z * np.eye(dim)) > tol.cutoff(frobenius(mat)):
        return None
    return z


def matrix_exponential(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants.

    scipy is imported on use: within ``uqd`` only the mean-state check
    calls this, and the import would be most of ``import uqd``'s time."""
    import scipy.linalg

    mat = as_operator(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError("matrix exponential requires a square matrix")
    return scipy.linalg.expm(mat)


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Build (or pass through) a deterministic random generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_pure_state(dim: int, seed: SeedLike) -> np.ndarray:
    """Haar-distributed unit vector: normalized complex Gaussian entries."""
    if dim < 1:
        raise ValidationError("state dimension must be at least 1")
    rng = as_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(raw)


def haar_isometry(rows: int, cols: int, seed: SeedLike) -> np.ndarray:
    """Haar-random isometry (rows x cols, rows >= cols) via QR."""
    if rows < cols:
        raise ValidationError("an isometry needs at least as many rows as columns")
    rng = as_rng(seed)
    raw = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of ``a - b``."""
    diff = as_operator(a) - as_operator(b)
    return float(0.5 * np.sum(np.linalg.svd(diff, compute_uv=False)))
