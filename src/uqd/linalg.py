"""Dense complex linear-algebra kernel used by every other module, with the
package's one matrix exponential, :func:`exp_ladder`, in numpy alone.

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

STEP_SCALE = 0.01  # the largest |a| * step of `exp_ladder`'s series
# |H_eff| * step <= STEP_SCALE, so the degree-8 Taylor polynomial of the
# squared norm over one step errs by at most 0.02**9 / 9! ~ 1e-21
TAYLOR_ORDER = 8


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


def as_matrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex array of at least one row and column."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValidationError("matrices must have at least one row and column")
    return mat


def require_finite(mats: np.ndarray) -> None:
    """Reject a matrix, or a stack of them, with a non-finite entry."""
    if not np.isfinite(mats).all():
        raise ValidationError("matrix entries must be finite")


def as_operator(entries) -> np.ndarray:
    """`as_matrix`, rejecting non-finite entries."""
    mat = as_matrix(entries)
    require_finite(mat)
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
    columns; column ``i`` of ``R`` belongs to ``factors[i]``.  ``factors``
    is a sequence of equal-shape arrays, or one array holding them along its
    first axis.  LAPACK reads a copy in its own layout, so either form gives
    the same bits."""
    stack = np.asarray(factors, dtype=complex)
    return np.linalg.qr(stack.reshape(len(stack), -1).T, mode="r")


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


def exp_ladder(a: np.ndarray, step: float, top: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Scaling and squaring: ``taylor[i] = a^i / i!`` to ``TAYLOR_ORDER``, and
    an iterator over ``y = exp(a w) - 1`` for ``w = step * 2**j``, ``j = 0 ..
    top``: Horner's rule on the terms (to ``0.01**9 / 9!`` where ``|a| step <=
    STEP_SCALE``), then ``y <- 2 y + y y``, which keeps the low digits that
    squaring ``1 + y`` would lose."""
    taylor = np.empty((TAYLOR_ORDER + 1, *a.shape), dtype=a.dtype)
    taylor[0] = np.eye(len(a))
    for i in range(1, TAYLOR_ORDER + 1):
        taylor[i] = taylor[i - 1] @ a / i

    def levels():
        y = np.zeros_like(a)
        for term in taylor[:0:-1]:  # Horner's rule
            y = (y + term) * step
        yield y
        for _ in range(top):
            yield (y := 2.0 * y + y @ y)

    return taylor, levels()


def matrix_exponential(mat: np.ndarray) -> np.ndarray:
    """``exp(mat)``: ``1 + y`` at the widest level of :func:`exp_ladder` from
    ``step = 2**-top``, ``top`` the least with ``bound * step <= STEP_SCALE``
    for ``bound = sqrt(|mat|_1) sqrt(|mat|_inf) >= |mat|_2`` (no SVD).  An
    overflowing bound or level is a named error.  The error is about ``eps
    |mat| max(1, exp(mu))``, ``mu`` the top eigenvalue of ``(mat + mat^+) / 2``:
    relative on Liouvillians, not where ``exp(mat)`` is far below that."""
    mat = as_operator(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError("matrix exponential requires a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # roots first: the product may overflow
        bound = np.sqrt(np.linalg.norm(mat, 1)) * np.sqrt(np.linalg.norm(mat, np.inf))
        if not np.isfinite(bound):
            raise ValidationError("matrix exponential: the norm bound of the matrix overflows")
        top = 0
        while bound * 2.0**-top > STEP_SCALE:
            top += 1
        for y in exp_ladder(mat, 2.0**-top, top)[1]:
            if not np.isfinite(y).all():
                raise NumericalError(f"matrix exponential overflows (norm bound {bound:.6g})")
    return y + np.eye(len(mat))
