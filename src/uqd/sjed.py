"""Partition jump operators into sets of jumps with equal destinations (SJEDs).

Two jump operators share destinations exactly when, at every state, their
actions produce parallel output vectors (allowing either to vanish).  That
relation is an equivalence, and each class falls into one of two types:

* **reset**: every member has rank 1 and all images are parallel, so each
  firing resets the conditional state onto a fixed target ``chi``.  The class
  is summarized by ``chi`` and the Hermitian PSD weight matrix
  ``Gamma = sum_k J_k^+ J_k``; its composite action is
  ``rho -> Tr(Gamma rho) |chi><chi|``.
* **non-reset**: every member is a multiple of a single canonical operator
  of rank >= 2; the class is summarized by that operator (unit Frobenius
  norm, phase-fixed) and the combined weight ``lam = sqrt(sum_k |lam_k|^2)``.

Rank-1 operators that happen to be mutually proportional are still
classified as reset (parallel images take precedence), which keeps each
class homogeneous in type.

The composite action of a class, ``rho -> sum_k J_k rho J_k^+``, is the
canonical object compared between representations: classes match exactly
when the Frobenius gap between the two actions' superoperator matrices is
below the cutoff.  :func:`action_gap` computes that gap from the jump
operators themselves, so no dim^2 x dim^2 matrix is built to compare blocks.

All functions are pure; witness search owns its generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    SeedLike,
    Tolerance,
    as_rng,
    dagger,
    frobenius,
    kron_sum_norm,
    normalize,
    numerical_rank,
    proportionality_coefficient,
    random_pure_state,
    superoperator_matrix,
    trace_distance,
)
from .representation import (
    Representation,
    jump_destination,
    jump_rates,
    require_valid,
)

# Entries smaller than this fraction of the largest magnitude are ignored
# when picking the phase-fixing pivot, so roundoff zeros cannot be chosen.
_PHASE_PIVOT_REL = 1e-6

WITNESS_THRESHOLD = 1e-6


def fix_phase(mat: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant entry is real positive.

    The pivot is the first entry in a row-major scan whose magnitude exceeds
    ``1e-6`` of the largest magnitude; smaller entries are treated as zero.
    """
    mat = np.asarray(mat, dtype=complex)
    flat = mat.reshape(-1)
    magnitudes = np.abs(flat)
    top = magnitudes.max()
    if top == 0.0:
        raise ValidationError("cannot phase-fix the zero matrix")
    pivot = flat[np.argmax(magnitudes > _PHASE_PIVOT_REL * top)]
    return mat * (abs(pivot) / pivot)


def fix_vector_phase(v: np.ndarray) -> np.ndarray:
    return fix_phase(np.asarray(v, dtype=complex).reshape(-1, 1)).reshape(-1)


@dataclass(eq=False)
class ResetBlock:
    """Rank-1 class resetting onto ``chi``; ``gamma_op`` carries the weights."""

    indices: tuple[int, ...]
    chi: np.ndarray
    gamma_op: np.ndarray

    kind = "reset"


@dataclass(eq=False)
class NonResetBlock:
    """Class of mutual multiples of ``canonical_op`` (rank >= 2, unit norm)."""

    indices: tuple[int, ...]
    weight: float
    canonical_op: np.ndarray

    kind = "non-reset"


SjedBlock = Union[ResetBlock, NonResetBlock]


@dataclass(eq=False)
class SjedPartition:
    """Disjoint blocks covering all jump indices, ordered by smallest member."""

    blocks: tuple[SjedBlock, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of_channel(self, n_channels: int) -> np.ndarray:
        """Map channel index -> block index; errors on uncovered channels."""
        lookup = np.full(n_channels, -1, dtype=int)
        for alpha, block in enumerate(self.blocks):
            for k in block.indices:
                if k >= n_channels:
                    raise ValidationError(f"partition covers channel {k + 1} beyond d={n_channels}")
                lookup[k] = alpha
        if np.any(lookup < 0):
            missing = int(np.argmin(lookup)) + 1
            raise ValidationError(f"channel {missing} not covered by partition")
        return lookup


def _leading_image(mat: np.ndarray) -> np.ndarray:
    """Unit vector spanning the dominant left-singular direction."""
    u, _, _ = np.linalg.svd(mat)
    return u[:, 0]


def _reset_image(mat: np.ndarray, tol: Tolerance) -> Optional[np.ndarray]:
    """Leading image of a rank-1 operator, ``None`` for higher rank."""
    if numerical_rank(mat, tol) != 1:
        return None
    return _leading_image(mat)


def _jed(
    a: np.ndarray,
    b: np.ndarray,
    image_a: Optional[np.ndarray],
    image_b: Optional[np.ndarray],
    tol: Tolerance,
) -> bool:
    """Equal-destination relation of two valid operators, given their
    :func:`_reset_image` values."""
    if image_a is not None and image_b is not None:
        overlap = abs(np.vdot(image_a, image_b))
        return bool(1.0 - overlap <= tol.rtol)
    return proportionality_coefficient(a, b, tol) is not None


def are_jed(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two nonzero operators have equal destinations everywhere.

    By the classification dichotomy this holds exactly when both have rank 1
    with parallel images, or when one is a scalar multiple of the other.
    """
    if frobenius(a) <= tol.atol or frobenius(b) <= tol.atol:
        raise ValidationError("equal-destination test requires nonzero operators")
    if np.shape(a) != np.shape(b):
        raise ValidationError("equal-destination test requires equal shapes")
    image_a = _reset_image(a, tol)
    image_b = _reset_image(b, tol) if image_a is not None else None
    return _jed(a, b, image_a, image_b, tol)


def _classify(
    rep: Representation, indices: List[int], image: Optional[np.ndarray], tol: Tolerance
) -> SjedBlock:
    """Summarise one class; ``image`` is the first member's reset image."""
    first = rep.jumps[indices[0]]
    if image is not None:
        chi = fix_vector_phase(image)
        gamma = np.zeros((rep.dim, rep.dim), dtype=complex)
        for k in indices:
            gamma += dagger(rep.jumps[k]) @ rep.jumps[k]
        return ResetBlock(indices=tuple(indices), chi=chi, gamma_op=gamma)
    canonical = fix_phase(first / frobenius(first))
    weight_sq = 0.0
    for k in indices:
        lam = proportionality_coefficient(rep.jumps[k], canonical, tol)
        if lam is None:
            raise NumericalError(
                f"jump {k + 1} drifted off its canonical direction; tolerance mismatch"
            )
        weight_sq += abs(lam) ** 2
    return NonResetBlock(indices=tuple(indices), weight=float(np.sqrt(weight_sq)), canonical_op=canonical)


def partition(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> SjedPartition:
    """Group jumps into equal-destination classes via union-find."""
    require_valid(rep, tol)
    d = rep.n_jumps
    images = [_reset_image(jump, tol) for jump in rep.jumps]
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(d):
        for j in range(i + 1, d):
            if find(i) == find(j):
                continue
            if _jed(rep.jumps[i], rep.jumps[j], images[i], images[j], tol):
                parent[find(j)] = find(i)

    groups: dict[int, List[int]] = {}
    for k in range(d):
        groups.setdefault(find(k), []).append(k)
    ordered = sorted(groups.values(), key=min)
    return SjedPartition(tuple(_classify(rep, g, images[g[0]], tol) for g in ordered))


def composite_action(rep: Representation, block: SjedBlock) -> np.ndarray:
    """Superoperator matrix of the block's summed jump action."""
    return superoperator_matrix(block_jumps(rep, block))


def block_jumps(rep: Representation, block: SjedBlock) -> List[np.ndarray]:
    """The block's member operators, in index order."""
    return [rep.jumps[k] for k in block.indices]


def action_gap(jumps: Sequence[np.ndarray], others: Sequence[np.ndarray] = ()) -> float:
    """Frobenius norm of ``superoperator_matrix(jumps) - superoperator_matrix(others)``;
    the norm of the first action when ``others`` is empty.

    Both actions are sums of ``kron(conj(J), J)``, so the gap is one
    :func:`kron_sum_norm` over ``len(jumps) + len(others)`` terms, with no
    dim^2 x dim^2 matrix built.
    """
    lefts = [np.conj(j) for j in (*jumps, *others)]
    rights = [*jumps, *(-j for j in others)]
    return kron_sum_norm(lefts, rights)


def _sorted_eigh(gamma: np.ndarray, cutoff: float):
    """Eigenpairs above ``cutoff``, by descending eigenvalue; phase-fixed
    eigenvectors break exact ties lexicographically."""
    w, v = np.linalg.eigh(gamma)
    keep = [i for i in range(w.size) if w[i] > cutoff]
    vectors = {i: fix_vector_phase(v[:, i]) for i in keep}

    def sort_key(i: int):
        lex = tuple((float(e.real), float(e.imag)) for e in vectors[i])
        return (-w[i], lex)

    return [(float(w[i]), vectors[i]) for i in sorted(keep, key=sort_key)]


def minimal_block_representation(
    block: SjedBlock, tol: Tolerance = DEFAULT_TOL
) -> List[np.ndarray]:
    """Smallest operator list generating the block's composite action.

    Reset blocks diagonalize the weight matrix and emit one rank-1 operator
    per eigenvalue above ``atol * Tr(Gamma)``; non-reset blocks collapse to
    the single weighted canonical operator, whose action is the block's by
    construction.

    The reset operators are verified before being returned.  They are
    ``J_i = sqrt(w_i) chi v_i^+``, so their summed action is
    ``vec(chi chi^+) vec(sum_i J_i^+ J_i)^+`` against the block's
    ``vec(chi chi^+) vec(Gamma)^+``.  With ``|chi| = 1`` both Frobenius norms
    factor: the gap between the actions is ``|sum_i J_i^+ J_i - Gamma|_F`` and
    the target's norm is ``|Gamma|_F``, so no dim^2 x dim^2 matrix is built.
    """
    if isinstance(block, NonResetBlock):
        return [block.weight * block.canonical_op]
    cutoff = tol.atol * float(np.real(np.trace(block.gamma_op)))
    ops = [
        np.sqrt(value) * np.outer(block.chi, vector.conj())
        for value, vector in _sorted_eigh(block.gamma_op, cutoff)
    ]
    if not ops:
        raise NumericalError("block weight matrix has no eigenvalue above threshold")
    residual = frobenius(sum(dagger(op) @ op for op in ops) - block.gamma_op)
    if residual > Tolerance(1e-10, 1e-10).cutoff(frobenius(block.gamma_op)):
        raise NumericalError(f"minimal block operators miss the composite action by {residual:.2e}")
    return ops


def minimize_representation(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> Representation:
    """Same Hamiltonian, with every block replaced by its minimal operators.

    Keeping each block's composite action fixed (verified per block) while
    leaving the Hamiltonian untouched is exactly what preserves the
    unravelled dynamics, so the result is trajectory-equivalent to the input
    with the identity block pairing and zero shift.
    """
    parts = partition(rep, tol)
    jumps: List[np.ndarray] = []
    for block in parts.blocks:
        jumps.extend(minimal_block_representation(block, tol))
    label = f"{rep.label}-minimal" if rep.label else "minimal"
    return Representation(hamiltonian=rep.hamiltonian.copy(), jumps=jumps, label=label)


def _witness_ok(
    psi: np.ndarray,
    reps: Sequence[Representation],
    parts: Sequence[SjedPartition],
    threshold: float,
) -> bool:
    for rep, part in zip(reps, parts):
        if np.any(jump_rates(rep, psi) <= threshold):
            return False
        destinations = [jump_destination(rep, k, psi) for k in range(rep.n_jumps)]
        lookup = part.block_of_channel(rep.n_jumps)
        for i in range(rep.n_jumps):
            for j in range(i + 1, rep.n_jumps):
                if lookup[i] == lookup[j]:
                    continue
                if trace_distance(destinations[i], destinations[j]) <= threshold:
                    return False
    return True


def find_witness_state(
    rep_a: Representation,
    rep_b: Representation,
    seed: SeedLike,
    threshold: float = WITNESS_THRESHOLD,
    max_attempts: int = 1000,
    initial: Optional[np.ndarray] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """State where all rates exceed ``threshold`` and distinct blocks of each
    representation have destinations separated in trace distance.

    Starts from a Haar sample (or the supplied candidate) and repairs
    degeneracies by mixing in random directions with shrinking amplitude,
    resampling afresh every ten attempts.
    """
    if rep_a.dim != rep_b.dim:
        raise ValidationError("representations act on different Hilbert-space dimensions")
    reps = (rep_a, rep_b)
    parts = (partition(rep_a, tol), partition(rep_b, tol))
    rng = as_rng(seed)
    candidate = normalize(initial) if initial is not None else random_pure_state(rep_a.dim, rng)
    for attempt in range(max_attempts):
        if _witness_ok(candidate, reps, parts, threshold):
            return candidate
        if attempt % 10 == 9:
            candidate = random_pure_state(rep_a.dim, rng)
        else:
            amplitude = 2.0 ** -(1 + attempt % 10)
            direction = random_pure_state(rep_a.dim, rng)
            candidate = normalize(candidate + amplitude * direction)
    raise NumericalError(
        "no witness found: model is near-degenerate or the threshold is too strict"
    )
