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

A block of :func:`partition` computes its summaries the first time they are
read, from its members and its first member's direction.  Deciding reads
none of them: theorem 1 compares the members' actions (:func:`block_gaps`),
and theorems 2 and 3 read only the member indices.  The ``sjed``,
``minimize`` and ``gauge`` commands read them.

Rank-1 operators that happen to be mutually proportional are still
classified as reset (parallel images take precedence), which keeps each
class homogeneous in type.

One test decides the relation: two jumps share destinations when both have
numerical rank 1 or both do not, and the sine of the angle between their
unit directions (leading image, or flattened operator) is at most
``tol.cutoff(1.0)``.  :func:`partition` takes every jump's rank and leading
image from one batched SVD of the stacked jumps; numpy runs the same LAPACK
call on each matrix of a stack, so each gives the bits of its own SVD.  It
returns exact classes, or raises :class:`NumericalError` where the relation
is not transitive.

The composite action of a class, ``rho -> sum_k J_k rho J_k^+``, is the
canonical object compared between representations: classes match exactly
when the Frobenius gap between the two actions' superoperator matrices is
below the cutoff.  :func:`action_gap` computes that gap from the jump
operators themselves, so no dim^2 x dim^2 matrix is built to compare blocks.
Every block pairing reads the gap matrix ``gaps[alpha, beta]`` between two
representations' blocks, and its mask of matches, from :func:`block_gaps`.
Each block's action is a column subset of one stack of both sides' jumps,
so :func:`block_gaps` takes one QR of that stack and reads every norm and
gap from the subsets' cores (:func:`uqd.linalg.kron_sum_core`).  Householder
QR is columnwise backward stable, so a block's gap is rounded at ``eps``
times the size of the blocks compared, not of the whole stack.

All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    frobenius,
    kron_sum_core,
    kron_sum_norm,
    stack_factor,
    superoperator_matrix,
)
from .representation import Representation, require_valid

# Entries smaller than this fraction of the largest magnitude are ignored
# when picking the phase-fixing pivot, so roundoff zeros cannot be chosen.
_PHASE_PIVOT_REL = 1e-6


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


class ResetBlock:
    """Rank-1 class resetting onto ``chi``; ``gamma_op`` carries the weights.

    A block built by hand is given both; a block of :func:`partition` is
    given its representation and its first member's unit leading image
    ``direction``, and computes each the first time it is read."""

    kind = "reset"

    def __init__(
        self,
        indices: Sequence[int],
        chi: Optional[np.ndarray] = None,
        gamma_op: Optional[np.ndarray] = None,
        *,
        rep: Optional[Representation] = None,
        direction: Optional[np.ndarray] = None,
    ) -> None:
        self.indices = tuple(indices)
        self._rep, self._direction = rep, direction
        if chi is not None:
            self.chi = chi
        if gamma_op is not None:
            self.gamma_op = gamma_op

    @cached_property
    def chi(self) -> np.ndarray:
        return fix_vector_phase(self._direction)

    @cached_property
    def gamma_op(self) -> np.ndarray:
        rep = self._rep
        gamma = np.zeros((rep.dim, rep.dim), dtype=complex)
        for k in self.indices:
            gamma += dagger(rep.jumps[k]) @ rep.jumps[k]
        return gamma


class NonResetBlock:
    """Class of mutual multiples of ``canonical_op`` (rank >= 2, unit norm).

    A block built by hand is given ``weight`` and ``canonical_op``; a block
    of :func:`partition` is given its representation and its first member's
    unit flattened ``direction``, and computes each the first time it is
    read.  :func:`partition` has related every member to that direction, so
    each member's coefficient is its projection onto the canonical operator."""

    kind = "non-reset"

    def __init__(
        self,
        indices: Sequence[int],
        weight: Optional[float] = None,
        canonical_op: Optional[np.ndarray] = None,
        *,
        rep: Optional[Representation] = None,
        direction: Optional[np.ndarray] = None,
    ) -> None:
        self.indices = tuple(indices)
        self._rep, self._direction = rep, direction
        if weight is not None:
            self.weight = weight
        if canonical_op is not None:
            self.canonical_op = canonical_op

    @cached_property
    def canonical_op(self) -> np.ndarray:
        return fix_phase(self._direction.reshape(self._rep.dim, self._rep.dim))

    @cached_property
    def weight(self) -> float:
        canonical, jumps = self.canonical_op, self._rep.jumps
        sq = frobenius(canonical) ** 2
        weight_sq = sum(abs(complex(np.vdot(canonical, jumps[k]) / sq)) ** 2 for k in self.indices)
        return float(np.sqrt(weight_sq))


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


def are_jed(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two nonzero square operators of one shape have equal
    destinations everywhere: their two-jump :func:`partition` has one block."""
    return partition(Representation(None, [a, b]), tol).block_count == 1


def partition(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> SjedPartition:
    """Exact equal-destination classes of the jumps, by smallest member.

    Two jumps share destinations when they are of one kind (rank 1 or not)
    and the sine of the angle between their unit directions is at most
    ``tol.cutoff(1.0)``.  A jump has rank 1 when one singular value exceeds
    ``tol.cutoff`` of the largest; its direction is then its leading image,
    else the flattened jump over its norm.  Each jump joins the class whose
    members are exactly the earlier jumps it relates to, or opens a class
    when it relates to none.  Any other pattern means the relation is not
    transitive at this tolerance, which raises :class:`NumericalError`
    whatever the order of the jumps.  Each block computes its summaries
    (``chi`` and ``gamma_op``, or ``canonical_op`` and ``weight``) the first
    time they are read.
    """
    require_valid(rep, tol)
    cutoff = tol.cutoff(1.0)
    images, sigmas, _ = np.linalg.svd(rep.jump_stack)
    # tol.cutoff of each jump's largest singular value, elementwise
    above = sigmas > np.maximum(tol.atol, tol.rtol * np.abs(sigmas[:, :1]))
    kinds = (np.count_nonzero(above, axis=1) == 1).tolist()
    directions = [
        images[k, :, 0] if reset else rep.jumps[k].reshape(-1) / norm
        for k, (reset, norm) in enumerate(zip(kinds, rep.jump_norms))
    ]
    classes: List[List[int]] = []
    class_of: List[int] = []
    for j, (reset, v) in enumerate(zip(kinds, directions)):
        # the sine as a residual norm: ``1 - |cos|`` is half its square, so
        # it would join directions 1e-5 apart at rtol 1e-10
        related = [
            i
            for i in range(j)
            if kinds[i] == reset
            and frobenius(v - np.vdot(directions[i], v) * directions[i]) <= cutoff
        ]
        if not related:
            classes.append([])
            class_of.append(len(classes) - 1)
        elif related == classes[class_of[related[0]]]:
            class_of.append(class_of[related[0]])
        else:
            raise NumericalError(
                f"equal-destination relation is not transitive at this tolerance (jump {j + 1})"
            )
        classes[class_of[j]].append(j)
    return SjedPartition(
        tuple(
            (ResetBlock if kinds[g[0]] else NonResetBlock)(g, rep=rep, direction=directions[g[0]])
            for g in classes
        )
    )


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


def block_gaps(
    rep_b: Representation,
    parts_b: SjedPartition,
    rep_a: Representation,
    parts_a: SjedPartition,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Gap matrix between two representations' blocks, and its matches.

    ``gaps[alpha, beta]`` is the `action_gap` between block ``alpha`` of
    ``rep_b`` and block ``beta`` of ``rep_a``; the two blocks match when it
    is at most ``tol.cutoff(max(norm_b[alpha], norm_a[beta]))``, with each
    block's action norm.

    Every action is a sum of ``kron(conj(J), J)`` over a block's jumps, so
    one QR ``R`` of all jumps of both sides, vectorised, gives every block's
    core ``conj(R[:, S]) R[:, S]^T`` (:func:`uqd.linalg.kron_sum_core`; the
    left stack is ``conj`` of the right one).  Each norm is a core's and
    each gap the difference of two cores'."""
    r = stack_factor(np.concatenate([rep_b.jump_stack, rep_a.jump_stack]))
    r_lefts, offset = r.conj(), rep_b.n_jumps
    cores_a = [
        kron_sum_core(r_lefts, r, [offset + k for k in blk.indices]) for blk in parts_a.blocks
    ]
    norms_a = [frobenius(core) for core in cores_a]
    gaps = np.empty((parts_b.block_count, parts_a.block_count))
    cutoffs = np.empty_like(gaps)
    for alpha, blk in enumerate(parts_b.blocks):
        core = kron_sum_core(r_lefts, r, list(blk.indices))
        norm = frobenius(core)
        gaps[alpha] = [frobenius(core - other) for other in cores_a]
        cutoffs[alpha] = [tol.cutoff(max(norm, na)) for na in norms_a]
    return gaps, gaps <= cutoffs


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
    if residual > tol.cutoff(frobenius(block.gamma_op)):
        raise NumericalError(f"minimal block operators miss the composite action by {residual:.2e}")
    return ops


def minimize_representation(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> Representation:
    """Same Hamiltonian, with every block replaced by its minimal operators.

    Keeping each block's composite action fixed while leaving the
    Hamiltonian untouched is exactly what preserves the unravelled dynamics,
    so the result is trajectory-equivalent to the input with the identity
    block pairing and zero shift.  A reset block's operators all reset onto
    its first member's target, so their action is checked against the
    block's own jumps by :func:`action_gap`, as theorem 1 compares blocks:
    members whose targets differ within the partition's cutoff may still
    act differently beyond it.
    """
    parts = partition(rep, tol)
    jumps: List[np.ndarray] = []
    for alpha, block in enumerate(parts.blocks):
        ops = minimal_block_representation(block, tol)
        if isinstance(block, ResetBlock):
            members = block_jumps(rep, block)
            gap = action_gap(ops, members)
            if gap > tol.cutoff(action_gap(members)):
                raise NumericalError(
                    f"minimal operators of block {alpha + 1} miss its jumps' composite action by {gap:.2e}"
                )
        jumps.extend(ops)
    label = f"{rep.label}-minimal" if rep.label else "minimal"
    return Representation(hamiltonian=rep.hamiltonian.copy(), jumps=jumps, label=label)
