"""Reference decision path: generators and composite actions as dense
dim^2 x dim^2 superoperator matrices.

This is how ``uqd.equivalence`` compared them before it took every Frobenius
norm from low-rank factors (``uqd.linalg.kron_sum_norm``), kept so tests can
hold the factor path to it.  Both compute the same norms against the same
cutoffs, so their documents must be equal; only the rounding of each norm
differs, by about ``eps`` times the terms' size.  Theorem 2 compares no
superoperator and is taken from the package.

:func:`block_action_matrix` rebuilds a block's composite action from its
canonical data (``chi`` and ``Gamma``, or weight and canonical operator), so
tests can hold the partition's summaries to the jumps' own action, and
:func:`paired_block_gap` is the dense form of the block value that
``uqd.ensemble.rate_field_scan`` reports.

:func:`eager_partition` is the partition as it was when every block was
summarised as it was built (:func:`classify`), per jump, so tests can hold
the package's blocks, which summarise themselves on first read, to its bits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from uqd.equivalence import (
    EquivalenceReport,
    Theorem1Verdict,
    _hamiltonian_shift,
    check_theorem2,
)
from uqd.errors import NumericalError, ValidationError
from uqd.linalg import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    density,
    frobenius,
    superoperator_matrix,
    vec,
)
from uqd.representation import Representation, liouvillian_matrix, require_valid
from uqd.sjed import (
    NonResetBlock,
    ResetBlock,
    SjedBlock,
    SjedPartition,
    composite_action,
    fix_phase,
    fix_vector_phase,
    partition,
)


def kron_sum_norm(lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]) -> float:
    """``|sum_i kron(lefts[i], rights[i])|_F`` from the full matrix."""
    return frobenius(sum(np.kron(a, b) for a, b in zip(lefts, rights)))


def block_action_matrix(block: SjedBlock) -> np.ndarray:
    """Composite action reconstructed from the block's canonical data."""
    if isinstance(block, ResetBlock):
        return np.outer(vec(density(block.chi)), vec(block.gamma_op).conj())
    return superoperator_matrix([block.weight * block.canonical_op])


def paired_block_gap(
    rep_a: Representation,
    rep_b: Representation,
    block_perm: Sequence[int],
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Largest Frobenius gap between the dense composite actions of block
    ``alpha`` of ``rep_b`` and block ``block_perm[alpha]`` of ``rep_a``."""
    parts_a = partition(rep_a, tol)
    parts_b = partition(rep_b, tol)
    return max(
        frobenius(
            composite_action(rep_b, parts_b.blocks[alpha])
            - composite_action(rep_a, parts_a.blocks[beta])
        )
        for alpha, beta in enumerate(block_perm)
    )


def same_liouvillian(
    rep_a: Representation, rep_b: Representation, tol: Tolerance = DEFAULT_TOL
) -> bool:
    if rep_a.dim != rep_b.dim:
        raise ValidationError("Hilbert-space dimensions differ")
    la = liouvillian_matrix(rep_a, tol)
    lb = liouvillian_matrix(rep_b, tol)
    scale = max(frobenius(la), frobenius(lb))
    return frobenius(la - lb) <= tol.cutoff(scale)


def _match_actions(
    actions_b: Sequence[np.ndarray], actions_a: Sequence[np.ndarray], tol: Tolerance
) -> tuple[Optional[tuple[int, ...]], List[str]]:
    diagnostics: List[str] = []
    perm: List[int] = []
    taken: set[int] = set()
    for alpha, action_b in enumerate(actions_b):
        hits = [
            beta
            for beta, action_a in enumerate(actions_a)
            if frobenius(action_b - action_a)
            <= tol.cutoff(max(frobenius(action_b), frobenius(action_a)))
        ]
        if not hits:
            diagnostics.append(f"block {alpha + 1} has no counterpart with equal composite action")
        elif len(hits) > 1:
            diagnostics.append(f"block {alpha + 1} matches several counterparts (tolerance too loose)")
        elif hits[0] in taken:
            diagnostics.append(f"blocks {alpha + 1} and earlier both match counterpart {hits[0] + 1}")
        else:
            taken.add(hits[0])
            perm.append(hits[0])
    if diagnostics:
        return None, diagnostics
    return tuple(perm), []


def check_theorem1(
    rep_a: Representation, rep_b: Representation, tol: Tolerance = DEFAULT_TOL
) -> Theorem1Verdict:
    if not same_liouvillian(rep_a, rep_b, tol):
        return Theorem1Verdict(holds=False, diagnostics=("different QME",))
    shift, diagnostics = _hamiltonian_shift(rep_a, rep_b, tol)
    parts_a = partition(rep_a, tol)
    parts_b = partition(rep_b, tol)
    block_perm = None
    if parts_a.block_count != parts_b.block_count:
        diagnostics.append(
            f"block counts differ ({parts_b.block_count} vs {parts_a.block_count})"
        )
    else:
        actions_a = [composite_action(rep_a, blk) for blk in parts_a.blocks]
        actions_b = [composite_action(rep_b, blk) for blk in parts_b.blocks]
        block_perm, match_diags = _match_actions(actions_b, actions_a, tol)
        diagnostics.extend(match_diags)
    return Theorem1Verdict(
        holds=not diagnostics, shift=shift, block_perm=block_perm, diagnostics=tuple(diagnostics)
    )


def check_theorem3(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance = DEFAULT_TOL,
    block_perm: Optional[Sequence[int]] = None,
) -> Theorem1Verdict:
    if block_perm is None:
        return check_theorem1(rep_a, rep_b, tol)
    parts_a = partition(rep_a, tol)
    parts_b = partition(rep_b, tol)
    perm = tuple(int(p) for p in block_perm)
    if sorted(perm) != list(range(parts_a.block_count)) or len(perm) != parts_b.block_count:
        raise ValidationError("block permutation is not a bijection between the block sets")
    shift, diagnostics = _hamiltonian_shift(rep_a, rep_b, tol)
    for alpha, beta in enumerate(perm):
        action_b = composite_action(rep_b, parts_b.blocks[alpha])
        action_a = composite_action(rep_a, parts_a.blocks[beta])
        scale = max(frobenius(action_a), frobenius(action_b))
        if frobenius(action_b - action_a) > tol.cutoff(scale):
            diagnostics.append(
                f"block {alpha + 1} does not match block {beta + 1} under the forced pairing"
            )
    return Theorem1Verdict(
        holds=not diagnostics, shift=shift, block_perm=perm, diagnostics=tuple(diagnostics)
    )


def evaluate(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance = DEFAULT_TOL,
    block_perm: Optional[Sequence[int]] = None,
) -> EquivalenceReport:
    return EquivalenceReport(
        same_qme=same_liouvillian(rep_a, rep_b, tol),
        theorem1=check_theorem1(rep_a, rep_b, tol),
        theorem2=check_theorem2(rep_a, rep_b, tol),
        theorem3=check_theorem3(rep_a, rep_b, tol, block_perm),
    )


def classify(rep: Representation, indices: List[int], reset: bool, direction: np.ndarray) -> SjedBlock:
    """Summarise one class from its first member's kind and unit direction.

    :func:`eager_partition` has already related every member to that
    direction, so each non-reset member's coefficient is its projection onto
    it."""
    if reset:
        gamma = np.zeros((rep.dim, rep.dim), dtype=complex)
        for k in indices:
            gamma += dagger(rep.jumps[k]) @ rep.jumps[k]
        return ResetBlock(indices=tuple(indices), chi=fix_vector_phase(direction), gamma_op=gamma)
    canonical = fix_phase(direction.reshape(rep.dim, rep.dim))
    sq = frobenius(canonical) ** 2
    weight_sq = sum(abs(complex(np.vdot(canonical, rep.jumps[k]) / sq)) ** 2 for k in indices)
    return NonResetBlock(indices=tuple(indices), weight=float(np.sqrt(weight_sq)), canonical_op=canonical)


def eager_partition(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> SjedPartition:
    """:func:`uqd.sjed.partition` with each kind, norm and summary taken per
    jump and every block summarised as it is built."""
    require_valid(rep, tol)
    cutoff = tol.cutoff(1.0)
    images, sigmas, _ = np.linalg.svd(np.stack(rep.jumps))
    kinds = [np.count_nonzero(sigma > tol.cutoff(sigma[0])) == 1 for sigma in sigmas]
    directions = [
        u[:, 0] if reset else jump.reshape(-1) / frobenius(jump)
        for u, reset, jump in zip(images, kinds, rep.jumps)
    ]
    classes: List[List[int]] = []
    class_of: List[int] = []
    for j, (reset, v) in enumerate(zip(kinds, directions)):
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
    return SjedPartition(tuple(classify(rep, g, kinds[g[0]], directions[g[0]]) for g in classes))
