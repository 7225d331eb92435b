"""Reference decision path: generators and composite actions as dense
dim^2 x dim^2 superoperator matrices.

This is how ``uqd.equivalence`` compared them before it took every Frobenius
norm from low-rank factors (``uqd.linalg.kron_sum_norm``), kept so tests can
hold the factor path to it.  Both compute the same norms against the same
cutoffs, so their documents must be equal; only the rounding of each norm
differs, by about ``eps`` times the terms' size.  Theorem 2 compares no
superoperator and is taken from the package.
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
from uqd.errors import ValidationError
from uqd.linalg import DEFAULT_TOL, Tolerance, frobenius
from uqd.representation import Representation, liouvillian_matrix
from uqd.sjed import composite_action, partition


def kron_sum_norm(lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]) -> float:
    """``|sum_i kron(lefts[i], rights[i])|_F`` from the full matrix."""
    return frobenius(sum(np.kron(a, b) for a, b in zip(lefts, rights)))


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
