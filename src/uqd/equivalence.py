"""Theorem-level equivalence of two representations, and gauge transforms.

Three nested notions of equivalence are decided algebraically:

* **theorem 1** (same trajectory ensembles): the Hamiltonians differ by a
  real multiple of the identity and the two families of composite
  equal-destination actions coincide, under a block pairing that is unique
  when it exists.  Two actions coincide when the Frobenius gap between their
  superoperators is below the cutoff.
* **theorem 2** (same labelled ensembles up to relabelling): additionally
  every jump operator of one representation is a unit-modulus multiple of a
  jump operator of the other, under some permutation.  Unit-modulus
  proportionality is an equivalence, so the permutation exists exactly when
  each phase class holds as many jumps on both sides; it need not be unique
  and multiplicity is reported.  Labelled equivalence implies ensemble
  equivalence, so the phase classes are only tested where theorem 1 holds;
  at a loose tolerance they could otherwise hold where theorem 1 fails.
* **theorem 3** (same coarse-grained ensembles for a *given* block
  pairing): theorem 1's conditions verified for exactly that pairing.

The constructive side is the block-isometry gauge: starting from a
representation whose blocks are minimally represented, every
trajectory-equivalent representation is ``H + r*1`` together with jumps
``J_j = sum_k V[j, k] J'_k`` where ``V`` is an isometry vanishing outside
matched blocks.  ``apply_gauge`` builds such representations and
``extract_isometry`` recovers ``V`` by least squares on vectorized jumps.

Every Frobenius norm the checks compare, of a generator, of a composite
action or of a gap between two of them, is a norm of a sum of Kronecker
products, computed from the operators themselves as in
:func:`uqd.linalg.kron_sum_norm`, so deciding builds no dim^2 x dim^2
matrix.  The norms of one comparison are column subsets of one stack of
factors, so a single QR per stack gives them all: the generator comparison
factors one stack whose columns, or their conjugates, are every left and
right factor of both generators, and :func:`uqd.sjed.block_gaps` factors
both sides' jumps once.  Householder QR is columnwise backward stable, so
each subset's norm is still rounded at ``eps`` times its own terms' size.
``evaluate`` compares generators and partitions each representation once,
reads no block summary, and its theorem-3 verdict without a forced pairing
is the theorem-1 verdict.

All checks are pure functions of their inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _proportionality,
    frobenius,
    identity_shift,
    kron_sum_core,
    numerical_rank,
    stack_factor,
    vec,
)
from .representation import Representation, _drift_terms, require_valid
from .sjed import NonResetBlock, SjedPartition, block_gaps, partition

THEOREM2_MATCHING_CAP = 10_000


@dataclass(frozen=True)
class Theorem1Verdict:
    """Trajectory-ensemble equality; ``block_perm[a]`` is the block of the
    first representation matching block ``a`` of the second (0-based)."""

    holds: bool
    shift: Optional[float] = None
    block_perm: Optional[tuple[int, ...]] = None
    diagnostics: tuple[str, ...] = ()

    def to_document(self) -> dict:
        return {
            "holds": self.holds,
            "shift_r": self.shift,
            "block_perm": None if self.block_perm is None else [p + 1 for p in self.block_perm],
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True)
class JumpMatching:
    """One valid relabelling: ``J_b[k] = exp(i*phases[k]) * J_a[perm[k]]``."""

    perm: tuple[int, ...]
    phases: tuple[float, ...]

    def to_document(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "phases": list(self.phases)}


@dataclass(frozen=True)
class Theorem2Verdict:
    holds: bool
    shift: Optional[float] = None
    matchings: tuple[JumpMatching, ...] = ()
    multiple: bool = False
    truncated: bool = False
    diagnostics: tuple[str, ...] = ()

    def to_document(self) -> dict:
        return {
            "holds": self.holds,
            "shift_r": self.shift,
            "matchings": [m.to_document() for m in self.matchings],
            "multiple": self.multiple,
            "truncated": self.truncated,
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True)
class EquivalenceReport:
    same_qme: bool
    theorem1: Theorem1Verdict
    theorem2: Theorem2Verdict
    theorem3: Theorem1Verdict

    @property
    def diagnostics(self) -> tuple[str, ...]:
        out: List[str] = []
        if not self.same_qme:
            out.append("qme: generators differ")
        for name, verdict in (
            ("theorem1", self.theorem1),
            ("theorem2", self.theorem2),
            ("theorem3", self.theorem3),
        ):
            out.extend(f"{name}: {msg}" for msg in verdict.diagnostics)
        return tuple(out)

    def to_document(self) -> dict:
        return {
            "same_qme": self.same_qme,
            "theorem1": self.theorem1.to_document(),
            "theorem2": self.theorem2.to_document(),
            "theorem3": self.theorem3.to_document(),
            "diagnostics": list(self.diagnostics),
        }


def require_same_dim(rep_a: Representation, rep_b: Representation) -> None:
    """Reject a pair of representations on different Hilbert spaces."""
    if rep_a.dim != rep_b.dim:
        raise ValidationError(
            f"Hilbert-space dimensions differ: {rep_a.dim} vs {rep_b.dim}"
        )


def require_bijection(perm: Sequence[int], n_from: int, n_to: int, word: str) -> tuple[int, ...]:
    """``perm`` as integers, where it maps ``n_from`` labels one-to-one onto
    ``n_to`` labels (so only where the counts agree); ``word`` names them."""
    perm = tuple(int(p) for p in perm)
    if len(perm) != n_from or sorted(perm) != list(range(n_to)):
        raise ValidationError(
            f"{word} permutation is not a bijection between the {word} sets "
            f"({n_from} and {n_to} {word}s)"
        )
    return perm


def same_liouvillian(
    rep_a: Representation, rep_b: Representation, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether the two averaged-state generators agree: the Frobenius norm of
    their difference is below the cutoff for the larger generator's norm.

    A generator is ``1 (x) K + K' (x) 1 + sum_k conj(J_k) (x) J_k``
    (``_drift_terms``).  Every right factor, and the conjugate of every left
    factor, is a column of ``U = [1, conj(K'_a), conj(K'_b), K_a, K_b,
    J_a..., J_b...]``, so one QR ``U = Q R`` serves both sides of the
    realignment: ``conj(Q)`` has orthonormal columns too, so each generator
    has the norm of its core (:func:`uqd.linalg.kron_sum_core`), ``conj(R)``
    on its left factors' columns times ``R`` on its right factors' columns
    transposed, and their difference is the difference of the two cores."""
    require_same_dim(rep_a, rep_b)
    require_valid(rep_a, tol)
    require_valid(rep_b, tol)
    (drift_a, drift_t_a), (drift_b, drift_t_b) = _drift_terms(rep_a), _drift_terms(rep_b)
    heads = [np.eye(rep_a.dim), drift_t_a.conj(), drift_t_b.conj(), drift_a, drift_b]
    r = stack_factor(np.concatenate([np.stack(heads), rep_a.jump_stack, rep_b.jump_stack]))
    split = len(heads) + rep_a.n_jumps
    sides = ((1, 3, range(len(heads), split)), (2, 4, range(split, r.shape[1])))
    # a side's left factors are the conjugates of the columns [1, conj(K'),
    # J...] of the stack, and its right factors the columns [K, 1, J...]
    core_a, core_b = (
        kron_sum_core(r[:, [0, left, *jumps]].conj(), r[:, [right, 0, *jumps]])
        for left, right, jumps in sides
    )
    scale = max(frobenius(core_a), frobenius(core_b))
    return frobenius(core_a - core_b) <= tol.cutoff(scale)


def _hamiltonian_shift(
    rep_a: Representation, rep_b: Representation, tol: Tolerance
) -> tuple[Optional[float], List[str]]:
    shift = identity_shift(rep_b.hamiltonian - rep_a.hamiltonian, tol)
    if shift is None:
        return None, ["Hamiltonians do not differ by a multiple of the identity"]
    if abs(shift.imag) > tol.atol:
        return None, [f"Hamiltonian shift has imaginary part {shift.imag:.3e}"]
    return float(shift.real), []


def _match_actions(match: np.ndarray) -> tuple[Optional[tuple[int, ...]], List[str]]:
    """Pair each block of the second representation with its unique match
    among the first's, from the match mask of `block_gaps`."""
    diagnostics: List[str] = []
    perm: List[int] = []
    taken: set[int] = set()
    for alpha, row in enumerate(match):
        hits = np.flatnonzero(row).tolist()
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


def _pair_blocks(
    rep_a: Representation, rep_b: Representation, tol: Tolerance, parts_a: Optional[SjedPartition]
) -> tuple[tuple[SjedPartition, SjedPartition], Optional[np.ndarray]]:
    """Both partitions, the first built unless ``parts_a`` holds it, and the
    match mask of `block_gaps` if their block counts agree."""
    parts = partition(rep_a, tol) if parts_a is None else parts_a, partition(rep_b, tol)
    if parts[0].block_count != parts[1].block_count:
        return parts, None
    return parts, block_gaps(rep_b, parts[1], rep_a, parts[0], tol)[1]


def _theorem1(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    same_qme: bool,
    parts: Optional[tuple[SjedPartition, SjedPartition]],
    match: Optional[np.ndarray],
) -> Theorem1Verdict:
    """Theorem 1 from the generator comparison and, when the generators
    agree, both partitions and their block matches."""
    if not same_qme:
        return Theorem1Verdict(holds=False, diagnostics=("different QME",))
    shift, diagnostics = _hamiltonian_shift(rep_a, rep_b, tol)
    parts_a, parts_b = parts
    block_perm: Optional[tuple[int, ...]] = None
    if parts_a.block_count != parts_b.block_count:
        diagnostics.append(
            f"block counts differ ({parts_b.block_count} vs {parts_a.block_count})"
        )
    else:
        block_perm, match_diags = _match_actions(match)
        diagnostics.extend(match_diags)
    return Theorem1Verdict(
        holds=not diagnostics,
        shift=shift,
        block_perm=block_perm,
        diagnostics=tuple(diagnostics),
    )


def check_theorem1(
    rep_a: Representation, rep_b: Representation, tol: Tolerance = DEFAULT_TOL
) -> Theorem1Verdict:
    """Decide trajectory-ensemble equality; all failures become diagnostics."""
    return _theorem1_pass(rep_a, rep_b, tol, parts_a=None)[0]


def _theorem1_pass(
    rep_a: Representation, rep_b: Representation, tol: Tolerance, parts_a: Optional[SjedPartition]
) -> tuple[Theorem1Verdict, Optional[tuple[SjedPartition, SjedPartition]]]:
    """:func:`check_theorem1`, and the two partitions it built where the
    generators agree (``None`` elsewhere), reusing ``parts_a`` when given."""
    same_qme = same_liouvillian(rep_a, rep_b, tol)
    parts, match = _pair_blocks(rep_a, rep_b, tol, parts_a) if same_qme else (None, None)
    return _theorem1(rep_a, rep_b, tol, same_qme, parts, match), parts


def _classes_align(candidates: Sequence[Sequence[int]]) -> bool:
    """Whether phase classes admit a perfect matching: every candidate set
    is as large as the group of jumps sharing it.  Sets that overlap without
    being equal raise :class:`NumericalError`."""
    groups = Counter(map(tuple, candidates))
    owner: dict[int, tuple[int, ...]] = {}
    for key in groups:
        for j in key:
            if owner.setdefault(j, key) != key:
                raise NumericalError(
                    f"theorem-2 phase classes overlap at jump {j + 1} of the first "
                    "representation: unit-modulus proportionality is not transitive "
                    "at this tolerance"
                )
    return all(len(key) == size for key, size in groups.items())


def _enumerate_matchings(
    candidates: Sequence[Sequence[int]], limit: int
) -> tuple[List[List[int]], bool]:
    """Perfect matchings as assignment arrays, at most ``limit`` of them.

    On candidate sets that are equal or disjoint, with each set as large as
    the jumps that share it, every partial assignment extends, so the search
    never backtracks out of a dead end.
    """
    d = len(candidates)
    order = sorted(range(d), key=lambda k: len(candidates[k]))
    used = [False] * d
    assignment = [-1] * d
    found: List[List[int]] = []
    truncated = False

    def backtrack(pos: int) -> bool:
        nonlocal truncated
        if pos == d:
            found.append(assignment.copy())
            if len(found) >= limit:
                truncated = True
                return True
            return False
        k = order[pos]
        for j in candidates[k]:
            if used[j]:
                continue
            used[j] = True
            assignment[k] = j
            if backtrack(pos + 1):
                return True
            used[j] = False
            assignment[k] = -1
        return False

    backtrack(0)
    return found, truncated


def check_theorem2(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance = DEFAULT_TOL,
    enumerate_all: bool = False,
) -> Theorem2Verdict:
    """Decide labelled-ensemble equivalence up to a permutation of labels.

    Each jump of the second representation gets the set of jumps of the
    first that it is a unit-modulus multiple of.  That relation is an
    equivalence, so these sets are phase classes: two of them are equal or
    disjoint, and a permutation exists exactly when every class holds as
    many jumps on both sides.  Sets that overlap without being equal mean
    the relation is not transitive at this tolerance, which raises
    :class:`NumericalError`.  The matchings permute jumps within classes.
    By default one is returned and a second is only sought to set the
    ``multiple`` flag; ``enumerate_all`` lists every matching up to
    ``THEOREM2_MATCHING_CAP`` (``truncated`` marks a hit cap).  Where
    theorem 1 fails the verdict fails with the diagnostic "theorem 1 fails"
    and no class is tested.  Where it holds, each jump is tested only
    against the jumps of the block theorem 1 pairs with its own: a unit
    multiple of a jump shares its destinations, so it lies in that block.
    """
    theorem1, parts = _theorem1_pass(rep_a, rep_b, tol, parts_a=None)
    return _theorem2(rep_a, rep_b, tol, enumerate_all, theorem1, parts)


def _theorem2(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    enumerate_all: bool,
    theorem1: Theorem1Verdict,
    parts: Optional[tuple[SjedPartition, SjedPartition]],
) -> Theorem2Verdict:
    """Theorem 2 on a validated pair with the given theorem-1 verdict and,
    where it holds, the two partitions it paired."""
    if not theorem1.holds:
        return Theorem2Verdict(holds=False, diagnostics=("theorem 1 fails",))
    d_a, d_b = rep_a.n_jumps, rep_b.n_jumps
    if d_a != d_b:
        return Theorem2Verdict(
            holds=False, diagnostics=(f"jump counts differ ({d_a} vs {d_b})",)
        )
    shift, diagnostics = theorem1.shift, []

    parts_a, parts_b = parts
    block_of = parts_b.block_of_channel(d_b)
    unit_cutoff = tol.cutoff(1.0)
    squares_a = [norm**2 for norm in rep_a.jump_norms]
    coefficients: dict[tuple[int, int], complex] = {}
    candidates: List[List[int]] = []
    for k, (jump, norm) in enumerate(zip(rep_b.jumps, rep_b.jump_norms)):
        options: List[int] = []
        for j in parts_a.blocks[theorem1.block_perm[block_of[k]]].indices:
            lam = _proportionality(jump, rep_a.jumps[j], norm, squares_a[j], tol)
            if lam is not None and abs(abs(lam) - 1.0) <= unit_cutoff:
                coefficients[(k, j)] = lam
                options.append(j)
        if not options:
            diagnostics.append(f"jump {k + 1} is not a phase times any jump of the other representation")
        candidates.append(options)
    if diagnostics:
        return Theorem2Verdict(holds=False, shift=shift, diagnostics=tuple(diagnostics))

    if not _classes_align(candidates):
        return Theorem2Verdict(
            holds=False,
            shift=shift,
            diagnostics=("no permutation aligns all jumps up to phases",),
        )
    limit = THEOREM2_MATCHING_CAP if enumerate_all else 2
    assignments, truncated = _enumerate_matchings(candidates, limit)
    matchings = tuple(
        JumpMatching(
            perm=tuple(assignment),
            phases=tuple(float(np.angle(coefficients[(k, j)])) for k, j in enumerate(assignment)),
        )
        for assignment in assignments
    )
    multiple = len(assignments) > 1
    if not enumerate_all and multiple:
        matchings = matchings[:1]
        truncated = False
    return Theorem2Verdict(
        holds=True, shift=shift, matchings=matchings, multiple=multiple, truncated=truncated
    )


def check_theorem3(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance = DEFAULT_TOL,
    block_perm: Optional[Sequence[int]] = None,
) -> Theorem1Verdict:
    """Coarse-grained equivalence, reported as a `Theorem1Verdict`; with
    ``block_perm`` the pairing is forced, otherwise it is the theorem-1 verdict."""
    if block_perm is None:
        return check_theorem1(rep_a, rep_b, tol)
    require_same_dim(rep_a, rep_b)
    return _forced_pairing(rep_a, rep_b, tol, *_pair_blocks(rep_a, rep_b, tol, parts_a=None), block_perm)


def _forced_pairing(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    parts: tuple[SjedPartition, SjedPartition],
    match: Optional[np.ndarray],
    block_perm: Sequence[int],
) -> Theorem1Verdict:
    """Theorem 3 under the given block pairing, from the block matches of
    `block_gaps`."""
    parts_a, parts_b = parts
    perm = require_bijection(block_perm, parts_b.block_count, parts_a.block_count, "block")
    shift, diagnostics = _hamiltonian_shift(rep_a, rep_b, tol)
    for alpha, beta in enumerate(perm):
        if not match[alpha, beta]:
            diagnostics.append(
                f"block {alpha + 1} does not match block {beta + 1} under the forced pairing"
            )
    return Theorem1Verdict(
        holds=not diagnostics,
        shift=shift,
        block_perm=perm,
        diagnostics=tuple(diagnostics),
    )


def evaluate(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance = DEFAULT_TOL,
    block_perm: Optional[Sequence[int]] = None,
    enumerate_all: bool = False,
) -> EquivalenceReport:
    """Run every check and bundle the verdicts.

    Each representation's jumps are checked nonzero by ``same_liouvillian``
    and again by its partition, so twice when the partitions are built; both
    read the norms the representation keeps.  Each
    is partitioned at most once: the partitions and the block gap matrix are
    built only when theorem 1 or a forced pairing needs them, and no block
    summary is computed.  Theorem 1 runs once: without ``block_perm`` the
    theorem-3 verdict is the theorem-1 verdict.  A matched pair takes two
    QR factorisations: the generators' union stack and both sides' jumps.
    """
    same_qme = same_liouvillian(rep_a, rep_b, tol)
    parts, match = None, None
    if same_qme or block_perm is not None:
        parts, match = _pair_blocks(rep_a, rep_b, tol, parts_a=None)
    theorem1 = _theorem1(rep_a, rep_b, tol, same_qme, parts, match)
    return EquivalenceReport(
        same_qme=same_qme,
        theorem1=theorem1,
        theorem2=_theorem2(rep_a, rep_b, tol, enumerate_all, theorem1, parts),
        theorem3=(
            theorem1
            if block_perm is None
            else _forced_pairing(rep_a, rep_b, tol, parts, match, block_perm)
        ),
    )


# -- block-isometry gauge ----------------------------------------------------


@dataclass(eq=False)
class BlockIsometry:
    """Isometry ``V`` (d x d') vanishing outside matched blocks.

    ``row_blocks`` groups output jump indices, ``col_blocks`` groups the
    minimal representation's jump indices, and ``block_map`` sends each row
    block to the column block it draws from (all 0-based).
    """

    matrix: np.ndarray
    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]
    block_map: tuple[int, ...]

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.row_blocks = tuple(tuple(int(i) for i in blk) for blk in self.row_blocks)
        self.col_blocks = tuple(tuple(int(i) for i in blk) for blk in self.col_blocks)
        self.block_map = tuple(int(i) for i in self.block_map)

    def violations(self, tol: Tolerance = DEFAULT_TOL) -> List[str]:
        out: List[str] = []
        d, d_min = self.matrix.shape
        if sorted(i for blk in self.row_blocks for i in blk) != list(range(d)):
            out.append("row blocks do not partition the output jump indices")
        if sorted(i for blk in self.col_blocks for i in blk) != list(range(d_min)):
            out.append("column blocks do not partition the minimal jump indices")
        try:
            require_bijection(self.block_map, len(self.row_blocks), len(self.col_blocks), "block")
        except ValidationError:
            out.append("block map is not a bijection between row and column blocks")
        if out:
            return out
        allowed = np.zeros(self.matrix.shape, dtype=bool)
        for alpha, rows in enumerate(self.row_blocks):
            cols = self.col_blocks[self.block_map[alpha]]
            allowed[np.ix_(list(rows), list(cols))] = True
        leakage = float(np.max(np.abs(self.matrix[~allowed]))) if (~allowed).any() else 0.0
        if leakage > tol.atol:
            out.append(f"entries outside the block pattern reach {leakage:.3e}")
        gram = self.matrix.conj().T @ self.matrix
        defect = frobenius(gram - np.eye(d_min))
        if defect > tol.cutoff(1.0):
            out.append(f"matrix is not an isometry (|V+V - 1| = {defect:.3e})")
        return out


def _require_minimal(parts: SjedPartition, tol: Tolerance) -> None:
    for alpha, block in enumerate(parts.blocks):
        size = 1 if isinstance(block, NonResetBlock) else numerical_rank(block.gamma_op, tol)
        if len(block.indices) != size:
            raise ValidationError(
                f"block {alpha + 1} of the reference representation is not minimally represented"
            )


def apply_gauge(
    rep_min: Representation,
    iso: BlockIsometry,
    shift: float = 0.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Representation:
    """New representation ``(H + shift*1, V J')`` from a minimal one, checked by theorem 1."""
    parts_min = partition(rep_min, tol)
    _require_minimal(parts_min, tol)
    if iso.matrix.shape[1] != rep_min.n_jumps:
        raise ValidationError(
            f"isometry has {iso.matrix.shape[1]} columns for {rep_min.n_jumps} minimal jumps"
        )
    if iso.col_blocks != tuple(blk.indices for blk in parts_min.blocks):
        raise ValidationError("isometry column blocks do not match the minimal partition")
    problems = iso.violations(tol)
    if problems:
        raise ValidationError("; ".join(problems))
    stacked = np.stack(rep_min.jumps)
    jumps = [np.tensordot(iso.matrix[j], stacked, axes=(0, 0)) for j in range(iso.matrix.shape[0])]
    out = Representation(
        hamiltonian=rep_min.hamiltonian + float(shift) * np.eye(rep_min.dim),
        jumps=jumps,
        label=f"{rep_min.label}-gauged" if rep_min.label else "gauged",
    )
    verdict, _ = _theorem1_pass(rep_min, out, tol, parts_min)
    if not verdict.holds:
        raise NumericalError(
            "gauge output failed the trajectory-equivalence check: "
            + "; ".join(verdict.diagnostics)
        )
    return out


def extract_isometry(
    rep_min: Representation, rep: Representation, tol: Tolerance = DEFAULT_TOL
) -> tuple[BlockIsometry, float]:
    """Recover the block isometry writing ``rep``'s jumps over ``rep_min``'s,
    and the shift ``r`` with ``H = H_min + r*1``, from one theorem-1 pass.

    Requires trajectory equivalence; the minimal block operators are linearly
    independent, so each row of ``V`` is the unique least-squares solution and
    must fit with negligible residual.
    """
    verdict, partitions = _theorem1_pass(rep_min, rep, tol, parts_a=None)
    if not verdict.holds:
        raise ValidationError(
            "representations not trajectory-equivalent: " + "; ".join(verdict.diagnostics)
        )
    parts_min, parts = partitions
    _require_minimal(parts_min, tol)
    matrix = np.zeros((rep.n_jumps, rep_min.n_jumps), dtype=complex)
    for alpha, block in enumerate(parts.blocks):
        cols = parts_min.blocks[verdict.block_perm[alpha]].indices
        basis = np.column_stack([vec(rep_min.jumps[k]) for k in cols])
        for j in block.indices:
            target = vec(rep.jumps[j])
            coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
            residual = float(np.linalg.norm(basis @ coeffs - target))
            if residual > tol.cutoff(float(np.linalg.norm(target))):
                raise NumericalError(
                    f"jump {j + 1} is not a combination of its matched minimal block "
                    f"(residual {residual:.3e})"
                )
            matrix[j, list(cols)] = coeffs
    iso = BlockIsometry(
        matrix=matrix,
        row_blocks=tuple(blk.indices for blk in parts.blocks),
        col_blocks=tuple(blk.indices for blk in parts_min.blocks),
        block_map=verdict.block_perm,
    )
    problems = iso.violations(tol)
    if problems:
        raise NumericalError("extracted matrix is not a block isometry: " + "; ".join(problems))
    return iso, verdict.shift
