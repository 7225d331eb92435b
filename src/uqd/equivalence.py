"""Theorem-level equivalence of two representations, and gauge transforms.

Three nested notions of equivalence are decided algebraically:

* **theorem 1** (same trajectory ensembles): the Hamiltonians differ by a
  real multiple of the identity and the two families of composite
  equal-destination actions coincide, under a block pairing that is unique
  when it exists.  Two actions coincide when the Frobenius gap between their
  superoperators is below the cutoff.
* **theorem 2** (same labelled ensembles up to relabelling): additionally
  every jump operator of one representation is a unit-modulus multiple of a
  jump operator of the other, under some permutation; the permutation need
  not be unique and multiplicity is reported.
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
products.  It is computed by :func:`uqd.linalg.kron_sum_norm` from the
operators themselves, so deciding builds no dim^2 x dim^2 matrix.
``evaluate`` validates, compares generators and partitions each
representation once, and its theorem-3 verdict without a forced pairing is
the theorem-1 verdict.

All checks are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    frobenius,
    identity_shift,
    kron_sum_norm,
    numerical_rank,
    proportionality_coefficient,
    vec,
)
from .representation import Representation, require_valid
from .sjed import NonResetBlock, SjedPartition, action_gap, block_jumps, partition

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


# Coarse-grained equivalence reports the same facts as theorem 1: a block
# pairing, the Hamiltonian shift and the failures.
Theorem3Verdict = Theorem1Verdict


@dataclass(frozen=True)
class EquivalenceReport:
    same_qme: bool
    theorem1: Theorem1Verdict
    theorem2: Theorem2Verdict
    theorem3: Theorem3Verdict

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


def _require_same_dim(rep_a: Representation, rep_b: Representation) -> None:
    if rep_a.dim != rep_b.dim:
        raise ValidationError(
            f"Hilbert-space dimensions differ: {rep_a.dim} vs {rep_b.dim}"
        )


def _require_valid_pair(rep_a: Representation, rep_b: Representation, tol: Tolerance) -> None:
    require_valid(rep_a, tol)
    require_valid(rep_b, tol)
    _require_same_dim(rep_a, rep_b)


def _generator_terms(rep: Representation) -> tuple[list, list]:
    """Kronecker factors of the generator, term for term as in
    ``liouvillian_matrix``: ``L = 1 (x) K + (iH^T - G^T/2) (x) 1 +
    sum_k conj(J_k) (x) J_k`` with ``K = -iH - G/2`` and ``G = sum_k J_k^+ J_k``."""
    ham = rep.hamiltonian
    gain = sum(dagger(j) @ j for j in rep.jumps)
    eye = np.eye(rep.dim)
    lefts = [eye, 1j * ham.T - 0.5 * gain.T, *(j.conj() for j in rep.jumps)]
    rights = [-1j * ham - 0.5 * gain, eye, *rep.jumps]
    return lefts, rights


def same_liouvillian(
    rep_a: Representation, rep_b: Representation, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether the two averaged-state generators agree: the Frobenius norm of
    their difference is below the cutoff for the larger generator's norm."""
    _require_same_dim(rep_a, rep_b)
    require_valid(rep_a, tol)
    require_valid(rep_b, tol)
    lefts_a, rights_a = _generator_terms(rep_a)
    lefts_b, rights_b = _generator_terms(rep_b)
    gap = kron_sum_norm(lefts_a + lefts_b, rights_a + [-r for r in rights_b])
    scale = max(kron_sum_norm(lefts_a, rights_a), kron_sum_norm(lefts_b, rights_b))
    return gap <= tol.cutoff(scale)


def _hamiltonian_shift(
    rep_a: Representation, rep_b: Representation, tol: Tolerance
) -> tuple[Optional[float], List[str]]:
    shift = identity_shift(rep_b.hamiltonian - rep_a.hamiltonian, tol)
    if shift is None:
        return None, ["Hamiltonians do not differ by a multiple of the identity"]
    if abs(shift.imag) > tol.atol:
        return None, [f"Hamiltonian shift has imaginary part {shift.imag:.3e}"]
    return float(shift.real), []


def _match_actions(
    blocks_b: Sequence[Sequence[np.ndarray]],
    blocks_a: Sequence[Sequence[np.ndarray]],
    tol: Tolerance,
) -> tuple[Optional[tuple[int, ...]], List[str]]:
    """Pair blocks, given as lists of member jumps, with equal composite
    actions; unique when it exists."""
    norms_a = [action_gap(jumps) for jumps in blocks_a]
    diagnostics: List[str] = []
    perm: List[int] = []
    taken: set[int] = set()
    for alpha, jumps_b in enumerate(blocks_b):
        norm_b = action_gap(jumps_b)
        hits = [
            beta
            for beta, jumps_a in enumerate(blocks_a)
            if action_gap(jumps_b, jumps_a) <= tol.cutoff(max(norm_b, norms_a[beta]))
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


def _blocks(rep: Representation, parts: SjedPartition) -> List[List[np.ndarray]]:
    return [block_jumps(rep, blk) for blk in parts.blocks]


def _theorem1(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    same_qme: bool,
    parts: Optional[tuple[SjedPartition, SjedPartition]],
) -> Theorem1Verdict:
    """Theorem 1 on a validated pair, from the generator comparison and,
    when the generators agree, both partitions."""
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
        block_perm, match_diags = _match_actions(
            _blocks(rep_b, parts_b), _blocks(rep_a, parts_a), tol
        )
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
    _require_valid_pair(rep_a, rep_b, tol)
    same_qme = same_liouvillian(rep_a, rep_b, tol)
    parts = (partition(rep_a, tol), partition(rep_b, tol)) if same_qme else None
    return _theorem1(rep_a, rep_b, tol, same_qme, parts)


def _max_bipartite_matching_size(candidates: Sequence[Sequence[int]], n_right: int) -> int:
    rows, cols = [], []
    for k, options in enumerate(candidates):
        for j in options:
            rows.append(k)
            cols.append(j)
    if not rows:
        return 0
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(candidates), n_right)
    )
    match = scipy.sparse.csgraph.maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def _enumerate_matchings(
    candidates: Sequence[Sequence[int]], limit: int
) -> tuple[List[List[int]], bool]:
    """Perfect matchings as assignment arrays, at most ``limit`` of them."""
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
    max_matchings: int = THEOREM2_MATCHING_CAP,
) -> Theorem2Verdict:
    """Decide labelled-ensemble equivalence up to a permutation of labels.

    Builds the bipartite graph whose edges join jumps of the second
    representation to unit-modulus multiples among the first's, then searches
    for perfect matchings.  By default one matching is returned and a second
    is only sought to set the ``multiple`` flag; ``enumerate_all`` lists every
    matching up to ``max_matchings`` (``truncated`` marks a hit cap).
    """
    _require_valid_pair(rep_a, rep_b, tol)
    return _theorem2(rep_a, rep_b, tol, enumerate_all, max_matchings)


def _theorem2(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    enumerate_all: bool,
    max_matchings: int,
) -> Theorem2Verdict:
    """Theorem 2 on a validated pair."""
    d_a, d_b = rep_a.n_jumps, rep_b.n_jumps
    if d_a != d_b:
        return Theorem2Verdict(
            holds=False, diagnostics=(f"jump counts differ ({d_a} vs {d_b})",)
        )
    shift, diagnostics = _hamiltonian_shift(rep_a, rep_b, tol)
    if diagnostics:
        return Theorem2Verdict(holds=False, diagnostics=tuple(diagnostics))

    unit_cutoff = tol.cutoff(1.0)
    coefficients: dict[tuple[int, int], complex] = {}
    candidates: List[List[int]] = []
    for k in range(d_b):
        options: List[int] = []
        for j in range(d_a):
            lam = proportionality_coefficient(rep_b.jumps[k], rep_a.jumps[j], tol)
            if lam is not None and abs(abs(lam) - 1.0) <= unit_cutoff:
                coefficients[(k, j)] = lam
                options.append(j)
        if not options:
            diagnostics.append(f"jump {k + 1} is not a phase times any jump of the other representation")
        candidates.append(options)
    if diagnostics:
        return Theorem2Verdict(holds=False, shift=shift, diagnostics=tuple(diagnostics))

    if _max_bipartite_matching_size(candidates, d_a) < d_b:
        return Theorem2Verdict(
            holds=False,
            shift=shift,
            diagnostics=("no permutation aligns all jumps up to phases",),
        )
    limit = max_matchings if enumerate_all else 2
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
) -> Theorem3Verdict:
    """Coarse-grained equivalence; with ``block_perm`` the pairing is forced,
    otherwise it is the theorem-1 verdict."""
    if block_perm is None:
        return check_theorem1(rep_a, rep_b, tol)
    _require_valid_pair(rep_a, rep_b, tol)
    parts = (partition(rep_a, tol), partition(rep_b, tol))
    return _forced_pairing(rep_a, rep_b, tol, parts, block_perm)


def _forced_pairing(
    rep_a: Representation,
    rep_b: Representation,
    tol: Tolerance,
    parts: tuple[SjedPartition, SjedPartition],
    block_perm: Sequence[int],
) -> Theorem3Verdict:
    """Theorem 3 on a validated pair under the given block pairing."""
    parts_a, parts_b = parts
    perm = tuple(int(p) for p in block_perm)
    if len(perm) != parts_b.block_count:
        raise ValidationError(
            f"block permutation has length {len(perm)}, expected {parts_b.block_count}"
        )
    if parts_a.block_count != parts_b.block_count or sorted(perm) != list(
        range(parts_a.block_count)
    ):
        raise ValidationError("block permutation is not a bijection between the block sets")
    diagnostics: List[str] = []
    shift, shift_diags = _hamiltonian_shift(rep_a, rep_b, tol)
    diagnostics.extend(shift_diags)
    blocks_a, blocks_b = _blocks(rep_a, parts_a), _blocks(rep_b, parts_b)
    for alpha, beta in enumerate(perm):
        scale = max(action_gap(blocks_a[beta]), action_gap(blocks_b[alpha]))
        if action_gap(blocks_b[alpha], blocks_a[beta]) > tol.cutoff(scale):
            diagnostics.append(
                f"block {alpha + 1} does not match block {beta + 1} under the forced pairing"
            )
    return Theorem3Verdict(
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
    max_matchings: int = THEOREM2_MATCHING_CAP,
) -> EquivalenceReport:
    """Run every check and bundle the verdicts.

    Each representation is validated (by ``same_liouvillian``) and
    partitioned once, and the partitions are built only when theorem 1 or a
    forced pairing needs them.  Theorem 1 runs once: without ``block_perm``
    the theorem-3 verdict is the theorem-1 verdict.
    """
    same_qme = same_liouvillian(rep_a, rep_b, tol)
    parts = None
    if same_qme or block_perm is not None:
        parts = (partition(rep_a, tol), partition(rep_b, tol))
    theorem1 = _theorem1(rep_a, rep_b, tol, same_qme, parts)
    return EquivalenceReport(
        same_qme=same_qme,
        theorem1=theorem1,
        theorem2=_theorem2(rep_a, rep_b, tol, enumerate_all, max_matchings),
        theorem3=(
            theorem1
            if block_perm is None
            else _forced_pairing(rep_a, rep_b, tol, parts, block_perm)
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
        if len(self.block_map) != len(self.row_blocks) or sorted(self.block_map) != list(
            range(len(self.col_blocks))
        ):
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


def _block_is_minimal(block, tol: Tolerance) -> bool:
    if isinstance(block, NonResetBlock):
        return len(block.indices) == 1
    return len(block.indices) == numerical_rank(block.gamma_op, tol)


def _require_minimal(rep: Representation, parts: SjedPartition, tol: Tolerance) -> None:
    for alpha, block in enumerate(parts.blocks):
        if not _block_is_minimal(block, tol):
            raise ValidationError(
                f"block {alpha + 1} of the reference representation is not minimally represented"
            )


def apply_gauge(
    rep_min: Representation,
    iso: BlockIsometry,
    shift: float = 0.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Representation:
    """New representation ``(H + shift*1, V J')`` from a minimal one."""
    require_valid(rep_min, tol)
    parts_min = partition(rep_min, tol)
    _require_minimal(rep_min, parts_min, tol)
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
    require_valid(out, tol)
    verdict = check_theorem1(rep_min, out, tol)
    if not verdict.holds:
        raise NumericalError(
            "gauge output failed the trajectory-equivalence check: "
            + "; ".join(verdict.diagnostics)
        )
    return out


def extract_isometry(
    rep_min: Representation, rep: Representation, tol: Tolerance = DEFAULT_TOL
) -> BlockIsometry:
    """Recover the block isometry writing ``rep``'s jumps over ``rep_min``'s.

    Requires trajectory equivalence; the minimal block operators are linearly
    independent, so each row of ``V`` is the unique least-squares solution and
    must fit with negligible residual.
    """
    verdict = check_theorem1(rep_min, rep, tol)
    if not verdict.holds:
        raise ValidationError(
            "representations not trajectory-equivalent: " + "; ".join(verdict.diagnostics)
        )
    parts_min = partition(rep_min, tol)
    parts = partition(rep, tol)
    _require_minimal(rep_min, parts_min, tol)
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
    return iso
