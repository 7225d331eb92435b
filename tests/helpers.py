"""Random states, isometries and models shared by the tests, and an empty
trajectory ensemble.  ``uqd`` itself draws no random numbers through
``numpy.random``, so the generators live here."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

import numpy as np

from uqd import BlockIsometry, Representation, partition
from uqd.errors import ValidationError
from uqd.linalg import frobenius, normalize, numerical_rank

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


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


def without_rows(ensemble):
    """``ensemble`` with no rows: its horizon and initial state, no seeds and
    no events."""
    return replace(ensemble, seeds=ensemble.seeds[:0], offsets=ensemble.offsets[:1],
                   times=ensemble.times[:0], channels=ensemble.channels[:0],
                   post_jump_states=ensemble.post_jump_states[:0])


def random_unitary(dim: int, seed) -> np.ndarray:
    return haar_isometry(dim, dim, seed)


def close_targets(angle: float, weight: float = 1.0) -> Representation:
    """Jumps |0><1| and weight |chi><2|, with chi at ``angle`` from |0>, and a
    dephasing jump; H diagonal."""
    zero, one, two = np.eye(3)
    chi = np.cos(angle) * zero + np.sin(angle) * one
    return Representation(
        hamiltonian=np.diag([0.0, 1.0, 2.5]),
        jumps=[np.outer(zero, one), weight * np.outer(chi, two), np.diag([1.0, -1.0, 0.5])],
    )


def mixed_rank(*order: int) -> Representation:
    """Jumps ``1e-3 |0><1|`` (rank 1) and ``|0><1| + 5e-9 |2><2|`` (rank 2),
    in the given order: the first is a multiple of the second up to a
    residual of 5e-12, below ``atol``, yet they are of different kinds."""
    zero, one, two = np.eye(3)
    jumps = [1e-3 * np.outer(zero, one), np.outer(zero, one) + 5e-9 * np.outer(two, two)]
    return Representation(hamiltonian=None, jumps=[jumps[k] for k in order])


def tilted(*angles: float) -> Representation:
    """Unit jumps ``cos(t)|0><0| + sin(t)|1><1|``, one per angle; two of them
    at angle gap ``g`` are proportional up to a residual ``sin(g)``."""
    return Representation(
        hamiltonian=None, jumps=[np.diag([np.cos(t), np.sin(t)]) for t in angles]
    )


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (raw + raw.conj().T) / 2


def random_minimal_representation(
    rng,
    dim: int,
    n_reset: int = 1,
    n_nonreset: int = 1,
    label: str = "random",
    max_rank: Optional[int] = None,
) -> Representation:
    """Representation whose blocks are minimal by construction.

    Reset blocks get mutually well-separated targets and orthonormal weight
    directions (a random count below ``dim``, at most ``max_rank``);
    non-reset blocks get full-rank canonical operators that are pairwise
    non-proportional.
    """
    assert n_reset + n_nonreset >= 1
    targets: list[np.ndarray] = []
    while len(targets) < n_reset:
        chi = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        if all(abs(np.vdot(chi, old)) < 0.9 for old in targets):
            targets.append(chi)
    jumps: list[np.ndarray] = []
    for chi in targets:
        rank = int(rng.integers(1, dim if max_rank is None else min(dim, max_rank + 1)))
        directions = haar_isometry(dim, rank, rng)
        rates = 0.3 + rng.random(rank)
        for r in range(rank):
            jumps.append(np.sqrt(rates[r]) * np.outer(chi, directions[:, r].conj()))
    canonicals: list[np.ndarray] = []
    while len(canonicals) < n_nonreset:
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = op / frobenius(op)
        if numerical_rank(op) < 2:
            continue
        if any(frobenius(op - np.vdot(c, op) * c) < 0.2 for c in canonicals):
            continue
        canonicals.append(op)
        jumps.append((0.5 + rng.random()) * op)
    return Representation(hamiltonian=random_hermitian(rng, dim), jumps=jumps, label=label)


def random_block_isometry(rng, rep_min: Representation, extra: int = 1) -> BlockIsometry:
    """Random gauge data over ``rep_min``'s partition, growing each block by
    up to ``extra`` operators and permuting block labels."""
    parts = partition(rep_min)
    n_blocks = parts.block_count
    col_blocks = tuple(blk.indices for blk in parts.blocks)
    perm = tuple(int(p) for p in rng.permutation(n_blocks))
    row_blocks = []
    row_sizes = []
    for alpha in range(n_blocks):
        m_min = len(col_blocks[perm[alpha]])
        row_sizes.append(m_min + int(rng.integers(0, extra + 1)))
    start = 0
    for size in row_sizes:
        row_blocks.append(tuple(range(start, start + size)))
        start += size
    matrix = np.zeros((start, rep_min.n_jumps), dtype=complex)
    for alpha in range(n_blocks):
        rows = row_blocks[alpha]
        cols = col_blocks[perm[alpha]]
        while True:
            sub = haar_isometry(len(rows), len(cols), rng)
            if np.min(np.linalg.norm(sub, axis=1)) > 1e-3:  # no zero output jump
                break
        matrix[np.ix_(list(rows), list(cols))] = sub
    return BlockIsometry(
        matrix=matrix,
        row_blocks=tuple(row_blocks),
        col_blocks=col_blocks,
        block_map=perm,
    )


def qme_gauge_variant(rng, rep: Representation, c_scale: float = 0.5) -> Representation:
    """Same quantum master operator via the full averaged-state gauge
    (isometric mixing plus operator shifts), which generically changes
    destinations and breaks trajectory equivalence when shifts are nonzero."""
    d = rep.n_jumps
    dim = rep.dim
    shifts = c_scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    mix = haar_isometry(d + 1, d, rng)
    r = float(rng.standard_normal())
    ham = rep.hamiltonian + r * np.eye(dim)
    for k in range(d):
        ham -= 0.5j * (
            np.conj(shifts[k]) * rep.jumps[k] - shifts[k] * rep.jumps[k].conj().T
        )
    shifted = [rep.jumps[k] + shifts[k] * np.eye(dim) for k in range(d)]
    jumps = [
        sum(mix[j, k] * shifted[k] for k in range(d)) for j in range(d + 1)
    ]
    return Representation(hamiltonian=ham, jumps=jumps, label=f"{rep.label}-qme-gauge")


def permuted_phase_variant(rng, rep: Representation) -> Representation:
    """Relabelled jumps with random phases and a real Hamiltonian shift."""
    d = rep.n_jumps
    perm = rng.permutation(d)
    phases = rng.uniform(-np.pi, np.pi, d)
    r = float(rng.standard_normal())
    jumps = [np.exp(1j * phases[k]) * rep.jumps[perm[k]] for k in range(d)]
    return Representation(
        hamiltonian=rep.hamiltonian + r * np.eye(rep.dim),
        jumps=jumps,
        label=f"{rep.label}-relabelled",
    )


def cross_block_mixture(rng, rep_min: Representation) -> Representation:
    """Unitarily mix one operator from each of two distinct blocks.

    Preserves the averaged-state generator but generically destroys the
    equal-destination structure, so trajectory equivalence must fail.
    """
    parts = partition(rep_min)
    assert parts.block_count >= 2
    i = parts.blocks[0].indices[0]
    j = parts.blocks[1].indices[0]
    unitary = haar_isometry(2, 2, rng)
    jumps = list(rep_min.jumps)
    jumps[i] = unitary[0, 0] * rep_min.jumps[i] + unitary[0, 1] * rep_min.jumps[j]
    jumps[j] = unitary[1, 0] * rep_min.jumps[i] + unitary[1, 1] * rep_min.jumps[j]
    return Representation(
        hamiltonian=rep_min.hamiltonian.copy(), jumps=jumps, label=f"{rep_min.label}-mixed"
    )


def rank_one_perturbation(rng, rep: Representation, scale: float = 0.3) -> Representation:
    """``rep`` with ``scale |J_1|_2 |v><v|`` added to its first jump, for a
    Haar-random unit ``v``: total rates and destinations both change."""
    v = normalize(rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim))
    jumps = list(rep.jumps)
    jumps[0] = jumps[0] + scale * np.linalg.norm(jumps[0], 2) * np.outer(v, v.conj())
    return Representation(
        hamiltonian=rep.hamiltonian.copy(), jumps=jumps, label=f"{rep.label}-perturbed"
    )
