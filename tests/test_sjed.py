import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd import models
from uqd.equivalence import apply_gauge
from uqd.errors import NumericalError, ValidationError
from uqd.linalg import (
    DEFAULT_TOL,
    Tolerance,
    density,
    frobenius,
    proportionality_coefficient,
    superoperator_matrix,
    vec,
)
from uqd.representation import Representation, jump_destination, liouvillian_matrix
from uqd.sjed import (
    NonResetBlock,
    ResetBlock,
    action_gap,
    are_jed,
    block_gaps,
    block_jumps,
    composite_action,
    fix_phase,
    fix_vector_phase,
    minimal_block_representation,
    minimize_representation,
    partition,
)
from conftest import ket
from dense_reference import block_action_matrix, eager_partition
from helpers import (
    close_targets,
    cross_block_mixture,
    haar_isometry,
    mixed_rank,
    permuted_phase_variant,
    random_block_isometry,
    random_minimal_representation,
    random_pure_state,
    random_unitary,
)


def reset_gamma_closed_form(theta, gamma):
    out = np.zeros((3, 3), dtype=complex)
    out[1, 1] = gamma * (1 + np.cos(theta) ** 2)
    out[2, 2] = gamma * (1 + np.sin(theta) ** 2)
    out[1, 2] = out[2, 1] = gamma * np.cos(theta) * np.sin(theta)
    return out


class TestAreJed:
    def test_decay_channels_share_destination(self, qutrit_a):
        assert are_jed(qutrit_a.jumps[0], qutrit_a.jumps[2])

    def test_dephasing_pair_shares_destination(self, qutrit_a):
        assert are_jed(qutrit_a.jumps[3], qutrit_a.jumps[4])

    def test_decay_vs_dephasing_differ(self, qutrit_a):
        # rank 1 against rank 2, not proportional: destinations split at |1>
        assert not are_jed(qutrit_a.jumps[0], qutrit_a.jumps[3])
        d1 = jump_destination(qutrit_a, 0, ket(3, 1))
        d4 = jump_destination(qutrit_a, 3, (ket(3, 0) + ket(3, 2)) / np.sqrt(2))
        assert np.linalg.norm(d1 - d4) > 0.5 * np.sqrt(2)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValidationError):
            are_jed(np.zeros((2, 2)), np.eye(2))

    def test_proportional_rank_one_pair(self):
        a = np.outer(ket(3, 0), ket(3, 1))
        assert are_jed(a, 2j * a)

    def test_rectangles_rejected(self):
        a = np.ones((2, 3))
        with pytest.raises(ValidationError):
            are_jed(a, 2 * a)


class TestPartition:
    def test_reset_targets_split_by_the_sine_of_their_angle(self):
        # 1 - cos(1e-9) is 5e-19, far below rtol; the sine 1e-9 is above it
        assert [blk.indices for blk in partition(close_targets(1e-9)).blocks] == [(0,), (1,), (2,)]
        assert [blk.indices for blk in partition(close_targets(1e-11)).blocks] == [(0, 1), (2,)]

    def test_rank_one_and_rank_two_jumps_never_share_a_block(self):
        for order in ((0, 1), (1, 0)):
            assert [blk.indices for blk in partition(mixed_rank(*order)).blocks] == [(0,), (1,)]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_scale_free(self, scale):
        # the jumps' directions are 0.9e-6 apart at every scale
        jumps = [scale * np.diag([np.cos(t), np.sin(t), 0.5]) for t in (0.0, 1e-6)]
        assert partition(Representation(hamiltonian=None, jumps=jumps)).block_count == 2

    def test_weights_follow_the_relation_when_atol_exceeds_rtol(self):
        # the sine is 4.5e-7, within the cutoff 1e-6, while the residual
        # 5e-5 is above both atol and rtol times the jump norm
        big = 100 * np.diag([1.0, 0.5, 0.0])
        jumps = [big, big + 5e-5 * np.diag([0.0, 0.0, 1.0])]
        parts = partition(Representation(hamiltonian=None, jumps=jumps), Tolerance(atol=1e-6, rtol=1e-10))
        assert [blk.indices for blk in parts.blocks] == [(0, 1)]
        assert parts.blocks[0].weight == pytest.approx(np.hypot(*map(frobenius, jumps)), rel=1e-12)

    def test_reset_chain_is_not_transitive_in_any_order(self):
        # each neighbour is within the cutoff of 1e-10, the outer pair is not
        zero, one, two = np.eye(3)
        for angles in itertools.permutations((0.0, 0.9e-10, 1.8e-10)):
            jumps = [np.outer(np.cos(t) * zero + np.sin(t) * one, two) for t in angles]
            with pytest.raises(NumericalError, match="not transitive"):
                partition(Representation(hamiltonian=None, jumps=jumps))

    def test_non_reset_chain_is_not_transitive_in_any_order(self):
        loose = Tolerance(atol=1e-10, rtol=0.1)
        for angles in itertools.permutations((0.0, 0.075, 0.15)):
            jumps = [np.diag([np.cos(t), np.sin(t), 0.3]) for t in angles]
            with pytest.raises(NumericalError, match="not transitive"):
                partition(Representation(hamiltonian=None, jumps=jumps), loose)

    def test_five_jump_model(self, qutrit_a):
        parts = partition(qutrit_a)
        assert [blk.indices for blk in parts.blocks] == [(0, 1, 2), (3, 4)]
        reset, non_reset = parts.blocks
        assert isinstance(reset, ResetBlock) and isinstance(non_reset, NonResetBlock)
        assert np.allclose(reset.chi, ket(3, 0), atol=1e-12)
        assert np.allclose(reset.gamma_op, reset_gamma_closed_form(np.pi / 6, 1.0), atol=1e-12)
        assert non_reset.weight == pytest.approx(2.0)
        lam = proportionality_coefficient(
            non_reset.canonical_op, models.shared_dephasing_operator()
        )
        assert lam is not None and abs(lam) == pytest.approx(1.0)

    def test_minimal_model(self, qutrit_a_min):
        parts = partition(qutrit_a_min)
        assert [blk.indices for blk in parts.blocks] == [(0, 1), (2,)]
        assert [blk.kind for blk in parts.blocks] == ["reset", "non-reset"]

    def test_two_reset_targets_model(self):
        theta = 0.7
        rep = models.qutrit_b(theta=theta, gammas=(1.0, 0.5, 2.0))
        parts = partition(rep)
        assert [blk.indices for blk in parts.blocks] == [(0, 1, 2), (3, 4)]
        assert all(blk.kind == "reset" for blk in parts.blocks)
        chi_1 = np.cos(theta) * ket(3, 0) + np.sin(theta) * ket(3, 2)
        assert abs(abs(np.vdot(parts.blocks[0].chi, chi_1)) - 1.0) < 1e-12
        gamma = np.diag([0.0, 1.5, 2.0]).astype(complex)
        assert np.allclose(parts.blocks[0].gamma_op, gamma, atol=1e-12)
        assert np.allclose(parts.blocks[1].gamma_op, gamma, atol=1e-12)

    def test_refinement_invariant(self, rng):
        reps = [
            models.qutrit_a(),
            models.qutrit_a_minimal(),
            models.qutrit_b(theta=0.3),
        ] + [random_minimal_representation(rng, dim=3, n_reset=2, n_nonreset=1) for _ in range(5)]
        for rep in reps:
            parts = partition(rep)
            lookup = parts.block_of_channel(rep.n_jumps)
            for i in range(rep.n_jumps):
                for j in range(i + 1, rep.n_jumps):
                    same_block = lookup[i] == lookup[j]
                    assert are_jed(rep.jumps[i], rep.jumps[j]) == same_block

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 16, 32])
    def test_blocks_carry_the_bits_of_per_jump_svds(self, dim):
        # one batched SVD must give each jump the bits of its own SVD
        rng = np.random.default_rng(dim)
        jumps = []
        for _ in range(6):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            jumps.append(raw if rng.random() < 0.5 else np.outer(raw[:, 0], raw[0]))
        jumps += [(0.3 - 0.4j) * jumps[0], 2.0 * jumps[1]]
        parts = partition(Representation(hamiltonian=None, jumps=jumps))
        for blk in parts.blocks:
            first = jumps[blk.indices[0]]
            u, sigma, _ = np.linalg.svd(first)
            reset = np.count_nonzero(sigma > DEFAULT_TOL.cutoff(sigma[0])) == 1
            assert isinstance(blk, ResetBlock) == reset
            if reset:
                assert blk.chi.tobytes() == fix_vector_phase(u[:, 0]).tobytes()
            else:
                canonical = fix_phase((first.reshape(-1) / frobenius(first)).reshape(dim, dim))
                assert blk.canonical_op.tobytes() == canonical.tobytes()

    def test_distinct_blocks_have_distinct_actions(self, qutrit_a):
        parts = partition(qutrit_a)
        actions = [composite_action(qutrit_a, blk) for blk in parts.blocks]
        assert frobenius(actions[0] - actions[1]) > 1e-3


class TestSummariesOnFirstRead:
    """A block of `partition` computes its summaries when they are first
    read, with the bits of the eager reference (`eager_partition`)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        shape=st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]),
        variant=st.sampled_from(["minimal", "relabelled", "gauged"]),
        backwards=st.booleans(),
    )
    def test_summaries_equal_the_eager_reference(self, seed, dim, shape, variant, backwards):
        rng = np.random.default_rng(seed)
        rep = random_minimal_representation(rng, dim, *shape)
        if variant == "relabelled":
            rep = permuted_phase_variant(rng, rep)
        elif variant == "gauged":
            rep = apply_gauge(rep, random_block_isometry(rng, rep), -0.7)
        lazy, eager = partition(rep), eager_partition(rep)
        assert [(type(b), b.indices) for b in lazy.blocks] == [
            (type(b), b.indices) for b in eager.blocks
        ]
        for blk, ref in zip(lazy.blocks, eager.blocks):
            names = ["chi", "gamma_op"] if isinstance(ref, ResetBlock) else ["canonical_op", "weight"]
            assert not set(names) & set(vars(blk))  # nothing computed before a read
            for name in names[::-1] if backwards else names:
                got, want = getattr(blk, name), getattr(ref, name)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert getattr(blk, name) is got  # computed once


def _classes(rep, relabel=None):
    """Blocks as (kind, member set), members mapped through ``relabel``."""
    relabel = range(rep.n_jumps) if relabel is None else relabel
    return {
        (blk.kind, frozenset(relabel[k] for k in blk.indices)) for blk in partition(rep).blocks
    }


class TestPartitionSymmetries:
    """The partition is unchanged, up to the relabelling of indices, under
    the symmetries of the theorems."""

    @staticmethod
    def models():
        rng = np.random.default_rng(4113)
        for trial in range(40):
            dim = int(rng.integers(2, 6))
            rep = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=2)
            if trial % 2:
                rep = apply_gauge(rep, random_block_isometry(rng, rep, extra=2))
            yield rng, rep

    def test_relabelling_with_phases(self):
        for rng, rep in self.models():
            perm = rng.permutation(rep.n_jumps)
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, rep.n_jumps))
            jumps = [phases[k] * rep.jumps[perm[k]] for k in range(rep.n_jumps)]
            other = Representation(hamiltonian=rep.hamiltonian, jumps=jumps)
            assert _classes(other, perm) == _classes(rep)

    def test_basis_change(self):
        for rng, rep in self.models():
            u = random_unitary(rep.dim, rng)
            other = Representation(
                hamiltonian=u @ rep.hamiltonian @ u.conj().T,
                jumps=[u @ jump @ u.conj().T for jump in rep.jumps],
            )
            assert _classes(other) == _classes(rep)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_common_rescale(self, scale):
        for _, rep in self.models():
            other = Representation(
                hamiltonian=scale**2 * rep.hamiltonian, jumps=[scale * j for j in rep.jumps]
            )
            assert _classes(other) == _classes(rep)


class TestCompositeAction:
    def test_reset_action_closed_form(self, qutrit_a, rng):
        parts = partition(qutrit_a)
        action = composite_action(qutrit_a, parts.blocks[0])
        gamma = reset_gamma_closed_form(np.pi / 6, 1.0)
        target = density(ket(3, 0))
        for _ in range(1000):
            psi = density(random_pure_state(3, rng))
            expected = np.trace(gamma @ psi) * target
            from uqd.linalg import unvec

            assert np.max(np.abs(unvec(action @ vec(psi)) - expected)) < 1e-12

    def test_dephasing_action_is_weighted_single_operator(self, qutrit_a):
        parts = partition(qutrit_a)
        action = composite_action(qutrit_a, parts.blocks[1])
        shared = models.shared_dephasing_operator()
        expected = 4.0 * np.kron(shared.conj(), shared)
        assert np.allclose(action, expected, atol=1e-12)

    def test_singleton_block(self, rng):
        rep = random_minimal_representation(rng, dim=3, n_reset=0, n_nonreset=1)
        parts = partition(rep)
        jump = rep.jumps[0]
        assert np.allclose(
            composite_action(rep, parts.blocks[0]), np.kron(jump.conj(), jump), atol=1e-12
        )

    def test_block_action_matrix_agrees(self, qutrit_a, rng):
        for rep in (qutrit_a, models.qutrit_b(theta=1.1)):
            parts = partition(rep)
            for blk in parts.blocks:
                direct = composite_action(rep, blk)
                assert np.max(np.abs(block_action_matrix(blk) - direct)) < 1e-12

    def test_actions_sum_to_full_channel(self, qutrit_a):
        parts = partition(qutrit_a)
        total = sum(composite_action(qutrit_a, blk) for blk in parts.blocks)
        assert np.max(np.abs(total - superoperator_matrix(qutrit_a.jumps))) < 1e-12


class TestBlockGaps:
    """Gaps and matches from one factored stack of both sides' jumps."""

    @staticmethod
    def gaps(rep_b, rep_a):
        """`block_gaps`, held to one `action_gap` per block and per pair, to
        1e-12 of the pair's larger action norm."""
        parts_b, parts_a = partition(rep_b), partition(rep_a)
        gaps, match = block_gaps(rep_b, parts_b, rep_a, parts_a)
        for alpha, blk_b in enumerate(parts_b.blocks):
            for beta, blk_a in enumerate(parts_a.blocks):
                jumps_b, jumps_a = block_jumps(rep_b, blk_b), block_jumps(rep_a, blk_a)
                scale = max(action_gap(jumps_b), action_gap(jumps_a))
                gap = action_gap(jumps_b, jumps_a)
                assert abs(gaps[alpha, beta] - gap) <= 1e-12 * scale
                assert match[alpha, beta] == (gap <= 1e-10 * scale)
        return gaps, match

    def test_agree_with_pairwise_action_gaps(self, rng):
        for dim in range(2, 6):
            rep = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=2)
            gauged = apply_gauge(rep, random_block_isometry(rng, rep))
            _, match = self.gaps(gauged, rep)
            assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()
            _, match = self.gaps(cross_block_mixture(rng, rep), rep)
            assert not match.all()
            unrelated = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=2)
            assert not self.gaps(unrelated, rep)[1].any()

    @pytest.mark.parametrize("ratio", [1e3, 1e5, 1e8])
    def test_small_block_matches_beside_large_ones(self, rng, ratio):
        # a 3-jump reset block, unitarily mixed, beside two blocks whose
        # actions are ``ratio`` times larger: its gap is rounded at eps of
        # its own size, not of the stack's
        for _ in range(8):
            dim = int(rng.integers(3, 6))
            chi = random_pure_state(dim, rng)
            small = [
                (0.3 + rng.random()) * np.outer(chi, row.conj())
                for row in haar_isometry(dim, 3, rng).T
            ]
            large = random_minimal_representation(rng, dim, n_reset=1, n_nonreset=1)
            big = [np.sqrt(ratio) * jump for jump in large.jumps]
            mix = haar_isometry(3, 3, rng)
            mixed = [sum(mix[i, k] * small[k] for k in range(3)) for i in range(3)]
            rep = Representation(large.hamiltonian, [*small, *big])
            other = Representation(large.hamiltonian, [*big, *mixed])
            gaps, match = self.gaps(other, rep)
            assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()
            small_norm = action_gap(small)
            assert match[-1, 0] and gaps[-1, 0] <= 1e-13 * small_norm


class TestMinimalBlockRepresentation:
    def test_reset_block_diagonalizes_to_two_operators(self, qutrit_a, qutrit_a_min):
        parts = partition(qutrit_a)
        ops = minimal_block_representation(parts.blocks[0])
        assert len(ops) == 2
        # same composite action as the recombined pair, operators equal up to phase
        assert np.max(
            np.abs(superoperator_matrix(ops) - superoperator_matrix(qutrit_a_min.jumps[:2]))
        ) < 1e-10
        # descending weight: first operator carries rate 2, second rate 1
        assert frobenius(ops[0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert frobenius(ops[1]) == pytest.approx(1.0, abs=1e-12)
        for emitted, reference in zip(ops, (qutrit_a_min.jumps[1], qutrit_a_min.jumps[0])):
            lam = proportionality_coefficient(emitted, reference)
            assert lam is not None and abs(abs(lam) - 1.0) < 1e-10

    def test_dephasing_block_collapses_to_one_operator(self, qutrit_a, qutrit_a_min):
        parts = partition(qutrit_a)
        (op,) = minimal_block_representation(parts.blocks[1])
        lam = proportionality_coefficient(op, qutrit_a_min.jumps[2])
        assert lam is not None and abs(abs(lam) - 1.0) < 1e-10

    def test_idempotent_on_singleton(self):
        rep = Representation(hamiltonian=None, jumps=[np.outer(ket(2, 0), ket(2, 1))])
        parts = partition(rep)
        (op,) = minimal_block_representation(parts.blocks[0])
        lam = proportionality_coefficient(op, rep.jumps[0])
        assert lam is not None and abs(abs(lam) - 1.0) < 1e-12

    def test_missed_weight_raises(self):
        # one eigenvalue of 1.4e-9 falls below atol * Tr(Gamma) = 1.5e-9 and
        # is dropped, but it exceeds 1e-10 * |Gamma|_F = 3.9e-10
        rng = np.random.default_rng(8)
        basis = haar_isometry(16, 16, rng)
        weights = np.ones(16)
        weights[3] = 1.4e-9
        block = ResetBlock(
            indices=(0,),
            chi=random_pure_state(16, rng),
            gamma_op=(basis * weights) @ basis.conj().T,
        )
        with pytest.raises(NumericalError, match="miss the composite action"):
            minimal_block_representation(block)


class TestMinimizeRepresentation:
    def test_five_to_three(self, qutrit_a):
        minimal = minimize_representation(qutrit_a)
        assert minimal.n_jumps == 3
        assert np.max(
            np.abs(liouvillian_matrix(minimal) - liouvillian_matrix(qutrit_a))
        ) < 1e-10

    def test_already_minimal_keeps_count(self, qutrit_a_min):
        assert minimize_representation(qutrit_a_min).n_jumps == qutrit_a_min.n_jumps

    def test_two_reset_blocks_reduce_to_four(self):
        rep = models.qutrit_b(theta=0.4, gammas=(1.0, 0.5, 2.0))
        assert minimize_representation(rep).n_jumps == 4

    def test_composite_actions_preserved(self, rng):
        reps = [
            models.qutrit_a(),
            models.qutrit_a_minimal(),
            models.qutrit_b(theta=0.9),
        ]
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            n_reset = int(rng.integers(0, 3))
            n_nonreset = int(rng.integers(0 if n_reset else 1, 2))
            reps.append(random_minimal_representation(rng, dim, n_reset, n_nonreset))
        for rep in reps:
            parts = partition(rep)
            for blk in parts.blocks:
                ops = minimal_block_representation(blk)
                delta = superoperator_matrix(ops) - composite_action(rep, blk)
                assert np.max(np.abs(delta)) < 1e-10

    def test_memory_is_not_quartic_in_dim(self):
        import tracemalloc

        # dim 32, two redundant reset blocks and a non-reset block: a check
        # through dim^2 x dim^2 superoperators peaked near 50 MB
        rng = np.random.default_rng(132)
        rep_min = random_minimal_representation(rng, 32, n_reset=2, n_nonreset=1, max_rank=3)
        rep = apply_gauge(rep_min, random_block_isometry(rng, rep_min, extra=2))
        tracemalloc.start()
        try:
            minimal = minimize_representation(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert minimal.n_jumps == rep_min.n_jumps < rep.n_jumps
        assert peak < 4 * 2**20

    def test_block_checked_against_its_own_jumps(self):
        # targets 0.9e-10 apart share a block, but the heavy second member's
        # action differs from one reset onto the first target by 1.3e-8,
        # above the block's cutoff of 1.0e-8
        rep = close_targets(0.9e-10, weight=10.0)
        assert partition(rep).block_count == 2
        with pytest.raises(NumericalError, match="block 1 miss its jumps' composite action"):
            minimize_representation(rep)
        assert minimize_representation(close_targets(0.9e-10)).n_jumps == 3

    def test_idempotent_up_to_phases(self, qutrit_a):
        once = minimize_representation(qutrit_a)
        twice = minimize_representation(once)
        assert twice.n_jumps == once.n_jumps
        for a, b in zip(twice.jumps, once.jumps):
            lam = proportionality_coefficient(a, b)
            assert lam is not None and abs(abs(lam) - 1.0) < 1e-10


class TestPhaseFixing:
    def test_first_significant_entry_real_positive(self):
        mat = np.array([[0.0, -2.0j], [1.0, 0.0]])
        fixed = fix_phase(mat)
        assert fixed[0, 1].real > 0 and abs(fixed[0, 1].imag) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            fix_phase(np.zeros((2, 2)))
