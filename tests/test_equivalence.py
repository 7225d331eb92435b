import numpy as np
import pytest

from uqd import models
from uqd.equivalence import (
    BlockIsometry,
    apply_gauge,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    evaluate,
    extract_isometry,
    same_liouvillian,
)
from uqd.errors import NumericalError, ValidationError
from uqd.linalg import Tolerance, frobenius, haar_isometry
from uqd.representation import Representation
from uqd.sjed import partition
import dense_reference
from helpers import (
    cross_block_mixture,
    mixed_rank,
    permuted_phase_variant,
    qme_gauge_variant,
    random_block_isometry,
    random_minimal_representation,
    tilted,
)

THETA = np.pi / 6


def closed_form_isometry(theta=THETA, vartheta=np.pi / 3, phi=0.0):
    """The 5x3 block matrix relating the recombined and split models."""
    return np.array(
        [
            [-np.sin(theta), np.cos(theta) / np.sqrt(2), 0],
            [np.cos(theta), np.sin(theta) / np.sqrt(2), 0],
            [0, 1 / np.sqrt(2), 0],
            [0, 0, np.cos(vartheta)],
            [0, 0, np.exp(1j * phi) * np.sin(vartheta)],
        ],
        dtype=complex,
    )


def wrap_phase(x):
    return float(np.angle(np.exp(1j * x)))


class TestSameLiouvillian:
    def test_recombined_pair(self, qutrit_a, qutrit_a_min):
        assert same_liouvillian(qutrit_a, qutrit_a_min)

    def test_rate_change_detected(self, qutrit_a):
        assert not same_liouvillian(qutrit_a, models.qutrit_a(gamma=2.0))

    def test_hamiltonian_shift_invisible(self, qutrit_a):
        shifted = Representation(
            hamiltonian=qutrit_a.hamiltonian + 1.3 * np.eye(3),
            jumps=qutrit_a.jumps,
        )
        assert same_liouvillian(qutrit_a, shifted)

    def test_dim_mismatch_rejected(self, qutrit_a):
        other = Representation(hamiltonian=None, jumps=[np.eye(2)])
        with pytest.raises(ValidationError):
            same_liouvillian(qutrit_a, other)


class TestTheorem1:
    def test_split_angle_variations_hold(self):
        base = models.qutrit_a(vartheta=np.pi / 3, phi=0.0)
        for vt in (0.3, 1.0, 2.0):
            for ph in (0.0, 1.3, 4.0):
                verdict = check_theorem1(base, models.qutrit_a(vartheta=vt, phi=ph))
                assert verdict.holds
                assert verdict.block_perm == (0, 1)
                assert verdict.shift == pytest.approx(0.0, abs=1e-12)

    def test_recombined_pair_holds(self, qutrit_a, qutrit_a_min):
        verdict = check_theorem1(qutrit_a, qutrit_a_min)
        assert verdict.holds and verdict.block_perm == (0, 1)
        assert verdict.shift == pytest.approx(0.0, abs=1e-12)

    def test_hamiltonian_shift_recovered(self, qutrit_a_min):
        shifted = Representation(
            hamiltonian=qutrit_a_min.hamiltonian + 0.7 * np.eye(3),
            jumps=qutrit_a_min.jumps,
        )
        verdict = check_theorem1(qutrit_a_min, shifted)
        assert verdict.holds and verdict.shift == pytest.approx(0.7)

    def test_different_qme_short_circuits(self, qutrit_a):
        verdict = check_theorem1(qutrit_a, models.qutrit_a(gamma=2.0))
        assert not verdict.holds and verdict.diagnostics == ("different QME",)

    def test_swapped_reset_targets(self):
        tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))
        rotated = models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0))
        verdict = check_theorem1(tilde, rotated)
        assert verdict.holds and verdict.block_perm == (1, 0)

    def test_verdict_symmetry(self, rng, qutrit_a, qutrit_a_min):
        pairs = [(qutrit_a, qutrit_a_min)]
        for _ in range(5):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            iso = random_block_isometry(rng, rep)
            shift = float(rng.standard_normal())
            pairs.append((rep, apply_gauge(rep, iso, shift)))
        for rep_x, rep_y in pairs:
            forward = check_theorem1(rep_x, rep_y)
            backward = check_theorem1(rep_y, rep_x)
            assert forward.holds == backward.holds
            if forward.holds:
                assert backward.shift == pytest.approx(-forward.shift, abs=1e-9)
                inverse = tuple(np.argsort(forward.block_perm))
                assert backward.block_perm == inverse


class TestTheorem2:
    def test_special_angle_offsets(self):
        phi, phi_t = 0.3, 0.7
        vt = np.pi / 5
        base = models.qutrit_a(vartheta=vt, phi=phi)
        # offset -> (expected permutation of the dephasing pair, expected phases)
        cases = {
            0.0: ((3, 4), (0.0, wrap_phase(phi_t - phi))),
            np.pi / 2: ((4, 3), (wrap_phase(np.pi - phi), phi_t)),
            np.pi: ((3, 4), (np.pi, wrap_phase(np.pi + phi_t - phi))),
            3 * np.pi / 2: ((4, 3), (wrap_phase(-phi), wrap_phase(np.pi + phi_t))),
        }
        for offset, (tail_perm, tail_phases) in cases.items():
            other = models.qutrit_a(vartheta=vt + offset, phi=phi_t)
            verdict = check_theorem2(base, other)
            assert verdict.holds, offset
            matching = verdict.matchings[0]
            assert matching.perm == (0, 1, 2) + tail_perm
            assert matching.phases[:3] == (0.0, 0.0, 0.0)
            for got, expected in zip(matching.phases[3:], tail_phases):
                assert abs(wrap_phase(got - expected)) < 1e-10

    def test_generic_offset_fails(self):
        vt = np.pi / 5
        base = models.qutrit_a(vartheta=vt, phi=0.3)
        other = models.qutrit_a(vartheta=vt + np.pi / 6, phi=0.7)
        assert not check_theorem2(base, other).holds

    def test_jump_count_mismatch(self, qutrit_a, qutrit_a_min):
        verdict = check_theorem2(qutrit_a, qutrit_a_min)
        assert not verdict.holds
        assert verdict.diagnostics == ("jump counts differ (5 vs 3)",)

    def test_degenerate_channels_give_multiple_matchings(self):
        # at theta = 0 the first and third decay channels coincide
        one = models.qutrit_a(theta=0.0, vartheta=np.pi / 5, phi=0.3)
        two = models.qutrit_a(theta=0.0, vartheta=np.pi / 5, phi=0.8)
        verdict = check_theorem2(one, two, enumerate_all=True)
        assert verdict.holds and verdict.multiple
        assert len(verdict.matchings) >= 2
        perms = {m.perm for m in verdict.matchings}
        assert (0, 1, 2, 3, 4) in perms and (2, 1, 0, 3, 4) in perms

    def test_default_run_reports_multiplicity_with_one_matching(self):
        one = models.qutrit_a(theta=0.0)
        verdict = check_theorem2(one, one)
        assert verdict.holds and verdict.multiple and len(verdict.matchings) == 1

    def test_relabelled_variant_recovered(self, rng):
        rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
        other = permuted_phase_variant(rng, rep)
        verdict = check_theorem2(rep, other)
        assert verdict.holds
        perm = verdict.matchings[0].perm
        phases = verdict.matchings[0].phases
        for k in range(other.n_jumps):
            rebuilt = np.exp(1j * phases[k]) * rep.jumps[perm[k]]
            assert frobenius(other.jumps[k] - rebuilt) < 1e-10


def scaled(*weights: float) -> Representation:
    """Jumps ``sqrt(w) * diag(cos 0.3, sin 0.3)``, one per weight: one
    equal-destination block, in one phase class per weight."""
    return Representation(
        hamiltonian=None,
        jumps=[np.sqrt(w) * np.diag([np.cos(0.3), np.sin(0.3)]) for w in weights],
    )


class TestPhaseClasses:
    def test_equal_classes_match_within_each_class(self):
        # jumps 1 and 3 form one class of two on each side
        rep = tilted(0.0, 1.0, 0.0)
        other = tilted(1.0, 0.0, 0.0)
        verdict = check_theorem2(rep, other, enumerate_all=True)
        assert verdict.holds and verdict.multiple
        assert [m.perm for m in verdict.matchings] == [(1, 0, 2), (1, 2, 0)]

    def test_class_size_mismatch(self):
        # the composite actions agree (weights 1 + 2 + 3 = 2 + 2 + 2) and
        # every jump of the second side has a counterpart, but class {2}
        # has one jump on the first side and three on the second
        rep, other = scaled(1.0, 2.0, 3.0), scaled(2.0, 2.0, 2.0)
        assert check_theorem1(rep, other).holds
        verdict = check_theorem2(rep, other)
        assert not verdict.holds
        assert verdict.diagnostics == ("no permutation aligns all jumps up to phases",)

    def test_overlapping_classes_are_a_named_error(self):
        # at rtol 0.1 jumps within 0.1 rad are proportional and theorem 1
        # holds: the second side's first jump matches both of the first
        # side's, its second jump only the second
        loose = Tolerance(atol=1e-10, rtol=0.1)
        rep, other = tilted(0.0, 0.15), tilted(0.05, 0.175)
        assert check_theorem1(rep, other, loose).holds
        with pytest.raises(NumericalError, match="phase classes overlap at jump 2"):
            check_theorem2(rep, other, loose)

    @pytest.mark.parametrize(
        "angles_a, angles_b",
        [((0.0,), (0.09,)), ((0.0, 0.15), (0.075, 0.2))],
        ids=["proportional", "overlapping"],
    )
    def test_classes_need_theorem1(self, angles_a, angles_b):
        # at rtol 0.1 every jump of the second side is a phase times one of
        # the first's, but the generators differ: theorem 2 fails with
        # theorem 1, and overlapping classes are never tested
        loose = Tolerance(atol=1e-10, rtol=0.1)
        rep, other = tilted(*angles_a), tilted(*angles_b)
        report = evaluate(rep, other, loose)
        assert not report.same_qme and not report.theorem1.holds
        assert not report.theorem2.holds
        assert report.theorem2.diagnostics == ("theorem 1 fails",)
        assert check_theorem2(rep, other, loose) == report.theorem2


class TestTheorem3:
    def test_forced_identity_holds(self, qutrit_a, qutrit_a_min):
        verdict = check_theorem3(qutrit_a, qutrit_a_min, block_perm=(0, 1))
        assert verdict.holds

    def test_forced_swap_fails(self, qutrit_a, qutrit_a_min):
        verdict = check_theorem3(qutrit_a, qutrit_a_min, block_perm=(1, 0))
        assert not verdict.holds and verdict.diagnostics

    def test_swapped_targets_need_the_swap(self):
        tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))
        rotated = models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0))
        assert check_theorem3(tilde, rotated, block_perm=(1, 0)).holds
        assert not check_theorem3(tilde, rotated, block_perm=(0, 1)).holds

    def test_wrong_length_rejected(self, qutrit_a, qutrit_a_min):
        with pytest.raises(ValidationError):
            check_theorem3(qutrit_a, qutrit_a_min, block_perm=(0, 1, 2))

    def test_search_delegates_to_theorem1(self, qutrit_a, qutrit_a_min):
        free = check_theorem3(qutrit_a, qutrit_a_min)
        assert free.holds and free.block_perm == (0, 1)


class TestImplicationChain:
    def test_chain_on_random_pairs(self, rng):
        from itertools import permutations

        checked_theorem2_holds = 0
        for trial in range(50):
            dim = int(rng.integers(2, 5))
            n_reset = int(rng.integers(0, 3))
            n_nonreset = int(rng.integers(0 if n_reset else 1, 2))
            rep = random_minimal_representation(rng, dim, n_reset, n_nonreset)
            kind = trial % 5
            if kind == 0:
                other = apply_gauge(rep, random_block_isometry(rng, rep), float(rng.standard_normal()))
            elif kind == 1:
                other = permuted_phase_variant(rng, rep)
            elif kind == 2:
                other = qme_gauge_variant(rng, rep)
            elif kind == 3:
                other = random_minimal_representation(rng, dim, max(1, n_reset), n_nonreset)
            else:
                other = rep
            qme = same_liouvillian(rep, other)
            t1 = check_theorem1(rep, other)
            t2 = check_theorem2(rep, other)
            if t2.holds:
                checked_theorem2_holds += 1
                assert t1.holds
            if t1.holds:
                assert qme
            # an exhaustive forced-pairing search agrees with the free search
            parts = partition(rep)
            parts_other = partition(other)
            if parts.block_count == parts_other.block_count and parts.block_count <= 3:
                any_forced = any(
                    check_theorem3(rep, other, block_perm=perm).holds
                    for perm in permutations(range(parts.block_count))
                )
                assert any_forced == t1.holds
        assert checked_theorem2_holds >= 5  # the mix really exercises the branch


class TestGauge:
    def test_closed_form_matrix_reproduces_split_model(self, qutrit_a, qutrit_a_min):
        iso = BlockIsometry(
            matrix=closed_form_isometry(),
            row_blocks=((0, 1, 2), (3, 4)),
            col_blocks=((0, 1), (2,)),
            block_map=(0, 1),
        )
        rebuilt = apply_gauge(qutrit_a_min, iso, shift=0.0)
        for built, reference in zip(rebuilt.jumps, qutrit_a.jumps):
            assert np.max(np.abs(built - reference)) < 1e-12

    def test_identity_isometry_is_a_no_op(self, qutrit_a_min):
        parts = partition(qutrit_a_min)
        blocks = tuple(blk.indices for blk in parts.blocks)
        iso = BlockIsometry(
            matrix=np.eye(3, dtype=complex),
            row_blocks=blocks,
            col_blocks=blocks,
            block_map=(0, 1),
        )
        rebuilt = apply_gauge(qutrit_a_min, iso, shift=0.0)
        for built, reference in zip(rebuilt.jumps, qutrit_a_min.jumps):
            assert np.max(np.abs(built - reference)) < 1e-14

    def test_random_isometries_pass_theorem1(self, rng):
        for _ in range(10):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            iso = random_block_isometry(rng, rep)
            out = apply_gauge(rep, iso, shift=float(rng.standard_normal()))
            assert check_theorem1(rep, out).holds

    def test_non_isometric_matrix_rejected(self, qutrit_a_min):
        bad = closed_form_isometry()
        bad[0, 0] *= 1.5
        iso = BlockIsometry(
            matrix=bad,
            row_blocks=((0, 1, 2), (3, 4)),
            col_blocks=((0, 1), (2,)),
            block_map=(0, 1),
        )
        with pytest.raises(ValidationError, match="isometry"):
            apply_gauge(qutrit_a_min, iso, shift=0.0)

    def test_block_pattern_violation_rejected(self, qutrit_a_min):
        leaky = closed_form_isometry()
        leaky[0, 2] = 0.5  # couples the two blocks
        iso = BlockIsometry(
            matrix=leaky,
            row_blocks=((0, 1, 2), (3, 4)),
            col_blocks=((0, 1), (2,)),
            block_map=(0, 1),
        )
        with pytest.raises(ValidationError, match="block"):
            apply_gauge(qutrit_a_min, iso, shift=0.0)

    def test_non_minimal_reference_rejected(self, qutrit_a):
        parts = partition(qutrit_a)
        blocks = tuple(blk.indices for blk in parts.blocks)
        iso = BlockIsometry(
            matrix=np.eye(5, dtype=complex), row_blocks=blocks, col_blocks=blocks,
            block_map=(0, 1),
        )
        with pytest.raises(ValidationError, match="minimal"):
            apply_gauge(qutrit_a, iso, shift=0.0)


class TestExtractIsometry:
    def test_closed_form_recovered_up_to_column_phases(self, qutrit_a, qutrit_a_min):
        iso, shift = extract_isometry(qutrit_a_min, qutrit_a)
        assert shift == 0.0
        reference = closed_form_isometry()
        for col in range(3):
            overlap = np.vdot(reference[:, col], iso.matrix[:, col])
            phase = overlap / abs(overlap)
            assert np.max(np.abs(iso.matrix[:, col] - phase * reference[:, col])) < 1e-10

    def test_self_extraction_is_identity(self, qutrit_a_min):
        iso, _ = extract_isometry(qutrit_a_min, qutrit_a_min)
        assert np.max(np.abs(iso.matrix - np.eye(3))) < 1e-12

    def test_roundtrip_recovers_random_isometry(self, rng):
        for _ in range(10):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            iso = random_block_isometry(rng, rep)
            shift = float(rng.standard_normal())
            image = apply_gauge(rep, iso, shift)
            recovered, recovered_shift = extract_isometry(rep, image)
            assert np.max(np.abs(recovered.matrix - iso.matrix)) < 1e-10
            assert recovered_shift == pytest.approx(shift, abs=1e-12)
            rebuilt = apply_gauge(rep, recovered, shift)
            for built, reference in zip(rebuilt.jumps, image.jumps):
                assert np.max(np.abs(built - reference)) < 1e-10

    def test_inequivalent_pair_rejected(self, qutrit_a):
        other = models.qutrit_a(gamma=2.0)
        minimal = models.qutrit_a_minimal()
        with pytest.raises(ValidationError, match="not trajectory-equivalent"):
            extract_isometry(minimal, other)


class TestCrossBlockFalsifier:
    def test_mixture_keeps_qme_but_breaks_trajectories(self, rng):
        for _ in range(10):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            mixed = cross_block_mixture(rng, rep)
            assert same_liouvillian(rep, mixed)
            assert not check_theorem1(rep, mixed).holds


class TestEvaluate:
    def test_report_bundles_everything(self, qutrit_a, qutrit_a_min):
        report = evaluate(qutrit_a, qutrit_a_min)
        assert report.same_qme and report.theorem1.holds and report.theorem3.holds
        assert not report.theorem2.holds
        doc = report.to_document()
        assert doc["theorem1"]["block_perm"] == [1, 2]
        assert any("jump counts differ" in d for d in doc["diagnostics"])

    def test_relabelled_mixed_rank_pair_is_labelled_equivalent(self):
        # a rank-1 and a rank-2 jump never share a block, in either order
        report = evaluate(mixed_rank(0, 1), mixed_rank(1, 0))
        assert report.theorem1.holds and report.theorem2.holds
        assert report.theorem1.block_perm == (1, 0)


def _scaled_jump(rep, k, factor):
    jumps = list(rep.jumps)
    jumps[k] = factor * jumps[k]
    return Representation(hamiltonian=rep.hamiltonian, jumps=jumps, label=rep.label)


class TestDenseReference:
    """The factor path against the dense superoperator matrices it replaced."""

    @staticmethod
    def documents(rep_a, rep_b, block_perm=None):
        fast = evaluate(rep_a, rep_b, block_perm=block_perm).to_document()
        dense = dense_reference.evaluate(rep_a, rep_b, block_perm=block_perm).to_document()
        assert fast == dense
        return fast

    def test_families_match_dense_documents(self, rng):
        verdicts = set()
        for trial in range(24):
            dim = int(rng.integers(2, 6))
            rep = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=1)
            kind = trial % 4
            if kind == 0:
                other = apply_gauge(rep, random_block_isometry(rng, rep), float(rng.standard_normal()))
            elif kind == 1:
                other = permuted_phase_variant(rng, rep)
            elif kind == 2:
                other = qme_gauge_variant(rng, rep)
            else:
                other = cross_block_mixture(rng, rep)
            doc = self.documents(rep, other)
            verdicts.add((kind, doc["same_qme"], doc["theorem1"]["holds"]))
            n_blocks = partition(rep).block_count
            if partition(other).block_count == n_blocks:
                for perm in (tuple(range(n_blocks)), tuple(rng.permutation(n_blocks))):
                    self.documents(rep, other, block_perm=perm)
        # each family reached the verdict its construction fixes
        assert {(0, True, True), (1, True, True), (2, True, False), (3, True, False)} <= verdicts

    def test_both_paths_flip_on_the_same_side_of_the_cutoff(self, rng):
        # the last jump is a one-member non-reset block: scaling it by
        # 1 + delta moves its action by about 2 delta of the action's norm,
        # against a relative cutoff of 1e-10
        rep = random_minimal_representation(rng, 4, n_reset=2, n_nonreset=1)
        last = rep.n_jumps - 1
        held = self.documents(rep, _scaled_jump(rep, last, 1 + 1e-11))
        assert held["same_qme"] and held["theorem1"]["holds"]
        failed = self.documents(rep, _scaled_jump(rep, last, 1 + 1e-9))
        assert not failed["theorem1"]["holds"] and not failed["theorem3"]["holds"]


class TestDecisionPathCost:
    """Deciding builds no dim^2 x dim^2 matrix and analyses each side once."""

    @staticmethod
    def gauge_pair(rng, dim, max_rank=None):
        rep = random_minimal_representation(rng, dim, 2, 2, max_rank=max_rank)
        return rep, apply_gauge(rep, random_block_isometry(rng, rep), -0.7)

    def test_memory_stays_far_below_one_dense_generator(self, rng):
        import tracemalloc

        # jump counts as in the benchmark's pairs (at most 12 per side), so
        # the operators themselves take under 0.2 MB per side
        rep, other = self.gauge_pair(rng, 32, max_rank=3)
        n_blocks = partition(rep).block_count
        for block_perm in (None, tuple(range(n_blocks))):
            evaluate(rep, other, block_perm=block_perm)  # warm any lazy imports
            tracemalloc.start()
            try:
                report = evaluate(rep, other, block_perm=block_perm)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.theorem1.holds
            # one dense dim-32 generator alone is 1024^2 complex entries, 16 MB
            assert peak < 4 * 2**20

    def test_one_generator_comparison_and_one_partition_per_side(self, rng, monkeypatch):
        import uqd.equivalence as equivalence

        rep, other = self.gauge_pair(rng, 6)
        calls = {"same_liouvillian": 0, "partition": 0}

        def counted(name):
            original = getattr(equivalence, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(equivalence, name, counted(name))
        report = evaluate(rep, other)
        assert calls == {"same_liouvillian": 1, "partition": 2}
        assert report.theorem3 == check_theorem3(rep, other)
        assert report.theorem3 == report.theorem1 and report.theorem1.holds

    def test_one_gap_matrix_with_a_forced_pairing(self, rng, monkeypatch):
        import uqd.equivalence as equivalence

        rep, other = self.gauge_pair(rng, 6)
        block_perm = check_theorem1(rep, other).block_perm
        calls = []
        original = equivalence.block_gaps

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(equivalence, "block_gaps", counting)
        report = evaluate(rep, other, block_perm=block_perm)
        assert len(calls) == 1
        assert report.theorem1.holds and report.theorem3.holds
        assert report.theorem3.block_perm == report.theorem1.block_perm == block_perm

    def test_three_qr_factorisations_per_matched_pair(self, rng, monkeypatch):
        # one per stack: the generators' left and right factors, and the
        # jumps of both sides, whatever the number of blocks
        rep = random_minimal_representation(rng, 5, n_reset=2, n_nonreset=1)
        other = apply_gauge(rep, random_block_isometry(rng, rep), -0.7)
        calls = []
        original = np.linalg.qr

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        report = evaluate(rep, other)
        assert partition(rep).block_count == 3 and report.theorem1.holds
        assert len(calls) == 3

    def test_dim_64_gauge_pair_holds(self, rng):
        rep, other = self.gauge_pair(rng, 64)
        verdict = check_theorem1(rep, other)
        assert verdict.holds and verdict.shift == pytest.approx(-0.7, abs=1e-9)
