from dataclasses import replace

import numpy as np
import pytest

from uqd import ensemble, models
from uqd.ensemble import (
    FIG_RATE_COLUMNS,
    RATE_CURVE_CONVENTION,
    compare_ensembles,
    mean_state_check,
    rate_field_scan,
    rate_curves,
    _block_counts,
    _channel_counts,
    _chi2_two_sample,
    _snap,
)
from uqd.equivalence import check_theorem1, same_liouvillian
from uqd.errors import ValidationError
from uqd.linalg import DEFAULT_TOL, Tolerance
from uqd.representation import Representation
from uqd.sjed import partition
from uqd.trajectory import coarse_grain, simulate_ensemble
from conftest import ket
from helpers import random_block_isometry, random_minimal_representation, without_rows


def single_decay(gamma=1.0):
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = np.sqrt(gamma)
    return Representation(hamiltonian=None, jumps=[jump], label="decay")


def shifted_dephasing_variant(shift=0.4 + 0.3j):
    """Same averaged dynamics as the minimal model, but the merged dephasing
    operator is displaced by a multiple of the identity (destination-changing)."""
    base = models.qutrit_a_minimal()
    jumps = list(base.jumps)
    third = jumps[2]
    jumps[2] = third + shift * np.eye(3)
    ham = base.hamiltonian - 0.5j * (
        np.conj(shift) * third - shift * third.conj().T
    )
    return Representation(hamiltonian=ham, jumps=jumps, label="shifted")


BASIS_OBS = {
    "p0": np.diag([1.0, 0, 0]).astype(complex),
    "p1": np.diag([0, 1.0, 0]).astype(complex),
}


class TestRateFieldScan:
    def test_equivalent_pair_has_negligible_deviation(self, qutrit_a, qutrit_a_min):
        report = rate_field_scan(qutrit_a, qutrit_a_min, n_states=1000, seed=1)
        assert report.max_total_rate_dev < 1e-10
        assert report.max_block_action_dev < 1e-10
        assert report.block_perm == (0, 1)

    def test_self_comparison_is_exact(self, qutrit_a):
        report = rate_field_scan(qutrit_a, qutrit_a, n_states=200, seed=2)
        assert report.max_total_rate_dev == 0.0
        assert report.max_block_action_dev == 0.0

    def test_destination_shift_is_flagged(self, qutrit_a_min):
        shifted = shifted_dephasing_variant()
        assert same_liouvillian(qutrit_a_min, shifted)
        assert not check_theorem1(qutrit_a_min, shifted).holds
        report = rate_field_scan(qutrit_a_min, shifted, n_states=300, seed=3)
        assert report.max_block_action_dev > 1e-3

    def test_cross_mixing_is_flagged_on_some_state(self, rng):
        from helpers import cross_block_mixture

        rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
        mixed = cross_block_mixture(rng, rep)
        report = rate_field_scan(rep, mixed, n_states=1000, seed=4)
        assert report.max_block_action_dev > 1e-3

    def test_block_count_mismatch_reported_as_infinite(self, qutrit_a_min):
        # appending a fresh independent channel splits into a third block
        extra = list(qutrit_a_min.jumps) + [0.3 * np.outer(ket(3, 1), ket(3, 0))]
        other = Representation(hamiltonian=qutrit_a_min.hamiltonian, jumps=extra)
        report = rate_field_scan(qutrit_a_min, other, n_states=50, seed=5)
        assert np.isinf(report.max_block_action_dev)
        assert report.block_perm is None
        assert report.to_document()["max_block_action_dev"] is None

    def test_theorem_holders_scan_clean(self, rng):
        for _ in range(5):
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
            image = apply = random_block_isometry(rng, rep)
            from uqd.equivalence import apply_gauge

            image = apply_gauge(rep, apply, float(rng.standard_normal()))
            verdict = check_theorem1(rep, image)
            assert verdict.holds
            report = rate_field_scan(rep, image, block_perm=verdict.block_perm,
                                     n_states=100, seed=6)
            assert report.max_block_action_dev < 1e-10


class TestMeanStateCheck:
    def test_dark_state_single_trajectory_is_exact(self):
        rep = single_decay()
        ens = simulate_ensemble(rep, ket(2, 0), 2.0, 1, seed=1)
        report = mean_state_check(ens, rep, [0.5, 1.0, 2.0])
        assert report.max_deviation < 1e-10

    def test_small_ensemble_within_bound(self, qutrit_a):
        ens = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 600, seed=2)
        report = mean_state_check(ens, qutrit_a, [0.5, 1.0, 2.0])
        assert report.ok
        assert report.bound == pytest.approx(4 / np.sqrt(600))

    def test_wrong_generator_is_flagged(self):
        # ensembles of the true model checked against a model with double the
        # rate: transient populations separate far beyond Monte Carlo noise
        truth = single_decay(gamma=1.0)
        wrong = single_decay(gamma=2.0)
        ens = simulate_ensemble(truth, ket(2, 1), 1.0, 500, seed=3)
        good = mean_state_check(ens, truth, [0.5, 1.0])
        bad = mean_state_check(ens, wrong, [0.5, 1.0])
        assert good.ok
        assert bad.max_deviation > bad.bound

    def test_empty_ensemble_rejected(self, qutrit_a):
        empty = without_rows(simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 2, seed=1))
        with pytest.raises(ValidationError, match="^empty ensemble$"):
            mean_state_check(empty, qutrit_a, [1.0])


class TestChiSquare:
    def test_identical_samples_give_p_one(self):
        assert _chi2_two_sample([1, 1, 2, 3], [1, 1, 2, 3]) == (0.0, 1.0)

    def test_disjoint_samples_give_small_p(self):
        x = [0] * 200
        y = [5] * 200
        _, p = _chi2_two_sample(x, y)
        assert p < 1e-10

    def test_same_distribution_passes(self, rng):
        x = rng.poisson(3.0, 500)
        y = rng.poisson(3.0, 500)
        _, p = _chi2_two_sample(x, y)
        assert p > 0.01


class TestCountMatrix:
    def test_counts_match_coarse_grained_records(self, qutrit_a):
        # coarse_grain relabels each record; the count matrix must give the
        # same per-channel and per-block integers
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 3.0, 60, seed=34)
        parts = partition(qutrit_a)
        channels = _channel_counts(ensemble, qutrit_a.n_jumps)
        blocks = _block_counts(channels, qutrit_a, DEFAULT_TOL)
        assert channels.shape == (60, 5) and blocks.shape == (60, 2)
        assert blocks[:, 1].any()
        for traj, fine, coarse in zip(ensemble, channels, blocks):
            assert fine.tolist() == np.bincount(traj.channels, minlength=5).tolist()
            assert coarse.tolist() == np.bincount(
                coarse_grain(traj, parts).channels, minlength=2).tolist()

    @pytest.mark.parametrize(
        "level, extra",
        [("t1", {}), ("t2", {"perm": (0, 1, 2)}), ("t3", {"block_perm": (0, 1)})],
        ids=["t1", "t2", "t3"],
    )
    def test_out_of_range_channel_named_at_every_level(self, qutrit_a, qutrit_a_min, level, extra):
        # a five-channel ensemble under a three-jump representation
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 30, seed=7)
        first = next(k for traj in ensemble for k in traj.channels if k >= 3)
        with pytest.raises(ValidationError, match=f"^channel {first + 1} not covered by partition$"):
            compare_ensembles(
                ensemble, ensemble, qutrit_a_min, qutrit_a_min, BASIS_OBS, [1.0], level=level, **extra
            )
        # a -1 after the first row was counted as the row before's last channel
        channels = np.minimum(ensemble.channels, 2)
        row = next(n for n in range(1, len(ensemble)) if ensemble[n].channels.size)
        channels[ensemble.offsets[row]] = -1
        clipped = replace(ensemble, channels=channels)
        with pytest.raises(ValidationError, match="^channel 0 not covered by partition$"):
            compare_ensembles(
                clipped, clipped, qutrit_a_min, qutrit_a_min, BASIS_OBS, [1.0], level=level, **extra
            )


@pytest.fixture(scope="module")
def reset_pair_ensembles():
    # the criterion-8c level-t3 pair: the rotated model's reset target is
    # -|0> + 6e-17|2>, so its p0 atom sits near 3.7e-33 instead of at 0.0
    tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))
    rotated = models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0))
    ens_t = simulate_ensemble(tilde, ket(3, 1), 1.0, 1000, seed=83)
    ens_r = simulate_ensemble(rotated, ket(3, 1), 1.0, 1000, seed=84)
    return tilde, rotated, ens_t, ens_r


class TestSnapping:
    def test_rounding_level_atoms_merge(self):
        samples = np.array([0.0, 3.7e-33, 1.0 - 1e-16, 1.0, 0.25])
        assert list(_snap(samples, 1e-10)) == [0.0, 0.0, 1e10, 1e10, 2.5e9]

    def test_rounding_atoms_do_not_reject_equivalent_pair(self, reset_pair_ensembles):
        tilde, rotated, ens_t, ens_r = reset_pair_ensembles
        result = compare_ensembles(
            ens_t, ens_r, tilde, rotated, BASIS_OBS, [0.5, 1.0], level="t3", block_perm=(1, 0)
        )
        threshold = result.alpha / result.n_tests
        for t in (0.5, 1.0):
            assert result.ks_statistics[("p0", t)][1] > threshold
        assert result.ks_resolution == {"p0": 1e-10, "p1": 1e-10}
        assert result.verdict
        entries = result.to_document()["ks_statistics"]
        assert [e["ks_resolution"] for e in entries] == [1e-10] * 4

    def test_wrong_block_pairing_still_rejected(self, reset_pair_ensembles):
        tilde, rotated, ens_t, ens_r = reset_pair_ensembles
        result = compare_ensembles(
            ens_t, ens_r, tilde, rotated, BASIS_OBS, [0.5, 1.0], level="t3", block_perm=(0, 1)
        )
        assert not result.verdict

    def test_zero_tolerance_compares_raw_samples(self, reset_pair_ensembles):
        # without a grid the 0.0 and 3.7e-33 atoms stay apart and KS rejects
        tilde, rotated, ens_t, ens_r = reset_pair_ensembles
        result = compare_ensembles(
            ens_t, ens_r, tilde, rotated, BASIS_OBS, [0.5], level="t1",
            tol=Tolerance(atol=0.0, rtol=0.0),
        )
        assert result.ks_resolution == {"p0": 0.0, "p1": 0.0}
        assert result.ks_statistics[("p0", 0.5)][1] < 1e-6
        assert not result.verdict


class TestCompareEnsembles:
    def test_self_comparison_passes(self, qutrit_a):
        ens_a = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 400, seed=11)
        ens_b = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 400, seed=12)
        result = compare_ensembles(
            ens_a, ens_b, qutrit_a, qutrit_a, BASIS_OBS, [0.5, 1.0], level="t1"
        )
        assert result.verdict
        assert result.n_tests == 5

    def test_channel_records_incomparable_across_different_lengths(
        self, qutrit_a, qutrit_a_min
    ):
        ens_a = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 50, seed=1)
        ens_b = simulate_ensemble(qutrit_a_min, ket(3, 1), 1.0, 50, seed=2)
        result = compare_ensembles(
            ens_a, ens_b, qutrit_a, qutrit_a_min, BASIS_OBS, [1.0], level="t2"
        )
        assert not result.verdict
        assert "incomparable" in result.structural

    def test_block_permutation_matters(self):
        # swapped reset targets: block counts only match under the swap
        tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))
        rotated = models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0))
        ens_a = simulate_ensemble(tilde, ket(3, 1), 1.0, 500, seed=21)
        ens_b = simulate_ensemble(rotated, ket(3, 1), 1.0, 500, seed=22)
        swap = compare_ensembles(
            ens_a, ens_b, tilde, rotated, BASIS_OBS, [1.0], level="t3", block_perm=(1, 0)
        )
        identity = compare_ensembles(
            ens_a, ens_b, tilde, rotated, BASIS_OBS, [1.0], level="t3", block_perm=(0, 1)
        )
        assert swap.verdict
        assert not identity.verdict

    def test_mismatched_horizons_rejected(self, qutrit_a):
        ens_a = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        ens_b = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 5, seed=2)
        with pytest.raises(ValidationError, match="^ensembles have mismatched horizons$"):
            compare_ensembles(ens_a, ens_b, qutrit_a, qutrit_a, BASIS_OBS, [1.0])

    def test_empty_ensemble_rejected(self, qutrit_a):
        ens = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        for ens_a, ens_b in [(without_rows(ens), ens), (ens, without_rows(ens))]:
            with pytest.raises(ValidationError, match="^both ensembles must be non-empty$"):
                compare_ensembles(ens_a, ens_b, qutrit_a, qutrit_a, BASIS_OBS, [1.0])

    def test_ensembles_of_different_sizes_rejected(self, qutrit_a, monkeypatch):
        # the exact KS law is the equal-size one; nothing is replayed first
        monkeypatch.setattr(ensemble, "states_at", None)
        ens_a = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        ens_b = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 6, seed=2)
        with pytest.raises(ValidationError, match=r"^ensembles have different sizes \(5 vs 6\)$"):
            compare_ensembles(ens_a, ens_b, qutrit_a, qutrit_a, BASIS_OBS, [1.0])

    def test_representations_of_other_dimensions_rejected(self, qutrit_a):
        ens = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        with pytest.raises(ValidationError, match="Hilbert-space dimensions differ: 3 vs 2"):
            compare_ensembles(ens, ens, qutrit_a, single_decay(), BASIS_OBS, [1.0])

    def test_ensemble_of_another_dimension_rejected(self, qutrit_a):
        ens = simulate_ensemble(single_decay(), ket(2, 1), 1.0, 5, seed=1)
        with pytest.raises(ValidationError, match="initial state has length 2, expected 3"):
            compare_ensembles(ens, ens, qutrit_a, qutrit_a, BASIS_OBS, [1.0])
        with pytest.raises(ValidationError, match="initial state has length 2, expected 3"):
            mean_state_check(ens, qutrit_a, [1.0])

    def test_non_finite_observable_rejected(self, qutrit_a):
        ens = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        with pytest.raises(ValidationError, match="finite"):
            compare_ensembles(ens, ens, qutrit_a, qutrit_a, {"p": np.diag([1.0, np.nan, 0])}, [1.0])

    def test_observable_of_another_dimension_rejected(self, qutrit_a):
        ens = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 5, seed=1)
        with pytest.raises(ValidationError, match="shape"):
            compare_ensembles(ens, ens, qutrit_a, qutrit_a, {"p": np.eye(2)}, [1.0])

    def test_rate_doubling_detected_at_level_t1(self, qutrit_a):
        other = models.qutrit_a(gamma=2.0)
        ens_a = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 400, seed=31)
        ens_b = simulate_ensemble(other, ket(3, 1), 1.0, 400, seed=32)
        result = compare_ensembles(
            ens_a, ens_b, qutrit_a, other, BASIS_OBS, [0.5, 1.0], level="t1"
        )
        assert not result.verdict

    def test_false_positive_rate_calibration(self):
        # repeated self-comparisons with independent seeds should rarely fail
        rep = single_decay()
        failures = 0
        runs = 40
        for i in range(runs):
            ens_a = simulate_ensemble(rep, ket(2, 1), 3.0, 120, seed=1000 + i)
            ens_b = simulate_ensemble(rep, ket(2, 1), 3.0, 120, seed=5000 + i)
            result = compare_ensembles(
                ens_a,
                ens_b,
                rep,
                rep,
                {"p1": np.diag([0, 1.0]).astype(complex)},
                [1.0, 2.0],
                level="t1",
            )
            failures += 0 if result.verdict else 1
        assert failures <= 2  # >= 95% pass rate


class TestRateCurves:
    def test_columns_and_convention(self):
        rows = list(rate_curves(n_polar=5, n_azimuth=8))
        assert len(rows) == 40
        assert len(rows[0]) == len(FIG_RATE_COLUMNS)
        assert "polar" in RATE_CURVE_CONVENTION

    @pytest.mark.parametrize("n_polar, n_azimuth", [(0, 3), (-1, 3), (3, 0)])
    def test_empty_grid_rejected(self, n_polar, n_azimuth):
        with pytest.raises(ValidationError, match="at least 1"):
            list(rate_curves(n_polar=n_polar, n_azimuth=n_azimuth))

    def test_proportional_dephasing_rates(self):
        # the split pair and the merged operator fire at proportional rates
        for row in rate_curves(n_polar=7, n_azimuth=9):
            values = dict(zip(FIG_RATE_COLUMNS, row))
            if values["r_4"] > 1e-12:
                assert values["r_5"] / values["r_4"] == pytest.approx(3.0, rel=1e-9)
                assert values["rp_3"] / values["r_4"] == pytest.approx(4.0, rel=1e-9)

    def test_block_totals_match_recombined_model(self):
        for row in rate_curves(n_polar=6, n_azimuth=6):
            values = dict(zip(FIG_RATE_COLUMNS, row))
            assert values["block_1_rate"] == pytest.approx(
                values["rp_1"] + values["rp_2"], abs=1e-10
            )
            assert values["block_2_rate"] == pytest.approx(values["rp_3"], abs=1e-10)
