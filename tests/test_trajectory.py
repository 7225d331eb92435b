import os
import subprocess
import sys
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from uqd import models
from uqd.errors import NumericalError, ValidationError
from uqd.linalg import Tolerance, normalize
from uqd.representation import Representation, effective_hamiltonian, jump_rates
from uqd.sjed import partition
from uqd import streams, trajectory
from uqd.streams import spawned_seeds
from uqd.trajectory import (
    CHUNK_ROWS,
    STEP_SCALE,
    coarse_grain,
    simulate,
    simulate_ensemble,
    simulate_ensembles,
    state_at,
    states_at,
    trajectory_seed,
    _check_contractive,
    _real_form,
    _StepTable,
)
from conftest import ket
from helpers import random_minimal_representation, without_rows
from scalar_reference import reference_simulate


def single_decay(gamma=1.0):
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = np.sqrt(gamma)
    return Representation(hamiltonian=None, jumps=[jump], label="decay")


def driven_qutrit_a(drive):
    """``qutrit_a`` with H = ``drive`` times the matrix of ones on the first
    off-diagonals: ``|H_eff|`` grows about as ``1.4 * drive``."""
    return models.qutrit_a(hamiltonian=drive * (np.eye(3, k=1) + np.eye(3, k=-1)))


def jordan_block():
    """H_eff = [[-i/2, 1], [0, -i/2]]: one Jordan block, no eigenbasis."""
    ham = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    jump = np.array([[1.0, 1j], [0.0, 0.0]], dtype=complex)
    return Representation(hamiltonian=ham, jumps=[jump])


def step_of(rep):
    return STEP_SCALE / np.linalg.norm(effective_hamiltonian(rep), 2)


def assert_same_record(a, b):
    """Equal jump times, channels and post-jump states."""
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.channels, b.channels)
    assert np.array_equal(a.post_jump_states, b.post_jump_states)


class TestSingleDecay:
    def test_exactly_one_jump_with_exponential_law(self):
        rep = single_decay(gamma=1.0)
        trajs = simulate_ensemble(rep, ket(2, 1), 12.0, 2000, seed=101)
        assert np.diff(trajs.offsets).max() == 1
        assert trajs.times.size > 1990
        result = scipy.stats.kstest(trajs.times, "expon", args=(0.0, 1.0))
        assert result.pvalue > 0.01

    def test_no_jump_state_is_stationary(self):
        # constant rate: the conditional no-jump state stays |1> exactly
        rep = single_decay()
        traj = simulate(rep, ket(2, 1), 5.0, seed=3)
        t_before = traj.times[0] * 0.5 if traj.times.size else 1.0
        psi = state_at(traj, rep, t_before)
        assert np.max(np.abs(psi - ket(2, 1))) < 1e-12

    def test_dark_initial_state_never_jumps(self):
        rep = single_decay()
        traj = simulate(rep, ket(2, 0), 5.0, seed=9)
        assert traj.times.size == 0 and traj.channels.size == 0
        assert traj.post_jump_states.shape == (0, 2)


class TestDeterminism:
    def test_bitwise_reproducible(self, qutrit_a):
        one = simulate(qutrit_a, ket(3, 1), 2.0, seed=42)
        two = simulate(qutrit_a, ket(3, 1), 2.0, seed=42)
        assert_same_record(one, two)

    def test_seeds_differ(self, qutrit_a):
        one = simulate(qutrit_a, ket(3, 1), 2.0, seed=1)
        two = simulate(qutrit_a, ket(3, 1), 2.0, seed=2)
        assert not (np.array_equal(one.times, two.times)
                    and np.array_equal(one.channels, two.channels))

    def test_ensemble_rows_independent_of_batch(self):
        # a non-diagonal H_eff, so every propagator entry enters each sum
        ham = np.array(
            [[0.3, 0.5 - 0.2j, 0.1], [0.5 + 0.2j, -0.4, 0.7j], [0.1, -0.7j, 0.2]]
        )
        # and a dim-32 model, whose rows start their segments at many levels
        dim32 = random_minimal_representation(np.random.default_rng(5), 32, max_rank=2)
        for rep, psi0, t_max in [
            (models.qutrit_a(hamiltonian=ham), ket(3, 1), 2.0),
            (dim32, ket(32, 0), 20.0),
        ]:
            ensemble = simulate_ensemble(rep, psi0, t_max, 40, seed=5)
            prefix = simulate_ensemble(rep, psi0, t_max, 13, seed=5)
            singles = [simulate(rep, psi0, t_max, seed=trajectory_seed(5, i)) for i in range(6)]
            assert any(traj.times.size for traj in singles)
            for other in (prefix, singles):
                for a, b in zip(ensemble, other):
                    assert a.seeds.tolist() == b.seeds.tolist()
                    assert_same_record(a, b)

    def test_refilled_rows_equal_rows_alone(self, qutrit_a):
        # about 24 jumps per row at t = 12: each row draws several windows
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 12.0, 16, seed=8)
        assert 1 + 2 * np.diff(ensemble.offsets).max() > 2 * streams.WINDOW
        for i, traj in enumerate(ensemble):
            alone = simulate(qutrit_a, ket(3, 1), 12.0, seed=trajectory_seed(8, i))
            assert traj.seeds.tolist() == alone.seeds.tolist()
            assert_same_record(traj, alone)

    def test_trajectory_seed_is_stable(self):
        assert trajectory_seed(7, 3) == trajectory_seed(7, 3)
        assert trajectory_seed(7, 3) != trajectory_seed(7, 4)


class TestEnsembleRows:
    def test_offsets_index_rows(self, qutrit_a):
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 12, seed=3)
        offsets = ensemble.offsets
        assert len(ensemble) == 12 and offsets[0] == 0 and np.all(np.diff(offsets) >= 0)
        assert offsets[-1] == ensemble.times.size == ensemble.channels.size
        assert ensemble.post_jump_states.shape == (offsets[-1], 3)
        for i in range(len(ensemble)):
            row = ensemble[i]
            lo, hi = offsets[i], offsets[i + 1]
            assert row.offsets.tolist() == [0, hi - lo]
            assert row.seeds.tolist() == ensemble.seeds[i : i + 1].tolist()
            assert np.array_equal(row.times, ensemble.times[lo:hi])
            assert np.array_equal(row.channels, ensemble.channels[lo:hi])
            assert np.array_equal(row.post_jump_states, ensemble.post_jump_states[lo:hi])
        assert_same_record(ensemble[-1], ensemble[11])
        assert [row.seeds.item() for row in ensemble] == ensemble.seeds.tolist()

    @pytest.mark.parametrize("key, error", [(12, IndexError), (-13, IndexError),
                                            (1.0, TypeError), (slice(0, 2), TypeError)])
    def test_missing_rows_rejected(self, qutrit_a, key, error):
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 12, seed=3)
        with pytest.raises(error):
            ensemble[key]


class TestSamplingLawReplay:
    """Re-derive every draw of the simulator from its documented stream order.

    The generator emits one uniform per no-jump segment (the survival target
    ``u``) and one uniform per fired jump (the channel selector), so replaying
    the Philox stream checks the crossing residual and the channel law
    exactly.
    """

    @pytest.mark.parametrize("seed", [1, 17, 202])
    def test_crossings_and_channels(self, qutrit_a, seed):
        traj = simulate(qutrit_a, ket(3, 1), 3.0, seed=seed)
        assert traj.times.size, "expected at least one jump in this horizon"
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        h_eff = effective_hamiltonian(qutrit_a)
        prev_time, prev_state = 0.0, traj.initial_state
        for when, channel, post in zip(traj.times, traj.channels, traj.post_jump_states):
            u = rng.random()
            phi = expm(-1j * h_eff * (when - prev_time)) @ prev_state
            assert abs(float(np.vdot(phi, phi).real) - u) <= 1e-9
            psi_star = normalize(phi)
            rates = jump_rates(qutrit_a, psi_star)
            rates[rates < 1e-14] = 0.0
            x = rng.random()
            expected_channel = int(np.searchsorted(np.cumsum(rates) / rates.sum(), x, side="right"))
            assert channel == expected_channel
            rebuilt_post = normalize(qutrit_a.jumps[channel] @ psi_star)
            assert np.max(np.abs(rebuilt_post - post)) < 1e-9
            prev_time, prev_state = when, post

    def test_crossings_are_exact(self, qutrit_a):
        # the norm gap at each replayed crossing, over the decay rate of the
        # squared norm there, is the error of the event time
        h_eff = effective_hamiltonian(qutrit_a)
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 200, seed=36)
        n_events = 0
        for traj in ensemble:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(traj.seeds.item())))
            prev_time, prev_state = 0.0, traj.initial_state
            for when, post in zip(traj.times, traj.post_jump_states):
                u = rng.random()
                phi = expm(-1j * h_eff * (when - prev_time)) @ prev_state
                rate = float(np.sum(jump_rates(qutrit_a, phi)))
                assert abs(float(np.vdot(phi, phi).real) - u) / rate <= 2e-14
                rng.random()
                prev_time, prev_state = when, post
                n_events += 1
        assert n_events > 200

    def test_norm_monotone_between_jumps(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 2.0, seed=8)
        h_eff = effective_hamiltonian(qutrit_a)
        segments = [(0.0, traj.initial_state)] + list(zip(traj.times, traj.post_jump_states))
        ends = traj.times.tolist() + [traj.t_final]
        for (start, state), end in zip(segments, ends):
            taus = np.linspace(0.0, end - start, 20)
            norms = [
                float(np.linalg.norm(expm(-1j * h_eff * tau) @ state)) for tau in taus
            ]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_events_strictly_ordered(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 4.0, seed=23)
        times = traj.times.tolist()
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0 < t <= traj.t_final for t in times)


class TestFirstJumpChannelLaw:
    def test_frequencies_match_replayed_rates(self, qutrit_a):
        n = 2000
        observed = np.zeros(qutrit_a.n_jumps)
        expected = np.zeros(qutrit_a.n_jumps)
        h_eff = effective_hamiltonian(qutrit_a)
        for traj in simulate_ensemble(qutrit_a, ket(3, 1), 2.0, n, seed=900):
            if not traj.times.size:
                continue
            observed[traj.channels[0]] += 1
            phi = expm(-1j * h_eff * traj.times[0]) @ traj.initial_state
            rates = jump_rates(qutrit_a, normalize(phi))
            expected += rates / rates.sum()
        mask = expected > 5
        stat = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
        p = float(scipy.stats.chi2.sf(stat, df=int(mask.sum()) - 1))
        assert p > 0.001


class TestStateAt:
    def test_time_zero(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 1.0, seed=4)
        assert np.array_equal(state_at(traj, qutrit_a, 0.0), traj.initial_state)

    def test_event_time_gives_post_jump_state(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 2.0, seed=6)
        assert traj.times.size
        assert np.array_equal(state_at(traj, qutrit_a, traj.times[0]), traj.post_jump_states[0])

    def test_full_replay_consistency(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 2.0, seed=12)
        h_eff = effective_hamiltonian(qutrit_a)
        for when, channel, post in zip(traj.times, traj.channels, traj.post_jump_states):
            before = state_at(traj, qutrit_a, np.nextafter(when, 0.0))
            jumped = normalize(qutrit_a.jumps[channel] @ before)
            assert np.max(np.abs(jumped - post)) < 1e-8

    def test_latest_event_at_or_before_each_time(self, qutrit_a):
        # sample at other rows' event times: each row must take its own
        # latest event, an event exactly at the time included
        h_eff = effective_hamiltonian(qutrit_a)
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 30, seed=12)
        times = [0.0] + [ensemble[n].times[0] for n in range(6) if ensemble[n].times.size] + [2.0]
        assert len(times) > 5
        for t, states in zip(times, states_at(ensemble, qutrit_a, times)):
            for traj, state in zip(ensemble, states):
                idx = bisect_right(traj.times.tolist(), t) - 1
                base_time, base = (0.0, traj.initial_state) if idx < 0 else (
                    traj.times[idx], traj.post_jump_states[idx])
                if base_time == t:
                    assert np.array_equal(state, base)
                else:
                    drifted = expm(-1j * h_eff * (t - base_time)) @ base
                    assert np.max(np.abs(state - normalize(drifted))) <= 1e-12

    def test_out_of_range_rejected(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 1.0, seed=4)
        with pytest.raises(ValidationError, match=r"^time 1\.5 outside \[0, 1\.0\]$"):
            state_at(traj, qutrit_a, 1.5)

    def test_empty_ensemble(self, qutrit_a):
        empty = without_rows(simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 2, seed=4))
        assert len(empty) == 0 and empty.offsets.tolist() == [0] and empty.times.size == 0
        assert states_at(empty, qutrit_a, [0.5]).shape == (1, 0, 3)

    def test_one_row_only(self, qutrit_a):
        # state_at answers for one trajectory, so it must not pick a row
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 2, seed=4)
        for rows in (ensemble, without_rows(ensemble)):
            with pytest.raises(ValueError):
                state_at(rows, qutrit_a, 0.5)

    def test_representation_of_another_dimension_rejected(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 1.0, seed=4)
        qubit = Representation(hamiltonian=None, jumps=[np.diag([1.0, 0.0])])
        with pytest.raises(ValidationError, match="initial state has length 3, expected 2"):
            state_at(traj, qubit, 0.5)

    def test_replayed_rows_independent_of_batch(self):
        # at dim 8 a BLAS product over the shared rows gave most rows
        # different low bits depending on which rows shared the call
        rep = random_minimal_representation(
            np.random.default_rng(5), 8, n_reset=2, n_nonreset=1, max_rank=2
        )
        times = [0.7, 1.9, 3.3, 4.0]
        ensemble = simulate_ensemble(rep, ket(8, 0), 4.0, 400, seed=5)
        batch = states_at(ensemble, rep, times)
        for n, traj in enumerate(ensemble):
            assert np.array_equal(batch[:, n], states_at(traj, rep, times)[:, 0]), n


class TestCoarseGrain:
    def test_channels_map_to_blocks(self, qutrit_a):
        parts = partition(qutrit_a)
        traj = simulate(qutrit_a, ket(3, 1), 3.0, seed=33)
        coarse = coarse_grain(traj, parts)
        lookup = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        assert coarse.channels.tolist() == [lookup[k] for k in traj.channels.tolist()]
        assert np.array_equal(coarse.times, traj.times)
        assert np.any(coarse.channels == 1)

    def test_empty_event_list(self):
        rep = single_decay()
        parts = partition(rep)
        traj = simulate(rep, ket(2, 0), 1.0, seed=1)
        coarse = coarse_grain(traj, parts)
        assert coarse.times.size == 0 and coarse.channels.size == 0

    def test_singleton_blocks_do_not_relabel(self):
        jumps = [np.outer(ket(2, 0), ket(2, 1)), 0.5 * np.eye(2, dtype=complex)]
        rep = Representation(hamiltonian=None, jumps=jumps)
        parts = partition(rep)
        assert parts.block_count == 2
        traj = simulate(rep, ket(2, 1), 4.0, seed=2)
        coarse = coarse_grain(traj, parts)
        assert np.array_equal(coarse.channels, traj.channels)

    def test_uncovered_channel_rejected(self, qutrit_a):
        parts = partition(single_decay())
        traj = simulate(qutrit_a, ket(3, 1), 1.0, seed=3)
        bad = traj
        if not bad.times.size:
            bad = simulate(qutrit_a, ket(3, 1), 3.0, seed=3)
        with pytest.raises(ValidationError):
            coarse_grain(bad, parts)
        # -1 was read as the last block
        negative = replace(bad, channels=np.r_[-1, bad.channels[1:]])
        with pytest.raises(ValidationError, match="^channel 0 not covered by partition$"):
            coarse_grain(negative, partition(qutrit_a))


class TestGuards:
    def test_invalid_horizon(self, qutrit_a):
        with pytest.raises(ValidationError):
            simulate(qutrit_a, ket(3, 1), 0.0, seed=1)

    def test_wrong_state_length(self, qutrit_a):
        with pytest.raises(ValidationError):
            simulate(qutrit_a, ket(2, 1), 1.0, seed=1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rep: simulate(rep, ket(3, 1), 1.0, seed=-1),
            lambda rep: simulate_ensemble(rep, ket(3, 1), 1.0, 3, seed=-1),
            lambda rep: trajectory_seed(-1, 0),
        ],
        ids=["simulate", "simulate_ensemble", "trajectory_seed"],
    )
    def test_negative_seed_named(self, qutrit_a, call):
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer, got -1$"):
            call(qutrit_a)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda rep: simulate(rep, ket(3, 1), 1.0, seed=2.9), "seed must be a non-negative integer, got 2.9"),
            (lambda rep: simulate(rep, ket(3, 1), 1.0, seed=np.float64(2.0)),
             "seed must be a non-negative integer, got 2.0"),
            (lambda rep: simulate_ensemble(rep, ket(3, 1), 1.0, 3, seed=5.5),
             "seed must be a non-negative integer, got 5.5"),
            (lambda rep: trajectory_seed(5.5, 1), "seed must be a non-negative integer, got 5.5"),
            (lambda rep: trajectory_seed(5, 1.7), "trajectory index must be a non-negative integer, got 1.7"),
        ],
        ids=["simulate", "simulate-numpy-float", "simulate_ensemble", "trajectory_seed-master",
             "trajectory_seed-index"],
    )
    def test_non_integer_seed_named(self, qutrit_a, call, message):
        # a truncated seed would silently give another seed's trajectory
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call(qutrit_a)

    def test_numpy_integer_seeds_accepted(self, qutrit_a):
        traj = simulate(qutrit_a, ket(3, 1), 2.0, seed=np.int64(2))
        (seed,) = traj.seeds.tolist()
        assert type(seed) is int and seed == 2
        assert_same_record(traj, simulate(qutrit_a, ket(3, 1), 2.0, seed=2))
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 3, seed=np.uint32(5))
        assert ensemble.seeds.tolist() == [trajectory_seed(5, i) for i in range(3)]
        assert trajectory_seed(np.int64(5), np.int32(1)) == trajectory_seed(5, 1)

    def test_seeds_kept_exactly(self, qutrit_a):
        # np.asarray turns 2**63 beside a small seed into a float, and 2**70
        # into an object array
        for seed in (2**63, 2**70):
            (kept,) = simulate(qutrit_a, ket(3, 1), 1.0, seed=seed).seeds.tolist()
            assert type(kept) is int and kept == seed
        seeds = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 40, seed=3).seeds.tolist()
        assert seeds == [trajectory_seed(3, i) for i in range(40)]
        assert max(seeds) >= 2**63 and all(type(seed) is int for seed in seeds)

    def test_array_seeds_split_as_python_ints(self):
        # derived seeds are split whole in uint64; caller ints go through naturals
        seeds = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        words, counts = streams._words(np.array(seeds, dtype=np.uint64), "seed", streams.POOL_SIZE)
        ref_words, ref_counts = streams._words(seeds, "seed", streams.POOL_SIZE)
        assert words.dtype == ref_words.dtype and np.array_equal(words, ref_words)
        assert counts.dtype == ref_counts.dtype and counts.tolist() == ref_counts.tolist() == [1, 1, 2, 2, 2]

    @pytest.mark.parametrize("n_traj", [2.5, np.float64(2.0), 0, -3])
    def test_n_traj_must_be_a_positive_integer(self, qutrit_a, n_traj):
        with pytest.raises(ValidationError, match=f"^n_traj must be a positive integer, got {n_traj}$"):
            simulate_ensemble(qutrit_a, ket(3, 1), 1.0, n_traj, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rep, ensemble: simulate(rep, ket(2, 1), 1e308, seed=0),
            lambda rep, ensemble: simulate_ensemble(rep, ket(2, 1), 1e308, 3, 0),
            lambda rep, ensemble: simulate_ensemble(rep, ket(2, 1), 0.02 * 2.0**1023, 3, 0),
            lambda rep, ensemble: states_at(replace(ensemble, t_final=1e308), rep, [1.0]),
        ],
        ids=["simulate", "simulate_ensemble", "simulate_ensemble-2**1023-steps", "states_at"],
    )
    def test_horizon_past_the_widths_named(self, call):
        # step = 0.02 here, so t_max / step overflowed and the table's level
        # count raised an uncaught OverflowError
        rep = single_decay()
        ensemble = simulate_ensemble(rep, ket(2, 1), 1.0, 3, 0)
        with pytest.raises(ValidationError, match=r"^t_max must be below 2\*\*1023 steps of 0\.02, got "):
            call(rep, ensemble)

    def test_longest_horizon_runs(self):
        rep = single_decay()
        ensemble = simulate_ensemble(rep, ket(2, 1), 0.02 * 2.0**1023 * (1 - 2.0**-52), 3, 0)
        assert np.diff(ensemble.offsets).tolist() == [1, 1, 1]
        assert states_at(ensemble, rep, [1e300]).shape == (1, 3, 2)

    def test_norm_growth_detected(self):
        grower = np.diag([0.5j, -0.5j])
        with pytest.raises(NumericalError, match="invalid effective Hamiltonian"):
            _check_contractive(grower, Tolerance())

    def test_mean_jump_count_matches_expected_intensity(self):
        # constant-rate model: jumps form a Poisson process of rate gamma
        jump = np.sqrt(0.8) * np.eye(2, dtype=complex)
        rep = Representation(hamiltonian=None, jumps=[jump])
        trajs = simulate_ensemble(rep, ket(2, 0), 5.0, 400, seed=6)
        assert np.mean(np.diff(trajs.offsets)) == pytest.approx(0.8 * 5.0, abs=0.35)


class TestScalarReference:
    """The batched engine against the per-trajectory grid loop it replaced.

    The engine descends to one ``step = 0.01 / |H_eff|`` and solves for the
    crossing inside it; the reference bisects to cells of ``2**-34`` steps
    and reports a cell's right end.  The tolerances come from that cell,
    well inside ``1e-10 * t_max``.
    """

    @pytest.mark.parametrize(
        "rep, t_max, seed, n",
        [
            (models.qutrit_a(), 2.0, 31, 200),
            (models.qutrit_b(0.0, (0.7, 0.8, 2.0)), 1.0, 32, 200),
            (driven_qutrit_a(10.0), 2.0, 34, 40),
        ],
        ids=["qutrit_a", "qutrit_b", "qutrit_a_driven"],
    )
    def test_matches_reference_loop(self, rep, t_max, seed, n):
        ensemble = simulate_ensemble(rep, ket(3, 1), t_max, n, seed=seed)
        n_events = 0
        for i, traj in enumerate(ensemble):
            ref = reference_simulate(rep, ket(3, 1), t_max, trajectory_seed(seed, i))
            assert np.array_equal(traj.channels, ref.channels)
            assert np.all(np.abs(traj.times - ref.times) <= 1e-10 * t_max)
            assert np.all(np.abs(traj.post_jump_states - ref.post_jump_states) <= 1e-9)
            n_events += ref.times.size
        assert n_events > n

    def test_crossing_after_t_max_is_no_jump(self):
        # t_max is 1.5 steps, so the widest level is 2 steps and overshoots
        # it by half a step, where about 1 % of the rows cross their u; the
        # solve places those crossings after t_max, where the rows end
        rep = single_decay()
        t_max = 1.5 * step_of(rep)
        ensemble = simulate_ensemble(rep, ket(2, 1), t_max, 2000, seed=33)
        for i, traj in enumerate(ensemble):
            ref = reference_simulate(rep, ket(2, 1), t_max, trajectory_seed(33, i))
            assert traj.times.size == ref.times.size
            assert np.all(traj.times <= t_max)

    def test_crossing_is_exact_next_to_t_max(self):
        # single decay from |1>: the squared norm is exp(-tau), so the jump
        # is at -ln(u) exactly; the reference's cell end is up to 2**-34
        # steps (about 1e-12) later
        rep = single_decay()
        for seed in range(2, 8):
            u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random()
            tau = -np.log(u)
            (when,) = simulate(rep, ket(2, 1), tau + 1.0, seed=seed).times
            assert abs(when - tau) <= 1e-14
            assert simulate(rep, ket(2, 1), tau - 1e-13, seed=seed).times.size == 0
            (when,) = simulate(rep, ket(2, 1), tau + 1e-13, seed=seed).times
            assert abs(when - tau) <= 1e-14


class TestStreamCalls:
    """The streams of a call are generated in passes over every row that
    needs one, so the passes grow with the longest row's draw count (one
    uniform, then two per jump), not with the rows or the rounds."""

    @pytest.mark.parametrize("t_max, n", [(2.0, 1), (2.0, 400), (12.0, 1), (12.0, 300)])
    def test_generation_calls_bounded(self, qutrit_a, monkeypatch, t_max, n):
        calls = []
        original = streams.philox_blocks

        def counting(*args):
            calls.append(args[1].shape)
            return original(*args)

        monkeypatch.setattr(streams, "philox_blocks", counting)
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), t_max, n, seed=4)
        draws = 1 + 2 * np.diff(ensemble.offsets).max()
        assert 1 <= len(calls) <= 1 + draws // (streams.WINDOW - streams.BLOCK)
        assert calls[0] == (n, streams.WINDOW_BLOCKS)


class TestStiffness:
    """The dyadic descent costs at most ``1 + log2(t_max / step)`` passes per
    segment, and the solve within the last step none, whatever
    ``|H_eff| * t_max`` is."""

    @staticmethod
    def passes(monkeypatch, rep):
        # one `_Chunks.apply` per level of a round: one product for every row
        calls = []
        original = trajectory._Chunks.apply

        def counting(self, *args):
            calls.append(None)
            return original(self, *args)

        monkeypatch.setattr(trajectory._Chunks, "apply", counting)
        ensemble = simulate_ensemble(rep, ket(3, 1), 2.0, 2000, seed=35)
        monkeypatch.undo()
        assert ensemble.times.size > 2000
        return len(calls)

    def test_passes_do_not_grow_with_stiffness(self, monkeypatch):
        plain = self.passes(monkeypatch, models.qutrit_a())
        stiff = self.passes(monkeypatch, driven_qutrit_a(100.0))
        # a grid of step 0.01 / |H_eff| would take about 28,000 passes here
        assert stiff < 2 * plain
        assert stiff < 1000

    def test_passes_stop_at_step(self, monkeypatch):
        # descending below ``step`` took 558 passes here
        assert self.passes(monkeypatch, models.qutrit_a()) <= 200


class TestStepTable:
    """Level ``top`` is the Taylor step and every wider level squares the
    next, so the table needs no exponential of its own."""

    @pytest.mark.parametrize(
        "rep, t_max",
        [
            (driven_qutrit_a(100.0), 2.0),
            (random_minimal_representation(np.random.default_rng(5), 32, max_rank=2), 20.0),
            (jordan_block(), 3.0),
        ],
        ids=["stiff", "dim32", "jordan"],
    )
    def test_levels_match_expm(self, rep, t_max):
        h_eff = effective_hamiltonian(rep)
        table = _StepTable(h_eff, t_max)
        top = table.top
        assert table.widths[0] >= t_max > table.widths[1]
        assert table.widths[top] == step_of(rep)
        assert table.mats.shape == (top + 1, 2 * rep.dim, 2 * rep.dim)
        for width, mat in zip(table.widths, table.mats):
            exact = _real_form(expm(-1j * h_eff * width))
            assert np.max(np.abs(mat - exact)) <= 1e-13

    @pytest.mark.parametrize("n", [10, 1000])
    def test_one_table_per_call(self, qutrit_a, monkeypatch, n):
        # the table spans ``step`` and the ``top`` levels above it, whatever n is
        tables = []
        original = _StepTable.__init__

        def recording(self, *args):
            original(self, *args)
            tables.append(self)

        monkeypatch.setattr(_StepTable, "__init__", recording)
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, n, seed=3)
        assert ensemble.times.size
        states_at(ensemble, qutrit_a, [0.25, 0.5, 1.0])
        top = int(np.ceil(np.log2(1.0 / step_of(qutrit_a))))
        assert [len(table.mats) for table in tables] == [top + 1, top + 1]


def solve(table, x, u):
    """`trajectory._solve` of the rows ``x`` under one table."""
    return trajectory._solve([trajectory._Side(table, None, False, 0, "")], [slice(0, len(x))], x, u)


class TestSolve:
    """`trajectory._solve` on hand-made brackets of one ``step``."""

    @staticmethod
    def driven_decay():
        # |0> is dark (the jump annihilates it) but the drive moves it to |1>
        ham = 3.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return Representation(hamiltonian=ham, jumps=single_decay(gamma=6.0).jumps)

    @staticmethod
    def table_and_norms(rep, states, fractions):
        """The model's table, the rows of ``states`` and targets ``u``: the
        squared norms after ``fractions`` of a step."""
        h_eff = effective_hamiltonian(rep)
        step = step_of(rep)
        table = _StepTable(h_eff, 1.0)
        taus = step * np.asarray(fractions)
        u = np.array(
            [
                np.linalg.norm(expm(-1j * h_eff * tau) @ state) ** 2
                for tau, state in zip(taus, states)
            ]
        )
        x = np.stack([np.asarray(state, dtype=complex).view(float) for state in states])
        return table, x, u

    def test_bracket_without_crossing_raises(self, qutrit_a):
        table, x, u = self.table_and_norms(qutrit_a, [ket(3, 1)], [2.0])
        with pytest.raises(NumericalError, match="residual"):
            solve(table, x, u)

    def test_dark_start_meets_the_residual(self):
        rep = self.driven_decay()
        table, x, u = self.table_and_norms(rep, [ket(2, 0)], [0.5])
        assert table.moments[1] @ x[0] @ x[0] == 0.0  # no slope at the start
        assert u[0] < 1.0
        tau, phi, phi_sq = solve(table, x, u)
        # the norm falls as tau**3 here, so the time is ill-conditioned, but
        # the state at the returned time meets u
        assert 0.0 < tau[0] < step_of(rep)
        assert abs(phi_sq[0] - u[0]) <= 1e-15
        exact = expm(-1j * effective_hamiltonian(rep) * tau[0]) @ ket(2, 0)
        assert np.max(np.abs(phi[0].view(complex) - exact)) <= 1e-15

    def test_batch_equals_rows_alone(self):
        rep = self.driven_decay()
        rng = np.random.default_rng(37)
        states = [ket(2, 0)] + [
            normalize(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(6)
        ]
        fractions = [0.5, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        table, x, u = self.table_and_norms(rep, states, fractions)
        # row 0 is dark: its first Newton step divides by a zero slope and
        # falls back to bisection
        batch = solve(table, x, u)
        for n in range(len(states)):
            alone = solve(table, x[n : n + 1], u[n : n + 1])
            for a, b in zip(batch, alone):
                assert np.array_equal(a[n], b[0])


    def test_error_names_its_side(self, qutrit_a):
        # side b's row holds no crossing within its step; side a's does
        table, x, u = self.table_and_norms(qutrit_a, [ket(3, 1)] * 2, [0.5, 2.0])
        sides = [trajectory._Side(table, None, False, 0, name) for name in ("side a: ", "side b: ")]
        with pytest.raises(NumericalError, match="^side b: jump-time solve failed"):
            trajectory._solve(sides, [slice(0, 1), slice(1, 2)], x, u)

    def test_never_on_zero_rows(self, monkeypatch):
        # single decay from |1>: a row that jumps lands on the dark |0>, so
        # the last round's descent finishes every row left, and the solve
        # after it once ran on zero rows
        sizes = []
        original = trajectory._solve

        def recording(sides, cuts, x, u):
            sizes.append(len(x))
            return original(sides, cuts, x, u)

        monkeypatch.setattr(trajectory, "_solve", recording)
        rep, t_max = single_decay(), 2.0
        ensemble = simulate_ensemble(rep, ket(2, 1), t_max, 200, seed=38)
        assert sizes and min(sizes) > 0
        assert ensemble.times.size > 100
        for i, traj in enumerate(ensemble):
            ref = reference_simulate(rep, ket(2, 1), t_max, trajectory_seed(38, i))
            assert np.array_equal(traj.channels, ref.channels)
            assert np.all(np.abs(traj.times - ref.times) <= 1e-10 * t_max)


def chunk_model(dim):
    """A model with a non-diagonal ``H_eff``, so every propagator entry
    enters each product."""
    return random_minimal_representation(
        np.random.default_rng(5), dim, n_reset=2, n_nonreset=1, max_rank=2
    )


class TestChunkedProduct:
    """Every simulator and replay product runs through BLAS on rows
    zero-padded to chunks of ``CHUNK_ROWS``, where a per-call probe finds
    each row's bits independent of its place, and through `_columns`
    elsewhere."""

    @staticmethod
    def rows_to_check(n):
        # the first and last rows and both sides of every chunk boundary
        edges = {i for edge in range(CHUNK_ROWS, n, CHUNK_ROWS) for i in (edge - 1, edge)}
        return sorted({0, n - 1} | edges)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("dim", [3, 8, 33])
    def test_ensemble_rows_equal_rows_alone(self, dim, n):
        rep, psi0 = chunk_model(dim), np.ones(dim)
        ensemble = simulate_ensemble(rep, psi0, 2.0, n, seed=11)
        assert ensemble.times.size
        for i in self.rows_to_check(n):
            alone = simulate(rep, psi0, 2.0, seed=trajectory_seed(11, i))
            assert_same_record(ensemble[i], alone)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("dim", [3, 8, 33])
    def test_replayed_rows_equal_rows_alone(self, dim, n):
        rep, times = chunk_model(dim), [0.3, 1.1, 2.0]
        ensemble = simulate_ensemble(rep, np.ones(dim), 2.0, n, seed=11)
        assert ensemble.times.size
        batch = states_at(ensemble, rep, times)
        for i in self.rows_to_check(n):
            assert np.array_equal(batch[:, i], states_at(ensemble[i], rep, times)[:, 0]), i

    def test_columns_only_where_the_probe_fails(self, monkeypatch, qutrit_a):
        verdicts, columns_calls = [], []
        probe, columns = trajectory._rows_independent, trajectory._columns

        def recording_probe(mats):
            verdicts.append(probe(mats))
            return verdicts[-1]

        def counting_columns(*args):
            columns_calls.append(None)
            return columns(*args)

        monkeypatch.setattr(trajectory, "_rows_independent", recording_probe)
        monkeypatch.setattr(trajectory, "_columns", counting_columns)
        ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 100, seed=3)
        states_at(ensemble, qutrit_a, [0.5, 2.0])
        # the simulation's table and jumps, then the replay's table
        assert len(verdicts) == 3
        assert bool(columns_calls) == (not all(verdicts))

    @pytest.mark.parametrize(
        "rep, psi0, time_rtol, time_atol",
        [
            (models.qutrit_a(), ket(3, 1), 1e-15, 0.0),
            # dense operators: BLAS sums in another order and with fused
            # multiply-adds, so times move by a few ulps of the horizon
            (chunk_model(8), ket(8, 0), 0.0, 1e-14),
        ],
        ids=["qutrit_a", "dense-dim8"],
    )
    def test_fallback_matches_blas(self, monkeypatch, rep, psi0, time_rtol, time_atol):
        times = [0.5, 1.3, 2.0]
        blas = simulate_ensemble(rep, psi0, 2.0, 150, seed=9)
        blas_states = states_at(blas, rep, times)
        monkeypatch.setattr(trajectory, "_rows_independent", lambda mats: False)
        fallback = simulate_ensemble(rep, psi0, 2.0, 150, seed=9)
        assert blas.times.size > 100
        assert np.array_equal(fallback.offsets, blas.offsets)
        assert np.array_equal(fallback.channels, blas.channels)
        np.testing.assert_allclose(fallback.times, blas.times, rtol=time_rtol, atol=time_atol)
        np.testing.assert_allclose(fallback.post_jump_states, blas.post_jump_states, rtol=0, atol=1e-13)
        np.testing.assert_allclose(states_at(fallback, rep, times), blas_states, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("blas", [True, False], ids=["blas", "columns"])
    def test_horner_keeps_the_order_of_its_terms(self, blas, qutrit_a):
        # `states_at` normalizes by numpy's row norms, whose sums follow the
        # memory order, so the in-place rule must give the allocating rule's
        # values in its order: row-major from BLAS, column-major from `_columns`
        table = _StepTable(effective_hamiltonian(qutrit_a), 2.0)
        rng = np.random.default_rng(3)
        x, tau = rng.standard_normal((70, 6)), rng.random(70) * table.step
        terms = trajectory._product(table.taylor, x, blas)
        expected = terms[-1]
        for term in terms[-2::-1]:
            expected = expected * tau[:, None] + term
        phi = trajectory._horner(terms, tau)
        assert np.array_equal(phi, expected)
        assert phi.flags.c_contiguous == expected.flags.c_contiguous == blas
        assert np.array_equal(np.linalg.norm(phi, axis=1), np.linalg.norm(expected, axis=1))

    @pytest.mark.parametrize(
        "mixing",
        [
            lambda out: out + 1e-3 * np.roll(out, 1, axis=-2),  # a row's neighbour in its call
            lambda out: out + 1e-3 * out[..., :1, :],  # the first row of its call
        ],
        ids=["neighbour", "first-row"],
    )
    def test_probe_rejects_a_row_dependent_product(self, monkeypatch, qutrit_a, mixing):
        chunked = trajectory._chunked
        monkeypatch.setattr(trajectory, "_chunked", lambda *args: mixing(chunked(*args)))
        operator = np.random.default_rng(1).standard_normal((6, 6))
        assert not trajectory._rows_independent(operator)
        assert not trajectory._rows_independent(np.stack([np.eye(6), operator]))
        mixed = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 70, seed=3)
        mixed_states = states_at(mixed, qutrit_a, [0.5, 2.0])
        # the same bits as with the probe turned off: `_columns` everywhere
        monkeypatch.setattr(trajectory, "_rows_independent", lambda mats: False)
        columns = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 70, seed=3)
        assert columns.times.size
        assert np.array_equal(mixed.offsets, columns.offsets)
        assert_same_record(mixed, columns)
        assert np.array_equal(mixed_states, states_at(columns, qutrit_a, [0.5, 2.0]))

    def test_rows_independent_with_two_blas_threads(self):
        # conftest pins BLAS to one thread; OpenBLAS splits a product over
        # threads from about 64 x 64 x 64 multiply-adds, so the dim-32 and
        # dim-33 chunks may run on both
        here = Path(__file__)
        selection = [
            f"{here}::TestDeterminism::test_ensemble_rows_independent_of_batch",
            f"{here}::TestStateAt::test_replayed_rows_independent_of_batch",
            f"{here}::TestChunkedProduct::test_ensemble_rows_equal_rows_alone[33-129]",
            f"{here}::TestChunkedProduct::test_replayed_rows_equal_rows_alone[33-129]",
        ]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection],
            cwd=here.parent.parent, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        assert "4 passed" in proc.stdout


FIELDS = ("times", "channels", "post_jump_states", "offsets", "seeds")


class TestSharedPass:
    """One pass advances the rows of several representations that share the
    initial state and the horizon; each side keeps the bits it has alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 5),
        rows=st.tuples(st.integers(1, 70), st.integers(1, 70)),
        scale=st.sampled_from([4.0, 16.0, 64.0]),
    )
    def test_each_side_equals_its_ensemble_alone(self, seed, dim, rows, scale):
        rng = np.random.default_rng(seed)
        rep_a = random_minimal_representation(rng, dim, n_reset=1, n_nonreset=1, max_rank=1)
        rep_b = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=1)
        # a larger |H_eff| makes a shorter step, so side b has more levels
        rep_b = Representation(scale * rep_b.hamiltonian, rep_b.jumps)
        t_max = 1.5
        tops = [_StepTable(effective_hamiltonian(rep), t_max).top for rep in (rep_a, rep_b)]
        assume(rep_a.n_jumps != rep_b.n_jumps and tops[0] != tops[1])
        psi0 = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        masters = [int(m) for m in rng.integers(0, 2**32, 2)]
        seeds = [spawned_seeds(m, np.arange(n)) for m, n in zip(masters, rows)]
        shared = trajectory._simulate_rows([rep_a, rep_b], psi0, t_max, seeds, Tolerance())
        for ensemble, rep, master, n in zip(shared, (rep_a, rep_b), masters, rows):
            alone = simulate_ensemble(rep, psi0, t_max, n, master)
            for field in FIELDS:
                a, b = getattr(ensemble, field), getattr(alone, field)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @staticmethod
    def dark_after_one_jump():
        """Decay of |1> and |2> to the dark |0>: every row jumps once and
        then never again, so its side's live rows run out early."""
        jumps = [np.outer(ket(3, 0), ket(3, k)) * (k + 0.5) for k in (1, 2)]
        return Representation(hamiltonian=None, jumps=jumps)

    @pytest.mark.parametrize("rows", [(1, 129), (63, 64), (64, 65), (65, 1), (129, 63)])
    def test_chunk_edges_equal_sides_alone(self, monkeypatch, rows):
        # side a runs out of live rows after its first jumps while side b,
        # with another step, ``top`` and jump count, keeps jumping; each side
        # starts on a chunk boundary of the shared layout whatever its count
        rep_a = self.dark_after_one_jump()
        rep_b = models.qutrit_a(hamiltonian=30.0 * (np.eye(3, k=1) + np.eye(3, k=-1)))
        psi0, t_max = normalize(np.ones(3)), 2.0
        tops = [_StepTable(effective_hamiltonian(rep), t_max).top for rep in (rep_a, rep_b)]
        assert tops[0] != tops[1] and rep_a.n_jumps != rep_b.n_jumps
        live = []
        solve = trajectory._solve

        def recording(sides, cuts, x, u):
            live.append(tuple(len(range(len(x))[cut]) for cut in cuts))
            return solve(sides, cuts, x, u)

        monkeypatch.setattr(trajectory, "_solve", recording)
        seeds = [spawned_seeds(m, np.arange(n)) for m, n in zip((8, 9), rows)]
        shared = trajectory._simulate_rows([rep_a, rep_b], psi0, t_max, seeds, Tolerance())
        monkeypatch.undo()
        # the sides' live counts drift apart: side a's reach 0 while side b's do not
        assert any(a == 0 < b for a, b in live)
        for ensemble, rep, master, n in zip(shared, (rep_a, rep_b), (8, 9), rows):
            alone = simulate_ensemble(rep, psi0, t_max, n, master)
            assert ensemble.times.size
            for field in FIELDS:
                a, b = getattr(ensemble, field), getattr(alone, field)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field

    def test_ensembles_of_one_pass(self, qutrit_a):
        other = models.qutrit_a(vartheta=1.1, phi=2.3)
        shared = simulate_ensembles([qutrit_a, other], ket(3, 1), 2.0, 40, [1, 2])
        for ensemble, rep, master in zip(shared, (qutrit_a, other), (1, 2)):
            alone = simulate_ensemble(rep, ket(3, 1), 2.0, 40, master)
            assert np.array_equal(ensemble.offsets, alone.offsets)
            assert_same_record(ensemble, alone)

    def test_side_a_checked_first(self):
        # both sides fail their checks; side a's error comes first
        with pytest.raises(ValidationError, match="expected 2$"):
            simulate_ensembles([single_decay(), models.qutrit_a()], ket(4, 0), 1.0, 5, [1, 2])

    def test_one_seed_per_side(self, qutrit_a):
        with pytest.raises(ValidationError, match="one seed per representation"):
            simulate_ensembles([qutrit_a, qutrit_a], ket(3, 1), 1.0, 5, [1])


class TestBoundedState:
    def test_memory_stays_linear_in_rows(self):
        import tracemalloc

        # 300 rows of dim 32 peak near 4 MB; gathering a (rows, 64, 64)
        # propagator per row for the descent, in 8 MB chunks, peaked near
        # 18 MB, and a solve that formed the (rows, 9, 64, 64) Taylor
        # products of all rows at once reached 70 MB
        rep = random_minimal_representation(np.random.default_rng(5), 32, max_rank=2)
        simulate_ensemble(rep, ket(32, 0), 20.0, 2, seed=1)
        tracemalloc.start()
        try:
            ensemble = simulate_ensemble(rep, ket(32, 0), 20.0, 300, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ensemble.times.size
        assert peak < 10 * 2**20

    def test_jump_amplitudes_stay_linear_in_rows(self):
        import tracemalloc

        # 1000 rows of dim 32 peak near 7 MB; forming the (rows, 2 d K, 2 d)
        # product of the firing rows with the stacked jumps at once reached
        # 42 MB here, and 79 MB by t_max = 20
        rep = random_minimal_representation(np.random.default_rng(5), 32, max_rank=2)
        simulate_ensemble(rep, ket(32, 0), 6.0, 2, seed=1)
        tracemalloc.start()
        try:
            ensemble = simulate_ensemble(rep, ket(32, 0), 6.0, 1000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ensemble.times.size > 500
        assert peak < 30 * 2**20

    def test_held_ensemble_bytes_per_trajectory(self, qutrit_a):
        import tracemalloc

        # qutrit_a from |1> to t = 2 holds about 3.8 jumps per row; one
        # ensemble of arrays keeps about 265 B per trajectory, one record
        # object per trajectory kept about 774 B, and a tuple of one event
        # object per jump about 1,320 B; the bound sits 50 % above the first
        # and 48 % below the second
        n = 2000
        simulate_ensemble(qutrit_a, ket(3, 1), 2.0, 2, seed=1)
        tracemalloc.start()
        try:
            ensemble = simulate_ensemble(qutrit_a, ket(3, 1), 2.0, n, seed=1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ensemble.times.size > 3 * n
        assert held / n < 400

    def test_no_module_state_grows_across_calls(self, qutrit_a):
        def sizes():
            return {
                name: len(value)
                for name, value in vars(trajectory).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))
            }

        first = simulate_ensemble(qutrit_a, ket(3, 1), 1.0, 20, seed=1)
        states_at(first, qutrit_a, [0.5])
        before = sizes()
        other = models.qutrit_b()
        second = simulate_ensemble(other, ket(3, 1), 1.3, 20, seed=2)
        states_at(second, other, [0.2, 1.3])
        simulate(qutrit_a, ket(3, 1), 0.7, seed=3)
        assert sizes() == before


class TestDefectiveGeneratorReplay:
    """Replay runs through the simulator's step table, so a generator with
    no eigenbasis needs no special path."""

    def test_defective_generator_replays_by_expm(self):
        rep = jordan_block()
        h_eff = effective_hamiltonian(rep)
        _, vectors = np.linalg.eig(-1j * h_eff)
        assert np.linalg.cond(vectors) > 1e8
        ensemble = simulate_ensemble(rep, ket(2, 1), 3.0, 30, seed=8)
        assert ensemble.times.size
        times = [0.4, 1.7, 3.0]
        for t, states in zip(times, states_at(ensemble, rep, times)):
            for traj, state in zip(ensemble, states):
                base_time, base = 0.0, traj.initial_state
                for when, post in zip(traj.times, traj.post_jump_states):
                    if when <= t:
                        base_time, base = when, post
                drifted = expm(-1j * h_eff * (t - base_time)) @ base
                assert np.max(np.abs(state - normalize(drifted))) <= 1e-12

    def test_stiff_replay_matches_expm(self):
        rep = driven_qutrit_a(100.0)
        h_eff = effective_hamiltonian(rep)
        ensemble = simulate_ensemble(rep, ket(3, 1), 2.0, 40, seed=21)
        assert ensemble.times.size > 40
        times = [0.013, 0.5, 1.37, 2.0]
        for t, states in zip(times, states_at(ensemble, rep, times)):
            for traj, state in zip(ensemble, states):
                base_time, base = 0.0, traj.initial_state
                for when, post in zip(traj.times, traj.post_jump_states):
                    if when <= t:
                        base_time, base = when, post
                drifted = expm(-1j * h_eff * (t - base_time)) @ base
                assert np.max(np.abs(state - normalize(drifted))) <= 1e-12
