"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The statistical criteria simulate 10^4 trajectories per ensemble and take a
few minutes in total on one core.
"""

import time
from itertools import permutations

import numpy as np
import pytest
import scipy.stats

from uqd import models
from uqd.ensemble import compare_ensembles, mean_state_check
from uqd.equivalence import (
    apply_gauge,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    extract_isometry,
    same_liouvillian,
)
from uqd.representation import Representation, jump_rates, liouvillian_matrix
from uqd.sjed import NonResetBlock, ResetBlock, partition
from uqd.trajectory import simulate_ensemble
from conftest import ket
from helpers import (
    cross_block_mixture,
    permuted_phase_variant,
    qme_gauge_variant,
    random_block_isometry,
    random_minimal_representation,
    random_pure_state,
)

N_TRAJ = 10_000


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def wrap_phase(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


@pytest.fixture(scope="module")
def qutrit_a_ensemble():
    # reused by criteria 8b and 8c (first member of the level-t1 pair)
    rep = models.qutrit_a()
    return rep, simulate_ensemble(rep, ket(3, 1), 2.0, N_TRAJ, seed=81)


def test_criterion_1_partition_structure():
    start = time.perf_counter()
    parts_a = partition(models.qutrit_a())
    parts_min = partition(models.qutrit_a_minimal())
    parts_b = partition(models.qutrit_b(theta=0.6, gammas=(1.0, 0.5, 2.0)))
    elapsed = time.perf_counter() - start

    def shape(parts):
        return [(blk.indices, type(blk)) for blk in parts.blocks]

    ok = (
        shape(parts_a) == [((0, 1, 2), ResetBlock), ((3, 4), NonResetBlock)]
        and shape(parts_min) == [((0, 1), ResetBlock), ((2,), NonResetBlock)]
        and shape(parts_b) == [((0, 1, 2), ResetBlock), ((3, 4), ResetBlock)]
        and elapsed < 1.0
    )
    report(1, f"equal-destination partitions exact, {elapsed * 1e3:.0f} ms", ok)


def test_criterion_2_rate_proportionality():
    rep = models.qutrit_a(theta=np.pi / 6, gamma=1.0, vartheta=np.pi / 3, lam=2.0, phi=0.0)
    rep_min = models.qutrit_a_minimal(theta=np.pi / 6, gamma=1.0, lam=2.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        psi = random_pure_state(3, rng)
        r = jump_rates(rep, psi)
        rp = jump_rates(rep_min, psi)
        scale = max(r[3], r[4], rp[2], 1e-300)
        worst = max(worst, abs(r[4] - 3 * r[3]) / scale, abs(rp[2] - 4 * r[3]) / scale)
    ok = worst < 1e-10
    report(2, f"r4 = r5/3 = r'3/4 on 1000 states, worst rel dev {worst:.2e}", ok)


def test_criterion_3_theorem1_grid():
    base = models.qutrit_a()
    minimal = models.qutrit_a_minimal()
    ok = True
    verdict = check_theorem1(base, minimal)
    ok &= verdict.holds and verdict.block_perm == (0, 1) and abs(verdict.shift) < 1e-12
    ok &= np.max(np.abs(liouvillian_matrix(base) - liouvillian_matrix(minimal))) < 1e-10
    for vt in (0.3, 0.8, 1.1, 2.0, 2.7):
        for ph in (0.0, 0.9, 1.7, 3.1, 5.2):
            other = models.qutrit_a(vartheta=vt, phi=ph)
            verdict = check_theorem1(base, other)
            ok &= verdict.holds and verdict.block_perm == (0, 1)
            ok &= verdict.shift is not None and abs(verdict.shift) < 1e-12
            delta = np.max(np.abs(liouvillian_matrix(base) - liouvillian_matrix(other)))
            ok &= delta < 1e-10
    report(3, "trajectory equivalence across recombination and a 5x5 angle grid", ok)


def test_criterion_4_theorem2_special_angles():
    phi, phi_t = 0.3, 0.7
    vt = np.pi / 5
    base = models.qutrit_a(vartheta=vt, phi=phi)
    cases = {
        0.0: ((3, 4), (0.0, wrap_phase(phi_t - phi))),
        np.pi / 2: ((4, 3), (wrap_phase(np.pi - phi), phi_t)),
        np.pi: ((3, 4), (np.pi, wrap_phase(np.pi + phi_t - phi))),
        3 * np.pi / 2: ((4, 3), (wrap_phase(-phi), wrap_phase(np.pi + phi_t))),
    }
    ok = True
    for offset, (tail_perm, tail_phases) in cases.items():
        verdict = check_theorem2(base, models.qutrit_a(vartheta=vt + offset, phi=phi_t))
        ok &= verdict.holds
        if not verdict.holds:
            continue
        matching = verdict.matchings[0]
        ok &= matching.perm == (0, 1, 2) + tail_perm
        for got, expected in zip(matching.phases[3:], tail_phases):
            ok &= abs(wrap_phase(got - expected)) < 1e-10
    failing = check_theorem2(base, models.qutrit_a(vartheta=vt + np.pi / 6, phi=phi_t))
    ok &= not failing.holds
    report(4, "label equivalence at the four special angle offsets, fails at +30 deg", ok)


def test_criterion_5_theorem2_multiplicity():
    one = models.qutrit_a(theta=0.0, phi=0.2)
    two = models.qutrit_a(theta=0.0, phi=0.9)
    verdict = check_theorem2(one, two, enumerate_all=True)
    ok = verdict.holds and verdict.multiple and len(verdict.matchings) >= 2
    report(5, f"degenerate channels give {len(verdict.matchings)} valid permutations", ok)


def test_criterion_6_two_reset_target_cases():
    gammas = (1.0, 0.5, 2.0)
    tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))

    aligned = models.qutrit_b(theta=0.0, gammas=gammas)
    t1_aligned = check_theorem1(tilde, aligned)
    t3_aligned = check_theorem3(tilde, aligned, block_perm=(0, 1))
    ok = t1_aligned.holds and t1_aligned.block_perm == (0, 1) and t3_aligned.holds

    rotated = models.qutrit_b(theta=np.pi / 2, gammas=gammas)
    t1_rotated = check_theorem1(tilde, rotated)
    t3_rotated = check_theorem3(tilde, rotated, block_perm=(1, 0))
    ok &= t1_rotated.holds and t1_rotated.block_perm == (1, 0) and t3_rotated.holds

    halfway = models.qutrit_b(theta=np.pi / 4, gammas=gammas)
    ok &= same_liouvillian(tilde, halfway)
    ok &= not check_theorem1(tilde, halfway).holds
    report(6, "rotated reset targets: identity at 0, swap at 90 deg, broken at 45 deg", ok)


def test_criterion_7_gauge_round_trips():
    minimal = models.qutrit_a_minimal()
    split = models.qutrit_a()
    iso, _ = extract_isometry(minimal, split)
    theta, vartheta, phi = np.pi / 6, np.pi / 3, 0.0
    reference = np.array(
        [
            [-np.sin(theta), np.cos(theta) / np.sqrt(2), 0],
            [np.cos(theta), np.sin(theta) / np.sqrt(2), 0],
            [0, 1 / np.sqrt(2), 0],
            [0, 0, np.cos(vartheta)],
            [0, 0, np.exp(1j * phi) * np.sin(vartheta)],
        ],
        dtype=complex,
    )
    residual = 0.0
    for col in range(3):
        overlap = np.vdot(reference[:, col], iso.matrix[:, col])
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        residual = max(
            residual, float(np.max(np.abs(iso.matrix[:, col] - phase * reference[:, col])))
        )
    ok = residual <= 1e-10

    rng = np.random.default_rng(77)
    for _ in range(50):
        rep = random_minimal_representation(
            rng, dim=3, n_reset=int(rng.integers(1, 3)), n_nonreset=int(rng.integers(0, 2))
        )
        if partition(rep).block_count < 2:
            rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
        gauged = apply_gauge(rep, random_block_isometry(rng, rep), float(rng.standard_normal()))
        ok &= check_theorem1(rep, gauged).holds
    for _ in range(50):
        rep = random_minimal_representation(rng, dim=3, n_reset=1, n_nonreset=1)
        mixed = cross_block_mixture(rng, rep)
        ok &= same_liouvillian(rep, mixed)
        ok &= not check_theorem1(rep, mixed).holds
    report(7, f"gauge extraction residual {residual:.1e}; 50+50 random round trips", ok)


def test_criterion_8a_exponential_jump_law():
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = 1.0
    decay = Representation(hamiltonian=None, jumps=[jump], label="decay")
    trajs = simulate_ensemble(decay, ket(2, 1), 12.0, N_TRAJ, seed=4321)
    times = trajs.times[trajs.offsets[:-1][np.diff(trajs.offsets) > 0]]  # each row's first
    result = scipy.stats.kstest(times, "expon", args=(0.0, 1.0))
    ok = result.pvalue > 0.01
    report(8, f"(a) single-decay jump times vs Exp(1): KS p = {result.pvalue:.3f}", ok)


def test_criterion_8b_mean_state(qutrit_a_ensemble):
    start = time.perf_counter()
    rep, ensemble = qutrit_a_ensemble
    check = mean_state_check(ensemble, rep, [0.5, 1.0, 2.0])
    elapsed = time.perf_counter() - start
    ok = check.ok and elapsed < 60.0
    report(
        8,
        f"(b) ensemble mean vs integrated state: max dev {check.max_deviation:.2e} "
        f"< {check.bound:.2e}, {elapsed:.0f} s",
        ok,
    )


def test_criterion_8c_ensemble_comparisons(qutrit_a_ensemble):
    observables = {
        "p0": np.diag([1.0, 0, 0]).astype(complex),
        "p1": np.diag([0, 1.0, 0]).astype(complex),
    }
    rep_a, ens_a = qutrit_a_ensemble
    rep_b = models.qutrit_a(vartheta=1.1, phi=2.3)
    ens_b = simulate_ensemble(rep_b, ket(3, 1), 2.0, N_TRAJ, seed=82)
    level1 = compare_ensembles(
        ens_a, ens_b, rep_a, rep_b, observables, [0.5, 1.0, 2.0], level="t1"
    )

    tilde = models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0))
    rotated = models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0))
    ens_t = simulate_ensemble(tilde, ket(3, 1), 1.0, N_TRAJ, seed=83)
    ens_r = simulate_ensemble(rotated, ket(3, 1), 1.0, N_TRAJ, seed=84)
    level3 = compare_ensembles(
        ens_t, ens_r, tilde, rotated, observables, [0.5, 1.0], level="t3", block_perm=(1, 0)
    )
    ok = level1.verdict and level3.verdict
    report(8, "(c) level-t1 angle pair and level-t3 swapped pair both pass", ok)


def test_criterion_9_implication_chain():
    rng = np.random.default_rng(990)
    ok = True
    theorem2_hits = theorem1_hits = 0
    for trial in range(200):
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
            theorem2_hits += 1
            ok &= t1.holds
        if t1.holds:
            theorem1_hits += 1
            ok &= qme
        parts, parts_other = partition(rep), partition(other)
        if parts.block_count == parts_other.block_count and parts.block_count <= 4:
            exists = any(
                check_theorem3(rep, other, block_perm=perm).holds
                for perm in permutations(range(parts.block_count))
            )
        else:
            exists = False
        ok &= exists == t1.holds
    ok &= theorem2_hits >= 20 and theorem1_hits >= 40
    report(
        9,
        f"implication chain on 200 pairs (t2 held {theorem2_hits}x, t1 {theorem1_hits}x)",
        ok,
    )
