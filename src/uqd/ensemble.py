"""Statistical and pointwise cross-checks of the algebraic verdicts.

These routines validate that representation pairs the checkers declare
equivalent really behave identically:

* ``rate_field_scan`` evaluates total jump rates and per-block composite
  actions on sampled states, reporting worst-case deviations (zero up to
  roundoff exactly when the trajectory-equivalence conditions hold).
* ``mean_state_check`` compares the ensemble-averaged conditional state with
  the deterministically integrated averaged state.
* ``compare_ensembles`` runs two-sample tests on observable samples
  (Kolmogorov-Smirnov) and jump-count distributions (chi-square), with a
  Bonferroni-corrected verdict.  Observable samples are first snapped to a
  grid whose step comes from the tolerance, so values that differ only by
  roundoff (an atom at ``0.0`` against one at ``3.7e-33``) count as one.

Statistics are a cross-check of the implementation, never the decision
procedure; the algebraic checkers are exact at their tolerances.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.stats

from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    SeedLike,
    Tolerance,
    as_rng,
    density,
    frobenius,
    matrix_exponential,
    random_pure_state,
    trace_distance,
    unvec,
    vec,
)
from .models import qutrit_a, qutrit_a_minimal
from .representation import Representation, jump_rates, liouvillian_matrix
from .sjed import SjedPartition, composite_action, partition
from .trajectory import LabelledTrajectory, coarse_grain, states_at

KS_EXACT_MAX = 10_000  # largest sample for an exact KS p-value, as scipy's "auto"
_KS_FALLBACK = r"ks_2samp: Exact calculation unsuccessful"


@dataclass(eq=False)
class RateFieldReport:
    n_states: int
    max_total_rate_dev: float
    max_block_action_dev: float
    worst_state: np.ndarray
    block_perm: Optional[tuple[int, ...]]
    notes: tuple[str, ...] = ()

    def to_document(self) -> dict:
        from .representation import vector_to_json

        block_dev = self.max_block_action_dev
        return {
            "n_states": self.n_states,
            "max_total_rate_dev": self.max_total_rate_dev,
            "max_block_action_dev": None if np.isinf(block_dev) else block_dev,
            "worst_state": vector_to_json(self.worst_state),
            "block_perm": None if self.block_perm is None else [p + 1 for p in self.block_perm],
            "notes": list(self.notes),
        }


def _block_action_on_state(rep: Representation, indices: Sequence[int], psi: np.ndarray) -> np.ndarray:
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for k in indices:
        amp = rep.jumps[k] @ psi
        out += np.outer(amp, amp.conj())
    return out


def _greedy_block_pairing(
    rep_a: Representation,
    rep_b: Representation,
    parts_a: SjedPartition,
    parts_b: SjedPartition,
) -> tuple[int, ...]:
    actions_a = [composite_action(rep_a, blk) for blk in parts_a.blocks]
    actions_b = [composite_action(rep_b, blk) for blk in parts_b.blocks]
    taken: set[int] = set()
    perm: List[int] = []
    for action_b in actions_b:
        best, best_dist = -1, np.inf
        for beta, action_a in enumerate(actions_a):
            if beta in taken:
                continue
            dist = frobenius(action_b - action_a)
            if dist < best_dist:
                best, best_dist = beta, dist
        taken.add(best)
        perm.append(best)
    return tuple(perm)


def rate_field_scan(
    rep_a: Representation,
    rep_b: Representation,
    block_perm: Optional[Sequence[int]] = None,
    n_states: int = 1000,
    seed: SeedLike = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> RateFieldReport:
    """Worst-case pointwise deviation between the two jump structures.

    For each sampled state the total rates are compared directly; matched
    blocks are compared through the trace of their composite action and the
    trace distance of their normalized destinations.  Without an explicit
    pairing the blocks are matched greedily by action distance; a block-count
    mismatch makes the block deviation infinite.
    """
    if rep_a.dim != rep_b.dim:
        raise ValidationError("representations act on different dimensions")
    parts_a = partition(rep_a, tol)
    parts_b = partition(rep_b, tol)
    notes: List[str] = []
    if block_perm is not None:
        perm: Optional[tuple[int, ...]] = tuple(int(p) for p in block_perm)
        if len(perm) != parts_b.block_count or sorted(perm) != list(range(parts_a.block_count)):
            raise ValidationError("block permutation does not pair the two block sets")
    elif parts_a.block_count == parts_b.block_count:
        perm = _greedy_block_pairing(rep_a, rep_b, parts_a, parts_b)
        notes.append("blocks paired greedily by composite-action distance")
    else:
        perm = None
        notes.append(
            f"block counts differ ({parts_b.block_count} vs {parts_a.block_count}); "
            "block deviation set to infinity"
        )

    rng = as_rng(seed)
    max_total = 0.0
    max_block = 0.0 if perm is not None else np.inf
    worst = random_pure_state(rep_a.dim, rng)
    for _ in range(n_states):
        psi = random_pure_state(rep_a.dim, rng)
        total_dev = abs(float(np.sum(jump_rates(rep_b, psi))) - float(np.sum(jump_rates(rep_a, psi))))
        block_dev = 0.0
        if perm is not None:
            for alpha, beta in enumerate(perm):
                action_b = _block_action_on_state(rep_b, parts_b.blocks[alpha].indices, psi)
                action_a = _block_action_on_state(rep_a, parts_a.blocks[beta].indices, psi)
                rate_b = float(np.real(np.trace(action_b)))
                rate_a = float(np.real(np.trace(action_a)))
                block_dev = max(block_dev, abs(rate_b - rate_a))
                if rate_a > tol.atol and rate_b > tol.atol:
                    block_dev = max(
                        block_dev, trace_distance(action_b / rate_b, action_a / rate_a)
                    )
        score = max(total_dev, block_dev if perm is not None else 0.0)
        if score >= max(max_total, max_block if perm is not None else 0.0):
            worst = psi
        max_total = max(max_total, total_dev)
        if perm is not None:
            max_block = max(max_block, block_dev)
    return RateFieldReport(
        n_states=n_states,
        max_total_rate_dev=max_total,
        max_block_action_dev=max_block,
        worst_state=worst,
        block_perm=perm,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class MeanStateReport:
    deviations: tuple[tuple[float, float], ...]  # (time, max entrywise deviation)
    bound: float

    @property
    def max_deviation(self) -> float:
        return max(dev for _, dev in self.deviations)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.bound


def mean_state_check(
    ensemble: Sequence[LabelledTrajectory],
    rep: Representation,
    times: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> MeanStateReport:
    """Max entrywise gap between the Monte Carlo mean state and the
    deterministic averaged state, with the ``4 / sqrt(N)`` acceptance scale."""
    if not ensemble:
        raise ValidationError("empty ensemble")
    psi0 = ensemble[0].initial_state
    for traj in ensemble:
        if np.linalg.norm(traj.initial_state - psi0) > 1e-12:
            raise ValidationError("ensemble mixes different initial states")
    rho0 = density(psi0)
    generator = liouvillian_matrix(rep, tol)
    deviations = []
    for t, states in zip(times, states_at(ensemble, rep, times)):
        exact = unvec(matrix_exponential(generator * t) @ vec(rho0))
        mean = np.einsum("ni,nj->ij", states, states.conj()) / len(ensemble)
        deviations.append((float(t), float(np.max(np.abs(mean - exact)))))
    return MeanStateReport(deviations=tuple(deviations), bound=4.0 / np.sqrt(len(ensemble)))


@dataclass(eq=False)
class EnsembleComparison:
    level: str
    ks_statistics: Dict[Tuple[str, float], Tuple[float, float]]
    ks_resolution: Dict[str, float]
    ks_method: Dict[Tuple[str, float], str]
    count_tests: Dict[str, Tuple[float, float]]
    alpha: float
    n_tests: int
    verdict: bool
    structural: Optional[str] = None

    def to_document(self) -> dict:
        return {
            "level": self.level,
            "ks_statistics": [
                {
                    "observable": obs,
                    "time": t,
                    "statistic": stat,
                    "p_value": p,
                    "ks_resolution": self.ks_resolution[obs],
                    "ks_method": self.ks_method[(obs, t)],
                }
                for (obs, t), (stat, p) in self.ks_statistics.items()
            ],
            "count_tests": [
                {"name": name, "statistic": stat, "p_value": p}
                for name, (stat, p) in self.count_tests.items()
            ],
            "alpha": self.alpha,
            "n_tests": self.n_tests,
            "verdict": self.verdict,
            "structural": self.structural,
        }


def _chi2_two_sample(x: Sequence[int], y: Sequence[int]) -> Tuple[float, float]:
    """Two-sample chi-square on integer counts with adjacent-bin pooling."""
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    values = np.union1d(x, y)
    count_x = np.array([np.count_nonzero(x == v) for v in values], dtype=float)
    count_y = np.array([np.count_nonzero(y == v) for v in values], dtype=float)
    bins_x: List[float] = []
    bins_y: List[float] = []
    acc_x = acc_y = 0.0
    for cx, cy in zip(count_x, count_y):
        acc_x += cx
        acc_y += cy
        if acc_x + acc_y >= 10:
            bins_x.append(acc_x)
            bins_y.append(acc_y)
            acc_x = acc_y = 0.0
    if acc_x or acc_y:
        if bins_x:
            bins_x[-1] += acc_x
            bins_y[-1] += acc_y
        else:
            bins_x.append(acc_x)
            bins_y.append(acc_y)
    if len(bins_x) < 2:
        return 0.0, 1.0
    table = np.array([bins_x, bins_y])
    stat, p, _, _ = scipy.stats.chi2_contingency(table, correction=False)
    return float(stat), float(p)


def _observable_samples(states: np.ndarray, observable: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ni,ij,nj->n", states.conj(), observable, states))


def _ks_2samp(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, str]:
    """Two-sample KS statistic, p-value and the method that gave the p-value.

    The exact p-value is tried up to ``KS_EXACT_MAX`` samples per side, as
    scipy's ``method="auto"`` does.  When scipy cannot finish it (ties in
    large samples), it switches to the asymptotic formula with a
    ``RuntimeWarning``; that warning is caught here and recorded as
    ``"asymp"``.  Any other warning passes through.
    """
    method = "exact" if max(len(x), len(y)) <= KS_EXACT_MAX else "asymp"
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", message=_KS_FALLBACK, category=RuntimeWarning)
        result = scipy.stats.ks_2samp(x, y, method=method)
    for warning in caught:
        if re.match(_KS_FALLBACK, str(warning.message)):
            method = "asymp"
        else:
            warnings.warn_explicit(
                warning.message, warning.category, warning.filename, warning.lineno
            )
    return float(result.statistic), float(result.pvalue), method


def _snap(samples: np.ndarray, resolution: float) -> np.ndarray:
    """Integer grid index of each sample; raw samples at zero resolution."""
    if resolution == 0.0:
        return samples
    return np.round(samples / resolution)


def compare_ensembles(
    ens_a: Sequence[LabelledTrajectory],
    ens_b: Sequence[LabelledTrajectory],
    rep_a: Representation,
    rep_b: Representation,
    observables: Dict[str, np.ndarray],
    times: Sequence[float],
    level: str = "t1",
    perm: Optional[Sequence[int]] = None,
    block_perm: Optional[Sequence[int]] = None,
    alpha: float = 0.01,
    tol: Tolerance = DEFAULT_TOL,
) -> EnsembleComparison:
    """Two-sample comparison of trajectory ensembles at a theorem level.

    ``t1`` tests observable distributions and total jump counts, ``t3`` adds
    per-block counts after applying ``block_perm``, ``t2`` adds per-channel
    counts after applying ``perm``.  The verdict applies a Bonferroni
    threshold ``alpha / n_tests``; a structural mismatch (incomparable count
    vectors) fails the verdict outright.

    Before each KS test both sample arrays of an observable ``O`` are snapped
    to one grid of step ``tol.cutoff(||O||_2)`` (spectral norm), recorded as
    ``ks_resolution``.  Expectation values lie in ``[-||O||_2, ||O||_2]``, so
    the step is the tolerance's resolution on that scale; without it, atoms
    whose float bits depend on the representation (``p0 = 0.0`` against
    ``p0 = 3.7e-33``) would count as distinct values.  With
    ``Tolerance(atol=0, rtol=0)`` the step is zero and the raw samples are
    compared.  Each KS entry also records ``ks_method``: ``"exact"``, or
    ``"asymp"`` where scipy could not finish the exact p-value.
    """
    if level not in ("t1", "t2", "t3"):
        raise ValidationError(f"unknown comparison level {level!r}")
    if not ens_a or not ens_b:
        raise ValidationError("both ensembles must be non-empty")
    if abs(ens_a[0].t_final - ens_b[0].t_final) > 1e-12:
        raise ValidationError("ensembles have mismatched horizons")

    resolution = {
        label: tol.cutoff(float(np.linalg.norm(op, 2))) for label, op in observables.items()
    }
    ks: Dict[Tuple[str, float], Tuple[float, float]] = {}
    ks_method: Dict[Tuple[str, float], str] = {}
    replay_a = states_at(ens_a, rep_a, times)
    replay_b = states_at(ens_b, rep_b, times)
    for t, states_a, states_b in zip(times, replay_a, replay_b):
        for label, op in observables.items():
            statistic, p_value, method = _ks_2samp(
                _snap(_observable_samples(states_a, op), resolution[label]),
                _snap(_observable_samples(states_b, op), resolution[label]),
            )
            ks[(label, float(t))] = (statistic, p_value)
            ks_method[(label, float(t))] = method

    count_tests: Dict[str, Tuple[float, float]] = {}
    structural: Optional[str] = None
    totals_a = [len(traj.events) for traj in ens_a]
    totals_b = [len(traj.events) for traj in ens_b]
    count_tests["total"] = _chi2_two_sample(totals_a, totals_b)

    if level == "t2":
        if rep_a.n_jumps != rep_b.n_jumps:
            structural = (
                f"channel-count vectors have different lengths "
                f"({rep_a.n_jumps} vs {rep_b.n_jumps}); records are incomparable"
            )
        else:
            d = rep_a.n_jumps
            mapping = tuple(range(d)) if perm is None else tuple(int(p) for p in perm)
            if sorted(mapping) != list(range(d)):
                raise ValidationError("channel permutation is not a bijection")
            counts_a = np.array([traj.counts(d) for traj in ens_a])
            counts_b = np.array([traj.counts(d) for traj in ens_b])
            for k in range(d):
                count_tests[f"channel {k + 1}"] = _chi2_two_sample(
                    counts_a[:, mapping[k]], counts_b[:, k]
                )
    elif level == "t3":
        parts_a = partition(rep_a, tol)
        parts_b = partition(rep_b, tol)
        if parts_a.block_count != parts_b.block_count:
            structural = (
                f"block-count vectors have different lengths "
                f"({parts_a.block_count} vs {parts_b.block_count}); records are incomparable"
            )
        else:
            n_blocks = parts_a.block_count
            mapping = (
                tuple(range(n_blocks)) if block_perm is None else tuple(int(p) for p in block_perm)
            )
            if sorted(mapping) != list(range(n_blocks)):
                raise ValidationError("block permutation is not a bijection")
            blocks_a = np.array(
                [coarse_grain(traj, parts_a).counts(n_blocks) for traj in ens_a]
            )
            blocks_b = np.array(
                [coarse_grain(traj, parts_b).counts(n_blocks) for traj in ens_b]
            )
            for b in range(n_blocks):
                count_tests[f"block {b + 1}"] = _chi2_two_sample(
                    blocks_a[:, mapping[b]], blocks_b[:, b]
                )

    n_tests = len(ks) + len(count_tests)
    threshold = alpha / max(1, n_tests)
    p_values = [p for _, p in ks.values()] + [p for _, p in count_tests.values()]
    verdict = structural is None and all(p > threshold for p in p_values)
    return EnsembleComparison(
        level=level,
        ks_statistics=ks,
        ks_resolution=resolution,
        ks_method=ks_method,
        count_tests=count_tests,
        alpha=alpha,
        n_tests=n_tests,
        verdict=verdict,
        structural=structural,
    )


FIG_RATE_COLUMNS = (
    "polar",
    "azimuth",
    "r_1",
    "r_2",
    "r_3",
    "r_4",
    "r_5",
    "rp_1",
    "rp_2",
    "rp_3",
    "block_1_rate",
    "block_2_rate",
)

RATE_CURVE_CONVENTION = (
    "real-coefficient qutrit states psi = (sin(polar)*cos(azimuth), "
    "sin(polar)*sin(azimuth), cos(polar)); polar in [0, pi] measured from the "
    "third basis state, azimuth in [0, 2*pi)"
)


def rate_curves(
    theta: float = np.pi / 6,
    gamma: float = 1.0,
    vartheta: float = np.pi / 3,
    lam: float = 2.0,
    phi: float = 0.0,
    n_polar: int = 61,
    n_azimuth: int = 121,
):
    """Jump rates of the five-jump qutrit model and its minimal form on the
    sphere of real-coefficient pure states.  Yields rows matching
    ``FIG_RATE_COLUMNS``."""
    rep = qutrit_a(theta=theta, gamma=gamma, vartheta=vartheta, lam=lam, phi=phi)
    rep_min = qutrit_a_minimal(theta=theta, gamma=gamma, lam=lam)
    for polar in np.linspace(0.0, np.pi, n_polar):
        for azimuth in np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False):
            psi = np.array(
                [
                    np.sin(polar) * np.cos(azimuth),
                    np.sin(polar) * np.sin(azimuth),
                    np.cos(polar),
                ],
                dtype=complex,
            )
            r = jump_rates(rep, psi)
            rp = jump_rates(rep_min, psi)
            yield (
                float(polar),
                float(azimuth),
                *[float(x) for x in r],
                *[float(x) for x in rp],
                float(r[0] + r[1] + r[2]),
                float(r[3] + r[4]),
            )
