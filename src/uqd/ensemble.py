"""Statistical and pointwise cross-checks of the algebraic verdicts.

These routines validate that representation pairs the checkers declare
equivalent really behave identically:

* ``rate_field_scan`` reports the exact worst-case deviations of the total
  jump rate over all states (a spectral norm, with the state attaining it)
  and of the paired blocks' composite actions (their Frobenius gap), both
  zero up to roundoff exactly when the trajectory-equivalence conditions
  hold.
* ``mean_state_check`` compares the ensemble-averaged conditional state with
  ``exp(L t) rho0`` from `uqd.linalg.matrix_exponential`, in numpy alone.
* ``compare_ensembles`` runs two-sample tests on two ensembles of one size,
  such as the two sides of one `uqd.trajectory.simulate_ensembles` pass
  (``uqd compare-ensembles`` simulates them so), with a Bonferroni-corrected
  verdict: Kolmogorov-Smirnov on observable samples and Pearson's
  chi-square on jump-count distributions.  Observable
  samples are first snapped to a grid whose step comes from the tolerance,
  so values that differ only by roundoff (an atom at ``0.0`` against one at
  ``3.7e-33``) count as one.  The null laws are in `uqd.laws`: Hodges' exact
  two-sample law for KS, with the one-sample Kolmogorov law where its
  recursion rounds outside ``[0, 1]``, and the chi-square upper tail at
  integer degrees of freedom.  They reproduce scipy's ``ks_2samp(...,
  method="exact")`` to the bit and its ``chi2_contingency(...,
  correction=False)`` to the statistic's bit and the p-value's rounding,
  without importing scipy.

Statistics are a cross-check of the implementation, never the decision
procedure; the algebraic checkers are exact at their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .equivalence import require_bijection, require_same_dim
from .laws import chi2_sf, kolmogorov_sf, ks_two_sample_sf
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    density,
    matrix_exponential,
    unvec,
    vec,
)
from .models import qutrit_a, qutrit_a_minimal
from .representation import Representation, jump_rates, liouvillian_matrix, rate_operator, vector_to_json
from .sjed import block_gaps, fix_vector_phase, partition
from .trajectory import TrajectoryEnsemble, check_channels, check_horizon, states_at

@dataclass(eq=False)
class RateFieldReport:
    max_total_rate_dev: float
    max_block_action_dev: float
    worst_state: np.ndarray
    block_perm: Optional[tuple[int, ...]]
    notes: tuple[str, ...] = ()

    def to_document(self) -> dict:
        block_dev = self.max_block_action_dev
        return {
            "max_total_rate_dev": self.max_total_rate_dev,
            "max_block_action_dev": None if np.isinf(block_dev) else block_dev,
            "worst_state": vector_to_json(self.worst_state),
            "block_perm": None if self.block_perm is None else [p + 1 for p in self.block_perm],
            "notes": list(self.notes),
        }


def rate_field_scan(
    rep_a: Representation,
    rep_b: Representation,
    block_perm: Optional[Sequence[int]] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> RateFieldReport:
    """Exact worst-case deviations between the two jump structures.

    The total rates differ at a unit state ``psi`` by ``<psi|G_b - G_a|psi>``,
    so their largest deviation is the spectral norm of ``G_b - G_a``, which
    the phase-fixed eigenvector of its eigenvalue largest in magnitude
    attains.  Paired blocks are compared by the Frobenius gap between their
    composite actions (:func:`uqd.sjed.block_gaps`), the number theorem 1
    holds against its cutoff.  Without an explicit pairing the blocks are
    matched greedily by that gap; a block-count mismatch makes the block
    deviation infinite.
    """
    require_same_dim(rep_a, rep_b)
    parts_a = partition(rep_a, tol)
    parts_b = partition(rep_b, tol)
    values, vectors = np.linalg.eigh(rate_operator(rep_b) - rate_operator(rep_a))
    top = int(np.argmax(np.abs(values)))
    perm: Optional[tuple[int, ...]] = None
    if block_perm is not None:
        perm = require_bijection(block_perm, parts_b.block_count, parts_a.block_count, "block")
    max_block, notes = np.inf, []
    if perm is None and parts_a.block_count != parts_b.block_count:
        notes.append(
            f"block counts differ ({parts_b.block_count} vs {parts_a.block_count}); "
            "block deviation set to infinity"
        )
    else:
        gaps, _ = block_gaps(rep_b, parts_b, rep_a, parts_a, tol)
        if perm is None:
            free, taken = gaps.copy(), []
            for row in free:  # the first smallest gap among the blocks not yet taken
                taken.append(int(np.argmin(row)))
                free[:, taken[-1]] = np.inf
            perm = tuple(taken)
            notes.append("blocks paired greedily by composite-action distance")
        max_block = max(float(gaps[alpha, beta]) for alpha, beta in enumerate(perm))
    return RateFieldReport(
        max_total_rate_dev=float(abs(values[top])),
        max_block_action_dev=max_block,
        worst_state=fix_vector_phase(vectors[:, top]),
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
    ensemble: TrajectoryEnsemble,
    rep: Representation,
    times: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> MeanStateReport:
    """Max entrywise gap between the Monte Carlo mean state of the
    ``N``-row ``ensemble`` and the deterministic averaged state from its
    initial state, with the ``4 / sqrt(N)`` acceptance scale."""
    if not ensemble:
        raise ValidationError("empty ensemble")
    rho0 = density(ensemble.initial_state)
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


def _pooled_table(x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    """The ``(2, K)`` table of how often each value occurs in the
    non-negative integer counts ``x`` and ``y``, adjacent values pooled in
    order until a bin holds 10; a short last bin joins the one before."""
    x, y = np.asarray(x, dtype=int), np.asarray(y, dtype=int)
    size = 1 + max(x.max(initial=0), y.max(initial=0))
    count_x, count_y = np.bincount(x, minlength=size), np.bincount(y, minlength=size)
    seen = (count_x + count_y) > 0  # the values that occur
    count_x, count_y = count_x[seen].astype(float), count_y[seen].astype(float)
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
    return np.array([bins_x, bins_y])


def _chi2_two_sample(x: Sequence[int], y: Sequence[int]) -> Tuple[float, float]:
    """Pearson's chi-square statistic and upper tail of the pooled table of
    two samples of non-negative integer counts, as
    scipy's ``chi2_contingency(table, correction=False)`` gives them."""
    table = _pooled_table(x, y)
    if table.shape[1] < 2:
        return 0.0, 1.0
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    stat = float(np.sum((table - expected) ** 2 / expected))
    return stat, chi2_sf(stat, table.shape[1] - 1)


def _observable_samples(states: np.ndarray, observable: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ni,ij,nj->n", states.conj(), observable, states))


def _ks_2samp(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, str]:
    """Two-sample KS statistic ``h / n``, p-value and the law that gave the
    p-value, for two samples of one size ``n``.

    ``h`` is the largest gap between the two samples' counts at or below a
    sample value.  The p-value is Hodges' exact law, ``"exact"``; where its
    recursion rounds outside ``[0, 1]`` (near 1, in large tied samples) it
    is the one-sample Kolmogorov law at ``round(n / 2)``, ``"asymp"``.
    These are the statistic, p-value and method of
    scipy's ``ks_2samp(x, y, method="exact")``, to the bit.
    """
    x, y = np.sort(x), np.sort(y)
    n = len(x)
    pooled = np.concatenate([x, y])
    gap = np.searchsorted(x, pooled, side="right") - np.searchsorted(y, pooled, side="right")
    h = int(np.max(np.abs(gap)))
    if h == 0:
        return 0.0, 1.0, "exact"
    p_value = ks_two_sample_sf(n, h)
    if 0.0 <= p_value <= 1.0:
        return h / n, p_value, "exact"
    # scipy's round(n n / (n + n)), half to even; exactly n / 2 below n = 9e7
    return h / n, kolmogorov_sf(round(n / 2), h / n), "asymp"


def _snap(samples: np.ndarray, resolution: float) -> np.ndarray:
    """Integer grid index of each sample; raw samples at zero resolution."""
    if resolution == 0.0:
        return samples
    return np.round(samples / resolution)


def _channel_counts(ensemble: TrajectoryEnsemble, n_channels: int) -> np.ndarray:
    """Each trajectory's jump count per channel, as an ``(N, n_channels)``
    integer matrix; the first recorded channel outside them is named."""
    check_channels(ensemble.channels, n_channels)
    counts = np.bincount(ensemble.owners() * n_channels + ensemble.channels,
                         minlength=len(ensemble) * n_channels)
    return counts.reshape(len(ensemble), n_channels)


def _block_counts(counts: np.ndarray, rep: Representation, tol: Tolerance) -> np.ndarray:
    """Channel ``counts`` summed over each block of ``rep``'s partition."""
    parts = partition(rep, tol)
    return counts @ np.eye(parts.block_count, dtype=int)[parts.block_of_channel(rep.n_jumps)]


def _label_count_tests(
    count_tests: Dict[str, Tuple[float, float]], word: str, counts_a: np.ndarray,
    counts_b: np.ndarray, perm: Optional[Sequence[int]],
) -> Optional[str]:
    """Add to ``count_tests`` one chi-square test per label (column),
    ``"{word} k"``: label ``perm[k]`` of ``counts_a`` against label ``k`` of
    ``counts_b``.  Records with different label counts are incomparable; the
    mismatch is returned instead."""
    n_a, n_b = counts_a.shape[1], counts_b.shape[1]
    if n_a != n_b:
        return f"{word}-count vectors have different lengths ({n_a} vs {n_b}); records are incomparable"
    mapping = tuple(range(n_a)) if perm is None else require_bijection(perm, n_b, n_a, word)
    for k in range(n_a):
        count_tests[f"{word} {k + 1}"] = _chi2_two_sample(counts_a[:, mapping[k]], counts_b[:, k])
    return None


def check_comparison(alpha: float, times: Sequence[float], t_final: float) -> None:
    """Reject a significance level outside (0, 1), a horizon ``t_final``
    that is not positive and finite, or a sample time outside
    ``[0, t_final]`` or repeating an earlier one, before any ensemble is
    simulated or replayed."""
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    check_horizon(t_final)
    for i, t in enumerate(times):
        if not 0 <= t <= t_final:
            raise ValidationError(f"time {t} outside [0, {t_final}]")
        if t in times[:i]:
            raise ValidationError(f"time {t} repeats an earlier time")


def compare_ensembles(
    ens_a: TrajectoryEnsemble,
    ens_b: TrajectoryEnsemble,
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
    """Two-sample comparison at a theorem level of two non-empty trajectory
    ensembles of one size ``N`` whose horizons agree to 1e-12, simulated
    apart or as the two sides of one `uqd.trajectory.simulate_ensembles`
    pass, which gives each side the bits it has alone.  Each is replayed
    under its own representation by `uqd.trajectory.states_at`: through the
    step table its pass kept, where that table fits the representation and
    the horizon, else through one built for them, with the same bits.  So
    ``uqd compare-ensembles`` builds one table per side.

    ``t1`` tests observable distributions and total jump counts, ``t3`` adds
    per-block counts after applying ``block_perm``, ``t2`` adds per-channel
    counts after applying ``perm``.  Each ensemble's counts are read from
    one ``(N, n_jumps)`` channel-count matrix: totals are its row sums and
    block counts its columns summed over the partition; a recorded channel
    the representation lacks is named at every level.  The verdict applies a
    Bonferroni threshold ``alpha / n_tests``; a structural mismatch
    (incomparable count vectors) fails the verdict outright.

    Before each KS test both sample arrays of an observable ``O`` are snapped
    to one grid of step ``tol.cutoff(||O||_2)`` (spectral norm), recorded as
    ``ks_resolution``.  Expectation values lie in ``[-||O||_2, ||O||_2]``, so
    the step is the tolerance's resolution on that scale; without it, atoms
    whose float bits depend on the representation (``p0 = 0.0`` against
    ``p0 = 3.7e-33``) would count as distinct values.  With
    ``Tolerance(atol=0, rtol=0)`` the step is zero and the raw samples are
    compared.  Each KS entry also records ``ks_method``: ``"exact"`` where
    the p-value is Hodges' exact law for two samples of ``N``, or
    ``"asymp"`` where that law's recursion rounds outside ``[0, 1]`` (only
    near p = 1, in tied samples) and the p-value is the one-sample
    Kolmogorov law at ``round(N / 2)``, as in scipy's ``ks_2samp``.  Count
    tests take Pearson's chi-square on the pooled table, with the upper
    tail at its integer degrees of freedom.
    """
    if level not in ("t1", "t2", "t3"):
        raise ValidationError(f"unknown comparison level {level!r}")
    if not ens_a or not ens_b:
        raise ValidationError("both ensembles must be non-empty")
    if len(ens_a) != len(ens_b):
        raise ValidationError(f"ensembles have different sizes ({len(ens_a)} vs {len(ens_b)})")
    if abs(ens_a.t_final - ens_b.t_final) > 1e-12:
        raise ValidationError("ensembles have mismatched horizons")
    check_comparison(alpha, times, ens_a.t_final)
    require_same_dim(rep_a, rep_b)
    for label, op in observables.items():
        if np.shape(op) != (rep_a.dim,) * 2:
            raise ValidationError(f"observable {label!r} has shape {np.shape(op)}, not {(rep_a.dim,) * 2}")
        as_operator(op)  # rejects non-finite entries

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

    counts_a = _channel_counts(ens_a, rep_a.n_jumps)
    counts_b = _channel_counts(ens_b, rep_b.n_jumps)
    count_tests = {"total": _chi2_two_sample(counts_a.sum(axis=1), counts_b.sum(axis=1))}
    structural: Optional[str] = None
    if level == "t2":
        structural = _label_count_tests(count_tests, "channel", counts_a, counts_b, perm)
    elif level == "t3":
        structural = _label_count_tests(
            count_tests, "block", _block_counts(counts_a, rep_a, tol),
            _block_counts(counts_b, rep_b, tol), block_perm,
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
    ``FIG_RATE_COLUMNS``.  Both grid sizes must be at least 1."""
    if n_polar < 1 or n_azimuth < 1:
        raise ValidationError(f"n_polar and n_azimuth must be at least 1, got {n_polar}, {n_azimuth}")
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
