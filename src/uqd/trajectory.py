"""Piecewise-deterministic simulation of jump-unravelled quantum dynamics.

Between jumps the unnormalized conditional state follows
``phi(t) = exp(-i H_eff (t - t_last)) psi_last`` whose squared norm is the
survival probability.  Each segment draws ``u ~ U(0, 1)`` and fires a jump at
the time where the squared norm crosses ``u``; the channel is then selected
with probability proportional to the instantaneous rates and the state resets
to the normalized image under the chosen jump operator.

Implementation notes:

* One engine advances every trajectory of a call together, as the rows of an
  ``(N, dim)`` array; `simulate` is the engine with one row.  Each pass gives
  every live row one propagator application from a table of step
  exponentials ``exp(-i H_eff step / 2**level)`` with grid step
  ``0.01 / |H_eff|``.  A row on the grid takes a full step (level 0); a row
  whose squared norm fell below its ``u`` bisects that step, descending one
  level per pass, until the jump time is resolved to ``2**-34`` of a step
  and the crossing residual ``| |phi|^2 - u |`` to 1e-9.  Levels are
  computed when a row first needs them, at most once per call.
* A row with less than a full step left still takes a full step.  The
  squared norm never increases, so a crossing found after ``t_max`` means
  there is no jump before ``t_max``, and the row ends there.
* Rows never mix: every product and sum runs per row, over a real form of
  the state and operators, in a fixed order.  A row's bits therefore do not
  depend on how many rows share the call, and ensembles equal their
  trajectories simulated one at a time.
* Randomness comes from a counter-based Philox generator, one per
  trajectory.  Per segment the stream is consumed in a fixed order (one
  uniform for the jump time, then one uniform per fired jump for the
  channel), so trajectories can be replayed exactly from their recorded
  seed.  Ensembles derive each trajectory's seed from
  ``(master seed, trajectory index)``.

Everything a call builds belongs to that call: there are no module-level
caches and no process pool.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DEFAULT_TOL, Tolerance, dagger, matrix_exponential, normalize
from .representation import Representation, effective_hamiltonian, require_valid
from .sjed import SjedPartition

STEP_SCALE = 0.01
TIME_LEVELS = 34  # step * 2**-34 ~ 1e-10 relative time resolution
MAX_LEVELS = 60
NORM_RESIDUAL_TOL = 1e-9
RATE_FLOOR = 1e-14
# Bound on the per-row propagators gathered at once (8 MB), so memory stays
# linear in the ensemble size at any dimension.
GATHER_BYTES = 1 << 23


@dataclass(frozen=True)
class JumpEvent:
    time: float
    channel: int


@dataclass(eq=False)
class LabelledTrajectory:
    """Conditional-state path summary plus the full measurement record."""

    initial_state: np.ndarray
    events: tuple[JumpEvent, ...]
    post_jump_states: tuple[np.ndarray, ...]
    t_final: float
    seed: int

    def counts(self, n_channels: int, up_to: Optional[float] = None) -> np.ndarray:
        """Per-channel jump counts, optionally restricted to ``time <= up_to``."""
        out = np.zeros(n_channels, dtype=int)
        for event in self.events:
            if up_to is not None and event.time > up_to:
                break
            out[event.channel] += 1
        return out


@dataclass(eq=False)
class PartiallyLabelledTrajectory:
    """Same path with events labelled by block index instead of channel."""

    initial_state: np.ndarray
    events: tuple[JumpEvent, ...]
    post_jump_states: tuple[np.ndarray, ...]
    t_final: float
    seed: int

    def counts(self, n_blocks: int, up_to: Optional[float] = None) -> np.ndarray:
        out = np.zeros(n_blocks, dtype=int)
        for event in self.events:
            if up_to is not None and event.time > up_to:
                break
            out[event.channel] += 1
        return out


def _real_form(mat: np.ndarray) -> np.ndarray:
    """Real ``(2d, 2d)`` matrices acting on states stored as interleaved
    ``(re, im)`` pairs, so that ``psi.view(float)`` is the real state."""
    mat = np.asarray(mat, dtype=complex)
    out = np.empty(mat.shape[:-2] + (2 * mat.shape[-2], 2 * mat.shape[-1]))
    out[..., 0::2, 0::2] = mat.real
    out[..., 0::2, 1::2] = -mat.imag
    out[..., 1::2, 0::2] = mat.imag
    out[..., 1::2, 1::2] = mat.real
    return out


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, strictly left to right, elementwise in the
    other axes, so each result depends only on its own terms."""
    out = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        out += terms[..., j]
    return out


class _StepTable:
    """Real forms of ``exp(-i H_eff step / 2**level)`` for one call, each
    computed when a row first needs its level."""

    def __init__(self, h_eff: np.ndarray, step: float):
        self.generator = -1j * h_eff
        self.step = step
        self.widths = step / 2.0 ** np.arange(MAX_LEVELS + 1)
        size = 2 * h_eff.shape[0]
        self.mats = np.empty((MAX_LEVELS + 1, size, size))
        self.built = 0

    def apply(self, level: np.ndarray, top: int, x: np.ndarray) -> np.ndarray:
        """Row ``n`` of the result is the level-``level[n]`` propagator times
        ``x[n]``; ``top`` is the highest level in ``level``."""
        while self.built <= top:
            exact = matrix_exponential(self.generator * (self.step / 2.0**self.built))
            self.mats[self.built] = _real_form(exact)
            self.built += 1
        rows = max(1, GATHER_BYTES // self.mats[0].nbytes)
        return np.concatenate(
            [
                _row_sum(self.mats[level[lo : lo + rows]] * x[lo : lo + rows, None, :])
                for lo in range(0, len(x), rows)
            ]
        )


class _DriftFlow:
    """Fast ``exp(-i H_eff tau) psi`` for arbitrary ``tau``, row by row.

    Uses the eigendecomposition of the generator when it is well conditioned
    and verified against a reference exponential; otherwise falls back to a
    fresh matrix exponential per row.
    """

    def __init__(self, h_eff: np.ndarray):
        self.generator = -1j * np.asarray(h_eff, dtype=complex)
        self._diagonalized = False
        try:
            w, v = np.linalg.eig(self.generator)
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return
        if np.linalg.cond(v) > 1e8:
            return
        scale = max(1.0, float(np.linalg.norm(h_eff, 2)))
        probe = 1.0 / scale
        reference = matrix_exponential(self.generator * probe)
        approx = (v * np.exp(w * probe)) @ v_inv
        if np.linalg.norm(approx - reference) <= 1e-11 * max(1.0, np.linalg.norm(reference)):
            self._w, self._v, self._v_inv = w, v, v_inv
            self._diagonalized = True

    def apply(self, tau: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Row ``n`` of the result is ``exp(-i H_eff tau[n]) psi[n]``."""
        if self._diagonalized:
            modes = np.exp(tau[:, None] * self._w) * (psi @ self._v_inv.T)
            return modes @ self._v.T
        return np.stack(
            [matrix_exponential(self.generator * s) @ row for s, row in zip(tau, psi)]
        )


def _check_contractive(h_eff: np.ndarray, tol: Tolerance) -> None:
    antiherm = (h_eff - dagger(h_eff)) / 2j
    top = float(np.max(np.linalg.eigvalsh(antiherm)))
    if top > tol.cutoff(float(np.linalg.norm(h_eff, 2))):
        raise NumericalError(
            f"invalid effective Hamiltonian: norm-increasing mode with rate {top:.3e}"
        )


def _fire(jumps: np.ndarray, phi: np.ndarray, phi_sq: np.ndarray, draws: np.ndarray,
          times: np.ndarray):
    """Channels and normalized post-jump states of rows ``phi`` (squared
    norms ``phi_sq``) that jump at ``times``, given one channel uniform per
    row.  ``jumps`` stacks the real forms of the K jump operators into one
    ``(2 d K, 2 d)`` matrix."""
    amps = _row_sum(jumps * phi[:, None, :]).reshape(len(phi), -1, phi.shape[1])
    amps_sq = _row_sum(amps * amps)
    rates = amps_sq / phi_sq[:, None]
    rates[rates < RATE_FLOOR] = 0.0
    cumulative = np.cumsum(rates, axis=1)
    total = cumulative[:, -1]
    if np.any(total <= 0.0):
        t_star = float(times[np.argmax(total <= 0.0)])
        raise NumericalError(f"no channel has positive rate at sampled jump time {t_star:.6g}")
    channel = np.count_nonzero(cumulative / total[:, None] <= draws[:, None], axis=1)
    channel = np.minimum(channel, rates.shape[1] - 1)
    rows = np.arange(len(phi))
    return channel, amps[rows, channel] / np.sqrt(amps_sq[rows, channel])[:, None]


def _simulate_rows(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    seeds: Sequence[int],
    tol: Tolerance,
) -> List[LabelledTrajectory]:
    """One labelled trajectory per seed, all advanced together."""
    require_valid(rep, tol)
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    psi0 = normalize(psi0)
    if psi0.size != rep.dim:
        raise ValidationError(f"initial state has length {psi0.size}, expected {rep.dim}")
    psi0.flags.writeable = False
    h_eff = effective_hamiltonian(rep)
    _check_contractive(h_eff, tol)
    h_norm = float(np.linalg.norm(h_eff, 2))
    step = min(t_max, STEP_SCALE / h_norm) if h_norm > 0 else t_max
    table = _StepTable(h_eff, step)
    jumps = np.concatenate(_real_form(np.stack(rep.jumps)))
    horizon = t_max - 1e-12 * max(1.0, t_max)

    n = len(seeds)
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(int(s)))) for s in seeds]
    events: List[List[JumpEvent]] = [[] for _ in range(n)]
    posts: List[List[np.ndarray]] = [[] for _ in range(n)]

    # Live rows.  Each holds a bracket: ``x`` is its left end at time ``t``
    # (squared norm above ``u``), ``right`` (squared norm ``right_sq``) its
    # right end, ``table.widths[level]`` later.  Level 0 is a grid step.
    row = np.arange(n if horizon > 0 else 0)
    t = np.zeros(row.size)
    x = np.tile(psi0.view(float), (row.size, 1))
    u = np.array([rngs[r].random() for r in row])
    level = np.zeros(row.size, dtype=int)
    right = np.zeros_like(x)
    right_sq = np.zeros(row.size)
    while row.size:
        top = int(level.max())
        new = table.apply(level, top, x)
        new_sq = _row_sum(new * new)
        above = new_sq > u
        below = ~above
        np.copyto(x, new, where=above[:, None])
        np.copyto(right, new, where=below[:, None])
        np.copyto(right_sq, new_sq, where=below)
        t += table.widths[level] * above
        found = np.zeros(row.size, dtype=bool)
        if top >= TIME_LEVELS:
            found = (level >= TIME_LEVELS) & (np.abs(right_sq - u) <= NORM_RESIDUAL_TOL)
            hit = np.flatnonzero(found)
            t_star = t[hit] + table.widths[level[hit]]
            t[hit] = t_star  # a crossing after t_max ends its row with no jump
            hit, t_star = hit[t_star <= t_max], t_star[t_star <= t_max]
            if hit.size:
                draws = np.array([rngs[r].random() for r in row[hit]])
                channel, post = _fire(jumps, right[hit], right_sq[hit], draws, t_star)
                x[hit] = post
                for k, (r, state) in enumerate(zip(row[hit], post.view(complex))):
                    events[r].append(JumpEvent(time=float(t_star[k]), channel=int(channel[k])))
                    posts[r].append(state)
                    u[hit[k]] = rngs[r].random()
        level = np.where(found | ((level == 0) & above), 0, level + 1)
        if top >= MAX_LEVELS and level.max() > MAX_LEVELS:
            raise NumericalError("jump-time bisection failed to reach the norm residual tolerance")
        if t.max() >= horizon:
            keep = (t <= t_max) & ((level > 0) | (t < horizon))
            row, t, x, u, level, right, right_sq = (
                a[keep] for a in (row, t, x, u, level, right, right_sq)
            )
    return [
        LabelledTrajectory(
            initial_state=psi0,
            events=tuple(events[i]),
            post_jump_states=tuple(posts[i]),
            t_final=float(t_max),
            seed=int(seeds[i]),
        )
        for i in range(n)
    ]


def simulate(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> LabelledTrajectory:
    """One labelled trajectory, bitwise reproducible from ``seed``."""
    return _simulate_rows(rep, psi0, t_max, [seed], tol)[0]


def trajectory_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit stream key for trajectory ``index``."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return int(seq.generate_state(1, np.uint64)[0])


def simulate_ensemble(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    n_traj: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> List[LabelledTrajectory]:
    """Independent trajectories with per-index derived seeds.

    Trajectory ``i`` is bitwise equal to
    ``simulate(rep, psi0, t_max, trajectory_seed(seed, i), tol)``.
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    seeds = [trajectory_seed(seed, i) for i in range(n_traj)]
    return _simulate_rows(rep, psi0, t_max, seeds, tol)


def states_at(
    ensemble: Sequence[LabelledTrajectory], rep: Representation, times: Sequence[float]
) -> np.ndarray:
    """Conditional states of every trajectory at each of ``times``, with
    shape ``(len(times), len(ensemble), dim)``, replayed by one drift flow.

    At an event time a row holds the recorded post-jump state (the right
    limit); between events it is propagated from the latest event and
    renormalized.
    """
    flow = _DriftFlow(effective_hamiltonian(rep))
    event_times = [[event.time for event in traj.events] for traj in ensemble]
    out = np.empty((len(times), len(ensemble), rep.dim), dtype=complex)
    for k, t in enumerate(times):
        tau = np.empty(len(ensemble))
        for n, (traj, stamps) in enumerate(zip(ensemble, event_times)):
            if t < 0 or t > traj.t_final:
                raise ValidationError(f"time {t} outside [0, {traj.t_final}]")
            idx = bisect_right(stamps, t) - 1
            if idx < 0:
                tau[n], out[k, n] = t, traj.initial_state
            else:
                tau[n], out[k, n] = t - stamps[idx], traj.post_jump_states[idx]
        moving = tau != 0.0
        if moving.any():
            drifted = flow.apply(tau[moving], out[k, moving])
            out[k, moving] = drifted / np.linalg.norm(drifted, axis=1, keepdims=True)
    return out


def state_at(traj, rep: Representation, t: float) -> np.ndarray:
    """Conditional state of one trajectory at time ``t``; see `states_at`."""
    return states_at([traj], rep, [t])[0, 0]


def coarse_grain(traj: LabelledTrajectory, part: SjedPartition) -> PartiallyLabelledTrajectory:
    """Relabel each event by the block containing its channel."""
    n_channels = sum(len(block.indices) for block in part.blocks)
    lookup = part.block_of_channel(n_channels)
    events = []
    for event in traj.events:
        if event.channel >= n_channels:
            raise ValidationError(f"channel {event.channel + 1} not covered by partition")
        events.append(JumpEvent(time=event.time, channel=int(lookup[event.channel])))
    return PartiallyLabelledTrajectory(
        initial_state=traj.initial_state,
        events=tuple(events),
        post_jump_states=traj.post_jump_states,
        t_final=traj.t_final,
        seed=traj.seed,
    )
