"""Piecewise-deterministic simulation of jump-unravelled quantum dynamics.

Between jumps the unnormalized conditional state follows
``phi(t) = exp(-i H_eff (t - t_last)) psi_last`` whose squared norm is the
survival probability.  Each segment draws ``u ~ U(0, 1)`` and fires a jump at
the time where the squared norm crosses ``u``; the channel is then selected
with probability proportional to the instantaneous rates and the state resets
to the normalized image under the chosen jump operator.

Implementation notes:

* One engine advances every trajectory of a call together, as the rows of an
  ``(N, dim)`` array; `simulate` is the engine with one row.  The search for
  each crossing has two stages: a dyadic descent brackets it to one
  ``step = 0.01 / |H_eff|``, and a solve finds it inside that bracket.
* Descent.  A table holds the exponentials ``exp(-i H_eff w_k)`` at the
  dyadic widths ``w_k = step * 2**(top - k)``, ``k = 0 .. top``, so level 0
  covers ``t_max`` and level ``top`` is ``step``.  Level ``top`` is summed
  from the Taylor series of the solve, and each wider level squares the
  next.  The squared norm never increases (`_check_contractive`), so the
  times where it stays above ``u`` form one interval, and a greedy descent
  finds its end without a grid.  A segment starts at the narrowest level
  whose width still reaches ``t_max``.  The engine works in rounds that start
  every live row on a segment: pass ``k`` applies level ``k``, in one
  product, to every row whose segment starts at level ``k`` or a wider one,
  and each row keeps the step if its squared norm stays above ``u``.  A kept
  step that reaches ``t_max`` ends the row with no further jump.  After level
  ``top`` every row holds a bracket ``(t, t + step]``.
* Solve.  Within one step, ``|H_eff| tau <= 0.01``, the squared norm is the
  degree-8 polynomial ``sum_m tau^m x^T M_m x`` of the state ``x`` at the
  bracket's left end, up to about 1e-21.  At the end of each round the
  bracketed rows are solved together by a safeguarded Newton iteration on that
  polynomial, to ``2**-34`` of ``step``, and the state at the crossing is
  rebuilt from its Taylor series; its squared norm must meet ``u`` to 1e-9.
  A crossing after ``t_max`` means there is no jump before ``t_max``, and
  the row ends there.  A segment therefore costs at most
  ``1 + log2(t_max / step)`` passes plus its share of one solve, whatever
  ``|H_eff| * t_max`` is.
* Replay.  `states_at` shares the table, so simulation and replay have one
  no-jump propagator: the levels above ``step`` cover all but a remainder
  below ``2 step``, and the solve's Taylor series covers that remainder.
* Rows never mix: every product and sum runs per row, over a real form of
  the state and operators, in a fixed order.  A row's bits therefore do not
  depend on how many rows share the call, and ensembles equal their
  trajectories simulated one at a time.
* Randomness.  Trajectory seed ``s`` draws the uniforms of numpy's
  ``Generator(Philox(SeedSequence(s))).random()``, bit for bit, in a fixed
  order: one for the first jump time, then for each fired jump one for its
  channel and one for the next jump time.  `uqd.streams` computes these
  streams for all rows in one vectorised pass (keys from the seed hash,
  Philox blocks by counter), so a trajectory replays exactly from its
  recorded seed with numpy's own generator.  Ensemble trajectory ``i`` has
  seed ``SeedSequence(master, spawn_key=(i,)).generate_state(1,
  np.uint64)[0]`` (`trajectory_seed`), hashed for every index at once.

Everything a call builds belongs to that call: there are no module-level
caches and no process pool.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DEFAULT_TOL, Tolerance, dagger, normalize
from .representation import Representation, effective_hamiltonian, require_valid
from .sjed import SjedPartition
from .streams import Streams, spawned_seeds

STEP_SCALE = 0.01
TIME_LEVELS = 34  # the solve resolves step * 2**-34 ~ 1e-10 relative time
# |H_eff| * step <= STEP_SCALE, so the degree-8 Taylor polynomial of the
# squared norm over one step errs by at most 0.02**9 / 9! ~ 1e-21
TAYLOR_ORDER = 8
# Bisection alone resolves a step in TIME_LEVELS iterations of the solve
SOLVE_ITERATIONS = 2 * TIME_LEVELS
NORM_RESIDUAL_TOL = 1e-9
RATE_FLOOR = 1e-14


@dataclass(frozen=True)
class JumpEvent:
    time: float
    channel: int


@dataclass(eq=False)
class LabelledTrajectory:
    """Conditional-state path summary plus the full measurement record.

    Each event's ``channel`` is a jump index, or a block index once
    `coarse_grain` has relabelled the record."""

    initial_state: np.ndarray
    events: tuple[JumpEvent, ...]
    post_jump_states: tuple[np.ndarray, ...]
    t_final: float
    seed: int

    def counts(self, n_channels: int) -> np.ndarray:
        """Per-channel jump counts."""
        out = np.zeros(n_channels, dtype=int)
        for event in self.events:
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


def _columns(mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``out[..., n] = mats[...] @ cols[:, n]`` for matrices shared by every
    column, with the same products and left-to-right sums as `_row_sum`, so
    each column of the result depends only on its own column of ``cols``.
    The temporaries are no larger than the result."""
    out = mats[..., 0, None] * cols[0]
    for k in range(1, len(cols)):
        out += mats[..., k, None] * cols[k]
    return out


class _StepTable:
    """No-jump propagation for one call, in the real form: exponentials for
    the descent down to ``step``, and Taylor terms for the solve within it.

    The step is ``min(t_max, STEP_SCALE / |H_eff|_2)``, or ``t_max`` when
    ``H_eff`` vanishes.  The exponentials ``exp(-i H_eff w_k)`` sit at the
    dyadic widths ``w_k = step * 2**(top - k)``, ``k = 0 .. top``, with
    ``top = ceil(log2(t_max / step))``: level 0 covers ``t_max`` and level
    ``top`` is ``step``.  Every width is ``step`` times a power of two, so
    the widths are exact.  Level ``top`` is ``1 + y``, with ``y`` the Taylor
    series of ``exp(A step) - 1`` from the terms below, and each wider level
    squares the next by ``y <- 2 y + y y`` (scaling and squaring; squaring
    ``y`` rather than ``1 + y`` keeps its low digits).

    With ``A`` the real form of ``-i H_eff``, ``taylor[i] = A^i / i!`` and
    the moment matrices ``moments[m] = sum_{i+j=m} taylor[i]^T taylor[j]``,
    so that the no-jump state from ``x`` after ``tau <= step`` is
    ``sum_i tau^i taylor[i] x`` and its squared norm is
    ``sum_m tau^m x^T moments[m] x``, both to degree ``TAYLOR_ORDER``."""

    def __init__(self, h_eff: np.ndarray, t_max: float):
        h_norm = float(np.linalg.norm(h_eff, 2))
        step = min(t_max, STEP_SCALE / h_norm) if h_norm > 0 else t_max
        top = max(0, int(np.ceil(np.log2(t_max / step))))
        while step * 2.0**top < t_max:
            top += 1
        self.top = top
        self.step = step
        self.widths = step * 2.0 ** (top - np.arange(top + 1))
        size = 2 * h_eff.shape[0]
        real = _real_form(-1j * h_eff)
        powers = [np.eye(size)]
        for i in range(1, TAYLOR_ORDER + 1):
            powers.append(powers[-1] @ real / i)
        self.taylor = np.stack(powers)
        self.moments = np.stack(
            [
                sum(powers[i].T @ powers[m - i] for i in range(m + 1))
                for m in range(TAYLOR_ORDER + 1)
            ]
        )
        y = np.zeros((top + 1, size, size))  # y[k] = exp(A w_k) - 1
        for term in self.taylor[:0:-1]:  # Horner's rule
            y[top] = (y[top] + term) * step
        for k in range(top, 0, -1):
            y[k - 1] = 2.0 * y[k] + y[k] @ y[k]
        self.mats = y + np.eye(size)

    def _taylor(self, cols: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Rows ``sum_i tau[n]^i taylor[i] cols[:, n]``: the no-jump states
        after ``tau[n]`` from the columns of ``cols``, by Horner's rule."""
        terms = _columns(self.taylor, cols)
        phi = terms[TAYLOR_ORDER]
        for i in range(TAYLOR_ORDER - 1, -1, -1):
            phi = phi * tau + terms[i]
        return phi.T

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """The level-``k`` propagator applied to each row of ``x``, with the
        products and left-to-right sums of `_columns`, so each row of the
        result depends only on its own row of ``x``."""
        return _columns(self.mats[k], x.T).T

    def solve(self, x: np.ndarray, u: np.ndarray):
        """Offsets ``tau`` in ``[0, step]`` where the squared norm of the
        no-jump state from row ``x[n]`` falls to ``u[n]``, the states there
        and their squared norms.

        Each row must hold a bracket: squared norm above ``u[n]`` at 0 and
        at most ``u[n]`` at ``step``.  A safeguarded Newton iteration runs
        on each row's polynomial; a Newton step that leaves the row's
        bracket falls back to bisection, and a row is frozen once its move
        is at most ``step * 2**-TIME_LEVELS``.  The rows are worked on as
        the columns of ``x.T``."""
        cols = x.T
        coeffs = _row_sum((_columns(self.moments, cols) * cols).swapaxes(-1, -2))
        lo = np.zeros(len(x))
        hi = np.full(len(x), self.step)
        tau = np.zeros(len(x))
        resolution = self.step * 2.0**-TIME_LEVELS
        live = np.arange(len(x))
        for _ in range(SOLVE_ITERATIONS):
            at, c = tau[live], coeffs[:, live]
            value, slope = c[TAYLOR_ORDER], np.zeros(len(live))
            for m in range(TAYLOR_ORDER - 1, -1, -1):
                slope = slope * at + value
                value = value * at + c[m]
            value -= u[live]
            above = value > 0.0
            left = np.where(above, at, lo[live])
            right = np.where(above, hi[live], at)
            with np.errstate(divide="ignore", invalid="ignore"):
                guess = at - value / slope
            # closed test: an exact root is its own Newton step
            guess = np.where((left <= guess) & (guess <= right), guess, (left + right) / 2)
            lo[live], hi[live], tau[live] = left, right, guess
            live = live[np.abs(guess - at) > resolution]
            if not live.size:
                break
        else:
            raise NumericalError("jump-time solve did not converge")
        phi = self._taylor(cols, tau)
        phi_sq = _row_sum(phi * phi)
        if np.any(np.abs(phi_sq - u) > NORM_RESIDUAL_TOL):
            raise NumericalError("jump-time solve failed to reach the norm residual tolerance")
        return tau, phi, phi_sq

    def advance(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Row ``n`` of the result is the no-jump state ``x[n]`` after
        ``tau[n]`` in ``[0, t_max]``: each level ``k < top`` takes, in one
        product, the rows with at least ``w_k`` left (an exact subtraction),
        and the Taylor series covers the rest: below ``2 step``, it errs by
        at most ``0.02**9 / 9! ~ 1e-21``."""
        x = x.copy()
        rest = np.array(tau, dtype=float)
        for k in range(self.top):
            rows = np.flatnonzero(rest >= self.widths[k])
            if rows.size:
                x[rows] = x[rows] @ self.mats[k].T
                rest[rows] -= self.widths[k]
        return self._taylor(x.T, rest)


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
    amps = _columns(jumps, phi.T).T.reshape(len(phi), -1, phi.shape[1])
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


def _require_state_length(psi: np.ndarray, rep: Representation) -> None:
    if psi.size != rep.dim:
        raise ValidationError(f"initial state has length {psi.size}, expected {rep.dim}")


def check_horizon(t_max: float) -> None:
    if not 0 < t_max < np.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")


def _simulate_rows(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    seeds: Sequence[int],
    tol: Tolerance,
) -> List[LabelledTrajectory]:
    """One labelled trajectory per seed, all advanced together."""
    require_valid(rep, tol)
    check_horizon(t_max)
    psi0 = normalize(psi0)
    _require_state_length(psi0, rep)
    psi0.flags.writeable = False
    streams = Streams(seeds)
    h_eff = effective_hamiltonian(rep)
    _check_contractive(h_eff, tol)
    table = _StepTable(h_eff, t_max)
    widths = table.widths
    jumps = np.concatenate(_real_form(np.stack(rep.jumps)))

    def start_level(t: np.ndarray) -> np.ndarray:
        # the narrowest level whose step from ``t`` reaches ``t_max``, in the
        # same float sum as the step itself, so a kept step ends the row
        return np.count_nonzero(t[:, None] + widths >= t_max, axis=1) - 1

    n = len(seeds)
    events: List[List[JumpEvent]] = [[] for _ in range(n)]
    posts: List[List[np.ndarray]] = [[] for _ in range(n)]

    # Live rows: ``x`` is the state at time ``t``, with squared norm above
    # ``u``.  Each round starts every row on a segment at level ``start``,
    # applies each level to the rows with ``start <= level``, so that after
    # level ``top`` every row holds the bracket ``(t, t + step]``, and ends
    # with the solve.  A row leaves once ``t`` reaches ``t_max``.
    row = np.arange(n)
    t = np.zeros(n)
    x = np.tile(psi0.view(float), (n, 1))
    u = streams.take(row)[:, 0]

    def drop_finished(*arrays):
        keep = t < t_max
        return arrays if keep.all() else tuple(a[keep] for a in arrays)

    while row.size:
        start = start_level(t)
        for level in range(start.min(), table.top + 1):
            down = np.flatnonzero(start <= level)
            if not down.size:
                continue
            new = table.apply(level, x[down])
            above = _row_sum(new * new) > u[down]
            x[down[above]] = new[above]
            t[down[above]] += widths[level]
            row, t, x, u, start = drop_finished(row, t, x, u, start)
        tau, phi, phi_sq = table.solve(x, u)
        t += tau  # a crossing after t_max ends its row with no jump
        hit = np.flatnonzero(t <= t_max)
        if hit.size:
            draws = streams.take(row[hit], 2)  # the channel's, then the next u
            channel, post = _fire(jumps, phi[hit], phi_sq[hit], draws[:, 0], t[hit])
            x[hit] = post
            for r, when, k, state in zip(
                row[hit].tolist(), t[hit].tolist(), channel.tolist(), post.view(complex)
            ):
                events[r].append(JumpEvent(time=when, channel=k))
                posts[r].append(state)
            u[hit] = draws[:, 1]
        row, t, x, u = drop_finished(row, t, x, u)
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
    """One labelled trajectory, bitwise reproducible from the non-negative
    integer ``seed``: it draws the uniforms of
    ``np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))``."""
    return _simulate_rows(rep, psi0, t_max, [int(seed)], tol)[0]


def trajectory_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit seed of trajectory ``index`` of an ensemble:
    ``SeedSequence(master_seed, spawn_key=(index,)).generate_state(1,
    np.uint64)[0]``, the value numpy gives, for non-negative integers."""
    return int(spawned_seeds(int(master_seed), [int(index)])[0])


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
    ``simulate(rep, psi0, t_max, trajectory_seed(seed, i), tol)``: the
    ``n_traj`` seeds are hashed in one pass, as numpy's ``SeedSequence``
    spawned from the non-negative master ``seed`` would give them, and so
    are their Philox keys.
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    seeds = spawned_seeds(int(seed), np.arange(n_traj)).tolist()
    return _simulate_rows(rep, psi0, t_max, seeds, tol)


def states_at(
    ensemble: Sequence[LabelledTrajectory], rep: Representation, times: Sequence[float]
) -> np.ndarray:
    """Conditional states of every trajectory at each of ``times``, with
    shape ``(len(times), len(ensemble), dim)``, replayed through one step
    table for the ensemble's longest horizon.

    At an event time a row holds the recorded post-jump state (the right
    limit); between events it is propagated from the latest event and
    renormalized.
    """
    for traj in ensemble:
        _require_state_length(traj.initial_state, rep)
    event_times = [[event.time for event in traj.events] for traj in ensemble]
    out = np.empty((len(times), len(ensemble), rep.dim), dtype=complex)
    tau = np.empty((len(times), len(ensemble)))
    for k, t in enumerate(times):
        for n, (traj, stamps) in enumerate(zip(ensemble, event_times)):
            if not 0 <= t <= traj.t_final:
                raise ValidationError(f"time {t} outside [0, {traj.t_final}]")
            idx = bisect_right(stamps, t) - 1
            if idx < 0:
                tau[k, n], out[k, n] = t, traj.initial_state
            else:
                tau[k, n], out[k, n] = t - stamps[idx], traj.post_jump_states[idx]
    moving = tau != 0.0
    if moving.any():
        table = _StepTable(effective_hamiltonian(rep), max(traj.t_final for traj in ensemble))
        drifted = table.advance(out[moving].view(float), tau[moving])
        out.view(float)[moving] = drifted / np.linalg.norm(drifted, axis=1, keepdims=True)
    return out


def state_at(traj, rep: Representation, t: float) -> np.ndarray:
    """Conditional state of one trajectory at time ``t``; see `states_at`."""
    return states_at([traj], rep, [t])[0, 0]


def coarse_grain(traj: LabelledTrajectory, part: SjedPartition) -> LabelledTrajectory:
    """Relabel each event by the block containing its channel."""
    n_channels = sum(len(block.indices) for block in part.blocks)
    lookup = part.block_of_channel(n_channels)
    events = []
    for event in traj.events:
        if event.channel >= n_channels:
            raise ValidationError(f"channel {event.channel + 1} not covered by partition")
        events.append(JumpEvent(time=event.time, channel=int(lookup[event.channel])))
    return LabelledTrajectory(
        initial_state=traj.initial_state,
        events=tuple(events),
        post_jump_states=traj.post_jump_states,
        t_final=traj.t_final,
        seed=traj.seed,
    )
