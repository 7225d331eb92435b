"""Piecewise-deterministic simulation of jump-unravelled quantum dynamics.

Between jumps the unnormalized conditional state follows
``phi(t) = exp(-i H_eff (t - t_last)) psi_last`` whose squared norm is the
survival probability.  Each segment draws ``u ~ U(0, 1)`` and fires a jump at
the time where the squared norm crosses ``u``; the channel is then selected
with probability proportional to the instantaneous rates and the state resets
to the normalized image under the chosen jump operator.

Implementation notes:

* One engine advances every trajectory of a call together, as the rows of an
  ``(N, dim)`` array.  The rows may belong to several representations, the
  *sides* of the call, which share the initial state and the horizon:
  `simulate` is one side with one row, `simulate_ensemble` one side, and
  `simulate_ensembles` several, as ``uqd compare-ensembles`` simulates its
  two sides in one pass.  The search for each crossing has two stages: a
  dyadic descent brackets it to one ``step = 0.01 / |H_eff|``, and a solve
  finds it inside that bracket.
* Sides.  Each side keeps its own step table, its own stack of jump
  operators, the row-independence probes of both, and its own products: one
  per level in the descent, in the solve and for the jump images, each on
  the side's rows.  The live rows stay in row order, so a side's rows are
  one slice of them.  Everything else runs once over the rows of all sides:
  the rounds, the keep and update of the descent, the Newton iteration of
  the solve (each row with its own side's ``step``), one `Streams` over
  every side's seeds, and the final sort.  Sides with different ``top``
  are aligned at their finest level, so every side reaches its own
  ``step`` at the pass's last level.  Each row therefore has the bits it
  has when its side is simulated alone.  Every side is checked before the
  pass, in order; an error raised in the pass names its side.
* Descent.  A table holds the exponentials ``exp(-i H_eff w_k)`` at the
  dyadic widths ``w_k = step * 2**(top - k)``, ``k = 0 .. top``, so level 0
  covers ``t_max`` and level ``top`` is ``step``.  Level ``top`` is summed
  from the Taylor series of the solve, and each wider level squares the
  next (`uqd.linalg.exp_ladder`).  The squared norm never increases
  (`_check_contractive`), so the times where it stays above ``u`` form one
  interval, and a greedy descent finds its end without a grid.  A segment
  starts at the narrowest level whose width still reaches ``t_max``.  The
  engine works in rounds that start every live row on a segment: pass ``k``
  applies level ``k`` to every live row in one product, and a row whose
  segment starts at level ``k`` or a wider one keeps the step if its squared
  norm stays above ``u``.  A kept step that reaches ``t_max`` ends the row
  with no further jump: it takes no later level and leaves at the end of the
  round.  After level ``top`` every other row holds a bracket
  ``(t, t + step]``.
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
* Replay.  `states_at` builds the same table for the ensemble's horizon and
  advances through its product `_StepTable.apply`, so simulation and replay
  have one no-jump propagator: the levels above ``step`` cover all but a
  remainder below ``2 step``, and the solve's Taylor series covers that
  remainder.  One count over the ensemble's event times finds every row's
  latest event at a sample time.
* Rows never mix.  States and operators are held in a real form, and every
  product of rows with an operator (the descent's and replay's levels, the
  solve's moment and Taylor terms, the jump images) goes through one kernel,
  `_product`: numpy's ``@`` on the rows zero-padded to chunks of
  ``CHUNK_ROWS``, ``(chunks, CHUNK_ROWS, 2d) @ M.T``, so every BLAS call has
  one shape whatever the number of rows.  That each row's bits then do not
  depend on its place is a property of the BLAS library, not of IEEE
  arithmetic, so every simulation or replay call first probes it on its own
  operators (`_rows_independent`): a row must give the same bits among
  random rows, at another place in another chunk, and alone.  Where the
  probe fails, the call uses `_columns` instead, a fixed-order loop of
  elementwise multiply-adds.  Sums over a row run left to right
  (`_row_sum`).  A row's bits therefore do not depend on which rows share
  the call, and ensembles equal their trajectories simulated, or replayed,
  one at a time.  One stable sort by row lays the rounds' fired events out
  row by row in one `TrajectoryEnsemble`.
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

import operator
from dataclasses import dataclass, replace
from itertools import accumulate, pairwise
from string import ascii_lowercase
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DEFAULT_TOL, STEP_SCALE, TAYLOR_ORDER, Tolerance, dagger, exp_ladder, normalize
from .representation import Representation, effective_hamiltonian, require_valid
from .sjed import SjedPartition
from .streams import Streams, naturals, spawned_seeds

TIME_LEVELS = 34  # the solve resolves step * 2**-34 ~ 1e-10 relative time
# Bisection alone resolves a step in TIME_LEVELS iterations of the solve
SOLVE_ITERATIONS = 2 * TIME_LEVELS
NORM_RESIDUAL_TOL = 1e-9
RATE_FLOOR = 1e-14
CHUNK_ROWS = 64  # rows per BLAS product of `_chunked`


@dataclass(eq=False)
class TrajectoryEnsemble:
    """Labelled trajectories from one ``initial_state`` up to ``t_final``, as
    arrays over every event: jump ``times``, ``channels`` (jump indices, or
    blocks after `coarse_grain`) and ``post_jump_states`` ``(events, dim)``.
    Row ``i``, of exact seed ``seeds[i]``, holds events ``offsets[i]`` up to
    ``offsets[i + 1]`` in time order.  ``ens[i]``, like each item of an
    iteration, is one row as a one-row ensemble."""

    initial_state: np.ndarray
    t_final: float
    seeds: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    channels: np.ndarray
    post_jump_states: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, i: int) -> TrajectoryEnsemble:
        i = range(len(self))[operator.index(i)]  # IndexError ends iteration
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return replace(self, seeds=self.seeds[i : i + 1], offsets=self.offsets[i : i + 2] - lo,
                       times=self.times[lo:hi], channels=self.channels[lo:hi],
                       post_jump_states=self.post_jump_states[lo:hi])

    def owners(self) -> np.ndarray:
        """The row of each event."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))


def check_channels(channels: np.ndarray, n_channels: int) -> None:
    """Name the first recorded channel outside ``0 .. n_channels - 1``."""
    outside = channels[(channels < 0) | (channels >= n_channels)]
    if outside.size:
        raise ValidationError(f"channel {outside[0] + 1} not covered by partition")


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
    each column of the result depends only on its own column of ``cols``,
    whatever the BLAS library.  The temporaries are no larger than the
    result.  `_product` falls back to it where its probe fails."""
    out = mats[..., 0, None] * cols[0]
    for k in range(1, len(cols)):
        out += mats[..., k, None] * cols[k]
    return out


def _chunked(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[..., n, :] = mats[...] @ x[n]`` through BLAS: the rows of ``x``
    are zero-padded to chunks of ``CHUNK_ROWS``, and each chunk is one
    ``(CHUNK_ROWS, 2d) @ mats[...].T`` product, of the same shape whatever
    the number of rows."""
    n, size = x.shape
    padded = np.zeros((-(-n // CHUNK_ROWS), CHUNK_ROWS, size))
    padded.reshape(-1, size)[:n] = x
    out = padded @ mats.swapaxes(-1, -2)[..., None, :, :]
    return out.reshape(*out.shape[:-3], -1, out.shape[-1])[..., :n, :]


def _rows_independent(mats: np.ndarray) -> bool:
    """Whether `_chunked` gives every product of ``mats`` the same bits for a
    row wherever the row sits: among pseudo-random rows (``sin`` of the
    integers), one place on in the next chunk, and alone in a call of its
    own.  OpenBLAS 0.3.31 met it for every operator tried, but it is a
    property of the library, not of IEEE arithmetic, so each call tests it
    on its own operators."""
    rows = np.empty((2 * CHUNK_ROWS, mats.shape[-1]))
    rows[:CHUNK_ROWS] = np.sin(np.arange(1.0, rows[:CHUNK_ROWS].size + 1)).reshape(CHUNK_ROWS, -1)
    rows[CHUNK_ROWS + 1 :] = rows[: CHUNK_ROWS - 1]
    rows[CHUNK_ROWS] = rows[CHUNK_ROWS - 1]
    out = _chunked(mats, rows)
    last = out[..., CHUNK_ROWS - 1 : CHUNK_ROWS, :]
    return bool((out[..., CHUNK_ROWS + 1 :, :] == out[..., : CHUNK_ROWS - 1, :]).all()
                and (out[..., CHUNK_ROWS : CHUNK_ROWS + 1, :] == last).all()
                and (_chunked(mats, rows[CHUNK_ROWS : CHUNK_ROWS + 1]) == last).all())


def _product(mats: np.ndarray, x: np.ndarray, blas: bool) -> np.ndarray:
    """``out[..., n, :] = mats[...] @ x[n]`` for every row ``n`` of ``x``,
    each row's bits independent of the other rows: through `_chunked` where
    ``blas``, the result of `_rows_independent` on ``mats`` (or on a stack
    holding them), else through `_columns`."""
    return _chunked(mats, x) if blas else np.moveaxis(_columns(mats, x.T), -1, -2)


class _StepTable:
    """No-jump propagation for one call, in the real form: exponentials for
    the descent down to ``step``, and Taylor terms for the solve within it.

    The step is ``min(t_max, STEP_SCALE / |H_eff|_2)``, or ``t_max`` when
    ``H_eff`` vanishes.  The exponentials ``exp(-i H_eff w_k)`` sit at the
    dyadic widths ``w_k = step * 2**(top - k)``, ``k = 0 .. top``, with
    ``top = ceil(log2(t_max / step))``: level 0 covers ``t_max`` and level
    ``top`` is ``step``.  Every width is ``step`` times a power of two, so
    the widths are exact.  The levels are ``1 + y`` from
    `uqd.linalg.exp_ladder` on ``A``, the real form of ``-i H_eff``.

    With its terms ``taylor[i] = A^i / i!`` and the moment matrices
    ``moments[m] = sum_{i+j=m} taylor[i]^T taylor[j]``, so that the no-jump state from ``x`` after ``tau <= step`` is
    ``sum_i tau^i taylor[i] x`` and its squared norm is
    ``sum_m tau^m x^T moments[m] x``, both to degree ``TAYLOR_ORDER``."""

    def __init__(self, h_eff: np.ndarray, t_max: float):
        h_norm = float(np.linalg.norm(h_eff, 2))
        step = min(t_max, STEP_SCALE / h_norm) if h_norm > 0 else t_max
        if t_max / step >= 2.0**1023:  # the widths 2**top * step would overflow
            raise ValidationError(f"t_max must be below 2**1023 steps of {step:.6g}, got {t_max}")
        top = max(0, int(np.ceil(np.log2(t_max / step))))
        while step * 2.0**top < t_max:
            top += 1
        self.top = top
        self.step = step
        self.widths = step * 2.0 ** (top - np.arange(top + 1))
        self.taylor, levels = exp_ladder(_real_form(-1j * h_eff), step, top)
        self.moments = np.stack(
            [
                sum(self.taylor[i].T @ self.taylor[m - i] for i in range(m + 1))
                for m in range(TAYLOR_ORDER + 1)
            ]
        )
        self.mats = np.stack(list(levels))[::-1] + np.eye(len(self.taylor[0]))
        self.blas = _rows_independent(np.concatenate([self.mats, self.taylor, self.moments]))

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """The level-``k`` propagator applied to each row of ``x`` by
        `_product`: BLAS on fixed-shape chunks where the table's probe found
        every row's bits independent of its place, else `_columns`.  Either
        way each row of the result depends only on its own row of ``x``."""
        return _product(self.mats[k], x, self.blas)

    def taylor_terms(self, x: np.ndarray) -> np.ndarray:
        """``(TAYLOR_ORDER + 1, N, 2d)`` rows ``taylor[i] x[n]``."""
        return _product(self.taylor, x, self.blas)

    def advance(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Row ``n`` of the result is the no-jump state ``x[n]`` after
        ``tau[n]`` in ``[0, t_max]``: each level ``k < top`` takes, through
        `apply`, the rows with at least ``w_k`` left (an exact subtraction),
        and the Taylor series covers the rest: below ``2 step``, it errs by
        at most ``0.02**9 / 9! ~ 1e-21``."""
        x = x.copy()
        rest = np.array(tau, dtype=float)
        for k in range(self.top):
            rows = np.flatnonzero(rest >= self.widths[k])
            if rows.size:
                x[rows] = self.apply(k, x[rows])
                rest[rows] -= self.widths[k]
        return _horner(self.taylor_terms(x), rest)


def _horner(terms: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows ``sum_i tau[n]^i terms[i, n]``, by Horner's rule: from
    `_StepTable.taylor_terms`, the no-jump states after ``tau[n]``."""
    phi = terms[TAYLOR_ORDER]
    for i in range(TAYLOR_ORDER - 1, -1, -1):
        phi = phi * tau[:, None] + terms[i]
    return phi


def _check_contractive(h_eff: np.ndarray, tol: Tolerance) -> None:
    antiherm = (h_eff - dagger(h_eff)) / 2j
    top = float(np.max(np.linalg.eigvalsh(antiherm)))
    if top > tol.cutoff(float(np.linalg.norm(h_eff, 2))):
        raise NumericalError(
            f"invalid effective Hamiltonian: norm-increasing mode with rate {top:.3e}"
        )


@dataclass(eq=False)
class _Side:
    """One representation's share of a pass: its step table; its K jump
    operators, stacked in the real form into one ``(2 d K, 2 d)`` matrix,
    and their probe; the pass level of its table's level 0, so that every
    side reaches its own ``step`` at the pass's last level; and the prefix
    of the errors its rows raise during the pass."""

    table: _StepTable
    jumps: np.ndarray
    jumps_blas: bool
    shift: int
    name: str


def _joined(parts: list, axis: int = 0) -> np.ndarray:
    """The sides' parts of one array, in side order, along ``axis``."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis)


def _fire(sides: Sequence[_Side], cuts: Sequence[slice], phi: np.ndarray, phi_sq: np.ndarray,
          draws: np.ndarray, times: np.ndarray):
    """Channels and normalized post-jump states of rows ``phi`` (squared
    norms ``phi_sq``) that jump at ``times``, given one channel uniform per
    row: the rows ``cuts[s]`` jump under ``sides[s]``."""
    if len(sides) > 1:
        parts = [_fire([side], [slice(None)], phi[cut], phi_sq[cut], draws[cut], times[cut])
                 for side, cut in zip(sides, cuts) if cut.stop > cut.start]
        return tuple(np.concatenate(field) for field in zip(*parts))
    side = sides[0]
    amps = _product(side.jumps, phi, side.jumps_blas).reshape(len(phi), -1, phi.shape[1])
    amps_sq = _row_sum(amps * amps)
    rates = amps_sq / phi_sq[:, None]
    rates[rates < RATE_FLOOR] = 0.0
    cumulative = np.cumsum(rates, axis=1)
    total = cumulative[:, -1]
    if np.any(total <= 0.0):
        t_star = float(times[np.argmax(total <= 0.0)])
        raise NumericalError(f"{side.name}no channel has positive rate at sampled jump time {t_star:.6g}")
    channel = np.count_nonzero(cumulative / total[:, None] <= draws[:, None], axis=1)
    channel = np.minimum(channel, rates.shape[1] - 1)
    rows = np.arange(len(phi))
    return channel, amps[rows, channel] / np.sqrt(amps_sq[rows, channel])[:, None]


def _slices(values: np.ndarray, edges: Sequence[int]) -> Sequence[slice]:
    """For each side ``s``, the slice of the sorted ``values`` that lies in
    ``[edges[s], edges[s + 1])``; ``edges`` spans every value, so one side
    takes them all."""
    if len(edges) == 2:
        return (slice(None),)
    cuts = np.searchsorted(values, edges[1:-1]).tolist()
    return [slice(lo, hi) for lo, hi in pairwise([0, *cuts, len(values)])]


def _name_at(sides: Sequence[_Side], cuts: Sequence[slice], position: int) -> str:
    """The name of the side whose cut holds row ``position``."""
    return next(side.name for side, cut in zip(sides, cuts) if cut.stop is None or position < cut.stop)


def _solve(sides: Sequence[_Side], cuts: Sequence[slice], x: np.ndarray, u: np.ndarray):
    """Offsets ``tau`` in ``[0, step]`` where the squared norm of the
    no-jump state from row ``x[n]`` falls to ``u[n]``, the states there and
    their squared norms: the rows ``cuts[s]`` of ``x`` under the table of
    ``sides[s]``, whose errors start with its name.

    Each row must hold a bracket: squared norm above ``u[n]`` at 0 and at
    most ``u[n]`` at its table's ``step``.  A safeguarded Newton iteration
    runs on each row's polynomial; a Newton step that leaves the row's
    bracket falls back to bisection, and a row is frozen once its move is
    at most ``step * 2**-TIME_LEVELS``.  The moment and Taylor products are
    each table's, on its own rows; the rest works on all rows together."""
    tables = [side.table for side in sides]
    terms = _joined([_product(table.moments, x[cut], table.blas) for table, cut in zip(tables, cuts)], -2)
    coeffs = _row_sum(terms * x)
    # one step for every row, or each row's own
    uniform = len({table.step for table in tables}) == 1
    step = tables[0].step if uniform else np.concatenate(
        [np.full(cut.stop - cut.start, table.step) for table, cut in zip(tables, cuts)])
    lo = np.zeros(len(x))
    hi = np.full(len(x), step)
    tau = np.zeros(len(x))
    resolution = step * 2.0**-TIME_LEVELS
    live = np.arange(len(x))
    # a zero slope makes an infinite or NaN Newton step, which the bracket
    # test below replaces by bisection
    with np.errstate(divide="ignore", invalid="ignore"):
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
            guess = at - value / slope
            # closed test: an exact root is its own Newton step
            guess = np.where((left <= guess) & (guess <= right), guess, (left + right) / 2)
            lo[live], hi[live], tau[live] = left, right, guess
            live = live[np.abs(guess - at) > (resolution if uniform else resolution[live])]
            if not live.size:
                break
        else:
            raise NumericalError(_name_at(sides, cuts, live[0]) + "jump-time solve did not converge")
    phi = _horner(_joined([table.taylor_terms(x[cut]) for table, cut in zip(tables, cuts)], -2), tau)
    phi_sq = _row_sum(phi * phi)
    missed = np.abs(phi_sq - u) > NORM_RESIDUAL_TOL
    if missed.any():
        raise NumericalError(_name_at(sides, cuts, np.argmax(missed))
                             + "jump-time solve failed to reach the norm residual tolerance")
    return tau, phi, phi_sq


def _require_state_length(psi: np.ndarray, rep: Representation) -> None:
    if psi.size != rep.dim:
        raise ValidationError(f"initial state has length {psi.size}, expected {rep.dim}")


def check_horizon(t_max: float) -> None:
    if not 0 < t_max < np.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")


def _simulate_rows(
    reps: Sequence[Representation],
    psi0: np.ndarray,
    t_max: float,
    seeds: Sequence[np.ndarray],
    tol: Tolerance,
) -> list[TrajectoryEnsemble]:
    """For each side ``s``, one labelled trajectory under ``reps[s]`` per
    seed of ``seeds[s]``; all rows of all sides advance together.  Every
    check of a side runs before the next side's, and all before the pass."""
    tables, jumps = [], []
    for rep in reps:
        require_valid(rep, tol)
        check_horizon(t_max)
        state = normalize(psi0)
        _require_state_length(state, rep)
        h_eff = effective_hamiltonian(rep)
        _check_contractive(h_eff, tol)
        tables.append(_StepTable(h_eff, t_max))
        jumps.append(np.concatenate(_real_form(np.stack(rep.jumps))))
    state.flags.writeable = False
    top = max(table.top for table in tables)
    names = [""] if len(reps) == 1 else [
        f"side {ascii_lowercase[i] if i < len(ascii_lowercase) else i + 1}: " for i in range(len(reps))
    ]
    sides = [_Side(table, stack, _rows_independent(stack), top - table.top, name)
             for table, stack, name in zip(tables, jumps, names)]
    # each side's widths at the pass's levels, (top + 1, sides); the levels
    # above a side's level 0 never take its rows, and reach any t_max
    widths = np.full((top + 1, len(sides)), np.inf)
    for s, side in enumerate(sides):
        widths[side.shift :, s] = side.table.widths
    # side s holds rows starts[s] up to starts[s + 1], and the live rows stay
    # in row order, so each side is one slice of them
    starts = list(accumulate([len(side_seeds) for side_seeds in seeds], initial=0))
    n = starts[-1]
    streams = Streams(_joined(list(seeds)))
    # (row, time, channel, post-jump state) of each round's fired rows
    fired = [(np.empty(0, int), np.empty(0), np.empty(0, int), np.empty((0, state.size), complex))]

    # Live rows: ``x`` is the state at time ``t``, with squared norm above
    # ``u``.  Each round starts every row on a segment at level ``start``,
    # applies each level to every row and keeps the step for the rows with
    # ``start <= level`` whose squared norm stays above ``u``, so that after
    # level ``top`` every row holds the bracket ``(t, t + step]``, and ends
    # with the solve.  A side's level ``k`` is the pass's level
    # ``k + shift``.  A row whose ``t`` reaches ``t_max`` gets
    # ``start = top + 1``; rows leave after the descent and after the solve,
    # and a descent that finishes every row ends the loop.
    row = np.arange(n)
    t = np.zeros(n)
    x = np.tile(state.view(float), (n, 1))
    u = streams.take(row)[:, 0]

    def drop_finished(*arrays):
        keep = t < t_max
        return arrays if keep.all() else tuple(a[keep] for a in arrays)

    while row.size:
        cuts = _slices(row, starts)
        # each row's widths; one side's broadcast against its rows
        row_widths = widths if len(sides) == 1 else np.repeat(
            widths, [cut.stop - cut.start for cut in cuts], axis=1)
        # the narrowest level whose step from ``t`` reaches ``t_max``, in the
        # same float sum as the step itself, so a kept step ends the row
        start = (t + row_widths >= t_max).sum(axis=0) - 1
        for level in range(start.min(), top + 1):
            down = start <= level
            if not down.any():
                continue
            if len(sides) == 1:  # one side's rows are all rows
                new = sides[0].table.apply(level, x)
            else:
                new = np.concatenate([side.table.apply(level - side.shift, x[cut])
                                      if level >= side.shift else x[cut]
                                      for side, cut in zip(sides, cuts)])
            keep = down & (_row_sum(new * new) > u)
            np.copyto(x, new, where=keep[:, None])
            np.add(t, row_widths[level], out=t, where=keep)
            start[t >= t_max] = top + 1  # finished: no later level takes it
        row, t, x, u = drop_finished(row, t, x, u)
        if not row.size:
            break
        cuts = _slices(row, starts)
        tau, phi, phi_sq = _solve(sides, cuts, x, u)
        t += tau  # a crossing after t_max ends its row with no jump
        hit = np.flatnonzero(t <= t_max)
        if hit.size:
            jumped, at = row[hit], t[hit]
            draws = streams.take(jumped, 2)  # the channel's, then the next u
            channel, post = _fire(sides, _slices(jumped, starts), phi[hit], phi_sq[hit], draws[:, 0], at)
            x[hit] = post
            fired.append((jumped, at, channel, post.view(complex)))
            u[hit] = draws[:, 1]
        row, t, x, u = drop_finished(row, t, x, u)
    # rounds run in time order, so a stable sort by row keeps events in order
    rows, *record = (np.concatenate(parts) for parts in zip(*fired))
    order = np.argsort(rows, kind="stable")
    ends = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return [
        TrajectoryEnsemble(state, float(t_max), side_seeds, ends[lo : hi + 1] - ends[lo],
                           *(field[order[ends[lo] : ends[hi]]] for field in record))
        for side_seeds, lo, hi in zip(seeds, starts[:-1], starts[1:])
    ]


def simulate(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> TrajectoryEnsemble:
    """One labelled trajectory as a one-row ensemble, bitwise reproducible
    from the non-negative integer ``seed``, kept exactly: it draws the uniforms
    of ``np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))``."""
    return _simulate_rows([rep], psi0, t_max, [naturals([seed], "seed")], tol)[0]


def trajectory_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit seed of trajectory ``index`` of an ensemble:
    ``SeedSequence(master_seed, spawn_key=(index,)).generate_state(1,
    np.uint64)[0]``, the value numpy gives, for non-negative integers."""
    return int(spawned_seeds(master_seed, [index])[0])


def simulate_ensemble(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    n_traj: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> TrajectoryEnsemble:
    """``n_traj`` independent trajectories with per-index derived seeds.

    Row ``i`` is bitwise equal to
    ``simulate(rep, psi0, t_max, trajectory_seed(seed, i), tol)``: the
    ``n_traj`` ``uint64`` seeds are hashed in one pass, as numpy's
    ``SeedSequence`` spawned from the non-negative master ``seed`` would give
    them, and so are their Philox keys.
    """
    return simulate_ensembles([rep], psi0, t_max, n_traj, [seed], tol)[0]


def simulate_ensembles(
    reps: Sequence[Representation],
    psi0: np.ndarray,
    t_max: float,
    n_traj: int,
    seeds: Sequence[int],
    tol: Tolerance = DEFAULT_TOL,
) -> list[TrajectoryEnsemble]:
    """``simulate_ensemble(reps[s], psi0, t_max, n_traj, seeds[s], tol)``
    for each side ``s``, bit for bit, from one pass over the rows of all
    sides.  Every side is checked before the pass, in order; an error raised
    during the pass names its side: ``side a``, ``side b``, ... in the
    order of ``reps``.
    """
    if not hasattr(n_traj, "__index__") or operator.index(n_traj) < 1:
        raise ValidationError(f"n_traj must be a positive integer, got {n_traj}")
    if len(seeds) != len(reps) or not reps:
        raise ValidationError(f"need one seed per representation, got {len(seeds)} for {len(reps)}")
    indices = np.arange(n_traj)
    return _simulate_rows(reps, psi0, t_max, [spawned_seeds(seed, indices) for seed in seeds], tol)


def states_at(ensemble: TrajectoryEnsemble, rep: Representation, times: Sequence[float]) -> np.ndarray:
    """Conditional states of every trajectory at each of ``times``, with
    shape ``(len(times), len(ensemble), dim)``, replayed through one step
    table for the ensemble's horizon.

    At an event time a row holds the recorded post-jump state (the right
    limit); between events it is propagated from the latest event at or
    before the time and renormalized.  A time outside ``[0, t_final]`` is
    named.
    """
    _require_state_length(ensemble.initial_state, rep)
    n, t_final, stamps = len(ensemble), ensemble.t_final, ensemble.times
    owner, firsts = ensemble.owners(), ensemble.offsets[:-1]
    out = np.empty((len(times), n, rep.dim), dtype=complex)
    tau = np.empty((len(times), n))
    for k, t in enumerate(times):
        if not 0 <= t <= t_final:
            raise ValidationError(f"time {t} outside [0, {t_final}]")
        count = np.bincount(owner[stamps <= t], minlength=n)
        last, jumped = firsts + count - 1, count > 0
        tau[k], out[k] = t, ensemble.initial_state
        tau[k, jumped], out[k, jumped] = t - stamps[last[jumped]], ensemble.post_jump_states[last[jumped]]
    moving = tau != 0.0
    if moving.any():
        table = _StepTable(effective_hamiltonian(rep), t_final)
        drifted = table.advance(out[moving].view(float), tau[moving])
        out.view(float)[moving] = drifted / np.linalg.norm(drifted, axis=1, keepdims=True)
    return out


def state_at(traj: TrajectoryEnsemble, rep: Representation, t: float) -> np.ndarray:
    """Conditional state at time ``t`` of one-row ensemble ``traj``; see `states_at`."""
    (state,) = states_at(traj, rep, [t])[0]  # ValueError for any other row count
    return state


def coarse_grain(ensemble: TrajectoryEnsemble, part: SjedPartition) -> TrajectoryEnsemble:
    """The ensemble with every channel replaced by its block; a channel
    outside the partition, negative or too large, is named."""
    n_channels = sum(len(block.indices) for block in part.blocks)
    check_channels(ensemble.channels, n_channels)
    return replace(ensemble, channels=part.block_of_channel(n_channels)[ensemble.channels])
