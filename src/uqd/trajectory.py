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
  operators and the row-independence probes of both.  The live rows sit in
  one chunk layout (`_Chunks`): each side's rows, in row order, from the
  first row of a chunk of their own, so that each descent level is one
  product for every side, with each chunk's operator its side's.  The
  solve's moment and Taylor products and the jump images stay each side's
  own, on its rows, with the operator shapes of a side simulated alone.
  Everything else runs once over the rows of all sides: the rounds, the
  keep and update of the descent, the Newton iteration of the solve (each
  row with its own side's ``step``), the channel draw, one `Streams` over
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
  applies level ``k`` to every slot of the layout in one product, and a row
  whose segment starts at level ``k`` or a wider one keeps the step if its
  squared norm stays above ``u``.  A kept step that reaches ``t_max`` ends
  the row with no further jump: it takes no later level, and its slot stays
  behind, finished, until the layout is laid out anew in fewer chunks.
  After level ``top`` every other row holds a bracket ``(t, t + step]``.
* Solve.  Within one step, ``|H_eff| tau <= 0.01``, the squared norm is the
  degree-8 polynomial ``sum_m tau^m x^T M_m x`` of the state ``x`` at the
  bracket's left end, up to about 1e-21.  At the end of each round the
  bracketed rows are solved together by a safeguarded Newton iteration on that
  polynomial, to ``2**-34`` of ``step``, on arrays of the rows not yet
  frozen, and the state at the crossing is rebuilt from its Taylor series
  by Horner's rule in place; its squared norm must meet ``u`` to 1e-9.
  A crossing after ``t_max`` means there is no jump before ``t_max``, and
  the row ends there.  A segment therefore costs at most
  ``1 + log2(t_max / step)`` passes plus its share of one solve, whatever
  ``|H_eff| * t_max`` is.
* Replay.  `states_at` advances through the step table of the ensemble's
  horizon with `_product`, so simulation and replay have one no-jump
  propagator: the levels above ``step`` cover all but a remainder below
  ``2 step``, and the solve's Taylor series covers that remainder.  The
  table is the pass's own where `simulate_ensembles` kept it on the
  ensemble and it fits the representation, as in ``uqd compare-ensembles``,
  else one built for the horizon, with the same bits.  One count over the
  ensemble's event times finds every row's latest event at a sample time.
* Rows never mix.  States and operators are held in a real form, and every
  product of rows with an operator goes through one kernel, `_chunked`:
  numpy's ``@`` on rows in chunks of ``CHUNK_ROWS``, ``(chunks,
  CHUNK_ROWS, 2d) @ M.T``, one BLAS call per chunk and operator of one
  shape whatever the number of rows.  The descent's levels run on the
  layout, with one operator per chunk, into a kept buffer; the other
  products (`_product`) run on their rows zero-padded to chunks.  That each
  row's bits then do not depend on its place is a property of the BLAS
  library, not of IEEE arithmetic, so every simulation or replay call first
  probes it on its own operators in that call form (`_rows_independent`):
  a row must give the same bits among random rows, one place on, and
  alone.  Where the probe fails, the call uses `_columns` instead, a
  fixed-order loop of elementwise multiply-adds.  Sums over a row run left
  to right (`_row_sum`).  A row's bits therefore do not depend on which
  rows share the call or where it sits, and ensembles equal their
  trajectories simulated, or replayed, one at a time.  One stable sort by
  row lays the rounds' fired events out row by row in one
  `TrajectoryEnsemble`.
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
from dataclasses import dataclass, field, replace
from itertools import accumulate, pairwise
from string import ascii_lowercase
from typing import Optional, Sequence

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
    iteration, is one row as a one-row ensemble.  ``table`` is the step table
    of the pass that simulated it, where `simulate_ensembles` kept it, or
    None; `states_at` replays through it only where it `_StepTable.fits`
    the representation and ``t_final``."""

    initial_state: np.ndarray
    t_final: float
    seeds: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    channels: np.ndarray
    post_jump_states: np.ndarray
    table: Optional[_StepTable] = field(default=None, repr=False)

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


def _chunked(mats: np.ndarray, chunks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``result[..., c, n, :] = mats[..., c, :, :] @ chunks[c, n]``, the one
    BLAS product of the module: one ``(CHUNK_ROWS, 2d) @ mats[..., c].T``
    product per chunk ``c`` of ``chunks``, ``(chunks, CHUNK_ROWS, 2d)``, of
    the same shape whatever the number of rows.  ``mats`` holds one operator
    per chunk, or one shared by every chunk (a stack of them broadcast as
    ``(..., 1, 2d', 2d)``)."""
    return np.matmul(chunks, mats.swapaxes(-1, -2), out=out)


def _padded(x: np.ndarray) -> np.ndarray:
    """The rows of ``x``, in order, zero-padded to ``(chunks, CHUNK_ROWS, 2d)``."""
    n, size = x.shape
    padded = np.zeros((-(-n // CHUNK_ROWS), CHUNK_ROWS, size))
    padded.reshape(-1, size)[:n] = x
    return padded


def _rows_independent(mats: np.ndarray) -> bool:
    """Whether `_chunked` gives every product of ``mats`` (one operator or a
    stack) the same bits for a row wherever the row sits, in the call form of
    the pass: one BLAS product per chunk and operator, into a kept buffer.
    Each operator takes three chunks: pseudo-random rows (``sin`` of the
    integers), the same rows one place on, and the last row alone.  OpenBLAS
    0.3.31 met it for every operator tried, but it is a property of the
    library, not of IEEE arithmetic, so each call tests it on its own
    operators."""
    mats = mats.reshape(-1, 1, *mats.shape[-2:])
    size = mats.shape[-1]
    rows = np.zeros((3, CHUNK_ROWS, size))
    rows[0] = np.sin(np.arange(1.0, CHUNK_ROWS * size + 1)).reshape(CHUNK_ROWS, size)
    rows[1, 1:] = rows[0, :-1]
    rows[1, 0] = rows[2, 0] = rows[0, -1]
    out = _chunked(mats, rows, np.empty((len(mats), *rows.shape[:-1], mats.shape[-2])))
    last = out[:, 0, -1]
    return bool((out[:, 1, 1:] == out[:, 0, :-1]).all()
                and (out[:, 1, 0] == last).all() and (out[:, 2, 0] == last).all())


def _product(mats: np.ndarray, x: np.ndarray, blas: bool) -> np.ndarray:
    """``out[..., n, :] = mats[...] @ x[n]`` for every row ``n`` of ``x``,
    each row's bits independent of the other rows: through `_chunked` on the
    rows zero-padded to chunks where ``blas``, the result of
    `_rows_independent` on ``mats`` (or on a stack holding them), else
    through `_columns`."""
    if not blas:
        return np.moveaxis(_columns(mats, x.T), -1, -2)
    out = _chunked(mats[..., None, :, :], _padded(x))
    return out.reshape(*out.shape[:-3], -1, out.shape[-1])[..., : len(x), :]


class _Chunks:
    """The live rows of a pass, laid out for its level products: side
    ``s``'s ``counts[s]`` rows, in row order, from the first row of a chunk
    of its own, zero-padded to whole chunks, in ``rows``, ``(chunks,
    CHUNK_ROWS, 2d)``, so that `apply` makes one product per level for
    every side.  ``levels[k, s]`` is side ``s``'s propagator at the pass's
    level ``k`` and ``blas[s]`` its table's probe.  Each slot holds its
    row's time ``t``, target ``u``, index ``row`` and widths ``widths[k]``,
    its side's column of the pass's ``widths``, for one side as for several;
    a padding slot has an infinite time, no row (-1) and a zero state, so
    no level keeps it.  A row keeps its slot while the layout lasts: rows
    that end stay behind as finished slots until the pass lays the rows out
    anew in fewer chunks."""

    def __init__(self, x: np.ndarray, t: np.ndarray, u: np.ndarray, row: np.ndarray, counts: Sequence[int],
                 levels: np.ndarray, widths: np.ndarray, blas: Sequence[bool]):
        per_side = [-(-count // CHUNK_ROWS) for count in counts]
        self.side = np.repeat(np.arange(len(counts)), per_side)  # each chunk's side
        self.levels, self.blas = levels, blas
        size = x.shape[1]
        self.rows = np.zeros((len(self.side), CHUNK_ROWS, size))
        self.new = np.empty_like(self.rows)
        self.flat = self.rows.reshape(-1, size)
        slots = len(self.flat)
        self.t, self.u, self.row = np.full(slots, np.inf), np.ones(slots), np.full(slots, -1)
        firsts, chunks = accumulate(counts, initial=0), accumulate(per_side, initial=0)
        for first, chunk, count in zip(firsts, chunks, counts):
            into = slice(CHUNK_ROWS * chunk, CHUNK_ROWS * chunk + count)
            for layout, values in ((self.flat, x), (self.t, t), (self.u, u), (self.row, row)):
                layout[into] = values[first : first + count]
        self.widths = np.repeat(widths, np.multiply(per_side, CHUNK_ROWS), axis=1)
        # a row as one opaque element, so that `keep` copies whole rows
        self.record = np.dtype((np.void, self.rows.itemsize * size))
        self.records, self.new_records = (self.flat.view(self.record)[:, 0],
                                          self.new.reshape(self.flat.shape).view(self.record)[:, 0])

    def apply(self, level: int) -> np.ndarray:
        """Each side's level-``level`` propagator on each of its rows, every
        side's chunks in one BLAS product where their probes passed, through
        `_columns` on the rows of each side whose probe failed."""
        mats = self.levels[level]
        new = self.new
        if any(self.blas):
            new = _chunked(mats if len(mats) == 1 else mats[self.side], self.rows, new)
        for s, blas in enumerate(self.blas):
            if not blas:
                chunks = self.side == s
                rows = self.rows[chunks].reshape(-1, self.rows.shape[-1])
                new[chunks] = _product(mats[s], rows, False).reshape(-1, *self.rows.shape[1:])
        return new

    def norms(self, new: np.ndarray) -> np.ndarray:
        """The squared norm of each slot of `apply`'s rows ``new``."""
        return _row_sum((new * new).reshape(len(self.flat), -1))

    def keep(self, where: np.ndarray) -> None:
        """Take the slots of `apply`'s rows where ``where`` holds."""
        np.copyto(self.records, self.new_records, where=where)


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
    ``moments[m] = sum_{i+j=m} taylor[i]^T taylor[j]``, so that the no-jump
    state from ``x`` after ``tau <= step`` is ``sum_i tau^i taylor[i] x``
    and its squared norm is ``sum_m tau^m x^T moments[m] x``, both to degree
    ``TAYLOR_ORDER``.

    A table is a function of ``H_eff`` and ``t_max`` alone, which it keeps:
    `simulate_ensembles` hands each side's table to its ensemble, and
    `states_at` replays through it where it `fits` the representation and
    the horizon, so a compare builds one table per side."""

    def __init__(self, h_eff: np.ndarray, t_max: float):
        self.h_eff, self.t_max = h_eff, t_max
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
        # every product taylor[i]^T taylor[j] in one call, summed over i in order
        products = np.matmul(self.taylor.swapaxes(-1, -2)[:, None], self.taylor[None])
        self.moments = np.zeros_like(self.taylor)
        for i in range(TAYLOR_ORDER + 1):
            self.moments[i:] += products[i, : TAYLOR_ORDER + 1 - i]
        self.mats = np.stack(list(levels))[::-1] + np.eye(len(self.taylor[0]))
        self.blas = _rows_independent(np.concatenate([self.mats, self.taylor, self.moments]))

    def fits(self, h_eff: np.ndarray, t_max: float) -> bool:
        """Whether this is the table of ``h_eff`` and ``t_max``."""
        return t_max == self.t_max and np.array_equal(h_eff, self.h_eff)

    def taylor_terms(self, x: np.ndarray) -> np.ndarray:
        """``(TAYLOR_ORDER + 1, N, 2d)`` rows ``taylor[i] x[n]``."""
        return _product(self.taylor, x, self.blas)

    def advance(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Row ``n`` of the result is the no-jump state ``x[n]`` after
        ``tau[n]`` in ``[0, t_max]``: each level ``k < top`` takes, through
        `_product`, the rows with at least ``w_k`` left (an exact
        subtraction), and the Taylor series covers the rest: below ``2
        step``, it errs by at most ``0.02**9 / 9! ~ 1e-21``."""
        x = x.copy()
        rest = np.array(tau, dtype=float)
        for k in range(self.top):
            rows = np.flatnonzero(rest >= self.widths[k])
            if rows.size:
                x[rows] = _product(self.mats[k], x[rows], self.blas)
                rest[rows] -= self.widths[k]
        return _horner(self.taylor_terms(x), rest)


def _horner(terms: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows ``sum_i tau[n]^i terms[i, n]``, by Horner's rule: from
    `_StepTable.taylor_terms`, the no-jump states after ``tau[n]``.  The
    steps run in place on one flat view, each entry with its row's
    ``tau``, in the memory order of ``terms``: row-major from BLAS,
    column-major from `_columns`.  The result keeps that order, which
    `states_at`'s row norms depend on."""
    phi = terms[TAYLOR_ORDER].copy(order="K")
    order = "C" if phi.flags.c_contiguous else "F"
    flat = phi.reshape(-1, order=order)
    tau = np.repeat(tau, phi.shape[-1]) if order == "C" else np.tile(tau, phi.shape[-1])
    for i in range(TAYLOR_ORDER - 1, -1, -1):
        flat *= tau
        flat += terms[i].reshape(-1, order=order)
    return phi


def _quadratic_forms(table: _StepTable, x: np.ndarray) -> np.ndarray:
    """``(TAYLOR_ORDER + 1, N)`` coefficients ``x[n]^T moments[m] x[n]`` of
    the squared norm's polynomial from each row ``x[n]``."""
    terms = _product(table.moments, x, table.blas)
    terms *= x
    return _row_sum(terms)


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
    row: the rows ``cuts[s]`` jump under ``sides[s]``.  Each side's jump
    product is its own, into one zero array of amplitudes as wide as the
    side with the most jumps, and each row's channel is clamped to its own
    side's last; the channel draw runs once over every row.  A zero rate
    adds nothing to the cumulative rates, and a cumulative share of 1 is
    never below a uniform, so each row draws the channel it draws alone."""
    size = phi.shape[1]
    counts = [len(side.jumps) // size for side in sides]
    amps = np.zeros((len(phi), max(counts), size))
    for side, cut, count in zip(sides, cuts, counts):
        if cut.stop > cut.start:
            amps[cut, :count] = _product(side.jumps, phi[cut], side.jumps_blas).reshape(-1, count, size)
    last = np.repeat(np.subtract(counts, 1), [cut.stop - cut.start for cut in cuts])
    amps_sq = _row_sum(amps * amps)
    rates = amps_sq / phi_sq[:, None]
    rates[rates < RATE_FLOOR] = 0.0
    cumulative = np.cumsum(rates, axis=1)
    total = cumulative[:, -1]
    if np.any(total <= 0.0):
        first = int(np.argmax(total <= 0.0))
        raise NumericalError(f"{_name_at(sides, cuts, first)}no channel has positive rate at sampled "
                             f"jump time {float(times[first]):.6g}")
    channel = np.count_nonzero(cumulative / total[:, None] <= draws[:, None], axis=1)
    channel = np.minimum(channel, last)
    rows = np.arange(len(phi))
    return channel, amps[rows, channel] / np.sqrt(amps_sq[rows, channel])[:, None]


def _slices(values: np.ndarray, edges: Sequence[int]) -> Sequence[slice]:
    """For each side ``s``, the slice of the sorted ``values`` that lies in
    ``[edges[s], edges[s + 1])``, with integer bounds; ``edges`` spans every
    value, so one side takes them all."""
    cuts = np.searchsorted(values, edges[1:-1]).tolist()
    return [slice(lo, hi) for lo, hi in pairwise([0, *cuts, len(values)])]


def _name_at(sides: Sequence[_Side], cuts: Sequence[slice], position: int) -> str:
    """The name of the side whose cut holds row ``position``."""
    return next(side.name for side, cut in zip(sides, cuts) if position < cut.stop)


def _solve(sides: Sequence[_Side], cuts: Sequence[slice], x: np.ndarray, u: np.ndarray):
    """Offsets ``tau`` in ``[0, step]`` where the squared norm of the
    no-jump state from row ``x[n]`` falls to ``u[n]``, the states there and
    their squared norms: the rows ``cuts[s]`` of ``x`` under the table of
    ``sides[s]``, whose errors start with its name.

    Each row must hold a bracket: squared norm above ``u[n]`` at 0 and at
    most ``u[n]`` at its table's ``step``.  A safeguarded Newton iteration
    runs on each row's polynomial; a Newton step that leaves the row's
    bracket falls back to bisection, and a row is frozen once its move is
    at most ``step * 2**-TIME_LEVELS``, with ``step`` its own table's, held
    per row for one side as for several.  The moment and Taylor products are
    each table's, on its own rows; the iteration runs on all rows together,
    on arrays of the rows not yet frozen, compacted only when a row
    freezes."""
    tables = [side.table for side in sides]
    coeffs = _joined([_quadratic_forms(table, x[cut]) for table, cut in zip(tables, cuts)], -1)
    step = np.repeat([table.step for table in tables], [cut.stop - cut.start for cut in cuts])
    # the rows not yet frozen: their bracket, their latest offset ``at`` and
    # their targets; ``tau`` takes each row's last offset
    n = len(x)
    live, at, lo, hi, target = np.arange(n), np.zeros(n), np.zeros(n), step, u
    resolution = step * 2.0**-TIME_LEVELS
    tau = np.empty(n)
    # a zero slope makes an infinite or NaN Newton step, which the bracket
    # test below replaces by bisection
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(SOLVE_ITERATIONS):
            value, slope = coeffs[TAYLOR_ORDER], np.zeros(len(at))
            for m in range(TAYLOR_ORDER - 1, -1, -1):
                slope = slope * at + value
                value = value * at + coeffs[m]
            value -= target
            above = value > 0.0
            lo = np.where(above, at, lo)
            hi = np.where(above, hi, at)
            guess = at - value / slope
            # closed test: an exact root is its own Newton step
            guess = np.where((lo <= guess) & (guess <= hi), guess, (lo + hi) / 2)
            moving = np.abs(guess - at) > resolution
            at = guess
            if moving.all():
                continue
            tau[live] = guess
            if not moving.any():
                break
            live, at, lo, hi, target = live[moving], at[moving], lo[moving], hi[moving], target[moving]
            coeffs, resolution = coeffs[:, moving], resolution[moving]
        else:
            raise NumericalError(_name_at(sides, cuts, live[0]) + "jump-time solve did not converge")
    phi = _joined([_horner(table.taylor_terms(x[cut]), tau[cut]) for table, cut in zip(tables, cuts)])
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
    seed of ``seeds[s]``, which keeps its side's step table; all rows of all
    sides advance together.  Every check of a side runs before the next
    side's, and all before the pass."""
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
    # each side's widths and propagators at the pass's levels, (top + 1,
    # sides); the levels above a side's level 0 never take its rows, reach
    # any t_max, and hold its level 0 so that the product stays finite
    widths = np.full((top + 1, len(sides)), np.inf)
    levels = np.empty((top + 1, len(sides), 2 * state.size, 2 * state.size))
    for s, side in enumerate(sides):
        widths[side.shift :, s] = side.table.widths
        levels[: side.shift, s] = side.table.mats[0]
        levels[side.shift :, s] = side.table.mats
    blas = [side.table.blas for side in sides]
    # side s holds rows starts[s] up to starts[s + 1], and the live rows stay
    # in row order, so each side is one slice of them
    starts = np.array([0, *accumulate(len(side_seeds) for side_seeds in seeds)])
    n = starts[-1]
    streams = Streams(_joined(list(seeds)))
    # (row, time, channel, post-jump state) of each round's fired rows
    fired = [(np.empty(0, int), np.empty(0), np.empty(0, int), np.empty((0, state.size), complex))]

    # Each round starts every live row on a segment at level ``start``,
    # applies each level to every slot and keeps the step for the rows with
    # ``start <= level`` whose squared norm stays above their target ``u``,
    # so that after level ``top`` every live row holds the bracket ``(t, t +
    # step]``, and ends with the solve on the live rows.  A side's level
    # ``k`` is the pass's level ``k + shift``.  A row whose ``t`` reaches
    # ``t_max`` gets ``start = top + 1``; a finished slot starts at ``top``
    # at the latest, and what a level does to it is never read.  A descent
    # or a solve that finishes every row ends the loop.
    chunks = _Chunks(np.tile(state.view(float), (n, 1)), np.zeros(n), streams.take(np.arange(n))[:, 0],
                     np.arange(n), starts[1:] - starts[:-1], levels, widths, blas)
    while True:
        t, u = chunks.t, chunks.u
        # the narrowest level whose step from ``t`` reaches ``t_max``, in the
        # same float sum as the step itself, so a kept step ends the row
        start = (t + chunks.widths >= t_max).sum(axis=0) - 1
        for level in range(start.min(), top + 1):
            down = start <= level
            if not down.any():
                continue
            new = chunks.apply(level)
            keep = down & (chunks.norms(new) > u)
            chunks.keep(keep)
            np.add(t, chunks.widths[level], out=t, where=keep)
            start[t >= t_max] = top + 1  # finished: no later level takes it
        live = np.flatnonzero(t < t_max)
        if not live.size:
            break
        row, x, t, u = chunks.row[live], chunks.flat[live], t[live], u[live]
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
        going = t < t_max
        if not going.any():
            break
        counts = np.diff(np.searchsorted(row[going], starts))
        if sum(-(-count // CHUNK_ROWS) for count in counts) < len(chunks.side):  # fewer chunks
            chunks = _Chunks(x[going], t[going], u[going], row[going], counts, levels, widths, blas)
        else:  # back to their slots
            chunks.flat[live], chunks.t[live], chunks.u[live] = x, t, u
    # rounds run in time order, so a stable sort by row keeps events in order
    rows, *record = (np.concatenate(parts) for parts in zip(*fired))
    order = np.argsort(rows, kind="stable")
    ends = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return [
        TrajectoryEnsemble(state, float(t_max), side_seeds, ends[lo : hi + 1] - ends[lo],
                           *(field[order[ends[lo] : ends[hi]]] for field in record),
                           table=table)
        for side_seeds, lo, hi, table in zip(seeds, starts[:-1], starts[1:], tables)
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
    return replace(_simulate_rows([rep], psi0, t_max, [naturals([seed], "seed")], tol)[0], table=None)


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
    them, and so are their Philox keys.  Like `simulate`, it returns the
    records alone, without the step table.
    """
    return replace(simulate_ensembles([rep], psi0, t_max, n_traj, [seed], tol)[0], table=None)


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
    order of ``reps``.  Each ensemble keeps its side's step table, so that
    replaying it under its representation (`states_at`, as
    `uqd.ensemble.compare_ensembles` does) builds none.
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
    table for the ensemble's horizon: the table its pass kept where it fits
    ``rep`` and the horizon, else one built for them, which has the same
    bits.

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
        h_eff, table = effective_hamiltonian(rep), ensemble.table
        if table is None or not table.fits(h_eff, t_final):
            table = _StepTable(h_eff, t_final)
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
