"""Reference simulator: one trajectory at a time, one grid step or bisection
level per Python iteration.

This is the per-trajectory loop the batched engine in ``uqd.trajectory``
replaced, kept so tests can hold the engine to it.  It walks a grid of step
``0.01 / |H_eff|`` and bisects the step that crosses, where the engine
descends dyadic levels to one step and solves for the crossing inside it.
The reference reports the right end of a resolved cell of ``2**-34`` steps;
the engine reports the crossing itself.  Its arithmetic is complex BLAS
products and ``vdot`` norms, so the engine agrees with it up to that cell,
not bit for bit: identical channel sequences, event times within
``1e-10 * t_max`` and post-jump states within 1e-9.

The bisection keeps its own depth constants, so this loop stays as it was
whatever the engine's search does.
"""

from __future__ import annotations

import numpy as np

from uqd.errors import NumericalError, ValidationError
from uqd.linalg import DEFAULT_TOL, Tolerance, matrix_exponential, normalize
from uqd.representation import Representation, effective_hamiltonian, require_valid
from uqd.trajectory import (
    NORM_RESIDUAL_TOL,
    RATE_FLOOR,
    STEP_SCALE,
    TrajectoryEnsemble,
    _check_contractive,
)

TIME_LEVELS = 34  # bisection levels below a step before the residual is tested
MAX_LEVELS = 60  # deepest level before the search gives up


class _NoJumpPropagator:
    """Lazily cached exponentials ``exp(-i H_eff h / 2**level)``."""

    def __init__(self, h_eff: np.ndarray):
        self.generator = -1j * np.asarray(h_eff, dtype=complex)
        self._cache: dict[tuple[float, int], np.ndarray] = {}

    def propagator(self, h: float, level: int) -> np.ndarray:
        key = (float(h), level)
        cached = self._cache.get(key)
        if cached is None:
            cached = matrix_exponential(self.generator * (h / 2.0**level))
            self._cache[key] = cached
        return cached


def _sq_norm(phi: np.ndarray) -> float:
    return float(np.real(np.vdot(phi, phi)))


def _locate_jump(
    prop: _NoJumpPropagator, phi_left: np.ndarray, h: float, u: float
) -> tuple[float, np.ndarray]:
    """Crossing of the squared norm with ``u`` inside ``(0, h]``."""
    offset = 0.0
    phi = phi_left
    for level in range(1, MAX_LEVELS + 1):
        width = h / 2.0**level
        half = prop.propagator(h, level)
        candidate = half @ phi
        if _sq_norm(candidate) > u:
            phi = candidate
            offset += width
        if level >= TIME_LEVELS:
            right = half @ phi
            if abs(_sq_norm(right) - u) <= NORM_RESIDUAL_TOL:
                return offset + width, right
    raise NumericalError("jump-time bisection failed to reach the norm residual tolerance")


def reference_simulate(
    rep: Representation,
    psi0: np.ndarray,
    t_max: float,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> TrajectoryEnsemble:
    """The one-row ensemble of a labelled trajectory, stepping to ``t_max``
    with a final partial step."""
    require_valid(rep, tol)
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    psi0 = normalize(psi0)
    if psi0.size != rep.dim:
        raise ValidationError(f"initial state has length {psi0.size}, expected {rep.dim}")
    h_eff = effective_hamiltonian(rep)
    _check_contractive(h_eff, tol)
    prop = _NoJumpPropagator(h_eff)
    h_norm = float(np.linalg.norm(h_eff, 2))
    step = min(t_max, STEP_SCALE / h_norm) if h_norm > 0 else t_max

    jump_stack = np.stack(rep.jumps)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))

    times = []
    channels = []
    posts = []
    t = 0.0
    phi = psi0.copy()
    u = rng.random()
    horizon = t_max - 1e-12 * max(1.0, t_max)
    full_step = prop.propagator(step, 0)
    while t < horizon:
        h = min(step, t_max - t)
        advanced = (full_step if h == step else prop.propagator(h, 0)) @ phi
        if _sq_norm(advanced) > u:
            phi = advanced
            t += h
            continue
        offset, phi_star = _locate_jump(prop, phi, h, u)
        t_star = t + offset
        psi_star = phi_star / np.linalg.norm(phi_star)
        amps = jump_stack @ psi_star
        rates = np.sum(np.abs(amps) ** 2, axis=1)
        rates[rates < RATE_FLOOR] = 0.0
        total = float(rates.sum())
        if total <= 0.0:
            raise NumericalError(
                f"no channel has positive rate at sampled jump time {t_star:.6g}"
            )
        x = rng.random()
        channel = int(np.searchsorted(np.cumsum(rates) / total, x, side="right"))
        channel = min(channel, len(rates) - 1)
        post = amps[channel] / np.linalg.norm(amps[channel])
        times.append(t_star)
        channels.append(channel)
        posts.append(post)
        phi = post
        t = t_star
        u = rng.random()
    return TrajectoryEnsemble(
        initial_state=psi0,
        t_final=float(t_max),
        seeds=np.array([int(seed)], dtype=object),
        offsets=np.array([0, len(times)]),
        times=np.array(times, dtype=float),
        channels=np.array(channels, dtype=int),
        post_jump_states=np.array(posts, dtype=complex).reshape(len(posts), rep.dim),
    )
