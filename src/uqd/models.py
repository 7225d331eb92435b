"""Built-in qutrit models exposed by ``uqd example``.

Two three-level systems, each with analytically known equal-destination
structure, useful for exercising the theorem checkers and the simulator:

* ``qutrit_a``: three rank-1 decay channels into |0> plus two dephasing
  jumps proportional to a shared rank-2 operator.  ``qutrit_a_minimal`` is
  the matching representation with the decay channels recombined into two
  orthogonal-weight operators and the dephasing pair merged into one.
* ``qutrit_b``: five rank-1 jumps that reset onto one of two orthogonal
  target states parameterized by a mixing angle.

Angles are radians.  The Hamiltonian plays no role in the jump structure and
defaults to zero; pass any Hermitian matrix to override.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .representation import Representation

_SQRT2 = np.sqrt(2.0)


def _ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _dyad(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.outer(left, right.conj())


def _require_finite(params: dict) -> None:
    """Name the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def shared_dephasing_operator() -> np.ndarray:
    """Unit-Frobenius-norm rank-2 operator (|2><2| - |0><0|) / sqrt(2)."""
    return (_dyad(_ket(3, 2), _ket(3, 2)) - _dyad(_ket(3, 0), _ket(3, 0))) / _SQRT2


def qutrit_a(
    theta: float = np.pi / 6,
    gamma: float = 1.0,
    vartheta: float = np.pi / 3,
    lam: float = 2.0,
    phi: float = 0.0,
    hamiltonian: Optional[np.ndarray] = None,
    label: str = "qutrit-a",
) -> Representation:
    """Five-jump qutrit: three decays into |0> and a split dephasing pair.

    ``vartheta`` splits the dephasing weight between the two proportional
    jumps; multiples of pi/2 would zero one of them and are rejected.
    """
    _require_finite({"theta": theta, "gamma": gamma, "vartheta": vartheta, "lambda": lam, "phi": phi})
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    if abs(np.cos(vartheta)) < 1e-12 or abs(np.sin(vartheta)) < 1e-12:
        raise ValidationError("vartheta must not be a multiple of pi/2 (zero jump)")
    root = np.sqrt(gamma)
    zero, one, two = (_ket(3, i) for i in range(3))
    shared = shared_dephasing_operator()
    jumps = [
        root * _dyad(zero, one),
        root * _dyad(zero, two),
        root * _dyad(zero, np.cos(theta) * one + np.sin(theta) * two),
        lam * np.cos(vartheta) * shared,
        lam * np.sin(vartheta) * np.exp(1j * phi) * shared,
    ]
    return Representation(hamiltonian=hamiltonian, jumps=jumps, label=label)


def qutrit_a_minimal(
    theta: float = np.pi / 6,
    gamma: float = 1.0,
    lam: float = 2.0,
    hamiltonian: Optional[np.ndarray] = None,
    label: str = "qutrit-a-minimal",
) -> Representation:
    """Three-jump form of :func:`qutrit_a`: recombined decays, merged dephasing."""
    _require_finite({"theta": theta, "gamma": gamma, "lambda": lam})
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    zero, one, two = (_ket(3, i) for i in range(3))
    jumps = [
        np.sqrt(gamma) * _dyad(zero, -np.sin(theta) * one + np.cos(theta) * two),
        np.sqrt(2 * gamma) * _dyad(zero, np.cos(theta) * one + np.sin(theta) * two),
        lam * shared_dephasing_operator(),
    ]
    return Representation(hamiltonian=hamiltonian, jumps=jumps, label=label)


def qutrit_b(
    theta: float = 0.0,
    gammas: Sequence[float] = (1.0, 0.5, 2.0),
    hamiltonian: Optional[np.ndarray] = None,
    label: str = "qutrit-b",
) -> Representation:
    """Five reset jumps onto two orthogonal targets mixed by ``theta``.

    The targets are cos(theta)|0> + sin(theta)|2> and its orthogonal
    complement; jumps 1-3 reset onto the first, jumps 4-5 onto the second.
    """
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != 3:
        raise ValidationError("qutrit-b takes exactly three rates")
    _require_finite({"theta": theta, **{f"gamma {i + 1}": g for i, g in enumerate(gammas)}})
    if any(g <= 0 for g in gammas):
        raise ValidationError("all rates must be positive")
    g1, g2, g3 = gammas
    zero, one, two = (_ket(3, i) for i in range(3))
    chi_1 = np.cos(theta) * zero + np.sin(theta) * two
    chi_2 = -np.sin(theta) * zero + np.cos(theta) * two
    jumps = [
        np.sqrt(g1) * _dyad(chi_1, one),
        np.sqrt(g2) * _dyad(chi_1, one),
        np.sqrt(g3) * _dyad(chi_1, two),
        np.sqrt(g1 + g2) * _dyad(chi_2, one),
        np.sqrt(g3) * _dyad(chi_2, two),
    ]
    return Representation(hamiltonian=hamiltonian, jumps=jumps, label=label)
