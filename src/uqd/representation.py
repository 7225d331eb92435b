"""Master-equation representations and their derived dynamical objects.

A representation is a Hamiltonian ``H`` (hbar = 1) together with an ordered
list of nonzero jump operators ``J_1..J_d`` (units of rate**0.5) acting on a
``dim``-dimensional Hilbert space.  From it we derive the generator acting on
column-stacked density matrices, the non-Hermitian effective Hamiltonian, the
state-dependent jump rates and destinations, and the no-jump drift.

Wire format (UTF-8 JSON)::

    {
      "label": "optional name",
      "dim": 3,
      "hamiltonian": [[[re, im], ...], ...],   # row-major, required
      "jumps": [ [[[re, im], ...], ...], ... ] # one matrix per operator
    }

Complex scalars are two-element ``[re, im]`` arrays.  Jump indices are
1-based in all documents and reports, 0-based in the Python API.

Documents are decoded by :func:`loads`: ``orjson`` first, and the standard
``json`` module only where ``orjson`` refuses the text (``NaN`` and
``Infinity`` literals, numbers beyond a double, integers past Python's digit
limit, lone surrogates), so refused text keeps ``json``'s result or error.
Either way every number reaches an operator as its nearest double, so both
give the same bits.  The one difference: ``orjson`` returns an integer beyond
64 bits as a float, which is then no integer ``dim`` or index.  Output is
always written by ``json``.

Structural validity is an invariant of :class:`Representation`: finite
entries, a square Hermitian Hamiltonian and jumps of its shape.  Only the
rule that no jump is zero needs a tolerance; :func:`require_valid` checks it.
Representations are treated as immutable after construction; all derived
computations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_operator,
    dagger,
    frobenius,
)

HERMITICITY_TOL = 1e-12


@dataclass(eq=False)
class Representation:
    """Hamiltonian plus ordered jump operators; ``hamiltonian=None`` means 0."""

    hamiltonian: Optional[np.ndarray]
    jumps: Sequence[np.ndarray]
    label: str = ""

    def __post_init__(self) -> None:
        jumps = tuple(as_operator(j) for j in self.jumps)
        if not jumps:
            raise ValidationError("a representation needs at least one jump operator")
        if self.hamiltonian is None:
            ham = np.zeros((jumps[0].shape[0],) * 2, dtype=complex)
        else:
            ham = as_operator(self.hamiltonian)
        dim = ham.shape[0]
        if ham.shape != (dim, dim):
            raise ValidationError(f"Hamiltonian is not square: shape {ham.shape}")
        if not _is_hermitian(ham):
            raise ValidationError("Hamiltonian not Hermitian")
        for k, jump in enumerate(jumps):
            if jump.shape != (dim, dim):
                raise ValidationError(
                    f"jump operator {k + 1} has shape {jump.shape}, expected {(dim, dim)}"
                )
        self.hamiltonian = ham
        self.jumps = jumps

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


def _is_hermitian(ham: np.ndarray) -> bool:
    """``|H - H^+|_F <= HERMITICITY_TOL * max(1, |H|_F)`` for a finite ``H``.
    Only where a norm overflows is the test made on ``H`` divided by its
    largest real or imaginary part, as `normalize` does, so every other
    Hamiltonian keeps its arithmetic."""
    with np.errstate(over="ignore"):
        gap, size = frobenius(ham - dagger(ham)), frobenius(ham)
    if gap == np.inf or size == np.inf:
        return _is_hermitian(ham / np.max(np.abs(np.ascontiguousarray(ham).view(float))))
    return gap <= HERMITICITY_TOL * max(1.0, size)


def require_valid(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> None:
    """Reject jumps of Frobenius norm at most ``tol.atol``, naming each; the
    rest of validity holds by construction."""
    zeros = [k + 1 for k, jump in enumerate(rep.jumps) if frobenius(jump) <= tol.atol]
    if zeros:
        raise ValidationError("; ".join(f"zero jump operator at index {k}" for k in zeros))


def effective_hamiltonian(rep: Representation) -> np.ndarray:
    """Non-Hermitian drift generator ``H - (i/2) sum_k J_k^+ J_k``."""
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for jump in rep.jumps:
        acc += dagger(jump) @ jump
    return rep.hamiltonian - 0.5j * acc


def _generator_terms(rep: Representation) -> tuple[list, list]:
    """Kronecker factors of the generator on column-stacked matrices:
    ``L = 1 (x) K + (iH^T - G^T/2) (x) 1 + sum_k conj(J_k) (x) J_k`` with
    ``K = -iH - G/2`` and ``G = sum_k J_k^+ J_k``."""
    ham = rep.hamiltonian
    gain = sum(dagger(j) @ j for j in rep.jumps)
    eye = np.eye(rep.dim)
    lefts = [eye, 1j * ham.T - 0.5 * gain.T, *(j.conj() for j in rep.jumps)]
    rights = [-1j * ham - 0.5 * gain, eye, *rep.jumps]
    return lefts, rights


def liouvillian_matrix(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Generator of the averaged-state dynamics on column-stacked matrices.

    Applying the result to ``vec(rho)`` gives
    ``-i[H, rho] + sum_k (J_k rho J_k^+ - (1/2){J_k^+ J_k, rho})``.
    """
    require_valid(rep, tol)
    return sum(np.kron(a, b) for a, b in zip(*_generator_terms(rep)))


def jump_rate(rep: Representation, k: int, psi: np.ndarray) -> float:
    """Rate ``|J_k psi|**2`` of channel ``k`` (0-based) at state vector ``psi``."""
    jump = rep.jumps[k]
    amp = jump @ np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(np.vdot(amp, amp)))


def jump_rates(rep: Representation, psi: np.ndarray) -> np.ndarray:
    """All channel rates at ``psi`` as a length-``d`` array."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.array([jump_rate(rep, k, psi) for k in range(rep.n_jumps)])


def jump_destination(
    rep: Representation, k: int, psi: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Post-jump density matrix for channel ``k``; zero matrix below threshold.

    A rate at or below ``atol`` means the jump cannot fire, so the
    conventional zero matrix is returned instead of normalizing a null state.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    amp = rep.jumps[k] @ psi
    rate = float(np.real(np.vdot(amp, amp)))
    if rate <= tol.atol:
        return np.zeros((rep.dim, rep.dim), dtype=complex)
    return np.outer(amp, amp.conj()) / rate


def drift(rep: Representation, psi_density: np.ndarray) -> np.ndarray:
    """No-jump flow of a pure density matrix; traceless and Hermitian."""
    psi = as_operator(psi_density)
    h_eff = effective_hamiltonian(rep)
    flow = -1j * (h_eff @ psi) + 1j * (psi @ dagger(h_eff))
    return flow - psi * np.trace(flow)


# -- serialization ----------------------------------------------------------


# Each complex entry becomes its ``[re, im]`` pair: a trailing axis of
# length 1 views as the two floats of the entry, at any strides.
def matrix_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    return np.asarray(mat, dtype=complex)[..., None].view(float).tolist()


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return np.asarray(v, dtype=complex).reshape(-1, 1).view(float).tolist()


def _pair_from_json(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(part, (int, float)) for part in obj)
    ):
        raise ParseError(f"{where}: complex scalars must be [re, im] pairs, got {obj!r}")
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None


def _numeric_array(obj, ndim: int) -> Optional[np.ndarray]:
    """Complex array of a JSON-decoded nest of ``ndim`` non-empty list levels
    of ``[re, im]`` pairs, decoded in one numpy pass; ``None`` where it is not
    plainly numeric (ragged, empty, wrong depth, strings, ``None``, bools
    only, integers beyond int64), so the per-entry path names the fault.

    Where both paths accept, they give the same bits: each number becomes
    the nearest double, as ``complex(re, im)`` makes it.
    """
    if not isinstance(obj, list):
        return None
    try:
        arr = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "fi" or arr.shape[ndim:] != (2,):
        return None
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def matrix_from_json(obj, where: str) -> np.ndarray:
    fast = _numeric_array(obj, 2)
    if fast is not None:
        return fast
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{i}]: ragged row of length {len(row)}")
        rows.append([_pair_from_json(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def vector_from_json(obj, where: str) -> np.ndarray:
    fast = _numeric_array(obj, 1)
    if fast is not None:
        return fast
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array([_pair_from_json(entry, f"{where}[{i}]") for i, entry in enumerate(obj)])


def to_document(rep: Representation) -> dict:
    return {
        "label": rep.label,
        "dim": rep.dim,
        "hamiltonian": matrix_to_json(rep.hamiltonian),
        "jumps": [matrix_to_json(j) for j in rep.jumps],
    }


def _operator_field(obj, where: str, dim: int) -> np.ndarray:
    op = matrix_from_json(obj, where)
    if op.shape != (dim, dim):
        raise ParseError(f"{where}: shape {op.shape} does not match dim {dim}")
    if not np.isfinite(op).all():
        raise ParseError(f"{where}: entries must be finite")
    return op


def from_document(doc) -> Representation:
    if not isinstance(doc, dict):
        raise ParseError("representation document must be a JSON object")
    for key in ("dim", "hamiltonian", "jumps"):
        if key not in doc:
            raise ParseError(f"missing field {key}")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"dim: expected a positive integer, got {dim!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError("label: expected a string")
    ham = _operator_field(doc["hamiltonian"], "hamiltonian", dim)
    if not isinstance(doc["jumps"], list) or not doc["jumps"]:
        raise ParseError("jumps: expected a non-empty list of matrices")
    jumps = [_operator_field(entry, f"jumps[{k}]", dim) for k, entry in enumerate(doc["jumps"])]
    return Representation(hamiltonian=ham, jumps=jumps, label=label)


def serialize(rep: Representation, indent: Optional[int] = None) -> str:
    return json.dumps(to_document(rep), indent=indent)


def loads(text: str):
    """Decoded JSON ``text``, by ``orjson`` unless it refuses the text and by
    ``json`` then; a decoding failure is a :class:`ParseError`."""
    import orjson  # on first use, so ``import uqd`` does not pay for it

    try:
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse(text: str) -> Representation:
    return from_document(loads(text))
