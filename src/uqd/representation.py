"""Master-equation representations and their derived dynamical objects.

A representation is a Hamiltonian ``H`` (hbar = 1) together with an ordered
list of nonzero jump operators ``J_1..J_d`` (units of rate**0.5) acting on a
``dim``-dimensional Hilbert space.  From it we derive the generator acting on
column-stacked density matrices, the non-Hermitian effective Hamiltonian, and
the state-dependent jump rates and destinations.

Wire format (UTF-8 JSON)::

    {
      "label": "optional name",
      "dim": 3,
      "hamiltonian": [[[re, im], ...], ...],   # row-major, required
      "jumps": [ [[[re, im], ...], ...], ... ] # one matrix per operator
    }

Complex scalars are two-element ``[re, im]`` arrays of numbers; a JSON
``true`` or ``false`` is no number, and a ``dim`` of ``true`` is no integer.
A document has no other fields (``schemas/representation.schema.json``).
Jump indices are 1-based in all documents and reports, 0-based in the
Python API.

Two decoders read the input.  ``orjson`` reads the numbers of the plain
path below, and the head of the document before them.  The standard ``json``
module reads everything else, through :func:`loads`: a document the plain
path declines, and the ``--psi0``, ``--observables`` and ``--isometry``
files of the CLI.  Either way every number reaches an operator as its
nearest double, so both give the same bits.  Output is always written by
``json``.

:func:`parse` has two decode paths.  The *plain* path takes a document whose
fields after ``dim`` and ``label`` are ``"hamiltonian"`` and ``"jumps"``, in
that order, with every operator a ``dim x dim`` nest of pairs, and reads all
its numbers with one ``orjson`` call on a flat array: no list is built per
entry.  It declines whatever it cannot read exactly, and the *exact* path,
``from_document(loads(text))``, then decodes the document and names any
fault.  Where the plain path accepts, both give the same bits (see
:func:`parse`).

Structural validity is an invariant of :class:`Representation`: finite
entries, a square Hermitian Hamiltonian and jumps of its shape.  Only the
rule that no jump is zero needs a tolerance; :func:`require_valid` checks it
against the jumps' Frobenius norms, which a representation takes once, on
first read, and keeps beside the one ``(n_jumps, dim, dim)`` stack of its
jumps.
Representations are treated as immutable after construction; all derived
computations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    require_finite,
)

HERMITICITY_TOL = 1e-12
# the fields of schemas/representation.schema.json, which allows no others
DOCUMENT_FIELDS = ("label", "dim", "hamiltonian", "jumps")


@dataclass(eq=False)
class Representation:
    """Hamiltonian plus ordered jump operators; ``hamiltonian=None`` means 0.

    Construction also keeps ``jump_stack``, the jumps stacked along a first
    axis (read-only), and ``jump_norms`` holds each jump's :func:`frobenius`
    norm from its first read, so no analysis stacks the jumps or takes a
    norm again."""

    hamiltonian: Optional[np.ndarray]
    jumps: Sequence[np.ndarray]
    label: str = ""
    jump_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        jumps = tuple(as_matrix(j) for j in self.jumps)
        if not jumps:
            raise ValidationError("a representation needs at least one jump operator")
        if self.hamiltonian is None:
            ham = np.zeros((jumps[0].shape[0],) * 2, dtype=complex)
        else:
            ham = as_matrix(self.hamiltonian)
        dim = ham.shape[0]
        if ham.shape != (dim, dim):
            raise ValidationError(f"Hamiltonian is not square: shape {ham.shape}")
        for k, jump in enumerate(jumps):
            if jump.shape != (dim, dim):
                raise ValidationError(
                    f"jump operator {k + 1} has shape {jump.shape}, expected {(dim, dim)}"
                )
        ops = np.stack([ham, *jumps])
        require_finite(ops)  # one check, now that the shapes agree
        if not _is_hermitian(ham):
            raise ValidationError("Hamiltonian not Hermitian")
        ops.flags.writeable = False
        self.hamiltonian = ham
        self.jumps = jumps
        self.jump_stack = ops[1:]

    @cached_property
    def jump_norms(self) -> tuple[float, ...]:
        # on first read, not at construction: a finite jump's norm can
        # overflow, which only an analysis that reads it should meet
        return tuple(frobenius(jump) for jump in self.jumps)

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
    zeros = [k + 1 for k, norm in enumerate(rep.jump_norms) if norm <= tol.atol]
    if zeros:
        raise ValidationError("; ".join(f"zero jump operator at index {k}" for k in zeros))


def rate_operator(rep: Representation) -> np.ndarray:
    """``G = sum_k J_k^+ J_k``: the total jump rate at ``psi`` is ``<psi|G|psi>``."""
    return sum(dagger(jump) @ jump for jump in rep.jumps)


def effective_hamiltonian(rep: Representation) -> np.ndarray:
    """Non-Hermitian drift generator ``H - (i/2) sum_k J_k^+ J_k``."""
    return rep.hamiltonian - 0.5j * rate_operator(rep)


def _drift_terms(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """``K = -iH - G/2`` and ``K' = iH^T - G^T/2``, with ``G = sum_k J_k^+
    J_k``: the generator on column-stacked matrices is
    ``L = 1 (x) K + K' (x) 1 + sum_k conj(J_k) (x) J_k``."""
    ham = rep.hamiltonian
    gain = rate_operator(rep)
    return -1j * ham - 0.5 * gain, 1j * ham.T - 0.5 * gain.T


def _generator_terms(rep: Representation) -> tuple[list, list]:
    """Left and right Kronecker factors of the generator's terms, in the
    order of :func:`_drift_terms`' sum."""
    drift, drift_t = _drift_terms(rep)
    eye = np.eye(rep.dim)
    return [eye, drift_t, *(j.conj() for j in rep.jumps)], [drift, eye, *rep.jumps]


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
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in obj)
    ):
        raise ParseError(f"{where}: complex scalars must be [re, im] pairs, got {obj!r}")
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None


def matrix_from_json(obj, where: str) -> np.ndarray:
    """Complex matrix of a JSON-decoded non-empty list of equal, non-empty
    rows of ``[re, im]`` pairs, read entry by entry, so that a fault is a
    :class:`ParseError` naming its place: ``where[i]`` for a row,
    ``where[i][j]`` for an entry (a boolean, a string or a number beyond a
    double)."""
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
    unknown = [key for key in doc if key not in DOCUMENT_FIELDS]
    if unknown:
        raise ParseError(f"{unknown[0]}: unknown field; a representation has only "
                         f"{', '.join(DOCUMENT_FIELDS)}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
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
    """Decoded JSON ``text``, by ``json``; a decoding failure is a
    :class:`ParseError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


_JSON_SPACE = b" \t\n\r"
_NUMBER_OR_SPACE = b"0123456789.+-eE" + _JSON_SPACE
# past the skeleton check, these are the brackets, the brace and the key
_STRUCTURE_TO_SPACES = bytes.maketrans(b'[]}"jumps:', b" " * 10)


def _nest_skeleton(dim: int) -> bytes:
    """A ``dim x dim`` nest of pairs with its numbers and spaces deleted."""
    row = b"[" + b",".join([b"[,]"] * dim) + b"]"
    return b"[" + b",".join([row] * dim) + b"]"


def _slots_filled(data: bytes) -> bool:
    """Whether no ``[`` of ``data`` is followed, and no ``]`` preceded, by a
    character below ``-``, such as a comma, a space or a quote.  In a text
    with a nest's skeleton, every pair then opens and closes on a number
    character: no slot is empty, for a number outside the pair to fill."""
    codes = np.frombuffer(data, np.uint8)
    left, right = codes[:-1], codes[1:]
    for bracket, at, inside in ((ord("["), left, right), (ord("]"), right, left)):
        empty = at == bracket
        empty &= inside < ord("-")  # in place: one mask of the text at a time
        if empty.any():
            return False
    return True


def _plain_operators(text: str) -> Optional[tuple[str, np.ndarray]]:
    """Label and ``(1 + n_jumps, dim, dim)`` operators of a plainly nested
    document, or ``None`` wherever the text is anything else."""
    import orjson

    try:
        head, key, rest = text.encode().partition(b'"hamiltonian":')
        head = head.rstrip(_JSON_SPACE)
        if not key or not head.endswith(b","):
            return None
        fields = orjson.loads(head[:-1] + b"}")
        if not isinstance(fields, dict) or fields.keys() - {"dim", "label"}:
            return None
        dim, label = fields.get("dim"), fields.get("label", "")
        if type(dim) is not int or dim < 1 or not isinstance(label, str):
            return None
        skeleton = rest.translate(None, _NUMBER_OR_SPACE)
        n_ops = skeleton.count(b"[,]") // (dim * dim)
        if n_ops < 2:
            return None
        nest = _nest_skeleton(dim)
        if skeleton != nest + b',"jumps":[' + b",".join([nest] * (n_ops - 1)) + b"]}":
            return None
        if b'"jumps"' not in rest:  # a space in the key passes the skeleton
            return None
        # a compact text passes as it is, an indented one once its spaces go
        if not (_slots_filled(rest) or _slots_filled(rest.translate(None, _JSON_SPACE))):
            return None
        flat = b"[" + rest.translate(_STRUCTURE_TO_SPACES) + b"]"
        del rest  # one copy of the text at a time, for peak memory
        values = np.array(orjson.loads(flat), dtype=float)
        ops = values.view(complex).reshape(n_ops, dim, dim)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    return label, ops


def parse(text: str) -> Representation:
    """The representation a JSON document holds.

    The plain path (:func:`_plain_operators`) decodes the text up to the
    first ``"hamiltonian":`` key as an object of ``dim`` and an optional
    ``label``.  With its number characters and spaces deleted, the rest
    must then be exactly the Hamiltonian's nest skeleton, ``,"jumps":[``,
    one or more jump nest skeletons and ``]}``; its key must read
    ``"jumps"``, and no pair may have an empty slot (:func:`_slots_filled`).
    With its brackets, brace and key turned into spaces, the rest is
    decoded as one flat ``orjson`` array.

    This is exact.  The skeleton fixes the order of every bracket, comma,
    key character and brace, with only number characters and spaces between
    them.  Each stretch between two commas holds one pair slot, which is not
    empty, and everything else in it becomes a space, so a number character
    outside the slot would make a second number, which ``orjson`` refuses.
    It so reads each slot's number alone, with the parse the nested
    document gives it.  Spaces, not deletions, keep the invalid ``[0.0]7``
    from reading as ``0.07``.  Any decode error, overflow or non-finite
    entry declines, and :func:`from_document` of :func:`loads` then decodes
    the text and names every fault.
    """
    plain = _plain_operators(text)
    if plain is None:
        return from_document(loads(text))
    label, ops = plain
    return Representation(hamiltonian=ops[0], jumps=ops[1:], label=label)
