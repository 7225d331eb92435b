"""Seeded inputs of the three workloads, built with numpy only.

Nothing here calls into ``uqd``: the representations, gauges and mixtures are
constructed from first principles, so a change to the package cannot change
what the benchmark feeds it.  Every representation is written in the
package's JSON wire format (complex entries as ``[re, im]`` pairs).

A workload is a list of *sessions*: lists of commands run one after
another, each with the outcome its construction fixes.  A run cycles
through the sessions.

* ``decide``: 35 ``uqd check`` commands (10 at dim 4, 15 at dim 8, 5 at dim
  16, 5 at dim 32; the same five family/structure slots at every dim, so jump
  counts do not vary with dim), then two simulated cross-checks of dim-4
  relabelled pairs; the checks repeat in every session, the cross-checks do
  not.
* ``ensemble-mixed`` / ``ensemble-reset``: the criterion-8c pair's verdict
  table (every level, both orders), one ``uqd simulate`` and one
  ``uqd compare-ensembles``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np


DECIDE_DIMS = (4, 8, 16, 32)
# Copies of the five family slots per dim in a session: 10/15/5/5 checks
# (29/43/14/14 %).  Sorted latencies then put the p50 in the middle of the
# dim-8 cluster and the p90 30 % into the dim-32 cluster, which is the middle
# of its second-fastest family (qme-gauge), away from every boundary.
DECIDE_COPIES = {4: 2, 8: 3, 16: 1, 32: 1}

# Families of decide pairs: (name, A's block structure, expected verdicts).
# A structure lists reset-block ranks ("r<rank>") and single-operator
# non-reset blocks ("n").
FAMILIES = (
    # block-isometry gauge with a real shift: trajectory-equivalent
    ("gauge", ("r3", "n", "n"), dict(same_qme=True, t1=True, t2=False, t3=True)),
    # relabelling with phases and a real shift: labelled-equivalent
    ("relabel", ("r2", "r1", "n"), dict(same_qme=True, t1=True, t2=True, t3=True)),
    # Lindblad gauge J -> J + c, H -> H + (c* J - c J^+)/(2i): same QME only
    ("qme-gauge", ("r2", "r2", "n", "n"), dict(same_qme=True, t1=False, t2=False, t3=False)),
    # unitary mixture of all jumps across blocks: same QME only
    ("cross-mix", ("r2", "r2", "n", "n"), dict(same_qme=True, t1=False, t2=False, t3=False)),
    # independent model: different QME
    ("unrelated", ("r2", "n"), dict(same_qme=False, t1=False, t2=False, t3=False)),
)
UNRELATED_B = ("r3", "r2", "n", "n")  # 7 jumps
EXPECTED = {name: verdicts for name, _, verdicts in FAMILIES}

CROSS_CHECK_DIM = 4
CROSS_CHECK_STRUCTURE = ("r2", "r1", "n")
CROSS_CHECK_SIMULATE_NTRAJ = 300
CROSS_CHECK_COMPARE_NTRAJ = 300
CROSS_CHECKS = 2
CROSS_CHECK_TMAX = 1.0
# Each decide session cross-checks its own rotated models, so the simulator's
# module caches miss on every cross-check, as in a fresh ``uqd`` process.
DECIDE_SESSIONS = 8

# compare-ensembles needs about 500 trajectories per side for its known
# rejection of these equivalent pairs (KS counts float-rounding atoms as
# distinct values) to show on every seed.
COMPARE_NTRAJ = 500
SIMULATE_NTRAJ = 200


@dataclass
class Command:
    """One ``uqd`` invocation with the outcome its inputs fix."""

    kind: str  # "check" | "simulate" | "compare"
    argv: List[str]
    expect: dict = field(default_factory=dict)
    dim: int = 0

    @property
    def bound(self) -> str:
        """Work that bounds the command: checks from dim 16 up spend most of
        their time in dim^4 superoperator products, the rest in the interpreter."""
        return "memory" if self.kind == "check" and self.dim >= 16 else "interpreter"

    def to_json(self) -> dict:
        return {"kind": self.kind, "argv": self.argv, "expect": self.expect, "dim": self.dim,
                "bound": self.bound}


# -- linear algebra on numpy only ---------------------------------------------


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _gauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    """Haar isometry (rows x cols) whose rows are all clearly nonzero."""
    while True:
        q, r = np.linalg.qr(_gauss(rng, rows, cols))
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        if np.min(np.linalg.norm(q, axis=1)) > 1e-2:
            return q


def _hermitian(rng, dim: int) -> np.ndarray:
    raw = _gauss(rng, dim, dim)
    return (raw + raw.conj().T) / (2.0 * np.sqrt(dim))


def _minimal_model(rng, dim: int, structure) -> tuple[np.ndarray, list, list]:
    """Hamiltonian, jumps and jump-index blocks of a minimally represented
    model: separated reset targets with orthonormal weight directions, and
    full-rank non-reset operators."""
    jumps: list = []
    blocks: list = []
    targets: list = []
    for kind in structure:
        start = len(jumps)
        if kind.startswith("r"):
            rank = int(kind[1:])
            while True:
                chi = _gauss(rng, dim)
                chi /= np.linalg.norm(chi)
                if all(abs(np.vdot(chi, old)) < 0.9 for old in targets):
                    break
            targets.append(chi)
            directions = _isometry(rng, dim, rank)
            for r in range(rank):
                rate = 0.3 + rng.random()
                jumps.append(np.sqrt(rate) * np.outer(chi, directions[:, r].conj()))
        else:
            op = _gauss(rng, dim, dim)
            jumps.append((0.5 + rng.random()) * op / np.linalg.norm(op))
        blocks.append(list(range(start, len(jumps))))
    return _hermitian(rng, dim), jumps, blocks


def _gauge(rng, ham, jumps, blocks):
    """Block-isometry gauge: each block grows by one operator, blocks are
    permuted, and the Hamiltonian takes a real shift."""
    out = []
    for alpha in rng.permutation(len(blocks)):
        cols = blocks[alpha]
        w = _isometry(rng, len(cols) + 1, len(cols))
        out.extend(sum(w[i, j] * jumps[c] for j, c in enumerate(cols)) for i in range(w.shape[0]))
    shift = float(rng.uniform(-1.0, 1.0))
    return ham + shift * np.eye(ham.shape[0]), out, shift


def _relabel(rng, ham, jumps):
    perm = [int(p) for p in rng.permutation(len(jumps))]
    phases = rng.uniform(0.0, 2 * np.pi, len(jumps))
    shift = float(rng.uniform(-1.0, 1.0))
    out = [np.exp(1j * phases[k]) * jumps[perm[k]] for k in range(len(jumps))]
    return ham + shift * np.eye(ham.shape[0]), out, shift, perm


def _qme_gauge(rng, ham, jumps):
    coeffs = 0.5 * _gauss(rng, len(jumps))
    eye = np.eye(ham.shape[0])
    extra = sum(c.conjugate() * j - c * j.conj().T for c, j in zip(coeffs, jumps))
    return ham + extra / 2j, [j + c * eye for c, j in zip(coeffs, jumps)]


def _cross_mix(rng, jumps):
    u = _isometry(rng, len(jumps), len(jumps))
    return [sum(u[i, k] * jumps[k] for k in range(len(jumps))) for i in range(len(jumps))]


def _matrix_json(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def representation_text(ham, jumps, label: str) -> str:
    doc = {
        "label": label,
        "dim": int(ham.shape[0]),
        "hamiltonian": _matrix_json(ham),
        "jumps": [_matrix_json(j) for j in jumps],
    }
    return json.dumps(doc)


# -- the built-in criterion-8c qutrit models, restated -------------------------


def _ket(i: int) -> np.ndarray:
    v = np.zeros(3, dtype=complex)
    v[i] = 1.0
    return v


def qutrit_a(vartheta: float = np.pi / 3, phi: float = 0.0):
    theta, gamma, lam = np.pi / 6, 1.0, 2.0
    zero, one, two = (_ket(i) for i in range(3))
    shared = (np.outer(two, two) - np.outer(zero, zero)) / np.sqrt(2.0)
    jumps = [
        np.sqrt(gamma) * np.outer(zero, one),
        np.sqrt(gamma) * np.outer(zero, two),
        np.sqrt(gamma) * np.outer(zero, (np.cos(theta) * one + np.sin(theta) * two).conj()),
        lam * np.cos(vartheta) * shared,
        lam * np.sin(vartheta) * np.exp(1j * phi) * shared,
    ]
    return np.zeros((3, 3), dtype=complex), jumps


def qutrit_b(theta: float = 0.0, gammas=(1.0, 0.5, 2.0)):
    g1, g2, g3 = gammas
    zero, one, two = (_ket(i) for i in range(3))
    chi_1 = np.cos(theta) * zero + np.sin(theta) * two
    chi_2 = -np.sin(theta) * zero + np.cos(theta) * two
    jumps = [
        np.sqrt(g1) * np.outer(chi_1, one),
        np.sqrt(g2) * np.outer(chi_1, one),
        np.sqrt(g3) * np.outer(chi_1, two),
        np.sqrt(g1 + g2) * np.outer(chi_2, one),
        np.sqrt(g3) * np.outer(chi_2, two),
    ]
    return np.zeros((3, 3), dtype=complex), jumps


# -- workload plans -------------------------------------------------------------


class Writer:
    """Writes input files under one directory and hashes every representation."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self._digest = hashlib.sha256()

    def rep(self, name: str, ham, jumps, label: str) -> str:
        text = representation_text(ham, jumps, label)
        self._digest.update(text.encode())
        return self.text(name, text)

    def text(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    @property
    def sha256(self) -> str:
        return self._digest.hexdigest()


def _decide_pair(writer: Writer, rng, dim: int, family: str, structure, tag: str) -> Command:
    ham, jumps, blocks = _minimal_model(rng, dim, structure)
    shift: Optional[float] = None
    if family == "gauge":
        ham_b, jumps_b, shift = _gauge(rng, ham, jumps, blocks)
    elif family == "relabel":
        ham_b, jumps_b, shift, _ = _relabel(rng, ham, jumps)
    elif family == "qme-gauge":
        ham_b, jumps_b = _qme_gauge(rng, ham, jumps)
    elif family == "cross-mix":
        ham_b, jumps_b = ham, _cross_mix(rng, jumps)
    else:
        ham_b, jumps_b, _ = _minimal_model(rng, dim, UNRELATED_B)
    path_a = writer.rep(f"{tag}-a.json", ham, jumps, f"{tag}-a")
    path_b = writer.rep(f"{tag}-b.json", ham_b, jumps_b, f"{tag}-b")
    expect = dict(EXPECTED[family], family=family, shift=shift)
    argv = ["check", "--rep-a", path_a, "--rep-b", path_b, "--level", "t1", "--quiet"]
    return Command("check", argv, expect, dim)


def _cross_check(writer: Writer, rng, seed: int, k: int) -> List[Command]:
    """Simulated t2 cross-check of a dim-4 relabelled pair.

    The model is one fixed representation seen in a seeded Haar basis, with
    the initial state rotated alongside, so jump statistics and the
    simulator's step count are the same for every seed.
    """
    ham0, jumps0, _ = _minimal_model(_rng(0x5EED), CROSS_CHECK_DIM, CROSS_CHECK_STRUCTURE)
    u = _isometry(rng, CROSS_CHECK_DIM, CROSS_CHECK_DIM)
    ham = u @ ham0 @ u.conj().T
    jumps = [u @ j @ u.conj().T for j in jumps0]
    ham_b, jumps_b, _, perm = _relabel(rng, ham, jumps)
    tag = f"xcheck{k}"
    path_a = writer.rep(f"{tag}-a.json", ham, jumps, f"{tag}-a")
    path_b = writer.rep(f"{tag}-b.json", ham_b, jumps_b, f"{tag}-b")
    psi0 = writer.text(f"{tag}-psi0.json", json.dumps(_matrix_json(u[:, :1].T)[0]))
    n, tmax = CROSS_CHECK_SIMULATE_NTRAJ, CROSS_CHECK_TMAX
    stream = seed * DECIDE_SESSIONS * CROSS_CHECKS + k
    seed_a, seed_b = 2 * stream + 1, 2 * stream + 2
    out_dir = str(writer.root / f"{tag}-records")
    simulate = Command(
        "simulate",
        ["simulate", path_a, "--psi0", psi0, "--tmax", str(tmax), "--ntraj", str(n),
         "--seed", str(seed_a), "--threads", "1", "--out", out_dir, "--quiet"],
        {"ntraj": n, "tmax": tmax, "n_channels": len(jumps), "out": out_dir},
        CROSS_CHECK_DIM,
    )
    n = CROSS_CHECK_COMPARE_NTRAJ
    compare = Command(
        "compare",
        ["compare-ensembles", "--rep-a", path_a, "--rep-b", path_b, "--level", "t2",
         "--perm", ",".join(str(p + 1) for p in perm), "--ntraj", str(n), "--tmax", str(tmax),
         "--psi0", psi0, "--seed-a", str(seed_a), "--seed-b", str(seed_b), "--threads", "1",
         "--quiet"],
        {"verdict": True, "ntraj": n},
        CROSS_CHECK_DIM,
    )
    return [simulate, compare]


def decide_plan(writer: Writer, seed: int) -> List[List[Command]]:
    rng = _rng(seed)
    checks = []
    for dim in DECIDE_DIMS:
        for copy in range(DECIDE_COPIES[dim]):
            for family, structure, _ in FAMILIES:
                tag = f"d{dim}-{family}-{copy}"
                checks.append(_decide_pair(writer, rng, dim, family, structure, tag))
    checks = [checks[i] for i in rng.permutation(len(checks))]
    sessions = []
    for session in range(DECIDE_SESSIONS):
        cross = []
        for k in range(session * CROSS_CHECKS, (session + 1) * CROSS_CHECKS):
            cross += _cross_check(writer, rng, seed, k)
        sessions.append(checks + cross)
    return sessions


def ensemble_plan(writer: Writer, seed: int, workload: str) -> List[List[Command]]:
    """Criterion-8c pair, settings and observables; only the simulator seeds
    come from the workload seed."""
    if workload == "ensemble-mixed":
        rep_a, rep_b = qutrit_a(), qutrit_a(vartheta=1.1, phi=2.3)
        tmax, times, level, extra = 2.0, "0.5,1.0,2.0", "t1", []
    else:
        rep_a, rep_b = qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0)), qutrit_b(theta=np.pi / 2)
        tmax, times, level, extra = 1.0, "0.5,1.0", "t3", ["--perm-c", "2,1"]
    path_a = writer.rep("a.json", *rep_a, f"{workload}-a")
    path_b = writer.rep("b.json", *rep_b, f"{workload}-b")
    observables = writer.text(
        "observables.json",
        json.dumps([
            {"label": "p0", "matrix": _matrix_json(np.diag([1.0, 0, 0]))},
            {"label": "p1", "matrix": _matrix_json(np.diag([0, 1.0, 0]))},
        ]),
    )
    seed_a, seed_b = 2 * seed + 1, 2 * seed + 2
    out_dir = str(writer.root / "records")
    # The pair's whole verdict table: every level, both orders.
    checks = [
        Command(
            "check",
            ["check", "--rep-a", first, "--rep-b", second, "--level", lvl, *extra, "--quiet"],
            dict(same_qme=True, t1=True, t2=False, t3=True, family=workload, shift=0.0),
            3,
        )
        for first, second in ((path_a, path_b), (path_b, path_a))
        for lvl in ("qme", "t1", "t2", "t3")
    ]
    n = SIMULATE_NTRAJ
    simulate = Command(
        "simulate",
        ["simulate", path_a, "--psi0", "1", "--tmax", str(tmax), "--ntraj", str(n),
         "--seed", str(seed_a), "--threads", "1", "--out", out_dir, "--quiet"],
        {"ntraj": n, "tmax": tmax, "n_channels": len(rep_a[1]), "out": out_dir},
        3,
    )
    n = COMPARE_NTRAJ
    compare = Command(
        "compare",
        ["compare-ensembles", "--rep-a", path_a, "--rep-b", path_b, "--level", level, *extra,
         "--ntraj", str(n), "--tmax", str(tmax), "--psi0", "1", "--observables", observables,
         "--times", times, "--seed-a", str(seed_a), "--seed-b", str(seed_b), "--threads", "1",
         "--quiet"],
        {"verdict": True, "ntraj": n},
        3,
    )
    return [[*checks, simulate, compare]]


def build(workload: str, seed: int, root: Path) -> tuple[List[List[Command]], str]:
    """Write the workload's inputs under ``root``; return its sessions and
    the sha256 of every representation document written, in order."""
    writer = Writer(root)
    if workload == "decide":
        sessions = decide_plan(writer, seed)
    else:
        sessions = ensemble_plan(writer, seed, workload)
    return sessions, writer.sha256
