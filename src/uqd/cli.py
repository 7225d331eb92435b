"""Command-line interface: machine-readable JSON on stdout, logs on stderr.

Exit codes: 0 success / verdict holds, 1 verdict fails, 2 usage error,
3 numerical or validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import ensemble as ens
from . import equivalence, models, representation, sjed, trajectory
from .errors import InputError, UqdError, ValidationError
from .linalg import Tolerance, as_operator, normalize
from .representation import (
    Representation,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

log = logging.getLogger("uqd")

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
THREADS_HELP = (
    "accepted and ignored: all trajectories of a run advance together in one process"
)
RECORD_BLOCK = 1024  # records formatted and written at a time
_EVENT = '{{"time": {!r}, "channel": {}}}'.format


def _common_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--atol", type=float, default=1e-10, help="absolute tolerance (default 1e-10)")
    parent.add_argument("--rtol", type=float, default=1e-10, help="relative tolerance (default 1e-10)")
    parent.add_argument("--pretty", action="store_true", help="indent JSON output")
    parent.add_argument("--quiet", action="store_true", help="suppress progress logs on stderr")
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``uqd`` argument parser, built once per process and shared by
    every :func:`main` call; parsing leaves it unchanged, so callers must
    not change it either."""
    parser = argparse.ArgumentParser(
        prog="uqd",
        description=(
            "Decide whether two jump-operator representations of a quantum master "
            "equation generate identical quantum trajectory ensembles, construct "
            "minimal and gauge-transformed representations, and cross-check the "
            "verdicts with a trajectory simulator."
        ),
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="theorem-level equivalence of two representations")
    p.add_argument("--rep-a", required=True, help="first representation (JSON file)")
    p.add_argument("--rep-b", required=True, help="second representation (JSON file)")
    p.add_argument("--level", choices=["qme", "t1", "t2", "t3"], default="t1",
                   help="which verdict drives the exit code (default t1)")
    p.add_argument("--perm-c", default=None,
                   help="force this 1-based block permutation in the theorem-3 check, e.g. '2,1'")
    p.add_argument("--all-perms", action="store_true",
                   help="enumerate all theorem-2 label permutations (capped at 10000)")

    p = sub.add_parser("sjed", parents=[common], help="equal-destination partition of one representation")
    p.add_argument("rep", help="representation (JSON file)")

    p = sub.add_parser("minimize", parents=[common], help="minimal representation with the same trajectories")
    p.add_argument("rep", help="representation (JSON file)")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")

    p = sub.add_parser("gauge", parents=[common], help="apply or extract block-isometry gauge transforms")
    p.add_argument("mode", choices=["apply", "extract"])
    p.add_argument("--rep", default=None, help="apply: minimal representation / extract: target representation")
    p.add_argument("--rep-min", default=None, help="extract: minimal reference representation")
    p.add_argument("--isometry", default=None, help="apply: block isometry (JSON file)")
    p.add_argument("--shift", type=float, default=0.0, help="apply: real Hamiltonian shift r")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")

    p = sub.add_parser("simulate", parents=[common], help="sample labelled trajectories")
    p.add_argument("rep", help="representation (JSON file)")
    p.add_argument("--psi0", default="0", help="basis index or JSON file with an amplitude vector")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--ntraj", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", required=True, help="output directory for records and manifest")

    p = sub.add_parser("compare-ensembles", parents=[common],
                       help="statistical comparison of two simulated ensembles")
    p.add_argument("--rep-a", required=True)
    p.add_argument("--rep-b", required=True)
    p.add_argument("--level", choices=["t1", "t2", "t3"], default="t1")
    p.add_argument("--ntraj", type=int, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--psi0", default="0", help="shared initial state (basis index or JSON file)")
    p.add_argument("--observables", default=None,
                   help="JSON file [{label, matrix}, ...]; default: basis projectors")
    p.add_argument("--times", default=None, help="comma-separated sample times (default tmax/2,tmax)")
    p.add_argument("--seed-a", type=int, default=1)
    p.add_argument("--seed-b", type=int, default=2)
    p.add_argument("--perm", default=None, help="1-based channel permutation for level t2")
    p.add_argument("--perm-c", default=None, help="1-based block permutation for level t3")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level (default 0.01)")
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)

    p = sub.add_parser("rate-scan", parents=[common],
                       help="exact worst-case rate and composite-action deviations")
    p.add_argument("--rep-a", required=True)
    p.add_argument("--rep-b", required=True)
    p.add_argument("--perm-c", default=None, help="1-based block pairing (default: greedy)")

    p = sub.add_parser("example", parents=[common], help="emit a built-in qutrit representation")
    p.add_argument("name", choices=["qutrit-a", "qutrit-a-minimal", "qutrit-b"])
    p.add_argument("--theta", type=float, default=None, help="mixing angle in radians")
    p.add_argument("--vartheta", type=float, default=None, help="dephasing split angle (qutrit-a)")
    p.add_argument("--phi", type=float, default=None, help="dephasing phase (qutrit-a)")
    p.add_argument("--gamma", default=None,
                   help="decay rate; for qutrit-b a comma-separated triple g1,g2,g3")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="dephasing weight")
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fig1", parents=[common],
                       help="CSV of qutrit-a jump rates over real-coefficient states")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--theta", type=float, default=np.pi / 6)
    p.add_argument("--vartheta", type=float, default=np.pi / 3)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--n-polar", type=int, default=61)
    p.add_argument("--n-azimuth", type=int, default=121)

    return parser


def _tolerance(args) -> Tolerance:
    return Tolerance(atol=args.atol, rtol=args.rtol)


def _read_text(path: str, what: str = "file") -> str:
    """The UTF-8 text of ``path``; one that is missing, unreadable or not
    UTF-8 is a usage error naming it."""
    file = Path(path)
    if not file.is_file():
        raise InputError(f"no such {what}: {path}")
    try:
        return file.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def _load_representation(path: str) -> Representation:
    return representation.parse(_read_text(path))


def _load_state(spec: str, dim: int) -> np.ndarray:
    try:
        index = int(spec)
    except ValueError:
        state = vector_from_json(representation.loads(_read_text(spec, "state file")), "psi0")
        if state.size != dim:
            raise InputError(f"psi0: length {state.size} does not match dim {dim}")
        normalize(state)  # a zero or non-finite state fails here, before any simulation
        return state
    if not 0 <= index < dim:
        raise InputError(f"basis index {index} outside 0..{dim - 1}")
    state = np.zeros(dim, dtype=complex)
    state[index] = 1.0
    return state


def _parse_perm(text: Optional[str], what: str) -> Optional[tuple[int, ...]]:
    if text is None:
        return None
    try:
        entries = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated list of 1-based indices")
    if not entries or min(entries) < 1:
        raise InputError(f"{what} must contain 1-based indices")
    return tuple(e - 1 for e in entries)


def _create(path: Path, **kwargs):
    """``path`` opened for writing; one that cannot be is a usage error naming it."""
    try:
        return path.open("w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _check_out_dir(path: Path) -> None:
    """Refuse, before any work, an output directory that cannot be made or
    written: ``path`` or its nearest existing ancestor must be a writable
    directory."""
    existing = path
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise InputError(f"cannot write {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise InputError(f"cannot write {path}: {existing} is not writable")


def _emit(doc: dict, args, out: Optional[str] = None) -> None:
    text = json.dumps(doc, indent=2 if args.pretty else None)
    if out:
        with _create(Path(out)) as fh:
            fh.write(text + "\n")
        log.info("wrote %s", out)
    else:
        print(text)


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    rep_a = _load_representation(args.rep_a)
    rep_b = _load_representation(args.rep_b)
    report = equivalence.evaluate(
        rep_a,
        rep_b,
        tol,
        block_perm=_parse_perm(args.perm_c, "--perm-c"),
        enumerate_all=args.all_perms,
    )
    doc = report.to_document()
    doc["label_a"] = rep_a.label
    doc["label_b"] = rep_b.label
    doc["level"] = args.level
    _emit(doc, args)
    holds = {
        "qme": report.same_qme,
        "t1": report.theorem1.holds,
        "t2": report.theorem2.holds,
        "t3": report.theorem3.holds,
    }[args.level]
    return EXIT_OK if holds else EXIT_VERDICT_FAILED


def _block_document(block) -> dict:
    if isinstance(block, sjed.ResetBlock):
        eigenvalues = sorted(
            (float(x) for x in np.linalg.eigvalsh(block.gamma_op)), reverse=True
        )
        return {
            "indices": [k + 1 for k in block.indices],
            "kind": "reset",
            "chi": vector_to_json(block.chi),
            "gamma": matrix_to_json(block.gamma_op),
            "gamma_eigenvalues": eigenvalues,
        }
    return {
        "indices": [k + 1 for k in block.indices],
        "kind": "non-reset",
        "weight": block.weight,
        "canonical_op": matrix_to_json(block.canonical_op),
    }


def _cmd_sjed(args) -> int:
    rep = _load_representation(args.rep)
    parts = sjed.partition(rep, _tolerance(args))
    doc = {
        "label": rep.label,
        "dim": rep.dim,
        "n_jumps": rep.n_jumps,
        "block_count": parts.block_count,
        "blocks": [_block_document(block) for block in parts.blocks],
    }
    _emit(doc, args)
    return EXIT_OK


def _cmd_minimize(args) -> int:
    rep = _load_representation(args.rep)
    minimal = sjed.minimize_representation(rep, _tolerance(args))
    _emit(representation.to_document(minimal), args, out=args.out)
    return EXIT_OK


def _isometry_to_document(iso: equivalence.BlockIsometry, shift: Optional[float]) -> dict:
    return {
        "matrix": matrix_to_json(iso.matrix),
        "row_blocks": [[i + 1 for i in blk] for blk in iso.row_blocks],
        "col_blocks": [[i + 1 for i in blk] for blk in iso.col_blocks],
        "block_map": [b + 1 for b in iso.block_map],
        "shift_r": shift,
    }


def _isometry_from_document(doc) -> equivalence.BlockIsometry:
    if not isinstance(doc, dict):
        raise InputError("isometry document must be a JSON object")
    for key in ("matrix", "row_blocks", "col_blocks", "block_map"):
        if key not in doc:
            raise InputError(f"missing field {key}")
    return equivalence.BlockIsometry(
        matrix=matrix_from_json(doc["matrix"], "matrix"),
        row_blocks=_indices(doc["row_blocks"], "row_blocks", depth=2),
        col_blocks=_indices(doc["col_blocks"], "col_blocks", depth=2),
        block_map=_indices(doc["block_map"], "block_map"),
    )


def _indices(obj, where: str, depth: int = 1):
    """0-based indices of a JSON list (or, at ``depth`` 2, list of lists) of 1-based ones."""
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list")
    if depth == 2:
        return tuple(_indices(blk, f"{where}[{n}]") for n, blk in enumerate(obj))
    if not all(type(i) is int and i >= 1 for i in obj):
        raise InputError(f"{where}: expected 1-based indices")
    return tuple(i - 1 for i in obj)


def _cmd_gauge(args) -> int:
    tol = _tolerance(args)
    if args.mode == "apply":
        if not args.rep or not args.isometry:
            raise InputError("gauge apply needs --rep and --isometry")
        rep_min = _load_representation(args.rep)
        iso = _isometry_from_document(representation.loads(_read_text(args.isometry)))
        result = equivalence.apply_gauge(rep_min, iso, shift=args.shift, tol=tol)
        _emit(representation.to_document(result), args, out=args.out)
        return EXIT_OK
    if not args.rep_min or not args.rep:
        raise InputError("gauge extract needs --rep-min and --rep")
    rep_min = _load_representation(args.rep_min)
    rep = _load_representation(args.rep)
    iso, shift = equivalence.extract_isometry(rep_min, rep, tol)
    _emit(_isometry_to_document(iso, shift), args, out=args.out)
    return EXIT_OK


def _require_seed(seed: int, flag: str) -> None:
    if seed < 0:
        raise InputError(f"{flag} must be a non-negative integer, got {seed}")


def record_lines(ensemble: trajectory.TrajectoryEnsemble) -> Iterator[str]:
    """The JSON lines of ``ensemble``'s records, ``RECORD_BLOCK`` rows to a
    string, byte for byte as ``json.dumps`` writes each record's dict: both
    write an int as ``int.__repr__`` and a finite float as ``float.__repr__``
    (the templates' ``!r``, once per number), and the simulator records only
    finite numbers."""
    head = json.dumps({"t_final": ensemble.t_final,
                       "initial_state": vector_to_json(ensemble.initial_state)})[1:-1]
    dim = ensemble.initial_state.size
    state = ("[" + ", ".join(["[{!r}, {!r}]"] * dim) + "]").format
    offsets, seeds = ensemble.offsets.tolist(), ensemble.seeds.tolist()
    for start in range(0, len(seeds), RECORD_BLOCK):
        rows = range(start, min(start + RECORD_BLOCK, len(seeds)))
        lo, hi = offsets[rows.start], offsets[rows.stop]
        events = list(map(_EVENT, ensemble.times[lo:hi].tolist(),
                          (ensemble.channels[lo:hi] + 1).tolist()))
        parts = np.asarray(ensemble.post_jump_states[lo:hi], dtype=complex)[..., None]
        parts = iter(parts.view(float).ravel().tolist())
        states = list(map(state, *[parts] * (2 * dim)))  # 2 * dim numbers per state
        yield "".join([
            f'{{"traj": {i}, "seed": {seeds[i]}, {head}, '
            f'"events": [{", ".join(events[a - lo:b - lo])}], '
            f'"post_jump_states": [{", ".join(states[a - lo:b - lo])}]}}\n'
            for i, a, b in zip(rows, offsets[rows.start:], offsets[rows.start + 1:])
        ])


def _cmd_simulate(args) -> int:
    _require_seed(args.seed, "--seed")
    tol = _tolerance(args)
    rep = _load_representation(args.rep)
    psi0 = _load_state(args.psi0, rep.dim)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    log.info("simulating %d trajectories", args.ntraj)
    ensemble = trajectory.simulate_ensemble(rep, psi0, args.tmax, args.ntraj, args.seed, tol=tol)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc.strerror}") from None
    records_path = out_dir / "trajectories.jsonl"
    with _create(records_path) as fh:
        fh.writelines(record_lines(ensemble))
    manifest = {
        "representation": representation.to_document(rep),
        "psi0": vector_to_json(psi0),
        "t_max": args.tmax,
        "n_traj": args.ntraj,
        "seed": args.seed,
        "records": records_path.name,
    }
    with _create(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2))
    print(json.dumps({"out": str(out_dir), "n_traj": args.ntraj,
                      "records": str(records_path)}, indent=2 if args.pretty else None))
    return EXIT_OK


def _load_observables(spec: Optional[str], dim: int) -> dict[str, np.ndarray]:
    if spec is None:
        return {f"p_{i}": np.diag(np.eye(dim, dtype=complex)[i]) for i in range(dim)}
    doc = representation.loads(_read_text(spec))
    if not isinstance(doc, list):
        raise InputError("observables file must be a JSON list of {label, matrix}")
    out = {}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise InputError(f"observables[{i}] must be an object with a 'matrix' field")
        label = entry.get("label", f"obs_{i}")
        if not isinstance(label, str):
            raise InputError(f"observables[{i}].label must be a string, got {label!r}")
        if label in out:
            raise InputError(f"observables[{i}].label {label!r} repeats an earlier label")
        where = f"observables[{i}].matrix"
        matrix = matrix_from_json(entry["matrix"], where)
        if matrix.shape != (dim, dim):
            raise InputError(f"{where}: shape {matrix.shape} does not match dim {dim}")
        try:
            out[label] = as_operator(matrix)
        except ValidationError as exc:
            raise InputError(f"{where}: {exc}") from None
    return out


def _cmd_compare(args) -> int:
    """Simulate both sides in one pass of `trajectory.simulate_ensembles`,
    whose rows are bit for bit those of two `simulate_ensemble` calls, and
    compare them.  Every argument is checked before the pass, the t2
    channel permutation too where the two channel counts agree."""
    _require_seed(args.seed_a, "--seed-a")
    _require_seed(args.seed_b, "--seed-b")
    perm = _parse_perm(args.perm, "--perm")
    block_perm = _parse_perm(args.perm_c, "--perm-c")
    tol = _tolerance(args)
    rep_a = _load_representation(args.rep_a)
    rep_b = _load_representation(args.rep_b)
    equivalence.require_same_dim(rep_a, rep_b)
    psi0 = _load_state(args.psi0, rep_a.dim)
    observables = _load_observables(args.observables, rep_a.dim)
    times = [args.tmax / 2, args.tmax]
    if args.times is not None:
        try:
            times = [float(x) for x in args.times.split(",")]
        except ValueError:
            raise InputError("--times must be a comma-separated list of numbers")
    ens.check_comparison(args.alpha, times, args.tmax)
    if args.level == "t2" and perm is not None and rep_a.n_jumps == rep_b.n_jumps:
        # different jump counts give the structural document instead
        equivalence.require_bijection(perm, rep_b.n_jumps, rep_a.n_jumps, "channel")
    # the block check needs both partitions, so it waits for compare_ensembles
    log.info("simulating 2 x %d trajectories in one pass", args.ntraj)
    ens_a, ens_b = trajectory.simulate_ensembles(
        [rep_a, rep_b], psi0, args.tmax, args.ntraj, [args.seed_a, args.seed_b], tol=tol
    )
    comparison = ens.compare_ensembles(
        ens_a,
        ens_b,
        rep_a,
        rep_b,
        observables,
        times,
        level=args.level,
        perm=perm,
        block_perm=block_perm,
        alpha=args.alpha,
        tol=tol,
    )
    _emit(comparison.to_document(), args)
    return EXIT_OK if comparison.verdict else EXIT_VERDICT_FAILED


def _cmd_rate_scan(args) -> int:
    tol = _tolerance(args)
    rep_a = _load_representation(args.rep_a)
    rep_b = _load_representation(args.rep_b)
    report = ens.rate_field_scan(
        rep_a,
        rep_b,
        block_perm=_parse_perm(args.perm_c, "--perm-c"),
        tol=tol,
    )
    _emit(report.to_document(), args)
    return EXIT_OK


def _cmd_example(args) -> int:
    kwargs = {}
    if args.theta is not None:
        kwargs["theta"] = args.theta
    if args.label is not None:
        kwargs["label"] = args.label
    if args.name == "qutrit-b":
        if args.vartheta is not None or args.phi is not None or args.lam is not None:
            raise InputError("qutrit-b only takes --theta and --gamma")
        if args.gamma is not None:
            try:
                rates = tuple(float(x) for x in str(args.gamma).split(","))
            except ValueError:
                rates = ()
            if len(rates) != 3:
                raise InputError("qutrit-b --gamma must be three comma-separated rates")
            kwargs["gammas"] = rates
        rep = models.qutrit_b(**kwargs)
    else:
        if args.gamma is not None:
            try:
                kwargs["gamma"] = float(args.gamma)
            except ValueError:
                raise InputError(f"--gamma must be a number for {args.name}")
        if args.lam is not None:
            kwargs["lam"] = args.lam
        if args.name == "qutrit-a":
            if args.vartheta is not None:
                kwargs["vartheta"] = args.vartheta
            if args.phi is not None:
                kwargs["phi"] = args.phi
            rep = models.qutrit_a(**kwargs)
        else:
            if args.vartheta is not None or args.phi is not None:
                raise InputError("qutrit-a-minimal only takes --theta, --gamma and --lambda")
            rep = models.qutrit_a_minimal(**kwargs)
    _emit(representation.to_document(rep), args, out=args.out)
    return EXIT_OK


def _cmd_fig1(args) -> int:
    # every row before the header, so a bad grid size writes nothing
    rows = list(
        ens.rate_curves(
            theta=args.theta,
            gamma=args.gamma,
            vartheta=args.vartheta,
            lam=args.lam,
            phi=args.phi,
            n_polar=args.n_polar,
            n_azimuth=args.n_azimuth,
        )
    )
    handle = _create(Path(args.out), newline="") if args.out else sys.stdout
    try:
        handle.write(f"# {ens.RATE_CURVE_CONVENTION}\n")
        writer = csv.writer(handle)
        writer.writerow(ens.FIG_RATE_COLUMNS)
        for row in rows:
            writer.writerow([f"{x:.12g}" for x in row])
    finally:
        if args.out:
            handle.close()
            log.info("wrote %s", args.out)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "sjed": _cmd_sjed,
    "minimize": _cmd_minimize,
    "gauge": _cmd_gauge,
    "simulate": _cmd_simulate,
    "compare-ensembles": _cmd_compare,
    "rate-scan": _cmd_rate_scan,
    "example": _cmd_example,
    "fig1": _cmd_fig1,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # the first call installs the stderr handler; every call sets the level
    logging.basicConfig(stream=sys.stderr, format="uqd: %(message)s")
    log.setLevel(logging.ERROR if args.quiet else logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except UqdError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
