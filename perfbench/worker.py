"""One fresh interpreter of a benchmark run: ``setup`` or ``measure``.

``setup`` imports ``uqd`` from the checkout, writes the workload's inputs and
its command plan, and prints the inputs' sha256.  ``measure`` drives the
plan's commands in process through ``uqd.cli.main(argv)``, one at a time
(a closed loop with one client), checks every output, and writes per-command
records, peak RSS and the stated machine to a JSON file.  With ``--trace``
the public functions of each layer are wrapped first (see ``tracer.py``).

Run by ``perfbench/run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from speed import core_slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Unit norm of recorded post-jump states, as written with 17 significant digits.
NORM_TOL = 1e-9
SHIFT_TOL = 1e-8


def _import_uqd():
    """Import ``uqd`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "uqd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uqd package under {src}")
    sys.path.insert(0, str(src))
    import uqd
    import uqd.cli

    if Path(uqd.__file__).resolve().parent != (src / "uqd").resolve():
        raise SystemExit(f"perfbench: imported uqd from {uqd.__file__}, not from {src}")
    return uqd


def _setup(args) -> None:
    _import_uqd()
    import inputs

    work = Path(args.work)
    sessions, sha = inputs.build(args.workload, args.seed, work / "inputs")
    plan = {"workload": args.workload, "seed": args.seed, "sha256": sha,
            "sessions": [[c.to_json() for c in session] for session in sessions]}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    print(json.dumps({"sha256": sha, "sessions": len(sessions)}))


# -- output checks ---------------------------------------------------------------


def _check_verdicts(doc: dict, expect: dict, code: int, level: str) -> list:
    problems = []
    got = {
        "same_qme": doc["same_qme"],
        "t1": doc["theorem1"]["holds"],
        "t2": doc["theorem2"]["holds"],
        "t3": doc["theorem3"]["holds"],
    }
    for key, value in got.items():
        if value != expect[key]:
            problems.append(f"{key} = {value}, expected {expect[key]}")
    want_code = 0 if expect["same_qme" if level == "qme" else level] else 1
    if code != want_code:
        problems.append(f"exit {code}, expected {want_code}")
    if expect.get("shift") is not None:
        shift = doc["theorem1"]["shift_r"]
        if shift is None or abs(shift - expect["shift"]) > SHIFT_TOL:
            problems.append(f"shift {shift}, expected {expect['shift']}")
    return problems


def _check_records(expect: dict) -> tuple[list, float]:
    """Problems with a ``uqd simulate`` output directory, and its mean jump count."""
    import numpy as np

    problems = []
    out = Path(expect["out"])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if manifest["n_traj"] != expect["ntraj"]:
        problems.append(f"manifest n_traj {manifest['n_traj']}")
    records = (out / manifest["records"]).read_text(encoding="utf-8").splitlines()
    if len(records) != expect["ntraj"]:
        problems.append(f"{len(records)} records, expected {expect['ntraj']}")
    t_max, n_channels, jumps = expect["tmax"], expect["n_channels"], 0
    for line in records:
        rec = json.loads(line)
        times = [e["time"] for e in rec["events"]]
        channels = [e["channel"] for e in rec["events"]]
        jumps += len(times)
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"trajectory {rec['traj']}: event times not sorted")
        if times and not (times[0] > 0.0 and times[-1] <= t_max):
            problems.append(f"trajectory {rec['traj']}: event time outside (0, {t_max}]")
        if any(not 1 <= c <= n_channels for c in channels):
            problems.append(f"trajectory {rec['traj']}: channel out of range")
        states = rec["post_jump_states"]
        if len(states) != len(times):
            problems.append(f"trajectory {rec['traj']}: {len(states)} states for {len(times)} jumps")
        for state in states:
            amp = np.asarray(state, dtype=float)
            if abs(float(np.sum(amp * amp)) - 1.0) > NORM_TOL:
                problems.append(f"trajectory {rec['traj']}: post-jump state not unit norm")
                break
    return problems[:5], jumps / max(1, len(records))


def _run_command(cli, command: dict, slot: int) -> dict:
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(command["argv"])
    wall = time.perf_counter() - start
    kind, expect = command["kind"], command["expect"]
    out = {"kind": kind, "slot": slot, "dim": command["dim"], "bound": command["bound"],
           "wall_s": wall, "exit": code}
    if "ntraj" in expect:
        out["ntraj"] = expect["ntraj"]
    problems = []
    if code not in (0, 1):
        problems.append(f"exit {code}")
    elif kind == "check":
        level = command["argv"][command["argv"].index("--level") + 1]
        problems = _check_verdicts(json.loads(sink.getvalue()), expect, code, level)
    elif kind == "simulate":
        problems, out["jumps_per_traj"] = _check_records(expect)
    else:
        doc = json.loads(sink.getvalue())
        out["n_tests"] = doc["n_tests"]
        if doc["verdict"] is not expect["verdict"] or code != 0:
            problems.append(f"compare verdict {doc['verdict']} (exit {code}), expected "
                            f"{expect['verdict']}; min p = "
                            f"{min(t['p_value'] for t in doc['ks_statistics'] + doc['count_tests']):.3g}")
    out["problems"] = problems
    return out


def _machine() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except Exception as exc:  # the build info layout varies between releases
            return f"unknown ({type(exc).__name__})"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": 1,
        "why_pinned": "2 shared cores: BLAS threads or a process pool of 2 would "
                      "measure the scheduler, so BLAS and uqd workers are pinned to 1",
    }


def _measure(args) -> None:
    uqd = _import_uqd()
    work = Path(args.work)
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sessions = plan["sessions"]
    records = []
    for _ in range(3):  # first calls pay for page faults and lazy numpy set-up
        reading = core_slowdown()
    start = time.perf_counter()
    done = 0
    # Whole sessions only, so every slot has as many samples as every other.
    while (done < args.sessions) if args.sessions else (time.perf_counter() - start < args.seconds):
        for slot, command in enumerate(sessions[done % len(sessions)]):
            if tracer is not None:
                tracer.command = len(records)
            record = _run_command(uqd.cli, command, slot)
            record["slow_before"], reading = reading, core_slowdown()
            record["slow_after"] = reading
            records.append(record)
        done += 1
    elapsed = time.perf_counter() - start
    result = {
        "sessions": done,
        "elapsed_s": elapsed,
        "commands": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.write(work / "spans.jsonl")
        result["layers"] = layer_metrics(tracer.spans, records)
        result["spans"] = len(tracer.spans)
    (work / args.result).write_text(json.dumps(result), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--sessions", type=int, default=0, help="run exactly this many sessions")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--result", required=True)
    args = parser.parse_args()
    _setup(args) if args.mode == "setup" else _measure(args)


if __name__ == "__main__":
    main()
