"""Benchmark of the ``uqd`` command line: decisions and simulated cross-checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 22 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``decide``: ``uqd check`` on seeded representation pairs at dims 4 to 32,
  then two simulated cross-checks of a dim-4 pair.
* ``ensemble-mixed``: the criterion-8c level-t1 qutrit pair (a dephasing,
  non-reset block) checked, simulated and compared.
* ``ensemble-reset``: the criterion-8c level-t3 qutrit pair (reset blocks
  only) checked, simulated and compared.

A run sets up three times, each in a fresh interpreter (import ``uqd``,
write the inputs), and reports the median as ``setup_s``.  It then measures
in one more fresh interpreter, so module-level caches start cold as in a
user's invocation: a closed loop, one command at a time from one process,
repeating the workload's session while the elapsed time is under
``--seconds``, with BLAS and ``--threads`` pinned to 1.  Each wall time is
rescaled to a nominal core speed, read by timing the kernels in ``speed.py``
just before and after it.
``--trace 1`` repeats the measured sessions in a traced interpreter and
reports per-layer metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it state the
machine, the inputs' sha256, the sample counts and the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import core_slowdown, rescaled_walls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("decide", "ensemble-mixed", "ensemble-reset")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "UQD_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
TIME_UNITS = {"s", "ms", "us"}


def _child(argv: list) -> str:
    """Run a worker to completion and return its standard output."""
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker {argv[0]} exited with {proc.returncode}")
    return proc.stdout


def _setup(workload: str, seed: int, work: Path) -> tuple[list, str]:
    """Set up ``SETUP_REPEATS`` times; return one timing record per set-up,
    with the core speed read around it, and the inputs' sha256."""
    records, digests = [], set()
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        before = core_slowdown()
        start = time.perf_counter()
        out = _child(["setup", "--workload", workload, "--seed", str(seed), "--work", str(work)])
        wall = time.perf_counter() - start
        records.append({"wall_s": wall, "bound": "interpreter", "slow_before": before,
                        "slow_after": core_slowdown()})
        digests.add(json.loads(out.strip().splitlines()[-1])["sha256"])
    if len(digests) != 1:
        raise SystemExit(f"perfbench: inputs differ between set-ups of one seed: {digests}")
    return records, digests.pop()


def _measure(work: Path, result: str, seconds: float = 0.0, sessions: int = 0,
             trace: bool = False) -> dict:
    argv = ["measure", "--work", str(work), "--result", result]
    argv += ["--sessions", str(sessions)] if sessions else ["--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    _child(argv)
    return json.loads((work / result).read_text(encoding="utf-8"))


def _end_to_end(commands: list, setups: list, peak_rss_mb: float, rescale: bool) -> dict:
    """End-to-end metrics; with ``rescale``, each wall time is rescaled to
    the nominal core speed measured around it."""
    def walls(records: list) -> list:
        return rescaled_walls(records) if rescale else [r["wall_s"] for r in records]

    timed = list(zip(commands, walls(commands)))
    checks = [w for c, w in timed if c["kind"] == "check"]
    simulated = sum(c["ntraj"] for c in commands if c["kind"] == "simulate")
    failed = sum(bool(c["problems"]) for c in commands)
    values = {
        "setup_s": (statistics.median(walls(setups)), "s"),
        "checks_per_s": (len(checks) / sum(checks), "pairs/s"),
        "check_p50_ms": (statistics.median(checks) * 1e3, "ms"),
        "check_p90_ms": (statistics.quantiles(checks, n=10, method="inclusive")[8] * 1e3, "ms"),
        "simulate_traj_per_s": (simulated / sum(w for c, w in timed if c["kind"] == "simulate"),
                                "traj/s"),
        "compare_s": (statistics.median(w for c, w in timed if c["kind"] == "compare"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / len(commands), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _slowdown(commands: list) -> float:
    """Time-weighted mean slowdown of the core over a run's commands."""
    return sum(c["wall_s"] for c in commands) / sum(rescaled_walls(commands))


def _per_layer(run: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced run, times rescaled by its mean slowdown."""
    scale = _slowdown(traced["commands"])
    metrics = {}
    for name, (value, unit) in traced["layers"].items():
        metrics[name] = {"value": value / scale if unit in TIME_UNITS else value, "unit": unit}
    overhead = sum(rescaled_walls(traced["commands"])) / sum(rescaled_walls(run["commands"]))
    metrics["trace.overhead_frac"] = {"value": overhead - 1.0, "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "uqd" / "__init__.py").is_file():
        print(f"perfbench: no uqd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "_work" / args.workload
    setups, sha = _setup(args.workload, args.seed, work)
    run = _measure(work, "run.json", seconds=args.seconds)
    commands = run["commands"]
    if args.trace:
        traced = _measure(work, "traced.json", sessions=run["sessions"], trace=True)
        metrics = _per_layer(run, traced)
        commands = commands + traced["commands"]
    else:
        metrics = _end_to_end(commands, setups, run["peak_rss_mb"], rescale=True)

    failures = [c for c in commands if c["problems"]]
    # A compare whose statistical verdict rejects an equivalent pair is a failed
    # operation; any other problem means an output is wrong.
    correct = all(c["kind"] == "compare" and c["exit"] == 1 for c in failures)
    unscaled = _end_to_end(run["commands"], setups, run["peak_rss_mb"], rescale=False)
    print(json.dumps({"machine": run["machine"], "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "inputs_sha256": sha,
        "sessions": run["sessions"],
        "elapsed_s": run["elapsed_s"],
        "samples": {k: sum(c["kind"] == k for c in run["commands"])
                    for k in ("check", "simulate", "compare")},
        "core_slowdown": _slowdown(run["commands"]),
        "unscaled": {name: m["value"] for name, m in unscaled.items()},
    }))
    for failure in failures[:10]:
        print(json.dumps({"failed": failure["kind"], "dim": failure["dim"],
                          "problems": failure["problems"]}))
    print(json.dumps({"correct": correct, "attempted": len(commands), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
