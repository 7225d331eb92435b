"""Span tracing of ``uqd`` from outside the package.

``Tracer.install`` replaces each listed public function, at every binding it
has in the loaded ``uqd.*`` modules (``from .sjed import partition`` makes
``equivalence.partition`` a second binding), with a wrapper that records a
span: name, parent span, command index, start and end.  Spans stay in memory
and are written out once, after the run.  No private function is wrapped:
the simulator's inner helpers run hundreds of times per trajectory and would
swamp the run.

A layer's self time is the time inside its wrapped functions not covered by
wrapped children; work in unwrapped helpers counts to the caller's layer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Callable, Dict, List

# Public functions per layer (module of ``uqd``).  ``models`` is negligible
# and not traced.
TRACED = {
    "cli": ("main",),
    "representation": ("parse", "liouvillian_matrix", "require_valid"),
    "linalg": (
        "superoperator_matrix",
        "matrix_exponential",
        "numerical_rank",
        "proportionality_coefficient",
    ),
    "sjed": ("partition", "are_jed", "composite_action"),
    "equivalence": (
        "evaluate",
        "same_liouvillian",
        "check_theorem1",
        "check_theorem2",
        "check_theorem3",
    ),
    "trajectory": ("simulate_ensemble", "simulate", "state_at", "coarse_grain"),
    "ensemble": ("compare_ensembles",),
}
LAYERS = tuple(TRACED)

NAME, PARENT, COMMAND, START, END, EXTRA = range(6)


def _extra(name: str, args, result):
    """Small per-span facts the metrics need, taken from arguments or result."""
    if name == "equivalence.evaluate":
        return args[0].dim
    if name == "linalg.superoperator_matrix":
        return int(result.nbytes)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.command = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.command, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            record[EXTRA] = _extra(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every binding of every listed function."""
        modules = [m for key, m in sys.modules.items() if key == "uqd" or key.startswith("uqd.")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"uqd.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                name, parent, command, start, end, extra = span
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "command": command, "start_ns": start, "end_ns": end,
                                     "extra": extra}) + "\n")


def _self_ns(spans: List[list]) -> List[int]:
    out = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


# Per-check metrics: name -> (traced function, "calls" or "ms"), counted
# under ``check`` commands and divided by the number of checks.
PER_CHECK = {
    "representation.liouvillian_calls": ("representation.liouvillian_matrix", "calls"),
    "representation.liouvillian_ms": ("representation.liouvillian_matrix", "ms"),
    "representation.require_valid_calls_per_check": ("representation.require_valid", "calls"),
    "linalg.superop_calls": ("linalg.superoperator_matrix", "calls"),
    "linalg.superop_ms": ("linalg.superoperator_matrix", "ms"),
    "linalg.rank_calls": ("linalg.numerical_rank", "calls"),
    "linalg.proportionality_calls": ("linalg.proportionality_coefficient", "calls"),
    "sjed.partition_calls": ("sjed.partition", "calls"),
    "sjed.partition_ms": ("sjed.partition", "ms"),
    "sjed.are_jed_calls": ("sjed.are_jed", "calls"),
    "sjed.composite_action_calls": ("sjed.composite_action", "calls"),
    "sjed.composite_action_ms": ("sjed.composite_action", "ms"),
    "equivalence.theorem1_calls": ("equivalence.check_theorem1", "calls"),
    "equivalence.theorem1_ms": ("equivalence.check_theorem1", "ms"),
    "equivalence.theorem2_ms": ("equivalence.check_theorem2", "ms"),
    "equivalence.theorem3_ms": ("equivalence.check_theorem3", "ms"),
    "cli.parse_ms": ("representation.parse", "ms"),
}
SIMULATING = ("simulate", "compare")


def layer_metrics(spans: List[list], commands: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``commands`` holds, per command index, its ``kind`` and, for simulating
    commands, ``ntraj``; simulate commands also carry ``jumps_per_traj``
    read from the written records.  Counts and times are normalised per
    check, per compare command, per simulated trajectory or per call, as
    ``perfbench/README.md`` lists.
    """
    kind = [c["kind"] for c in commands]
    n_check = kind.count("check")
    n_compare = kind.count("compare")
    n_traj = sum(c["ntraj"] * (2 if c["kind"] == "compare" else 1)
                 for c in commands if c["kind"] in SIMULATING)
    self_ns = _self_ns(spans)
    by_name: Dict[tuple, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault((span[NAME], kind[span[COMMAND]]), []).append(index)

    def dur(i: int) -> int:
        return spans[i][END] - spans[i][START]

    def under(name: str, *kinds: str) -> List[int]:
        return [i for k in kinds for i in by_name.get((name, k), ())]

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    def mean(values: list) -> float:
        return statistics.fmean(values) if values else 0.0

    m: Dict[str, tuple] = {}
    command_ns = sum(map(dur, under("cli.main", *set(kind))))
    for layer in LAYERS:
        layer_ns = sum(self_ns[i] for i, s in enumerate(spans) if s[NAME].startswith(layer + "."))
        m[f"{layer}.self_frac"] = (per(layer_ns, command_ns), "ratio")

    for name, (function, what) in PER_CHECK.items():
        found = under(function, "check")
        if what == "calls":
            m[name] = (per(len(found), n_check), "count")
        else:
            m[name] = (per(sum(map(dur, found)) / 1e6, n_check), "ms")
    superops = under("linalg.superoperator_matrix", "check")
    m["linalg.superop_mb_computed"] = (per(sum(spans[i][EXTRA] for i in superops) / 1e6, n_check),
                                       "MB")
    for dim in (4, 8, 16, 32):
        times = [dur(i) / 1e6 for i in under("equivalence.evaluate", "check")
                 if spans[i][EXTRA] == dim]
        m[f"equivalence.evaluate_ms.d{dim}"] = (statistics.median(times) if times else 0.0, "ms")

    write_s = []
    for index, command_kind in enumerate(kind):
        if command_kind == "simulate":
            main = sum(dur(i) for i in under("cli.main", "simulate") if spans[i][COMMAND] == index)
            inner = sum(dur(i) for i in under("trajectory.simulate_ensemble", "simulate")
                        if spans[i][COMMAND] == index)
            write_s.append((main - inner) / 1e9)
    m["cli.records_write_s"] = (mean(write_s), "s")
    m["representation.require_valid_calls_per_traj"] = (
        per(len(under("representation.require_valid", *SIMULATING)), n_traj), "count")
    expm = under("linalg.matrix_exponential", *SIMULATING)
    m["linalg.expm_calls"] = (per(len(expm), n_traj), "count")
    m["linalg.expm_ms"] = (per(sum(map(dur, expm)) / 1e6, n_traj), "ms")

    simulate_us = sorted(dur(i) / 1e3 for i in under("trajectory.simulate", *SIMULATING))
    p99 = statistics.quantiles(simulate_us, n=100)[98] if len(simulate_us) > 1 else 0.0
    m["trajectory.simulate_us.p50"] = (statistics.median(simulate_us) if simulate_us else 0.0, "us")
    m["trajectory.simulate_us.p99"] = (p99, "us")
    m["trajectory.jumps_per_traj"] = (
        mean([c["jumps_per_traj"] for c in commands if "jumps_per_traj" in c]), "count")
    state_at = under("trajectory.state_at", "compare")
    m["trajectory.state_at_calls"] = (per(len(state_at), n_compare), "count")
    m["trajectory.state_at_us"] = (per(sum(map(dur, state_at)) / 1e3, len(state_at)), "us")
    m["trajectory.coarse_grain_calls"] = (
        per(len(under("trajectory.coarse_grain", "compare")), n_compare), "count")

    compares = under("ensemble.compare_ensembles", "compare")
    m["ensemble.compare_self_ms"] = (per(sum(self_ns[i] for i in compares) / 1e6, len(compares)),
                                     "ms")
    m["ensemble.n_tests"] = (mean([c["n_tests"] for c in commands if "n_tests" in c]), "count")
    return m
