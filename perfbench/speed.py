"""How fast the core runs right now, from two fixed reference kernels.

On a host whose cores are shared with other tenants, the same code runs up
to 2x slower from one minute to the next, and per-run medians of identical
work spread 15-40 % across runs.  The benchmark therefore times two small
kernels between every two commands, and rescales each command's wall time to
a core that runs them at their nominal speed.  Interpreter-bound code slows
down by up to 2x while memory-bound code (the dim^4 superoperators of large
checks) barely slows, so both are read and each command is rescaled by the
reading of the kind of work that bounds it.  A change to ``uqd`` cannot
change the kernels, so rescaled times still move with the program and not
with the neighbours.
"""

from __future__ import annotations

import statistics
import time

# Kernel times on an uncontended core of the 2-vCPU Xeon the benchmark was
# built on: the fastest of many runs, in seconds.
INTERPRETER_NOMINAL_S = 0.6e-3
MEMORY_NOMINAL_S = 1.35e-3


def _interpreter_kernel() -> float:
    """Seconds for small complex products and dict updates, like the
    simulator's inner loop and the decision path at small dims."""
    import numpy as np

    small = np.full((3, 3), 0.5 + 0.1j)
    vector = np.full(3, 0.3 + 0.2j)
    cache: dict = {}
    start = time.perf_counter()
    acc = 0.0
    for i in range(250):
        amp = small @ vector
        acc += float(np.real(np.vdot(amp, amp)))
        cache[(0.5, i % 7)] = acc
    return time.perf_counter() - start


def _memory_kernel() -> float:
    """Seconds for a 5 MB Kronecker product, like the superoperators and
    Liouvillians of the decision path at large dims."""
    import numpy as np

    medium = np.full((24, 24), 0.01 - 0.02j)
    start = time.perf_counter()
    float(np.abs(np.kron(medium, medium)).sum())
    return time.perf_counter() - start


def core_slowdown() -> dict:
    """One reading of how slow the core runs now against its nominal speed,
    for interpreter-bound and for memory-bound work; each the median of
    three kernel runs.  2.0 means half the nominal speed."""
    return {
        "interpreter": sorted(_interpreter_kernel() for _ in range(3))[1] / INTERPRETER_NOMINAL_S,
        "memory": sorted(_memory_kernel() for _ in range(3))[1] / MEMORY_NOMINAL_S,
    }


def rescaled_walls(records: list, window: int = 2) -> list:
    """Each record's wall time on a core running at the nominal speed.

    A record names the kind of work that bounds it (``bound``).  Its slowdown
    is the median reading of that kind taken around it and around its
    ``window`` neighbours on each side; the median keeps one stray reading
    from rescaling a long command.
    """
    out = []
    for i, record in enumerate(records):
        near = records[max(0, i - window): i + window + 1]
        bound = record["bound"]
        readings = [r[key][bound] for r in near for key in ("slow_before", "slow_after")]
        out.append(record["wall_s"] / statistics.median(readings))
    return out
