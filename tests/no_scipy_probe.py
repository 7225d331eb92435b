"""Run ``uqd`` with scipy and ``numpy.random`` blocked: ``matrix_exponential``,
``mean_state_check`` on a ``qutrit_a`` ensemble, and the ``check``,
``simulate`` and ``compare-ensembles`` commands.  ``check`` reads one
indented document, and ``compare-ensembles`` reads its initial state and
observables from JSON files, so both decoders run.

``python tests/no_scipy_probe.py`` needs only ``uqd``'s run-time
dependencies, so it also runs where the test extra is not installed.  It
prints one line and exits 0 when every step succeeds without scipy and
``numpy.random``, and ends in an error otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path


def main() -> int:
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    sys.modules["numpy.random"] = None  # uqd draws its uniforms in uqd.streams
    import numpy as np

    from uqd import models
    from uqd.cli import main as uqd_main
    from uqd.ensemble import mean_state_check
    from uqd.linalg import matrix_exponential
    from uqd.representation import matrix_to_json, serialize, vector_to_json
    from uqd.trajectory import simulate_ensemble

    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    if not np.allclose(matrix_exponential(1j * np.pi * sigma_x), -np.eye(2), atol=1e-12):
        raise SystemExit("matrix_exponential: exp(i pi sigma_x) is not -1")
    rep = models.qutrit_a()
    ensemble = simulate_ensemble(rep, np.array([0, 1, 0], dtype=complex), 2.0, 400, 5)
    report = mean_state_check(ensemble, rep, [0.5, 1.0, 2.0])
    if not report.ok:
        raise SystemExit(f"mean_state_check: deviation {report.max_deviation} above {report.bound}")
    with tempfile.TemporaryDirectory() as tmp:
        rep_a, rep_min = Path(tmp, "a.json"), Path(tmp, "min.json")
        psi0, observables = Path(tmp, "psi0.json"), Path(tmp, "observables.json")
        rep_a.write_text(serialize(rep))
        rep_min.write_text(serialize(models.qutrit_a_minimal(), indent=2))
        psi0.write_text(json.dumps(vector_to_json(np.array([0, 1, 0]))))
        observables.write_text(json.dumps([{"label": "p1", "matrix": matrix_to_json(np.diag([0, 1, 0]))}]))
        commands = [
            ["check", "--rep-a", str(rep_a), "--rep-b", str(rep_min), "--level", "t3"],
            ["simulate", str(rep_a), "--tmax", "1", "--ntraj", "20", "--out", str(Path(tmp, "runs"))],
            # one seed on both sides: identical ensembles cannot be rejected
            ["compare-ensembles", "--rep-a", str(rep_a), "--rep-b", str(rep_a), "--ntraj", "40",
             "--tmax", "0.5", "--psi0", str(psi0), "--observables", str(observables),
             "--seed-a", "3", "--seed-b", "3"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = uqd_main([*argv, "--quiet"])
            if code != 0:
                raise SystemExit(f"uqd {argv[0]} exited {code}")
    print("uqd ran without scipy and numpy.random")
    return 0


if __name__ == "__main__":
    sys.exit(main())
