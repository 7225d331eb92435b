import importlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import uqd
from uqd import models, schemas, trajectory
from uqd.cli import main, record_lines
from uqd.ensemble import compare_ensembles
from uqd.representation import (
    Representation,
    from_document,
    matrix_to_json,
    serialize,
    vector_to_json,
)
from uqd.trajectory import TrajectoryEnsemble
from helpers import close_targets, random_unitary, tilted


def run(capsys, *argv):
    code = main([*argv, "--quiet"])
    out = capsys.readouterr().out
    return code, out


def run_probe(probe, argv):
    """Run ``python -c probe *argv`` in a fresh interpreter on this ``uqd``."""
    src = os.path.dirname(os.path.dirname(uqd.__file__))
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": env_path},
        timeout=120,
    )


def replace_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` at every binding it has in the loaded ``uqd.*``
    modules, as a tracer wrapping it would."""
    for key, module in list(sys.modules.items()):
        if key == "uqd" or key.startswith("uqd."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def write_rep(tmp_path, rep, name):
    path = tmp_path / name
    path.write_text(serialize(rep))
    return str(path)


@pytest.fixture
def rep_files(tmp_path):
    a = write_rep(tmp_path, models.qutrit_a(), "a.json")
    a_min = write_rep(tmp_path, models.qutrit_a_minimal(), "a_min.json")
    return a, a_min


def validate_schema(doc, name):
    jsonschema.validate(doc, schemas.load(name))


class TestExample:
    @pytest.mark.parametrize("name", ["qutrit-a", "qutrit-a-minimal", "qutrit-b"])
    def test_emits_valid_representation(self, capsys, name):
        code, out = run(capsys, "example", name)
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "representation")
        rep = from_document(doc)
        assert rep.dim == 3

    def test_parameter_overrides(self, capsys):
        code, out = run(capsys, "example", "qutrit-a", "--theta", "0.0", "--gamma", "2.0")
        assert code == 0
        rep = from_document(json.loads(out))
        assert rep.jumps[0][0, 1] == pytest.approx(np.sqrt(2.0))

    def test_qutrit_b_takes_rate_triple(self, capsys):
        code, out = run(capsys, "example", "qutrit-b", "--gamma", "1.0,2.0,3.0")
        assert code == 0
        rep = from_document(json.loads(out))
        assert rep.n_jumps == 5

    @pytest.mark.parametrize("gamma", ["nope", "1,2", "1,2,3,4"])
    def test_bad_gamma_is_usage_error(self, capsys, gamma):
        code, _ = run(capsys, "example", "qutrit-b", "--gamma", gamma)
        assert code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["example", "qutrit-a", "--frobnicate"])
        assert exc.value.code == 2


class TestSjed:
    def test_partition_report(self, capsys, rep_files):
        rep_a, _ = rep_files
        code, out = run(capsys, "sjed", rep_a)
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "partition_report")
        assert doc["block_count"] == 2
        assert doc["blocks"][0]["indices"] == [1, 2, 3]
        assert doc["blocks"][0]["kind"] == "reset"
        assert doc["blocks"][1]["indices"] == [4, 5]
        assert doc["blocks"][1]["kind"] == "non-reset"
        assert doc["blocks"][1]["weight"] == pytest.approx(2.0)

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(capsys, "sjed", "missing.json")
        assert code == 2

    def test_malformed_document_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 3}")
        code, _ = run(capsys, "sjed", str(bad))
        assert code == 2


class TestCheck:
    def test_theorem1_holds(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(capsys, "check", "--rep-a", rep_a, "--rep-b", rep_min, "--level", "t1")
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "equivalence_report")
        assert doc["theorem1"]["holds"] is True
        assert doc["theorem1"]["block_perm"] == [1, 2]
        assert doc["theorem1"]["shift_r"] == pytest.approx(0.0)

    def test_theorem2_fails_with_diagnostic(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(capsys, "check", "--rep-a", rep_a, "--rep-b", rep_min, "--level", "t2")
        assert code == 1
        doc = json.loads(out)
        assert "jump counts differ (5 vs 3)" in doc["theorem2"]["diagnostics"]

    def test_qme_level(self, capsys, rep_files, tmp_path):
        rep_a, _ = rep_files
        other = write_rep(tmp_path, models.qutrit_a(gamma=2.0), "other.json")
        code, out = run(capsys, "check", "--rep-a", rep_a, "--rep-b", other, "--level", "qme")
        assert code == 1
        assert json.loads(out)["same_qme"] is False

    @pytest.mark.parametrize("level", ["qme", "t1", "t2", "t3"])
    def test_loose_overlapping_classes_give_a_document(self, capsys, tmp_path, level):
        # at rtol 0.1 these jumps form overlapping phase classes, but the
        # generators differ, so theorem 2 fails with theorem 1 and no class
        # is tested
        one = write_rep(tmp_path, tilted(0.0, 0.15), "one.json")
        two = write_rep(tmp_path, tilted(0.075, 0.2), "two.json")
        code, out = run(
            capsys, "check", "--rep-a", one, "--rep-b", two, "--level", level, "--rtol", "0.1"
        )
        assert code == 1
        doc = json.loads(out)
        validate_schema(doc, "equivalence_report")
        assert doc["same_qme"] is False
        assert doc["theorem2"]["diagnostics"] == ["theorem 1 fails"]

    def test_forced_block_permutation(self, capsys, tmp_path):
        tilde = write_rep(tmp_path, models.qutrit_b(theta=0.0, gammas=(0.7, 0.8, 2.0)), "t.json")
        rot = write_rep(
            tmp_path, models.qutrit_b(theta=np.pi / 2, gammas=(1.0, 0.5, 2.0)), "r.json"
        )
        code, out = run(
            capsys, "check", "--rep-a", tilde, "--rep-b", rot, "--level", "t3",
            "--perm-c", "2,1",
        )
        assert code == 0
        assert json.loads(out)["theorem3"]["holds"] is True

    def test_all_perms_enumeration(self, capsys, tmp_path):
        one = write_rep(tmp_path, models.qutrit_a(theta=0.0, phi=0.1), "one.json")
        two = write_rep(tmp_path, models.qutrit_a(theta=0.0, phi=0.4), "two.json")
        code, out = run(
            capsys, "check", "--rep-a", one, "--rep-b", two, "--level", "t2", "--all-perms"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem2"]["multiple"] is True
        assert len(doc["theorem2"]["matchings"]) >= 2


class TestMinimize:
    def test_writes_minimal_representation(self, capsys, rep_files, tmp_path):
        rep_a, _ = rep_files
        out_path = tmp_path / "minimal.json"
        code, _ = run(capsys, "minimize", rep_a, "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        validate_schema(doc, "representation")
        assert len(doc["jumps"]) == 3


    @pytest.mark.parametrize("angle", [1e-4, 1e-5, 1e-6, 1e-8])
    def test_close_reset_targets_keep_the_qme(self, capsys, tmp_path, angle):
        # J_2 resets onto a target at ``angle`` from J_1's, so the two share
        # no block, and the minimal form must still pass ``check``
        path = write_rep(tmp_path, close_targets(angle), "close.json")
        out_path = tmp_path / "minimal.json"
        assert run(capsys, "minimize", path, "--out", str(out_path))[0] == 0
        code, out = run(capsys, "check", "--rep-a", path, "--rep-b", str(out_path))
        doc = json.loads(out)
        assert doc["same_qme"] is True and doc["theorem1"]["holds"] is True
        assert code == 0

    def test_weak_reset_weight_drops_at_the_callers_atol(self, capsys, tmp_path):
        # one reset block with weights 1 and 1e-8: at atol 1e-6 the weak
        # member is dropped, and its 1e-8 share is within that tolerance
        jumps = [np.diag([1.0, 0.0]), 1e-4 * np.eye(2, k=1)]
        path = write_rep(tmp_path, Representation(hamiltonian=None, jumps=jumps), "weak.json")
        out_path = tmp_path / "minimal.json"
        assert run(capsys, "minimize", path, "--atol", "1e-6", "--out", str(out_path))[0] == 0
        assert len(json.loads(out_path.read_text())["jumps"]) == 1
        code, out = run(capsys, "check", "--rep-a", path, "--rep-b", str(out_path), "--atol", "1e-6")
        assert code == 0 and json.loads(out)["theorem1"]["holds"] is True


class TestGauge:
    def test_extract_and_apply_roundtrip(self, capsys, rep_files, tmp_path):
        rep_a, rep_min = rep_files
        code, out = run(capsys, "gauge", "extract", "--rep-min", rep_min, "--rep", rep_a)
        assert code == 0
        iso_doc = json.loads(out)
        validate_schema(iso_doc, "isometry")
        assert iso_doc["block_map"] == [1, 2]
        assert iso_doc["shift_r"] == pytest.approx(0.0)
        iso_path = tmp_path / "iso.json"
        iso_path.write_text(json.dumps(iso_doc))
        code, out = run(
            capsys, "gauge", "apply", "--rep", rep_min, "--isometry", str(iso_path),
            "--shift", "0.0",
        )
        assert code == 0
        rebuilt = from_document(json.loads(out))
        original = models.qutrit_a()
        for built, reference in zip(rebuilt.jumps, original.jumps):
            assert np.max(np.abs(built - reference)) < 1e-9

    def test_inequivalent_extract_is_numeric_error(self, capsys, rep_files, tmp_path):
        _, rep_min = rep_files
        other = write_rep(tmp_path, models.qutrit_a(gamma=2.0), "other.json")
        code, _ = run(capsys, "gauge", "extract", "--rep-min", rep_min, "--rep", other)
        assert code == 3

    def test_non_isometric_apply_is_numeric_error(self, capsys, rep_files, tmp_path):
        rep_a, rep_min = rep_files
        _, out = run(capsys, "gauge", "extract", "--rep-min", rep_min, "--rep", rep_a)
        iso_doc = json.loads(out)
        iso_doc["matrix"][0][0] = [5.0, 0.0]
        iso_path = tmp_path / "bad_iso.json"
        iso_path.write_text(json.dumps(iso_doc))
        code, _ = run(capsys, "gauge", "apply", "--rep", rep_min, "--isometry", str(iso_path))
        assert code == 3

    def test_missing_flags_are_usage_errors(self, capsys, rep_files):
        rep_a, _ = rep_files
        code, _ = run(capsys, "gauge", "apply", "--rep", rep_a)
        assert code == 2


class TestSimulate:
    def test_records_and_manifest(self, capsys, tmp_path, rep_files):
        rep_a, _ = rep_files
        out_dir = tmp_path / "runs"
        code, _ = run(
            capsys, "simulate", rep_a, "--psi0", "1", "--tmax", "1.0",
            "--ntraj", "5", "--seed", "7", "--threads", "1", "--out", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        validate_schema(manifest, "ensemble_manifest")
        lines = (out_dir / "trajectories.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            validate_schema(json.loads(line), "trajectory_record")

    def test_dark_initial_state_writes_empty_records(self, capsys, tmp_path):
        # single decay from |0> never jumps: every record's arrays are empty
        decay = Representation(hamiltonian=None, jumps=[np.eye(2, k=1, dtype=complex)])
        out_dir = tmp_path / "runs"
        code, _ = run(
            capsys, "simulate", write_rep(tmp_path, decay, "decay.json"), "--psi0", "0",
            "--tmax", "1.0", "--ntraj", "3", "--seed", "7", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "trajectories.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            validate_schema(record, "trajectory_record")
            assert record["events"] == [] and record["post_jump_states"] == []

    def test_record_i_holds_row_i(self, capsys, tmp_path, rep_files):
        # records are sliced from one ensemble by its row offsets; an
        # off-by-one there would hand each record a neighbour's events
        rep_a, _ = rep_files
        out_dir = tmp_path / "runs"
        code, _ = run(
            capsys, "simulate", rep_a, "--psi0", "1", "--tmax", "2.0",
            "--ntraj", "8", "--seed", "7", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
        assert len(lines) == 8
        sizes = set()
        for i, line in enumerate(lines):
            record = json.loads(line)
            seed = trajectory.trajectory_seed(7, i)
            row = trajectory.simulate(models.qutrit_a(), np.eye(3)[1], 2.0, seed)
            assert record["traj"] == i and record["seed"] == seed
            assert [event["time"] for event in record["events"]] == row.times.tolist()
            assert [event["channel"] for event in record["events"]] == (row.channels + 1).tolist()
            posts = np.array(record["post_jump_states"], dtype=float).reshape(-1, 3, 2)
            assert np.array_equal(posts[..., 0] + 1j * posts[..., 1], row.post_jump_states)
            sizes.add(row.times.size)
        assert len(sizes) > 1 and max(sizes) > 0

    def test_byte_identical_reruns(self, capsys, tmp_path, rep_files):
        rep_a, _ = rep_files
        first = tmp_path / "one"
        second = tmp_path / "two"
        for out_dir in (first, second):
            code, _ = run(
                capsys, "simulate", rep_a, "--psi0", "1", "--tmax", "1.0",
                "--ntraj", "4", "--seed", "9", "--threads", "1", "--out", str(out_dir),
            )
            assert code == 0
        assert (first / "trajectories.jsonl").read_bytes() == (
            second / "trajectories.jsonl"
        ).read_bytes()

    def test_state_file_input(self, capsys, tmp_path, rep_files):
        rep_a, _ = rep_files
        psi_path = tmp_path / "psi.json"
        amp = 1 / np.sqrt(2)
        psi_path.write_text(json.dumps([[amp, 0.0], [amp, 0.0], [0.0, 0.0]]))
        out_dir = tmp_path / "runs2"
        code, _ = run(
            capsys, "simulate", rep_a, "--psi0", str(psi_path), "--tmax", "0.5",
            "--ntraj", "2", "--seed", "1", "--threads", "1", "--out", str(out_dir),
        )
        assert code == 0


def reference_lines(ensemble):
    """Each record of ``ensemble`` as ``json.dumps`` writes its dict: the
    reference that `record_lines` must match byte for byte."""
    offsets, initial = ensemble.offsets.tolist(), vector_to_json(ensemble.initial_state)
    times, channels = ensemble.times.tolist(), (ensemble.channels + 1).tolist()
    for i, (seed, lo, hi) in enumerate(zip(ensemble.seeds.tolist(), offsets, offsets[1:])):
        record = {
            "traj": i,
            "seed": seed,
            "t_final": ensemble.t_final,
            "initial_state": initial,
            "events": [{"time": time, "channel": channel} for time, channel
                       in zip(times[lo:hi], channels[lo:hi])],
            "post_jump_states": matrix_to_json(ensemble.post_jump_states[lo:hi]),
        }
        yield json.dumps(record) + "\n"


class TestRecordFormat:
    """`record_lines` against the ``json.dumps`` reference, line by line."""

    # shortest reprs in exponent form, subnormal, signed zero, extremes
    VALUES = (1e-05, 1e+16, 5e-324, -0.0, 1.7976931348623157e+308, 1.5e-300, 0.1, 1 / 3)
    SEEDS = (0, 2**63, 2**64 - 1, 2**70, 7)

    @classmethod
    def hand_built(cls, dim, t_final, counts):
        # events cycle through VALUES, in times and in both parts of each state
        n_events = sum(counts)
        values = np.resize(cls.VALUES, n_events * (2 * dim + 1))
        return TrajectoryEnsemble(
            initial_state=np.resize(cls.VALUES[::-1], 2 * dim).view(complex),
            t_final=t_final,
            seeds=np.array(cls.SEEDS[: len(counts)], dtype=object),
            offsets=np.concatenate([[0], np.cumsum(counts)]),
            times=values[:n_events],
            channels=np.arange(n_events) % 3,
            post_jump_states=values[n_events:].copy().view(complex).reshape(n_events, dim),
        )

    @pytest.mark.parametrize("dim", [1, 3, 4])
    @pytest.mark.parametrize("block", [1, 2, 1024])
    @pytest.mark.parametrize("t_final", [2.0, 1e+16])
    def test_matches_reference(self, monkeypatch, dim, block, t_final):
        # rows without events first, in the middle and last
        monkeypatch.setattr(uqd.cli, "RECORD_BLOCK", block)
        ensemble = self.hand_built(dim, t_final, [0, 3, 0, 1, 0])
        lines = "".join(record_lines(ensemble)).splitlines(keepends=True)
        assert lines == list(reference_lines(ensemble))
        assert [json.loads(line)["seed"] for line in lines] == list(self.SEEDS)

    def test_one_string_per_block(self, monkeypatch):
        monkeypatch.setattr(uqd.cli, "RECORD_BLOCK", 2)
        blocks = list(record_lines(self.hand_built(3, 2.0, [0, 3, 0, 1, 0])))
        assert [block.count("\n") for block in blocks] == [2, 2, 1]

    def test_no_rows(self):
        assert list(record_lines(self.hand_built(2, 1.0, []))) == []

    def test_dense_simulate_matches_reference(self, capsys, tmp_path):
        # every entry of every post-jump state is a full-precision float
        u = random_unitary(4, 11)
        jumps = [u @ np.diag(np.sqrt([0.3, 0.7, 1.1, 0.2 * k + 0.1])) @ u.conj().T @ np.eye(4, k=k)
                 for k in range(3)]
        rep = Representation(hamiltonian=u @ np.diag([0.0, 0.4, 1.3, 2.1]) @ u.conj().T,
                             jumps=jumps)
        psi0 = tmp_path / "psi0.json"
        psi0.write_text(json.dumps(vector_to_json(u[:, 0])))
        out_dir = tmp_path / "runs"
        code, _ = run(
            capsys, "simulate", write_rep(tmp_path, rep, "dense.json"), "--psi0", str(psi0),
            "--tmax", "2.0", "--ntraj", "50", "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        ensemble = trajectory.simulate_ensemble(rep, u[:, 0], 2.0, 50, 5)
        assert ensemble.times.size > 50
        lines = (out_dir / "trajectories.jsonl").read_text().splitlines(keepends=True)
        assert lines == list(reference_lines(ensemble))


class TestRateScan:
    def test_equivalent_pair(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(capsys, "rate-scan", "--rep-a", rep_a, "--rep-b", rep_min)
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "rate_field_report")
        assert doc["max_total_rate_dev"] < 1e-10
        assert doc["max_block_action_dev"] < 1e-10

    def test_sample_count_is_an_unknown_argument(self, capsys, rep_files):
        # the scan samples no states, so it takes no --n
        rep_a, rep_min = rep_files
        with pytest.raises(SystemExit) as exc:
            main(["rate-scan", "--rep-a", rep_a, "--rep-b", rep_min, "--n", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 5" in capsys.readouterr().err


class TestCompareEnsembles:
    def test_self_comparison_cli(self, capsys, rep_files):
        rep_a, _ = rep_files
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(
                capsys, "compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_a,
                "--level", "t1", "--ntraj", "80", "--tmax", "0.5", "--psi0", "1",
                "--seed-a", "3", "--seed-b", "4", "--threads", "1",
            )
        assert [str(w.message) for w in caught] == []
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "ensemble_comparison")
        # samples are snapped to the default tolerance grid before each KS test
        assert doc["ks_statistics"]
        assert all(e["ks_resolution"] == 1e-10 for e in doc["ks_statistics"])
        # tied samples defeat scipy's exact p-value; the fallback is recorded
        assert {e["ks_method"] for e in doc["ks_statistics"]} == {"exact", "asymp"}

    COMPARE = ("--level", "t3", "--ntraj", "150", "--tmax", "1.0", "--psi0", "1",
               "--times", "0.3,1.0", "--seed-a", "5", "--seed-b", "6", "--threads", "1")

    @staticmethod
    def count_tables(monkeypatch):
        tables = []
        original = trajectory._StepTable.__init__

        def recording(self, *args):
            original(self, *args)
            tables.append(self)

        monkeypatch.setattr(trajectory._StepTable, "__init__", recording)
        return tables

    def test_one_step_table_per_side(self, capsys, monkeypatch, rep_files):
        # the pass builds one table per side and replay reuses it; replay
        # once built each side's table a second time
        tables = self.count_tables(monkeypatch)
        rep_a, rep_min = rep_files
        code, _ = run(capsys, "compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_min, *self.COMPARE)
        assert code == 0
        assert len(tables) == 2

    def test_document_same_with_tables_built_by_replay(self, capsys, monkeypatch, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(capsys, "compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_min, *self.COMPARE)
        reps = [models.qutrit_a(), models.qutrit_a_minimal()]
        ensembles = trajectory.simulate_ensembles(reps, np.array([0, 1, 0]), 1.0, 150, [5, 6])
        assert all(ens.table is not None for ens in ensembles)
        # without the pass's tables, states_at builds one per side
        tables = self.count_tables(monkeypatch)
        bare = [replace(ens, table=None) for ens in ensembles]
        # the command's default observables: the basis projectors
        projectors = {f"p_{i}": np.diag(np.eye(3)[i]) for i in range(3)}
        comparison = compare_ensembles(*bare, *reps, projectors, [0.3, 1.0], level="t3")
        assert len(tables) == 2
        assert code == (0 if comparison.verdict else 1)
        assert json.loads(out) == json.loads(json.dumps(comparison.to_document()))

    def test_incomparable_records_fail(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        # a channel permutation cannot map 5 channels onto 3, so the records
        # are incomparable with one as without one
        for perm in ((), ("--perm", "1,2,3,4,5")):
            code, out = run(
                capsys, "compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_min,
                "--level", "t2", "--ntraj", "20", "--tmax", "0.5", "--psi0", "1",
                "--threads", "1", *perm,
            )
            assert code == 1
            doc = json.loads(out)
            assert "incomparable" in doc["structural"]


class TestMalformedInput:
    """Degenerate numbers and malformed documents end in a logged error and a
    usage (2) or numeric (3) exit code, never in an exception or a silent
    report, and before any trajectory is simulated or an output directory is
    made."""

    COMPARE = ("compare-ensembles", "--rep-b", "{a}", "--level", "t1", "--ntraj", "20",
               "--tmax", "0.5", "--psi0", "1")
    SIMULATE = ("simulate", "{a}", "--tmax", "0.5", "--ntraj", "3", "--out", "{out}")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("simulate", "{a}", "--tmax", "nan", "--ntraj", "3", "--out", "{out}"), 3),
            (("simulate", "{a}", "--tmax", "inf", "--ntraj", "3", "--out", "{out}"), 3),
            # t_max / step overflowed the step table's level count
            (SIMULATE + ("--tmax", "1e308"), 3),
            (COMPARE + ("--times", "abc"), 2),
            (COMPARE + ("--times", "nan"), 3),
            (COMPARE + ("--alpha", "0"), 3),
            (COMPARE + ("--times", "5"), 3),
            # a repeated time once ran its KS tests twice and reported them once
            (COMPARE + ("--times", "0.25,0.25"), 3),
            (COMPARE + ("--times", ""), 2),
            # an equivalent pair: a NaN cutoff would report "different QME"
            (("check", "--rep-b", "{a_min}", "--atol", "nan", "--rtol", "nan"), 3),
            (COMPARE + ("--observables", "{obs}"), 2),
            (("gauge", "apply", "--rep", "{a_min}", "--isometry", "{iso_int}"), 2),
            (("gauge", "apply", "--rep", "{a_min}", "--isometry", "{iso_str}"), 2),
            (("fig1", "--n-polar", "-1"), 3),
            (("fig1", "--n-polar", "0"), 3),
            # a non-finite initial state once stalled the simulator forever
            (SIMULATE + ("--psi0", "{psi_nan}"), 3),
            (SIMULATE + ("--psi0", "{psi_inf}"), 3),
            (COMPARE + ("--psi0", "{psi_nan}"), 3),
            (COMPARE + ("--psi0", "{psi_inf}"), 3),
            (COMPARE + ("--observables", "{obs_nan}"), 2),
            (COMPARE[:2] + ("{qubit}",) + COMPARE[3:], 3),
            # an integer literal past Python's digit limit in each auxiliary file
            (SIMULATE + ("--psi0", "{digits}"), 2),
            (COMPARE + ("--observables", "{digits}"), 2),
            (("gauge", "apply", "--rep", "{a_min}", "--isometry", "{digits}"), 2),
            (("sjed", "{jump_nan}"), 2),
            (SIMULATE + ("--psi0", "{psi_short}"), 2),
            (COMPARE + ("--psi0", "{psi_short}"), 2),
            # negative seeds, before anything is simulated or logged
            (SIMULATE + ("--seed", "-1"), 2),
            (COMPARE + ("--seed-a", "-1"), 2),
            (COMPARE + ("--seed-b", "-2"), 2),
            # a repeated label replaced the earlier observable; a number broke the schema
            (COMPARE + ("--observables", "{obs_dup}"), 2),
            (COMPARE + ("--observables", "{obs_num}"), 2),
            # a file that is not UTF-8 once ended in a traceback and exit 1
            (("check", "--rep-b", "{not_utf8}"), 2),
            (("sjed", "{not_utf8}"), 2),
            (SIMULATE + ("--psi0", "{not_utf8}"), 2),
            (COMPARE + ("--observables", "{not_utf8}"), 2),
            (("gauge", "apply", "--rep", "{a_min}", "--isometry", "{not_utf8}"), 2),
            # permutations were parsed after both ensembles were simulated
            (COMPARE + ("--perm", "abc"), 2),
            (COMPARE + ("--perm-c", "0,1"), 2),
            # a document off the representation schema
            (("check", "--rep-b", "{dim_true}"), 2),
            (("check", "--rep-b", "{entry_true}"), 2),
            (("check", "--rep-b", "{extra_key}"), 2),
            # a JSON boolean in place of a number in each auxiliary file
            (SIMULATE + ("--psi0", "{psi_true}"), 2),
            (COMPARE + ("--observables", "{obs_false}"), 2),
            (("gauge", "apply", "--rep", "{a_min}", "--isometry", "{iso_true}"), 2),
        ],
        ids=["tmax-nan", "tmax-inf", "tmax-1e308", "times-abc", "times-nan", "alpha-0", "time-after-tmax",
             "times-repeated", "times-empty",
             "tolerance-nan", "observable-shape", "row-blocks-int",
             "row-blocks-str", "n-polar--1", "n-polar-0", "simulate-psi0-nan",
             "simulate-psi0-inf", "compare-psi0-nan", "compare-psi0-inf", "observable-nan",
             "compare-dims", "psi0-digits", "observables-digits", "isometry-digits",
             "sjed-jump-nan", "simulate-psi0-short", "compare-psi0-short", "simulate-seed--1",
             "compare-seed-a--1", "compare-seed-b--2", "observable-label-dup",
             "observable-label-number", "check-not-utf8", "sjed-not-utf8", "psi0-not-utf8",
             "observables-not-utf8", "isometry-not-utf8", "perm-abc", "perm-c-zero",
             "dim-true", "entry-true", "extra-key", "psi0-true", "observable-false", "isometry-true"],
    )
    def test_named_error(self, capsys, caplog, monkeypatch, rep_files, tmp_path, argv, expected):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the arguments were checked")

        if argv[0] == "compare-ensembles":
            monkeypatch.setattr(uqd.trajectory, "simulate_ensembles", forbidden)
        rep_a, rep_a_min = rep_files
        out_dir = tmp_path / "records"
        # a qubit beside the qutrits; a 2 x 2 observable for a qutrit; a NaN
        # observable; row blocks that are not index lists; initial states
        # with a NaN or an infinite entry or of the wrong length (a later
        # --psi0 overrides COMPARE's); a 5000-digit integer; a qubit document
        # whose second jump holds NaN; a file whose first byte is 0xFF
        qubit = Representation(None, [np.diag([1.0, 0.0])])
        files = {"out": out_dir, "qubit": write_rep(tmp_path, qubit, "qubit.json")}
        jump_nan = {"dim": 2, "hamiltonian": matrix_to_json(np.zeros((2, 2))),
                    "jumps": [matrix_to_json(np.eye(2)), matrix_to_json(np.diag([np.nan, 0.0]))]}
        off_schema = {
            "dim_true": '{"dim": true, "hamiltonian": [[[0, 0]]], "jumps": [[[[1, 0]]]]}',
            "entry_true": '{"dim": 1, "hamiltonian": [[[0, 0]]], "jumps": [[[[true, 0]]]]}',
            "extra_key": '{"dim": 1, "hamiltonian": [[[0, 0]]], "jumps": [[[[1, 0]]]], "note": 1}',
        }
        booleans = {
            "psi_true": "[[1, 0], [0, true], [0, 0]]",
            "obs_false": '[{"label": "p", "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, false], '
                         '[0, 0]], [[0, 0], [0, 0], [0, 0]]]}]',
            "iso_true": json.dumps({"matrix": [[[1, 0]], [[True, 0]]], "row_blocks": [[1, 2]],
                                    "col_blocks": [[1]], "block_map": [1]}),
        }
        for name, text in (("digits", "[%s]" % ("1" * 5000)), ("jump_nan", json.dumps(jump_nan)),
                           ("psi_short", "[[1, 0], [0, 0]]"), *off_schema.items(), *booleans.items()):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(text)
        files["not_utf8"] = tmp_path / "not_utf8.json"
        files["not_utf8"].write_bytes(b"\xff" + json.dumps(matrix_to_json(np.eye(3))).encode())
        for name, matrix in (("obs", np.eye(2)), ("obs_nan", np.diag([1.0, np.nan, 0.0]))):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps([{"label": "p", "matrix": matrix_to_json(matrix)}]))
        projector = matrix_to_json(np.diag([1.0, 0.0, 0.0]))
        for name, labels in (("obs_dup", ["x", "x"]), ("obs_num", ["x", 3])):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps([{"label": label, "matrix": projector} for label in labels]))
        for name, bad in (("psi_nan", np.nan), ("psi_inf", np.inf)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps([[bad, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        for name, row_blocks in (("iso_int", 5), ("iso_str", [["a"]])):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps({
                "matrix": matrix_to_json(np.eye(3)), "row_blocks": row_blocks,
                "col_blocks": [[1, 2], [3]], "block_map": [1, 2],
            }))
        args = [arg.format(a=rep_a, a_min=rep_a_min, **files) for arg in argv]
        if "--rep-b" in args:
            args += ["--rep-a", rep_a]
        code, out = run(capsys, *args)
        assert code == expected
        assert out == ""
        errors = [r for r in caplog.records if r.name == "uqd"]
        assert [r.levelname for r in errors] == ["ERROR"]
        if argv[-1] == "{jump_nan}":
            assert errors[0].getMessage().startswith("jumps[1]: ")
        if argv[-1] == "{not_utf8}":
            assert errors[0].getMessage() == f"cannot read {files['not_utf8']}: not UTF-8 text at byte 0"
        if argv[-1] in ("{obs_dup}", "{obs_num}"):
            assert errors[0].getMessage().startswith("observables[1].label ")
        named = {"{dim_true}": "dim: ", "{entry_true}": "jumps[0][0][0]: ", "{extra_key}": "note: ",
                 "{psi_true}": "psi0[1]: ", "{obs_false}": "observables[0].matrix[1][1]: ",
                 "{iso_true}": "matrix[1][0]: "}
        if argv[-1] in named:
            assert errors[0].getMessage().startswith(named[argv[-1]])
        assert not out_dir.exists()

    def test_integer_past_64_bits_stays_an_integer(self, capsys, caplog, rep_files, tmp_path):
        # json reads every integer exactly, as a dim or an index
        rep_a, rep_min = rep_files
        big = 2**70
        wide = tmp_path / "wide.json"
        wide.write_text('{"dim": %d, "hamiltonian": [[[0, 0]]], "jumps": [[[[1, 0]]]]}' % big)
        _, out = run(capsys, "gauge", "extract", "--rep-min", rep_min, "--rep", rep_a)
        iso_doc = json.loads(out)
        iso_doc["col_blocks"][1] = [big]
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps(iso_doc))
        for argv, expected, message in (
            (("check", "--rep-a", rep_a, "--rep-b", str(wide)), 2,
             f"hamiltonian: shape (1, 1) does not match dim {big}"),
            (("gauge", "apply", "--rep", rep_min, "--isometry", str(iso)), 3,
             "isometry column blocks do not match the minimal partition"),
        ):
            caplog.clear()
            assert run(capsys, *argv) == (expected, "")
            assert [r.getMessage() for r in caplog.records if r.name == "uqd"] == [message]


    @pytest.mark.parametrize(
        "argv, message",
        [
            (("example", "qutrit-a", "--gamma", "inf"), "gamma must be finite, got inf"),
            (("example", "qutrit-a", "--lambda", "inf"), "lambda must be finite, got inf"),
            (("example", "qutrit-a", "--theta", "inf"), "theta must be finite, got inf"),
            (("example", "qutrit-a", "--phi", "inf"), "phi must be finite, got inf"),
            (("example", "qutrit-a", "--vartheta", "nan"), "vartheta must be finite, got nan"),
            (("example", "qutrit-a-minimal", "--gamma", "nan"), "gamma must be finite, got nan"),
            (("example", "qutrit-b", "--gamma", "1,2,inf"), "gamma 3 must be finite, got inf"),
            (("fig1", "--gamma", "inf", "--n-polar", "3", "--n-azimuth", "3"),
             "gamma must be finite, got inf"),
        ],
        ids=["a-gamma", "a-lambda", "a-theta", "a-phi", "a-vartheta", "minimal-gamma", "b-gamma",
             "fig1-gamma"],
    )
    def test_non_finite_model_parameter_named(self, capsys, caplog, argv, message):
        # numpy's RuntimeWarnings on inf * 0 came first, then a generic
        # "matrix entries must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert [r.getMessage() for r in caplog.records if r.name == "uqd"] == [message]
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, path",
        [
            # a regular file where the records directory should be, or above it
            (SIMULATE[:-1] + ("{file}",), "{file}"),
            (SIMULATE[:-1] + ("{file}/records",), "{file}/records"),
            (("minimize", "{a}", "--out", "{missing}/x.json"), "{missing}/x.json"),
            (("gauge", "extract", "--rep-min", "{a_min}", "--rep", "{a}", "--out",
              "{missing}/x.json"), "{missing}/x.json"),
            (("example", "qutrit-b", "--out", "{missing}/x.json"), "{missing}/x.json"),
            (("fig1", "--n-polar", "3", "--n-azimuth", "3", "--out", "{missing}/x.csv"),
             "{missing}/x.csv"),
        ],
        ids=["simulate-file", "simulate-under-file", "minimize", "gauge", "example", "fig1"],
    )
    def test_unwritable_out_named(self, capsys, caplog, monkeypatch, rep_files, tmp_path,
                                  argv, path):
        # ``simulate`` checks its directory before simulating anything
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the output directory was checked")

        monkeypatch.setattr(uqd.trajectory, "simulate_ensemble", forbidden)
        rep_a, rep_a_min = rep_files
        files = {"a": rep_a, "a_min": rep_a_min, "file": tmp_path / "file",
                 "missing": tmp_path / "missing"}
        files["file"].write_text("kept\n")
        code, out = run(capsys, *(arg.format(**files) for arg in argv))
        assert code == 2 and out == ""
        (message,) = [r.getMessage() for r in caplog.records if r.name == "uqd" and r.levelname == "ERROR"]
        assert message.startswith(f"cannot write {path.format(**files)}")
        assert files["file"].read_text() == "kept\n" and not files["missing"].exists()

    def test_compare_horizon_past_the_widths_named(self, capsys, caplog, rep_files):
        # the step depends on the pair, so the simulator's step table rejects
        # this horizon; it ended in an OverflowError traceback
        rep_a, _ = rep_files
        code, out = run(capsys, *self.COMPARE[:2], rep_a, *self.COMPARE[3:], "--tmax", "1e308",
                        "--rep-a", rep_a)
        assert code == 3 and out == ""
        (message,) = [r.getMessage() for r in caplog.records if r.name == "uqd" and r.levelname == "ERROR"]
        assert message.startswith("t_max must be below 2**1023 steps of ") and message.endswith(", got 1e+308")


class TestPermutationMessage:
    BLOCKS = "block permutation is not a bijection between the block sets (2 and 2 blocks)"
    CHANNELS = "channel permutation is not a bijection between the channel sets (5 and 5 channels)"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check", "--rep-b", "{a_min}", "--perm-c", "1,1"), BLOCKS),
            (("rate-scan", "--rep-b", "{a_min}", "--perm-c", "1,1"), BLOCKS),
            (("compare-ensembles", "--rep-b", "{a}", "--level", "t2", "--perm", "1,1,2,3,4",
              "--ntraj", "20", "--tmax", "0.5"), CHANNELS),
            (("compare-ensembles", "--rep-b", "{a_min}", "--level", "t3", "--perm-c", "1,1",
              "--ntraj", "20", "--tmax", "0.5"), BLOCKS),
        ],
        ids=["check", "rate-scan", "compare-t2", "compare-t3"],
    )
    def test_one_message_from_every_entry_point(self, capsys, caplog, monkeypatch, rep_files,
                                                argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the channel permutation was checked")

        # equal channel counts: the t2 bijection is checked before the pass;
        # the t3 block check needs both partitions, so it runs after it
        if "t2" in argv:
            monkeypatch.setattr(uqd.trajectory, "simulate_ensembles", forbidden)
        rep_a, rep_a_min = rep_files
        args = [arg.format(a=rep_a, a_min=rep_a_min) for arg in argv] + ["--rep-a", rep_a]
        code, out = run(capsys, *args)
        assert code == 3 and out == ""
        assert [r.getMessage() for r in caplog.records if r.name == "uqd"] == [message]


class TestOversizedNumbers:
    @pytest.mark.parametrize(
        "literal, message",
        [
            ("1" + "0" * 400, "jumps[0][0][0]: number too large for a float"),
            ("1" * 5000, "invalid JSON: Exceeds the limit (4300 digits)"),
        ],
        ids=["beyond-float", "beyond-digit-limit"],
    )
    def test_usage_error(self, capsys, caplog, tmp_path, literal, message):
        path = tmp_path / "big.json"
        path.write_text(
            '{"dim": 1, "hamiltonian": [[[0, 0]]], "jumps": [[[[%s, 0]]]]}' % literal
        )
        code, out = run(capsys, "check", "--rep-a", str(path), "--rep-b", str(path))
        assert code == 2
        assert out == ""
        errors = [r.getMessage() for r in caplog.records if r.name == "uqd"]
        assert len(errors) == 1 and errors[0].startswith(message)


class TestFig1:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, _ = run(
            capsys, "fig1", "--out", str(out_path), "--n-polar", "5", "--n-azimuth", "6"
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")  # documented state convention
        header = lines[1].split(",")
        assert header[:2] == ["polar", "azimuth"]
        assert len(lines) == 2 + 5 * 6
        # spot-check the rate proportionality on a data row with activity
        for line in lines[2:]:
            values = dict(zip(header, map(float, line.split(","))))
            if values["r_4"] > 1e-9:
                assert values["r_5"] / values["r_4"] == pytest.approx(3.0, rel=1e-6)
                break
        else:
            pytest.fail("no active row found")


class TestNoDenseBuilders:
    def test_no_command_builds_a_superoperator(self, capsys, monkeypatch, rep_files, tmp_path):
        # each dim^2 x dim^2 builder raises at every binding it has in uqd.*
        for name in ("superoperator_matrix", "liouvillian_matrix", "composite_action"):
            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            replace_everywhere(monkeypatch, getattr(uqd, name), forbidden)

        rep_a, rep_min = rep_files
        rep_b = str(tmp_path / "b.json")
        iso = str(tmp_path / "iso.json")
        commands = [
            (["example", "qutrit-b", "--out", rep_b], 0),
            (["sjed", rep_a], 0),
            (["check", "--rep-a", rep_a, "--rep-b", rep_min], 0),
            (["check", "--rep-a", rep_a, "--rep-b", rep_b, "--level", "qme"], 1),
            (["check", "--rep-a", rep_a, "--rep-b", rep_min, "--perm-c", "1,2", "--all-perms"], 0),
            (["minimize", rep_a], 0),
            (["minimize", rep_b], 0),
            (["gauge", "extract", "--rep-min", rep_min, "--rep", rep_a, "--out", iso], 0),
            (["gauge", "apply", "--rep", rep_min, "--isometry", iso], 0),
            (["simulate", rep_a, "--tmax", "0.5", "--ntraj", "4", "--out", str(tmp_path / "runs")], 0),
            (["rate-scan", "--rep-a", rep_a, "--rep-b", rep_min], 0),
            (["fig1", "--out", str(tmp_path / "rates.csv"), "--n-polar", "3", "--n-azimuth", "3"], 0),
        ]
        for level, extra in (("t1", []), ("t2", ["--perm", "1,2,3,4,5"]), ("t3", ["--perm-c", "1,2"])):
            commands.append((
                ["compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_a, "--level", level,
                 "--ntraj", "20", "--tmax", "0.5", "--psi0", "1", *extra],
                0,
            ))
        for argv, expected in commands:
            code, _ = run(capsys, *argv)
            assert code == expected, argv


class TestPreconditionCost:
    """Each command validates, partitions and decides theorem 1 no more often
    than its work needs, counted at every binding in ``uqd.*`` (as a tracer
    wrapping these functions counts them) on ``qutrit_a_minimal`` against
    ``qutrit_a``: one theorem-1 pass per gauge command, whose partitions and
    shift are reused.  Counts are of ``require_valid``, ``partition``,
    theorem-1 passes and ``np.linalg.qr``, in that order."""

    SPIED = (("representation", "require_valid"), ("sjed", "partition"),
             ("equivalence", "_theorem1"))

    @pytest.mark.parametrize(
        "argv, counts",
        [
            (["check", "--rep-a", "{a_min}", "--rep-b", "{a}"], (4, 2, 1, 2)),
            (["gauge", "apply", "--rep", "{a_min}", "--isometry", "{iso}"], (4, 2, 1, 2)),
            (["gauge", "extract", "--rep-min", "{a_min}", "--rep", "{a}"], (4, 2, 1, 2)),
            (["rate-scan", "--rep-a", "{a_min}", "--rep-b", "{a}"], (2, 2, 0, 1)),
            (["compare-ensembles", "--rep-a", "{a_min}", "--rep-b", "{a}", "--level", "t3",
              "--ntraj", "20", "--tmax", "0.5", "--psi0", "1"], (4, 2, 0, 0)),
        ],
        ids=["check", "gauge-apply", "gauge-extract", "rate-scan", "compare-t3"],
    )
    def test_calls_per_command(self, capsys, monkeypatch, rep_files, tmp_path, argv, counts):
        rep_a, rep_a_min = rep_files
        iso = str(tmp_path / "iso.json")
        assert run(capsys, "gauge", "extract", "--rep-min", rep_a_min, "--rep", rep_a, "--out", iso)[0] == 0

        calls = {name: 0 for _, name in self.SPIED}
        calls["qr"] = 0

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for layer, name in self.SPIED:
            original = getattr(sys.modules[f"uqd.{layer}"], name)
            replace_everywhere(monkeypatch, original, counted(name, original))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))

        code, _ = run(capsys, *[arg.format(a=rep_a, a_min=rep_a_min, iso=iso) for arg in argv])
        assert code in (0, 1)
        assert tuple(calls.values()) == counts


class TestCountPath:
    def test_compare_t3_does_not_coarse_grain(self, capsys, monkeypatch, rep_files):
        # block counts are column sums of the channel-count matrix, not a
        # relabelled copy of every record
        from uqd import trajectory

        rep_a, rep_a_min = rep_files
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        original = trajectory.coarse_grain
        replace_everywhere(monkeypatch, original, counted)
        code, _ = run(capsys, "compare-ensembles", "--rep-a", rep_a_min, "--rep-b", rep_a, "--level",
                      "t3", "--ntraj", "20", "--tmax", "0.5", "--psi0", "1")
        assert code in (0, 1)
        assert not calls


class TestTracedNames:
    def test_every_traced_function_resolves(self):
        # perfbench/tracer.py wraps these by name; a missing one would break
        # every traced benchmark run
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for layer, names in tracer.TRACED.items():
            module = importlib.import_module(f"uqd.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"uqd.{layer}.{name}"


class TestImportCost:
    # scipy is the tests' oracle only and numpy.random their generator: no
    # ``uqd`` module imports either, and ``import uqd`` and every subcommand
    # leave both unloaded.  qutrit_a at theta = 0 has two equal decay
    # channels, so ``--all-perms`` enumerates two matchings.
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["check", "--rep-a", "{rep}", "--rep-b", "{rep}"],
            ["check", "--rep-a", "{rep}", "--rep-b", "{rep}", "--level", "t2", "--all-perms"],
            ["sjed", "{rep}"],
            ["minimize", "{rep}"],
            ["gauge", "extract", "--rep-min", "{min}", "--rep", "{rep}"],
            ["simulate", "{rep}", "--tmax", "1", "--ntraj", "20", "--out", "{out}"],
            ["compare-ensembles", "--rep-a", "{rep}", "--rep-b", "{rep}", "--ntraj", "40",
             "--tmax", "0.5", "--psi0", "1", "--threads", "1"],
            ["rate-scan", "--rep-a", "{rep}", "--rep-b", "{rep}"],
            ["example", "qutrit-a"],
            ["fig1", "--out", "{out}", "--n-polar", "3", "--n-azimuth", "4"],
        ],
        ids=["import", "check", "check-t2-all-perms", "sjed", "minimize", "gauge", "simulate",
             "compare-ensembles", "rate-scan", "example", "fig1"],
    )
    def test_leaves_scipy_unloaded(self, tmp_path, argv):
        rep = write_rep(tmp_path, models.qutrit_a(theta=0.0), "a.json")
        rep_min = write_rep(tmp_path, models.qutrit_a_minimal(theta=0.0), "min.json")
        argv = [arg.format(rep=rep, min=rep_min, out=tmp_path / "runs") for arg in argv]
        probe = (
            "import sys, uqd, uqd.cli; "
            "code = uqd.cli.main(sys.argv[1:] + ['--quiet']) if sys.argv[1:] else 0; "
            "print(code, sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.random'))), "
            "file=sys.stderr)"
        )
        out = run_probe(probe, argv)
        assert out.stderr.strip() == "0 []"
        if "--all-perms" in argv:
            assert len(json.loads(out.stdout)["theorem2"]["matchings"]) == 2

    def test_runs_without_scipy(self):
        # the probe CI runs before the test extra is installed: scipy and
        # numpy.random blocked, matrix_exponential, mean_state_check and
        # three commands still run
        script = os.path.join(os.path.dirname(__file__), "no_scipy_probe.py")
        out = run_probe("import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')", [script])
        assert out.stdout.strip() == "uqd ran without scipy and numpy.random"

    def test_import_leaves_orjson_unloaded(self):
        # the document decoder imports it on first use
        out = run_probe("import sys, uqd, uqd.cli; print('orjson' in sys.modules, file=sys.stderr)", [])
        assert out.stderr.strip() == "False"


class TestSharedParser:
    """``main`` parses every call with one parser, built on first use."""

    def test_alternating_options_match_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        # two equal decay channels: two theorem-2 matchings; the forced swap
        # of the two blocks fails theorem 3
        rep = write_rep(tmp_path, models.qutrit_a(theta=0.0), "a.json")
        pair = ["--rep-a", rep, "--rep-b", rep]
        loaded = ["check", *pair, "--all-perms", "--level", "t2", "--perm-c", "2,1"]
        calls = [loaded, ["check", *pair], loaded, ["check", *pair]]
        shared = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(uqd.cli, "build_parser", uqd.cli.build_parser.__wrapped__)
        assert shared == [run(capsys, *argv) for argv in calls]
        (_, loaded_out), (_, plain_out) = shared[:2]
        assert len(json.loads(loaded_out)["theorem2"]["matchings"]) == 2
        assert json.loads(loaded_out)["theorem3"]["block_perm"] == [2, 1]
        plain = json.loads(plain_out)
        assert plain["level"] == "t1" and len(plain["theorem2"]["matchings"]) == 1
        assert plain["theorem3"] == plain["theorem1"]

    def test_usage_error_leaves_the_parser_usable(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        with pytest.raises(SystemExit) as exc:
            main(["check", "--rep-a", rep_a, "--level", "t4"])
        assert exc.value.code == 2
        code, out = run(capsys, "check", "--rep-a", rep_a, "--rep-b", rep_min)
        assert code == 0 and json.loads(out)["level"] == "t1"

    def test_built_once_over_several_calls(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        uqd.cli.build_parser.cache_clear()
        for argv in (["sjed", rep_a], ["check", "--rep-a", rep_a, "--rep-b", rep_min], ["sjed", rep_min]):
            assert run(capsys, *argv)[0] == 0
        assert uqd.cli.build_parser.cache_info().misses == 1


class TestQuiet:
    def test_holds_on_every_call_of_one_process(self, tmp_path):
        # the logging level of one call must not stick to the next
        rep = write_rep(tmp_path, models.qutrit_a(), "a.json")
        probe = (
            "import sys, uqd.cli\n"
            "for quiet in ([], ['--quiet'], [], ['--quiet']):\n"
            "    print('call', bool(quiet), file=sys.stderr)\n"
            "    uqd.cli.main(sys.argv[1:] + quiet)\n"
        )
        argv = ["simulate", rep, "--tmax", "1", "--ntraj", "5", "--out", str(tmp_path / "runs")]
        out = run_probe(probe, argv)
        logged = ["call False", "uqd: simulating 5 trajectories", "call True"]
        assert out.stderr.splitlines() == logged * 2
