import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

import uqd
from uqd import models, schemas
from uqd.cli import main
from uqd.representation import from_document, serialize


def run(capsys, *argv):
    code = main([*argv, "--quiet"])
    out = capsys.readouterr().out
    return code, out


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

    def test_bad_gamma_is_usage_error(self, capsys):
        code, _ = run(capsys, "example", "qutrit-b", "--gamma", "nope")
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


class TestRateScan:
    def test_equivalent_pair(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(
            capsys, "rate-scan", "--rep-a", rep_a, "--rep-b", rep_min, "--n", "200"
        )
        assert code == 0
        doc = json.loads(out)
        validate_schema(doc, "rate_field_report")
        assert doc["max_total_rate_dev"] < 1e-10
        assert doc["max_block_action_dev"] < 1e-10


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

    def test_incomparable_records_fail(self, capsys, rep_files):
        rep_a, rep_min = rep_files
        code, out = run(
            capsys, "compare-ensembles", "--rep-a", rep_a, "--rep-b", rep_min,
            "--level", "t2", "--ntraj", "20", "--tmax", "0.5", "--psi0", "1",
            "--threads", "1",
        )
        assert code == 1
        doc = json.loads(out)
        assert "incomparable" in doc["structural"]


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
        # each dim^2 x dim^2 builder raises at every binding it has in uqd.*,
        # the bindings a tracer wrapping them would replace
        modules = [m for key, m in sys.modules.items() if key == "uqd" or key.startswith("uqd.")]
        for name in ("superoperator_matrix", "liouvillian_matrix", "composite_action"):
            original = getattr(uqd, name)

            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)

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
            (["rate-scan", "--rep-a", rep_a, "--rep-b", rep_min, "--n", "20"], 0),
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


class TestImportCost:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is most of a cold ``import uqd``, and only the
        # statistical cross-checks use it
        src = os.path.dirname(os.path.dirname(uqd.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = "import sys, uqd, uqd.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert out.stdout.strip() == "[]"
