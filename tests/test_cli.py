"""Command-line interface: outputs, manifests, reproducibility, exit codes."""

import json

import pytest

from gatelearn.cli import parse_and_dispatch


def run_cli(argv):
    return parse_and_dispatch(argv)


class TestGroverCommand:
    def test_produces_expected_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        status = run_cli(
            [
                "grover", "--n-elements", "16", "--iterations", "15", "--runs", "4",
                "--grid-size", "64", "--strategy", "double-push", "--seed", "42",
                "--out", str(out),
            ]
        )
        assert status == 0
        for name in ("runs.csv", "summary.json", "histogram.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert manifest["problem"]["n_elements"] == 16
        assert manifest["feedback"]["strategy"] == "double_push"

    def test_rerun_with_manifest_settings_is_byte_identical(self, tmp_path):
        args = [
            "grover", "--n-elements", "16", "--iterations", "10", "--runs", "3",
            "--grid-size", "64", "--seed", "9",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        for name in ("runs.csv", "summary.json", "histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_snapshot_flag_writes_array(self, tmp_path):
        import numpy as np

        out = tmp_path / "snap"
        status = run_cli(
            [
                "grover", "--n-elements", "16", "--iterations", "5", "--runs", "2",
                "--grid-size", "32", "--snapshot-chi", "--seed", "1", "--out", str(out),
            ]
        )
        assert status == 0
        snaps = np.load(out / "chi_snapshots.npy")
        assert snaps.shape == (2, 5, 32)

    def test_threads_flag_does_not_change_outputs(self, tmp_path):
        base = [
            "grover", "--n-elements", "16", "--iterations", "10", "--runs", "4",
            "--grid-size", "64", "--seed", "3",
        ]
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        run_cli(base + ["--threads", "1", "--out", str(out1)])
        run_cli(base + ["--threads", "4", "--out", str(out4)])
        assert (out1 / "runs.csv").read_bytes() == (out4 / "runs.csv").read_bytes()


class TestAqftCommand:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "aqft"
        status = run_cli(
            [
                "aqft", "--qubits", "4", "--band", "1", "--iterations", "10",
                "--runs", "3", "--grid-size", "32", "--seed", "5", "--out", str(out),
            ]
        )
        assert status == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["problem"] == {"kind": "aqft", "qubits": 4, "band": 1}

    def test_band_exceeding_register_is_usage_error(self, tmp_path, capsys):
        status = run_cli(
            ["aqft", "--qubits", "3", "--band", "3", "--runs", "2",
             "--out", str(tmp_path / "x")]
        )
        assert status == 2
        assert "band" in capsys.readouterr().err

    def test_two_phase_training_uses_product_grid(self, tmp_path):
        out = tmp_path / "aqft2"
        status = run_cli(
            [
                "aqft", "--qubits", "3", "--band", "2", "--iterations", "6",
                "--runs", "2", "--grid-size", "8", "--seed", "5", "--out", str(out),
            ]
        )
        assert status == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["problem"]["band"] == 2
        assert manifest["grid_size"] == 8


class TestTableCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "t1.csv"
        status = run_cli(["table1", "--qubits", "4,5", "--bands", "1", "--out", str(out)])
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3 + 2  # two comment lines, header, two cells


class TestCurveCommand:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        status = run_cli(["grover-curve", "--n-elements", "16,200", "--out", str(out)])
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "target_overlap,n_elements,max_success"
        assert len(lines) == 3


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "all 6 checks passed" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["grover", "--n-elements", "8", "--bogus", "1", "--out", "/tmp/x"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([])
        assert excinfo.value.code == 2

    def test_invalid_runs_value(self, tmp_path, capsys):
        status = run_cli(
            ["grover", "--n-elements", "8", "--runs", "0", "--out", str(tmp_path / "x")]
        )
        assert status == 2
        assert "runs" in capsys.readouterr().err

    def test_unreachable_walk_strength_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("gatelearn.cli.run_ensemble", no_run)
        out = tmp_path / "x"
        status = run_cli(["grover", "--n-elements", "64", "--walk-x", "120", "--out", str(out)])
        assert status == 2
        assert "translation orders" in capsys.readouterr().err
        assert not out.exists()
