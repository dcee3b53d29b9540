"""Command-line interface: outputs, manifests, reproducibility, exit codes."""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import gatelearn
from gatelearn import (
    AqftInstance,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    run_ensemble,
)
from gatelearn import selftest
from gatelearn.cli import parse_and_dispatch
from gatelearn.harness import write_histogram_csv, write_runs_csv, write_summary_json


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
        # every ExperimentConfig field plus four: a new field is a schema change
        assert set(manifest) == {
            "problem", "iterations", "runs", "grid_size", "feedback", "master_seed",
            "snapshot_chi", "version", "command", "environment",
        }
        assert set(manifest["feedback"]) == {
            "strategy", "initial_push_cells", "walk_strength", "kickstart_enabled",
            "push_asymmetry", "walk_floor", "walk_escalation",
        }
        assert manifest["master_seed"] == 42
        assert manifest["problem"]["n_elements"] == 16
        assert manifest["feedback"]["strategy"] == "double_push"

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "results"
        assert run_cli(["grover", "--n-elements", "16", "--iterations", "5", "--runs", "2",
                        "--grid-size", "64", "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "thread_vars"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["thread_vars"] == {
            "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "3",
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        }

    def test_rerun_with_manifest_settings_is_byte_identical(self, tmp_path):
        """A config rebuilt from manifest.json alone reproduces every data file."""
        commands = [
            ["grover", "--n-elements", "16", "--iterations", "10", "--runs", "3",
             "--grid-size", "64", "--seed", "9", "--walk-x", "7.5", "--no-kickstart"],
            ["aqft", "--qubits", "4", "--band", "2", "--iterations", "8", "--runs", "2",
             "--strategy", "single-push", "--push-asymmetry", "0.5", "--seed", "4"],
        ]
        for argv in commands:
            out = tmp_path / argv[0]
            assert run_cli(argv + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            desc = manifest["problem"]
            if desc["kind"] == "grover":
                problem = GroverInstance.standard(desc["n_elements"])
            else:
                problem = AqftInstance.standard(desc["qubits"], desc["band"])
            config = ExperimentConfig(
                problem=problem,
                iterations=manifest["iterations"],
                runs=manifest["runs"],
                grid_size=manifest["grid_size"],
                feedback=FeedbackConfig(**manifest["feedback"]),
                master_seed=manifest["master_seed"],
                snapshot_chi=manifest["snapshot_chi"],
            )
            summary, batch = run_ensemble(config)
            again = tmp_path / f"{argv[0]}-again"
            again.mkdir()
            write_runs_csv(batch, again / "runs.csv")
            write_summary_json(summary, again / "summary.json", extra={"problem": desc})
            write_histogram_csv(summary, again / "histogram.csv")
            for name in ("runs.csv", "summary.json", "histogram.csv"):
                assert (out / name).read_bytes() == (again / name).read_bytes(), name

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

    @pytest.mark.parametrize("flag", ["--qubits", "--bands"])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "t1.csv"
        status = run_cli(["table1", flag, "", "--out", str(out)])
        assert status == 2
        assert "at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("qubits,bands,message", [
        ("6,25", "1", "n_qubits must be in [2, 20]"),
        ("1,6", "1", "n_qubits must be in [2, 20]"),
        ("6", "1,0", "band 0 not supported"),
        ("6", "4", "band 4 not supported"),
    ])
    def test_bad_cell_fails_before_any_optimization(self, tmp_path, capsys, monkeypatch,
                                                     qubits, bands, message):
        def unexpected(*args):
            raise AssertionError("the table was computed before the cells were checked")

        for name in ("_optimize", "success_spectrum"):
            monkeypatch.setattr(f"gatelearn.optimize.{name}", unexpected)
        out = tmp_path / "t1.csv"
        status = run_cli(["table1", "--qubits", qubits, "--bands", bands, "--out", str(out)])
        assert status == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCurveCommand:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        status = run_cli(["grover-curve", "--n-elements", "16,200", "--out", str(out)])
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "target_overlap,n_elements,max_success"
        assert len(lines) == 3

    def test_empty_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        status = run_cli(["grover-curve", "--n-elements", "", "--out", str(out)])
        assert status == 2
        assert "at least one value" in capsys.readouterr().err
        assert not out.exists()


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "all 10 checks passed" in capsys.readouterr().out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("walk kernel drifted")

        monkeypatch.setattr(selftest, "_CHECKS", (broken,) + selftest._CHECKS[1:])
        assert run_cli(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL:")] == [
            "FAIL: walk kernel drifted"
        ]
        assert lines[-1] == "selftest: 1/10 checks failed"

    @pytest.mark.parametrize("module", ["gatelearn", "gatelearn.cli"])
    def test_runs_as_a_module_from_a_checkout(self, module):
        # the package need not be installed: put the imported copy on the path
        src = str(Path(gatelearn.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        done = subprocess.run([sys.executable, "-m", module, "selftest"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "all 10 checks passed" in done.stdout

    def test_output_digests_lists_every_output_file(self):
        # the byte-identity listing of this checkout: one sha256 per output file
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, str(root / "tools" / "output_digests.py")],
                              capture_output=True, text=True, timeout=300, check=True)
        rows = [line.split("  ", 1) for line in done.stdout.splitlines()]
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in rows)
        files = [entry.rsplit(" -> ", 1)[1] for _, entry in rows]
        assert files == ["histogram.csv", "manifest.json", "runs.csv", "summary.json"] * 7 + [
            "table1.csv"] * 2


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

    def test_negative_seed_exits_2_before_creating_out(self, tmp_path, capsys):
        out = tmp_path / "x"
        status = run_cli(["grover", "--n-elements", "8", "--seed", "-1", "--out", str(out)])
        assert status == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_strength_past_the_spectrum_bound_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1e308 passes as finite, but the walk spectrum overflows above max / 2
        def no_run(*args, **kwargs):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("gatelearn.cli.run_ensemble", no_run)
        out = tmp_path / "x"
        status = run_cli(["aqft", "--qubits", "6", "--runs", "2", "--walk-x", "1e308",
                          "--walk-escalation", "0", "--out", str(out)])
        assert status == 2
        assert "walk_strength must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--walk-x", "nan"),
        ("--walk-floor", "nan"),
        ("--walk-escalation", "nan"),
        ("--push-asymmetry", "inf"),
    ])
    def test_non_finite_feedback_constant_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("an ensemble started")

        monkeypatch.setattr("gatelearn.cli.run_ensemble", no_run)
        out = tmp_path / "x"
        status = run_cli(["grover", "--n-elements", "64", flag, value, "--out", str(out)])
        assert status == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()
