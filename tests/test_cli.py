"""CLI: config handling, output files, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from freezegate import channel
from freezegate import cli as cli_module
from freezegate.cli import load_config, main, write_csv, write_json
from freezegate.errors import ConfigError
from freezegate.params import ProtocolParams
from freezegate.propagate import PropagatorConfig


@pytest.fixture
def config_file(tmp_path):
    def make(obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return str(path)

    return make


class TestConfig:
    def test_round_trip(self, config_file):
        p = ProtocolParams(omega_2=1.0015, j_12=2e-4)
        cfg = PropagatorConfig(steps_per_period=64, method="magnus4")
        path = config_file({"params": dataclasses.asdict(p), "propagator": dataclasses.asdict(cfg)})
        p2, cfg2 = load_config(path)
        assert p2 == p
        assert cfg2 == cfg

    def test_empty_config_gives_defaults(self, config_file):
        p, cfg = load_config(config_file({}))
        assert p == ProtocolParams()
        assert cfg == PropagatorConfig()

    def test_unknown_top_level_key(self, config_file):
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_config(config_file({"params": {}, "extras": {}}))

    def test_unknown_param_key(self, config_file):
        with pytest.raises(ConfigError, match="omega_3"):
            load_config(config_file({"params": {"omega_3": 1.0}}))

    def test_omega_m_must_be_one(self, config_file):
        with pytest.raises(ConfigError, match="omega_m"):
            load_config(config_file({"params": {"omega_m": 2.0}}))

    def test_invalid_value_names_field(self, config_file):
        with pytest.raises(ConfigError, match="drive_amp"):
            load_config(config_file({"params": {"drive_amp": -0.07}}))

    def test_bad_propagator_method(self, config_file):
        with pytest.raises(ConfigError, match="method"):
            load_config(config_file({"propagator": {"method": "euler"}}))

    def test_steps_not_a_multiple_of_4(self, config_file):
        with pytest.raises(ConfigError, match="multiple of 4"):
            load_config(config_file({"propagator": {"steps_per_period": 6}}))

    @pytest.mark.parametrize("field", ["drive_amp", "omega_d_on", "omega_m", "j_12"])
    def test_boolean_param_is_not_a_number(self, config_file, field):
        # True is an int to Python, so a range check alone would take it as 1.
        with pytest.raises(ConfigError, match=f"params: {field} must be a number, got True"):
            load_config(config_file({"params": {field: True}}))

    def test_boolean_steps_is_not_an_integer(self, config_file):
        with pytest.raises(ConfigError, match="steps_per_period must be an integer, got True"):
            load_config(config_file({"propagator": {"steps_per_period": True}}))

    def test_removed_propagator_key(self, config_file):
        with pytest.raises(ConfigError, match="convergence_check"):
            load_config(config_file({"propagator": {"convergence_check": True}}))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_unreadable_path(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(ConfigError, match="cannot read"):
                load_config(str(path))

    def test_top_level_must_be_an_object(self, config_file):
        with pytest.raises(ConfigError, match="top level must be an object"):
            load_config(config_file([{"params": {}}]))

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ProtocolParams)])
    def test_infinite_param_is_rejected(self, field, value):
        # inf passes every range check (inf > 0); JSON reads Infinity and 1e999 as inf.
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value!r}$"):
            ProtocolParams(**{field: value}).validate()

    def test_omega_d_on_must_be_positive(self):
        with pytest.raises(ConfigError, match="omega_d_on must be strictly positive, got 0.0"):
            ProtocolParams(omega_d_on=0.0).validate()

    @pytest.mark.parametrize("section", ["params", "propagator"])
    @pytest.mark.parametrize("value", [5, None, [], "x"])
    def test_section_must_be_an_object(self, config_file, section, value):
        with pytest.raises(ConfigError, match=f"{section} must be an object"):
            load_config(config_file({section: value}))


class TestWriters:
    def test_json_handles_numpy_scalars(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(str(path), {"a": np.float64(1.5), "b": np.int64(2),
                               "c": np.arange(3)})
        assert json.loads(path.read_text()) == {"a": 1.5, "b": 2, "c": [0, 1, 2]}

    def test_csv_cells_are_plain_floats(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a", "b"], [[np.float64(0.1), "ok"]])
        text = path.read_text()
        assert "np.float64" not in text
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert float(rows[1][0]) == 0.1

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="rename refused"):
            write_json(str(tmp_path / "x.json"), {"a": 1})
        assert list(tmp_path.iterdir()) == []


class TestCommands:
    def test_effective_model_writes_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["effective-model", "--regime", "off", "--output", str(out)])
        assert rc == 0
        data = json.loads((out / "effective_model.json").read_text())
        assert data["regime"] == "off"
        assert data["omega_d"] == pytest.approx(1.004)
        assert data["j12_eff"] > 0
        assert "delta_12_prime" in capsys.readouterr().out

    def test_global_flags_before_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--output", str(out), "effective-model", "--regime", "on"])
        assert rc == 0
        data = json.loads((out / "effective_model.json").read_text())
        assert data["regime"] == "on"
        assert data["delta_12_prime"] < 1e-10  # solved resonance

    def test_effective_model_without_modulator_coupling(self, config_file, capsys):
        path = config_file({"params": {"j_m1": 0.0}})
        rc = main(["effective-model", "--regime", "off", "--config", path])
        assert rc == 0
        # delta_12_prime reduces to ||delta_1| - |delta_2|| = 0.004 - 0.0023
        assert "delta_12_prime=0.0017" in capsys.readouterr().out

    def test_bad_config_exits_2(self, config_file, capsys):
        path = config_file({"params": {"drive_amp": -1.0}})
        rc = main(["effective-model", "--config", path])
        assert rc == 2
        assert "drive_amp" in capsys.readouterr().err

    def test_unusable_config_exits_2(self, tmp_path, config_file, capsys):
        for path in (str(tmp_path / "missing.json"), config_file({"params": 5}),
                     config_file({"propagator": {"steps_per_period": 64.0}})):
            assert main(["--quick", "trajectory", "--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config {path}: ") and err.count("\n") == 1
        assert "steps_per_period must be an integer" in err

    @pytest.mark.parametrize(
        "argv",
        [["--quick", "fidelity"], ["--quick", "trajectory"], ["trajectory", "--regime", "on"]],
        ids=["fidelity", "trajectory-off", "trajectory-on"],
    )
    def test_infinite_gate_time_exits_2(self, config_file, capsys, argv):
        # omega_2 = 1e308 leaves j12_eff = 0 at the on drive: t_gate is inf.
        path = config_file({"params": {"omega_2": 1e308}})
        assert main(argv + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: j12_eff is zero at omega_d_on") and err.count("\n") == 1

    def test_infinite_config_exits_2(self, config_file, capsys):
        path = config_file({"params": {"omega_d_off": math.inf}})
        assert main(["--quick", "fidelity", "--config", path]) == 2
        captured = capsys.readouterr()
        want = f"error: config {path}: params: omega_d_off must be finite, got inf\n"
        assert captured.err == want
        assert captured.out == ""

    def test_boolean_config_exits_2(self, config_file, capsys):
        for argv, section in (
            (["--quick", "fidelity"], {"params": {"drive_amp": True}}),
            (["effective-model", "--regime", "on"], {"params": {"omega_d_on": True}}),
            (["--quick", "fidelity"], {"propagator": {"steps_per_period": True}}),
        ):
            assert main(argv + ["--config", config_file(section)]) == 2
            assert "got True" in capsys.readouterr().err

    def test_no_root_exits_1(self, config_file, capsys):
        path = config_file({"params": {"omega_2": 1.0}})
        rc = main(["effective-model", "--regime", "on", "--config", path])
        assert rc == 1
        assert "NoRootInBracket" in capsys.readouterr().err

    def test_fidelity_prints_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--quick", "fidelity", "--output", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "infidelity_on=" in text and "off_ratio=" in text
        data = json.loads((out / "fidelity.json").read_text())
        assert 0.0 < data["infidelity"] < 0.1
        assert data["method"] == "choi-formula"

    def test_floquet_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--quick", "floquet", "--regime", "on", "--points", "11",
            "--output", str(out),
        ])
        assert rc == 0
        assert "gap(" in capsys.readouterr().out
        with open(out / "floquet.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sweep_value"
        assert len(rows) == 12
        assert len(rows[0]) == 9  # sweep value + 8 branches
        vals = np.array([[float(x) for x in r] for r in rows[1:]])
        assert np.all(np.isfinite(vals))

    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "--quick", "trajectory", "--regime", "off", "--initial", "gm,e1,g2",
            "--t-final", "500", "--samples", "5", "--output", str(out),
        ])
        assert rc == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert rows[0][-1] == "mod_ground_pop"
        assert len(rows) == 6
        assert float(rows[-1][-1]) > 0.99

    def test_trajectory_on_solves_the_drive_once(self, monkeypatch):
        solve = channel.solve_omega_d_on
        calls = []
        monkeypatch.setattr(channel, "solve_omega_d_on", lambda p: calls.append(p) or solve(p))
        assert main(["--quick", "trajectory", "--regime", "on", "--samples", "3"]) == 0
        assert len(calls) == 1

    def test_trajectory_bad_initial_exits_2(self, capsys):
        rc = main(["--quick", "trajectory", "--initial", "gm,e1"])
        assert rc == 2
        assert "3 comma-separated" in capsys.readouterr().err

    def test_trajectory_unknown_initial_label_exits_2(self, capsys):
        assert main(["--quick", "trajectory", "--initial", "gm,x1,g2"]) == 2
        assert capsys.readouterr().err == "error: unknown state label 'x1'\n"

    def test_steps_per_period_reaches_the_propagator(self, monkeypatch):
        seen = []
        original = cli_module.export_trajectory

        def recording(*args):
            seen.append(args[-1])
            return original(*args)

        monkeypatch.setattr(cli_module, "export_trajectory", recording)
        argv = ["trajectory", "--regime", "off", "--t-final", "50", "--samples", "2",
                "--steps-per-period", "64"]
        assert main(argv) == 0
        assert seen == [PropagatorConfig(steps_per_period=64)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--varied", "omega_2", "--grid-min", "1.001", "--grid-max", "1.002"],
            ["optimize"],
            ["gate-time-sweep"],
            ["reproduce"],
        ],
        ids=["scan", "optimize", "gate-time-sweep", "reproduce"],
    )
    def test_commands_that_solve_the_on_drive_reject_omega_d_on(
        self, config_file, capsys, tmp_path, argv
    ):
        path = config_file({"params": {"omega_d_on": 0.998}})
        out = tmp_path / "out"
        assert main(argv + ["--config", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {argv[0]} solves omega_d_on at every point: "
            "remove params.omega_d_on from the config\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--samples", ["trajectory", "--samples", "1"]),
            ("--t-final", ["trajectory", "--t-final", "-5"]),
            ("--t-final", ["trajectory", "--t-final", "inf"]),
            ("--steps-per-period", ["trajectory", "--steps-per-period", "0"]),
            ("--steps-per-period", ["trajectory", "--steps-per-period", "6"]),
            ("--haar-samples", ["fidelity", "--method", "haar-monte-carlo", "--haar-samples", "0"]),
            ("--points", ["floquet", "--points", "1"]),
            ("--points", ["scan", "--varied", "omega_2", "--grid-min", "1.001",
                          "--grid-max", "1.002", "--points", "1"]),
            ("--budget", ["optimize", "--budget", "0"]),
            ("--budget", ["gate-time-sweep", "--budget", "10"]),
            ("--points", ["gate-time-sweep", "--points", "0"]),
            ("--seed", ["fidelity", "--method", "haar-monte-carlo", "--seed", "-1"]),
            ("--jobs", ["scan", "--varied", "omega_2", "--grid-min", "1.001",
                        "--grid-max", "1.002", "--jobs", "0"]),
            ("--jobs", ["gate-time-sweep", "--jobs", "-2"]),
        ],
        ids=["samples", "t-final", "t-final-inf", "steps-per-period", "steps-per-period-6",
             "haar-samples", "floquet-points", "scan-points", "optimize-budget", "sweep-budget",
             "sweep-points", "haar-seed", "scan-jobs-0", "sweep-jobs-negative"],
    )
    def test_bad_value_exits_2(self, flag, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--grid-max", ["floquet", "--grid-min", "1.001", "--grid-max", "1.001"]),
            ("--j12-min", ["gate-time-sweep", "--j12-min", "-1"]),
            ("--j12-max", ["gate-time-sweep", "--j12-min", "1e-4", "--j12-max", "1e-5"]),
            ("--grid-min", ["scan", "--varied", "j_m1", "--grid-min", "0", "--grid-max", "1e-3",
                            "--log"]),
            ("--grid-min", ["floquet", "--grid-min", "nan"]),
            ("--j12-max", ["--quick", "gate-time-sweep", "--j12-max", "inf", "--points", "2",
                           "--budget", "100"]),
            ("--j12-min", ["gate-time-sweep", "--j12-min", "nan"]),
            ("--grid-max", ["scan", "--varied", "omega_2", "--grid-min", "1.001",
                            "--grid-max", "inf"]),
            ("--grid-min", ["scan", "--varied", "omega_2", "--grid-min=-inf",
                            "--grid-max", "1.002"]),
        ],
        ids=["floquet-empty-grid", "sweep-j12-min", "sweep-j12-max", "scan-log-zero",
             "floquet-nan", "sweep-j12-max-inf", "sweep-j12-min-nan", "scan-grid-max-inf",
             "scan-grid-min-inf"],
    )
    def test_bad_range_exits_2(self, flag, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ")
        assert err.count("\n") == 1

    def test_scan_rejects_invalid_grid_point(self, capsys):
        argv = ["scan", "--varied", "drive_amp", "--grid-min", "-1", "--grid-max", "0",
                "--points", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: drive_amp must be non-negative, got -1.0\n"
        assert captured.out == ""

    def test_floquet_rejects_invalid_sweep_point(self, tmp_path, capsys):
        argv = ["floquet", "--sweep", "omega_1", "--grid-min", "-1", "--grid-max", "0.5",
                "--points", "4", "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: omega_1 must be strictly positive, got -1.0\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_scan_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--quick", "scan", "--varied", "omega_2", "--grid-min", "1.0012",
            "--grid-max", "1.0022", "--points", "3", "--output", str(out),
        ])
        assert rc == 0
        assert "min infidelity_on=" in capsys.readouterr().out
        with open(out / "scan.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "omega_2", "infidelity_on", "off_ratio", "omega_d_on", "t_gate",
            "error",
        ]
        assert len(rows) == 4
        for r in rows[1:]:
            assert r[5] == ""  # all three points succeed
            assert math.isfinite(float(r[1]))

    def test_scan_log_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--quick", "scan", "--varied", "j_m1", "--grid-min", "0.003",
            "--grid-max", "0.0048", "--points", "3", "--log", "--output", str(out),
        ])
        assert rc == 0
        with open(out / "scan.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == np.geomspace(0.003, 0.0048, 3).tolist()
        assert all(r[5] == "" for r in rows)

    def test_optimize_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--quick", "optimize", "--budget", "50", "--output", str(out)])
        assert rc == 0
        assert "evaluations=" in capsys.readouterr().out
        data = json.loads((out / "optimized.json").read_text())
        assert set(data) == {
            "params", "infidelity_on", "off_ratio", "t_gate", "evaluations", "converged",
        }
        assert set(data["params"]) == set(dataclasses.asdict(ProtocolParams()))
        assert 0.0 < data["infidelity_on"] < 0.1

    def test_quick_optimize_keeps_its_budget(self, capsys):
        # --quick scores at most max(50, 10 // 4) = 50 points.
        assert main(["--quick", "optimize", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert 0 < int(out.split("evaluations=")[1]) <= 50

    def test_gate_time_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--quick", "gate-time-sweep", "--points", "2", "--budget", "50",
            "--output", str(out),
        ])
        assert rc == 0
        assert "t_gate" in capsys.readouterr().out
        with open(out / "gate_time_sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "j_12", "t_gate", "infidelity_on", "off_ratio", "j_m1", "drive_amp", "omega_2",
        ]
        assert len(rows) == 3
        assert [float(r[0]) for r in rows[1:]] == pytest.approx([1.5e-5, 1.2e-4])

    def test_reproduce_quick(self, tmp_path, capsys):
        # Consistency of the run record only; which checks pass is the
        # acceptance tests' business.
        out = tmp_path / "out"
        rc = main(["--quick", "reproduce", "--output", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["completed"] == [
            "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
            "fig4", "optimized_point", "summary",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] + summary["failed"] == len(summary["checks"])
        assert summary["passed"] == sum(c["pass"] for c in summary["checks"].values())
        assert rc == (0 if summary["failed"] == 0 else 1)
        tally = f"{summary['passed']}/{len(summary['checks'])} checks passed"
        assert tally in capsys.readouterr().out
        scan_cols = ["infidelity_on", "off_ratio", "omega_d_on", "t_gate", "error"]
        headers = {
            "fig2a": ["omega_d", "delta_12_prime"],
            "fig3a": ["j_m1", *scan_cols],
            "fig3b": ["drive_amp", *scan_cols],
            "fig3c": ["omega_2", *scan_cols],
            "fig3d": ["j_12", *scan_cols],
            "fig3e": ["omega_d_off", *scan_cols],
            "fig4": ["j_12", "t_gate", "infidelity_on", "off_ratio", "j_m1", "drive_amp",
                     "omega_2"],
        }
        for name, header in headers.items():
            with open(out / f"{name}.csv") as fh:
                assert next(csv.reader(fh)) == header, name
        for name in ("fig2b", "fig2c"):
            with open(out / f"{name}.csv") as fh:
                header = next(csv.reader(fh))
            assert header[0] == "sweep_value" and len(header) == 9, name
            assert all(h.startswith("quasienergy_") for h in header[1:]), name
        assert "modulator_return" in json.loads((out / "optimized_point.json").read_text())


class TestImportClosure:
    """scipy stays off the package's import path: only the optimizer loads it."""

    @staticmethod
    def run(code):
        src = os.path.dirname(os.path.dirname(channel.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        )
        return proc.stdout.split()

    def test_library_import_leaves_scipy_out(self):
        code = """
            import sys
            import freezegate.cli, freezegate.scan, freezegate.floquet, freezegate.channel
            print("scipy" in sys.modules)
        """
        assert self.run(code) == ["False"]

    def test_library_import_leaves_the_process_pool_out(self):
        # Only `run_scan` and `gate_time_sweep` with jobs > 1 start a pool.
        code = """
            import sys
            import freezegate.cli, freezegate.scan, freezegate.floquet, freezegate.channel
            print("concurrent.futures" in sys.modules, "multiprocessing" in sys.modules)
        """
        assert self.run(code) == ["False", "False"]

    def test_optimizer_loads_scipy(self):
        code = """
            import sys
            from freezegate.params import BASELINE
            from freezegate.propagate import PropagatorConfig
            from freezegate.scan import optimize_joint
            before = "scipy" in sys.modules
            cfg = PropagatorConfig(16)
            optimize_joint(BASELINE, budget=50, restarts=1, cfg=cfg, final_cfg=cfg)
            print(before, "scipy" in sys.modules)
        """
        assert self.run(code) == ["False", "True"]
