import csv
import json
import logging

import numpy as np
import pytest

from schwarzjd import cli
from schwarzjd.cli import ExperimentConfig, fit_gamma, main
from schwarzjd.errors import SingularMatrixError

TINY = [
    "--domain", "square", "--coarse", "2", "--fine", "4",
    "--overlap", "0.25", "--m", "1", "--M", "2", "--tol", "1e-8",
]


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(autouse=True)
def restore_root_logging():
    """``main`` configures the root logger; give it back as it was."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


def rejected(capsys, argv):
    """Run ``main(argv)``; assert exit code 2 and return its stderr."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


class TestConfigValidation:
    """Every configuration check is a library check that ``main`` reports with exit 2."""

    def test_defaults_are_valid(self, tmp_path):
        assert main(["run", "--m", "1", "--M", "2", "--output-dir", str(tmp_path)]) == 0

    def test_cluster_order_checked(self, capsys):
        assert "m <= M" in rejected(capsys, ["run", "--m", "5", "--M", "4"])

    def test_initial_mesh_capacity_checked(self, capsys, tmp_path):
        err = rejected(capsys, ["run", "--coarse", "1", "--fine", "3", "--m", "1", "--M", "50",
                                "--output-dir", str(tmp_path / "run")])
        assert "initialization mesh" in err

    def test_overlap_layer_checked(self, capsys, tmp_path):
        err = rejected(capsys, ["run", "--coarse", "3", "--fine", "4", "--overlap", "0.25",
                                "--output-dir", str(tmp_path / "run")])
        assert "fine layer" in err

    @pytest.mark.parametrize("flags, fragment", [
        (["--m", "0", "--M", "2"], "m <= M"),
        (["--coarse", "0"], "coarse level must be >= 1"),
        (["--coarse", "2", "--fine", "2"], "must exceed coarse level"),
        (["--overlap", "0.75"], "overlap ratio must lie in (0, 1/2]"),
        (["--tol", "0"], "tolerance must be positive"),
        (["--max-iter", "0"], "max_iter must be >= 1"),
        (["--restart-dim", "4"], "restart dimension must be at least 5"),
    ])
    def test_flag_rejected(self, capsys, tmp_path, flags, fragment):
        argv = ["run", *TINY, *flags, "--output-dir", str(tmp_path / "run")]
        assert fragment in rejected(capsys, argv)

    @pytest.mark.parametrize("key, value, fragment", [
        ("domain", "hexagon", "domain must be one of ['square', 'lshape'], got 'hexagon'"),
        ("format", "xml", "format must be 'csv' or 'json', got 'xml'"),
        ("coarse", "2", "'coarse' must be int, got '2'"),
        ("tol", "1e-8", "'tol' must be float, got '1e-8'"),
        ("m", 1.5, "'m' must be int, got 1.5"),
        ("shared_shift", "yes", "'shared_shift' must be bool, got 'yes'"),
    ])
    def test_config_file_value_rejected(self, capsys, tmp_path, key, value, fragment):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["run", "--config", str(cfg), "--coarse", "2", "--fine", "4", "--m", "1",
                "--M", "2", "--output-dir", str(tmp_path / "run")]
        assert fragment in rejected(capsys, argv)

    @pytest.mark.parametrize("flags", [
        ["--tol", "0"],  # SolverConfig
        ["--overlap", "0.2"],  # build_decomposition
        ["--M", "9"],  # initialize: the initialization mesh of coarse level 1 has 9 dofs
    ])
    def test_rejected_run_writes_nothing(self, capsys, tmp_path, flags):
        out = tmp_path / "run"
        rejected(capsys, ["run", "--coarse", "1", "--fine", "3", "--m", "1", "--M", "2",
                          *flags, "--output-dir", str(out)])
        assert not out.exists()


class TestRunCommand:
    def test_converged_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *TINY, "--output-dir", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "final.csv").exists()
        assert (out / "summary.json").exists()

        rows = read_csv(out / "final.csv")
        assert rows[0] == ["i", "lambda", "oracle_lambda", "abs_err"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        # analytic square eigenvalues land in the oracle column
        assert float(rows[1][2]) == 2.0
        assert float(rows[2][2]) == 5.0

        trace = read_csv(out / "trace.csv")
        assert trace[0] == ["k", "lambda_1", "lambda_2", "stop_norm", "value_drift",
                            "basis_dim", "clamped_shifts", "wall_ms"]
        assert trace[1][0] == "0"
        assert float(trace[-1][3]) < 1e-8
        assert trace[1][4] == "0.000000e+00"
        summary = json.loads((out / "summary.json").read_text())
        assert [int(r[5]) for r in trace[1:]] == summary["basis_dims"]
        assert all(int(r[6]) == 0 for r in trace[1:])

    def test_summary_echoes_full_config(self, tmp_path):
        out = tmp_path / "run"
        main(["run", *TINY, "--output-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        expected = ExperimentConfig(m=1, M=2, coarse=2, fine=4, output_dir=str(out))
        assert summary["config"] == {
            f: getattr(expected, f) for f in expected.__dataclass_fields__
        }
        assert summary["converged"] is True
        assert summary["gamma"] is None or summary["gamma"] < 1.0
        assert summary["subdomain_count"] == 16
        assert len(summary["basis_dims"]) == summary["iterations"] + 1

    def test_validation_failure_is_exit_code_2(self, capsys):
        assert main(["run", "--m", "5", "--M", "4"]) == 2
        assert "m <= M" in capsys.readouterr().err

    def test_numerical_failure_is_exit_code_4(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularMatrixError("zero pivot")

        monkeypatch.setattr(cli, "solve", singular)
        assert main(["run", *TINY, "--output-dir", str(tmp_path)]) == 4
        assert "error: zero pivot" in capsys.readouterr().err

    def test_log_level_info_shows_ldlt_fallbacks(self, tmp_path, capsys):
        # the cluster lies above the 9 coarse dofs and above the lowest
        # eigenvalue of every subdomain block, as on the square-indefinite
        # benchmark: the coarse solve is empty and local Cholesky fails
        args = ["run", "--domain", "square", "--coarse", "2", "--fine", "4",
                "--m", "20", "--M", "24", "--output-dir", str(tmp_path)]
        assert main(args + ["--log-level", "info"]) == 0
        err = capsys.readouterr().err
        assert "INFO schwarzjd.schwarz: 20 of 20 local factorizations were indefinite" in err
        assert main(args) == 0  # default level: warning
        assert "local factorizations" not in capsys.readouterr().err

    def test_non_convergence_is_distinct_exit_code_with_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *TINY, "--max-iter", "1", "--tol", "1e-14",
                     "--output-dir", str(out)])
        assert code == 3
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False

    def test_rerun_reproduces_trace_bit_exactly(self, tmp_path):
        # wall_ms is the one nondeterministic column; the solver content
        # must reproduce byte for byte
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["run", *TINY, "--output-dir", str(out)])
            rows = read_csv(out / "trace.csv")
            outs.append([row[:-1] for row in rows])
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "domain": "square", "coarse": 2, "fine": 4,
            "m": 1, "M": 2, "max_iter": 1,
        }))
        out = tmp_path / "run"
        code = main(["run", "--config", str(cfg), "--max-iter", "50",
                     "--output-dir", str(out)])
        assert code == 0  # the flag lifted the file's max_iter
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["max_iter"] == 50

    def test_unknown_config_file_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"domain": "square", "mesh": 4}))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_json_output_format(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *TINY, "--format", "json", "--output-dir", str(out)])
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace[0]["k"] == "0"
        assert {"value_drift", "basis_dim", "clamped_shifts"} <= set(trace[0])
        final = json.loads((out / "final.json").read_text())
        assert [row["i"] for row in final] == ["1", "2"]

    def test_lshape_reduced_table_scenario(self, tmp_path):
        out = tmp_path / "lshape"
        code = main([
            "run", "--domain", "lshape", "--coarse", "3", "--fine", "5",
            "--m", "41", "--M", "47", "--tol", "1e-8", "--output-dir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "final.csv")
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(41, 48)]
        # fine mesh is small enough for the dense reference
        lam = np.array([float(r[1]) for r in rows[1:]])
        ref = np.array([float(r[2]) for r in rows[1:]])
        assert np.all(np.abs(lam - ref) < 1e-6)


class TestSweepCommand:
    def test_vary_fine_layout(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", *TINY, "--output-dir", str(out),
                     "--vary-fine", "4", "5"])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=5"]
        assert [r[0] for r in rows[1:]] == ["lambda_1", "lambda_2", "it.", "stop."]
        assert (out / "fine=4" / "summary.json").exists()
        assert (out / "fine=5" / "summary.json").exists()
        # eigenvalues drop toward the analytic limit as the mesh refines
        assert float(rows[1][2]) < float(rows[1][1])

    def test_vary_coarse(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--domain", "square", "--fine", "5", "--overlap",
                     "0.25", "--m", "1", "--M", "2", "--output-dir", str(out),
                     "--vary-coarse", "2", "3"])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "coarse=2", "coarse=3"]

    def test_empty_vary_rejected(self, capsys):
        assert main(["sweep", *TINY]) == 2

    @pytest.mark.parametrize("flags", [["--m", "5", "--M", "4"], ["--tol", "0"]])
    def test_shared_setting_rejects_whole_sweep(self, capsys, tmp_path, flags):
        out = tmp_path / "sweep"
        assert main(["sweep", *TINY, *flags, "--output-dir", str(out), "--vary-fine", "4"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, label", [
        # the base fine level 2 does not exceed coarse level 2
        (["--coarse", "2", "--fine", "2", "--m", "1", "--M", "2", "--vary-fine", "4"], "fine=4"),
        # M = 13 is not below the 9 dofs of the base coarse level's initialization mesh
        (["--coarse", "1", "--fine", "4", "--m", "11", "--M", "13", "--vary-coarse", "2"],
         "coarse=2"),
    ])
    def test_only_the_swept_levels_are_checked(self, tmp_path, flags, label):
        out = tmp_path / "sweep"
        assert main(["sweep", "--domain", "square", *flags, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", label]

    def test_per_column_errors_recorded_and_sweep_continues(self, tmp_path):
        out = tmp_path / "sweep"
        # fine=3 leaves less than one overlap layer -> that column errors
        code = main(["sweep", *TINY, "--output-dir", str(out),
                     "--vary-fine", "3", "4"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        it_row = next(r for r in rows if r[0] == "it.")
        assert it_row[1] == "error"
        assert it_row[2] != "error"


class TestFitGamma:
    def test_geometric_mean_of_clean_ratios(self):
        class Rec:
            def __init__(self, values):
                self.values = np.asarray(values)

        lam_h = np.array([1.0])
        trace = [Rec([1.0 + e]) for e in (1.0, 0.5, 0.25, 0.125)]
        gamma = fit_gamma(trace, lam_h, 1, 1)
        assert gamma == pytest.approx(0.5)

    def test_no_usable_ratio_returns_none(self):
        class Rec:
            def __init__(self, values):
                self.values = np.asarray(values)

        lam_h = np.array([1.0])
        trace = [Rec([1.0]), Rec([1.0])]
        assert fit_gamma(trace, lam_h, 1, 1) is None
