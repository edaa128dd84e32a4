import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd import cli, linalg
from schwarzjd.cli import ExperimentConfig, fit_gamma, main
from schwarzjd.eigensolver import ClusterSpec, SolverConfig, SolverReport, TraceRecord
from schwarzjd.errors import SingularMatrixError
from schwarzjd.mesh import DomainShape, build_mesh

TINY = [
    "--domain", "square", "--coarse", "2", "--fine", "4",
    "--overlap", "0.25", "--m", "1", "--M", "2", "--tol", "1e-8",
]


# The JSON value types each ExperimentConfig field takes.
JSON_KINDS = {
    "domain": {str}, "coarse": {int}, "fine": {int}, "overlap": {int, float}, "m": {int},
    "M": {int}, "tol": {int, float}, "max_iter": {int}, "restart_dim": {int, type(None)},
    "output_dir": {str}, "format": {str},
}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def read_table(path, fmt):
    """The rows of a table written as ``path`` in ``fmt``, each a dict keyed by the header."""
    if fmt == "json":
        return json.loads(path.with_suffix(".json").read_text())
    head, *rows = read_csv(path.with_suffix(".csv"))
    return [dict(zip(head, row)) for row in rows]


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
        (["--tol", "inf"], "tolerance must be positive and finite, got inf"),
        (["--tol", "nan"], "tolerance must be positive and finite, got nan"),
        (["--domain", "hexagon"], "domain must be one of"),
        (["--format", "xml"], "format must be 'csv' or 'json'"),
    ])
    def test_flag_rejected(self, capsys, tmp_path, flags, fragment):
        argv = ["run", *TINY, *flags, "--output-dir", str(tmp_path / "run")]
        assert fragment in rejected(capsys, argv)

    @pytest.mark.parametrize("key, value, fragment", [
        ("domain", "hexagon", "domain must be one of ['square', 'lshape'], got 'hexagon'"),
        ("format", "xml", "format must be 'csv' or 'json', got 'xml'"),
        ("coarse", "2", "mesh levels must be integers, got coarse '2'"),
        ("tol", "1e-8", "tolerance must be a number, got '1e-8'"),
        ("m", 1.5, "need integer m and M, got m=1.5"),
        ("coarse", True, "mesh levels must be integers, got coarse True"),
        ("tol", float("nan"), "tolerance must be positive and finite, got nan"),
        ("coarse", 2.0, "mesh levels must be integers, got coarse 2.0"),
        ("max_iter", 2.0, "max_iter must be >= 1 and an integer, got 2.0"),
        ("domain", 5, "domain must be one of ['square', 'lshape'], got 5"),
        ("format", 5, "format must be 'csv' or 'json', got 5"),
        ("restart_dim", "9", "restart_dim must be an integer, got '9'"),
        ("overlap", "0.25", "overlap ratio must be a number, got '0.25'"),
        ("output_dir", 5, "output directory must be a path string, got 5"),
        ("output_dir", None, "output directory must be a path string, got None"),
        ("output_dir", ["run"], "output directory must be a path string, got ['run']"),
        ("output_dir", "run\u0000", "output directory must be a path string, got 'run\\x00'"),
    ])
    def test_config_file_value_rejected(self, capsys, tmp_path, monkeypatch, key, value,
                                        fragment):
        """A file value meets the library check a flag value meets, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"output_dir": "run", key: value}))
        assert fragment in rejected(capsys, ["run", "--config", str(cfg)])
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key, flag, value", [
        ("tol", "0", 0.0),
        ("max_iter", "0", 0),
        ("overlap", "0.75", 0.75),
        ("domain", "hexagon", "hexagon"),
        ("format", "xml", "xml"),
        ("coarse", "0", 0),
        ("coarse", "2.5", 2.5),
        ("max_iter", "1e3", 1000.0),
        ("m", "x", "x"),
    ])
    def test_flag_and_file_value_print_the_same_message(self, capsys, tmp_path, key, flag, value):
        out = str(tmp_path / "run")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        by_flag = rejected(capsys, ["run", f"--{key.replace('_', '-')}", flag, "--output-dir", out])
        by_file = rejected(capsys, ["run", "--config", str(cfg), "--output-dir", out])
        assert by_flag == by_file
        assert not Path(out).exists()

    def test_file_value_a_flag_overrides_is_not_checked(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"coarse": "2", "tol": None}))
        assert main(["run", "--config", str(cfg), *TINY, "--output-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_wrong_typed_file_value_rejected_and_nothing_written(self, field, data):
        value = data.draw(JSON_VALUES.filter(lambda v: type(v) not in JSON_KINDS[field]))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved"))
            cfg = Path(tmp) / "config.json"
            values = {"output_dir": str(Path(tmp) / "run"), field: value}
            cfg.write_text(json.dumps(values))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg)])
            assert code == 2
            assert err.getvalue().startswith("config error: ")
            assert repr(value) in err.getvalue()
            assert list(Path(tmp).iterdir()) == [cfg]

    @pytest.mark.parametrize("content, fragment", [
        ("{", "cannot read config file"),
        (None, "cannot read config file"),
        ('["coarse"]', "config file must hold a JSON object, got list"),
    ], ids=["malformed", "missing", "array"])
    def test_config_file_unreadable_rejected(self, capsys, tmp_path, content, fragment):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        assert fragment in rejected(capsys, ["run", "--config", str(cfg)])

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

    def test_basis_beyond_memory_rejected_and_nothing_written(self, capsys, tmp_path,
                                                              monkeypatch):
        # TINY has 225 dofs: room for 6 columns, the startup's three 2-column
        # blocks, but not for the basis of 8 columns after three iterations
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * 225 * 6)
        out = tmp_path / "run"
        err = rejected(capsys, ["run", *TINY, "--output-dir", str(out)])
        assert "GiB" in err and "--restart-dim" in err
        assert not out.exists()

    def test_startup_block_beyond_memory_rejected_and_nothing_written(self, capsys, tmp_path,
                                                                      monkeypatch):
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * 225 * 6 - 1)
        out = tmp_path / "run"
        err = rejected(capsys, ["run", *TINY, "--output-dir", str(out)])
        assert "startup block, three blocks of 2 columns of 225 dofs" in err
        assert "GiB of physical memory" in err
        assert not out.exists()

    def test_coarse_eigensolve_beyond_memory_rejected_and_nothing_written(self, capsys, tmp_path,
                                                                           monkeypatch):
        # Coarse level 3 has 49 dofs: the eigensolve needs 32 * 49^2 bytes, one more than
        # the budget.  The startup block of M = 2 on the 961 fine dofs needs 3 * 8 * 961 * 2.
        budget = 32 * 49**2 - 1
        assert 3 * 8 * 961 * 2 <= budget
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", budget)
        out = tmp_path / "run"
        err = rejected(capsys, ["run", "--domain", "square", "--coarse", "3", "--fine", "5",
                                "--m", "1", "--M", "2", "--output-dir", str(out)])
        assert "coarse eigensolve at level 3 (49 dofs)" in err and "GiB of physical memory" in err
        assert not out.exists()

    def test_mesh_beyond_memory_rejected_and_nothing_written(self, capsys, tmp_path):
        # The fine dof grid alone would take 8 (2^40 + 1)^2 bytes.
        out = tmp_path / "run"
        err = rejected(capsys, ["run", "--domain", "square", "--coarse", "3", "--fine", "40",
                                "--m", "1", "--M", "2", "--output-dir", str(out)])
        assert "level 40" in err and "GiB of physical memory" in err
        assert not out.exists()


    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary-fine", "4", "5"]],
                             ids=["run", "sweep"])
    def test_output_dir_that_is_a_file_rejected_before_solving(self, capsys, tmp_path,
                                                               monkeypatch, command):
        target = tmp_path / "afile"
        target.write_text("kept\n")
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        err = rejected(capsys, [*command, *TINY, "--output-dir", str(target)])
        assert "is not a directory" in err
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary-fine", "4", "5"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("under", ["out", "a/b/out", "../afile/out"])
    def test_output_dir_under_a_file_rejected_before_solving(self, capsys, tmp_path,
                                                             monkeypatch, command, under):
        target = tmp_path / "afile"
        target.write_text("kept\n")
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        out = str(target / under)
        err = rejected(capsys, [*command, *TINY, "--output-dir", out])
        assert err == f"config error: output directory {out!r} is not a directory\n"
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path):
        # the trace table's path is a directory: opening it fails after the solve
        out = tmp_path / "run"
        (out / "trace.csv").mkdir(parents=True)
        err = rejected(capsys, ["run", *TINY, "--output-dir", str(out)])
        assert "cannot write the outputs: [Errno 21]" in err
        assert list(out.iterdir()) == [out / "trace.csv"]
        assert list((out / "trace.csv").iterdir()) == []


# How a flag reads its text: an int setting as an int, else a float, else the text; a
# float setting as a float, else the text; a text setting as the text.
INTEGER = {"7": 7, "2.5": 2.5, "1e-8": 1e-8, "x": "x"}
REAL = {"1": 1.0, "2.5": 2.5, "x": "x"}
TEXT = {"1": "1", "2.5": "2.5", "x": "x"}
FLAG_READS = {
    "domain": TEXT, "coarse": INTEGER, "fine": INTEGER, "overlap": REAL, "m": INTEGER,
    "M": INTEGER, "tol": REAL, "max_iter": INTEGER, "restart_dim": INTEGER, "output_dir": TEXT,
    "format": TEXT,
}


class TestFlags:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_setting_is_a_flag_of_both_commands(self, monkeypatch, command):
        configs = []
        monkeypatch.setattr(cli, command, lambda config, **levels: configs.append(config) or 0)
        assert set(FLAG_READS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        for name, reads in FLAG_READS.items():
            for text, value in reads.items():
                assert main([command, f"--{name.replace('_', '-')}", text]) == 0
                got = getattr(configs.pop(), name)
                assert (type(got), got) == (type(value), value)

    def test_flag_help_is_the_settings_own(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(ExperimentConfig):
            assert f"--{f.name.replace('_', '-')} {f.name.upper()} {f.metadata['help']}" in out

    def test_solver_settings_default_to_the_solvers(self):
        config, solver = ExperimentConfig(), SolverConfig()
        for f in dataclasses.fields(SolverConfig):
            assert getattr(config, f.name) == getattr(solver, f.name)
        assert config.settings()[1] == solver


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
        assert trace[0] == ["k", "lambda_1", "lambda_2", "stop_norm", "stop_lower",
                            "stop_upper", "value_drift", "basis_dim", "clamped_shifts",
                            "ldlt_fallbacks", "wall_ms"]
        assert trace[1][0] == "0"
        assert float(trace[-1][3]) < 1e-8
        assert trace[1][6] == "0.000000e+00"
        summary = json.loads((out / "summary.json").read_text())
        # the last row holds the exact final stop norm; a blank cell had no solve
        assert trace[-1][3] == f"{summary['final_stop_norm']:.6e}"
        solved = [r for r in trace[1:] if r[3]]
        assert summary["exact_stop_solves"] == len(solved) >= 1
        for r in solved:
            assert float(r[4]) <= float(r[3]) <= float(r[5])
        assert all(float(r[4]) >= 1e-8 for r in trace[1:] if not r[3])
        assert [int(r[7]) for r in trace[1:]] == summary["basis_dims"]
        assert all(int(r[8]) == 0 for r in trace[1:])
        assert summary["clamped_shifts_total"] == 0
        assert all(int(r[9]) == 0 for r in trace[1:])
        assert summary["ldlt_fallbacks_total"] == 0
        setup = summary["setup_s"]
        assert list(setup) == ["build_hierarchy", "build_decomposition", "assemble"]
        assert all(isinstance(t, float) and t > 0 for t in setup.values())

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
        # the process held at least the final trial basis
        basis_mib = 8 * summary["dof_count"] * summary["basis_dims"][-1] / 2**20
        assert summary["peak_rss_mib"] >= basis_mib

    def test_validation_failure_is_exit_code_2(self, capsys):
        assert main(["run", "--m", "5", "--M", "4"]) == 2
        assert "m <= M" in capsys.readouterr().err

    def test_numerical_failure_is_exit_code_4(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularMatrixError("zero pivot")

        monkeypatch.setattr(cli, "solve", singular)
        assert main(["run", *TINY, "--output-dir", str(tmp_path)]) == 4
        assert "error: zero pivot" in capsys.readouterr().err

    def test_failed_coarse_eigensolve_is_exit_code_4(self, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("2 eigenvectors failed to converge.")

        monkeypatch.setattr(linalg.sla, "eigh", no_convergence)
        out = tmp_path / "run"
        assert main(["run", *TINY, "--output-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: dense eigensolve of order 9 failed: 2 eigenvectors")
        assert not out.exists()

    def test_failed_projected_eigensolve_is_exit_code_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(linalg.lapack, "dsyevd", lambda a, **kwargs: (None, a, 1))
        assert main(["run", *TINY, "--output-dir", str(tmp_path)]) == 4
        assert "error: dsyevd failed with info=1" in capsys.readouterr().err

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
        # the output files count the fallbacks too, per iteration and in total
        trace = read_csv(tmp_path / "trace.csv")
        column = [int(r[trace[0].index("ldlt_fallbacks")]) for r in trace[1:]]
        assert column[:2] == [0, 20]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ldlt_fallbacks_total"] == sum(column)

    @pytest.mark.parametrize("cluster, deflated", [
        (["--m", "1", "--M", "2"], 7),
        (["--m", "20", "--M", "24"], 0),  # above all 9 coarse eigenvectors
    ], ids=["two-level", "one-level"])
    def test_summary_records_the_coarse_space_and_one_level_runs_warn(self, tmp_path, capsys,
                                                                      cluster, deflated):
        assert main(["run", *TINY, *cluster, "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["coarse_dofs"], summary["deflated_dim"]) == (9, deflated)
        warned = "preconditioner was one-level" in capsys.readouterr().err
        assert warned == (deflated == 0)

    def test_summary_from_numpy_and_enum_settings(self, tmp_path):
        # values the library accepts are echoed as plain JSON values, and the
        # square's analytic reference is chosen from the domain the settings built
        config = ExperimentConfig(domain=DomainShape.SQUARE, coarse=np.int64(2), fine=4,
                                  m=1, M=np.int64(2), tol=np.float64(1e-8),
                                  output_dir=str(tmp_path))
        assert cli.run(config) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["domain"] == "square"
        assert (summary["config"]["coarse"], summary["config"]["M"]) == (2, 2)
        assert [r[2] for r in read_csv(tmp_path / "final.csv")[1:]] == ["2.000000000",
                                                                          "5.000000000"]

    def test_non_convergence_is_distinct_exit_code_with_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *TINY, "--max-iter", "1", "--tol", "1e-14",
                     "--output-dir", str(out)])
        assert code == 3
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        # an unconverged run still ends with an exact stop norm
        assert read_csv(out / "trace.csv")[-1][3] == f"{summary['final_stop_norm']:.6e}"
        assert summary["exact_stop_solves"] == 1

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

    def test_trace_has_a_column_per_trace_record_field(self, tmp_path, monkeypatch):
        nan = float("nan")
        trace = [TraceRecord(0, np.array([5.0, 5.0]), nan, 0.5, 1.0, 0.0, 4, 0, 1, 1.23456),
                 TraceRecord(1, np.array([5.25, 5.5]), 2.5e-9, 1e-9, 4e-9, 0.75, 8, 2, 0, 7.0)]
        report = SolverReport(ClusterSpec(2, 3), np.array([5.25, 5.5]), None, 1, True, False,
                              2.5e-9, 3, trace, {})
        monkeypatch.setattr(cli, "solve", lambda *args: report)
        out = tmp_path / "run"
        argv = ["run", *TINY, "--m", "2", "--M", "3", "--output-dir", str(out)]
        assert main(argv) == 0
        names = [f.name for f in dataclasses.fields(TraceRecord)]
        assert names[:2] == ["iteration", "values"]
        assert read_csv(out / "trace.csv") == [
            ["k", "lambda_2", "lambda_3", *names[2:]],
            ["0", "5.000000000", "5.000000000", "", "5.000000e-01", "1.000000e+00",
             "0.000000e+00", "4", "0", "1", "1.235"],
            ["1", "5.250000000", "5.500000000", "2.500000e-09", "1.000000e-09", "4.000000e-09",
             "7.500000e-01", "8", "2", "0", "7.000"],
        ]

    def test_peak_rss_is_the_runs_own_not_its_launchers(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        held = np.ones(2**25)  # 256 MiB, resident in the process that launches the run
        done = subprocess.run(
            [sys.executable, "-m", "schwarzjd.cli", "run", "--domain", "square", "--coarse", "2",
             "--fine", "4", "--m", "1", "--M", "3", "--output-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
        )
        assert held.all() and done.returncode == 0, done.stderr
        del held
        assert json.loads((tmp_path / "summary.json").read_text())["peak_rss_mib"] < 200

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
        assert {"stop_norm", "stop_lower", "stop_upper", "value_drift", "basis_dim",
                "clamped_shifts", "ldlt_fallbacks"} <= set(trace[0])
        assert trace[-1]["stop_norm"] != ""
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

    @pytest.mark.parametrize("above", [True, False], ids=["above-limit", "at-limit"])
    def test_reference_limit(self, tmp_path, monkeypatch, above):
        n = build_mesh(DomainShape.LSHAPE, 4).n_dofs
        monkeypatch.setattr(cli, "REFERENCE_DOF_LIMIT", n - 1 if above else n)
        sizes = []
        lowest_eigenpairs = linalg.lowest_eigenpairs

        def recording(K, M, k):
            sizes.append(K.shape[0])
            return lowest_eigenpairs(K, M, k)

        monkeypatch.setattr(linalg, "lowest_eigenpairs", recording)
        code = main(["run", "--domain", "lshape", "--coarse", "2", "--fine", "4",
                     "--m", "1", "--M", "2", "--tol", "1e-8", "--output-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["dof_count"] == n
        oracle_column = [r[2] for r in read_csv(tmp_path / "final.csv")[1:]]
        if above:
            assert n not in sizes
            assert summary["gamma"] is None
            assert oracle_column == ["", ""]
        else:
            assert n in sizes
            assert summary["gamma"] is not None
            assert all(oracle_column)


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

    def test_repeated_levels_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        err = rejected(capsys, ["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "4"])
        assert "swept fine levels must be distinct" in err
        assert not out.exists()

    def test_levels_equal_as_numbers_but_not_as_labels_are_two_columns(self, tmp_path):
        # 4.0 is not a level, so it is its own column's error, not a repeat of 4
        out = tmp_path / "sweep"
        code = main(["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "4.0"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=4.0"]
        it_row, stop_row = rows[-2:]
        assert it_row[1] != "error" and it_row[2] == "error"
        assert stop_row[2] == "mesh levels must be integers, got coarse 2, fine 4.0"

    def test_column_directory_that_is_a_file_is_that_columns_error(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "fine=4").write_text("kept\n")
        calls, real_solve = [], cli.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve", counted)
        code = main(["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "5"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=5"]
        it_row, stop_row = rows[-2:]
        assert it_row[1] == "error" and it_row[2] != "error"
        assert "is not a directory" in stop_row[1]
        assert (out / "fine=4").read_text() == "kept\n"
        assert (out / "fine=5" / "summary.json").exists()
        assert len(calls) == 1

    def test_column_that_cannot_write_its_outputs_is_that_columns_error(self, tmp_path, capsys):
        # fine=4 solves, then fails to open its trace table; fine=5 still runs
        out = tmp_path / "sweep"
        (out / "fine=4" / "trace.csv").mkdir(parents=True)
        code = main(["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "5"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=5"]
        it_row, stop_row = rows[-2:]
        assert it_row[1] == "error" and it_row[2] != "error"
        assert stop_row[1].startswith("cannot write the outputs: [Errno 21]")
        assert "fine=4: error: cannot write the outputs" in capsys.readouterr().err
        assert (out / "fine=5" / "summary.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_cell_is_its_columns_own_output(self, tmp_path, fmt):
        out = tmp_path / "sweep"
        code = main(["sweep", *TINY, "--format", fmt, "--output-dir", str(out),
                     "--vary-fine", "4", "5"])
        assert code == 0
        table = read_table(out / "sweep", fmt)
        assert [row["index"] for row in table] == ["lambda_1", "lambda_2", "it.", "stop."]
        for label in ("fine=4", "fine=5"):
            final = read_table(out / label / "final", fmt)
            summary = json.loads((out / label / "summary.json").read_text())
            assert [row[label] for row in table] == [
                *(row["lambda"] for row in final),
                str(summary["iterations"]), f"{summary['final_stop_norm']:.6e}",
            ]

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

    def test_level_flag_that_is_not_a_number_is_a_column_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "x"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=x"]
        it_row, stop_row = rows[-2:]
        assert it_row[1] != "error" and it_row[2] == "error"
        assert stop_row[2] == "mesh levels must be integers, got coarse 2, fine 'x'"
        assert "fine=x: error: mesh levels must be integers" in capsys.readouterr().err

    def test_wrong_typed_file_level_is_a_column_error(self, tmp_path):
        # a level every column shares is checked in each column, as a bad flag level is
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fine": 4.0}))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--m", "1", "--M", "2",
                     "--output-dir", str(out), "--vary-coarse", "2"])
        assert code == 3
        it_row, stop_row = read_csv(out / "sweep.csv")[-2:]
        assert it_row == ["it.", "error"]
        assert stop_row == ["stop.", "mesh levels must be integers, got coarse 2, fine 4.0"]

    def test_level_beyond_memory_is_a_column_error(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", *TINY, "--output-dir", str(out), "--vary-fine", "4", "40"])
        assert code == 3
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["index", "fine=4", "fine=40"]
        it_row, stop_row = rows[-2], rows[-1]
        assert it_row[0] == "it." and it_row[1] != "error" and it_row[2] == "error"
        assert "physical memory" in stop_row[2]
        assert not (out / "fine=40").exists()


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


def test_module_entry_point_runs_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "schwarzjd.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
