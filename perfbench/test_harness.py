"""Fast checks of the benchmark harness itself, on a tiny problem.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import freeze_refs  # noqa: E402
import harness  # noqa: E402

# Square, coarse 2, fine 4, cluster 1..3: 49 dofs, solved in well under a second.
TINY = harness.Workload("square", 2, 4, 1, 3)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared_units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def printed_units(result):
    line = json.loads(result.json_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in line["metrics"].items()}


@pytest.fixture(scope="module")
def reference():
    return freeze_refs.compute_reference(TINY)


def test_end_to_end_reports_every_metric_with_its_unit(reference):
    result = harness.end_to_end(TINY, reference, seed=0, seconds=0)
    assert result.correct and result.failed == 0 and result.attempted == 1
    assert printed_units(result) == declared_units("end_to_end")
    assert result.metrics["iterations"] > 0


def test_per_layer_reports_every_metric_and_restores_the_library(reference):
    originals = [getattr(owner, attr) for owner, attr, _, _ in harness._TRACED]
    result = harness.per_layer(TINY, reference, seed=0, seconds=0)
    assert [getattr(owner, attr) for owner, attr, _, _ in harness._TRACED] == originals
    assert result.correct and result.failed == 0
    assert printed_units(result) == declared_units("per_layer")
    m = result.metrics
    assert m["linalg.factorize_shifted.calls"] == m["linalg.factor.spd_cholesky"] > 0
    assert m["schwarz.apply.calls"] > 0 and m["eigensolver.final_basis_dim"] > 0


def test_wrong_reference_counts_as_failed(reference):
    result = harness.end_to_end(TINY, reference + 1e-3, seed=0, seconds=0)
    assert not result.correct and result.failed == result.attempted == 1


def test_workloads_match_benchmark_json_and_frozen_references():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    for name, w in harness.WORKLOADS.items():
        assert harness.load_reference(name).shape == (w.last - w.first + 1,)


def test_run_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square-spd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
