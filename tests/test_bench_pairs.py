import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, solve_s, hits, failed=0):
    metrics = {"solve_s": {"value": solve_s, "unit": "s"},
               "hits": {"value": hits, "unit": "count"}}
    result = {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
    return {"pair": pair, "seed": 100 + pair, "side": side,
            "runs_first": (pair % 2 == 1) == (side == "parent"), "results": {"w": result}}


def test_summary_of_synthetic_runs():
    parent = [(1.0, 5), (2.0, 5), (3.0, 5), (4.0, 5)]
    change = [(0.5, 6), (2.5, 5), (1.0, 4), (4.0, 7)]
    runs = [_run(p, "parent", *parent[p - 1]) for p in range(1, 5)]
    runs += [_run(p, "change", *change[p - 1], failed=p == 2) for p in range(1, 5)]
    runs.append({"pair": 5, "seed": 105, "side": "parent", "runs_first": True, "results": {}})

    summary = bench_pairs.summarize(runs, ["w"], {"solve_s": "lower", "hits": "higher"})
    assert list(summary) == ["w solve_s", "w hits"]
    assert summary["w solve_s"] == {
        "pairs": 4,  # pair 5 has no change run and no result
        "parent_q1_med_q3": [1.75, 2.5, 3.25],
        "change_q1_med_q3": [0.875, 1.75, 2.875],
        "change_wins": 2,  # 0.5 < 1.0 and 1.0 < 3.0; 4.0 == 4.0 is a tie
        "ties": 1,
        "median_ratio": 0.7,
    }
    assert summary["w hits"]["change_wins"] == 2  # higher is better: 6 > 5 and 7 > 5
    assert summary["w hits"]["ties"] == 1
    assert bench_pairs.count_failed(runs, ["w"]) == {"parent": 1, "change": 1}


def test_parse_output_reads_env_and_each_workload():
    text = "\n".join([
        'env {"nproc": 2}',
        "workload a Workload(...) seed 1 trace 0",
        "  solve_s 1.0 s",
        '{"correct": true, "attempted": 2, "failed": 0, "metrics": {}}',
        'env {"nproc": 3}',
        "workload b Workload(...) seed 1 trace 0",
        '{"correct": false, "attempted": 2, "failed": 1, "metrics": {}}',
    ])
    env, results = bench_pairs.parse_output(text)
    assert env == {"nproc": 2}
    assert list(results) == ["a", "b"]
    assert results["b"]["failed"] == 1


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_match_their_runs(path):
    record = json.loads(path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert bench_pairs.summarize(record["runs"], workloads, metrics) == record["summary"]
    assert bench_pairs.count_failed(record["runs"], workloads) == record["failed"]


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("layout", ["checkout", "plain", "inside-checkout"])
def test_parent_commit_recorded_only_for_a_checkout(tmp_path, monkeypatch, capsys, layout):
    repo = tmp_path / "repo"
    repo.mkdir()
    if layout != "plain":
        _git(repo, "init", "-q")
        _git(repo, "commit", "-q", "--allow-empty", "-m", "parent")
    parent = repo / "export" if layout == "inside-checkout" else repo
    parent.mkdir(exist_ok=True)

    def fake_run_side(checkout, seed, seconds):
        return {"nproc": 2}, {"square-spd": _run(1, "parent", 1.0, 1)["results"]["w"]}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(ROOT), "--pairs", "1",
                             "--first-seed", "1", "--seconds", "0", "--what", "test",
                             "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    err = capsys.readouterr().err
    if layout == "checkout":
        assert record["parent_commit"] == _git(repo, "rev-parse", "HEAD")
        assert err == ""
    else:
        assert record["parent_commit"] is None
        assert "parent_commit is null" in err
    assert record["failed"] == {"parent": 2, "change": 2}  # two workloads without a result
