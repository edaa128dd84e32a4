"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --first-seed 301 --seconds 20 --what "..." --out BENCH_10.json

Pair p (1-based) runs ``python3 perfbench/run.py --workload all --seed S
--seconds T --trace 0`` with seed S = first seed + p - 1 from each checkout,
one after the other in a fresh process: the parent first in odd pairs, the
change first in even ones.  Each checkout runs its own ``perfbench/``.

The output has the keys ``command``, ``parent_commit``, ``what``, ``env``
(the environment record of the first run), ``summary``, ``failed`` and
``runs``.  ``parent_commit`` is the HEAD of ``--parent`` when that
directory is the top of a git checkout; for any other directory (say, a
``git archive`` export, even one placed inside another checkout) it is
null, and a note on stderr says so.  ``summary`` holds, per workload and
end-to-end metric of the change checkout's ``BENCHMARK.json``, each side's
quartiles, the pairs the change won (by the metric's ``better``
direction), the ties and the ratio of the medians.  ``failed`` counts each
side's failed solves, plus one per workload that a run reported no result
for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = "python3 perfbench/run.py --workload all --seed SEED --seconds {seconds:g} --trace 0"
SIDES = ("parent", "change")


def parse_output(text: str) -> tuple[dict | None, dict]:
    """The first environment record and the result of each workload in one run's output."""
    env, results, workload = None, {}, None
    for line in text.splitlines():
        if line.startswith("env ") and env is None:
            env = json.loads(line[4:])
        elif line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
            workload = None
    return env, results


def run_side(checkout: Path, seed: int, seconds: float) -> tuple[dict | None, dict]:
    """One ``--workload all`` run from ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return parse_output(proc.stdout)


def parent_commit(parent: Path) -> str | None:
    """HEAD of ``parent`` if it is the top of a git checkout, else None."""
    def git(*args):
        return subprocess.run(["git", "-C", str(parent), *args], capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == parent.resolve():
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            return head.stdout.strip()
    print(f"note: {parent} is not a git checkout of its own; parent_commit is null",
          file=sys.stderr)
    return None


def _quartiles(values) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs: list[dict], workloads: list[str], metrics: dict[str, str]) -> dict:
    """Per ``"<workload> <metric>"``: quartiles of both sides, wins, ties, median ratio.

    ``metrics`` maps each metric name to its better direction, "lower" or
    "higher".  A pair counts only when both of its runs report the metric.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["results"]
    summary = {}
    for workload in workloads:
        for metric, better in metrics.items():
            values = {side: [] for side in SIDES}
            for sides in by_pair.values():
                try:
                    pair = {side: sides[side][workload]["metrics"][metric]["value"]
                            for side in SIDES}
                except KeyError:
                    continue
                for side in SIDES:
                    values[side].append(pair[side])
            if not values["parent"]:
                continue
            parent, change = np.array(values["parent"]), np.array(values["change"])
            wins = change < parent if better == "lower" else change > parent
            summary[f"{workload} {metric}"] = {
                "pairs": len(parent),
                "parent_q1_med_q3": _quartiles(parent),
                "change_q1_med_q3": _quartiles(change),
                "change_wins": int(np.count_nonzero(wins)),
                "ties": int(np.count_nonzero(change == parent)),
                "median_ratio": round(float(np.median(change) / np.median(parent)), 4),
            }
    return summary


def count_failed(runs: list[dict], workloads: list[str]) -> dict:
    """Failed solves per side; a workload without a result counts as one."""
    failed = {side: 0 for side in SIDES}
    for run in runs:
        for workload in workloads:
            result = run["results"].get(workload)
            failed[run["side"]] += 1 if result is None else int(result["failed"])
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--what", required=True, help="one-sentence description of the runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0:
        parser.error("--pairs must be >= 1 and --seconds >= 0")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    commit = parent_commit(args.parent)
    checkouts = {"parent": args.parent, "change": args.change}

    env, runs = None, []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            run_env, results = run_side(checkouts[side], seed, args.seconds)
            env = env or run_env
            runs.append({"pair": pair, "seed": seed, "side": side, "runs_first": position == 0,
                         "results": results})
            print(f"pair {pair} seed {seed} {side}: "
                  + ", ".join(f"{w} {r['metrics']['solve_s']['value']:.3f} s"
                              for w, r in results.items() if "solve_s" in r["metrics"]),
                  flush=True)

    record = {
        "command": COMMAND.format(seconds=args.seconds),
        "parent_commit": commit,
        "what": args.what,
        "env": env,
        "summary": summarize(runs, workloads, metrics),
        "failed": count_failed(runs, workloads),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
