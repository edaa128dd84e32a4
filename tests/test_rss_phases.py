"""Smoke test of ``tools/rss_phases.py``, the per-phase peak RSS probe."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_phases.py"
MIB = r"([\d.]+) MiB"
HEAP = r"(?:([\d.]+) MiB|n/a)"
ROW = (rf"^(\S+) +calls=(\d+) +peak_rss= *{MIB} +retained_heap= *{HEAP}"
       rf"  last=rss {MIB} -> {MIB}, heap {HEAP} -> {HEAP}$")


def phases(*args):
    """Each printed phase: calls, peak RSS, retained heap and the last call's RSS and heap."""
    out = subprocess.run([sys.executable, str(TOOL), "square", "2", "4", "3", "5", *args],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    assert out.startswith("iterations=")
    rows = {}
    for m in re.finditer(ROW, out, re.M):
        heap = [None if h is None else float(h) for h in (m[4], m[7], m[8])]
        rows[m[1]] = dict(calls=int(m[2]), peak=float(m[3]), retained=heap[0],
                          rss_in=float(m[5]), rss_out=float(m[6]), heap_in=heap[1],
                          heap_out=heap[2])
    return rows


def test_prints_a_peak_for_every_solver_phase():
    rows = phases()
    for phase in ("eigensolver.initialize", "schwarz.build_coarse_piece", "schwarz.LocalBlocks",
                  "schwarz.prepare", "eigensolver.correction_step", "eigensolver.rayleigh_ritz",
                  "eigensolver.stop_bounds", "eigensolver.stop_norm",
                  "linalg.release_free_heap"):
        row = rows[phase]
        assert row["calls"] >= 1 and row["peak"] > 0
        assert max(row["rss_in"], row["rss_out"]) <= row["peak"]
        if row["retained"] is not None:
            assert row["retained"] < row["peak"]  # retained heap is part of the RSS
    assert "eigensolver._thick_restart" not in rows  # no restart without a restart dimension


def test_restarted_run_shows_the_restart_and_the_startup_release():
    rows = phases("13")
    restart = rows["eigensolver._thick_restart"]
    assert restart["calls"] >= 1 and restart["peak"] > 0
    release = rows["linalg.release_free_heap"]
    assert release["calls"] == 1  # once, at the end of the startup
    assert release["rss_out"] <= release["rss_in"] + 1.0  # the release grows nothing
    assert rows["eigensolver.initialize"]["calls"] == 1
