"""Smoke test of ``tools/rss_phases.py``, the per-phase peak RSS probe."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_phases.py"
MIB = r"([\d.]+) MiB"
HEAP = r"(?:([\d.]+) MiB|n/a)"
ROW = (rf"^(\S+) +calls=(\d+) +peak_rss= *{MIB}  hwm_rise= *{MIB} to +(?:{MIB}|-)"
       rf"  retained_heap= *{HEAP}  last=rss {MIB} -> {MIB}, heap {HEAP} -> {HEAP}$")


def phases(*args):
    """The process's final RSS high-water mark, and each printed phase: calls, sampled peak
    RSS, rise of the high-water mark and the mark it reached, retained heap and the last
    call's RSS and heap."""
    out = subprocess.run([sys.executable, str(TOOL), "square", "2", "4", "3", "5", *args],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    head = re.match(rf"^iterations=\d+ .* hwm={MIB}$", out, re.M)
    assert head
    rows = {}
    for m in re.finditer(ROW, out, re.M):
        heap = [None if h is None else float(h) for h in (m[6], m[9], m[10])]
        rows[m[1]] = dict(calls=int(m[2]), peak=float(m[3]), rise=float(m[4]),
                          to=None if m[5] is None else float(m[5]), retained=heap[0],
                          rss_in=float(m[7]), rss_out=float(m[8]), heap_in=heap[1],
                          heap_out=heap[2])
    return float(head[1]), rows


@pytest.mark.parametrize("args", [("square", "2", "4", "3"), ("square", "2", "4", "3", "x"),
                                  ("square", "2", "4", "5", "3"),
                                  ("square", "2", "4", "3", "5", "5"),
                                  ("square", "4", "4", "3", "5"), ("circle", "2", "4", "3", "5")],
                         ids=["missing-M", "M-not-an-integer", "m-above-M",
                              "restart-dimension-below-2M+1", "coarse-not-below-fine",
                              "unknown-domain"])
def test_bad_arguments_exit_with_usage(args):
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage") and "Traceback" not in done.stderr


def test_prints_a_peak_for_every_solver_phase():
    _, rows = phases()
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


def test_high_water_mark_rises_only_where_a_phase_reached_it():
    hwm, rows = phases()
    assert rows["eigensolver._grow"]["to"] is not None  # the iterations raise the mark
    for row in rows.values():
        assert row["rise"] >= 0.0
        if row["to"] is None:
            assert row["rise"] == 0.0
        else:  # the kernel's RSS counters are batched per CPU, by a few hundred KiB
            assert row["to"] <= hwm + 0.5


# A phase that touches 32 MiB and frees it before it returns, with no sampling thread:
# the samples as it starts and returns miss the spike, the high-water mark does not.
SPIKE = f"""
import sys, types
import numpy as np
sys.path.insert(0, {str(TOOL.parent)!r})
import rss_phases as tool
probe = types.SimpleNamespace(__name__="probe", spike=lambda: float(np.ones(2**22).sum()))
tool.wrap(probe, "spike")
probe.spike()
print(tool.peak["probe.spike"], tool.rise["probe.spike"], tool.top["probe.spike"])
"""


def test_rise_of_the_high_water_mark_catches_a_peak_between_samples():
    out = subprocess.run([sys.executable, "-c", SPIKE], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    sampled, rise, top = (float(v) / 2**20 for v in out.split())
    assert rise >= 30.0
    assert top >= sampled + 30.0


def test_restarted_run_shows_the_restart_and_the_startup_release():
    _, rows = phases("13")
    restart = rows["eigensolver._thick_restart"]
    assert restart["calls"] >= 1 and restart["peak"] > 0
    release = rows["linalg.release_free_heap"]
    assert release["calls"] == 1  # once, at the end of the startup
    assert release["rss_out"] <= release["rss_in"] + 1.0  # the release grows nothing
    assert rows["eigensolver.initialize"]["calls"] == 1
