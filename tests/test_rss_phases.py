"""Smoke test of ``tools/rss_phases.py``, the per-phase peak RSS probe."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_phases.py"


def test_prints_a_peak_for_every_solver_phase():
    out = subprocess.run([sys.executable, str(TOOL), "square", "2", "4", "3", "5"],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    assert out.startswith("iterations=")
    row = r"^(\S+) +calls=(\d+) +peak_rss= *([\d.]+) MiB +retained_heap=(?: *([\d.]+) MiB|n/a)$"
    peaks = {m[1]: (int(m[2]), float(m[3]), m[4]) for m in re.finditer(row, out, re.M)}
    for phase in ("eigensolver.initialize", "schwarz.build_coarse_piece", "schwarz.LocalBlocks",
                  "schwarz.prepare", "eigensolver.correction_step", "eigensolver.rayleigh_ritz",
                  "eigensolver.stop_bounds", "eigensolver.stop_norm"):
        calls, mib, heap = peaks[phase]
        assert calls >= 1 and mib > 0
        assert heap is None or float(heap) < mib  # retained heap is part of the RSS
    assert "eigensolver._thick_restart" not in peaks  # no restart without a restart dimension
