"""The eleven fixed trace cases keep their iteration and exact-row counts.

``tools/trace_hashes.py`` fingerprints the solver's trace on eleven cases.
Its hashes depend on the BLAS build, so only the counts are checked here:
the iteration count and the number of rows with an exact stop norm.  A
refactor that moves one of them has changed the numerics or the stop test.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_hashes.py"

# case: (iterations, rows with an exact stop norm)
EXPECTED = {
    "square 3/6 21..26": (38, 1),
    "square 3/5 99..108": (53, 1),
    "lshape 4/6 41..43": (33, 2),
    "square 2/5 10..14": (39, 1),
    "lshape 3/5 41..47": (41, 2),
    "square 2/5 2..4": (24, 1),
    "square 2/4 3..5 restart_dim=13": (47, 2),
    "square 2/7 3..5": (25, 1),
    "square 2/7 13..15": (62, 1),
    "square 2/4 1..5 tol=1e-300 max_iter=60": (47, 1),
    "square 1/3 1..2 tol=1e-300 max_iter=100": (27, 1),
}


def test_trace_cases_keep_their_iteration_counts():
    # A subprocess, so that the tool pins BLAS to one thread before NumPy loads.
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True, timeout=600).stdout
    counts = {m["case"]: (int(m["iterations"]), int(m["exact"]))
              for m in re.finditer(
                  r"^(?P<case>.+?)  iterations=(?P<iterations>\d+)  exact=(?P<exact>\d+)  ",
                  out, re.M)}
    assert counts == EXPECTED
