"""The eight fixed trace cases keep their iteration counts.

``tools/trace_hashes.py`` fingerprints the solver's trace on eight cases.
Its hashes depend on the BLAS build, so only the iteration counts are
checked here; a refactor that moves one of them has changed the numerics.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_hashes.py"

EXPECTED = {
    "square 3/6 21..26": 38,
    "square 3/5 99..108": 53,
    "lshape 4/6 41..43": 33,
    "square 2/5 10..14": 39,
    "lshape 3/5 41..47": 41,
    "square 2/5 2..4": 24,
    "square 2/4 3..5 restart_dim=13": 47,
    "square 2/7 3..5": 25,
}


def test_trace_cases_keep_their_iteration_counts():
    # A subprocess, so that the tool pins BLAS to one thread before NumPy loads.
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True, timeout=600).stdout
    counts = {m["case"]: int(m["iterations"])
              for m in re.finditer(r"^(?P<case>.+?)  iterations=(?P<iterations>\d+)  ", out, re.M)}
    assert counts == EXPECTED
