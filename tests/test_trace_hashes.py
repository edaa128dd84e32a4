"""The eleven fixed trace cases keep their iteration and exact-row counts.

``tools/trace_hashes.py`` fingerprints the solver's trace on eleven cases.
Its hashes depend on the BLAS build, so only the counts are checked here:
the iteration count and the number of rows with an exact stop norm.  A
refactor that moves one of them has changed the numerics or the stop test.
The tool's ``--perturb`` hook and argument checks are tested in this process,
on one small case.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schwarzjd import linalg
from schwarzjd.eigensolver import ClusterSpec, initialize
from schwarzjd.fem import assemble
from schwarzjd.mesh import DomainShape, build_hierarchy, build_mesh

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


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, in this process; the thread count and ``sys.path`` entry
    that it sets on import are undone after the test."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("trace_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perturbed_startup_scales_the_startup_eigenvectors(tool):
    pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
    exact = linalg.lowest_eigenpairs
    want = exact(pencil.stiffness, pencil.mass, 4)
    with tool.perturbed_startup(np.random.default_rng(7)):
        got = linalg.lowest_eigenpairs(pencil.stiffness, pencil.mass, 4)
    assert linalg.lowest_eigenpairs is exact
    noise = 1.0 + tool.PERTURBATION * np.random.default_rng(7).standard_normal(want.vectors.shape)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors * noise)
    assert not np.array_equal(got.vectors, want.vectors)
    with pytest.raises(RuntimeError), tool.perturbed_startup(np.random.default_rng(7)):
        raise RuntimeError
    assert linalg.lowest_eigenpairs is exact


def test_perturbed_startup_reaches_the_solver(tool):
    hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
    pencil = assemble(hier.fine)
    want = initialize(hier, pencil, ClusterSpec(3, 5))
    with tool.perturbed_startup(np.random.default_rng(8)):
        got = initialize(hier, pencil, ClusterSpec(3, 5))
    assert not np.array_equal(got.basis, want.basis)
    assert np.allclose(got.ritz_values, want.ritz_values, rtol=1e-12, atol=0)


def test_perturb_prints_each_case_spread(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "CASES", [("square", 1, 3, 1, 2, {})])
    tool.perturb(3)
    assert re.fullmatch(r"square 1/3 1\.\.2  iterations min=(\d+)  median=(\d+)  max=(\d+)\n",
                        capsys.readouterr().out)


def test_perturb_count_is_parsed(tool):
    assert tool.parse_args(["--perturb", "8"]).perturb == 8
    default = tool.parse_args([])
    assert default.perturb is None and not default.spread


@pytest.mark.parametrize("argv", [["--perturb", "0"], ["--perturb", "-3"], ["--perturb", "x"],
                                  ["--perturb"], ["--perturb", "2", "--spread"]],
                         ids=["zero", "negative", "not-a-number", "missing", "with-spread"])
def test_perturb_argument_checks(tool, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.parse_args(argv)
    assert exit_info.value.code == 2
    assert "--perturb" in capsys.readouterr().err
