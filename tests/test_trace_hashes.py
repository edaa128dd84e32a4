"""The eleven fixed trace cases keep their iteration and exact-row counts, and their
hashes where those were recorded.

``tools/trace_hashes.py`` fingerprints the solver's trace on eleven cases.
The iteration count and the number of rows with an exact stop norm are
checked everywhere: a refactor that moves one of them has changed the
numerics or the stop test.  The ``trace`` and ``values`` hashes depend on
the BLAS build and the CPU, so they are checked only in the environment
they were recorded in (``RECORDED_IN``): the same NumPy and SciPy, the same
SIMD targets detected by NumPy and the same config strings of the loaded
OpenBLAS libraries, which name the core OpenBLAS detected.  Elsewhere that
test is skipped, with the difference as its reason.  The tool's
``--perturb`` hook and argument checks are tested in this process, on one
small case.
"""

import ctypes
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg  # noqa: F401  loads SciPy's OpenBLAS

from schwarzjd import linalg
from schwarzjd.eigensolver import ClusterSpec, initialize
from schwarzjd.fem import assemble
from schwarzjd.mesh import DomainShape, build_hierarchy, build_mesh

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_hashes.py"

# case: (iterations, rows with an exact stop norm, trace hash, values hash); the hashes
# as printed in RECORDED_IN
EXPECTED = {
    "square 3/6 21..26": (38, 1, "077d7a52d8c24bf1", "3cb1c517d6bbe378"),
    "square 3/5 99..108": (53, 1, "b90d4bba1e9714e7", "166d3803743414c2"),
    "lshape 4/6 41..43": (33, 2, "2d6293aacb9b35ec", "46cbccdddc3a85e9"),
    "square 2/5 10..14": (39, 1, "8d2df7ce8c43efa6", "44e8639d44fa264a"),
    "lshape 3/5 41..47": (41, 2, "4f677b99bc006246", "d8fb93b80e7f6252"),
    "square 2/5 2..4": (24, 1, "0674d3883ff8a2bf", "5cb3e3840432aab4"),
    "square 2/4 3..5 restart_dim=13": (47, 2, "e142ed824535a839", "6dc60e5c94584b60"),
    "square 2/7 3..5": (25, 1, "aeab797405b84901", "1b3fc8c6d1178bcd"),
    "square 2/7 13..15": (62, 1, "614ef05aa138de8a", "bb5677508e22ba71"),
    "square 2/4 1..5 tol=1e-300 max_iter=60": (47, 1, "034aa0cc3c0414ec", "46ac2f6b7fedfb1c"),
    "square 1/3 1..2 tol=1e-300 max_iter=100": (27, 1, "ea83965066fb0688", "f54ec5f8a035c055"),
}

RECORDED_IN = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "simd": ("AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"),
    "openblas": (
        "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
        "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
    ),
}


def environment() -> dict:
    """This process's NumPy and SciPy versions, the SIMD dispatch targets NumPy detected
    and the config strings of the loaded OpenBLAS libraries, sorted."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = tuple(sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))
    except ImportError:
        simd = ()
    configs = []
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            if hasattr(handle, symbol):
                get_config = getattr(handle, symbol)
                get_config.restype = ctypes.c_char_p
                configs.append(get_config().decode())
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__, "simd": simd,
            "openblas": tuple(sorted(configs))}


@pytest.fixture(scope="module")
def printed():
    """Each case's line as the tool prints it, split into its fields."""
    # A subprocess, so that the tool pins BLAS to one thread before NumPy loads.
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True, timeout=600).stdout
    return {m["case"]: m for m in re.finditer(
        r"^(?P<case>.+?)  iterations=(?P<iterations>\d+)  exact=(?P<exact>\d+)"
        r"  trace=(?P<trace>[0-9a-f]+)  values=(?P<values>[0-9a-f]+)$", out, re.M)}


def test_trace_cases_keep_their_iteration_counts(printed):
    counts = {case: (int(m["iterations"]), int(m["exact"])) for case, m in printed.items()}
    assert counts == {case: want[:2] for case, want in EXPECTED.items()}


def test_trace_cases_keep_their_hashes_where_recorded(printed):
    here = environment()
    if here != RECORDED_IN:
        differ = {k: here[k] for k in RECORDED_IN if here[k] != RECORDED_IN[k]}
        pytest.skip(f"hashes recorded in another environment; here {differ}, "
                    f"so only the counts are checked")
    hashes = {case: (m["trace"], m["values"]) for case, m in printed.items()}
    assert hashes == {case: want[2:] for case, want in EXPECTED.items()}


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
