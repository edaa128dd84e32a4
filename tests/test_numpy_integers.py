"""NumPy fixed-width integers act as the Python ints they hold.

``errors.is_integer`` accepts NumPy integers, and each function that checks
one converts it to ``int`` there, so no later shift or product wraps at the
argument's width.  Every case calls the library once with an int8, int16 or
uint8 argument and once with the Python int, and compares the results bit for
bit, or expects the library's own error from both.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schwarzjd import linalg, mesh, oracle
from schwarzjd.eigensolver import ClusterSpec, SolverConfig, initialize
from schwarzjd.errors import ProblemTooLargeError
from schwarzjd.fem import assemble
from schwarzjd.mesh import Decomposition, DomainShape, build_hierarchy, build_mesh
from schwarzjd.schwarz import build_coarse_piece

DTYPES = [np.int8, np.int16, np.uint8]
dtypes = pytest.mark.parametrize("dtype", DTYPES, ids=lambda dtype: dtype.__name__)

HIERARCHY = """
import sys
import numpy as np
from schwarzjd.mesh import DomainShape, build_hierarchy
dtype = getattr(np, sys.argv[1])
for shape in DomainShape:
    want, got = build_hierarchy(shape, 3, 6), build_hierarchy(shape, dtype(3), dtype(6))
    assert all(type(m.level) is int for m in (got.coarse, got.initial, got.fine))
    for a, b in ((got.fine_to_coarse, want.fine_to_coarse),
                 (got.fine_to_initial, want.fine_to_initial)):
        assert a.shape == b.shape
        assert all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                   for f in ("data", "indices", "indptr"))
"""


@dtypes
def test_hierarchy_levels(dtype):
    # In a subprocess: a wrapped lattice offset does not warn, and the column index -1
    # it once gave the restriction made SciPy write outside its arrays and abort.
    src = str(Path(mesh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", HIERARCHY, dtype.__name__],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@dtypes
def test_mesh_level(dtype):
    got, want = build_mesh(DomainShape.SQUARE, dtype(7)), build_mesh(DomainShape.SQUARE, 7)
    assert type(got.level) is int
    assert (got.n_dofs, got.spacing) == (want.n_dofs, want.spacing)
    assert got.dof_grid.tobytes() == want.dof_grid.tobytes()
    with pytest.raises(ProblemTooLargeError, match="at level 40 "):
        build_mesh(DomainShape.SQUARE, dtype(40))


@dtypes
def test_decomposition_overlap(dtype):
    dec = Decomposition(dofs=[0, 1], offsets=[0, 2], overlap_layers=dtype(2))
    assert type(dec.overlap_layers) is int and dec.overlap_layers == 2


@dtypes
def test_startup_with_cluster_and_config(dtype):
    hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
    pencil = assemble(hier.fine)
    cluster, config = ClusterSpec(dtype(2), dtype(4)), SolverConfig(max_iter=dtype(50),
                                                                    restart_dim=dtype(100))
    assert all(type(v) is int for v in (cluster.first, cluster.last, config.max_iter,
                                        config.restart_dim))
    got = initialize(hier, pencil, cluster, config)
    want = initialize(hier, pencil, ClusterSpec(2, 4), SolverConfig(max_iter=50, restart_dim=100))
    assert got.basis.shape == want.basis.shape
    assert got.basis.tobytes() == want.basis.tobytes()
    assert got.ritz_values.tobytes() == want.ritz_values.tobytes()


@dtypes
def test_coarse_cut(dtype):
    hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
    got, want = build_coarse_piece(hier, dtype(5)), build_coarse_piece(hier, 5)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


@dtypes
def test_lowest_eigenpairs_count(dtype):
    pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
    got = linalg.lowest_eigenpairs(pencil.stiffness, pencil.mass, dtype(6))
    want = linalg.lowest_eigenpairs(pencil.stiffness, pencil.mass, 6)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


@dtypes
def test_exact_square_eigenvalues_count(dtype):
    got, want = oracle.exact_square_eigenvalues(dtype(100)), oracle.exact_square_eigenvalues(100)
    assert got.tobytes() == want.tobytes()


@dtypes
def test_admitted_product(dtype):
    assert linalg.admit("x", dtype(100), dtype(100)) == linalg.admit("x", 100, 100)
