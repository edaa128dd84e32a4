"""Shared dense reference constructions and spectral gaps for the test suite."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from schwarzjd.errors import InvalidArgumentError, ProblemTooLargeError, is_integer
from schwarzjd.linalg import EigenBasis
from schwarzjd.mesh import Decomposition, _domain_masks

DENSE_DOF_LIMIT = 5000


def mesh_triangles(mesh):
    """Lattice corners (n_triangles, 3, 2) as (ix, iy), and dof numbers (n_triangles, 3).

    Cells come from the cell mask in np.nonzero order; cell c holds
    triangles 2c = (LL, LR, UR) and 2c + 1 = (LL, UR, UL), both positively
    oriented.  Corners on the Dirichlet boundary have dof number -1.
    """
    _, _, cell = _domain_masks(mesh.shape, 1 << mesh.level)
    cy, cx = np.nonzero(cell)
    ix = np.column_stack([cx, cx + 1, cx + 1, cx, cx + 1, cx]).reshape(-1, 3)
    iy = np.column_stack([cy, cy, cy + 1, cy, cy + 1, cy + 1]).reshape(-1, 3)
    return np.stack([ix, iy], axis=-1), mesh.dof_grid[iy, ix]


def dense_discrete_spectrum(pencil, count):
    """First ``count`` eigenpairs of (K, M) by a dense Cholesky-reduction solve.

    The route deliberately avoids the generalized LAPACK driver the package
    uses: it reduces the pencil with an explicit Cholesky factor of the mass
    matrix and calls the standard symmetric eigensolver, so the two routes
    stay independent.  Guarded at DENSE_DOF_LIMIT dofs to keep runtimes sane.
    """
    if pencil.n > DENSE_DOF_LIMIT:
        raise ProblemTooLargeError(
            f"dense reference limited to {DENSE_DOF_LIMIT} dofs, pencil has {pencil.n}"
        )
    if not 1 <= count <= pencil.n:
        raise InvalidArgumentError(f"count must lie in [1, {pencil.n}], got {count}")
    K = pencil.stiffness.toarray()
    M = pencil.mass.toarray()
    L = np.linalg.cholesky(M)
    # C = L^-1 K L^-T, standard symmetric problem with the same eigenvalues.
    tmp = sla.solve_triangular(L, K, lower=True)
    C = sla.solve_triangular(L, tmp.T, lower=True).T
    C = 0.5 * (C + C.T)
    values, Y = np.linalg.eigh(C)
    vectors = sla.solve_triangular(L.T, Y[:, :count], lower=False)
    return EigenBasis(values=values[:count], vectors=vectors)


@dataclass(frozen=True)
class GapInfo:
    """Spectral gaps bracketing a cluster: (lambda_m - lambda_{m-1}, lambda_{M+1} - lambda_M)."""

    left: float
    right: float
    isolated: bool  # both gaps strictly positive


def cluster_gaps(values, first, last):
    """Gaps around the 1-based cluster [first, last] in the ascending ``values``.

    Uses lambda_0 = 0 below the spectrum.  Zero (or negative) gaps mean the
    cluster cuts through a multiplet; ``isolated`` is False in that case.
    """
    if not (is_integer(first) and is_integer(last)) or not 1 <= first <= last:
        raise InvalidArgumentError(f"need integers 1 <= first <= last, got ({first!r}, {last!r})")
    if last + 1 > len(values):
        raise InvalidArgumentError(
            f"reference holds {len(values)} values, cluster ({first}, {last}) needs {last + 1}"
        )
    below = 0.0 if first == 1 else float(values[first - 2])
    left = float(values[first - 1]) - below
    right = float(values[last]) - float(values[last - 1])
    return GapInfo(left=left, right=right, isolated=left > 0.0 and right > 0.0)


def decomposition(sets):
    """A flat Decomposition of hand-made dof sets, in the given order."""
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in sets], out=offsets[1:])
    return Decomposition(dofs=np.concatenate(sets).astype(np.int64), offsets=offsets,
                         overlap_layers=1)


def dense_preconditioner(pencil, decomp, coarse, shift):
    """Explicit assembly of the two-level preconditioner as a dense matrix."""
    n = pencil.n
    B = np.zeros((n, n))
    K = pencil.stiffness.toarray()
    M = pencil.mass.toarray()
    for dofs in decomp.subdomains:
        block = np.linalg.inv(K[np.ix_(dofs, dofs)] - shift * M[np.ix_(dofs, dofs)])
        B[np.ix_(dofs, dofs)] += block
    P, U = coarse.restriction.T.toarray(), coarse.vectors  # U is (n_c, 0) when one-level
    B += P @ (U @ np.diag(1.0 / (coarse.values - shift)) @ U.T) @ P.T
    return B


def assert_same_csr(A, B):
    """A and B are the same CSR matrix bit for bit: arrays, index dtypes and format flag."""
    assert A.format == B.format == "csr"
    assert A.shape == B.shape
    assert A.indptr.dtype == B.indptr.dtype and A.indices.dtype == B.indices.dtype
    assert A.data.dtype == B.data.dtype
    assert A.indptr.tobytes() == B.indptr.tobytes()
    assert A.indices.tobytes() == B.indices.tobytes()
    assert A.data.tobytes() == B.data.tobytes()
    assert A.has_canonical_format == B.has_canonical_format
