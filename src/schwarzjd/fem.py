"""P1 stiffness and mass assembly with Dirichlet elimination.

The element integrals are evaluated in closed form.  On a right triangle
with legs of length g the element stiffness over (right-angle vertex,
leg vertices) is [[1, -1/2, -1/2], [-1/2, 1/2, 0], [-1/2, 0, 1/2]] and the
element mass is (g^2/24) * [[2, 1, 1], [1, 2, 1], [1, 1, 2]].  Stiffness
entries are computed from integer lattice differences so they come out as
exact dyadic rationals, independent of g.

K and M share one sparsity pattern and come from one COO-to-CSR conversion
of K + iM.  Its summation order cannot change a bit: the dyadic stiffness
sums are exact, and all mass contributions to one entry are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .mesh import Mesh

__all__ = ["SparsePencil", "assemble"]

_MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True, eq=False)
class SparsePencil:
    """Stiffness/mass pair (K, M) on a common dof set, CSR storage.

    K represents the bilinear form integral(grad u . grad v), M the
    L2 inner product integral(u v); both are symmetric and positive
    definite after Dirichlet elimination.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    n: int


def _element_matrices(mesh: Mesh) -> np.ndarray:
    """Element stiffness plus i times element mass, shape (n_triangles, 3, 3)."""
    lat = np.take(mesh.lattice, mesh.triangles, axis=0)  # (n_tri, 3, 2) lattice coordinates
    ix = lat[:, :, 0]
    iy = lat[:, :, 1]

    # Standard P1 gradient coefficients from integer lattice differences.
    b = iy[:, [1, 2, 0]] - iy[:, [2, 0, 1]]
    c = ix[:, [2, 0, 1]] - ix[:, [1, 2, 0]]
    det = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # = 2 * area / g^2, equals 1 here
    if np.any(det <= 0):
        raise InvalidArgumentError("mesh contains a non-positively oriented triangle")
    det = det.astype(np.float64)

    bc = b[:, :, None] * b[:, None, :]
    bc += c[:, :, None] * c[:, None, :]
    km = np.empty(bc.shape, dtype=np.complex128)
    np.multiply(bc, (1.0 / (2.0 * det))[:, None, None], out=km.real)
    g = mesh.spacing
    np.multiply((0.5 * det * (g * g))[:, None, None], _MASS_PATTERN, out=km.imag)
    return km


def assemble(mesh: Mesh) -> SparsePencil:
    """Assemble the P1 pencil on ``mesh``, boundary rows and columns eliminated."""
    km = _element_matrices(mesh)
    idx = mesh.dof_index[mesh.triangles].astype(np.int32)
    n = mesh.n_dofs
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    # One conversion of K + iM; K's structural zeros are dropped afterwards.
    KM = sp.coo_matrix((km.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    K = sp.csr_matrix((KM.data.real.copy(), KM.indices.copy(), KM.indptr.copy()), shape=(n, n))
    M = sp.csr_matrix((KM.data.imag.copy(), KM.indices, KM.indptr), shape=(n, n))
    K.eliminate_zeros()
    return SparsePencil(stiffness=K, mass=M, n=n)

