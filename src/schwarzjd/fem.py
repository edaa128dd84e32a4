"""P1 stiffness and mass assembly with Dirichlet elimination.

On a right triangle with legs of length g the element stiffness over
(right-angle vertex, leg vertices) is [[1, -1/2, -1/2], [-1/2, 1/2, 0],
[-1/2, 0, 1/2]] and the element mass is (g^2/2) * [[2, 1, 1], [1, 2, 1],
[1, 1, 2]] / 12.  Every lattice cell is split by its lower-left to
upper-right diagonal, so an interior node touches six triangles: it is the
right-angle vertex of two and a leg vertex of four.  Summing the element
entries over them gives two stencils on the dof grid:

- stiffness, 5 points: 2 * 1 + 4 * 1/2 = 4 on the diagonal and -1/2 - 1/2 = -1
  on each horizontal and vertical edge.  The diagonal edge joins two leg
  vertices in both of its triangles, so its entry is exactly 0 and is not
  stored.
- mass, 7 points: six terms d = (g^2/2) * 2/12 on the diagonal and two terms
  o = (g^2/2) * 1/12 on each of the six edges, the diagonal one included.

The stencils give the bits of the element-by-element assembly.  The
stiffness sums are of dyadic rationals and so exact in any order.  Each
mass diagonal is a sum of six equal terms, which any order adds as
((((d + d) + d) + d) + d) + d (not 6 * d, which rounds differently), and
each edge gets o + o.  This assumes that every interior node has all four
of its cells, which holds on both domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = ["SparsePencil", "assemble"]

# Stencil offsets (dy, dx) on the dof grid in ascending dof order, since dofs
# are numbered lexicographically by (y, x).  The first and last lie on the
# cell diagonal, which the stiffness stencil leaves out.
_OFFSETS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
_STIFFNESS_STENCIL = np.array([-1.0, -1.0, 4.0, -1.0, -1.0])


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


def _stencil_matrix(neighbors: np.ndarray, stencil: np.ndarray) -> sp.csr_matrix:
    """CSR matrix whose row i holds ``stencil`` at the columns ``neighbors[i]`` that are dofs."""
    present = neighbors >= 0
    n = len(neighbors)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    data = np.broadcast_to(stencil, neighbors.shape)[present]
    return sp.csr_matrix((data, neighbors[present], indptr), shape=(n, n))


def assemble(mesh: Mesh) -> SparsePencil:
    """Assemble the P1 pencil on ``mesh``, boundary rows and columns eliminated."""
    grid = np.pad(mesh.dof_grid.astype(np.int32), 1, constant_values=-1)
    steps = np.array([dy * grid.shape[1] + dx for dy, dx in _OFFSETS], dtype=np.int32)
    at = np.flatnonzero(grid >= 0).astype(np.int32)  # dof order
    neighbors = np.take(grid, at[:, None] + steps)
    scale = 0.5 * (mesh.spacing * mesh.spacing)
    d = scale * (2.0 / 12.0)
    o = scale * (1.0 / 12.0)
    edge = o + o
    mass_stencil = np.array([edge, edge, edge, ((((d + d) + d) + d) + d) + d, edge, edge, edge])
    return SparsePencil(
        stiffness=_stencil_matrix(neighbors[:, 1:6], _STIFFNESS_STENCIL),
        mass=_stencil_matrix(neighbors, mass_stencil),
        n=mesh.n_dofs,
    )
