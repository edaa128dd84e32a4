"""P1 stiffness and mass assembly with Dirichlet elimination.

The element integrals are evaluated in closed form.  On a right triangle
with legs of length g the element stiffness over (right-angle vertex,
leg vertices) is [[1, -1/2, -1/2], [-1/2, 1/2, 0], [-1/2, 0, 1/2]] and the
element mass is (g^2/24) * [[2, 1, 1], [1, 2, 1], [1, 1, 2]].  Stiffness
entries are computed from integer lattice differences so they come out as
exact dyadic rationals, independent of g.
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


def assemble(mesh: Mesh, *, drop_boundary: bool = True) -> SparsePencil:
    """Assemble the P1 pencil on ``mesh``.

    With ``drop_boundary`` (the default) boundary rows and columns are
    eliminated and the matrices act on the interior dofs only; otherwise the
    full node set is kept (useful for whole-domain integral checks).
    """
    tri = mesh.triangles
    lat = mesh.lattice[tri]  # (n_tri, 3, 2) integer vertex coordinates
    ix = lat[:, :, 0]
    iy = lat[:, :, 1]

    # Standard P1 gradient coefficients from integer lattice differences.
    b = iy[:, [1, 2, 0]] - iy[:, [2, 0, 1]]
    c = ix[:, [2, 0, 1]] - ix[:, [1, 2, 0]]
    det = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # = 2 * area / g^2, equals 1 here
    if np.any(det <= 0):
        raise InvalidArgumentError("mesh contains a non-positively oriented triangle")

    scale = 1.0 / (2.0 * det.astype(np.float64))
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]
    g = mesh.spacing
    area = 0.5 * det.astype(np.float64) * (g * g)
    me = area[:, None, None] * _MASS_PATTERN[None, :, :]

    if drop_boundary:
        idx = mesh.dof_index[tri]
        n = mesh.n_dofs
    else:
        idx = tri
        n = len(mesh.points)

    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    kv = ke.ravel()
    mv = me.ravel()
    keep = (rows >= 0) & (cols >= 0)

    K = sp.coo_matrix((kv[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    M = sp.coo_matrix((mv[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    K.eliminate_zeros()
    return SparsePencil(stiffness=K, mass=M, n=n)

