"""Structured triangular meshes, nested hierarchies, and overlapping decompositions.

Two domains are supported: the square (0, pi)^2 and the L-shaped domain
(-pi, pi)^2 minus the quadrant [0, pi) x (-pi, 0].  A mesh at refinement
level j has lattice spacing g = pi / 2^j; every lattice cell is split into
two right triangles by its lower-left to upper-right diagonal, so the mesh
size (longest edge) is h = sqrt(2) * g.  Homogeneous Dirichlet conditions
are imposed by restricting degrees of freedom to interior lattice nodes,
numbered lexicographically by (y, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError

__all__ = [
    "DomainShape",
    "Mesh",
    "MeshHierarchy",
    "Decomposition",
    "build_mesh",
    "build_hierarchy",
    "build_decomposition",
]


class DomainShape(Enum):
    SQUARE = "square"
    LSHAPE = "lshape"

    @classmethod
    def _missing_(cls, value):
        raise InvalidArgumentError(
            f"domain must be one of {[s.value for s in cls]}, got {value!r}"
        )


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of one domain at a fixed dyadic refinement level.

    Attributes
    ----------
    shape : DomainShape
    level : int
        Refinement level j >= 1; lattice spacing is pi / 2^j.
    spacing : float
        Lattice spacing g (leg length of every triangle).
    lattice : (n_points, 2) int array
        Integer lattice coordinates (ix, iy) of every node in the domain
        closure, ordered lexicographically by (iy, ix).
    points : (n_points, 2) float array
        Physical coordinates, lattice * spacing shifted so that lattice
        index 0 lies at 0 on the square and at -pi on the L-shape.
    triangles : (n_triangles, 3) int array
        Node index triples; each cell contributes (LL, LR, UR) and
        (LL, UR, UL), both with positive orientation.
    dof_index : (n_points,) int array
        Dense interior dof number per node, -1 on the Dirichlet boundary.
    dof_nodes : (n_dofs,) int array
        Node index of each interior dof (inverse of ``dof_index``).
    dof_grid : (N, N) int array
        Lattice lookup: dof number at lattice (iy, ix), -1 elsewhere.
    """

    shape: DomainShape
    level: int
    spacing: float
    lattice: np.ndarray
    points: np.ndarray
    triangles: np.ndarray
    dof_index: np.ndarray
    dof_nodes: np.ndarray
    dof_grid: np.ndarray

    @property
    def n_dofs(self) -> int:
        return len(self.dof_nodes)

    @property
    def n_cells_per_side(self) -> int:
        return 1 << self.level

    def dof_lattice(self) -> np.ndarray:
        """Integer lattice coordinates of the interior dofs, shape (n_dofs, 2)."""
        return self.lattice[self.dof_nodes]


def _domain_masks(shape: DomainShape, n: int):
    """Node-closure, interior, and cell masks on the full bounding lattice."""
    if shape is DomainShape.SQUARE:
        N = n + 1
        iy, ix = np.mgrid[0:N, 0:N]
        node = np.ones((N, N), dtype=bool)
        interior = (0 < ix) & (ix < n) & (0 < iy) & (iy < n)
        cell = np.ones((N - 1, N - 1), dtype=bool)
    else:
        # Bounding lattice covers (-pi, pi)^2; index n is the reentrant corner.
        N = 2 * n + 1
        iy, ix = np.mgrid[0:N, 0:N]
        node = ~((ix > n) & (iy < n))
        inside_box = (0 < ix) & (ix < 2 * n) & (0 < iy) & (iy < 2 * n)
        interior = inside_box & ~((ix >= n) & (iy <= n))
        cy, cx = np.mgrid[0 : N - 1, 0 : N - 1]
        cell = ~((cx >= n) & (cy <= n - 1))
    return N, node, interior, cell


def build_mesh(shape: DomainShape, level: int) -> Mesh:
    """Build the structured triangulation of ``shape`` at refinement ``level``.

    The square at level j has (2^j - 1)^2 interior dofs, the L-shape
    (2^(j+1) - 1)^2 - (2^j)^2.  Raises InvalidArgumentError for level < 1
    or a shape that names no DomainShape.
    """
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise InvalidArgumentError(f"mesh level must be a positive integer, got {level!r}")
    shape = DomainShape(shape)
    n = 1 << level
    g = math.pi / n
    origin = 0.0 if shape is DomainShape.SQUARE else -math.pi

    N, node_mask, interior_mask, cell_mask = _domain_masks(shape, n)

    node_grid = np.full((N, N), -1, dtype=np.int64)
    node_grid[node_mask] = np.arange(int(node_mask.sum()))
    iy, ix = np.nonzero(node_mask)  # row-major scan = lexicographic by (y, x)
    lattice = np.column_stack([ix, iy]).astype(np.int64)
    points = origin + lattice * g

    dof_grid = np.full((N, N), -1, dtype=np.int64)
    dof_grid[interior_mask] = np.arange(int(interior_mask.sum()))
    dof_index = np.full(len(lattice), -1, dtype=np.int64)
    dof_index[node_grid[interior_mask]] = dof_grid[interior_mask]
    dof_nodes = node_grid[interior_mask]

    cy, cx = np.nonzero(cell_mask)
    ll = node_grid[cy, cx]
    lr = node_grid[cy, cx + 1]
    ur = node_grid[cy + 1, cx + 1]
    ul = node_grid[cy + 1, cx]
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    # Interleave so triangles 2c, 2c+1 belong to cell c.
    triangles = np.empty((2 * len(ll), 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    return Mesh(
        shape=shape,
        level=level,
        spacing=g,
        lattice=lattice,
        points=points,
        triangles=triangles,
        dof_index=dof_index,
        dof_nodes=dof_nodes,
        dof_grid=dof_grid,
    )


def _prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """Nodal P1 interpolation matrix from coarse interior dofs to fine interior dofs.

    Every fine dof lies in exactly one coarse cell; its value is the linear
    interpolant on whichever of the two coarse triangles contains it.  Weights
    attached to coarse boundary nodes are dropped (those values are zero).
    """
    r = 1 << (fine.level - coarse.level)
    fl = fine.dof_lattice()
    cx, sx = np.divmod(fl[:, 0], r)
    cy, sy = np.divmod(fl[:, 1], r)
    s = sx / r
    t = sy / r

    nf = fine.n_dofs
    rows = np.arange(nf)
    lower = s >= t
    # Corner weights on (LL, LR, UR) for the lower triangle, (LL, UR, UL) above.
    w_ll = np.where(lower, 1.0 - s, 1.0 - t)
    w_lr = np.where(lower, s - t, 0.0)
    w_ur = np.where(lower, t, s)
    w_ul = np.where(lower, 0.0, t - s)

    grid = coarse.dof_grid
    cols = [
        grid[cy, cx],
        grid[cy, cx + 1],
        grid[cy + 1, cx + 1],
        grid[cy + 1, cx],
    ]
    weights = [w_ll, w_lr, w_ur, w_ul]

    ri, ci, vi = [], [], []
    for col, w in zip(cols, weights):
        keep = (col >= 0) & (w != 0.0)
        ri.append(rows[keep])
        ci.append(col[keep])
        vi.append(w[keep])
    P = sp.coo_matrix(
        (np.concatenate(vi), (np.concatenate(ri), np.concatenate(ci))),
        shape=(nf, coarse.n_dofs),
    )
    return P.tocsr()


@dataclass(frozen=True, eq=False)
class MeshHierarchy:
    """Nested coarse / initial / fine meshes with interpolation matrices.

    The initial mesh sits one level below the coarse one (spacing halved),
    so the spaces are nested: V_coarse < V_initial < V_fine.
    """

    coarse: Mesh
    initial: Mesh
    fine: Mesh
    coarse_to_fine: sp.csr_matrix
    initial_to_fine: sp.csr_matrix

    @property
    def refinement_ratio(self) -> int:
        """Fine cells per coarse cell side."""
        return 1 << (self.fine.level - self.coarse.level)


def build_hierarchy(shape: DomainShape, coarse_level: int, fine_level: int) -> MeshHierarchy:
    """Build nested meshes at ``coarse_level`` < ``coarse_level + 1`` <= ``fine_level``."""
    if coarse_level < 1:
        raise InvalidArgumentError(f"coarse level must be >= 1, got {coarse_level}")
    if fine_level < coarse_level + 1:
        raise InvalidArgumentError(
            f"fine level {fine_level} must exceed coarse level {coarse_level} "
            "by at least one (the initialization mesh sits in between)"
        )
    coarse = build_mesh(shape, coarse_level)
    initial = build_mesh(shape, coarse_level + 1)
    fine = build_mesh(shape, fine_level)
    return MeshHierarchy(
        coarse=coarse,
        initial=initial,
        fine=fine,
        coarse_to_fine=_prolongation(coarse, fine),
        initial_to_fine=_prolongation(initial, fine),
    )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Overlapping subdomains: one per coarse cell, extended by fine layers.

    ``subdomains[l]`` holds the fine interior dofs strictly inside the l-th
    coarse cell dilated by ``overlap_layers`` fine cells and clipped to the
    domain.  Overlap of at most half a coarse cell means each fine dof lies
    in at most four subdomains, however many there are (finite covering).
    """

    subdomains: list = field(repr=False)
    overlap_layers: int

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)


def build_decomposition(hier: MeshHierarchy, overlap_ratio: float) -> Decomposition:
    """Build the overlapping decomposition for ``hier`` at relative overlap ``overlap_ratio``.

    The overlap width is quantized to ``round(overlap_ratio * r)`` fine
    layers, where r is the number of fine cells per coarse cell side, with a
    minimum of one layer.  Raises InvalidArgumentError when the requested
    overlap is smaller than one fine layer or larger than half a subdomain.
    """
    if not 0.0 < overlap_ratio <= 0.5:
        raise InvalidArgumentError(f"overlap ratio must lie in (0, 1/2], got {overlap_ratio}")
    r = hier.refinement_ratio
    if overlap_ratio * r < 1.0 - 1e-12:
        raise InvalidArgumentError(
            f"overlap {overlap_ratio} * {r} fine cells per coarse cell is below one fine layer"
        )
    layers = max(1, int(math.floor(overlap_ratio * r + 0.5)))

    fine = hier.fine
    grid = fine.dof_grid
    N = grid.shape[0]
    n_coarse = 1 << hier.coarse.level
    _, _, _, cell_mask = _domain_masks(fine.shape, n_coarse)

    subdomains = []
    cy, cx = np.nonzero(cell_mask)  # lattice order, matches coarse cell scan
    for j, i in zip(cy, cx):
        x0 = max(i * r - layers + 1, 0)
        x1 = min((i + 1) * r + layers - 1, N - 1)
        y0 = max(j * r - layers + 1, 0)
        y1 = min((j + 1) * r + layers - 1, N - 1)
        block = grid[y0 : y1 + 1, x0 : x1 + 1].ravel()
        dofs = block[block >= 0]
        subdomains.append(dofs)

    return Decomposition(subdomains=subdomains, overlap_layers=layers)
