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
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .errors import InvalidArgumentError, is_integer, is_number

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

    The mesh is its dof grid: every lattice cell of the domain holds the
    triangles (LL, LR, UR) and (LL, UR, UL), so assembly, interpolation and
    decomposition read all they need from the lattice position of each dof.

    shape : DomainShape
    level : int
        Refinement level j >= 1; lattice spacing is pi / 2^j.
    spacing : float
        Lattice spacing g (leg length of every triangle).
    n_dofs : int
        Number of interior nodes, the degrees of freedom.
    dof_grid : (N, N) int64 array
        Dof number at lattice (iy, ix), -1 on the Dirichlet boundary and
        outside the domain.  Lattice index 0 lies at 0 on the square and at
        -pi on the L-shape.
    """

    shape: DomainShape
    level: int
    spacing: float
    n_dofs: int
    dof_grid: np.ndarray

    def dof_lattice(self) -> np.ndarray:
        """Integer lattice coordinates (ix, iy) of the interior dofs, shape (n_dofs, 2)."""
        iy, ix = np.divmod(np.flatnonzero(self.dof_grid >= 0), self.dof_grid.shape[1])
        return np.column_stack([ix, iy])


def _domain_masks(shape: DomainShape, n: int):
    """Lattice side N, the (N, N) interior-dof mask and the (N-1, N-1) cell mask."""
    if shape is DomainShape.SQUARE:
        N = n + 1
        iy, ix = np.ogrid[0:N, 0:N]
        interior = (0 < ix) & (ix < n) & (0 < iy) & (iy < n)
        cell = np.ones((N - 1, N - 1), dtype=bool)
    else:
        # Bounding lattice covers (-pi, pi)^2; index n is the reentrant corner.
        N = 2 * n + 1
        iy, ix = np.ogrid[0:N, 0:N]
        inside_box = (0 < ix) & (ix < 2 * n) & (0 < iy) & (iy < 2 * n)
        interior = inside_box & ~((ix >= n) & (iy <= n))
        cy, cx = np.ogrid[0 : N - 1, 0 : N - 1]
        cell = ~((cx >= n) & (cy <= n - 1))
    return N, interior, cell


def build_mesh(shape: DomainShape, level: int) -> Mesh:
    """Build the structured triangulation of ``shape`` at refinement ``level``.

    The square at level j has (2^j - 1)^2 interior dofs, the L-shape
    (2^(j+1) - 1)^2 - (2^j)^2.  Raises InvalidArgumentError for level < 1
    or a shape that names no DomainShape, and ProblemTooLargeError
    (``linalg.admit``), before allocating, when the int64 dof grid would
    exceed physical memory.
    """
    if not is_integer(level) or level < 1:
        raise InvalidArgumentError(f"mesh level must be a positive integer, got {level!r}")
    level = int(level)  # a NumPy integer would wrap in the lattice arithmetic
    shape = DomainShape(shape)
    # The dof grid has 2^k + 1 lattice points per side, 8 bytes each.  No memory holds
    # a side of 2^64 + 1: past k = 64 the count (and the GiB reported) is that of 64.
    k = level if shape is DomainShape.SQUARE else level + 1
    linalg.admit(f"a {shape.value} mesh at level {level} with a dof grid of (2^{k} + 1)^2 "
                 "int64 entries", 8, ((1 << min(k, 64)) + 1) ** 2)
    n = 1 << level
    N, interior_mask, _ = _domain_masks(shape, n)
    n_dofs = int(interior_mask.sum())
    dof_grid = np.full((N, N), -1, dtype=np.int64)
    dof_grid[interior_mask] = np.arange(n_dofs)
    return Mesh(shape=shape, level=level, spacing=math.pi / n, n_dofs=n_dofs, dof_grid=dof_grid)


def _restriction(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """The transpose P' of the nodal P1 interpolation P from coarse to fine interior dofs.

    With r fine cells per coarse cell side, the hat of a coarse node weighs
    the fine lattice point at offset (dx, dy) from it by
    1 - max(|dx|, |dy|, |dx - dy|) / r, and by zero where that maximum is
    r or more.  So every row of P' is one stencil of 3r^2 - 3r + 1 offsets,
    taken in ascending (dy, dx) order, which is ascending fine dof order.
    Every offset strictly inside the hat's support is a fine dof: an interior
    coarse node has all four of its cells in the domain.  The weights k / r
    are dyadic, so they are exact.
    """
    r = 1 << (fine.level - coarse.level)
    dy, dx = np.ogrid[1 - r : r, 1 - r : r]
    hat = np.maximum(np.maximum(abs(dx), abs(dy)), abs(dx - dy))
    inside = hat < r
    n = fine.dof_grid.shape[1]
    steps = (dy * n + dx)[inside]
    iy, ix = np.divmod(np.flatnonzero(coarse.dof_grid >= 0), coarse.dof_grid.shape[1])
    cols = np.take(fine.dof_grid, ((iy * n + ix) * r)[:, None] + steps)
    weights = np.tile(1.0 - hat[inside] / r, coarse.n_dofs)
    indptr = np.arange(0, cols.size + 1, len(steps))
    return sp.csr_matrix((weights, cols.ravel(), indptr), shape=(coarse.n_dofs, fine.n_dofs))


@dataclass(frozen=True, eq=False)
class MeshHierarchy:
    """Nested coarse / initial / fine meshes with the restriction from the fine one to each.

    The initial mesh is one level finer than the coarse one (level
    ``coarse_level + 1``, spacing halved), so the spaces are nested:
    V_coarse < V_initial < V_fine.  ``fine_to_coarse`` and ``fine_to_initial``
    are the restrictions P'; each interpolation P is their transposed view.
    """

    coarse: Mesh
    initial: Mesh
    fine: Mesh
    fine_to_coarse: sp.csr_matrix
    fine_to_initial: sp.csr_matrix

    @property
    def refinement_ratio(self) -> int:
        """Fine cells per coarse cell side."""
        return 1 << (self.fine.level - self.coarse.level)


def build_hierarchy(shape: DomainShape, coarse_level: int, fine_level: int) -> MeshHierarchy:
    """Build nested meshes at ``coarse_level`` < ``coarse_level + 1`` <= ``fine_level``."""
    if not (is_integer(coarse_level) and is_integer(fine_level)):
        raise InvalidArgumentError(
            f"mesh levels must be integers, got coarse {coarse_level!r}, fine {fine_level!r}")
    coarse_level, fine_level = int(coarse_level), int(fine_level)
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
        fine_to_coarse=_restriction(coarse, fine),
        fine_to_initial=_restriction(initial, fine),
    )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Overlapping subdomains: one per coarse cell, extended by fine layers.

    Subdomain l holds the fine interior dofs strictly inside the l-th coarse
    cell dilated by ``overlap_layers`` fine cells and clipped to the domain.
    Overlap of at most half a coarse cell means each fine dof lies in at most
    four subdomains, however many there are (finite covering).  All
    subdomains are stored in one int64 array ``dofs``, subdomain after
    subdomain in coarse cell order, each ascending; the int64 ``offsets``
    (length L + 1, from 0 to ``len(dofs)``) delimit them, so subdomain l is
    ``dofs[offsets[l]:offsets[l + 1]]``.
    """

    dofs: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    overlap_layers: int

    def __post_init__(self):
        """Store ``dofs`` and ``offsets`` as int64 arrays (an int64 array is not
        copied) and ``overlap_layers`` as an int, and reject an overlap that is not an
        integer >= 1, a non-integer dtype, a dofs that is not 1-D or offsets that do
        not run from 0 to its length, an empty subdomain, one not strictly ascending or a
        negative dof."""
        if not is_integer(self.overlap_layers) or self.overlap_layers < 1:
            raise InvalidArgumentError(
                f"overlap_layers must be an integer >= 1, got {self.overlap_layers!r}")
        object.__setattr__(self, "overlap_layers", int(self.overlap_layers))
        for name in ("dofs", "offsets"):
            array = np.asarray(getattr(self, name))
            if array.dtype.kind not in "iu":
                raise InvalidArgumentError(f"{name} must hold integers, got dtype {array.dtype}")
            object.__setattr__(self, name, array.astype(np.int64, copy=False))
        offsets, dofs = self.offsets, self.dofs
        if (dofs.ndim != 1 or offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != dofs.size):
            raise InvalidArgumentError(f"offsets must run from 0 to the length of a 1-D dofs, "
                                       f"got {offsets} for dofs of shape {dofs.shape}")
        if not np.all(np.diff(offsets) > 0) or not np.all(
            np.delete(np.diff(dofs), offsets[1:-1] - 1) > 0
        ) or np.any(dofs < 0):
            raise InvalidArgumentError("every subdomain must be non-empty and strictly ascending, "
                                       "with no negative dof")

    @property
    def n_subdomains(self) -> int:
        return len(self.offsets) - 1

    @property
    def subdomains(self) -> list:
        """The subdomains as one array each (views of ``dofs``)."""
        return np.split(self.dofs, self.offsets[1:-1])


def build_decomposition(hier: MeshHierarchy, overlap_ratio: float) -> Decomposition:
    """Build the overlapping decomposition for ``hier`` at relative overlap ``overlap_ratio``.

    The overlap width is quantized to ``round(overlap_ratio * r)`` fine
    layers, where r is the number of fine cells per coarse cell side, with a
    minimum of one layer.  Raises InvalidArgumentError when the requested
    overlap is smaller than one fine layer or larger than half a subdomain.
    """
    if not is_number(overlap_ratio):
        raise InvalidArgumentError(f"overlap ratio must be a number, got {overlap_ratio!r}")
    if not 0.0 < overlap_ratio <= 0.5:
        raise InvalidArgumentError(f"overlap ratio must lie in (0, 1/2], got {overlap_ratio}")
    r = hier.refinement_ratio
    if overlap_ratio * r < 1.0 - 1e-12:
        raise InvalidArgumentError(
            f"overlap {overlap_ratio} * {r} fine cells per coarse cell is below one fine layer"
        )
    layers = max(1, int(math.floor(overlap_ratio * r + 0.5)))

    n_coarse = 1 << hier.coarse.level
    _, _, cell_mask = _domain_masks(hier.fine.shape, n_coarse)
    cy, cx = np.nonzero(cell_mask)  # lattice order, matches coarse cell scan
    # Cell (cy, cx) covers fine grid rows and columns from c*r - layers + 1 to
    # (c + 1)*r + layers - 1; padded by layers - 1, its window starts at (cy*r, cx*r).
    width = r + 2 * layers - 1
    padded = np.pad(hier.fine.dof_grid, layers - 1, constant_values=-1)
    windows = sliding_window_view(padded, (width, width))[cy * r, cx * r].reshape(len(cy), -1)
    inside = windows >= 0
    offsets = np.zeros(len(cy) + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=offsets[1:])
    return Decomposition(dofs=windows[inside], offsets=offsets, overlap_layers=layers)
