"""Two-level additive Schwarz preconditioner for shifted residuals.

The preconditioner is the sum of a coarse spectral solve and independent
overlapping subdomain solves.  It consumes the residual of a Ritz pair in
dual form, rho = lambda * M u - K u, and returns a primal correction:

    t  =  P ( sum_{j > cut} (u_j' P' rho) / (mu_j - shift) u_j )
        + sum_l  E_l (K_l - shift M_l)^(-1) (rho restricted to subdomain l)

where (mu_j, u_j) are the eigenpairs of the coarse pencil, P is
coarse-to-fine interpolation, and K_l, M_l are principal submatrices on the
l-th subdomain.  The coarse sum runs over the retained pairs, those above
the cut (the cluster end): dropping the rest deflates the targeted invariant
subspace, which keeps the shifted coarse operator positive there, and
applying it spectrally is exact even when the shift collides with a deflated
coarse eigenvalue.  When no pair is retained the sum is empty and the
preconditioner is one-level; the same products then add exact zeros.

The P1 stencils do not depend on position, so subdomains whose dof patterns
are translates of each other share (K_l, M_l) and form one operator class;
on structured meshes there are a few (interior, edges, corners).
``LocalBlocks`` assembles each class once per solve with ``fem.assemble``
and, up to ``linalg.DENSE_LIMIT`` dofs, keeps it as lower bands: in
lattice order K_l - shift M_l is banded.  ``prepare`` factorizes each class
once per shift, by banded Cholesky (LDL^T when the shifted operator is
indefinite) or, for larger classes, SuperLU.  The local solves work in the
decomposition's own flat layout: the residual is gathered once into the
order of ``Decomposition.dofs``, each class solves its members' rows of
that copy in place with one multi-right-hand-side solve, and one bincount
sums the copy into the correction in ascending subdomain order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import fem, linalg
from .errors import InvalidArgumentError, is_integer, is_number
from .mesh import Decomposition, Mesh, MeshHierarchy

__all__ = [
    "CoarsePiece",
    "LocalBlocks",
    "SchwarzPreconditioner",
    "build_coarse_piece",
    "prepare",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class CoarsePiece:
    """Coarse restriction plus the retained coarse eigenpairs.

    ``values``/``vectors`` are the eigenpairs of the coarse pencil above the
    cut, ascending and mass-orthonormal: the coarse solve sums over them,
    and a one-level piece retains none ((n_c, 0) vectors).  ``restriction``
    is the hierarchy's ``fine_to_coarse`` P'; the solve prolongs by its transposed view.
    """

    restriction: sp.csr_matrix
    values: np.ndarray
    vectors: np.ndarray

    @property
    def deflated_dim(self) -> int:
        """Dimension of the high-frequency coarse subspace the solve acts on."""
        return len(self.values)

    @property
    def shift_cap(self) -> float:
        """Cap on preconditioner shifts: just below the first retained coarse
        eigenvalue, or infinity when no coarse eigenvalue is retained."""
        return float(self.values[0]) * (1.0 - 1e-8) if len(self.values) else np.inf


def build_coarse_piece(hier: MeshHierarchy, cluster_cut: int) -> CoarsePiece:
    """Eigendecompose the coarse pencil of ``hier``; keep the pairs above ``cluster_cut``.

    The retained pairs are views of the eigensolve's arrays, and the
    restriction is ``hier.fine_to_coarse`` itself, not a copy.  Raises
    InvalidArgumentError unless ``cluster_cut`` is an integer >= 0, and
    ProblemTooLargeError, before allocating, when the dense eigensolve, two
    n_c^2 operands and 2 n_c^2 + 6 n_c + 1 doubles of workspace, exceeds
    physical memory (``linalg.admit``).
    """
    if not is_integer(cluster_cut) or cluster_cut < 0:
        raise InvalidArgumentError(f"cluster cut must be an integer >= 0, got {cluster_cut!r}")
    cluster_cut = int(cluster_cut)
    n_c = hier.coarse.n_dofs
    linalg.admit(f"the coarse eigensolve at level {hier.coarse.level} ({n_c} dofs)", 32 * n_c**2)
    pencil = fem.assemble(hier.coarse)
    eig = linalg.dense_generalized_eig(pencil.stiffness, pencil.mass)
    return CoarsePiece(
        restriction=hier.fine_to_coarse,
        values=eig.values[cluster_cut:],
        vectors=eig.vectors[:, cluster_cut:],
    )


class LocalBlocks:
    """Subdomain operators, one pair (K_l, M_l) per class of translated dof patterns.

    ``solve`` builds them once and passes them to every ``prepare`` call.
    ``n`` is the number of fine dofs.  ``class_of[l]`` is the class of
    subdomain l; ``k_blocks``/``m_blocks`` hold one pair per class, in order
    of first appearance.  The class key is the subdomain's dof pattern moved
    to its lower-left corner.  For the first member of each class,
    ``fem.assemble`` builds the pencil on the pattern alone, numbered in
    lattice order with a Dirichlet boundary around it; since subdomains are
    ascending, that is ``A[d][:, d]`` of the fine pencil for every member d.
    Up to ``linalg.DENSE_LIMIT`` dofs a class is kept as the lower bands of
    K_l and M_l (``linalg.lower_bands``), O(s b) for s dofs: in lattice order
    the half-bandwidth b is about the pattern's row width.  Above the limit
    it is sorted CSR.

    The batched local solve reads ``dofs``, the decomposition's flat array
    (subdomain after subdomain, not a copy), and ``positions``:
    ``positions[c]`` holds the members of class c as rows, in ascending
    subdomain order, each row the indices of that member's entries in
    ``dofs``.  The rows have equal length because the size is part of the
    key.

    Raises InvalidArgumentError when a dof of ``decomp`` is not a dof of
    ``mesh``.
    """

    def __init__(self, mesh: Mesh, decomp: Decomposition):
        self.n = mesh.n_dofs
        self.class_of, self.k_blocks, self.m_blocks = [], [], []
        self.dofs = dofs = decomp.dofs
        offsets = decomp.offsets
        if np.any(dofs >= self.n):
            raise InvalidArgumentError(
                f"the decomposition holds dof {dofs.max()}, the mesh only {self.n} dofs")
        sizes = np.diff(offsets)
        local = mesh.dof_lattice()[dofs]  # then less its subdomain's lower-left corner
        local -= np.repeat(np.minimum.reduceat(local, offsets[:-1], axis=0), sizes, axis=0)
        classes = {}
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            pattern = local[lo:hi]
            c = classes.setdefault(pattern.tobytes(), len(classes))
            if c == len(self.k_blocks):
                grid = np.full(tuple(pattern.max(axis=0)[::-1] + 1), -1, dtype=np.int64)
                grid[pattern[:, 1], pattern[:, 0]] = np.arange(len(pattern))
                pencil = fem.assemble(replace(mesh, n_dofs=len(pattern), dof_grid=grid))
                k, m = pencil.stiffness, pencil.mass
                if len(pattern) <= linalg.DENSE_LIMIT:
                    k, m = linalg.lower_bands(k, m)
                self.k_blocks.append(k)
                self.m_blocks.append(m)
            self.class_of.append(c)

        members = [np.flatnonzero(np.equal(self.class_of, c)) for c in range(len(classes))]
        self.positions = [offsets[ls, None] + np.arange(sizes[ls[0]]) for ls in members]


class SchwarzPreconditioner:
    """Prepared two-level additive Schwarz operator for a list of shifts.

    Immutable after construction; ``apply`` may be called concurrently.
    ``apply`` checks the shift index; ``apply_coarse`` and ``apply_local``
    trust it.  ``clamped_shifts`` counts the requested shifts that
    ``prepare`` lowered to the coarse shift cap.
    """

    def __init__(self, coarse, shifts, factorizations, blocks, clamped_shifts):
        self.coarse = coarse
        self._prolongation = coarse.restriction.T  # a view; forming it takes ~30 us an apply
        self.shifts = shifts
        self._factorizations = factorizations  # per shift, one per operator class
        self._blocks = blocks
        self.n = blocks.n
        self.clamped_shifts = clamped_shifts

    @property
    def ldlt_fallbacks(self) -> int:
        """Local factorizations, over all shifts and classes, whose Cholesky
        met a non-positive pivot and fell back to LDL^T."""
        return sum(f.kind == "symmetric-indefinite"
                   for facts in self._factorizations for f in facts)

    def apply_coarse(self, rho: np.ndarray, i: int) -> np.ndarray:
        """Coarse contribution: spectral solve on the retained coarse pairs
        (exact zeros when none is retained)."""
        cp = self.coarse
        d = cp.vectors.T @ (cp.restriction @ rho)
        d /= cp.values - self.shifts[i]
        return self._prolongation @ (cp.vectors @ d)

    def apply_local(self, rho: np.ndarray, i: int) -> np.ndarray:
        """Sum of the subdomain solves: one multi-right-hand-side solve per
        operator class, in place on one gathered copy of ``rho``, summed in
        ascending subdomain order."""
        b = self._blocks
        flat = rho[b.dofs]  # per call, since apply may run concurrently
        for f, pos in zip(self._factorizations[i], b.positions):
            flat[pos] = f.solve(flat[pos].T, overwrite=True).T
        return np.bincount(b.dofs, weights=flat, minlength=self.n)

    def apply(self, rho: np.ndarray, i: int) -> np.ndarray:
        """Apply the preconditioner for the i-th prepared shift to a dual vector."""
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.n,):
            raise InvalidArgumentError(f"dual vector of length {self.n} expected")
        if not is_integer(i):
            raise InvalidArgumentError(f"shift index must be an integer, got {i!r}")
        if not 0 <= i < len(self.shifts):
            raise InvalidArgumentError(f"shift index {i} outside the prepared range "
                                       f"0..{len(self.shifts) - 1}")
        return self.apply_coarse(rho, i) + self.apply_local(rho, i)


def prepare(blocks: LocalBlocks, coarse: CoarsePiece, shifts) -> SchwarzPreconditioner:
    """Factorize each subdomain operator class once per shift; share the coarse piece.

    Shifts above ``coarse.shift_cap`` are lowered to it, so that the
    deflated coarse operator stays positive; the preconditioner's
    ``clamped_shifts`` counts them.  Raises InvalidArgumentError, before any
    factorization, unless ``shifts`` is a non-empty flat list of finite real
    numbers (``errors.is_number``: a bool or a string is not one) and
    ``coarse`` was built for the fine mesh of ``blocks``.
    """
    if coarse.restriction.shape[1] != blocks.n:
        raise InvalidArgumentError(f"the coarse piece prolongs to {coarse.restriction.shape[1]} "
                                   f"dofs, the local blocks have {blocks.n}")
    listed = list(shifts) if np.iterable(shifts) else []
    if not listed or not all(map(is_number, listed)) or not np.all(np.isfinite(listed)):
        raise InvalidArgumentError(f"a non-empty flat list of finite real shifts is required, "
                                   f"got {shifts!r}")
    shifts = np.array(listed, dtype=np.float64)
    clamped = int(np.count_nonzero(shifts > coarse.shift_cap))
    shifts = np.minimum(shifts, coarse.shift_cap)

    factorizations = [
        [linalg.factorize_shifted(kb, mb, shift) for kb, mb in zip(blocks.k_blocks, blocks.m_blocks)]
        for shift in shifts
    ]
    prec = SchwarzPreconditioner(coarse, shifts, factorizations, blocks, clamped)
    if prec.ldlt_fallbacks:
        log.info(
            "%d of %d local factorizations were indefinite and used LDL^T",
            prec.ldlt_fallbacks,
            len(shifts) * len(blocks.k_blocks),
        )
    return prec
