"""Two-level additive Schwarz preconditioner for shifted residuals.

The preconditioner is the sum of a coarse spectral solve and independent
overlapping subdomain solves.  It consumes the residual of a Ritz pair in
dual form, rho = lambda * M u - K u, and returns a primal correction:

    t  =  P ( sum_{j > cut} (u_j' P' rho) / (mu_j - shift) u_j )
        + sum_l  E_l (K_l - shift M_l)^(-1) (rho restricted to subdomain l)

where (mu_j, u_j) is the full eigendecomposition of the coarse pencil, P is
coarse-to-fine interpolation, and K_l, M_l are principal submatrices on the
l-th subdomain.  Restricting the coarse sum to indices above ``cluster_cut``
deflates the targeted invariant subspace, which keeps the shifted coarse
operator positive there; applying it spectrally is exact even when the shift
collides with a deflated coarse eigenvalue.

Subdomains whose (K_l, M_l) have identical local entries form one operator
class; on structured meshes most subdomains are translated copies of a few
classes (interior, edges, corners).  ``LocalBlocks`` groups the subdomains
once per solve; ``prepare`` factorizes each class once per shift, and the
local solves of all its members are one multi-right-hand-side solve with
that factorization, summed into the correction in ascending subdomain order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem, linalg
from .errors import InvalidArgumentError
from .mesh import Decomposition, MeshHierarchy

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
    """Coarse interpolation plus the full coarse eigendecomposition.

    ``values``/``vectors`` are the ascending eigenpairs of the coarse pencil,
    mass-orthonormal.  Indices 1..cluster_cut are deflated; the coarse solve
    acts only on the span of the remaining eigenvectors.
    """

    prolongation: sp.csr_matrix
    values: np.ndarray
    vectors: np.ndarray
    cluster_cut: int

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def deflated_dim(self) -> int:
        """Dimension of the high-frequency coarse subspace the solve acts on."""
        return max(self.dim - self.cluster_cut, 0)

    @property
    def shift_cap(self) -> float:
        """Cap on preconditioner shifts: just below the first retained coarse
        eigenvalue, or infinity when no coarse eigenvalue is retained."""
        if self.deflated_dim == 0:
            return np.inf
        return float(self.values[self.cluster_cut]) * (1.0 - 1e-8)


def build_coarse_piece(hier: MeshHierarchy, cluster_cut: int) -> CoarsePiece:
    """Assemble the coarse pencil of ``hier`` and eigendecompose it fully."""
    if cluster_cut < 0:
        raise InvalidArgumentError(f"cluster cut must be >= 0, got {cluster_cut}")
    pencil = fem.assemble(hier.coarse)
    eig = linalg.dense_generalized_eig(pencil.stiffness.toarray(), pencil.mass.toarray())
    return CoarsePiece(
        prolongation=hier.coarse_to_fine,
        values=eig.values,
        vectors=eig.vectors,
        cluster_cut=cluster_cut,
    )


def _local_entries(A, dof_sets):
    """Yield the local ``(rows, cols, values)`` entries of ``A[dofs][:, dofs]`` per dof set.

    The rows of all sets are gathered from the CSR matrix ``A`` at once; a
    sorted (set, dof) lookup maps each gathered entry's column to its local
    index within its set and drops the entries outside it.  Entries come in
    the gathered order: by local row, then by the column order of ``A``.
    """
    if not dof_sets:
        return
    sizes = np.array([len(d) for d in dof_sets], dtype=np.int64)
    dofs = np.concatenate(dof_sets).astype(np.int64)
    owner = np.repeat(np.arange(len(dof_sets)), sizes)
    local = np.arange(len(dofs)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = A[dofs]
    counts = np.diff(rows.indptr)
    entry_owner = np.repeat(owner, counts)
    keys = owner * A.shape[1] + dofs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    query = entry_owner * A.shape[1] + rows.indices
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    hit = keys[pos] == query
    r = np.repeat(local, counts)[hit]
    c = local[order[pos[hit]]]
    v = rows.data[hit]
    bounds = np.searchsorted(entry_owner[hit], np.arange(len(dof_sets) + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield r[lo:hi], c[lo:hi], v[lo:hi]


def _block(m, rows, cols, values):
    """The m x m block of the given local entries: dense up to DENSE_LIMIT, else CSR.

    Dense blocks are summed into zeros as ``toarray`` does; sparse ones come
    out with sorted indices, as ``A[dofs][:, dofs]`` after ``sort_indices``.
    """
    if m <= linalg.DENSE_LIMIT:
        block = np.zeros((m, m))
        np.add.at(block, (rows, cols), values)
        return block
    return sp.csr_matrix((values, (rows, cols)), shape=(m, m))


class LocalBlocks:
    """Subdomain submatrices, grouped into classes of identical local entries.

    ``solve`` builds them once and passes them to every ``prepare`` call.
    ``n`` is the number of fine dofs.  ``class_of[l]`` is the class of
    subdomain l; ``k_blocks``/``m_blocks`` hold one pair per class, in order
    of first appearance.  The class key is the subdomain size and the exact
    bytes of its local K and M entries, so subdomains share a class only if
    their blocks are equal.  A block is built only for the first member of
    each class: dense up to ``linalg.DENSE_LIMIT`` dofs, sorted CSR above it.

    The batched local solve reads ``class_dofs``, ``scatter`` and ``order``.
    ``class_dofs[c]`` holds the dof sets of the members of class c as rows, in ascending
    subdomain order; the rows have equal length because the size is part of
    the key.  ``scatter`` concatenates all dof sets in subdomain order, and
    ``order`` permutes the member-major concatenation of the ``class_dofs``
    into that order.
    """

    def __init__(self, pencil, decomp: Decomposition):
        self.n = pencil.stiffness.shape[0]
        self.class_of = []
        self.k_blocks = []
        self.m_blocks = []
        self.dof_sets = [np.asarray(d) for d in decomp.subdomains]
        k_entries = _local_entries(pencil.stiffness.tocsr(), self.dof_sets)
        m_entries = _local_entries(pencil.mass.tocsr(), self.dof_sets)
        classes = {}
        for dofs, k, m in zip(self.dof_sets, k_entries, m_entries):
            key = (len(dofs),) + tuple(a.tobytes() for a in k + m)
            c = classes.setdefault(key, len(classes))
            if c == len(self.k_blocks):
                self.k_blocks.append(_block(len(dofs), *k))
                self.m_blocks.append(_block(len(dofs), *m))
            self.class_of.append(c)

        members = [np.flatnonzero(np.equal(self.class_of, c)) for c in range(len(classes))]
        self.class_dofs = [np.stack([self.dof_sets[l] for l in ls]) for ls in members]
        self.scatter = np.concatenate(self.dof_sets)
        cuts = np.cumsum([len(d) for d in self.dof_sets])[:-1]
        positions = np.split(np.arange(len(self.scatter)), cuts)
        self.order = np.argsort(np.concatenate([positions[l] for ls in members for l in ls]))


class SchwarzPreconditioner:
    """Prepared two-level additive Schwarz operator for a list of shifts.

    Immutable after construction; ``apply`` may be called concurrently.
    ``apply`` checks the shift index; ``apply_coarse`` and ``apply_local``
    trust it.  ``clamped_shifts`` counts the requested shifts that
    ``prepare`` lowered to the coarse shift cap.
    """

    def __init__(self, coarse, shifts, factorizations, blocks, clamped_shifts):
        self.coarse = coarse
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
        """Coarse contribution: spectral solve on the deflated coarse subspace."""
        t = np.zeros(self.n)
        cp = self.coarse
        if cp.deflated_dim == 0:
            return t
        cut = cp.cluster_cut
        c = cp.prolongation.T @ rho
        d = cp.vectors[:, cut:].T @ c
        d /= cp.values[cut:] - self.shifts[i]
        t += cp.prolongation @ (cp.vectors[:, cut:] @ d)
        return t

    def apply_local(self, rho: np.ndarray, i: int) -> np.ndarray:
        """Sum of the subdomain solves: one multi-right-hand-side solve per
        operator class, summed in ascending subdomain order."""
        b = self._blocks
        facts = self._factorizations[i]
        x = np.concatenate([f.solve(rho[idx].T).T.ravel() for f, idx in zip(facts, b.class_dofs)])
        return np.bincount(b.scatter, weights=x[b.order], minlength=self.n)

    def apply(self, rho: np.ndarray, i: int) -> np.ndarray:
        """Apply the preconditioner for the i-th prepared shift to a dual vector."""
        rho = np.asarray(rho, dtype=np.float64)
        if rho.shape != (self.n,):
            raise InvalidArgumentError(f"dual vector of length {self.n} expected")
        if not 0 <= i < len(self.shifts):
            raise InvalidArgumentError(
                f"shift index {i} outside the prepared range 0..{len(self.shifts) - 1}"
            )
        return self.apply_coarse(rho, i) + self.apply_local(rho, i)


def prepare(blocks: LocalBlocks, coarse: CoarsePiece, shifts) -> SchwarzPreconditioner:
    """Factorize each subdomain operator class once per shift; share the coarse piece.

    Shifts above ``coarse.shift_cap`` are lowered to it, so that the
    deflated coarse operator stays positive; the preconditioner's
    ``clamped_shifts`` counts them.
    """
    shifts = np.asarray(list(shifts), dtype=np.float64)
    if shifts.size == 0 or not np.all(np.isfinite(shifts)):
        raise InvalidArgumentError("a non-empty list of finite shifts is required")
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
