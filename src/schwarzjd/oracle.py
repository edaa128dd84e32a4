"""Independent reference spectra for tests and the experiment harness.

The solver never consults this module.  The dense discrete reference
deliberately avoids the generalized LAPACK driver used elsewhere: it reduces
the pencil with an explicit Cholesky factor of the mass matrix and calls the
standard symmetric eigensolver, so the two routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import InvalidArgumentError, ProblemTooLargeError
from .fem import SparsePencil

__all__ = [
    "SpectrumReference",
    "GapInfo",
    "exact_square_eigenvalues",
    "dense_discrete_spectrum",
    "cluster_gaps",
    "DENSE_DOF_LIMIT",
]

DENSE_DOF_LIMIT = 5000


@dataclass(frozen=True, eq=False)
class SpectrumReference:
    """Ascending eigenvalues (with multiplicities) from an independent source."""

    values: np.ndarray
    vectors: np.ndarray | None = None


@dataclass(frozen=True)
class GapInfo:
    """Spectral gaps bracketing a cluster: (lambda_m - lambda_{m-1}, lambda_{M+1} - lambda_M)."""

    left: float
    right: float
    isolated: bool  # both gaps strictly positive


def exact_square_eigenvalues(count: int) -> SpectrumReference:
    """First ``count`` Dirichlet Laplacian eigenvalues of (0, pi)^2: sorted {p^2 + q^2}."""
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    # Enlarge the index bound until the count-th value is certainly covered:
    # all pairs with p^2 + q^2 <= bound^2 are enumerated once p, q <= bound.
    bound = max(4, int(math.isqrt(4 * count)) + 2)
    while True:
        p = np.arange(1, bound + 1)
        vals = np.sort((p[:, None] ** 2 + p[None, :] ** 2).ravel())
        if len(vals) >= count and vals[count - 1] <= bound * bound:
            return SpectrumReference(values=vals[:count].astype(np.float64))
        bound *= 2


def dense_discrete_spectrum(pencil: SparsePencil, count: int) -> SpectrumReference:
    """First ``count`` eigenpairs of (K, M) by a dense Cholesky-reduction solve.

    Guarded at DENSE_DOF_LIMIT dofs to keep runtimes sane.
    """
    if pencil.n > DENSE_DOF_LIMIT:
        raise ProblemTooLargeError(
            f"dense reference limited to {DENSE_DOF_LIMIT} dofs, pencil has {pencil.n}"
        )
    if not 1 <= count <= pencil.n:
        raise InvalidArgumentError(f"count must lie in [1, {pencil.n}], got {count}")
    K = pencil.stiffness.toarray() if sp.issparse(pencil.stiffness) else np.asarray(pencil.stiffness)
    M = pencil.mass.toarray() if sp.issparse(pencil.mass) else np.asarray(pencil.mass)
    L = np.linalg.cholesky(M)
    # C = L^-1 K L^-T, standard symmetric problem with the same eigenvalues.
    tmp = sla.solve_triangular(L, K, lower=True)
    C = sla.solve_triangular(L, tmp.T, lower=True).T
    C = 0.5 * (C + C.T)
    values, Y = np.linalg.eigh(C)
    vectors = sla.solve_triangular(L.T, Y[:, :count], lower=False)
    return SpectrumReference(values=values[:count], vectors=vectors)


def cluster_gaps(ref: SpectrumReference, first: int, last: int) -> GapInfo:
    """Gaps around the 1-based cluster [first, last] in ``ref``.

    Uses lambda_0 = 0 below the spectrum.  Zero (or negative) gaps mean the
    cluster cuts through a multiplet; ``isolated`` is False in that case.
    """
    vals = ref.values
    if not 1 <= first <= last:
        raise InvalidArgumentError(f"need 1 <= first <= last, got ({first}, {last})")
    if last + 1 > len(vals):
        raise InvalidArgumentError(
            f"reference holds {len(vals)} values, cluster ({first}, {last}) needs {last + 1}"
        )
    below = 0.0 if first == 1 else float(vals[first - 2])
    left = float(vals[first - 1]) - below
    right = float(vals[last]) - float(vals[last - 1])
    return GapInfo(left=left, right=right, isolated=left > 0.0 and right > 0.0)
