"""Numerical kernels: reusable factorizations, generalized eigensolves,
and Gram-Schmidt orthonormalization in a mass inner product.

Factorizations below a size threshold use dense LAPACK (Cholesky for SPD
operands, Bunch-Kaufman LDL^T otherwise); larger operands go through
SuperLU.  All returned handles are immutable after construction and safe
for repeated solves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (
    EmptyBasisError,
    EigensolverError,
    IndefiniteMatrixError,
    InvalidArgumentError,
    SingularMatrixError,
)

__all__ = [
    "Factorization",
    "EigenBasis",
    "factorize",
    "factorize_shifted",
    "dense_generalized_eig",
    "lowest_eigenpairs",
    "b_orthonormalize",
]

log = logging.getLogger(__name__)

# Below this order a dense factorization is faster and the memory is modest.
DENSE_LIMIT = 600


class Factorization:
    """Handle for a symmetric factorization, reusable for many solves.

    ``kind`` is one of "spd-cholesky" (dense Cholesky), "symmetric-indefinite"
    (dense Bunch-Kaufman LDL^T), or "sparse-lu" (SuperLU, serves both
    definite and indefinite operands).
    """

    def __init__(self, kind, n, solve_impl):
        self.kind = kind
        self.n = n
        self._solve = solve_impl

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one right-hand side (n,) or a block (n, k)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise InvalidArgumentError(f"rhs of leading dimension {self.n} expected")
        return self._solve(rhs)


def _dense_spd(a: np.ndarray) -> Factorization:
    c, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=0)
    if info > 0:
        raise IndefiniteMatrixError(pivot=info - 1)
    if info < 0:
        raise InvalidArgumentError(f"illegal value in argument {-info} of dpotrf")

    def solve(rhs):
        x, sinfo = lapack.dpotrs(c, rhs, lower=1)
        if sinfo != 0:
            raise SingularMatrixError("Cholesky solve failed")
        return x

    return Factorization("spd-cholesky", a.shape[0], solve)


def _dense_ldlt(a: np.ndarray) -> Factorization:
    ldu, ipiv, info = lapack.dsytrf(a, lower=1)
    if info > 0:
        raise SingularMatrixError(f"zero pivot at index {info - 1} in LDL^T factorization")
    if info < 0:
        raise InvalidArgumentError(f"illegal value in argument {-info} of dsytrf")

    def solve(rhs):
        x, sinfo = lapack.dsytrs(ldu, ipiv, rhs, lower=1)
        if sinfo != 0:
            raise SingularMatrixError("LDL^T solve failed")
        return x

    return Factorization("symmetric-indefinite", a.shape[0], solve)


def _sparse_lu(S, symmetric_spd: bool) -> Factorization:
    csc = sp.csc_matrix(S)
    try:
        if symmetric_spd:
            lu = spla.splu(
                csc,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        else:
            lu = spla.splu(csc)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from exc

    def solve(rhs):
        return lu.solve(rhs)

    return Factorization("sparse-lu", csc.shape[0], solve)


def factorize(S, expect_spd: bool = False) -> Factorization:
    """Factorize the symmetric operand ``S`` for repeated solves.

    Dense path (order <= DENSE_LIMIT or ndarray input): Cholesky when
    ``expect_spd``, raising IndefiniteMatrixError with the failing pivot if a
    non-positive pivot is met so the caller can refactorize with
    ``expect_spd=False`` (Bunch-Kaufman).  Sparse path: SuperLU, configured
    for symmetric-definite operands when ``expect_spd``.

    Raises SingularMatrixError when the operand is singular to working
    precision.
    """
    if sp.issparse(S):
        n = S.shape[0]
        if n > DENSE_LIMIT:
            return _sparse_lu(S, symmetric_spd=expect_spd)
        dense = S.toarray()
    else:
        dense = np.asarray(S, dtype=np.float64)
        n = dense.shape[0]
    if dense.shape != (n, n):
        raise InvalidArgumentError(f"square operand expected, got shape {dense.shape}")
    dense = np.asfortranarray(dense)
    if expect_spd:
        return _dense_spd(dense)
    return _dense_ldlt(dense)


def factorize_shifted(K, M, shift: float) -> Factorization:
    """Factorize K - shift * M, attempting the SPD path first.

    On the dense path an indefinite operand triggers a transparent fallback
    to the symmetric-indefinite factorization (logged).  On the sparse path
    the pivot signs are not observable, so a positive shift goes straight to
    the general LU factorization.
    """
    S = K - shift * M
    small = (not sp.issparse(S)) or S.shape[0] <= DENSE_LIMIT
    if small:
        try:
            return factorize(S, expect_spd=True)
        except IndefiniteMatrixError as exc:
            log.debug(
                "shifted operator (shift=%.6g, n=%d) indefinite at pivot %d; "
                "refactorizing as symmetric-indefinite",
                shift,
                S.shape[0],
                exc.pivot,
            )
            return factorize(S, expect_spd=False)
    return factorize(S, expect_spd=shift <= 0.0)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Eigenpairs of a symmetric pencil: ascending values, B-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


def dense_generalized_eig(A: np.ndarray, B: np.ndarray) -> EigenBasis:
    """Solve A x = lambda B x for symmetric A and SPD B, full spectrum.

    Returns ascending eigenvalues with vectors normalized so that
    V' B V = I.  Raises InvalidArgumentError when B is not positive definite
    or the dimensions disagree.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"matching square operands expected, got {A.shape} and {B.shape}")
    try:
        values, vectors = sla.eigh(A, B)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError(f"mass operand is not positive definite: {exc}") from exc
    return EigenBasis(values=values, vectors=vectors)


def lowest_eigenpairs(K, M, k: int) -> EigenBasis:
    """The ``k`` lowest eigenpairs of K x = lambda M x for sparse SPD K and M.

    Pencils of at most DENSE_LIMIT dofs, and requests for half the spectrum
    or more, are solved densely.  Otherwise shift-invert Lanczos (ARPACK)
    at shift zero runs on the sparse factorization of K, from a fixed start
    vector so that repeated calls are bit-identical.  Raises
    InvalidArgumentError unless 1 <= k < n, and EigensolverError when
    ARPACK fails or does not converge.
    """
    n = K.shape[0]
    if not 1 <= k < n:
        raise InvalidArgumentError(f"need 1 <= k < {n} eigenpairs, got k={k}")
    if n <= DENSE_LIMIT or 2 * k >= n:
        values, vectors = sla.eigh(K.toarray(), M.toarray(), subset_by_index=(0, k - 1))
        return EigenBasis(values=values, vectors=vectors)
    fact = factorize(K, expect_spd=True)
    op_inv = spla.LinearOperator((n, n), matvec=fact.solve, dtype=np.float64)
    # A generic fixed start vector: a constant one would be mass-orthogonal
    # to every mode that is odd under a symmetry of the mesh.
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = spla.eigsh(K, k, M=M, sigma=0.0, which="LM", OPinv=op_inv,
                                     v0=v0, tol=0)
    except spla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise EigensolverError(f"shift-invert Lanczos failed for {k} of {n} eigenpairs: {exc}") from exc
    order = np.argsort(values)
    return EigenBasis(values=values[order], vectors=vectors[:, order])


def b_orthonormalize(
    vectors,
    M,
    drop_tol: float = 1e-8,
    against: np.ndarray | None = None,
    against_mass: np.ndarray | None = None,
) -> np.ndarray:
    """Gram-Schmidt orthonormalization in the M inner product.

    The incoming columns are processed sequentially (modified Gram-Schmidt
    among themselves); the projection against the optional ``against`` basis,
    which is assumed M-orthonormal already, is applied in blocked form.
    Every vector receives one full re-orthogonalization sweep.  Vectors whose
    post-projection M-norm falls below ``drop_tol`` times their pre-projection
    M-norm are discarded.

    Parameters
    ----------
    vectors : (n, k) array or sequence of vectors
    M : sparse or dense SPD matrix defining the inner product
    drop_tol : float in (0, 1)
    against, against_mass : optional existing M-orthonormal basis and its
        image under M (computed here if omitted)

    Returns
    -------
    (n, kept) array with W' M W = I.  Raises EmptyBasisError if every vector
    is dropped and there is no ``against`` basis (or one without columns) to
    fall back on.
    """
    if not 0.0 < drop_tol < 1.0:
        raise InvalidArgumentError(f"drop tolerance must lie in (0, 1), got {drop_tol}")
    V = np.array(np.column_stack(vectors) if isinstance(vectors, (list, tuple)) else vectors,
                 dtype=np.float64, copy=True)
    if V.ndim == 1:
        V = V[:, None]
    n = V.shape[0]

    if against is not None and against.shape[1] == 0:
        against = None
    if against is not None and against_mass is None:
        against_mass = M @ against
    kept: list[np.ndarray] = []
    kept_m: list[np.ndarray] = []

    for j in range(V.shape[1]):
        v = V[:, j].copy()
        pre = float(v @ (M @ v))
        if pre <= 0.0:
            continue
        pre = np.sqrt(pre)
        for _ in range(2):  # second sweep = full re-orthogonalization
            if against is not None:
                v -= against @ (against_mass.T @ v)
            for w, mw in zip(kept, kept_m):
                v -= (mw @ v) * w
        post_sq = float(v @ (M @ v))
        post = np.sqrt(post_sq) if post_sq > 0.0 else 0.0
        if post < drop_tol * pre:
            continue
        v /= post
        kept.append(v)
        kept_m.append(M @ v)

    if not kept and against is None:
        raise EmptyBasisError("all vectors were dropped during orthonormalization")
    if not kept:
        return np.empty((n, 0))
    return np.column_stack(kept)
