"""Numerical kernels: reusable factorizations, generalized eigensolves,
and Gram-Schmidt orthonormalization in a mass inner product.

``factorize`` is SuperLU for sparse operands.  ``factorize_shifted`` also
takes the lower bands of a pencil (``lower_bands``): banded Cholesky, and
Bunch-Kaufman LDL^T of the dense lower triangle when Cholesky meets a
non-positive pivot.  A P1 mass matrix is solved
without a factorization, by a fixed-step Chebyshev semi-iteration on
Wathen's bracket ``MASS_BRACKET`` (``mass_chebyshev``).  All returned
handles are immutable after construction and safe for repeated solves.
Large dense temporaries stay off the malloc heap, which keeps freed blocks
once glibc's mmap threshold has risen: the dense eigensolves overwrite
copies of their operands in ``mapped_zeros`` maps (the projected eigensolve
unpacks packed rows into one that its caller reuses), and
``b_orthonormalize`` works in, and returns a view of, the block it is
given.  ``release_free_heap`` hands the heap that a one-off phase freed
back to the operating system.  ``admit`` checks each large allocation
against physical memory before it is made; ``high_water_mark`` reads the
process's own peak RSS.
"""

from __future__ import annotations

import ctypes
import logging
import math
import mmap
import os
import resource
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (
    EmptyBasisError,
    EigensolverError,
    InvalidArgumentError,
    ProblemTooLargeError,
    SingularMatrixError,
    is_integer,
)

__all__ = [
    "Factorization",
    "EigenBasis",
    "factorize",
    "factorize_shifted",
    "lower_bands",
    "mass_chebyshev",
    "admit",
    "high_water_mark",
    "mapped_zeros",
    "release_free_heap",
    "dense_generalized_eig",
    "dense_symmetric_eig",
    "lowest_eigenpairs",
    "b_orthonormalize",
    "basis_times",
]

log = logging.getLogger(__name__)

# Up to this order lowest_eigenpairs solves densely, and schwarz.LocalBlocks keeps
# an operator class as lower bands for LAPACK; above it both take sparse routes.
DENSE_LIMIT = 600

# Wathen's P1 bracket (IMA J. Numer. Anal. 7, 1987): every element mass matrix
# lies between 1/2 and 2 times its diagonal, so for D = diag(M) the spectrum of
# D^{-1} M lies in [1/2, 2] and 1/2 r'D^{-1}r <= r'M^{-1}r <= 2 r'D^{-1}r.
MASS_BRACKET = (0.5, 2.0)

# Steps of mass_chebyshev: after k steps the M-norm error is at most 2 * 3**-k
# of the initial error, so 30 steps reach 1e-14.
_CHEBYSHEV_STEPS = math.ceil(math.log(2 / 1e-14, 3))

# Columns per panel in which dense_symmetric_eig transposes an unpacked triangle.
_PANEL = 64

# b_orthonormalize drops a column whose M-norm falls below this share of its input M-norm.
_DROP_TOL = 1e-8


class Factorization:
    """Handle for a symmetric factorization, reusable for many solves.

    ``kind`` is one of "spd-cholesky" (banded Cholesky), "symmetric-indefinite"
    (dense Bunch-Kaufman LDL^T) or "sparse-lu" (SuperLU, serves both
    definite and indefinite operands).
    """

    def __init__(self, kind, n, solve_impl):
        self.kind = kind
        self.n = n
        self._solve = solve_impl

    def solve(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve against one right-hand side (n,) or a block (n, k); with ``overwrite``
        the LAPACK kinds solve in place in a Fortran-ordered float64 ``rhs``."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n:
            raise InvalidArgumentError(f"rhs (n,) or (n, k) with n = {self.n} expected, got {rhs.shape}")
        return self._solve(rhs, overwrite)


def lower_bands(*operands) -> list[np.ndarray]:
    """The lower bands of symmetric operands (sparse or dense), of their widest half-bandwidth.

    Each band is Fortran-ordered (b + 1, n) in LAPACK's ``lower=1`` layout,
    ``band[i - j, j] = S[i, j]`` for 0 <= i - j <= b, where b is the largest
    ``i - j`` of a stored entry over all operands.
    """
    coos = [sp.coo_matrix(S) for S in operands]
    width = max(int(np.max(c.row - c.col, initial=0)) for c in coos)
    bands = []
    for c in coos:
        band = np.zeros((width + 1, c.shape[1]), order="F")
        low = c.row >= c.col
        band[c.row[low] - c.col[low], c.col[low]] = c.data[low]
        bands.append(band)
    return bands


def _banded(K: np.ndarray, M: np.ndarray, shift: float) -> Factorization:
    """Banded Cholesky of the band K - shift M, in place, or Bunch-Kaufman LDL^T of its
    dense lower triangle when Cholesky meets a non-positive pivot."""
    n = K.shape[1]
    c, info = lapack.dpbtrf(K - shift * M, lower=1, overwrite_ab=1)
    if info < 0:
        raise InvalidArgumentError(f"illegal value in argument {-info} of dpbtrf")
    if info == 0:
        def solve(rhs, overwrite):
            x, sinfo = lapack.dpbtrs(c, rhs, lower=1, overwrite_b=overwrite)
            if sinfo != 0:
                raise SingularMatrixError("Cholesky solve failed")
            return x

        return Factorization("spd-cholesky", n, solve)

    log.debug("operand of order %d indefinite at pivot %d; refactorizing as symmetric-indefinite",
              n, info - 1)
    d, j = np.nonzero(np.arange(len(K))[:, None] + np.arange(n) < n)  # the band within the matrix
    a = np.zeros((n, n), order="F")  # dsytrf reads only the lower triangle
    a[d + j, j] = (K - shift * M)[d, j]
    ldu, ipiv, info = lapack.dsytrf(a, lower=1, overwrite_a=1)
    if info > 0:
        raise SingularMatrixError(f"zero pivot at index {info - 1} in LDL^T factorization")
    if info < 0:
        raise InvalidArgumentError(f"illegal value in argument {-info} of dsytrf")

    def solve(rhs, overwrite):
        x, sinfo = lapack.dsytrs(ldu, ipiv, rhs, lower=1, overwrite_b=overwrite)
        if sinfo != 0:
            raise SingularMatrixError("LDL^T solve failed")
        return x

    return Factorization("symmetric-indefinite", n, solve)


def factorize(S, expect_spd: bool = False) -> Factorization:
    """Factorize the sparse symmetric operand ``S`` by SuperLU, for repeated solves.

    SuperLU is configured for symmetric-definite operands when
    ``expect_spd``; it serves definite and indefinite operands alike.
    Raises InvalidArgumentError for an operand that is not a square sparse
    matrix, and SingularMatrixError when it is singular to working
    precision.
    """
    if not sp.issparse(S) or S.shape[0] != S.shape[1]:
        raise InvalidArgumentError(f"square sparse operand expected, got {type(S).__name__} "
                                   f"of shape {np.shape(S)}")
    csc = sp.csc_matrix(S)
    try:
        if expect_spd:
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

    def solve(rhs, overwrite):
        return lu.solve(rhs)

    return Factorization("sparse-lu", csc.shape[0], solve)


def factorize_shifted(K, M, shift: float) -> Factorization:
    """Factorize K - shift * M, indefinite when ``shift`` lies inside the spectrum.

    K and M are both sparse, or both lower bands of one width
    (``lower_bands``).  Sparse operands get SuperLU's general mode (the
    solver's shifts are Ritz values of an SPD pencil, hence positive).
    Bands get LAPACK's banded Cholesky (``dpbtrf``), in O(n b^2) time and
    O(n b) memory; when it meets a non-positive pivot (logged at debug
    level) the same entries, scattered into the lower triangle of a dense
    matrix, get Bunch-Kaufman LDL^T (``dsytrf``).  So the kind of a banded
    factorization tells whether K - shift * M is positive definite.

    Raises SingularMatrixError when the operand is singular to working
    precision.
    """
    if sp.issparse(K):
        return factorize(K - shift * M)
    return _banded(K, M, shift)


def mass_chebyshev(M):
    """A function that solves M X = B, for a P1 mass matrix ``M`` and B of shape (n,)
    or (n, k), by Chebyshev semi-iteration, with no factorization.

    It runs the semi-iteration on ``MASS_BRACKET``, which holds the spectrum
    of D^{-1} M for D = diag(M), preconditioned by D (Golub & Varga, Numer.
    Math. 3, 1961), from a zero start on the whole block: one sparse product
    per step and no inner products.  After ``_CHEBYSHEV_STEPS`` steps the
    M-norm error of each column is at most 2 * 3**-30, about 1e-14, of the
    solution's M-norm.  The right-hand side is read as float64.  The function
    raises InvalidArgumentError, before the first step, for one of any other shape.
    """
    inv_diag = 1.0 / M.diagonal()
    lower, upper = MASS_BRACKET
    theta, delta = (upper + lower) / 2, (upper - lower) / 2  # centre and half-width

    def solve(rhs):
        if np.ndim(rhs) not in (1, 2) or np.shape(rhs)[0] != len(inv_diag):
            raise InvalidArgumentError(f"rhs (n,) or (n, k) with n = {len(inv_diag)} expected, "
                                       f"got {np.shape(rhs)}")
        r = np.array(rhs, dtype=np.float64, order="C")
        scale = inv_diag if r.ndim == 1 else inv_diag[:, None]
        d = scale * r / theta
        x = d.copy()
        rho = delta / theta
        for _ in range(_CHEBYSHEV_STEPS - 1):
            r -= M @ d
            rho_next = 1.0 / (2.0 * theta / delta - rho)
            d *= rho_next * rho
            d += (2.0 * rho_next / delta) * (scale * r)
            x += d
            rho = rho_next
        return x

    return solve


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Eigenpairs of a symmetric pencil: ascending values, B-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


# Bytes one allocation may take: the machine's physical memory.  Only ``admit`` reads it.
_MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def admit(what: str, unit: int, count: int = 1, remedy: str = "") -> int:
    """The number of ``unit``-byte pieces that fit in physical memory, when ``count`` do.

    Otherwise raises ProblemTooLargeError: "<what> needs X GiB, more than the
    Y GiB of physical memory<remedy>".
    """
    unit, count = int(unit), int(count)  # a NumPy integer product would wrap
    need = unit * count
    if need > _MEMORY_BUDGET:
        raise ProblemTooLargeError(
            f"{what} needs {need / 2**30:.1f} GiB, more than the "
            f"{_MEMORY_BUDGET / 2**30:.1f} GiB of physical memory{remedy}")
    return _MEMORY_BUDGET // unit


def high_water_mark() -> int:
    """The process's own peak RSS in bytes: ``VmHWM``, or where /proc/self/status lacks it
    ``ru_maxrss`` (bytes on macOS, KiB elsewhere), which counts the launching process's RSS."""
    try:
        with open("/proc/self/status") as fh:
            hwm = next((int(line.split()[1]) * 1024 for line in fh
                        if line.startswith("VmHWM:")), None)
    except FileNotFoundError:
        hwm = None
    if hwm is not None:
        return hwm
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)


def mapped_zeros(n: int, k: int) -> np.ndarray:
    """A zero-filled Fortran-ordered float64 (n, k) array over a private anonymous map,
    backed as it is written and unmapped when freed (a shared map faults in slower)."""
    memory = mmap.mmap(-1, 8 * max(n * k, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(memory, count=n * k).reshape((n, k), order="F")


try:  # glibc's malloc_trim; other C libraries lack it
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_free_heap() -> None:
    """Return the malloc heap's free pages to the operating system (glibc
    ``malloc_trim(0)``); does nothing where the C library lacks it.  Values
    in live arrays are untouched."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _mapped_eigh(A, B, subset=None) -> EigenBasis:
    """Eigenpairs ``subset`` = (lo, hi), or all, of A x = lambda B x by LAPACK, which
    overwrites copies of A and B (sparse or dense) in fresh ``mapped_zeros`` maps and
    leaves the vectors in A's.  Raises InvalidArgumentError unless B is positive definite,
    and EigensolverError when LAPACK fails otherwise (say, does not converge)."""
    a, b = mapped_zeros(*np.shape(A)), mapped_zeros(*np.shape(B))
    for S, out in ((A, a), (B, b)):
        S.toarray(out=out) if sp.issparse(S) else np.copyto(out, S)  # toarray adds to the zeros
    try:
        values, vectors = sla.eigh(a, b, subset_by_index=subset, overwrite_a=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        # scipy's message for info > n, the one failure that is the operand's
        if "of B is not positive definite" in str(exc):
            raise InvalidArgumentError(f"mass operand is not positive definite: {exc}") from exc
        raise EigensolverError(f"dense eigensolve of order {len(a)} failed: {exc}") from exc
    return EigenBasis(values=values, vectors=vectors)


def dense_generalized_eig(A, B) -> EigenBasis:
    """Solve A x = lambda B x for symmetric A and SPD B, full spectrum.

    A and B, sparse or dense, are not modified: LAPACK overwrites mapped
    copies and returns the vectors in A's.  Returns ascending eigenvalues
    with vectors normalized so that V' B V = I.  Raises InvalidArgumentError
    when B is not positive definite or the dimensions disagree, and
    EigensolverError when LAPACK does not converge.
    """
    shape = np.shape(A)
    if np.shape(B) != shape or len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidArgumentError(f"matching square operands expected, got {shape} and {np.shape(B)}")
    return _mapped_eigh(A, B)


def dense_symmetric_eig(rows: np.ndarray, operand: np.ndarray) -> EigenBasis:
    """All eigenpairs of the symmetric (m, m) matrix whose lower triangle ``rows`` packs,
    solved in place in ``operand``.

    ``rows`` holds the lower triangle row by row, row i (entries 0..i) from
    offset i (i + 1) / 2, so it has m (m + 1) / 2 entries; by symmetry row i
    is column i of the upper triangle.  Each row is copied into that column
    of the first m * m doubles of the flat ``operand``, viewed as a
    contiguous Fortran (m, m) array, and the upper triangle is transposed
    into the lower one in panels of ``_PANEL`` columns, with no temporary
    beyond a diagonal tile (``lapack.dtpttr`` is faster, but its m x m result
    comes from the heap); LAPACK's ``dsyevd`` (``lower=1``, as
    ``np.linalg.eigh``) then overwrites the operand with the eigenvectors.
    ``dsyevd`` reads only the lower triangle, so the result has the bits of
    ``np.linalg.eigh`` on the full matrix.  Returns ascending eigenvalues and
    the vectors, a view of ``operand``; ``rows`` is not modified.  Raises
    InvalidArgumentError when the length of ``rows`` is not m (m + 1) / 2,
    and EigensolverError when ``dsyevd`` fails.
    """
    m = (math.isqrt(8 * len(rows) + 1) - 1) // 2
    if m * (m + 1) // 2 != len(rows):
        raise InvalidArgumentError(f"packed rows of m (m + 1) / 2 entries expected, got {len(rows)}")
    work = operand[:m * m].reshape((m, m), order="F")
    start = 0
    for i in range(m):  # row i of the lower triangle is column i of the upper one
        work[:i + 1, i] = rows[start:start + i + 1]
        start += i + 1
    for j in range(0, m, _PANEL):  # the upper triangle, transposed into the lower by panels
        k = min(j + _PANEL, m)
        work[k:, j:k] = work[j:k, k:].T
        work[j:k, j:k] = work[j:k, j:k].T.copy()
    values, vectors, info = lapack.dsyevd(work, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise EigensolverError(f"dsyevd failed with info={info} on a symmetric matrix of order {m}")
    return EigenBasis(values=values, vectors=vectors)


def lowest_eigenpairs(K, M, k: int) -> EigenBasis:
    """The ``k`` lowest eigenpairs of K x = lambda M x for sparse SPD K and M.

    Pencils of at most DENSE_LIMIT dofs, and requests for half the spectrum
    or more, are solved densely.  Otherwise shift-invert Lanczos (ARPACK)
    at shift zero runs on the sparse factorization of K, from a fixed start
    vector so that repeated calls are bit-identical.  Raises
    InvalidArgumentError unless k is an integer with 1 <= k < n (and,
    densely, M is SPD), and EigensolverError when LAPACK or ARPACK fails or
    does not converge.
    """
    n = K.shape[0]
    if not is_integer(k) or not 1 <= k < n:
        raise InvalidArgumentError(f"need an integer count 1 <= k < {n}, got k={k!r}")
    k = int(k)
    if n <= DENSE_LIMIT or 2 * k >= n:
        return _mapped_eigh(K, M, subset=(0, k - 1))
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


def basis_times(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The product ``basis @ coeffs`` of a tall basis and a thin coefficient block.

    Formed as ``(coeffs' basis')'`` for a row-major ``coeffs`` (C-ordered,
    or a column slice of a C-ordered array): OpenBLAS streams a
    Fortran-ordered basis 1.6-2.5x faster with the thin operand first.  For
    blocks of up to 11 columns it returns the same bits as ``basis @
    coeffs``; wider blocks agree to roundoff.  The result is Fortran-ordered
    (n, k), the transposed view of a C-ordered (k, n) array.
    """
    return (coeffs.T @ basis.T).T


def b_orthonormalize(V: np.ndarray, M, against: np.ndarray) -> np.ndarray:
    """Blocked two-pass Gram-Schmidt orthonormalization of ``V`` in place, in the M inner product.

    The whole block is first projected off the ``against`` basis, which is
    assumed M-orthonormal already and may have no columns, in exactly two
    blocked passes ``V -= against @ (against' M V)`` (level-3 BLAS; one
    pass loses orthogonality in proportion to the cancellation, the second
    restores it to working precision: "twice is enough").  The columns are
    then orthonormalized among themselves in order, with two classical
    Gram-Schmidt sweeps per column against the columns already kept.  A
    column is dropped when its final M-norm falls below ``_DROP_TOL`` times
    its input M-norm; the kept columns are compacted to the front of ``V``.

    Parameters
    ----------
    V : writable (n, k) float64 array, such as a slice of a basis buffer;
        it is overwritten
    M : sparse or dense SPD matrix defining the inner product
    against : M-orthonormal (n, m) basis, m >= 0

    Returns
    -------
    The view ``V[:, :kept]``, with W' M W = I.  Raises EmptyBasisError if
    every vector is dropped and ``against`` has no columns to fall back on.
    """
    MV = M @ V
    pre = np.sqrt(np.maximum(np.einsum("ij,ij->j", V, MV), 0.0))
    coeffs = against.T @ MV
    del MV  # not resident beside the n x k temporaries that follow
    if against.shape[1]:
        V -= basis_times(against, coeffs)
        V -= basis_times(against, against.T @ (M @ V))

    MW = np.empty(V.shape, order="F")
    kept = 0
    for j in range(V.shape[1]):
        if pre[j] == 0.0:
            continue
        v = V[:, j]
        for _ in range(2):  # second sweep = full re-orthogonalization
            v -= V[:, :kept] @ (MW[:, :kept].T @ v)
        mv = M @ v
        post_sq = float(v @ mv)
        post = np.sqrt(post_sq) if post_sq > 0.0 else 0.0
        if post < _DROP_TOL * pre[j]:
            continue
        V[:, kept] = v / post  # compacted into column kept <= j, already read
        MW[:, kept] = mv / post
        kept += 1

    if kept == 0 and not against.shape[1]:
        raise EmptyBasisError("all vectors were dropped during orthonormalization")
    return V[:, :kept]
