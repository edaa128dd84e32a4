"""Block Jacobi-Davidson iteration with a two-level additive Schwarz preconditioner.

The solver targets the eigenvalue cluster with 1-based indices first..last
of the fine discrete pencil.  Startup solves the pencil on the initialization
mesh (one level finer than the coarse mesh: coarse level + 1, spacing
halved) for its lowest ``last`` eigenpairs, densely up to
``linalg.DENSE_LIMIT`` dofs and by sparse shift-invert Lanczos above it,
interpolates the eigenvectors to the fine mesh, and Rayleigh-Ritz projects
there; by nestedness the starting values coincide with the
initialization-mesh eigenvalues.  Each outer iteration then

  1. refactorizes the subdomain operator classes, grouped once per solve,
     with the current cluster Ritz values as shifts, which
     ``schwarz.prepare`` clamps below the first retained coarse eigenvalue,
  2. solves one preconditioned correction per cluster index,
     t_i = (I - Q) B_i^{-1} rho_i, with Q the mass-orthogonal projector
     onto the current cluster Ritz vectors,
  3. grows the trial basis by the corrections and solves the projected
     eigenvalue problem,
  4. stops when the stop norm sqrt(sum_i rho_i' M^{-1} rho_i) falls below
     the tolerance.  The mass diagonal D brackets it: on P1 triangles
     every element mass matrix lies between half and twice its diagonal
     (Wathen 1987, ``linalg.MASS_BRACKET``), so with q = sum_i rho_i' D^{-1} rho_i
     the stop norm lies in [sqrt(q/2), sqrt(2q)].  The exact norm solves M X = R
     for the residual block by a fixed-step Chebyshev semi-iteration on that same
     bracket (``linalg.mass_chebyshev``, accurate to about 1e-14; no
     factorization of M is made).  Each state gets one stop test, which
     computes the exact norm only when the lower bound is below the
     tolerance or the state is the run's last; convergence is declared from
     the exact norm alone.

``iterate`` is the run: it yields each state with its trace row after the
stop test and returns the report; ``solve`` runs it to its end.

One private routine, ``_grow``, is the only Rayleigh-Ritz step: it
mass-orthonormalizes new vectors against the trial basis, borders the
projected stiffness matrix by the accepted columns and solves the small
eigenproblem.  It also forms, once per growth, the cluster Ritz vectors U,
their mass images M U and the residual block R = lam M U - K U, whose
columns are the rho_i; the stop bounds, the exact stop norm and the next
correction all read that block.  Startup grows an empty basis by the
lifted vectors, each outer iteration grows the current basis by its
corrections, and the optional thick restart (``restart_dim``) grows an
empty basis by Ritz vectors 1..last and the newest corrections.  Both of
these chain starts write their block straight into the new chain's
storage, and the restart drops the old chain before its block grows.

One ``IterationState`` is one chain: it keeps the pencil and config it was
started with and grows in place.  Its basis is a read-only view of the
leading columns of a Fortran-ordered ``data`` array, and its projected
matrix is the lower triangle, all that ``dsyevd`` reads and ``_grow``
writes, packed row by row in the flat ``projected`` array: row i from
offset i (i + 1) / 2, so the first dim (dim + 1) / 2 entries are the
current matrix and a growth appends rows behind them.  Both are reserved
once, when the chain starts (startup, and each thick restart), for the
largest basis the run can reach, and never copied.  Each growth replaces
the Ritz data by new read-only arrays, so those a caller held keep their
bytes.  The small eigenproblem is unpacked into the lower triangle of an
operand that the chain reuses and solved there
(``linalg.dense_symmetric_eig``), and a state keeps only the Ritz
coefficients of columns 1..last.  The reservations are anonymous memory
maps, backed only as they are written.
The basis takes 8 n dim bytes; the projected eigensolve takes the packed
matrix, 4 dim (dim + 1) bytes, the operand, 8 dim^2, and the 1 + 6 dim +
2 dim^2 doubles of workspace that SciPy allocates for ``dsyevd`` on each
call, about 28 dim^2 bytes in all; the startup block takes 24 n last.
``linalg.admit`` refuses each, before it is allocated, when it exceeds
physical memory.  ``_check_startup`` is the one statement of what a
start-up needs, the startup block among it; ``initialize`` calls it before
its eigensolve, and ``iterate`` calls it first of all.

Ritz values decrease monotonically and never fall below the fine discrete
eigenvalues; the per-iteration value drift (the sum of absolute Ritz value
changes), the basis dimension, the number of shifts clamped in step 1 and
the number of local factorizations of step 1 that fell back from Cholesky
to LDL^T are recorded in the trace alongside the stop norm bounds and,
where it was computed, the exact stop norm.
"""

from __future__ import annotations

import time
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from . import fem, linalg, schwarz
from .errors import ClusterTooLargeError, InvalidArgumentError, is_integer, is_number
from .mesh import Decomposition, MeshHierarchy

__all__ = [
    "ClusterSpec",
    "SolverConfig",
    "IterationState",
    "TraceRecord",
    "SolverReport",
    "initialize",
    "correction_step",
    "rayleigh_ritz",
    "stop_norm",
    "stop_bounds",
    "iterate",
    "solve",
]

# Relative margin of the exact-solve gate against rounding in the lower bound.
_GATE_MARGIN = 1e-12


@dataclass(frozen=True)
class ClusterSpec:
    """Targeted 1-based eigenvalue indices first..last (inclusive): the cluster m..M."""

    first: int
    last: int

    def __post_init__(self):
        if not (is_integer(self.first) and is_integer(self.last)):
            raise InvalidArgumentError(f"need integer m and M, got m={self.first!r}, M={self.last!r}")
        object.__setattr__(self, "first", int(self.first))
        object.__setattr__(self, "last", int(self.last))
        if not 1 <= self.first <= self.last:
            raise InvalidArgumentError(f"need 1 <= m <= M, got m={self.first}, M={self.last}")

    @property
    def count(self) -> int:
        return self.last - self.first + 1


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200
    restart_dim: int | None = None

    def __post_init__(self):
        if not is_number(self.tol):
            raise InvalidArgumentError(f"tolerance must be a number, got {self.tol!r}")
        if not 0.0 < self.tol < np.inf:
            raise InvalidArgumentError(f"tolerance must be positive and finite, got {self.tol}")
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be >= 1 and an integer, got {self.max_iter!r}")
        if not (self.restart_dim is None or is_integer(self.restart_dim)):
            raise InvalidArgumentError(f"restart_dim must be an integer, got {self.restart_dim!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.restart_dim is not None:
            object.__setattr__(self, "restart_dim", int(self.restart_dim))


def _admit_basis(n: int, columns: int) -> int:
    """Admits ``columns`` basis columns and their projected eigensolve; returns the
    columns that fit.

    The eigensolve of order c holds the packed matrix, 4 c (c + 1) bytes, the
    operand, 8 c^2, and ``dsyevd``'s workspace of 1 + 6 c + 2 c^2 doubles.
    """
    remedy = "; bound the basis with --restart-dim"
    fits = linalg.admit(f"a trial basis of {columns} columns of {n} dofs", 8 * n, columns, remedy)
    c = columns
    linalg.admit(f"the projected eigensolve of order {c} (packed matrix, operand and workspace)",
                 4 * c * (c + 1) + 8 * c * c + 8 * (1 + 6 * c + 2 * c * c), 1, remedy)
    return fits


class IterationState:
    """A chain of Rayleigh-Ritz states: the mass-orthonormal trial basis, its Ritz data and
    the storage in which they grow.

    ``IterationState(cluster, pencil, config, need)`` starts a chain without basis
    columns.  It keeps ``pencil`` and ``config`` and reserves once the largest basis
    a run with ``config`` can reach: last + max_iter * count columns, or
    restart_dim + count with restarts, at least ``need`` and at most n + need and
    those that fit (``_admit_basis``).  ``data`` is that n x columns
    ``linalg.mapped_zeros`` array, backed only as columns are written; with
    side = min(columns, n), the flat ``projected`` holds side (side + 1) / 2
    doubles, the lower triangle of the projected stiffness matrix basis' K basis
    row by row (row i, entries 0..i, from offset i (i + 1) / 2), so that bordering
    it appends rows to untouched pages, and the flat ``operand`` side^2 doubles,
    in which the projected eigensolve unpacks and solves it.

    ``_grow`` writes behind the basis and its projected rows in place, then
    replaces the Ritz data: ``basis`` (n x dim, the leading columns of
    ``data``), ``ritz_values`` (all dim eigenvalues, ascending), ``ritz_coeffs``
    (dim x last, the eigenvectors of values 1..last only: Ritz vector j, 1-based,
    is basis @ ritz_coeffs[:, j-1]) and the cluster block first..last:
    ``cluster_vectors`` U, ``mass_vectors`` M U and the ``residual`` block R, one
    column rho_i per cluster index.  Each is a new read-only array, so one that a
    caller holds keeps its bytes as the chain grows.
    """

    def __init__(self, cluster: ClusterSpec, pencil: fem.SparsePencil, config: SolverConfig,
                 need: int):
        n = pencil.n
        reserve = (cluster.last + config.max_iter * cluster.count if config.restart_dim is None
                   else config.restart_dim + cluster.count)
        columns = max(need, min(reserve, n + need, _admit_basis(n, need)))
        side = min(columns, n)
        self.cluster, self.pencil, self.config = cluster, pencil, config
        self.data = linalg.mapped_zeros(n, columns)
        self.projected = linalg.mapped_zeros(side * (side + 1) // 2, 1)[:, 0]
        self.operand = linalg.mapped_zeros(side * side, 1)[:, 0]
        empty = self.data[:, :0]
        self._hold(empty, np.empty(0), np.empty((0, 0)), empty, empty, empty)

    def _hold(self, basis, ritz_values, ritz_coeffs, cluster_vectors, mass_vectors, residual):
        """Replace the Ritz data by these arrays, made read-only."""
        for array in (basis, ritz_values, ritz_coeffs, cluster_vectors, mass_vectors, residual):
            array.flags.writeable = False
        self.basis, self.ritz_values, self.ritz_coeffs = basis, ritz_values, ritz_coeffs
        self.cluster_vectors, self.mass_vectors = cluster_vectors, mass_vectors
        self.residual = residual

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def cluster_values(self) -> np.ndarray:
        c = self.cluster
        return self.ritz_values[c.first - 1 : c.last].copy()


@dataclass(frozen=True)
class TraceRecord:
    """One row of the run history.

    ``stop_lower`` and ``stop_upper`` bound the stop norm on every row;
    ``stop_norm`` is the exact value where it was computed and NaN elsewhere.
    """

    iteration: int
    values: np.ndarray
    stop_norm: float
    stop_lower: float
    stop_upper: float
    value_drift: float
    basis_dim: int
    clamped_shifts: int
    ldlt_fallbacks: int
    wall_ms: float


@dataclass(eq=False)
class SolverReport:
    """Converged (or best-effort) cluster eigenpairs plus the run history.

    ``deflated_dim`` is the number of coarse eigenpairs the run's coarse
    piece retained; 0 means the preconditioner was one-level.
    """

    cluster: ClusterSpec
    values: np.ndarray
    vectors: np.ndarray
    iterations: int
    converged: bool
    stagnated: bool
    stop_norm: float
    deflated_dim: int
    trace: list = field(repr=False)
    timings: dict = field(repr=False)


def initialize(hier: MeshHierarchy, pencil: fem.SparsePencil, cluster: ClusterSpec,
               config: SolverConfig | None = None) -> IterationState:
    """Startup: eigensolve on the initialization mesh, lift, and project.

    The state starts a chain (with ``config``, by default ``SolverConfig()``);
    the eigenvectors, lifted by ``hier.fine_to_initial.T``, are written into
    the first columns of its ``data`` and orthonormalized there.  The
    startup's temporaries (the sparse factorization of the initialization
    pencil, the lifted block, the Gram-Schmidt blocks) outgrow those of any later iteration, so it ends by
    returning the heap they freed to the OS (``linalg.release_free_heap``).

    Raises, before the eigensolve, what ``_check_startup`` raises.
    """
    config = config or SolverConfig()
    _check_startup(hier, pencil, cluster, config)
    init_pencil = fem.assemble(hier.initial)
    init = linalg.lowest_eigenpairs(init_pencil.stiffness, init_pencil.mass, cluster.last)
    state = IterationState(cluster, pencil, config, cluster.last)
    block = state.data[:, :cluster.last]
    block[:] = hier.fine_to_initial.T @ init.vectors
    _grow(state, block)
    del init_pencil, init  # their heap is released too
    linalg.release_free_heap()
    return state


def _check_startup(hier: MeshHierarchy, pencil: fem.SparsePencil, cluster: ClusterSpec,
                   config: SolverConfig) -> None:
    """What a start-up needs, checked before anything is allocated.

    Raises InvalidArgumentError unless ``config.restart_dim`` is None or at
    least 2 last + 1 and ``pencil`` has the fine mesh's dofs,
    ClusterTooLargeError unless the initialization mesh has more dofs than
    ``cluster.last`` (the hierarchy must be coarsened less aggressively), and
    ProblemTooLargeError when the startup block does not fit in physical
    memory: three n x last blocks, the basis columns plus the C-ordered copy
    of them and the product that a sparse mass product makes.
    """
    last = cluster.last
    if config.restart_dim is not None and config.restart_dim < 2 * last + 1:
        raise InvalidArgumentError(
            f"restart dimension must be at least {2 * last + 1} for a cluster ending at {last}")
    if pencil.n != hier.fine.n_dofs:
        raise InvalidArgumentError(f"the pencil has {pencil.n} dofs, the fine mesh {hier.fine.n_dofs}")
    n_init = hier.initial.n_dofs
    if last >= n_init:
        raise ClusterTooLargeError(
            f"cluster needs {last} eigenpairs but the initialization mesh "
            f"has only {n_init} dofs; it must have more"
        )
    linalg.admit(f"the startup block, three blocks of {last} columns of {pencil.n} dofs,",
                 3 * 8 * pencil.n, last, "; a lower cluster end or fine level needs less")


def correction_step(state: IterationState, prec: schwarz.SchwarzPreconditioner) -> np.ndarray:
    """One preconditioned correction per cluster index, as columns.

    Each correction is the preconditioned residual projected mass-orthogonally
    off the current cluster Ritz vectors, so the trial subspace grows in new
    directions only.
    """
    R = state.residual
    S = np.column_stack([prec.apply(R[:, j], j) for j in range(state.cluster.count)])
    return S - state.cluster_vectors @ (state.mass_vectors.T @ S)


def rayleigh_ritz(state: IterationState, new_vectors: np.ndarray) -> IterationState:
    """Grow the basis of ``state`` in place by ``new_vectors``, re-solve the projected
    problem and return ``state``.

    Near-dependent columns are dropped during mass-orthonormalization; if all
    are dropped ``state`` is left as it was.  Ritz values of retained indices
    never increase (the subspaces are nested).
    """
    return _grow(state, new_vectors)


def stop_norm(residual: np.ndarray, solve_mass) -> float:
    """The stop norm of a residual block, with one block solve against M.

    Returns sqrt(sum_i rho_i' M^{-1} rho_i) over the columns rho_i of
    ``residual``, with M the matrix that the function ``solve_mass`` solves
    against: the Chebyshev solve of ``linalg.mass_chebyshev`` that ``iterate``
    uses, which agrees with an exact solve to about 1e-14 relative.  Raises
    InvalidArgumentError, before any solve, unless ``residual`` is 2-D.
    """
    if np.ndim(residual) != 2:
        raise InvalidArgumentError(f"a residual block (n, k) expected, got shape {np.shape(residual)}")
    X = solve_mass(residual)
    return float(np.sqrt(np.einsum("ij,ij->", residual, X)))


def stop_bounds(residual: np.ndarray, mass_diagonal: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on the stop norm of a residual block, from diag(M).

    With q = sum_i rho_i' D^{-1} rho_i over the columns rho_i of ``residual``
    and D = ``mass_diagonal``, returns (sqrt(q/2), sqrt(2q)), which bracket
    sqrt(sum_i rho_i' M^{-1} rho_i) for a P1 mass matrix M.  Raises
    InvalidArgumentError, before any arithmetic, unless ``residual`` is 2-D
    and ``mass_diagonal`` is 1-D with one entry per row of it.
    """
    if np.ndim(residual) != 2:
        raise InvalidArgumentError(f"a residual block (n, k) expected, got shape {np.shape(residual)}")
    if np.shape(mass_diagonal) != np.shape(residual)[:1]:
        raise InvalidArgumentError(f"a mass diagonal of shape ({np.shape(residual)[0]},) expected, "
                                   f"got shape {np.shape(mass_diagonal)}")
    lower, upper = linalg.MASS_BRACKET
    q = float(np.einsum("ij,ij->", residual, residual / mass_diagonal[:, None]))
    return float(np.sqrt(lower * q)), float(np.sqrt(upper * q))


def _thick_restart(state: IterationState, corrections) -> tuple[IterationState, np.ndarray]:
    """Start a new chain from Ritz vectors 1..last plus the newest corrections.

    The chain keeps the pencil and config of ``state``.  The Ritz vectors are
    formed straight into the first columns of its ``data``, by the product that
    ``linalg.basis_times`` forms, and the corrections are copied beside them.
    Returns the chain, still without basis columns, and that block, which
    ``_grow`` orthonormalizes in place.  ``state`` is no longer read, so a
    caller that drops it before the growth frees the old basis first.
    """
    last = state.cluster.last
    need = last + corrections.shape[1]
    new = IterationState(state.cluster, state.pencil, state.config, need)
    block = new.data[:, :need]
    np.matmul(state.ritz_coeffs.T, state.basis.T, out=block[:, :last].T)
    block[:, last:] = corrections
    return new, block


def _grow(state: IterationState, new_vectors) -> IterationState:
    """The Rayleigh-Ritz step: the one place a trial basis grows; returns ``state``.

    Mass-orthonormalizes the k columns of ``new_vectors`` against the basis,
    borders the projected stiffness matrix below its diagonal by the accepted
    columns, re-solves it and forms the cluster block U, M U and R.  Leaves
    ``state`` as it was when every column is dropped.

    The orthonormalization writes straight into ``state.data``, behind the
    basis, and the border into its packed ``projected`` rows, behind the
    projected matrix: new row dim + r is column r of basis' K accepted
    followed by entries 0..r of row r of the symmetrized corner.
    ``new_vectors`` may be those very columns, as the chain starts pass
    them.  Then the Ritz data are replaced by new read-only arrays.  Raises,
    writing nothing, InvalidArgumentError when ``new_vectors`` is not an
    (n, k) block or when the chain lacks room for k more columns
    (ProblemTooLargeError when dim + k columns, or their projected
    eigensolve, exceed physical memory), and EigensolverError, with the Ritz
    data unchanged, when the projected eigensolve fails.
    """
    pencil = state.pencil
    if np.ndim(new_vectors) != 2 or np.shape(new_vectors)[0] != pencil.n:
        raise InvalidArgumentError(f"a block of new vectors ({pencil.n}, k) expected, "
                                   f"got shape {np.shape(new_vectors)}")
    dim, k = state.dim, np.shape(new_vectors)[1]
    if state.data.shape[1] < dim + k:
        _admit_basis(pencil.n, dim + k)
        raise InvalidArgumentError(f"a basis of {dim} columns grown by {k} outgrows the "
                                   f"{state.data.shape[1]} columns reserved for its chain")
    out = state.data[:, dim:dim + k]
    if not np.shares_memory(out, new_vectors):
        np.copyto(out, new_vectors)
    accepted = linalg.b_orthonormalize(out, pencil.mass, state.basis)
    if accepted.shape[1] == 0:
        return state
    m = dim + accepted.shape[1]
    stiff_new = pencil.stiffness @ accepted
    cross = state.basis.T @ stiff_new
    corner = accepted.T @ stiff_new
    corner = 0.5 * (corner + corner.T)
    end = dim * (dim + 1) // 2
    for r in range(m - dim):  # row dim + r, behind the rows already written
        row = state.projected[end:end + dim + r + 1]
        row[:dim] = cross[:, r]
        row[dim:] = corner[r, :r + 1]
        end += dim + r + 1
    eig = linalg.dense_symmetric_eig(state.projected[:end], state.operand)

    basis = state.data[:, :m]
    c = state.cluster
    coeffs = np.array(eig.vectors[:, :c.last], order="C")  # row-major, as basis_times wants
    U = linalg.basis_times(basis, coeffs[:, c.first - 1 :])
    MU = pencil.mass @ U
    R = eig.values[c.first - 1 : c.last] * MU - pencil.stiffness @ U
    state._hold(basis, eig.values, coeffs, U, MU, R)
    return state


def iterate(hier: MeshHierarchy, pencil: fem.SparsePencil, decomp: Decomposition, cluster: ClusterSpec,
            config: SolverConfig) -> Generator[tuple[IterationState, TraceRecord], None, SolverReport]:
    """Run the full iteration until the stop norm falls below the tolerance.

    Each state, from the startup state on, gets one stop test and one trace
    row.  The test bounds the stop norm by the mass diagonal and computes the
    exact norm (``stop_norm``, one Chebyshev block solve with M) only when
    the lower bound is below the tolerance or the row is the run's last, so
    only an exact norm ends the run and ``SolverReport.stop_norm`` is always
    exact.  Each state is then yielded with its row, as ``(state, record)``;
    it is the chain, which the next step grows in place, so a caller that
    holds one across a thick restart keeps the old basis alive.

    Returns a report flagged non-converged when ``max_iter`` is exhausted and
    stagnated when Rayleigh-Ritz accepts no new column in three consecutive
    iterations; partial results are returned either way.  The pre-flight
    runs before any eigensolve: ``_check_startup`` (the restart dimension,
    the pencil, the cluster end and the startup block), then ``LocalBlocks``
    (InvalidArgumentError unless ``decomp`` covers the fine mesh and holds
    no other dof), then
    ``build_coarse_piece``, whose ProblemTooLargeError comes before its
    coarse eigensolve.  Later a trial basis or its projected eigensolve may
    outgrow physical memory (ProblemTooLargeError), and a projected
    eigensolve may fail (EigensolverError).
    """
    _check_startup(hier, pencil, cluster, config)
    timings: dict[str, float] = {}

    def clocked(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
        return out

    # before any eigensolve, so that a decomposition that misfits the fine mesh fails first
    blocks = clocked("local_blocks", schwarz.LocalBlocks, hier.fine, decomp)
    mass_solver = linalg.mass_chebyshev(pencil.mass)
    # The coarse piece comes before the startup: built after it, the peak RSS of the
    # lshape-many-small benchmark (L-shape 4/6, cluster 41..43) rose from 95.1/94.9
    # to 100.0/100.4 MiB in two 4-second runs per order on a 2-core Xeon.
    coarse = clocked("coarse_setup", schwarz.build_coarse_piece, hier, cluster.last)
    state = clocked("initialize", initialize, hier, pencil, cluster, config)

    mass_diagonal = pencil.mass.diagonal()

    trace: list[TraceRecord] = []
    wall_start = time.perf_counter()
    values = state.cluster_values()
    drift, clamped, fallbacks, stalls = 0.0, 0, 0, 0
    for k in range(config.max_iter + 1):
        lower, upper = clocked("stop_bound", stop_bounds, state.residual, mass_diagonal)
        last_row = k == config.max_iter or stalls >= 3
        sn = np.nan
        if last_row or lower < config.tol * (1.0 + _GATE_MARGIN):
            sn = clocked("stop_norm", stop_norm, state.residual, mass_solver)
        trace.append(TraceRecord(
            iteration=k, values=values.copy(), stop_norm=sn, stop_lower=lower,
            stop_upper=upper, value_drift=drift, basis_dim=state.dim, clamped_shifts=clamped,
            ldlt_fallbacks=fallbacks, wall_ms=(time.perf_counter() - wall_start) * 1e3,
        ))
        yield state, trace[-1]
        if sn < config.tol or last_row:
            break
        prec = clocked("prepare", schwarz.prepare, blocks, coarse, values)
        corrections = clocked("correction", correction_step, state, prec)
        prev_values, prev_dim = values, state.dim
        state = clocked("rayleigh_ritz", rayleigh_ritz, state, corrections)
        stalls = 0 if state.dim > prev_dim else stalls + 1
        if config.restart_dim is not None and state.dim > config.restart_dim:
            # Rebinding state drops the old chain, so its basis is unmapped
            # before the new block grows; the corrections are in the block.
            state, block = clocked("restart", _thick_restart, state, corrections)
            del corrections
            state = clocked("restart", _grow, state, block)
        values = state.cluster_values()
        drift = float(np.sum(np.abs(values - prev_values)))
        clamped, fallbacks = prec.clamped_shifts, prec.ldlt_fallbacks

    converged = sn < config.tol
    return SolverReport(
        cluster=cluster,
        values=values,
        vectors=state.cluster_vectors.copy(),  # writable, unlike the state's block
        iterations=k,
        converged=converged,
        stagnated=not converged and stalls >= 3,
        stop_norm=sn,
        deflated_dim=coarse.deflated_dim,
        trace=trace,
        timings=timings,
    )


def solve(hier: MeshHierarchy, pencil: fem.SparsePencil, decomp: Decomposition,
          cluster: ClusterSpec, config: SolverConfig) -> SolverReport:
    """Run ``iterate`` to its end and return its report, holding none of its states."""
    run = iterate(hier, pencil, decomp, cluster, config)
    try:
        while True:
            next(run)
    except StopIteration as end:
        return end.value
