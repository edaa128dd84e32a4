"""Block Jacobi-Davidson iteration with a two-level additive Schwarz preconditioner.

The solver targets the eigenvalue cluster with 1-based indices
first..last of the fine discrete pencil.  Startup solves the pencil on the
initialization mesh (one refinement below the coarse mesh) for its lowest
``last`` eigenpairs, densely up to ``linalg.DENSE_LIMIT`` dofs and by
sparse shift-invert Lanczos above it, interpolates the eigenvectors to the
fine mesh, and Rayleigh-Ritz projects there; by nestedness the starting
values coincide with the initialization-mesh eigenvalues.  Each outer
iteration then

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
     (Wathen 1987), so with q = sum_i rho_i' D^{-1} rho_i the stop norm
     lies in [sqrt(q/2), sqrt(2q)].  The exact norm, one sparse solve with
     M, is computed only when the lower bound is below the tolerance, and
     once at the end of a run that stops unconverged; convergence is
     declared from the exact norm alone.

One private routine, ``_grow``, is the only Rayleigh-Ritz step: it
mass-orthonormalizes new vectors against the trial basis, borders the
projected stiffness matrix by the accepted columns and solves the small
eigenproblem.  It also forms, once per state, the cluster Ritz vectors U,
their mass images M U and the residual block R = lam M U - K U, whose
columns are the rho_i; the stop bounds, the exact stop norm and the next
correction all read that block.  Startup grows an empty basis by the
lifted vectors, each outer iteration grows the current basis by its
corrections, and the optional thick restart (``restart_dim``) grows an
empty basis by Ritz vectors 1..last and the newest corrections.

Iteration states are immutable; every step returns a new one.  A state's
basis is a read-only view of the leading columns of a Fortran-ordered
buffer that a chain of states shares: growing the newest state on a buffer
writes the accepted columns in place behind the views the older states
hold, and any other growth copies into a new buffer of doubled capacity.
The basis takes 8 n dim bytes; a buffer that would exceed physical memory
raises ProblemTooLargeError before it is allocated.

Ritz values decrease monotonically and never fall below the fine discrete
eigenvalues; the per-iteration value drift (the sum of absolute Ritz value
changes), the basis dimension, the number of shifts clamped in step 1 and
the number of local factorizations of step 1 that fell back from Cholesky
to LDL^T are recorded in the trace alongside the stop norm bounds and,
where it was computed, the exact stop norm.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, linalg, schwarz
from .errors import ClusterTooLargeError, InvalidArgumentError, ProblemTooLargeError
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
    "solve",
]

_DROP_TOL = 1e-8  # basis-growth drop tolerance for near-dependent corrections

# Wathen's P1 element bounds 1/2 D_e <= M_e <= 2 D_e, summed over the elements:
# _MASS_LOWER r'D^{-1}r <= r'M^{-1}r <= _MASS_UPPER r'D^{-1}r for D = diag(M).
_MASS_LOWER = 0.5
_MASS_UPPER = 2.0
# Relative margin of the exact-solve gate against rounding in the lower bound.
_GATE_MARGIN = 1e-12

# Bytes a basis buffer may take: the machine's physical memory.
_MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class ClusterSpec:
    """Targeted 1-based eigenvalue indices first..last (inclusive): the cluster m..M."""

    first: int
    last: int

    def __post_init__(self):
        if not 1 <= self.first <= self.last:
            raise InvalidArgumentError(
                f"need 1 <= m <= M, got m={self.first}, M={self.last}"
            )

    @property
    def count(self) -> int:
        return self.last - self.first + 1


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200
    restart_dim: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise InvalidArgumentError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be >= 1, got {self.max_iter}")


class _BasisBuffer:
    """Column storage shared by a chain of states; columns [0, filled) are written."""

    def __init__(self, n: int, capacity: int):
        need = 8 * n * capacity
        if need > _MEMORY_BUDGET:
            raise ProblemTooLargeError(
                f"a trial basis of {capacity} columns of {n} dofs needs "
                f"{need / 2**30:.1f} GiB, more than the {_MEMORY_BUDGET / 2**30:.1f} GiB "
                f"of physical memory; bound the basis with --restart-dim"
            )
        self.data = np.empty((n, capacity), order="F")
        self.filled = 0


@dataclass(frozen=True, eq=False)
class IterationState:
    """Mass-orthonormal trial basis with its projected pencil and Ritz data.

    ``basis`` spans the trial subspace (n x dim), normally a view of the
    leading columns of a buffer that later states may extend in place;
    ``projected`` is the projected stiffness basis' K basis, and
    ``ritz_values``/``ritz_coeffs`` its full eigendecomposition.  Ritz
    vector j (1-based) is basis @ ritz_coeffs[:, j-1].  The Rayleigh-Ritz
    step forms the cluster block first..last once: ``cluster_vectors`` U,
    ``mass_vectors`` M U and the ``residual`` block R, one column rho_i per
    cluster index.  All four n-row arrays are read-only.  States are never
    modified; each step returns a new one.
    """

    cluster: ClusterSpec
    basis: np.ndarray
    projected: np.ndarray
    ritz_values: np.ndarray
    ritz_coeffs: np.ndarray
    cluster_vectors: np.ndarray
    mass_vectors: np.ndarray
    residual: np.ndarray
    iteration: int = 0
    _buffer: _BasisBuffer | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("basis", "cluster_vectors", "mass_vectors", "residual"):
            array = getattr(self, name)
            if array.flags.writeable:  # a read-only view; a basis buffer stays writable
                view = array.view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def ritz_block(self, first: int, last: int) -> np.ndarray:
        """Ritz vectors with 1-based indices first..last as columns."""
        return linalg.basis_times(self.basis, self.ritz_coeffs[:, first - 1 : last])

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
    """Converged (or best-effort) cluster eigenpairs plus the run history."""

    cluster: ClusterSpec
    values: np.ndarray
    vectors: np.ndarray
    iterations: int
    converged: bool
    stagnated: bool
    stop_norm: float
    trace: list = field(repr=False)
    timings: dict = field(repr=False)


def initialize(hier: MeshHierarchy, pencil: fem.SparsePencil, cluster: ClusterSpec) -> IterationState:
    """Startup: eigensolve on the initialization mesh, lift, and project.

    Raises ClusterTooLargeError unless the initialization mesh has more dofs
    than ``cluster.last`` (the hierarchy must be coarsened less aggressively).
    """
    n_init = hier.initial.n_dofs
    if cluster.last >= n_init:
        raise ClusterTooLargeError(
            f"cluster needs {cluster.last} eigenpairs but the initialization mesh "
            f"has only {n_init} dofs; it must have more"
        )
    init_pencil = fem.assemble(hier.initial)
    init = linalg.lowest_eigenpairs(init_pencil.stiffness, init_pencil.mass, cluster.last)
    lifted = hier.initial_to_fine @ init.vectors
    return _grow(_empty_state(cluster, pencil.n), lifted, pencil, 0)


def correction_step(state: IterationState, prec: schwarz.SchwarzPreconditioner) -> np.ndarray:
    """One preconditioned correction per cluster index, as columns.

    Each correction is the preconditioned residual projected mass-orthogonally
    off the current cluster Ritz vectors, so the trial subspace grows in new
    directions only.
    """
    R = state.residual
    S = np.column_stack([prec.apply(R[:, j], j) for j in range(state.cluster.count)])
    return S - state.cluster_vectors @ (state.mass_vectors.T @ S)


def rayleigh_ritz(state: IterationState, new_vectors: np.ndarray,
                  pencil: fem.SparsePencil) -> IterationState:
    """Grow the basis by ``new_vectors`` and re-solve the projected problem.

    Near-dependent columns are dropped during mass-orthonormalization; if all
    are dropped the state is returned unchanged except for the iteration
    counter.  Ritz values of retained indices never increase (the subspaces
    are nested).
    """
    return _grow(state, new_vectors, pencil, state.iteration + 1)


def stop_norm(residual: np.ndarray, mass_factorization: linalg.Factorization) -> float:
    """The stop norm of a residual block, with exact sparse solves.

    Returns sqrt(sum_i rho_i' M^{-1} rho_i) over the columns rho_i of
    ``residual``, with M the matrix that ``mass_factorization`` factorizes.
    """
    X = mass_factorization.solve(residual)
    return float(np.sqrt(np.einsum("ij,ij->", residual, X)))


def stop_bounds(residual: np.ndarray, mass_diagonal: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on the stop norm of a residual block, from diag(M).

    With q = sum_i rho_i' D^{-1} rho_i over the columns rho_i of ``residual``
    and D = ``mass_diagonal``, returns (sqrt(q/2), sqrt(2q)), which bracket
    sqrt(sum_i rho_i' M^{-1} rho_i) for a P1 mass matrix M.
    """
    q = float(np.einsum("ij,ij->", residual, residual / mass_diagonal[:, None]))
    return float(np.sqrt(_MASS_LOWER * q)), float(np.sqrt(_MASS_UPPER * q))


def _thick_restart(state: IterationState, corrections: np.ndarray,
                   pencil: fem.SparsePencil) -> IterationState:
    """Compact the basis to Ritz vectors 1..last plus the newest corrections."""
    kept = np.hstack([state.ritz_block(1, state.cluster.last), corrections])
    return _grow(_empty_state(state.cluster, pencil.n), kept, pencil, state.iteration)


def _empty_state(cluster: ClusterSpec, n: int) -> IterationState:
    empty = np.empty((n, 0))
    return IterationState(cluster, empty, np.empty((0, 0)), np.empty(0), np.empty((0, 0)),
                          empty, empty, empty)


def _grow(state: IterationState, new_vectors, pencil: fem.SparsePencil,
          iteration: int) -> IterationState:
    """The Rayleigh-Ritz step: the one place the trial basis grows.

    Mass-orthonormalizes ``new_vectors`` against the basis, borders the
    projected stiffness matrix by the accepted columns, re-solves it and
    forms the cluster block U, M U and R of the new state.
    Returns ``state`` with ``iteration`` when every column is dropped.

    The accepted columns are written in place behind the basis when
    ``state`` is the newest state on its buffer and the buffer has room;
    otherwise the basis and the accepted columns are copied into a new
    buffer of twice the needed capacity.  No existing state's basis changes.
    """
    accepted = linalg.b_orthonormalize(new_vectors, pencil.mass, _DROP_TOL, against=state.basis)
    if accepted.shape[1] == 0:
        return replace(state, iteration=iteration)
    stiff_new = pencil.stiffness @ accepted
    cross = state.basis.T @ stiff_new
    corner = accepted.T @ stiff_new
    corner = 0.5 * (corner + corner.T)
    projected = np.block([[state.projected, cross], [cross.T, corner]])
    values, coeffs = np.linalg.eigh(projected)

    dim, dim_new = state.dim, state.dim + accepted.shape[1]
    buffer = state._buffer
    if buffer is None or buffer.filled != dim or buffer.data.shape[1] < dim_new:
        buffer = _BasisBuffer(pencil.n, 2 * dim_new)
        buffer.data[:, :dim] = state.basis
    buffer.data[:, dim:dim_new] = accepted
    buffer.filled = dim_new
    basis = buffer.data[:, :dim_new]

    c = state.cluster
    U = linalg.basis_times(basis, coeffs[:, c.first - 1 : c.last])
    MU = pencil.mass @ U
    R = values[c.first - 1 : c.last] * MU - pencil.stiffness @ U
    return IterationState(c, basis, projected, values, coeffs, U, MU, R, iteration, buffer)


def solve(hier: MeshHierarchy, pencil: fem.SparsePencil, decomp: Decomposition,
          cluster: ClusterSpec, config: SolverConfig) -> SolverReport:
    """Run the full iteration until the stop norm falls below the tolerance.

    Every iteration bounds the stop norm by the mass diagonal; the exact
    norm (``stop_norm``, one solve with M) is computed only when the lower
    bound is below the tolerance, so only an exact norm ends the run.  A
    run that stops unconverged computes it once more for its last row, so
    ``SolverReport.stop_norm`` is always exact.

    Returns a report flagged non-converged when ``max_iter`` is exhausted and
    stagnated when Rayleigh-Ritz accepts no new column in three consecutive
    iterations; partial results are returned either way.  Raises
    ProblemTooLargeError when the trial basis would outgrow physical memory.
    """
    if config.restart_dim is not None and config.restart_dim < 2 * cluster.last + 1:
        raise InvalidArgumentError(
            f"restart dimension must be at least {2 * cluster.last + 1} "
            f"for a cluster ending at {cluster.last}"
        )
    timings: dict[str, float] = {}

    def clocked(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
        return out

    mass_fact = clocked("mass_factorization", linalg.factorize, pencil.mass, True)
    state = clocked("initialize", initialize, hier, pencil, cluster)
    coarse = clocked("coarse_setup", schwarz.build_coarse_piece, hier, cluster.last)
    blocks = clocked("local_blocks", schwarz.LocalBlocks, pencil, decomp)

    mass_diagonal = pencil.mass.diagonal()

    trace: list[TraceRecord] = []
    wall_start = time.perf_counter()

    def stop_test(k, state, values, drift, clamped, fallbacks):
        """Bound the stop norm, solve for it only near the tolerance, and trace row k.

        Returns the exact stop norm, or NaN where the lower bound rules out
        convergence.
        """
        lower, upper = clocked("stop_bound", stop_bounds, state.residual, mass_diagonal)
        sn = np.nan
        if lower < config.tol * (1.0 + _GATE_MARGIN):
            sn = clocked("stop_norm", stop_norm, state.residual, mass_fact)
        trace.append(TraceRecord(
            iteration=k, values=values.copy(), stop_norm=sn, stop_lower=lower,
            stop_upper=upper, value_drift=drift, basis_dim=state.dim, clamped_shifts=clamped,
            ldlt_fallbacks=fallbacks, wall_ms=(time.perf_counter() - wall_start) * 1e3,
        ))
        return sn

    values = state.cluster_values()
    sn = stop_test(0, state, values, 0.0, 0, 0)

    converged = sn < config.tol
    stagnated = False
    stalls = 0
    k = 0
    while not converged and not stagnated and k < config.max_iter:
        prec = clocked("prepare", schwarz.prepare, blocks, coarse, values)
        corrections = clocked("correction", correction_step, state, prec)
        prev_values, prev_dim = values, state.dim
        state = clocked("rayleigh_ritz", rayleigh_ritz, state, corrections, pencil)
        grew = state.dim > prev_dim
        if config.restart_dim is not None and state.dim > config.restart_dim:
            state = clocked("restart", _thick_restart, state, corrections, pencil)
        k += 1
        values = state.cluster_values()
        sn = stop_test(k, state, values, float(np.sum(np.abs(values - prev_values))),
                         prec.clamped_shifts, prec.ldlt_fallbacks)
        if sn < config.tol:
            converged = True
        elif not grew:
            stalls += 1
            stagnated = stalls >= 3
        else:
            stalls = 0

    if np.isnan(sn):  # an unconverged run still reports its exact stop norm
        sn = clocked("stop_norm", stop_norm, state.residual, mass_fact)
        trace[-1] = replace(trace[-1], stop_norm=sn)

    return SolverReport(
        cluster=cluster,
        values=values,
        vectors=state.cluster_vectors.copy(),  # writable, unlike the state's block
        iterations=k,
        converged=converged,
        stagnated=stagnated,
        stop_norm=sn,
        trace=trace,
        timings=timings,
    )
