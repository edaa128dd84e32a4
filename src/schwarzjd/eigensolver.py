"""Block Jacobi-Davidson iteration with a two-level additive Schwarz preconditioner.

The solver targets the eigenvalue cluster with 1-based indices
first..last of the fine discrete pencil.  Startup solves the pencil on the
initialization mesh (one refinement below the coarse mesh) for its lowest
``last`` eigenpairs, densely up to ``linalg.DENSE_LIMIT`` dofs and by
sparse shift-invert Lanczos above it, interpolates the eigenvectors to the
fine mesh, and Rayleigh-Ritz projects there; by nestedness the starting
values coincide with the initialization-mesh eigenvalues.  Each outer
iteration then

  1. refreshes the preconditioner with the current cluster Ritz values as
     shifts (clamped below the first retained coarse eigenvalue),
  2. solves one preconditioned correction per cluster index,
     t_i = (I - Q) B_i^{-1} rho_i, with Q the mass-orthogonal projector
     onto the current cluster Ritz vectors,
  3. grows the trial basis by the corrections and solves the projected
     eigenvalue problem,
  4. stops when the stop norm sqrt(sum_i rho_i' M^{-1} rho_i) falls below
     the tolerance.

One private routine, ``_grow``, is the only Rayleigh-Ritz step: it
mass-orthonormalizes new vectors against the trial basis, borders the
projected stiffness matrix by the accepted columns and solves the small
eigenproblem.  Startup grows an empty basis by the lifted vectors, each
outer iteration grows the current basis by its corrections, and the
optional thick restart (``restart_dim``) grows an empty basis by Ritz
vectors 1..last and the newest corrections.  Iteration states are
immutable; every step returns a new one.

Ritz values decrease monotonically and never fall below the fine discrete
eigenvalues; the per-iteration value drift (the sum of absolute Ritz value
changes), the basis dimension and the number of shifts clamped in step 1
are recorded in the trace alongside the stop norm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, linalg, schwarz
from .errors import ClusterTooLargeError, InvalidArgumentError
from .mesh import Decomposition, MeshHierarchy

__all__ = [
    "ClusterSpec",
    "SolverConfig",
    "IterationState",
    "TraceRecord",
    "SolverReport",
    "initialize",
    "residual_dual",
    "correction_step",
    "rayleigh_ritz",
    "stop_norm",
    "solve",
]

_DROP_TOL = 1e-8  # basis-growth drop tolerance for near-dependent corrections


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
    shared_shift: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidArgumentError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class IterationState:
    """Mass-orthonormal trial basis with its projected pencil and Ritz data.

    ``basis`` spans the trial subspace (n x dim), ``projected`` is the
    projected stiffness basis' K basis, and ``ritz_values``/``ritz_coeffs``
    its full eigendecomposition.  Ritz vector j (1-based) is
    basis @ ritz_coeffs[:, j-1]; the cluster block first..last drives the
    corrections.  States are never modified; each step returns a new one.
    """

    cluster: ClusterSpec
    basis: np.ndarray
    basis_mass: np.ndarray
    projected: np.ndarray
    ritz_values: np.ndarray
    ritz_coeffs: np.ndarray
    iteration: int = 0

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def ritz_block(self, first: int, last: int) -> np.ndarray:
        """Ritz vectors with 1-based indices first..last as columns."""
        return self.basis @ self.ritz_coeffs[:, first - 1 : last]

    def cluster_values(self) -> np.ndarray:
        c = self.cluster
        return self.ritz_values[c.first - 1 : c.last].copy()

    def cluster_vectors(self) -> np.ndarray:
        c = self.cluster
        return self.ritz_block(c.first, c.last)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    values: np.ndarray
    stop_norm: float
    value_drift: float
    basis_dim: int
    clamped_shifts: int
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
    subdomain_count: int = 0


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


def residual_dual(pencil: fem.SparsePencil, lam: float, u: np.ndarray) -> np.ndarray:
    """Residual of the pair (lam, u) in dual form: lam * M u - K u.

    For a block u of k columns, lam may hold one value per column.
    """
    return lam * (pencil.mass @ u) - pencil.stiffness @ u


def correction_step(state: IterationState, prec: schwarz.SchwarzPreconditioner,
                    pencil: fem.SparsePencil) -> np.ndarray:
    """One preconditioned correction per cluster index, as columns.

    Each correction is the preconditioned residual projected mass-orthogonally
    off the current cluster Ritz vectors, so the trial subspace grows in new
    directions only.
    """
    c = state.cluster
    U = state.cluster_vectors()
    MU = pencil.mass @ U
    R = residual_dual(pencil, state.ritz_values[c.first - 1 : c.last], U)
    T = np.empty_like(U)
    for j in range(c.count):
        s = prec.apply(R[:, j], j if prec.shift_count > 1 else 0)
        T[:, j] = s - U @ (MU.T @ s)
    return T


def rayleigh_ritz(state: IterationState, new_vectors: np.ndarray,
                  pencil: fem.SparsePencil) -> IterationState:
    """Grow the basis by ``new_vectors`` and re-solve the projected problem.

    Near-dependent columns are dropped during mass-orthonormalization; if all
    are dropped the state is returned unchanged except for the iteration
    counter.  Ritz values of retained indices never increase (the subspaces
    are nested).
    """
    return _grow(state, new_vectors, pencil, state.iteration + 1)


def stop_norm(pencil: fem.SparsePencil, values: np.ndarray, vectors: np.ndarray,
              mass_factorization: linalg.Factorization) -> float:
    """Root of the summed squared mass-norms of the cluster residuals.

    Computes sqrt(sum_i rho_i' M^{-1} rho_i) with exact sparse solves, where
    rho_i = lam_i M u_i - K u_i.
    """
    R = residual_dual(pencil, np.asarray(values), vectors)
    X = mass_factorization.solve(R)
    return float(np.sqrt(np.einsum("ij,ij->", R, X)))


def _thick_restart(state: IterationState, corrections: np.ndarray,
                   pencil: fem.SparsePencil) -> IterationState:
    """Compact the basis to Ritz vectors 1..last plus the newest corrections."""
    kept = np.hstack([state.ritz_block(1, state.cluster.last), corrections])
    return _grow(_empty_state(state.cluster, pencil.n), kept, pencil, state.iteration)


def _empty_state(cluster: ClusterSpec, n: int) -> IterationState:
    return IterationState(cluster, np.empty((n, 0)), np.empty((n, 0)), np.empty((0, 0)),
                          np.empty(0), np.empty((0, 0)))


def _grow(state: IterationState, new_vectors, pencil: fem.SparsePencil,
          iteration: int) -> IterationState:
    """The Rayleigh-Ritz step: the one place the trial basis grows.

    Mass-orthonormalizes ``new_vectors`` against the basis, borders the
    projected stiffness matrix by the accepted columns and re-solves it.
    Returns ``state`` with ``iteration`` when every column is dropped.
    """
    accepted = linalg.b_orthonormalize(
        new_vectors, pencil.mass, _DROP_TOL,
        against=state.basis, against_mass=state.basis_mass,
    )
    if accepted.shape[1] == 0:
        return replace(state, iteration=iteration)
    stiff_new = pencil.stiffness @ accepted
    cross = state.basis.T @ stiff_new
    corner = accepted.T @ stiff_new
    corner = 0.5 * (corner + corner.T)
    projected = np.block([[state.projected, cross], [cross.T, corner]])
    values, coeffs = np.linalg.eigh(projected)
    return IterationState(
        state.cluster,
        np.hstack([state.basis, accepted]),
        np.hstack([state.basis_mass, pencil.mass @ accepted]),
        projected, values, coeffs, iteration,
    )


def solve(hier: MeshHierarchy, pencil: fem.SparsePencil, decomp: Decomposition,
          cluster: ClusterSpec, config: SolverConfig) -> SolverReport:
    """Run the full iteration until the stop norm falls below the tolerance.

    Returns a report flagged non-converged when ``max_iter`` is exhausted and
    stagnated when the basis stops growing while the stop norm stalls for
    three consecutive iterations; partial results are returned either way.
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
    shift_cap = None
    if coarse.deflated_dim > 0:
        shift_cap = float(coarse.values[cluster.last]) * (1.0 - 1e-8)

    trace: list[TraceRecord] = []
    wall_start = time.perf_counter()

    def record(k, values, sn, drift, dim, clamped):
        trace.append(TraceRecord(
            iteration=k, values=values.copy(), stop_norm=sn, value_drift=drift,
            basis_dim=dim, clamped_shifts=clamped,
            wall_ms=(time.perf_counter() - wall_start) * 1e3,
        ))

    vectors = state.cluster_vectors()
    values = state.cluster_values()
    sn = clocked("stop_norm", stop_norm, pencil, values, vectors, mass_fact)
    record(0, values, sn, 0.0, state.dim, 0)

    converged = sn < config.tol
    stagnated = False
    prec = None
    stalls = 0
    k = 0
    while not converged and not stagnated and k < config.max_iter:
        shifts = values[:1] if config.shared_shift else values
        clamped = 0
        if shift_cap is not None:
            clamped = int(np.count_nonzero(shifts > shift_cap))
            shifts = np.minimum(shifts, shift_cap)
        prec = clocked("prepare", schwarz.prepare, pencil, decomp, coarse, shifts, reuse=prec)
        corrections = clocked("correction", correction_step, state, prec, pencil)
        prev_values, prev_dim = values, state.dim
        state = clocked("rayleigh_ritz", rayleigh_ritz, state, corrections, pencil)
        if config.restart_dim is not None and state.dim > config.restart_dim:
            state = clocked("restart", _thick_restart, state, corrections, pencil)
        k += 1
        values = state.cluster_values()
        vectors = state.cluster_vectors()
        sn = clocked("stop_norm", stop_norm, pencil, values, vectors, mass_fact)
        record(k, values, sn, float(np.sum(np.abs(values - prev_values))), state.dim, clamped)
        if sn < config.tol:
            converged = True
        elif state.dim == prev_dim:
            stalls += 1
            stagnated = stalls >= 3
        else:
            stalls = 0

    return SolverReport(
        cluster=cluster,
        values=values,
        vectors=vectors,
        iterations=k,
        converged=converged,
        stagnated=stagnated,
        stop_norm=sn,
        trace=trace,
        timings=timings,
        subdomain_count=decomp.n_subdomains,
    )
