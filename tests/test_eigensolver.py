import dataclasses
import functools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd import eigensolver, linalg, schwarz
from schwarzjd.eigensolver import (
    ClusterSpec,
    SolverConfig,
    _grow,
    _start_chain,
    _thick_restart,
    correction_step,
    initialize,
    rayleigh_ritz,
    solve,
    stop_bounds,
    stop_norm,
)
from schwarzjd.errors import (
    ClusterTooLargeError,
    EigensolverError,
    InvalidArgumentError,
    ProblemTooLargeError,
)
from schwarzjd.fem import assemble
from schwarzjd.linalg import factorize, mass_chebyshev
from schwarzjd.mesh import (
    Decomposition,
    DomainShape,
    build_decomposition,
    build_hierarchy,
    build_mesh,
)
from schwarzjd.schwarz import LocalBlocks, build_coarse_piece, prepare

from .helpers import dense_discrete_spectrum, dense_preconditioner


@pytest.fixture(scope="module")
def small():
    """Square hierarchy (2, 4): 225 fine dofs, 16 subdomains."""
    hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    return hier, pencil, decomp


@pytest.fixture(scope="module")
def medium_run():
    """Converging run on square (3, 5), cluster (5, 8), full trace kept."""
    hier = build_hierarchy(DomainShape.SQUARE, 3, 5)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    cluster = ClusterSpec(5, 8)
    report = solve(hier, pencil, decomp, cluster, SolverConfig(tol=1e-8, max_iter=60))
    oracle = dense_discrete_spectrum(pencil, 12)
    return pencil, report, oracle


class TestClusterAndConfig:
    def test_cluster_validation(self):
        with pytest.raises(InvalidArgumentError):
            ClusterSpec(0, 3)
        with pytest.raises(InvalidArgumentError):
            ClusterSpec(5, 4)
        assert ClusterSpec(2, 6).count == 5

    def test_config_validation(self):
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidArgumentError, match="positive and finite"):
                SolverConfig(tol=tol)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("make, value", [
        (lambda: ClusterSpec(2.0, 4.0), "2.0"),
        (lambda: ClusterSpec(2, 4.0), "4.0"),
        (lambda: ClusterSpec(True, True), "True"),
        (lambda: SolverConfig(max_iter=2.5), "2.5"),
        (lambda: SolverConfig(max_iter=2.0), "2.0"),
        (lambda: SolverConfig(max_iter=True), "True"),
        (lambda: SolverConfig(restart_dim=9.5), "9.5"),
        (lambda: SolverConfig(restart_dim=True), "True"),
        (lambda: SolverConfig(tol=True), "True"),
        (lambda: SolverConfig(tol="1e-8"), "'1e-8'"),
    ], ids=["cluster-floats", "cluster-last-float", "cluster-bools", "max-iter-fraction",
            "max-iter-float", "max-iter-bool", "restart-dim-fraction", "restart-dim-bool",
            "tol-bool", "tol-string"])
    def test_non_integer_rejected_up_front(self, make, value):
        # A bool is an int in Python, but not a count or a tolerance here.
        with pytest.raises(InvalidArgumentError, match=rf"(integer|number).*{re.escape(value)}"):
            make()

    @pytest.mark.parametrize("name, value", [("max_iter", 2.5), ("tol", "1e-8")],
                             ids=["max-iter-fraction", "tol-string"])
    def test_config_fields_cannot_be_reassigned(self, name, value):
        # a run reads its config at startup and again at each thick restart
        config = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert config == SolverConfig()

    def test_numpy_integers_accepted(self):
        assert ClusterSpec(np.int64(2), np.int32(4)).count == 3
        assert SolverConfig(max_iter=np.int64(3), restart_dim=np.int64(9)).max_iter == 3

    def test_restart_dim_checked_against_cluster(self, small):
        hier, pencil, decomp = small
        with pytest.raises(InvalidArgumentError):
            solve(hier, pencil, decomp, ClusterSpec(1, 4),
                  SolverConfig(restart_dim=5))


class TestInitialize:
    def test_values_equal_initialization_mesh_eigenvalues(self, small):
        hier, pencil, _ = small
        cluster = ClusterSpec(1, 4)
        state = initialize(hier, pencil, cluster)
        init_pencil = assemble(hier.initial)
        vals = sla.eigh(init_pencil.stiffness.toarray(), init_pencil.mass.toarray(),
                        eigvals_only=True, subset_by_index=(0, 3))
        assert np.allclose(state.ritz_values[:4], vals, rtol=1e-9)
        assert state.dim == 4

    def test_lshape_initialization_matches_published_values(self):
        hier = build_hierarchy(DomainShape.LSHAPE, 3, 5)
        pencil = assemble(hier.fine)
        state = initialize(hier, pencil, ClusterSpec(41, 47))
        assert hier.initial.n_dofs == 705
        assert state.ritz_values[40] == pytest.approx(22.729142, abs=5e-6)
        assert state.ritz_values[46] == pytest.approx(26.245603, abs=5e-6)

    def test_basis_is_mass_orthonormal(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 6))
        G = state.basis.T @ (pencil.mass @ state.basis)
        assert np.abs(G - np.eye(state.dim)).max() <= 1e-10

    def test_cluster_too_large_for_initial_mesh(self):
        hier = build_hierarchy(DomainShape.SQUARE, 1, 3)
        pencil = assemble(hier.fine)
        with pytest.raises(ClusterTooLargeError):
            initialize(hier, pencil, ClusterSpec(1, 10))  # initial mesh has 9 dofs

    def test_cluster_as_large_as_initial_mesh_rejected(self):
        hier = build_hierarchy(DomainShape.SQUARE, 1, 3)
        pencil = assemble(hier.fine)
        with pytest.raises(ClusterTooLargeError):
            initialize(hier, pencil, ClusterSpec(1, 9))

    def test_pencil_of_another_mesh_rejected_before_the_eigensolve(self, small, monkeypatch):
        hier, _, _ = small
        eigensolves = []
        monkeypatch.setattr(linalg, "lowest_eigenpairs", lambda *a: eigensolves.append(a))
        pencil = assemble(build_mesh(DomainShape.SQUARE, 5))
        with pytest.raises(InvalidArgumentError, match="pencil has 961 dofs, the fine mesh 225"):
            initialize(hier, pencil, ClusterSpec(1, 3))
        assert eigensolves == []

    def test_restart_dim_below_2M_plus_1_rejected_before_the_eigensolve(self, small, monkeypatch):
        hier, pencil, _ = small
        eigensolves = []
        monkeypatch.setattr(linalg, "lowest_eigenpairs", lambda *a: eigensolves.append(a))
        with pytest.raises(InvalidArgumentError, match="restart dimension must be at least 7"):
            initialize(hier, pencil, ClusterSpec(1, 3), SolverConfig(restart_dim=6))
        assert eigensolves == []


def exact_state(pencil, cluster):
    """A state grown from the exact discrete eigenvectors 1..cluster.last."""
    ref = dense_discrete_spectrum(pencil, cluster.last)
    empty, _ = _start_chain(cluster, pencil, cluster.last, SolverConfig())
    return _grow(empty, ref.vectors)


def rows(state):
    """The packed rows of ``state``'s projected matrix in its chain's buffer, as stored."""
    return state._buffer.projected[:state.dim * (state.dim + 1) // 2]


def corner(state):
    """The lower triangle of ``state``'s projected matrix, unpacked from its rows; the
    strict upper triangle is zero."""
    lower = np.zeros((state.dim, state.dim))
    lower[np.tril_indices(state.dim)] = rows(state)  # row by row, as the rows are packed
    return lower


def projected(state):
    """The projected stiffness matrix of ``state``, symmetrized from the lower triangle that
    its packed rows hold, the only triangle that is written and that the eigensolve reads."""
    lower = corner(state)
    return lower + np.tril(lower, -1).T


class TestResidualDual:
    """``IterationState.residual``: the cluster residuals in dual form, lam M u - K u."""

    def test_exact_eigenpair_has_zero_residual(self, small):
        _, pencil, _ = small
        state = exact_state(pencil, ClusterSpec(1, 3))
        assert np.linalg.norm(state.residual) <= 1e-10

    def test_residual_is_mass_orthogonal_to_ritz_vector(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(2, 4))
        pairings = np.einsum("ij,ij->j", state.residual, state.cluster_vectors)
        assert np.abs(pairings).max() <= 1e-10

    def test_matches_independent_dense_evaluation(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(51)
        state = initialize(hier, pencil, ClusterSpec(2, 4))
        state = rayleigh_ritz(state, rng.standard_normal((pencil.n, 3)))
        U = state.cluster_vectors
        lam = state.cluster_values()
        dense = lam * (pencil.mass.toarray() @ U) - pencil.stiffness.toarray() @ U
        assert np.allclose(state.residual, dense, atol=1e-12)


@pytest.fixture(scope="module")
def stepped(small):
    hier, pencil, decomp = small
    cluster = ClusterSpec(1, 2)
    state = initialize(hier, pencil, cluster)
    coarse = build_coarse_piece(hier, cluster.last)
    prec = prepare(LocalBlocks(hier.fine, decomp), coarse, state.cluster_values())
    return pencil, decomp, coarse, state, prec


class TestCorrectionStep:
    def test_corrections_mass_orthogonal_to_cluster_ritz_vectors(self, stepped):
        pencil, _, _, state, prec = stepped
        T = correction_step(state, prec)
        U = state.cluster_vectors
        assert np.abs(U.T @ (pencil.mass @ T)).max() <= 1e-10

    def test_matches_dense_projected_preconditioner(self, stepped):
        pencil, decomp, coarse, state, prec = stepped
        T = correction_step(state, prec)
        U = state.cluster_vectors
        MU = pencil.mass @ U
        for j, lam in enumerate(state.cluster_values()):
            B = dense_preconditioner(pencil, decomp, coarse, prec.shifts[j])
            rho = lam * (pencil.mass @ U[:, j]) - pencil.stiffness @ U[:, j]
            want = B @ rho
            want -= U @ (MU.T @ want)
            assert np.linalg.norm(T[:, j] - want) <= 1e-9 * np.linalg.norm(want)

    def test_zero_residual_gives_zero_correction(self, small):
        # feed exact discrete eigenpairs: residuals vanish, so do corrections
        hier, pencil, decomp = small
        cluster = ClusterSpec(1, 2)
        state = exact_state(pencil, cluster)
        coarse = build_coarse_piece(hier, cluster.last)
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, state.cluster_values())
        T = correction_step(state, prec)
        assert np.abs(T).max() <= 1e-9


class TestRayleighRitz:
    def test_all_zero_vectors_leave_state_unchanged(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, np.zeros((pencil.n, 3)))
        assert out is state

    def test_exact_invariant_subspace_reproduces_eigenvalues(self, small):
        hier, pencil, _ = small
        ref = dense_discrete_spectrum(pencil, 6)
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, ref.vectors)
        # the grown subspace contains the first 6 discrete eigenvectors
        assert np.allclose(out.ritz_values[:6], ref.values, rtol=1e-9)

    def test_projected_problem_consistency(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(52)
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, rng.standard_normal((pencil.n, 2)))
        assert out.ritz_coeffs.shape == (out.dim, 3)
        for j in range(out.ritz_coeffs.shape[1]):
            r = projected(out) @ out.ritz_coeffs[:, j] - out.ritz_values[j] * out.ritz_coeffs[:, j]
            assert np.linalg.norm(r) <= 1e-9 * max(out.ritz_values[j], 1.0)


class TestBasisBuffer:
    def test_growing_one_state_twice_changes_no_existing_basis(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(54)
        parent = initialize(hier, pencil, ClusterSpec(1, 3))
        first = rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)))
        buffer = first._buffer
        kept = [s.basis.copy() for s in (parent, first)]
        data, filled = buffer.data.copy(), buffer.filled
        # the child was written in place behind the parent, which can no longer grow
        assert np.shares_memory(first.basis, parent.basis)
        with pytest.raises(InvalidArgumentError, match="only the newest state of a chain grows"):
            rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)))
        assert buffer.filled == filled and np.array_equal(buffer.data, data)
        for state, basis in zip((parent, first), kept):
            assert np.array_equal(state.basis, basis)

    def test_growing_one_state_twice_changes_no_existing_projection(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(58)
        parent = initialize(hier, pencil, ClusterSpec(1, 3))
        first = rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)))
        kept = [(corner(s).copy(), s.ritz_values.copy(), s.ritz_coeffs.copy())
                for s in (parent, first)]
        # the child bordered the parent's projected matrix in place
        assert np.shares_memory(rows(first), rows(parent))
        with pytest.raises(InvalidArgumentError,
                           match="this state has 3 basis columns, the newest 6"):
            rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)))
        assert first._buffer.filled == first.dim
        for state, (stored, values, coeffs) in zip((parent, first), kept):
            assert np.array_equal(corner(state), stored)
            assert np.array_equal(state.ritz_values, values)
            assert np.array_equal(state.ritz_coeffs, coeffs)

    def test_growth_borders_only_the_lower_triangle(self, small):
        hier, pencil, _ = small
        parent = initialize(hier, pencil, ClusterSpec(1, 3))
        grown = rayleigh_ritz(parent, np.random.default_rng(61).standard_normal((pencil.n, 3)))
        dim, m = parent.dim, grown.dim
        assert m > dim
        assert np.count_nonzero(corner(grown)[dim:m, :dim]) == (m - dim) * dim
        # the border is rows dim..m-1 appended behind the parent's; nothing lies beyond them
        assert np.array_equal(rows(grown)[:dim * (dim + 1) // 2], rows(parent))
        assert not grown._buffer.projected[m * (m + 1) // 2:].any()

    def test_projected_corner_and_coefficients_stop_at_cluster_end(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 2))
        grown = rayleigh_ritz(state, np.random.default_rng(59).standard_normal((pencil.n, 2)))
        for s in (state, grown):
            assert s.ritz_values.shape == (s.dim,)
            assert s.ritz_coeffs.shape == (s.dim, s.cluster.last)
            assert np.allclose(s.ritz_values, np.linalg.eigvalsh(projected(s)), rtol=1e-12, atol=0)

    def test_failed_projected_eigensolve_raises(self, small, monkeypatch):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        dsyevd = linalg.lapack.dsyevd

        def failing(a, **kwargs):
            values, vectors, _ = dsyevd(a, **kwargs)
            return values, vectors, 2  # two off-diagonal elements did not converge

        monkeypatch.setattr(linalg.lapack, "dsyevd", failing)
        with pytest.raises(EigensolverError, match="info=2"):
            rayleigh_ritz(state, np.random.default_rng(60).standard_normal((pencil.n, 2)))

    def test_newest_state_grows_by_orthonormalizing_into_its_buffer(self, small, monkeypatch):
        hier, pencil, _ = small
        rng = np.random.default_rng(57)
        results, original = [], linalg.b_orthonormalize

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(linalg, "b_orthonormalize", recording)
        state = initialize(hier, pencil, ClusterSpec(1, 3), SolverConfig(max_iter=2))
        V = rng.standard_normal((pencil.n, 3))
        V[:, 2] = V[:, 0] + V[:, 1]  # dropped
        for new in (V, rng.standard_normal((pencil.n, 3))):
            grown = rayleigh_ritz(state, new)
            accepted = results[-1]
            assert grown._buffer is state._buffer and grown._buffer.filled == grown.dim
            # the accepted columns are the basis columns, not a copy of them
            assert accepted.ctypes.data == grown.basis[:, state.dim:].ctypes.data
            assert grown.dim == state.dim + accepted.shape[1]
            state = grown
        assert [r.shape[1] for r in results] == [3, 2, 3]

    def test_basis_and_cluster_vectors_are_read_only(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 2))
        grown = rayleigh_ritz(state, np.random.default_rng(55).standard_normal((pencil.n, 2)))
        for s in (state, grown):
            for array in (s.basis, s.cluster_vectors, s.mass_vectors, s.residual):
                assert not array.flags.writeable
            assert np.array_equal(s.cluster_vectors,
                                  linalg.basis_times(s.basis, s.ritz_coeffs[:, 0:2]))
            assert np.array_equal(s.mass_vectors, pencil.mass @ s.cluster_vectors)

    # The budgets below admit the startup block of cluster 3..5, three 5-column blocks.

    def test_basis_beyond_memory_budget_raises(self, small, monkeypatch):
        hier, pencil, decomp = small
        # room for 16 columns: the basis grows 5 -> 8 -> ... -> 17, and 17 columns do not fit
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * pencil.n * 16)
        with pytest.raises(ProblemTooLargeError, match=r"17 columns .* GiB.*--restart-dim"):
            solve(hier, pencil, decomp, ClusterSpec(3, 5), SolverConfig(tol=1e-12, max_iter=5))

    def test_basis_that_exactly_fits_the_budget_finishes(self, small, monkeypatch):
        hier, pencil, decomp = small
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * pencil.n * 17)
        report = solve(hier, pencil, decomp, ClusterSpec(3, 5),
                       SolverConfig(tol=1e-12, max_iter=4))
        assert [rec.basis_dim for rec in report.trace] == [5, 8, 11, 14, 17]

    def test_reservation_capped_at_memory_raises_only_past_the_cap(self, small, monkeypatch):
        hier, pencil, _ = small
        rng = np.random.default_rng(56)
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * pencil.n * 17)
        state = initialize(hier, pencil, ClusterSpec(3, 5), SolverConfig())
        buffer = state._buffer
        assert buffer.data.shape == (pencil.n, 17)
        for dim in (8, 11, 14, 17):
            state = rayleigh_ritz(state, rng.standard_normal((pencil.n, 3)))
            assert state.dim == dim and state._buffer is buffer  # written in place
        with pytest.raises(ProblemTooLargeError, match=r"18 columns"):
            rayleigh_ritz(state, rng.standard_normal((pencil.n, 1)))
        assert buffer.filled == 17

    @pytest.mark.parametrize("shape", [(225,), (226, 2), (225, 2, 1)],
                             ids=["1-d", "n+1-rows", "3-d"])
    def test_block_that_is_not_n_by_k_rejected_before_writing(self, small, shape):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        buffer = state._buffer
        data, filled = buffer.data.copy(), buffer.filled
        with pytest.raises(InvalidArgumentError, match=r"new vectors \(225, k\) expected"):
            rayleigh_ritz(state, np.ones(shape))
        assert buffer.filled == filled and np.array_equal(buffer.data, data)

    def test_growth_past_a_reservation_memory_did_not_cap_raises(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(61)
        # one iteration of cluster 1..3: room for 3 + 3 columns
        state = initialize(hier, pencil, ClusterSpec(1, 3), SolverConfig(max_iter=1))
        state = rayleigh_ritz(state, rng.standard_normal((pencil.n, 3)))
        buffer = state._buffer
        data = buffer.data.copy()
        with pytest.raises(InvalidArgumentError,
                           match="6 columns grown by 1 outgrows the 6 columns reserved"):
            rayleigh_ritz(state, rng.standard_normal((pencil.n, 1)))
        assert buffer.filled == state.dim == 6 and np.array_equal(buffer.data, data)

    def test_startup_block_admitted_up_to_three_blocks(self, small, monkeypatch):
        hier, pencil, _ = small
        cluster = ClusterSpec(3, 5)
        need = 3 * 8 * pencil.n * cluster.last
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need)
        assert initialize(hier, pencil, cluster).dim == cluster.last
        eigensolves = []
        monkeypatch.setattr(linalg, "lowest_eigenpairs", lambda *a: eigensolves.append(a))
        # one byte short of three blocks, though the basis's 5 columns fit
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need - 1)
        with pytest.raises(ProblemTooLargeError,
                           match=r"startup block, three blocks of 5 columns of 225 dofs.*GiB"):
            initialize(hier, pencil, cluster)
        assert eigensolves == []  # refused before the startup eigensolve

    def test_startup_block_refused_before_the_coarse_eigensolve(self, small, monkeypatch):
        hier, pencil, decomp = small
        cluster = ClusterSpec(3, 5)
        # coarse level 2 has 9 dofs: its eigensolve needs 32 * 9^2 bytes, far below the budget
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 3 * 8 * pencil.n * cluster.last - 1)
        eigensolves = []
        monkeypatch.setattr(linalg, "dense_generalized_eig", lambda *a: eigensolves.append(a))
        with pytest.raises(ProblemTooLargeError, match=r"startup block, three blocks of 5 columns"):
            solve(hier, pencil, decomp, cluster, SolverConfig())
        assert eigensolves == []

    def test_projected_eigensolve_admitted_with_its_workspace(self, small, monkeypatch):
        _, pencil, _ = small
        c = 100
        # packed matrix, operand and dsyevd's workspace, against the 16 c^2 of a square pair
        need = 4 * c * (c + 1) + 8 * c * c + 8 * (1 + 6 * c + 2 * c * c)
        assert max(8 * pencil.n * c, 16 * c * c) < need - 1  # the basis alone fits
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need - 1)
        maps, mapped_zeros = [], linalg.mapped_zeros
        monkeypatch.setattr(linalg, "mapped_zeros", lambda *a: maps.append(a) or mapped_zeros(*a))
        with pytest.raises(ProblemTooLargeError,
                           match=r"projected eigensolve of order 100 .*--restart-dim"):
            _start_chain(ClusterSpec(1, 3), pencil, c, SolverConfig())
        assert maps == []  # refused before anything is allocated
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need)
        _, block = _start_chain(ClusterSpec(1, 3), pencil, c, SolverConfig())
        assert block.shape == (pencil.n, c)


class TestOneBufferPerChain:
    """Each chain of states has one basis buffer, never copied, and only its newest
    state grows; ``solve`` starts a chain at startup and at each thick restart."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every basis buffer made and every state returned by a growth, in order."""
        buffers, states = [], []

        class Recording(eigensolver._BasisBuffer):
            def __init__(self, *args):
                super().__init__(*args)
                buffers.append(self)

        def recording(fn):
            def wrapper(*args, **kwargs):
                states.append(fn(*args, **kwargs))
                return states[-1]
            return wrapper

        monkeypatch.setattr(eigensolver, "_BasisBuffer", Recording)
        monkeypatch.setattr(eigensolver, "_grow", recording(eigensolver._grow))
        return buffers, states

    def test_without_restarts_one_buffer_holds_every_basis(self, small, recorded):
        hier, pencil, decomp = small
        buffers, states = recorded
        cluster, config = ClusterSpec(1, 3), SolverConfig(tol=1e-8, max_iter=40)
        report = solve(hier, pencil, decomp, cluster, config)
        assert report.converged
        assert len(buffers) == 1
        final = states[-1]
        assert all(np.shares_memory(s.basis, final.basis) for s in states)
        capacity = buffers[0].data.shape[1]
        assert final.dim <= capacity <= cluster.last + config.max_iter * cluster.count

    def test_a_basis_that_fills_n_columns_is_never_copied(self, small, recorded):
        # At tolerance 1e-300 the basis grows to all n columns and the run stagnates
        # there, each growth still writing its whole block behind the basis.
        hier, pencil, decomp = small
        buffers, states = recorded
        report = solve(hier, pencil, decomp, ClusterSpec(1, 5),
                       SolverConfig(tol=1e-300, max_iter=60))
        assert report.stagnated and report.trace[-1].basis_dim == pencil.n
        assert len(buffers) == 1
        final = states[-1]
        assert all(np.shares_memory(s.basis, final.basis) for s in states)

    def test_each_thick_restart_starts_one_buffer(self, recorded):
        buffers, states = recorded
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        pencil = assemble(hier.fine)
        decomp = build_decomposition(hier, 0.25)
        cluster, config = ClusterSpec(3, 5), SolverConfig(tol=1e-8, restart_dim=13)
        report = solve(hier, pencil, decomp, cluster, config)
        dims = [rec.basis_dim for rec in report.trace]
        restarts = sum(b < a for a, b in zip(dims, dims[1:]))
        assert report.converged and restarts >= 1
        assert len(buffers) == 1 + restarts
        for buffer in buffers:
            assert buffer.data.shape[1] == config.restart_dim + cluster.count
        assert states[-1].dim <= buffers[-1].data.shape[1]

    def test_restart_drops_the_old_chain_before_its_block_grows(self, small, monkeypatch):
        hier, pencil, decomp = small
        old_buffers, alive_at_growth = [], []
        restart, grow = eigensolver._thick_restart, eigensolver._grow

        def restarting(state, *args):
            old_buffers.append(weakref.ref(state._buffer))
            return restart(state, *args)

        def growing(state, *args):
            if state.dim == 0 and old_buffers:  # the block of a restart
                alive_at_growth.append(old_buffers[-1]() is not None)
            return grow(state, *args)

        monkeypatch.setattr(eigensolver, "_thick_restart", restarting)
        monkeypatch.setattr(eigensolver, "_grow", growing)
        report = solve(hier, pencil, decomp, ClusterSpec(3, 5),
                       SolverConfig(tol=1e-8, restart_dim=13))
        assert report.converged
        assert len(alive_at_growth) == len(old_buffers) >= 2
        assert not any(alive_at_growth)


@pytest.fixture(scope="module")
def tiny():
    """Square hierarchy (1, 3): 49 fine dofs, so a basis fills all n columns quickly."""
    hier = build_hierarchy(DomainShape.SQUARE, 1, 3)
    return hier, assemble(hier.fine)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=st.lists(st.one_of(st.tuples(st.integers(1, 12), st.integers(0, 3)),
                                st.just("restart")), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_packed_rows_hold_the_projected_matrix(tiny, steps, seed):
    # Growths by random blocks with dependent columns, thick restarts, and a final fill
    # of the basis to n: the rows always unpack to the lower triangle of basis' K basis.
    hier, pencil = tiny
    rng = np.random.default_rng(seed)
    config = SolverConfig()
    state = initialize(hier, pencil, ClusterSpec(1, 2), config)

    def grow(state, width, dependent=0):
        width = min(width, state._buffer.data.shape[1] - state.dim)
        V = rng.standard_normal((pencil.n, width))
        V[:, :dependent] = state.basis @ rng.standard_normal((state.dim, min(dependent, width)))
        return rayleigh_ritz(state, V)

    def check(state):
        gram = state.basis.T @ (pencil.stiffness @ state.basis)
        assert np.abs(corner(state) - np.tril(gram)).max() <= 1e-12 * np.abs(gram).max()

    for step in steps:
        if step == "restart":
            empty, block = _thick_restart(state, rng.standard_normal((pencil.n, 2)))
            state = _grow(empty, block)
        else:
            state = grow(state, *step)
        check(state)
    while state.dim < pencil.n:
        state = grow(state, 12)
        check(state)
    assert grow(state, 3) is state  # a full basis accepts nothing more


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_a_chain_grows_in_place_and_only_at_its_newest_state(small, steps, seed):
    # Each step grows the newest state by a block of 1..count columns; a "dependent"
    # block's last column lies in the span of the basis and the block's other columns.
    hier, pencil, _ = small
    rng = np.random.default_rng(seed)
    state = initialize(hier, pencil, ClusterSpec(1, 3), SolverConfig(max_iter=len(steps)))
    names = ("basis", "ritz_values", "ritz_coeffs", "cluster_vectors", "residual")

    def snapshot(s):
        return {"corner": corner(s).copy(), **{n: getattr(s, n).copy() for n in names}}

    chain = [(state, snapshot(state))]
    for width, dependent in steps:
        V = rng.standard_normal((pencil.n, width))
        if dependent:
            V[:, -1] = state.basis @ rng.standard_normal(state.dim) + V[:, :-1].sum(axis=1)
        grown = rayleigh_ritz(state, V)
        assert grown._buffer is state._buffer  # written in place
        assert grown.dim == state.dim + width - dependent
        if grown is not state:
            chain.append((grown, snapshot(grown)))
        state = grown
    for older, _ in chain[:-1]:
        with pytest.raises(InvalidArgumentError, match="only the newest state of a chain grows"):
            rayleigh_ritz(older, rng.standard_normal((pencil.n, 1)))
    assert state._buffer.filled == state.dim
    for s, kept in chain:
        for name, array in snapshot(s).items():
            assert np.array_equal(array, kept[name]), name


class TestStartupHeapRelease:
    def test_release_changes_no_bit_of_a_sparse_startup_solve(self, monkeypatch):
        hier = build_hierarchy(DomainShape.SQUARE, 4, 6)
        assert hier.initial.n_dofs > linalg.DENSE_LIMIT  # SuperLU and Lanczos at startup
        pencil = assemble(hier.fine)
        decomp = build_decomposition(hier, 0.25)
        releases, release = [], linalg.release_free_heap
        monkeypatch.setattr(linalg, "release_free_heap", lambda: releases.append(release()))
        released = solve(hier, pencil, decomp, ClusterSpec(3, 5), SolverConfig())
        monkeypatch.setattr(linalg, "release_free_heap", lambda: None)
        kept = solve(hier, pencil, decomp, ClusterSpec(3, 5), SolverConfig())
        assert len(releases) == 1 and released.converged
        assert released.iterations == kept.iterations
        assert np.array_equal(released.values, kept.values)
        assert np.array_equal(released.vectors, kept.vectors)
        assert len(released.trace) == len(kept.trace)
        for a, b in zip(released.trace, kept.trace):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal([a.stop_norm, a.stop_lower, a.stop_upper],
                                  [b.stop_norm, b.stop_lower, b.stop_upper], equal_nan=True)


def _iterated(hier, pencil, decomp, cluster, steps, config):
    """The state after ``steps`` outer iterations of a chain started with ``config``, and
    its newest corrections."""
    state = initialize(hier, pencil, cluster, config)
    coarse = build_coarse_piece(hier, cluster.last)
    blocks = LocalBlocks(hier.fine, decomp)
    for _ in range(steps):
        prec = prepare(blocks, coarse, state.cluster_values())
        corrections = correction_step(state, prec)
        state = rayleigh_ritz(state, corrections)
    return state, corrections


class TestThickRestart:
    def test_keeps_ritz_values_and_mass_orthonormality(self, small):
        hier, pencil, decomp = small
        state, corrections = _iterated(hier, pencil, decomp, ClusterSpec(3, 5), 3,
                                       SolverConfig(restart_dim=13))
        out = _grow(*_thick_restart(state, corrections))
        # The restarted space lies inside the old one and holds Ritz vectors 1..last.
        assert np.allclose(out.ritz_values[:5], state.ritz_values[:5], rtol=1e-10, atol=0)
        assert out.dim < state.dim
        assert np.abs(out.basis.T @ (pencil.mass @ out.basis) - np.eye(out.dim)).max() <= 1e-10

    def test_restarted_chain_keeps_its_parents_pencil_and_config(self, small):
        hier, pencil, decomp = small
        config = SolverConfig(restart_dim=13)
        state, corrections = _iterated(hier, pencil, decomp, ClusterSpec(3, 5), 3, config)
        out = _grow(*_thick_restart(state, corrections))
        assert out._buffer is not state._buffer
        assert out._buffer.pencil is state._buffer.pencil is pencil
        assert out._buffer.config is state._buffer.config is config

    @pytest.mark.parametrize("cluster", [ClusterSpec(3, 5), ClusterSpec(10, 14)],
                             ids=["last-5", "last-14"])
    def test_block_built_in_the_new_buffer_gives_the_same_bits(self, small, cluster):
        hier, pencil, decomp = small
        config = SolverConfig(restart_dim=40 - cluster.count)
        state, corrections = _iterated(hier, pencil, decomp, cluster, 4, config)
        ritz = linalg.basis_times(state.basis, state.ritz_coeffs[:, 0:cluster.last])
        kept = np.hstack([ritz, corrections])
        empty, _ = _start_chain(cluster, pencil, kept.shape[1], config)
        want = _grow(empty, kept)
        got = _grow(*_thick_restart(state, corrections))
        assert got._buffer.data.shape[1] == 40 and np.shares_memory(got.basis, got._buffer.data)
        assert np.array_equal(corner(got), corner(want))
        for name in ("basis", "ritz_values", "ritz_coeffs", "residual"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestStopNorm:
    @pytest.mark.parametrize("shape", [(961,), (961, 1, 1)], ids=["1-d", "3-d"])
    @pytest.mark.parametrize("which", ["stop_bounds", "stop_norm"])
    def test_residual_not_a_block_rejected_before_any_work(self, which, shape):
        # square 2/5: a 1-d residual over the n x 1 diagonal broadcasts to n x n
        pencil, _ = _mass_and_factorization("square", 5)
        assert pencil.n == shape[0]
        solves = []
        call = {"stop_bounds": lambda R: stop_bounds(R, pencil.mass.diagonal()),
                "stop_norm": lambda R: stop_norm(R, lambda X: solves.append(X) or X)}[which]
        residual = np.ones(shape)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError, match=r"residual block \(n, k\) expected"):
                call(residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and solves == []

    @pytest.mark.parametrize("rows, diagonal", [(961, (1,)), (1, (961,)), (961, (961, 1))],
                             ids=["one-entry", "one-row", "column"])
    def test_mass_diagonal_that_does_not_fit_rejected(self, rows, diagonal):
        with pytest.raises(InvalidArgumentError,
                           match=rf"mass diagonal of shape \({rows},\) expected, got shape"):
            stop_bounds(np.ones((rows, 2)), np.ones(diagonal))

    @pytest.mark.parametrize("shape", [(900, 2), (900,), (961, 1, 1)],
                             ids=["short-block", "short-vector", "3-d"])
    def test_chebyshev_solve_rejects_a_block_that_does_not_fit(self, shape):
        pencil, _ = _mass_and_factorization("square", 5)
        with pytest.raises(InvalidArgumentError, match=r"rhs \(n,\) or \(n, k\) with n = 961"):
            mass_chebyshev(pencil.mass)(np.ones(shape))

    def test_integer_residual_read_as_float64(self):
        pencil, _ = _mass_and_factorization("square", 5)
        R = np.random.default_rng(57).integers(-9, 10, size=(pencil.n, 3))
        chebyshev = mass_chebyshev(pencil.mass)
        want = stop_norm(R.astype(np.float64), chebyshev)
        assert np.float64(stop_norm(R, chebyshev)).tobytes() == np.float64(want).tobytes()

    def test_exact_pairs_give_zero(self, small):
        _, pencil, _ = small
        state = exact_state(pencil, ClusterSpec(1, 3))
        sn = stop_norm(state.residual, factorize(pencil.mass, expect_spd=True).solve)
        assert sn <= 1e-10

    def test_matches_dense_mass_inverse(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 1))
        lam = state.ritz_values[0]
        u = linalg.basis_times(state.basis, state.ritz_coeffs[:, 0:1]).ravel()
        sn = stop_norm(state.residual, factorize(pencil.mass, expect_spd=True).solve)
        rho = lam * (pencil.mass @ u) - pencil.stiffness @ u
        want = np.sqrt(rho @ np.linalg.solve(pencil.mass.toarray(), rho))
        assert sn == pytest.approx(want, rel=1e-10)

    def test_homogeneous_in_residual_scale(self, small):
        _, pencil, _ = small
        diagonal = pencil.mass.diagonal()
        R = np.random.default_rng(53).standard_normal((pencil.n, 2))
        lower, upper = stop_bounds(R, diagonal)
        scaled = stop_bounds(3.0 * R, diagonal)
        assert scaled[0] == pytest.approx(3.0 * lower, rel=1e-12)
        assert scaled[1] == pytest.approx(3.0 * upper, rel=1e-12)
        lower, upper = stop_bounds(exact_state(pencil, ClusterSpec(1, 3)).residual, diagonal)
        assert 0.0 <= lower <= upper <= 1e-10


@functools.lru_cache(maxsize=None)
def _mass_and_factorization(domain, level):
    pencil = assemble(build_mesh(DomainShape(domain), level))
    return pencil, factorize(pencil.mass, expect_spd=True).solve


def _residual_block(pencil, cols, kind, seed):
    """A random block, or its image under M or K (leaning to either end of D^{-1}M)."""
    R = np.random.default_rng(seed).standard_normal((pencil.n, cols))
    if kind == "mass":
        R = pencil.mass @ R
    elif kind == "stiffness":
        R = pencil.stiffness @ R
    return R


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domain=st.sampled_from(["square", "lshape"]), level=st.integers(2, 5),
       cols=st.integers(1, 4), kind=st.sampled_from(["random", "mass", "stiffness"]),
       seed=st.integers(0, 2**32 - 1))
def test_mass_diagonal_brackets_the_stop_norm(domain, level, cols, kind, seed):
    # 1/2 R'D^{-1}R <= R'M^{-1}R <= 2 R'D^{-1}R for D = diag(M); images
    # of random blocks under M and K lean towards either end
    pencil, solve_mass = _mass_and_factorization(domain, level)
    R = _residual_block(pencil, cols, kind, seed)
    exact = stop_norm(R, solve_mass)
    lower, upper = stop_bounds(R, pencil.mass.diagonal())
    assert lower <= exact * (1 + 1e-12)
    assert exact <= upper * (1 + 1e-12)
    assert upper == pytest.approx(2.0 * lower, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domain=st.sampled_from(["square", "lshape"]), level=st.integers(1, 7),
       cols=st.integers(1, 10), kind=st.sampled_from(["random", "mass", "stiffness"]),
       seed=st.integers(0, 2**32 - 1))
def test_chebyshev_stop_norm_matches_the_sparse_factorization(domain, level, cols, kind, seed):
    pencil, solve_mass = _mass_and_factorization(domain, level)
    R = _residual_block(pencil, cols, kind, seed)
    chebyshev = mass_chebyshev(pencil.mass)
    assert stop_norm(R, chebyshev) == pytest.approx(stop_norm(R, solve_mass), rel=1e-13)


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_mass_diagonal_brackets_the_mass_spectrum(domain, level):
    # Wathen's bracket, which stop_bounds and mass_chebyshev rest on: the
    # eigenvalues of D^{-1}M, D = diag(M), lie in [1/2, 2]
    mass = assemble(build_mesh(DomainShape(domain), level)).mass
    scale = 1.0 / np.sqrt(mass.diagonal())
    values = np.linalg.eigvalsh(scale[:, None] * mass.toarray() * scale[None, :])
    lower, upper = linalg.MASS_BRACKET
    assert (lower, upper) == (0.5, 2.0) and lower <= values[0] and values[-1] <= upper


class TestSolve:
    def test_smallest_pair_degenerate_cluster(self, small):
        hier, pencil, decomp = small
        report = solve(hier, pencil, decomp, ClusterSpec(1, 1),
                       SolverConfig(tol=1e-8, max_iter=40))
        assert report.converged
        ref = dense_discrete_spectrum(pencil, 1)
        assert report.values[0] == pytest.approx(ref.values[0], abs=1e-8)

    def test_converges_to_discrete_cluster(self, medium_run):
        pencil, report, oracle = medium_run
        assert report.converged
        assert report.stop_norm < 1e-8
        assert np.allclose(report.values, oracle.values[4:8], atol=1e-8)

    def test_ritz_values_monotone_and_bounded_below(self, medium_run):
        _, report, oracle = medium_run
        lam_h = oracle.values[4:8]
        prev = None
        for rec in report.trace:
            assert np.all(rec.values >= lam_h - 1e-10)
            if prev is not None:
                assert np.all(rec.values <= prev + 1e-12)
            prev = rec.values

    def test_trace_shape_and_basis_growth(self, medium_run):
        _, report, _ = medium_run
        block = report.cluster.count
        dims = [rec.basis_dim for rec in report.trace]
        assert dims[0] == report.cluster.last
        growth = np.diff(dims)
        assert np.all(growth <= block)
        assert report.trace[-1].stop_norm == report.stop_norm
        assert len(report.trace) == report.iterations + 1

    def test_final_vectors_mass_orthonormal(self, medium_run):
        pencil, report, _ = medium_run
        G = report.vectors.T @ (pencil.mass @ report.vectors)
        assert np.abs(G - np.eye(report.cluster.count)).max() <= 1e-10

    def test_makes_no_factorization_of_the_fine_mass(self, small, monkeypatch):
        hier, pencil, decomp = small
        sizes = []

        def recording(factorize_):
            def record(S, *args, **kwargs):
                sizes.append(S.shape[-1])  # the order of a square or a banded operand
                return factorize_(S, *args, **kwargs)
            return record

        for name in ("factorize", "factorize_shifted"):
            monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
        report = solve(hier, pencil, decomp, ClusterSpec(1, 3), SolverConfig(tol=1e-8, max_iter=40))
        assert report.converged and np.isfinite(report.stop_norm)
        assert sizes  # the local factorizations were recorded
        assert pencil.n not in sizes
        assert "mass_factorization" not in report.timings

    @pytest.mark.parametrize("inconsistency", ["negative-dof", "dof-past-the-end",
                                               "pencil-of-another-level",
                                               "cluster-past-the-initialization-mesh",
                                               "restart-dimension-below-2M+1",
                                               "startup-block-beyond-memory"])
    def test_inconsistent_inputs_rejected_before_any_eigensolve(self, small, inconsistency,
                                                                 monkeypatch):
        hier, pencil, decomp = small
        eigensolves = []

        def recording(name, eigensolve):
            def record(*args, **kwargs):
                eigensolves.append(name)
                return eigensolve(*args, **kwargs)
            return record

        for name in ("dense_generalized_eig", "lowest_eigenpairs", "dense_symmetric_eig"):
            monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
        cluster, config = ClusterSpec(1, 3), SolverConfig()
        with pytest.raises(InvalidArgumentError):
            if inconsistency == "pencil-of-another-level":
                pencil = assemble(build_mesh(DomainShape.SQUARE, hier.fine.level - 1))
            elif inconsistency == "cluster-past-the-initialization-mesh":
                cluster = ClusterSpec(1, 49)  # the level-3 initialization mesh has 49 dofs
            elif inconsistency == "restart-dimension-below-2M+1":
                config = SolverConfig(restart_dim=2 * cluster.last)
            elif inconsistency == "startup-block-beyond-memory":
                # one byte short of three n x 3 blocks; the coarse eigensolve would fit
                monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 3 * 8 * pencil.n * cluster.last - 1)
            else:  # every dof moved one down (0 becomes -1) or one up (n - 1 becomes n)
                by = -1 if inconsistency == "negative-dof" else 1
                decomp = Decomposition(dofs=decomp.dofs + by, offsets=decomp.offsets,
                                       overlap_layers=decomp.overlap_layers)
            solve(hier, pencil, decomp, cluster, config)
        assert eigensolves == []

    def test_max_iter_reached_flags_non_convergence(self, small):
        hier, pencil, decomp = small
        report = solve(hier, pencil, decomp, ClusterSpec(1, 3),
                       SolverConfig(tol=1e-12, max_iter=2))
        assert not report.converged
        assert report.iterations == 2
        assert len(report.values) == 3
        assert report.trace[-1].stop_norm == report.stop_norm
        assert np.isfinite(report.stop_norm)

    def test_stagnation_detected_when_basis_saturates(self):
        hier = build_hierarchy(DomainShape.SQUARE, 1, 3)
        pencil = assemble(hier.fine)
        decomp = build_decomposition(hier, 0.5)
        report = solve(hier, pencil, decomp, ClusterSpec(1, 2),
                       SolverConfig(tol=1e-300, max_iter=100))
        assert report.stagnated
        assert not report.converged
        assert report.trace[-1].stop_norm == report.stop_norm
        assert np.isfinite(report.stop_norm)
        ref = dense_discrete_spectrum(pencil, 2)
        assert np.allclose(report.values, ref.values[:2], atol=1e-10)

    def test_restart_bounds_basis_and_still_converges(self, small):
        hier, pencil, decomp = small
        cluster = ClusterSpec(3, 5)
        cap = 2 * cluster.last + 3
        report = solve(hier, pencil, decomp, cluster,
                       SolverConfig(tol=1e-8, max_iter=80, restart_dim=cap))
        assert report.converged
        assert max(rec.basis_dim for rec in report.trace) <= cap + cluster.count
        ref = dense_discrete_spectrum(pencil, 5)
        assert np.allclose(report.values, ref.values[2:5], atol=1e-8)

    @pytest.mark.parametrize("restart_dim", [11, 14])
    def test_restart_back_to_the_same_dimension_is_no_stall(self, small, restart_dim):
        # every iteration grows the basis to 15 and restarts it to 10
        hier, pencil, decomp = small
        report = solve(hier, pencil, decomp, ClusterSpec(1, 5),
                       SolverConfig(tol=1e-8, max_iter=200, restart_dim=restart_dim))
        assert not report.stagnated
        assert report.converged
        assert {rec.basis_dim for rec in report.trace} == {5, 10}

    def test_clamped_shifts_recorded(self, small, monkeypatch):
        hier, pencil, decomp = small
        cluster = ClusterSpec(1, 3)
        start = initialize(hier, pencil, cluster).cluster_values()
        build = schwarz.build_coarse_piece

        def lowered(hier, cut):
            # move the first retained coarse eigenvalue between the two
            # largest starting values, so the cap cuts the third shift
            piece = build(hier, cut)
            values = piece.values - (piece.values[0] - 0.5 * (start[1] + start[2]))
            return dataclasses.replace(piece, values=values)

        monkeypatch.setattr(schwarz, "build_coarse_piece", lowered)
        report = solve(hier, pencil, decomp, cluster, SolverConfig(max_iter=3))
        cap = 0.5 * (start[1] + start[2]) * (1.0 - 1e-8)
        clamped = [rec.clamped_shifts for rec in report.trace]
        assert clamped[:2] == [0, 1]
        assert clamped[1:] == [int(np.sum(rec.values > cap)) for rec in report.trace[:-1]]

    def test_ldlt_fallbacks_recorded_when_every_local_operator_is_indefinite(self):
        # the square-indefinite benchmark case: 10 shifts above the lowest
        # eigenvalue of each of the 4 operator classes, in every iteration
        hier = build_hierarchy(DomainShape.SQUARE, 3, 5)
        pencil = assemble(hier.fine)
        report = solve(hier, pencil, build_decomposition(hier, 0.25), ClusterSpec(99, 108),
                       SolverConfig(tol=1e-8))
        # (53 iterations, 2120 fallbacks in all, with one BLAS thread)
        assert report.converged
        assert [rec.ldlt_fallbacks for rec in report.trace] == [0] + [40] * report.iterations

    def test_no_ldlt_fallbacks_when_every_local_operator_is_definite(self):
        # the square-spd benchmark case: every local factorization is Cholesky
        hier = build_hierarchy(DomainShape.SQUARE, 3, 6)
        pencil = assemble(hier.fine)
        report = solve(hier, pencil, build_decomposition(hier, 0.25), ClusterSpec(21, 26),
                       SolverConfig(tol=1e-8))
        assert report.converged
        assert [rec.ldlt_fallbacks for rec in report.trace] == [0] * (report.iterations + 1)


# (domain, coarse, fine, overlap, first, last, SolverConfig): converged,
# restarted, max_iter-bound and stagnated runs
_GATE_CASES = [
    ("square", 2, 4, 0.25, 1, 3, SolverConfig(tol=1e-8, max_iter=40)),
    ("lshape", 2, 4, 0.25, 3, 6, SolverConfig(tol=1e-8, max_iter=60)),
    ("square", 2, 4, 0.25, 3, 5, SolverConfig(tol=1e-8, max_iter=80, restart_dim=13)),
    ("square", 2, 4, 0.25, 1, 3, SolverConfig(tol=1e-12, max_iter=2)),
    ("square", 1, 3, 0.5, 1, 2, SolverConfig(tol=1e-300, max_iter=100)),
]


@pytest.mark.parametrize("case", _GATE_CASES, ids=lambda c: f"{c[0]}-{c[1]}/{c[2]}-{c[4]}..{c[5]}")
def test_bound_gate_changes_no_result(case, monkeypatch):
    domain, coarse, fine, overlap, first, last, config = case
    hier = build_hierarchy(DomainShape(domain), coarse, fine)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, overlap)
    calls = []

    def counted(*args):
        calls.append(None)
        return stop_norm(*args)

    monkeypatch.setattr(eigensolver, "stop_norm", counted)
    gated = solve(hier, pencil, decomp, ClusterSpec(first, last), config)
    gated_calls = len(calls)
    # a zero lower bound sends every row to the exact solve
    monkeypatch.setattr(eigensolver, "stop_bounds",
                        lambda *args: (0.0, stop_bounds(*args)[1]))
    exact = solve(hier, pencil, decomp, ClusterSpec(first, last), config)
    # one exact solve per finite row: each state is stop-tested once
    for report, count in ((gated, gated_calls), (exact, len(calls) - gated_calls)):
        assert count == sum(np.isfinite(rec.stop_norm) for rec in report.trace)

    assert gated.values.tobytes() == exact.values.tobytes()
    assert (gated.iterations, gated.converged, gated.stagnated) == (
        exact.iterations, exact.converged, exact.stagnated)
    assert np.float64(gated.stop_norm).tobytes() == np.float64(exact.stop_norm).tobytes()
    assert all(np.isfinite(rec.stop_norm) for rec in exact.trace)
    for g, e in zip(gated.trace, exact.trace, strict=True):
        assert g.values.tobytes() == e.values.tobytes()
        assert g.stop_lower <= e.stop_norm <= g.stop_upper
        if np.isnan(g.stop_norm):  # skipped only where the bound rules out convergence
            assert g.stop_lower >= config.tol
        else:
            assert g.stop_norm == e.stop_norm
    assert np.isfinite(gated.trace[-1].stop_norm)
