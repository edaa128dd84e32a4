import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from schwarzjd import schwarz
from schwarzjd.eigensolver import (
    ClusterSpec,
    SolverConfig,
    _thick_restart,
    correction_step,
    initialize,
    rayleigh_ritz,
    residual_dual,
    solve,
    stop_norm,
)
from schwarzjd.errors import ClusterTooLargeError, InvalidArgumentError
from schwarzjd.fem import assemble
from schwarzjd.linalg import factorize
from schwarzjd.mesh import DomainShape, build_decomposition, build_hierarchy
from schwarzjd.oracle import dense_discrete_spectrum
from schwarzjd.schwarz import build_coarse_piece, prepare


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
        with pytest.raises(InvalidArgumentError):
            SolverConfig(tol=0.0)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(max_iter=0)

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


class TestResidualDual:
    def test_exact_eigenpair_has_zero_residual(self, small):
        _, pencil, _ = small
        ref = dense_discrete_spectrum(pencil, 3)
        u = ref.vectors[:, 0]
        u = u / np.sqrt(u @ (pencil.mass @ u))
        rho = residual_dual(pencil, ref.values[0], u)
        assert np.linalg.norm(rho) <= 1e-10

    def test_residual_is_mass_orthogonal_to_ritz_vector(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 4))
        u = state.ritz_block(2, 2).ravel()
        rho = residual_dual(pencil, state.ritz_values[1], u)
        assert abs(rho @ u) <= 1e-10

    def test_matches_independent_dense_evaluation(self, small):
        _, pencil, _ = small
        rng = np.random.default_rng(51)
        u = rng.standard_normal(pencil.n)
        lam = 3.7
        rho = residual_dual(pencil, lam, u)
        dense = lam * (pencil.mass.toarray() @ u) - pencil.stiffness.toarray() @ u
        assert np.allclose(rho, dense, atol=1e-12)


@pytest.fixture(scope="module")
def stepped(small):
    hier, pencil, decomp = small
    cluster = ClusterSpec(1, 2)
    state = initialize(hier, pencil, cluster)
    coarse = build_coarse_piece(hier, cluster.last)
    prec = prepare(pencil, decomp, coarse, state.cluster_values())
    return pencil, decomp, coarse, state, prec


class TestCorrectionStep:
    def test_corrections_mass_orthogonal_to_cluster_ritz_vectors(self, stepped):
        pencil, _, _, state, prec = stepped
        T = correction_step(state, prec, pencil)
        U = state.cluster_vectors()
        assert np.abs(U.T @ (pencil.mass @ T)).max() <= 1e-10

    def test_matches_dense_projected_preconditioner(self, stepped):
        from .helpers import dense_preconditioner

        pencil, decomp, coarse, state, prec = stepped
        T = correction_step(state, prec, pencil)
        U = state.cluster_vectors()
        MU = pencil.mass @ U
        for j, lam in enumerate(state.cluster_values()):
            B = dense_preconditioner(pencil, decomp, coarse, prec.shifts[j])
            rho = residual_dual(pencil, lam, U[:, j])
            want = B @ rho
            want -= U @ (MU.T @ want)
            assert np.linalg.norm(T[:, j] - want) <= 1e-9 * np.linalg.norm(want)

    def test_zero_residual_gives_zero_correction(self, small):
        # feed exact discrete eigenpairs: residuals vanish, so do corrections
        hier, pencil, decomp = small
        cluster = ClusterSpec(1, 2)
        ref = dense_discrete_spectrum(pencil, 2)
        basis = ref.vectors.copy()
        basis_mass = pencil.mass @ basis
        projected = basis.T @ (pencil.stiffness @ basis)
        from schwarzjd.eigensolver import IterationState

        values, coeffs = np.linalg.eigh(0.5 * (projected + projected.T))
        state = IterationState(cluster, basis, basis_mass, projected, values, coeffs)
        coarse = build_coarse_piece(hier, cluster.last)
        prec = prepare(pencil, decomp, coarse, state.cluster_values())
        T = correction_step(state, prec, pencil)
        assert np.abs(T).max() <= 1e-9


class TestRayleighRitz:
    def test_all_zero_vectors_leave_state_unchanged(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, np.zeros((pencil.n, 3)), pencil)
        assert out.iteration == state.iteration + 1
        assert out.dim == state.dim
        assert np.array_equal(out.ritz_values, state.ritz_values)

    def test_exact_invariant_subspace_reproduces_eigenvalues(self, small):
        hier, pencil, _ = small
        ref = dense_discrete_spectrum(pencil, 6)
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, ref.vectors, pencil)
        # the grown subspace contains the first 6 discrete eigenvectors
        assert np.allclose(out.ritz_values[:6], ref.values, rtol=1e-9)

    def test_projected_problem_consistency(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(52)
        state = initialize(hier, pencil, ClusterSpec(1, 3))
        out = rayleigh_ritz(state, rng.standard_normal((pencil.n, 2)), pencil)
        for j in range(out.dim):
            r = out.projected @ out.ritz_coeffs[:, j] - out.ritz_values[j] * out.ritz_coeffs[:, j]
            assert np.linalg.norm(r) <= 1e-9 * max(out.ritz_values[j], 1.0)


class TestThickRestart:
    def test_keeps_ritz_values_and_mass_orthonormality(self, small):
        hier, pencil, decomp = small
        cluster = ClusterSpec(3, 5)
        state = initialize(hier, pencil, cluster)
        coarse = build_coarse_piece(hier, cluster.last)
        for _ in range(3):
            prec = prepare(pencil, decomp, coarse, state.cluster_values())
            corrections = correction_step(state, prec, pencil)
            state = rayleigh_ritz(state, corrections, pencil)
        out = _thick_restart(state, corrections, pencil)
        # The restarted space lies inside the old one and holds Ritz vectors 1..last.
        assert np.allclose(out.ritz_values[:5], state.ritz_values[:5], rtol=1e-10, atol=0)
        assert out.dim < state.dim
        assert out.iteration == state.iteration
        assert np.abs(out.basis.T @ (pencil.mass @ out.basis) - np.eye(out.dim)).max() <= 1e-10


class TestStopNorm:
    def test_exact_pairs_give_zero(self, small):
        _, pencil, _ = small
        ref = dense_discrete_spectrum(pencil, 3)
        mass_fact = factorize(pencil.mass, expect_spd=True)
        sn = stop_norm(pencil, ref.values, ref.vectors, mass_fact)
        assert sn <= 1e-10

    def test_matches_dense_mass_inverse(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 1))
        mass_fact = factorize(pencil.mass, expect_spd=True)
        lam = state.ritz_values[:1]
        u = state.ritz_block(1, 1)
        sn = stop_norm(pencil, lam, u, mass_fact)
        rho = residual_dual(pencil, lam[0], u.ravel())
        want = np.sqrt(rho @ np.linalg.solve(pencil.mass.toarray(), rho))
        assert sn == pytest.approx(want, rel=1e-10)

    def test_homogeneous_in_residual_scale(self, small):
        # doubling (lambda M u - K u) by doubling both inputs is not linear,
        # so scale through an explicit residual instead
        _, pencil, _ = small
        rng = np.random.default_rng(53)
        mass_fact = factorize(pencil.mass, expect_spd=True)
        R = rng.standard_normal((pencil.n, 2))
        X = mass_fact.solve(R)
        base = np.sqrt(np.einsum("ij,ij->", R, X))
        scaled = np.sqrt(np.einsum("ij,ij->", 3.0 * R, mass_fact.solve(3.0 * R)))
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


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

    def test_max_iter_reached_flags_non_convergence(self, small):
        hier, pencil, decomp = small
        report = solve(hier, pencil, decomp, ClusterSpec(1, 3),
                       SolverConfig(tol=1e-12, max_iter=2))
        assert not report.converged
        assert report.iterations == 2
        assert len(report.values) == 3

    def test_stagnation_detected_when_basis_saturates(self):
        hier = build_hierarchy(DomainShape.SQUARE, 1, 3)
        pencil = assemble(hier.fine)
        decomp = build_decomposition(hier, 0.5)
        report = solve(hier, pencil, decomp, ClusterSpec(1, 2),
                       SolverConfig(tol=1e-300, max_iter=100))
        assert report.stagnated
        assert not report.converged
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

    def test_clamped_shifts_recorded(self, small, monkeypatch):
        hier, pencil, decomp = small
        cluster = ClusterSpec(1, 3)
        start = initialize(hier, pencil, cluster).cluster_values()
        build = schwarz.build_coarse_piece

        def lowered(hier, cut):
            # move the first retained coarse eigenvalue between the two
            # largest starting values, so the cap cuts the third shift
            piece = build(hier, cut)
            values = piece.values.copy()
            values[cut:] -= values[cut] - 0.5 * (start[1] + start[2])
            return dataclasses.replace(piece, values=values)

        monkeypatch.setattr(schwarz, "build_coarse_piece", lowered)
        report = solve(hier, pencil, decomp, cluster, SolverConfig(max_iter=3))
        cap = 0.5 * (start[1] + start[2]) * (1.0 - 1e-8)
        clamped = [rec.clamped_shifts for rec in report.trace]
        assert clamped[:2] == [0, 1]
        assert clamped[1:] == [int(np.sum(rec.values > cap)) for rec in report.trace[:-1]]

    def test_shared_shift_variant_converges(self, small):
        hier, pencil, decomp = small
        report = solve(hier, pencil, decomp, ClusterSpec(2, 4),
                       SolverConfig(tol=1e-8, max_iter=60, shared_shift=True))
        assert report.converged
        ref = dense_discrete_spectrum(pencil, 4)
        assert np.allclose(report.values, ref.values[1:4], atol=1e-8)
