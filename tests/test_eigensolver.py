import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd import eigensolver, schwarz
from schwarzjd.eigensolver import (
    ClusterSpec,
    SolverConfig,
    _empty_state,
    _grow,
    _thick_restart,
    correction_step,
    initialize,
    rayleigh_ritz,
    solve,
    stop_bounds,
    stop_norm,
)
from schwarzjd.errors import ClusterTooLargeError, InvalidArgumentError, ProblemTooLargeError
from schwarzjd.fem import assemble
from schwarzjd.linalg import factorize
from schwarzjd.mesh import DomainShape, build_decomposition, build_hierarchy
from schwarzjd.oracle import dense_discrete_spectrum
from schwarzjd.schwarz import LocalBlocks, build_coarse_piece, prepare


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


def exact_state(pencil, cluster):
    """A state grown from the exact discrete eigenvectors 1..cluster.last."""
    ref = dense_discrete_spectrum(pencil, cluster.last)
    return _grow(_empty_state(cluster, pencil.n), ref.vectors, pencil, 0)


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
        state = rayleigh_ritz(state, rng.standard_normal((pencil.n, 3)), pencil)
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
    prec = prepare(LocalBlocks(pencil, decomp), coarse, state.cluster_values())
    return pencil, decomp, coarse, state, prec


class TestCorrectionStep:
    def test_corrections_mass_orthogonal_to_cluster_ritz_vectors(self, stepped):
        pencil, _, _, state, prec = stepped
        T = correction_step(state, prec)
        U = state.cluster_vectors
        assert np.abs(U.T @ (pencil.mass @ T)).max() <= 1e-10

    def test_matches_dense_projected_preconditioner(self, stepped):
        from .helpers import dense_preconditioner

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
        prec = prepare(LocalBlocks(pencil, decomp), coarse, state.cluster_values())
        T = correction_step(state, prec)
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


class TestBasisBuffer:
    def test_growing_one_state_twice_changes_no_existing_basis(self, small):
        hier, pencil, _ = small
        rng = np.random.default_rng(54)
        parent = initialize(hier, pencil, ClusterSpec(1, 3))
        parent_basis = parent.basis.copy()
        first = rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)), pencil)
        first_basis = first.basis.copy()
        second = rayleigh_ritz(parent, rng.standard_normal((pencil.n, 3)), pencil)
        rayleigh_ritz(first, rng.standard_normal((pencil.n, 3)), pencil)
        # the first child was written in place behind the parent, the second copied
        assert np.shares_memory(first.basis, parent.basis)
        assert not np.shares_memory(second.basis, first.basis)
        assert np.array_equal(parent.basis, parent_basis)
        assert np.array_equal(first.basis, first_basis)
        assert np.array_equal(second.basis[:, :parent.dim], parent_basis)
        assert not np.array_equal(second.basis, first.basis)

    def test_basis_and_cluster_vectors_are_read_only(self, stepped):
        pencil, _, _, state, _ = stepped
        grown = rayleigh_ritz(state, np.random.default_rng(55).standard_normal((pencil.n, 2)),
                              pencil)
        for s in (state, grown):
            for array in (s.basis, s.cluster_vectors, s.mass_vectors, s.residual):
                assert not array.flags.writeable
            assert np.array_equal(s.cluster_vectors, s.ritz_block(1, 2))
            assert np.array_equal(s.mass_vectors, pencil.mass @ s.cluster_vectors)

    def test_basis_beyond_memory_budget_raises(self, small, monkeypatch):
        hier, pencil, decomp = small
        # room for the startup buffer (twice the 5 lifted columns), not for its first doubling
        monkeypatch.setattr(eigensolver, "_MEMORY_BUDGET", 8 * pencil.n * 10)
        with pytest.raises(ProblemTooLargeError, match=r"22 columns .* GiB.*--restart-dim"):
            solve(hier, pencil, decomp, ClusterSpec(3, 5), SolverConfig(max_iter=5))


class TestThickRestart:
    def test_keeps_ritz_values_and_mass_orthonormality(self, small):
        hier, pencil, decomp = small
        cluster = ClusterSpec(3, 5)
        state = initialize(hier, pencil, cluster)
        coarse = build_coarse_piece(hier, cluster.last)
        blocks = LocalBlocks(pencil, decomp)
        for _ in range(3):
            prec = prepare(blocks, coarse, state.cluster_values())
            corrections = correction_step(state, prec)
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
        state = exact_state(pencil, ClusterSpec(1, 3))
        mass_fact = factorize(pencil.mass, expect_spd=True)
        sn = stop_norm(state.residual, mass_fact)
        assert sn <= 1e-10

    def test_matches_dense_mass_inverse(self, small):
        hier, pencil, _ = small
        state = initialize(hier, pencil, ClusterSpec(1, 1))
        mass_fact = factorize(pencil.mass, expect_spd=True)
        lam = state.ritz_values[0]
        u = state.ritz_block(1, 1).ravel()
        sn = stop_norm(state.residual, mass_fact)
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
    pencil = assemble(build_hierarchy(DomainShape(domain), 1, level).fine)
    return pencil, factorize(pencil.mass, expect_spd=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domain=st.sampled_from(["square", "lshape"]), level=st.integers(2, 5),
       cols=st.integers(1, 4), kind=st.sampled_from(["random", "mass", "stiffness"]),
       seed=st.integers(0, 2**32 - 1))
def test_mass_diagonal_brackets_the_stop_norm(domain, level, cols, kind, seed):
    # 1/2 R'D^{-1}R <= R'M^{-1}R <= 2 R'D^{-1}R for D = diag(M); images
    # of random blocks under M and K lean towards either end
    pencil, mass_fact = _mass_and_factorization(domain, level)
    R = np.random.default_rng(seed).standard_normal((pencil.n, cols))
    if kind == "mass":
        R = pencil.mass @ R
    elif kind == "stiffness":
        R = pencil.stiffness @ R
    exact = stop_norm(R, mass_fact)
    lower, upper = stop_bounds(R, pencil.mass.diagonal())
    assert lower <= exact * (1 + 1e-12)
    assert exact <= upper * (1 + 1e-12)
    assert upper == pytest.approx(2.0 * lower, rel=1e-12)


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
            values = piece.values.copy()
            values[cut:] -= values[cut] - 0.5 * (start[1] + start[2])
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
    gated = solve(hier, pencil, decomp, ClusterSpec(first, last), config)
    # a zero lower bound sends every row to the exact solve
    monkeypatch.setattr(eigensolver, "_MASS_LOWER", 0.0)
    exact = solve(hier, pencil, decomp, ClusterSpec(first, last), config)

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
