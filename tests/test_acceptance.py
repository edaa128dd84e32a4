"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The golden-table run
(criterion 1) takes a couple of minutes; the whole suite finishes in roughly
ten minutes on a laptop.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from schwarzjd.cli import fit_gamma
from schwarzjd.eigensolver import (
    ClusterSpec,
    SolverConfig,
    correction_step,
    initialize,
    rayleigh_ritz,
    solve,
    stop_norm,
)
from schwarzjd.fem import assemble
from schwarzjd.linalg import factorize
from schwarzjd.mesh import DomainShape, build_decomposition, build_hierarchy, build_mesh
from schwarzjd.oracle import cluster_gaps, dense_discrete_spectrum, exact_square_eigenvalues
from schwarzjd.schwarz import LocalBlocks, build_coarse_piece, prepare

from .helpers import dense_preconditioner

GOLDEN_LEVEL8 = np.array([
    145.267540, 145.267710, 145.285465, 145.497479, 146.343640,
    146.343692, 148.289692, 148.289716, 149.391777, 149.414814,
])
GOLDEN_INITIAL = np.array([
    161.042017, 162.829383, 162.842389, 166.819972, 166.865099,
    167.540267, 169.887856, 170.700726, 173.459262, 174.709492,
])
GOLDEN_ITERATIONS = 36


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_square(coarse, fine, cluster, tol=1e-8, max_iter=80):
    hier = build_hierarchy(DomainShape.SQUARE, coarse, fine)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    return solve(hier, pencil, decomp, cluster, SolverConfig(tol=tol, max_iter=max_iter)), pencil


@pytest.fixture(scope="session")
def golden_run():
    return run_square(5, 8, ClusterSpec(99, 108))


@pytest.fixture(scope="session")
def oracle_scale_run():
    report, pencil = run_square(3, 6, ClusterSpec(99, 108), max_iter=120)
    reference = dense_discrete_spectrum(pencil, 108)
    return report, pencil, reference


@pytest.fixture(scope="session")
def robustness_runs():
    return {fine: run_square(3, fine, ClusterSpec(21, 26))[0] for fine in (5, 6, 7)}


def test_criterion_1_golden_table_reproduction(golden_run):
    rep, pencil = golden_run
    diffs = np.abs(rep.values - GOLDEN_LEVEL8)
    ok = (
        pencil.n == 65025
        and rep.converged
        and np.all(diffs <= 5e-4)
        and rep.iterations <= 1.5 * GOLDEN_ITERATIONS
    )
    report(
        1, ok,
        f"final cluster matches the golden fine-level-8 column to {diffs.max():.2e} "
        f"(tol 5e-4) in {rep.iterations} iterations (bound {int(1.5 * GOLDEN_ITERATIONS)})",
    )


def test_criterion_2_initialization_fidelity():
    # the ten golden starting values belong to the 961-dof mesh, so the
    # hierarchy is chosen with its initialization level there
    hier = build_hierarchy(DomainShape.SQUARE, 4, 6)
    assert hier.initial.n_dofs == 961
    pencil = assemble(hier.fine)
    state = initialize(hier, pencil, ClusterSpec(99, 108))
    got = state.ritz_values[98:108]
    diffs = np.abs(got - GOLDEN_INITIAL)
    report(2, bool(np.all(diffs <= 5e-6)),
           f"initial values 99..108 match the golden ones to {diffs.max():.2e} (tol 5e-6)")


def test_criterion_3_oracle_equivalence_small_scale(oracle_scale_run):
    rep, pencil, reference = oracle_scale_run
    lam_h = reference.values[98:108]
    rel = np.abs(rep.values - lam_h) / lam_h
    # analytic multiplets inside the cluster: 145 x4, 146 x2, 148 x2, 149 x2
    groups = [(99, 102), (103, 104), (105, 106), (107, 108)]
    M = pencil.mass
    worst_angle = 0.0
    for lo, hi in groups:
        mine = rep.vectors[:, lo - 99 : hi - 98]
        ref = reference.vectors[:, lo - 1 : hi]
        ref = ref @ np.linalg.inv(np.linalg.cholesky(ref.T @ (M @ ref)).T)
        s = np.linalg.svd(mine.T @ (M @ ref), compute_uv=False)
        worst_angle = max(worst_angle, float(np.arccos(np.clip(s.min(), -1.0, 1.0))))
    ok = rep.converged and np.all(rel <= 1e-8) and worst_angle <= 1e-4
    report(3, ok,
           f"values match the dense reference to {rel.max():.2e} relative and the "
           f"largest multiplet principal angle is {worst_angle:.2e} (tol 1e-4)")


def iterate_checking_invariants(shape, coarse, fine, cluster, max_iter=60):
    """Manual outer loop asserting the bounds on every Ritz index, every step."""
    hier = build_hierarchy(shape, coarse, fine)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    mass_fact = factorize(pencil.mass, expect_spd=True)
    coarse_piece = build_coarse_piece(hier, cluster.last)
    blocks = LocalBlocks(pencil, decomp)

    state = initialize(hier, pencil, cluster)
    budget = min(pencil.n, cluster.last + cluster.count * max_iter)
    lam_h = dense_discrete_spectrum(pencil, budget).values

    for _ in range(max_iter):
        assert np.all(state.ritz_values >= lam_h[: state.dim] - 1e-10)
        prec = prepare(blocks, coarse_piece, state.cluster_values())
        corrections = correction_step(state, prec)
        prev = state.ritz_values.copy()
        state = rayleigh_ritz(state, corrections, pencil)
        assert np.all(state.ritz_values[: len(prev)] <= prev + 1e-12)
        sn = stop_norm(state.residual, mass_fact)
        if sn < 1e-8:
            return True
    return False


def test_criterion_4_lower_bound_and_monotonicity_properties():
    instances = [
        (DomainShape.SQUARE, 2, 4, ClusterSpec(1, 3)),
        (DomainShape.SQUARE, 2, 5, ClusterSpec(10, 14)),
        (DomainShape.SQUARE, 3, 5, ClusterSpec(5, 8)),
        (DomainShape.LSHAPE, 2, 4, ClusterSpec(3, 6)),
        (DomainShape.LSHAPE, 3, 5, ClusterSpec(41, 47)),
    ]
    converged = 0
    for shape, coarse, fine, cluster in instances:
        converged += iterate_checking_invariants(shape, coarse, fine, cluster)
    report(4, converged == len(instances),
           f"Ritz values stayed above the discrete spectrum and decreased "
           f"monotonically on all {len(instances)} instances (every index, every step)")


def test_criterion_5_geometric_total_error_decay(oracle_scale_run):
    rep, _, reference = oracle_scale_run
    lam_h = reference.values[98:108]
    errors = [float(np.sum(rec.values - lam_h)) for rec in rep.trace]
    floor = 1e-10 * float(np.sum(lam_h))
    ratios = [
        errors[k] / errors[k - 1]
        for k in range(2, len(errors))
        if errors[k - 1] > floor
    ]
    gamma = fit_gamma(rep.trace, reference.values, 99, 108)
    ok = all(r < 1.0 for r in ratios) and gamma is not None and gamma < 0.9
    report(5, ok,
           f"all {len(ratios)} consecutive total-error ratios after the first "
           f"iteration are below one; fitted gamma = {gamma:.3f} (< 0.9)")


def test_criterion_6_h_robustness(robustness_runs):
    gaps = cluster_gaps(exact_square_eigenvalues(30), 21, 26)
    assert gaps.isolated, "cluster (21, 26) must be isolated before running"
    its = {fine: rep.iterations for fine, rep in robustness_runs.items()}
    spread = max(its.values()) - min(its.values())
    ok = all(rep.converged for rep in robustness_runs.values()) and spread <= 3
    report(6, ok,
           f"iteration counts across fine levels 5, 6, 7 are {its} "
           f"(pairwise spread {spread} <= 3)")


def test_criterion_7_H_scalability(robustness_runs):
    its = {3: robustness_runs[7].iterations}
    for coarse in (4, 5):
        rep, _ = run_square(coarse, 7, ClusterSpec(21, 26))
        assert rep.converged
        its[coarse] = rep.iterations
    ok = its[4] <= its[3] + 1 and its[5] <= its[4] + 1
    report(7, ok,
           f"iteration counts for coarse levels 3, 4, 5 at fine level 7 are {its} "
           f"(non-increasing within +1)")


def test_criterion_8_preconditioner_correctness():
    hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    coarse = build_coarse_piece(hier, 2)
    shift = 1.5
    prec = prepare(LocalBlocks(pencil, decomp), coarse, [shift])
    B = dense_preconditioner(pencil, decomp, coarse, shift)
    rng = np.random.default_rng(81)
    worst_equiv = 0.0
    worst_sym = 0.0
    for _ in range(20):
        r1 = rng.standard_normal(pencil.n)
        r2 = rng.standard_normal(pencil.n)
        t1 = prec.apply(r1, 0)
        want = B @ r1
        worst_equiv = max(worst_equiv,
                          np.linalg.norm(t1 - want) / np.linalg.norm(want))
        a = r1 @ prec.apply(r2, 0)
        b = r2 @ t1
        worst_sym = max(worst_sym, abs(a - b) / max(abs(a), abs(b)))
    ok = worst_equiv <= 1e-9 and worst_sym <= 1e-10
    report(8, ok,
           f"dense-assembly equivalence within {worst_equiv:.2e} (tol 1e-9) and "
           f"symmetry within {worst_sym:.2e} (tol 1e-10)")


def test_criterion_9_mesh_and_assembly_checks():
    counts_ok = (
        build_mesh(DomainShape.SQUARE, 8).n_dofs == 65025
        and build_mesh(DomainShape.SQUARE, 9).n_dofs == 261121
        and build_mesh(DomainShape.LSHAPE, 7).n_dofs == 48641
    )

    mesh = build_mesh(DomainShape.SQUARE, 5)
    pencil = assemble(mesh)
    lat = mesh.dof_lattice()
    away = np.all((lat >= 2) & (lat <= mesh.n_cells_per_side - 2), axis=1)
    sums = np.asarray(pencil.mass.sum(axis=1)).ravel()
    mass_ok = np.allclose(sums[away], mesh.spacing**2, rtol=1e-13)

    errs = []
    for level in (4, 5, 6, 7):
        p = assemble(build_mesh(DomainShape.SQUARE, level))
        v0 = np.ones(p.n)
        lam1 = spla.eigsh(p.stiffness, k=1, M=p.mass, sigma=0.0, which="LM", v0=v0)[0][0]
        errs.append(lam1 - 2.0)
    rate = np.polyfit(range(4), np.log2(errs), 1)[0]
    rate_ok = abs(-rate - 2.0) <= 0.1

    report(9, counts_ok and mass_ok and rate_ok,
           f"golden dof counts reproduced, interior mass row sums equal g^2, "
           f"and the smallest-eigenvalue convergence rate over levels 4..7 is "
           f"{-rate:.3f} (2.0 +/- 0.1)")
