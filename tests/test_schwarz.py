import functools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzjd import linalg
from schwarzjd.errors import InvalidArgumentError
from schwarzjd.fem import assemble
from schwarzjd.linalg import dense_generalized_eig
from schwarzjd.mesh import (
    Decomposition,
    DomainShape,
    build_decomposition,
    build_hierarchy,
)
from schwarzjd.schwarz import CoarsePiece, LocalBlocks, build_coarse_piece, prepare

from .helpers import dense_preconditioner

CUT = 2  # deflate the first two coarse eigenpairs throughout
DOMAINS = [DomainShape.SQUARE, DomainShape.LSHAPE]


@functools.cache
def problem(shape, coarse_level=2, fine_level=4):
    hier = build_hierarchy(shape, coarse_level, fine_level)
    pencil = assemble(hier.fine)
    decomp = build_decomposition(hier, 0.25)
    coarse = build_coarse_piece(hier, CUT)
    return hier, pencil, decomp, coarse


@pytest.fixture(scope="module")
def setup():
    return problem(DomainShape.SQUARE)


class TestPrepare:
    def test_factorization_count(self, setup):
        _, pencil, decomp, coarse = setup
        blocks = LocalBlocks(pencil, decomp)
        prec = prepare(blocks, coarse, [1.9, 4.7])
        # interior, two edge orientations and corner: 4 classes of 16 subdomains
        assert decomp.n_subdomains == 16
        assert len(blocks.k_blocks) == 4
        assert [len(facts) for facts in prec._factorizations] == [4, 4]

    def test_zero_shift_gives_spd_blocks(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [0.0])
        assert prec.ldlt_fallbacks == 0

    def test_initialization_shift_within_coarse_margin(self, setup):
        hier, pencil, decomp, coarse = setup
        init = assemble(hier.initial)
        lam1 = dense_generalized_eig(init.stiffness.toarray(), init.mass.toarray()).values[0]
        assert coarse.values[CUT] - lam1 > 0
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [lam1])
        assert prec.shifts.tolist() == [lam1]
        assert prec.clamped_shifts == 0

    def test_shift_at_retained_coarse_eigenvalue_clamped(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [coarse.values[CUT], 1.0])
        assert prec.shifts.tolist() == [coarse.shift_cap, 1.0]
        assert prec.clamped_shifts == 1
        B = dense_preconditioner(pencil, decomp, coarse, coarse.shift_cap)
        rho = np.random.default_rng(40).standard_normal(pencil.n)
        want = B @ rho
        got = prec.apply(rho, 0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_empty_shift_list_rejected(self, setup):
        _, pencil, decomp, coarse = setup
        with pytest.raises(InvalidArgumentError):
            prepare(LocalBlocks(pencil, decomp), coarse, [])


# unsorted, overlapping dof sets of unequal sizes on a 40-dof stand-in pencil
UNSORTED_SETS = [np.array([5, 1, 30, 2]), np.array([2, 3, 4, 5, 39]), np.array([17])]


def stand_in_matrix():
    """A random 40 x 40 CSR matrix with stored negative zeros."""
    A = sp.random(40, 40, density=0.3, random_state=7, format="csr")
    A.data[::3] = -0.0  # toarray turns stored -0.0 into +0.0
    return A


class TestLocalBlocks:
    @pytest.mark.parametrize("shape", DOMAINS)
    def test_blocks_equal_fancy_indexed_submatrices_byte_for_byte(self, shape):
        _, pencil, decomp, _ = problem(shape)
        blocks = LocalBlocks(pencil, decomp)
        K, M = pencil.stiffness.tocsr(), pencil.mass.tocsr()
        for dofs, c in zip(blocks.dof_sets, blocks.class_of):
            assert blocks.k_blocks[c].tobytes() == K[dofs][:, dofs].toarray().tobytes()
            assert blocks.m_blocks[c].tobytes() == M[dofs][:, dofs].toarray().tobytes()

    def test_unsorted_overlapping_sets_and_negative_zeros(self):
        A = stand_in_matrix()
        pencil = SimpleNamespace(stiffness=A, mass=A)
        blocks = LocalBlocks(pencil, Decomposition(subdomains=UNSORTED_SETS, overlap_layers=1))
        for dofs, c in zip(UNSORTED_SETS, blocks.class_of, strict=True):
            assert blocks.k_blocks[c].tobytes() == A[dofs][:, dofs].toarray().tobytes()


def assert_block_equals_submatrix(block, A, dofs):
    want = A[dofs][:, dofs]
    if sp.issparse(block):
        want.sort_indices()
        assert block.shape == want.shape and block.has_sorted_indices
        assert np.array_equal(block.indptr, want.indptr)
        assert np.array_equal(block.indices, want.indices)
        assert block.data.tobytes() == want.data.tobytes()
    else:
        assert block.tobytes() == want.toarray().tobytes()


@pytest.mark.parametrize("dense_limit", [0, linalg.DENSE_LIMIT], ids=["sparse", "dense"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), density=st.floats(0.1, 0.6), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=12))
def test_local_blocks_group_only_equal_blocks(dense_limit, n, density, seed, picks):
    rng = np.random.default_rng(seed)

    def symmetric():
        # mostly stored diagonals and few distinct values, so that unequal
        # blocks often share their pattern or their values
        A = sp.random(n, n, density=density, random_state=rng, format="csr",
                      data_rvs=lambda k: rng.choice([-0.0, 1.0, 2.0], k))
        return (A + A.T + sp.diags(rng.choice([0.0, 1.0, 2.0], n))).tocsr()

    K, M = symmetric(), symmetric()
    # unsorted, overlapping dof sets, mostly small so that blocks collide;
    # repeated picks of the same set must share a class
    pool = [rng.permutation(n)[: int(rng.integers(1, min(n, 3) + 1))] for _ in range(7)]
    pool.append(rng.permutation(n))
    sets = [pool[i] for i in picks]
    pencil = SimpleNamespace(stiffness=K, mass=M)
    with mock.patch.object(linalg, "DENSE_LIMIT", dense_limit):
        blocks = LocalBlocks(pencil, Decomposition(subdomains=sets, overlap_layers=1))
    assert len(blocks.k_blocks) == len(blocks.m_blocks) == max(blocks.class_of) + 1
    for i, dofs, c in zip(picks, sets, blocks.class_of, strict=True):
        assert_block_equals_submatrix(blocks.k_blocks[c], K, dofs)
        assert_block_equals_submatrix(blocks.m_blocks[c], M, dofs)
        assert c == blocks.class_of[picks.index(i)]


def loop_apply_local(prec, rho, i):
    """Reference: one single-right-hand-side solve per subdomain, ascending order."""
    t = np.zeros(prec.n)
    facts = prec._factorizations[i]
    for dofs, c in zip(prec._blocks.dof_sets, prec._blocks.class_of):
        t[dofs] += facts[c].solve(rho[dofs])
    return t


def assert_batched_local_solve_matches_loop(prec, rho):
    """Bitwise equal when every class is Cholesky; LDL^T solves round differently."""
    got = prec.apply_local(rho, 0)
    want = loop_apply_local(prec, rho, 0)
    if all(f.kind == "spd-cholesky" for f in prec._factorizations[0]):
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("dense_limit", [0, linalg.DENSE_LIMIT], ids=["sparse", "dense"])
@pytest.mark.parametrize("shape", DOMAINS, ids=lambda shape: shape.value)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(shift=st.one_of(st.floats(-50.0, 0.0), st.floats(0.0, 400.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_local_solve_matches_subdomain_loop(dense_limit, shape, shift, seed):
    hier, pencil, decomp, _ = problem(shape)
    no_coarse = build_coarse_piece(hier, hier.coarse.n_dofs)
    with mock.patch.object(linalg, "DENSE_LIMIT", dense_limit):
        prec = prepare(LocalBlocks(pencil, decomp), no_coarse, [shift])
    rho = np.random.default_rng(seed).standard_normal(pencil.n)
    assert_batched_local_solve_matches_loop(prec, rho)


@pytest.mark.parametrize("dense_limit", [0, linalg.DENSE_LIMIT], ids=["sparse", "dense"])
@settings(max_examples=20, deadline=None, derandomize=True)
# on these sets, I - shift * A is singular only at shifts near -2.37 and 0.76
# for the dense path (lower triangle) and -6.08 and 0.95 for SuperLU
@given(shift=st.one_of(st.floats(-2.0, 0.5), st.floats(1.0, 20.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_local_solve_on_unsorted_overlapping_sets(dense_limit, shift, seed):
    # the repeated sets give two-member classes interleaved with a single-member one
    sets = UNSORTED_SETS + UNSORTED_SETS[:2]
    pencil = SimpleNamespace(stiffness=sp.identity(40, format="csr"), mass=stand_in_matrix(), n=40)
    no_coarse = CoarsePiece(sp.csr_matrix((40, 0)), np.empty(0), np.empty((0, 0)), 0)
    with mock.patch.object(linalg, "DENSE_LIMIT", dense_limit):
        blocks = LocalBlocks(pencil, Decomposition(subdomains=sets, overlap_layers=1))
        prec = prepare(blocks, no_coarse, [shift])
    assert prec._blocks.class_of == [0, 1, 2, 0, 1]
    assert_batched_local_solve_matches_loop(prec, np.random.default_rng(seed).standard_normal(40))


class TestApply:
    def test_zero_input_zero_output(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [1.5])
        assert np.all(prec.apply(np.zeros(pencil.n), 0) == 0.0)

    def test_unprepared_index_rejected(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [1.5, 2.5])
        for i in (2, -1):
            with pytest.raises(InvalidArgumentError, match="outside the prepared range 0..1"):
                prec.apply(np.zeros(pencil.n), i)

    def test_symmetry(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [1.5])
        rng = np.random.default_rng(41)
        for _ in range(20):
            r1 = rng.standard_normal(pencil.n)
            r2 = rng.standard_normal(pencil.n)
            a = r1 @ prec.apply(r2, 0)
            b = r2 @ prec.apply(r1, 0)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_linearity(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [1.5])
        rng = np.random.default_rng(42)
        r1 = rng.standard_normal(pencil.n)
        r2 = rng.standard_normal(pencil.n)
        combined = prec.apply(2.5 * r1 - 0.75 * r2, 0)
        separate = 2.5 * prec.apply(r1, 0) - 0.75 * prec.apply(r2, 0)
        assert np.linalg.norm(combined - separate) <= 1e-10 * np.linalg.norm(separate)

    @pytest.mark.parametrize("shape, dense_limit", [
        (DomainShape.SQUARE, linalg.DENSE_LIMIT),
        (DomainShape.LSHAPE, linalg.DENSE_LIMIT),
        (DomainShape.SQUARE, 0),  # sparse blocks, grouped by their CSR arrays
    ], ids=["square", "lshape", "square-sparse"])
    def test_matches_densely_assembled_operator(self, shape, dense_limit, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_LIMIT", dense_limit)
        _, pencil, decomp, coarse = problem(shape)
        shift = 1.5
        blocks = LocalBlocks(pencil, decomp)
        assert len(blocks.k_blocks) < decomp.n_subdomains
        prec = prepare(blocks, coarse, [shift])
        B = dense_preconditioner(pencil, decomp, coarse, shift)
        rng = np.random.default_rng(43)
        for _ in range(5):
            rho = rng.standard_normal(pencil.n)
            want = B @ rho
            got = prec.apply(rho, 0)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_coarse_term_annihilates_deflated_directions(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(pencil, decomp), coarse, [1.5])
        for j in range(CUT):
            lifted = coarse.prolongation @ coarse.vectors[:, j]
            rho = pencil.mass @ lifted
            out = prec.apply_coarse(rho, 0)
            assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(lifted)

    def test_coarse_term_empty_when_cut_exceeds_coarse_dim(self, setup):
        hier, pencil, decomp, _ = setup
        big_cut = build_coarse_piece(hier, 10_000)
        assert big_cut.deflated_dim == 0
        assert big_cut.shift_cap == np.inf
        prec = prepare(LocalBlocks(pencil, decomp), big_cut, [1.5])
        rng = np.random.default_rng(44)
        rho = rng.standard_normal(pencil.n)
        assert np.all(prec.apply_coarse(rho, 0) == 0.0)

    def test_single_subdomain_no_coarse_is_exact_shifted_solve(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        pencil = assemble(hier.fine)
        whole = Decomposition(subdomains=[np.arange(pencil.n)], overlap_layers=1)
        shift = 1.5
        no_coarse = build_coarse_piece(hier, hier.coarse.n_dofs)
        prec = prepare(LocalBlocks(pencil, whole), no_coarse, [shift])
        rng = np.random.default_rng(45)
        rho = rng.standard_normal(pencil.n)
        S = (pencil.stiffness - shift * pencil.mass).toarray()
        want = np.linalg.solve(S, rho)
        got = prec.apply(rho, 0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", DOMAINS, ids=lambda shape: shape.value)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_random_shift_symmetric_and_matches_dense_assembly(shape, fraction, seed):
    _, pencil, decomp, coarse = problem(shape)
    shift = fraction * coarse.values[CUT]
    assume(shift < coarse.values[CUT])  # the product may round up to the bound
    prec = prepare(LocalBlocks(pencil, decomp), coarse, [shift])
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(pencil.n)
    r2 = rng.standard_normal(pencil.n)
    t1 = prec.apply(r1, 0)
    t2 = prec.apply(r2, 0)
    a, b = r2 @ t1, r1 @ t2
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
    want = dense_preconditioner(pencil, decomp, coarse, shift) @ r1
    assert np.linalg.norm(t1 - want) <= 1e-9 * np.linalg.norm(want)
