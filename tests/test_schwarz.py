import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzjd import linalg
from schwarzjd.errors import InvalidArgumentError, ShiftOutOfRangeError
from schwarzjd.fem import assemble
from schwarzjd.linalg import dense_generalized_eig
from schwarzjd.mesh import (
    Decomposition,
    DomainShape,
    build_decomposition,
    build_hierarchy,
)
from schwarzjd.schwarz import _dense_blocks, _LocalBlocks, build_coarse_piece, prepare

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
        prec = prepare(pencil, decomp, coarse, [1.9, 4.7])
        # interior, two edge orientations and corner: 4 classes of 16 subdomains
        assert decomp.n_subdomains == 16
        assert len(prec.local_factorizations(0)) == 4
        assert prec.n_local_factorizations == 2 * 4

    def test_zero_shift_gives_spd_blocks(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [0.0])
        kinds = {f.kind for f in prec.local_factorizations(0)}
        assert kinds == {"spd-cholesky"}

    def test_initialization_shift_within_coarse_margin(self, setup):
        hier, pencil, decomp, coarse = setup
        init = assemble(hier.initial)
        lam1 = dense_generalized_eig(init.stiffness.toarray(), init.mass.toarray()).values[0]
        prec = prepare(pencil, decomp, coarse, [lam1])
        margin = prec.coarse_margin(0)
        assert margin == pytest.approx(coarse.values[CUT] - lam1, abs=1e-10)
        assert margin > 0

    def test_shift_at_retained_coarse_eigenvalue_rejected(self, setup):
        _, pencil, decomp, coarse = setup
        with pytest.raises(ShiftOutOfRangeError):
            prepare(pencil, decomp, coarse, [coarse.values[CUT]])

    def test_empty_shift_list_rejected(self, setup):
        _, pencil, decomp, coarse = setup
        with pytest.raises(InvalidArgumentError):
            prepare(pencil, decomp, coarse, [])

    def test_blocks_recycled_through_reuse(self, setup):
        _, pencil, decomp, coarse = setup
        first = prepare(pencil, decomp, coarse, [1.0])
        second = prepare(pencil, decomp, coarse, [2.0], reuse=first)
        assert second._blocks is first._blocks

    def test_reuse_from_another_pencil_with_same_subdomain_count(self, setup):
        _, pencil, decomp, coarse = setup
        first = prepare(pencil, decomp, coarse, [1.5])
        _, pencil5, decomp5, coarse5 = problem(DomainShape.SQUARE, 2, 5)
        assert decomp5.n_subdomains == decomp.n_subdomains
        second = prepare(pencil5, decomp5, coarse5, [1.5], reuse=first)
        assert second._blocks is not first._blocks
        B = dense_preconditioner(pencil5, decomp5, coarse5, 1.5)
        rho = np.random.default_rng(40).standard_normal(pencil5.n)
        want = B @ rho
        got = second.apply(rho, 0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestLocalBlocks:
    @pytest.mark.parametrize("shape", DOMAINS)
    def test_blocks_equal_fancy_indexed_submatrices_byte_for_byte(self, shape):
        _, pencil, decomp, _ = problem(shape)
        blocks = _LocalBlocks(pencil, decomp)
        K, M = pencil.stiffness.tocsr(), pencil.mass.tocsr()
        for dofs, c in zip(blocks.dof_sets, blocks.class_of):
            assert blocks.k_blocks[c].tobytes() == K[dofs][:, dofs].toarray().tobytes()
            assert blocks.m_blocks[c].tobytes() == M[dofs][:, dofs].toarray().tobytes()

    def test_unsorted_overlapping_sets_and_negative_zeros(self):
        A = sp.random(40, 40, density=0.3, random_state=7, format="csr")
        A.data[::3] = -0.0  # toarray turns stored -0.0 into +0.0
        sets = [np.array([5, 1, 30, 2]), np.array([2, 3, 4, 5, 39]), np.array([17])]
        for dofs, block in zip(sets, _dense_blocks(A, sets), strict=True):
            assert block.tobytes() == A[dofs][:, dofs].toarray().tobytes()


class TestApply:
    def test_zero_input_zero_output(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [1.5])
        assert np.all(prec.apply(np.zeros(pencil.n), 0) == 0.0)

    def test_unprepared_index_rejected(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [1.5])
        with pytest.raises(InvalidArgumentError):
            prec.apply(np.zeros(pencil.n), 1)

    def test_symmetry(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [1.5])
        rng = np.random.default_rng(41)
        for _ in range(20):
            r1 = rng.standard_normal(pencil.n)
            r2 = rng.standard_normal(pencil.n)
            a = r1 @ prec.apply(r2, 0)
            b = r2 @ prec.apply(r1, 0)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_linearity(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [1.5])
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
        prec = prepare(pencil, decomp, coarse, [shift])
        assert len(prec.local_factorizations(0)) < decomp.n_subdomains
        B = dense_preconditioner(pencil, decomp, coarse, shift)
        rng = np.random.default_rng(43)
        for _ in range(5):
            rho = rng.standard_normal(pencil.n)
            want = B @ rho
            got = prec.apply(rho, 0)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_coarse_term_annihilates_deflated_directions(self, setup):
        _, pencil, decomp, coarse = setup
        prec = prepare(pencil, decomp, coarse, [1.5])
        for j in range(CUT):
            lifted = coarse.prolongation @ coarse.vectors[:, j]
            rho = pencil.mass @ lifted
            out = prec.apply_coarse(rho, 0)
            assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(lifted)

    def test_coarse_term_empty_when_cut_exceeds_coarse_dim(self, setup):
        hier, pencil, decomp, _ = setup
        big_cut = build_coarse_piece(hier, 10_000)
        assert big_cut.deflated_dim == 0
        prec = prepare(pencil, decomp, big_cut, [1.5])
        rng = np.random.default_rng(44)
        rho = rng.standard_normal(pencil.n)
        assert np.all(prec.apply_coarse(rho, 0) == 0.0)
        assert prec.coarse_margin(0) is None

    def test_single_subdomain_no_coarse_is_exact_shifted_solve(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        pencil = assemble(hier.fine)
        whole = Decomposition(subdomains=[np.arange(pencil.n)], overlap_layers=1)
        shift = 1.5
        prec = prepare(pencil, whole, None, [shift])
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
    prec = prepare(pencil, decomp, coarse, [shift])
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(pencil.n)
    r2 = rng.standard_normal(pencil.n)
    t1 = prec.apply(r1, 0)
    t2 = prec.apply(r2, 0)
    a, b = r2 @ t1, r1 @ t2
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
    want = dense_preconditioner(pencil, decomp, coarse, shift) @ r1
    assert np.linalg.norm(t1 - want) <= 1e-9 * np.linalg.norm(want)
