import functools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, lapack

from schwarzjd import linalg
from schwarzjd.errors import InvalidArgumentError, ProblemTooLargeError
from schwarzjd.fem import assemble
from schwarzjd.linalg import dense_generalized_eig
from schwarzjd.mesh import (
    Decomposition,
    DomainShape,
    build_decomposition,
    build_hierarchy,
    build_mesh,
)
from schwarzjd.schwarz import LocalBlocks, build_coarse_piece, prepare

from .helpers import decomposition, dense_preconditioner

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
        hier, pencil, decomp, coarse = setup
        blocks = LocalBlocks(hier.fine, decomp)
        prec = prepare(blocks, coarse, [1.9, 4.7])
        # interior, two edge orientations and corner: 4 classes of 16 subdomains
        assert decomp.n_subdomains == 16
        assert len(blocks.k_blocks) == 4
        assert [len(facts) for facts in prec._factorizations] == [4, 4]

    def test_zero_shift_gives_spd_blocks(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [0.0])
        assert prec.ldlt_fallbacks == 0

    def test_initialization_shift_within_coarse_margin(self, setup):
        hier, pencil, decomp, coarse = setup
        init = assemble(hier.initial)
        lam1 = dense_generalized_eig(init.stiffness.toarray(), init.mass.toarray()).values[0]
        assert coarse.values[0] - lam1 > 0
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [lam1])
        assert prec.shifts.tolist() == [lam1]
        assert prec.clamped_shifts == 0

    def test_shift_at_retained_coarse_eigenvalue_clamped(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [coarse.values[0], 1.0])
        assert prec.shifts.tolist() == [coarse.shift_cap, 1.0]
        assert prec.clamped_shifts == 1
        B = dense_preconditioner(pencil, decomp, coarse, coarse.shift_cap)
        rho = np.random.default_rng(40).standard_normal(pencil.n)
        want = B @ rho
        got = prec.apply(rho, 0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_coarse_piece_of_another_fine_mesh_rejected(self, setup, monkeypatch):
        hier, _, decomp, _ = setup
        other = build_hierarchy(DomainShape.SQUARE, 2, 5)
        monkeypatch.setattr(linalg, "factorize_shifted",
                            lambda *args: pytest.fail("factorized"))
        with pytest.raises(InvalidArgumentError, match="prolongs to 961 dofs, the local blocks "
                                                       "have 225"):
            prepare(LocalBlocks(hier.fine, decomp), build_coarse_piece(other, 3), [1.0, 2.0, 3.0])

    def test_empty_shift_list_rejected(self, setup):
        hier, pencil, decomp, coarse = setup
        with pytest.raises(InvalidArgumentError):
            prepare(LocalBlocks(hier.fine, decomp), coarse, [])

    @pytest.mark.parametrize("shifts", [
        [[1.0], [2.0]], [[1.0, 2.0]], [1.0, True], ["1.0"], 1.0, [np.nan], [1.0, np.inf],
    ], ids=["column", "row", "bool", "string", "scalar", "nan", "inf"])
    def test_shifts_other_than_a_flat_list_of_finite_numbers_rejected(self, setup, shifts,
                                                                      monkeypatch):
        hier, pencil, decomp, coarse = setup
        blocks = LocalBlocks(hier.fine, decomp)
        monkeypatch.setattr(linalg, "factorize_shifted",
                            lambda *args: pytest.fail("factorized"))
        with pytest.raises(InvalidArgumentError, match="flat list of finite real shifts"):
            prepare(blocks, coarse, shifts)


def test_coarse_eigensolve_admitted_up_to_its_memory(monkeypatch):
    hier = build_hierarchy(DomainShape.LSHAPE, 2, 3)
    need = 32 * hier.coarse.n_dofs**2  # two operands and the LAPACK workspace
    monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need)
    assert build_coarse_piece(hier, CUT).deflated_dim == hier.coarse.n_dofs - CUT
    monkeypatch.setattr(linalg, "_MEMORY_BUDGET", need - 1)
    with pytest.raises(ProblemTooLargeError, match=rf"level 2 \({hier.coarse.n_dofs} dofs\)"):
        build_coarse_piece(hier, CUT)


@pytest.mark.parametrize("shape", DOMAINS, ids=lambda shape: shape.value)
def test_coarse_piece_holds_the_columns_above_the_cut(shape):
    hier, pencil, decomp, _ = problem(shape)
    n_c = hier.coarse.n_dofs
    coarse_pencil = assemble(hier.coarse)
    full = dense_generalized_eig(coarse_pencil.stiffness, coarse_pencil.mass)
    blocks = LocalBlocks(hier.fine, decomp)
    rho = np.random.default_rng(46).standard_normal(pencil.n)
    for cut in (0, 2, n_c - 1, n_c, n_c + 5):
        piece = build_coarse_piece(hier, cut)
        assert piece.values.tobytes() == full.values[cut:].tobytes()
        assert piece.vectors.shape == (n_c, max(n_c - cut, 0))
        assert piece.vectors.tobytes() == full.vectors[:, cut:].tobytes()
        assert piece.deflated_dim == max(n_c - cut, 0)
        if cut >= n_c:  # one-level: the empty products are exact +0.0
            assert piece.shift_cap == np.inf
            out = prepare(blocks, piece, [1.5]).apply_coarse(rho, 0)
            assert out.shape == (pencil.n,)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))


@pytest.mark.parametrize("cut", [-1, 1.5, True])
def test_cluster_cut_must_be_a_non_negative_integer(cut):
    hier = build_hierarchy(DomainShape.SQUARE, 2, 3)
    with pytest.raises(InvalidArgumentError, match=f"got {cut!r}"):
        build_coarse_piece(hier, cut)


class TestLocalBlocks:
    @pytest.mark.parametrize("shape", DOMAINS)
    def test_blocks_equal_fancy_indexed_submatrices_byte_for_byte(self, shape):
        hier, pencil, decomp, _ = problem(shape)
        blocks = LocalBlocks(hier.fine, decomp)
        for dofs, c in zip(decomp.subdomains, blocks.class_of, strict=True):
            k_band, m_band = reference_bands(pencil, dofs)
            assert blocks.k_blocks[c].tobytes() == k_band.tobytes()
            assert blocks.m_blocks[c].tobytes() == m_band.tobytes()

    def test_lists_give_the_blocks_of_arrays(self):
        hier, _, decomp, _ = problem(DomainShape.LSHAPE)
        listed = Decomposition(dofs=decomp.dofs.tolist(), offsets=decomp.offsets.tolist(),
                               overlap_layers=decomp.overlap_layers)
        want, got = LocalBlocks(hier.fine, decomp), LocalBlocks(hier.fine, listed)
        assert got.class_of == want.class_of
        for name in ("k_blocks", "m_blocks", "positions"):
            for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.dofs.dtype == want.dofs.dtype and np.array_equal(got.dofs, want.dofs)


def reference_bands(pencil, dofs):
    """The lower bands of K[d][:, d] and M[d][:, d], each diagonal zero-padded at its
    end, down to the lowest diagonal that holds an entry of either block."""
    blocks = [A.tocsr()[dofs][:, dofs].toarray() for A in (pencil.stiffness, pencil.mass)]
    rows = max(int(np.max(np.subtract(*np.nonzero(b)), initial=0)) for b in blocks) + 1
    bands = []
    for block in blocks:
        band = np.zeros((rows, len(dofs)))
        for i in range(rows):
            band[i, :len(dofs) - i] = np.diagonal(block, -i)
        bands.append(band)
    return bands


def assert_block_equals_submatrix(block, pencil, which, dofs):
    """``block`` is the CSR ``A[d][:, d]``, or its lower band, of K (``which`` 0) or M (1)."""
    if sp.issparse(block):
        want = (pencil.stiffness, pencil.mass)[which].tocsr()[dofs][:, dofs]
        want.sort_indices()
        assert block.shape == want.shape and block.has_sorted_indices
        assert np.array_equal(block.indptr, want.indptr)
        assert np.array_equal(block.indices, want.indices)
        assert block.data.tobytes() == want.data.tobytes()
    else:
        want = reference_bands(pencil, dofs)[which]
        assert block.flags.f_contiguous and block.shape == want.shape
        assert block.tobytes() == want.tobytes()


def entry_classes(K, M, decomp):
    """Reference grouping: equal size and equal bytes of the local K and M entries."""
    classes, class_of = {}, []
    for dofs in decomp.subdomains:
        key = (len(dofs),)
        for A in (K, M):
            block = A[dofs][:, dofs]
            block.sort_indices()
            key += (block.indptr.tobytes(), block.indices.tobytes(), block.data.tobytes())
        class_of.append(classes.setdefault(key, len(classes)))
    return class_of


@functools.cache
def overlapped_problem(shape, coarse_level, fine_level, overlap):
    hier = build_hierarchy(shape, coarse_level, fine_level)
    return hier, assemble(hier.fine), build_decomposition(hier, overlap)


@pytest.mark.parametrize("dense_limit", [0, linalg.DENSE_LIMIT], ids=["sparse", "dense"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.sampled_from(DOMAINS), coarse_level=st.integers(1, 3), extra=st.integers(1, 3),
       overlap=st.sampled_from([0.125, 0.25, 0.5]))
def test_local_blocks_group_only_equal_blocks(dense_limit, shape, coarse_level, extra, overlap):
    assume(overlap * (1 << extra) >= 1.0)  # at least one fine layer
    hier, pencil, decomp = overlapped_problem(shape, coarse_level, coarse_level + extra, overlap)
    with mock.patch.object(linalg, "DENSE_LIMIT", dense_limit):
        blocks = LocalBlocks(hier.fine, decomp)
    assert len(blocks.k_blocks) == len(blocks.m_blocks) == max(blocks.class_of) + 1
    for dofs, c in zip(decomp.subdomains, blocks.class_of, strict=True):
        assert_block_equals_submatrix(blocks.k_blocks[c], pencil, 0, dofs)
        assert_block_equals_submatrix(blocks.m_blocks[c], pencil, 1, dofs)
    # neither coarser nor finer than grouping by the blocks' entries
    assert blocks.class_of == entry_classes(pencil.stiffness.tocsr(), pencil.mass.tocsr(), decomp)


@functools.cache
def lattice_pencil():
    mesh = build_mesh(DomainShape.SQUARE, 5)  # 31 x 31 dofs
    return mesh, assemble(mesh)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x0=st.integers(0, 19), y0=st.integers(0, 19), width=st.integers(1, 12),
       height=st.integers(1, 12), cut=st.tuples(st.integers(0, 11), st.integers(0, 11)),
       corner=st.integers(0, 3), interval=st.integers(0, 4), t=st.floats(0.1, 0.9),
       cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_banded_class_factorization_matches_the_dense_kernel(x0, y0, width, height, cut, corner,
                                                             interval, t, cols, seed):
    # a lattice box of up to 144 dofs, less a box at one corner: an L or the box itself
    mesh, pencil = lattice_pencil()
    box = np.ones((height, width), dtype=bool)
    cw, ch = min(cut[0], width - 1), min(cut[1], height - 1)
    ys = slice(None, ch) if corner < 2 else slice(height - ch, None)
    xs = slice(None, cw) if corner % 2 == 0 else slice(width - cw, None)
    box[ys, xs] = False
    dofs = mesh.dof_grid[1 + y0:1 + y0 + height, 1 + x0:1 + x0 + width][box]
    blocks = LocalBlocks(mesh, decomposition([dofs]))
    K, M = blocks.k_blocks[0], blocks.m_blocks[0]
    want_k, want_m = reference_bands(pencil, dofs)
    assert K.tobytes() == want_k.tobytes() and M.tobytes() == want_m.tobytes()

    # a shift below the lowest eigenvalue, or between two of the next ones
    Kd, Md = (A.tocsr()[dofs][:, dofs].toarray() for A in (pencil.stiffness, pencil.mass))
    lam = eigh(Kd, Md, eigvals_only=True)
    interval = min(interval, len(dofs) - 1)
    lo, hi = (-lam[0], lam[0]) if interval == 0 else lam[interval - 1:interval + 1]
    assume(hi - lo > 1e-3 * hi)  # not a repeated eigenvalue
    shift = lo + t * (hi - lo)
    S = Kd - shift * Md
    fact = linalg.factorize_shifted(K, M, shift)
    assert (fact.kind == "spd-cholesky") == bool(np.all(np.linalg.eigvalsh(S) > 0))
    assert (fact.kind == "spd-cholesky") == (interval == 0)

    rhs = np.random.default_rng(seed).standard_normal((len(dofs), cols))
    got = fact.solve(np.array(rhs, order="F"), overwrite=True)
    want = np.linalg.solve(S, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    if fact.kind == "symmetric-indefinite":
        # Bunch-Kaufman of the dense operand, as the dense route factorized it
        ldu, ipiv, _ = lapack.dsytrf(np.asfortranarray(S), lower=1)
        assert got.tobytes() == lapack.dsytrs(ldu, ipiv, rhs, lower=1)[0].tobytes()


def loop_apply_local(prec, decomp, rho, i):
    """Reference: one single-right-hand-side solve per subdomain, ascending order."""
    t = np.zeros(prec.n)
    facts = prec._factorizations[i]
    for dofs, c in zip(decomp.subdomains, prec._blocks.class_of, strict=True):
        t[dofs] += facts[c].solve(rho[dofs])
    return t


def assert_batched_local_solve_matches_loop(prec, decomp, rho):
    """Bitwise equal when every class is Cholesky; LDL^T solves round differently.
    The solves run in place on a copy: ``rho`` keeps its bits."""
    given = rho.copy()
    got = prec.apply_local(rho, 0)
    assert rho.tobytes() == given.tobytes()
    want = loop_apply_local(prec, decomp, rho, 0)
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
        prec = prepare(LocalBlocks(hier.fine, decomp), no_coarse, [shift])
    rho = np.random.default_rng(seed).standard_normal(pencil.n)
    assert_batched_local_solve_matches_loop(prec, decomp, rho)


def lattice_boxes(mesh, boxes):
    """The dofs of each lattice box (x0, x1, y0, y1), inclusive, in ascending order."""
    return [mesh.dof_grid[y0:y1 + 1, x0:x1 + 1].ravel() for x0, x1, y0, y1 in boxes]


@pytest.mark.parametrize("dense_limit", [0, linalg.DENSE_LIMIT], ids=["sparse", "dense"])
@settings(max_examples=20, deadline=None, derandomize=True)
# the local pencils of these sets have no eigenvalue below 37.06 or in
# (70, 73.13): shifts in the first range leave every class positive
# definite, those in the second make the 3 x 3 class indefinite
@given(shift=st.one_of(st.floats(-50.0, 30.0), st.floats(40.0, 70.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_local_solve_on_unsorted_overlapping_sets(dense_limit, shift, seed):
    hier, pencil, _, _ = problem(DomainShape.SQUARE)
    # overlapping sets in no lattice order: a 2 x 2 box, a row of three and a
    # 3 x 3 box, then translates of the first two, so that the two-member
    # classes interleave with a single-member one
    decomp = decomposition(lattice_boxes(hier.fine, [
        (1, 2, 1, 2), (2, 4, 2, 2), (2, 4, 2, 4), (3, 4, 3, 4), (3, 5, 4, 4)]))
    no_coarse = build_coarse_piece(hier, hier.coarse.n_dofs)
    with mock.patch.object(linalg, "DENSE_LIMIT", dense_limit):
        prec = prepare(LocalBlocks(hier.fine, decomp), no_coarse, [shift])
    assert prec._blocks.class_of == [0, 1, 2, 0, 1]
    rho = np.random.default_rng(seed).standard_normal(pencil.n)
    assert_batched_local_solve_matches_loop(prec, decomp, rho)


def test_coarse_piece_restricts_with_the_hierarchy_restriction(setup):
    hier, _, decomp, coarse = setup
    assert coarse.restriction is hier.fine_to_coarse
    assert build_coarse_piece(hier, 0).restriction is hier.fine_to_coarse
    # and the prolongation the preconditioner applies is a view of it, not a copy
    prolongation = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5])._prolongation
    for name in ("data", "indices", "indptr"):
        kept = getattr(hier.fine_to_coarse, name)
        assert np.shares_memory(getattr(prolongation, name), kept)


@pytest.mark.parametrize("shape", DOMAINS, ids=lambda shape: shape.value)
def test_restriction_products_match_transpose(shape):
    # The CSR restriction sums each coarse row in ascending fine-dof order,
    # as a product with the transpose of a CSR prolongation does.
    coarse = problem(shape, 3, 6)[3]
    assert coarse.restriction.format == "csr"
    prolongation = coarse.restriction.T.tocsr()
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((50, prolongation.shape[0])):
        assert (coarse.restriction @ x).tobytes() == (prolongation.T @ x).tobytes()


class TestApply:
    def test_zero_input_zero_output(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5])
        assert np.all(prec.apply(np.zeros(pencil.n), 0) == 0.0)

    def test_unprepared_index_rejected(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5, 2.5])
        for i in (2, -1):
            with pytest.raises(InvalidArgumentError, match="outside the prepared range 0..1"):
                prec.apply(np.zeros(pencil.n), i)

    @pytest.mark.parametrize("i", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_non_integer_index_rejected(self, setup, i):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5, 2.5])
        rho = np.random.default_rng(6).standard_normal(pencil.n)
        with pytest.raises(InvalidArgumentError, match=f"shift index must be an integer, got {i!r}"):
            prec.apply(rho, i)
        assert np.array_equal(prec.apply(rho, np.int64(1)), prec.apply(rho, 1))

    def test_symmetry(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5])
        rng = np.random.default_rng(41)
        for _ in range(20):
            r1 = rng.standard_normal(pencil.n)
            r2 = rng.standard_normal(pencil.n)
            a = r1 @ prec.apply(r2, 0)
            b = r2 @ prec.apply(r1, 0)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_linearity(self, setup):
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5])
        rng = np.random.default_rng(42)
        r1 = rng.standard_normal(pencil.n)
        r2 = rng.standard_normal(pencil.n)
        combined = prec.apply(2.5 * r1 - 0.75 * r2, 0)
        separate = 2.5 * prec.apply(r1, 0) - 0.75 * prec.apply(r2, 0)
        assert np.linalg.norm(combined - separate) <= 1e-10 * np.linalg.norm(separate)

    @pytest.mark.parametrize("shape, dense_limit", [
        (DomainShape.SQUARE, linalg.DENSE_LIMIT),
        (DomainShape.LSHAPE, linalg.DENSE_LIMIT),
        (DomainShape.SQUARE, 0),  # sparse blocks
    ], ids=["square", "lshape", "square-sparse"])
    def test_matches_densely_assembled_operator(self, shape, dense_limit, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_LIMIT", dense_limit)
        hier, pencil, decomp, coarse = problem(shape)
        shift = 1.5
        blocks = LocalBlocks(hier.fine, decomp)
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
        hier, pencil, decomp, coarse = setup
        prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [1.5])
        pencil_c = assemble(hier.coarse)
        deflated = dense_generalized_eig(pencil_c.stiffness, pencil_c.mass).vectors[:, :CUT]
        for j in range(CUT):
            lifted = coarse.restriction.T @ deflated[:, j]
            rho = pencil.mass @ lifted
            out = prec.apply_coarse(rho, 0)
            assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(lifted)

    def test_coarse_term_empty_when_cut_exceeds_coarse_dim(self, setup):
        hier, pencil, decomp, _ = setup
        big_cut = build_coarse_piece(hier, 10_000)
        assert big_cut.deflated_dim == 0
        assert big_cut.shift_cap == np.inf
        prec = prepare(LocalBlocks(hier.fine, decomp), big_cut, [1.5])
        rng = np.random.default_rng(44)
        rho = rng.standard_normal(pencil.n)
        assert np.all(prec.apply_coarse(rho, 0) == 0.0)

    def test_single_subdomain_no_coarse_is_exact_shifted_solve(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        pencil = assemble(hier.fine)
        whole = decomposition([np.arange(pencil.n)])
        shift = 1.5
        no_coarse = build_coarse_piece(hier, hier.coarse.n_dofs)
        prec = prepare(LocalBlocks(hier.fine, whole), no_coarse, [shift])
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
    hier, pencil, decomp, coarse = problem(shape)
    shift = fraction * coarse.values[0]
    assume(shift < coarse.values[0])  # the product may round up to the bound
    prec = prepare(LocalBlocks(hier.fine, decomp), coarse, [shift])
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(pencil.n)
    r2 = rng.standard_normal(pencil.n)
    t1 = prec.apply(r1, 0)
    t2 = prec.apply(r2, 0)
    a, b = r2 @ t1, r1 @ t2
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
    # against the prepared shift: one in (shift_cap, values[0]) is clamped
    want = dense_preconditioner(pencil, decomp, coarse, prec.shifts[0]) @ r1
    assert np.linalg.norm(t1 - want) <= 1e-9 * np.linalg.norm(want)
