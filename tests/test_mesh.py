import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schwarzjd import linalg
from schwarzjd.errors import InvalidArgumentError, ProblemTooLargeError
from schwarzjd.fem import assemble
from schwarzjd.mesh import (
    Decomposition,
    DomainShape,
    build_decomposition,
    build_hierarchy,
    build_mesh,
)

from .helpers import assert_same_csr, mesh_triangles


def dof_points(mesh):
    """Physical coordinates of the interior dofs, shape (n_dofs, 2)."""
    origin = 0.0 if mesh.shape is DomainShape.SQUARE else -math.pi
    return origin + mesh.dof_lattice() * mesh.spacing


def expected_dofs(shape, level):
    if shape is DomainShape.SQUARE:
        return (2**level - 1) ** 2
    return (2 ** (level + 1) - 1) ** 2 - 4**level


class TestBuildMesh:
    @pytest.mark.parametrize("shape", list(DomainShape))
    @pytest.mark.parametrize("level", range(1, 11))
    def test_dof_count_formula(self, shape, level):
        mesh = build_mesh(shape, level)
        assert mesh.n_dofs == expected_dofs(shape, level)

    def test_square_level8_golden_dof_count(self):
        assert build_mesh(DomainShape.SQUARE, 8).n_dofs == 65025

    def test_lshape_level7_golden_dof_count(self):
        assert build_mesh(DomainShape.LSHAPE, 7).n_dofs == 48641

    def test_square_level1_single_dof_eight_triangles(self):
        mesh = build_mesh(DomainShape.SQUARE, 1)
        assert mesh.n_dofs == 1
        _, dofs = mesh_triangles(mesh)
        assert len(dofs) == 8
        assert np.count_nonzero((dofs == 0).any(axis=1)) == 6  # the dof's six triangles

    def test_triangle_count(self):
        assert len(mesh_triangles(build_mesh(DomainShape.SQUARE, 3))[1]) == 2 * 4**3
        assert len(mesh_triangles(build_mesh(DomainShape.LSHAPE, 3))[1]) == 6 * 4**3

    @pytest.mark.parametrize("shape", list(DomainShape))
    def test_triangle_areas_exactly_half_cell(self, shape):
        mesh = build_mesh(shape, 3)
        lat, _ = mesh_triangles(mesh)
        d1 = lat[:, 1] - lat[:, 0]
        d2 = lat[:, 2] - lat[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(det == 1)  # signed area = det * g^2 / 2 = g^2 / 2

    def test_node_ordering_lexicographic_by_y_then_x(self):
        mesh = build_mesh(DomainShape.SQUARE, 3)
        pts = dof_points(mesh)
        keys = pts[:, 1] * 100.0 + pts[:, 0]
        assert np.all(np.diff(keys) > 0)

    def test_spacing(self):
        mesh = build_mesh(DomainShape.SQUARE, 4)
        assert mesh.spacing == pytest.approx(np.pi / 16)

    def test_lshape_excludes_removed_quadrant(self):
        mesh = build_mesh(DomainShape.LSHAPE, 3)
        pts = dof_points(mesh)
        assert not np.any((pts[:, 0] >= -1e-12) & (pts[:, 1] <= 1e-12))

    @pytest.mark.parametrize("level", [0, -1, True, 2.0, "2"])
    def test_invalid_level_rejected(self, level):
        with pytest.raises(InvalidArgumentError, match=re.escape(repr(level))):
            build_mesh(DomainShape.SQUARE, level)
        with pytest.raises(InvalidArgumentError, match=re.escape(repr(level))):
            build_hierarchy(DomainShape.SQUARE, level, 4)

    @pytest.mark.parametrize("shape, fits", [(DomainShape.SQUARE, 4), (DomainShape.LSHAPE, 3)])
    def test_dof_grid_beyond_memory_rejected(self, monkeypatch, shape, fits):
        # Both meshes at level ``fits`` have a 17 x 17 int64 dof grid.
        monkeypatch.setattr(linalg, "_MEMORY_BUDGET", 8 * 17**2)
        assert build_mesh(shape, fits).dof_grid.shape == (17, 17)
        with pytest.raises(ProblemTooLargeError, match=f"level {fits + 1} .* GiB"):
            build_mesh(shape, fits + 1)

    def test_huge_level_rejected_without_forming_its_grid_size(self):
        with pytest.raises(ProblemTooLargeError, match=r"\(2\^1000000001 \+ 1\)\^2"):
            build_mesh(DomainShape.LSHAPE, 10**9)

    def test_unknown_domain_rejected(self):
        with pytest.raises(InvalidArgumentError, match="got 'hexagon'"):
            build_mesh("hexagon", 3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(DomainShape)), level=st.integers(1, 7))
def test_derived_mesh_arrays_agree_with_the_dof_grid(shape, level):
    # LocalBlocks and the tests read dof coordinates from dof_lattice(): dof
    # d sits at the d-th interior lattice point in (y, x) order.
    mesh = build_mesh(shape, level)
    lat = mesh.dof_lattice()
    assert lat.dtype == np.int64 and lat.shape == (mesh.n_dofs, 2)
    np.testing.assert_array_equal(mesh.dof_grid[lat[:, 1], lat[:, 0]], np.arange(mesh.n_dofs))
    keys = lat[:, 1] * mesh.dof_grid.shape[1] + lat[:, 0]
    assert np.all(np.diff(keys) > 0)


class TestHierarchy:
    def test_levels_and_sizes(self):
        hier = build_hierarchy(DomainShape.SQUARE, 5, 8)
        assert hier.coarse.level == 5
        assert hier.initial.level == 6
        assert hier.fine.level == 8
        assert hier.coarse.spacing == pytest.approx(np.pi / 2**5)
        assert hier.initial.spacing == pytest.approx(np.pi / 2**6)
        assert hier.fine.spacing == pytest.approx(np.pi / 2**8)

    def test_prolongation_shape(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        assert hier.fine_to_coarse.T.shape == (225, 49)
        assert hier.fine_to_initial.T.shape == (225, 225)

    def test_nodal_basis_reproduced_at_coincident_fine_node(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        e1 = np.zeros(49)
        e1[0] = 1.0
        lifted = hier.fine_to_coarse.T @ e1
        coarse_xy = dof_points(hier.coarse)[0]
        fine_xy = dof_points(hier.fine)
        at = np.where(np.all(np.isclose(fine_xy, coarse_xy), axis=1))[0]
        assert len(at) == 1
        assert lifted[at[0]] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", list(DomainShape))
    def test_coarse_node_values_interpolate_exactly(self, shape):
        # restricting interpolated coarse nodal vectors back to coarse
        # node positions is the identity
        hier = build_hierarchy(shape, 2, 4)
        r = hier.refinement_ratio
        P = hier.fine_to_coarse.T.toarray()
        coarse_lat = hier.coarse.dof_lattice()
        fine_grid = hier.fine.dof_grid
        fine_rows = fine_grid[coarse_lat[:, 1] * r, coarse_lat[:, 0] * r]
        assert np.all(fine_rows >= 0)
        restricted = P[fine_rows]
        assert np.allclose(restricted, np.eye(hier.coarse.n_dofs), atol=1e-14)

    def test_partition_of_unity_away_from_boundary(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        ones = np.ones(hier.coarse.n_dofs)
        lifted = hier.fine_to_coarse.T @ ones
        fine_xy = dof_points(hier.fine)
        g_coarse = hier.coarse.spacing
        interior = np.all(
            (fine_xy > g_coarse - 1e-12) & (fine_xy < np.pi - g_coarse + 1e-12), axis=1
        )
        assert np.allclose(lifted[interior], 1.0, atol=1e-14)

    def test_non_nested_levels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_hierarchy(DomainShape.SQUARE, 3, 3)
        with pytest.raises(InvalidArgumentError):
            build_hierarchy(DomainShape.SQUARE, 0, 2)


def galerkin_error(P, fine, coarse) -> float:
    """max |P' A_fine P - A_coarse| / max |A_coarse|."""
    return abs(P.T @ fine @ P - coarse).max() / abs(coarse).max()


@pytest.mark.parametrize("shape", list(DomainShape), ids=lambda shape: shape.value)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(levels=st.integers(1, 3).flatmap(lambda c: st.tuples(st.just(c), st.integers(c + 1, 6))))
def test_prolongations_are_galerkin(shape, levels):
    # nested P1 spaces: interpolation reproduces the coarse forms exactly
    hier = build_hierarchy(shape, *levels)
    fine = assemble(hier.fine)
    for P, mesh in ((hier.fine_to_coarse.T, hier.coarse), (hier.fine_to_initial.T, hier.initial)):
        pencil = assemble(mesh)
        assert galerkin_error(P, fine.stiffness, pencil.stiffness) <= 1e-13
        assert galerkin_error(P, fine.mass, pencil.mass) <= 1e-13


def reference_prolongation(coarse, fine):
    """Interpolation matrix as four COO groups (LL, LR, UR, UL), converted once."""
    r = 1 << (fine.level - coarse.level)
    fl = fine.dof_lattice()
    cx, sx = np.divmod(fl[:, 0], r)
    cy, sy = np.divmod(fl[:, 1], r)
    s, t = sx / r, sy / r
    lower = s >= t
    grid = coarse.dof_grid
    groups = [
        (grid[cy, cx], np.where(lower, 1.0 - s, 1.0 - t)),
        (grid[cy, cx + 1], np.where(lower, s - t, 0.0)),
        (grid[cy + 1, cx + 1], np.where(lower, t, s)),
        (grid[cy + 1, cx], np.where(lower, 0.0, t - s)),
    ]
    rows = np.arange(fine.n_dofs)
    ri, ci, vi = [], [], []
    for col, w in groups:
        keep = (col >= 0) & (w != 0.0)
        ri.append(rows[keep])
        ci.append(col[keep])
        vi.append(w[keep])
    P = sp.coo_matrix((np.concatenate(vi), (np.concatenate(ri), np.concatenate(ci))),
                      shape=(fine.n_dofs, coarse.n_dofs))
    return P.tocsr()


def reference_subdomains(hier, overlap_ratio):
    """Subdomain dof arrays from one clipped grid window per coarse cell."""
    r = hier.refinement_ratio
    layers = max(1, int(math.floor(overlap_ratio * r + 0.5)))
    grid = hier.fine.dof_grid
    N = grid.shape[0]
    corners, _ = mesh_triangles(hier.coarse)
    cells = corners[0::2, 0]  # LL corner of each cell, in cell order
    subdomains = []
    for i, j in cells:
        x0, x1 = max(i * r - layers + 1, 0), min((i + 1) * r + layers - 1, N - 1)
        y0, y1 = max(j * r - layers + 1, 0), min((j + 1) * r + layers - 1, N - 1)
        block = grid[y0 : y1 + 1, x0 : x1 + 1].ravel()
        subdomains.append(block[block >= 0])
    return subdomains


level_pairs = st.integers(1, 6).flatmap(lambda c: st.tuples(st.just(c), st.integers(c + 1, 7)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(DomainShape)), levels=level_pairs)
# the three benchmark hierarchies and the golden one, which the draws need not reach
@example(shape=DomainShape.SQUARE, levels=(3, 6))
@example(shape=DomainShape.SQUARE, levels=(3, 5))
@example(shape=DomainShape.LSHAPE, levels=(4, 6))
@example(shape=DomainShape.SQUARE, levels=(5, 8))
def test_prolongation_matches_coo_reference(shape, levels):
    hier = build_hierarchy(shape, *levels)
    for restriction, mesh in ((hier.fine_to_coarse, hier.coarse), (hier.fine_to_initial, hier.initial)):
        assert_same_csr(restriction.T.tocsr(), reference_prolongation(mesh, hier.fine))


@pytest.mark.parametrize("coarse_level", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", list(DomainShape), ids=lambda shape: shape.value)
def test_kept_restriction_is_the_transposed_prolongation(shape, coarse_level):
    hier = build_hierarchy(shape, coarse_level, coarse_level + 2)
    for restriction, mesh in ((hier.fine_to_coarse, hier.coarse), (hier.fine_to_initial, hier.initial)):
        assert_same_csr(restriction, reference_prolongation(mesh, hier.fine).T.tocsr())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(DomainShape)),
       levels=st.integers(1, 4).flatmap(
           lambda c: st.tuples(st.just(c), st.integers(c + 1, c + 4))),
       columns=st.one_of(st.none(), st.integers(1, 40)), order=st.sampled_from("CF"))
# the three benchmark hierarchies and the golden one, which the draws need not reach
@example(shape=DomainShape.SQUARE, levels=(3, 6), columns=None, order="C")
@example(shape=DomainShape.SQUARE, levels=(3, 5), columns=10, order="F")
@example(shape=DomainShape.LSHAPE, levels=(4, 6), columns=3, order="C")
@example(shape=DomainShape.SQUARE, levels=(5, 8), columns=40, order="F")
def test_transposed_restriction_products_match_csr_copy(shape, levels, columns, order):
    # A product with the transposed view adds each fine entry's terms in the
    # ascending coarse order of a CSR copy of the prolongation, bit for bit.
    hier = build_hierarchy(shape, *levels)
    rng = np.random.default_rng([levels[0], levels[1], columns or 0])
    for restriction in (hier.fine_to_coarse, hier.fine_to_initial):
        size = (restriction.shape[0],) if columns is None else (restriction.shape[0], columns)
        x = np.asarray(rng.standard_normal(size), order=order)
        got, want = restriction.T @ x, restriction.T.tocsr() @ x
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(DomainShape)),
       case=level_pairs.flatmap(lambda lv: st.tuples(
           st.just(lv), st.floats(1.0 / (1 << (lv[1] - lv[0])), 0.5))))
def test_decomposition_matches_per_cell_reference(shape, case):
    levels, ratio = case
    hier = build_hierarchy(shape, *levels)
    dec = build_decomposition(hier, ratio)
    expected = reference_subdomains(hier, ratio)
    assert dec.dofs.dtype == dec.offsets.dtype == np.int64
    assert dec.offsets[0] == 0 and dec.offsets[-1] == len(dec.dofs)
    assert dec.dofs.tobytes() == np.concatenate(expected).tobytes()
    assert np.diff(dec.offsets).tolist() == [len(ref) for ref in expected]


class TestDecomposition:
    def test_square_subdomain_count(self):
        hier = build_hierarchy(DomainShape.SQUARE, 5, 7)
        dec = build_decomposition(hier, 0.25)
        assert dec.n_subdomains == 1024

    def test_lshape_subdomain_count(self):
        hier = build_hierarchy(DomainShape.LSHAPE, 4, 6)
        dec = build_decomposition(hier, 0.25)
        assert dec.n_subdomains == 3 * 4**4

    def test_overlap_layer_quantization(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        assert build_decomposition(hier, 0.25).overlap_layers == 1
        assert build_decomposition(hier, 0.5).overlap_layers == 2

    @pytest.mark.parametrize(
        "shape,coarse,fine,ratio",
        [
            (DomainShape.SQUARE, 2, 4, 0.25),
            (DomainShape.SQUARE, 3, 5, 0.5),
            (DomainShape.LSHAPE, 2, 4, 0.25),
            (DomainShape.LSHAPE, 3, 5, 0.25),
        ],
    )
    def test_subdomains_cover_all_fine_dofs(self, shape, coarse, fine, ratio):
        hier = build_hierarchy(shape, coarse, fine)
        dec = build_decomposition(hier, ratio)
        union = np.unique(dec.dofs)
        assert len(union) == hier.fine.n_dofs

    def test_subdomain_dofs_sorted_and_interior(self):
        hier = build_hierarchy(DomainShape.LSHAPE, 2, 4)
        dec = build_decomposition(hier, 0.25)
        for dofs in dec.subdomains:
            assert len(dofs) > 0
            assert np.all(np.diff(dofs) > 0)
            assert dofs[-1] < hier.fine.n_dofs

    def test_covering_multiplicity_independent_of_subdomain_count(self):
        # Finite covering: the most subdomains sharing one fine dof does not
        # grow with the number of subdomains.
        for coarse, fine in [(2, 4), (3, 5), (4, 6)]:
            hier = build_hierarchy(DomainShape.SQUARE, coarse, fine)
            dec = build_decomposition(hier, 0.25)
            assert np.bincount(dec.dofs).max() == 4

    def test_overlap_too_small_rejected(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        with pytest.raises(InvalidArgumentError):
            build_decomposition(hier, 0.1)  # 0.1 * 2 fine cells < 1 layer

    @pytest.mark.parametrize("ratio", [0.0, -0.25, 0.75, "0.25", True])
    def test_out_of_range_ratio_rejected(self, ratio):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        with pytest.raises(InvalidArgumentError, match=re.escape(repr(ratio))):
            build_decomposition(hier, ratio)

    @pytest.mark.parametrize("sets", [
        [[], [1, 2]],
        [[1, 2], [], [3]],
        [[1, 2], [4, 3]],
        [[1, 2, 2], [3]],
        [[-1, 2], [3]],
    ], ids=["empty-first", "empty-middle", "descending", "repeated", "negative"])
    def test_empty_or_unsorted_subdomain_rejected(self, sets):
        offsets = np.cumsum([0] + [len(d) for d in sets])
        dofs = np.array([i for d in sets for i in d], dtype=np.int64)
        with pytest.raises(InvalidArgumentError, match="non-empty and strictly ascending"):
            Decomposition(dofs=dofs, offsets=offsets, overlap_layers=1)

    @pytest.mark.parametrize("layers", ["a", -1, 0, 1.0, True])
    def test_overlap_that_is_not_a_positive_integer_rejected(self, layers):
        message = f"overlap_layers must be an integer >= 1, got {layers!r}"
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            Decomposition(dofs=[0, 1], offsets=[0, 2], overlap_layers=layers)

    @pytest.mark.parametrize("name", ["dofs", "offsets"])
    def test_non_integer_arrays_rejected(self, name):
        arrays = {"dofs": np.arange(3), "offsets": np.array([0, 3])}
        arrays[name] = arrays[name].astype(np.float64)
        with pytest.raises(InvalidArgumentError,
                           match=f"{name} must hold integers, got dtype float64"):
            Decomposition(**arrays, overlap_layers=1)

    def test_int64_arrays_are_kept_and_lists_stored_as_int64(self, monkeypatch):
        listed = Decomposition(dofs=[0, 1, 2], offsets=[0, 1, 3], overlap_layers=1)
        for a in (listed.dofs, listed.offsets):
            assert isinstance(a, np.ndarray) and a.dtype == np.int64
        given_arrays = []
        post_init = Decomposition.__post_init__

        def recording(self):
            given_arrays.extend([self.dofs, self.offsets])
            post_init(self)

        monkeypatch.setattr(Decomposition, "__post_init__", recording)
        built = build_decomposition(build_hierarchy(DomainShape.SQUARE, 2, 4), 0.25)
        assert built.dofs is given_arrays[0] and built.offsets is given_arrays[1]

    @pytest.mark.parametrize("dofs, offsets", [
        (np.arange(5), [1, 3]),
        (np.arange(3), [0, 2, 5]),
        (np.arange(3), []),
        (np.arange(3), [[0, 3]]),
        (np.arange(6).reshape(2, 3), [0, 2]),
        (np.int64(3), [0, 1]),
    ], ids=["late-start", "past-the-end", "empty", "two-dimensional", "two-dimensional-dofs",
            "scalar-dofs"])
    def test_offsets_that_do_not_span_the_dofs_rejected(self, dofs, offsets):
        with pytest.raises(InvalidArgumentError, match="offsets must run from 0"):
            Decomposition(dofs=dofs, offsets=np.array(offsets, dtype=np.int64),
                          overlap_layers=1)
