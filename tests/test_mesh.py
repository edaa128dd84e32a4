import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd.errors import InvalidArgumentError
from schwarzjd.fem import assemble
from schwarzjd.mesh import (
    DomainShape,
    build_decomposition,
    build_hierarchy,
    build_mesh,
)


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
        assert len(mesh.triangles) == 8

    def test_triangle_count(self):
        assert len(build_mesh(DomainShape.SQUARE, 3).triangles) == 2 * 4**3
        assert len(build_mesh(DomainShape.LSHAPE, 3).triangles) == 6 * 4**3

    @pytest.mark.parametrize("shape", list(DomainShape))
    def test_triangle_areas_exactly_half_cell(self, shape):
        mesh = build_mesh(shape, 3)
        lat = mesh.lattice[mesh.triangles]
        d1 = lat[:, 1] - lat[:, 0]
        d2 = lat[:, 2] - lat[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(det == 1)  # signed area = det * g^2 / 2 = g^2 / 2

    def test_node_ordering_lexicographic_by_y_then_x(self):
        mesh = build_mesh(DomainShape.SQUARE, 3)
        pts = mesh.points[mesh.dof_nodes]
        keys = pts[:, 1] * 100.0 + pts[:, 0]
        assert np.all(np.diff(keys) > 0)

    def test_spacing(self):
        mesh = build_mesh(DomainShape.SQUARE, 4)
        assert mesh.spacing == pytest.approx(np.pi / 16)
        assert mesh.mesh_size == pytest.approx(np.sqrt(2) * np.pi / 16)

    def test_lshape_excludes_removed_quadrant(self):
        mesh = build_mesh(DomainShape.LSHAPE, 3)
        pts = mesh.points[mesh.dof_nodes]
        assert not np.any((pts[:, 0] >= -1e-12) & (pts[:, 1] <= 1e-12))

    @pytest.mark.parametrize("level", [0, -1])
    def test_invalid_level_rejected(self, level):
        with pytest.raises(InvalidArgumentError):
            build_mesh(DomainShape.SQUARE, level)

    def test_unknown_domain_rejected(self):
        with pytest.raises(InvalidArgumentError, match="got 'hexagon'"):
            build_mesh("hexagon", 3)


class TestHierarchy:
    def test_levels_and_sizes(self):
        hier = build_hierarchy(DomainShape.SQUARE, 5, 8)
        assert hier.coarse.level == 5
        assert hier.initial.level == 6
        assert hier.fine.level == 8
        assert hier.coarse.mesh_size == pytest.approx(np.sqrt(2) * np.pi / 2**5)
        assert hier.initial.mesh_size == pytest.approx(np.sqrt(2) * np.pi / 2**6)
        assert hier.fine.mesh_size == pytest.approx(np.sqrt(2) * np.pi / 2**8)

    def test_prolongation_shape(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        assert hier.coarse_to_fine.shape == (225, 49)

    def test_nodal_basis_reproduced_at_coincident_fine_node(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        e1 = np.zeros(49)
        e1[0] = 1.0
        lifted = hier.coarse_to_fine @ e1
        coarse_xy = hier.coarse.points[hier.coarse.dof_nodes[0]]
        fine_xy = hier.fine.points[hier.fine.dof_nodes]
        at = np.where(np.all(np.isclose(fine_xy, coarse_xy), axis=1))[0]
        assert len(at) == 1
        assert lifted[at[0]] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", list(DomainShape))
    def test_coarse_node_values_interpolate_exactly(self, shape):
        # restricting interpolated coarse nodal vectors back to coarse
        # node positions is the identity
        hier = build_hierarchy(shape, 2, 4)
        r = hier.refinement_ratio
        P = hier.coarse_to_fine.toarray()
        coarse_lat = hier.coarse.dof_lattice()
        fine_grid = hier.fine.dof_grid
        fine_rows = fine_grid[coarse_lat[:, 1] * r, coarse_lat[:, 0] * r]
        assert np.all(fine_rows >= 0)
        restricted = P[fine_rows]
        assert np.allclose(restricted, np.eye(hier.coarse.n_dofs), atol=1e-14)

    def test_partition_of_unity_away_from_boundary(self):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        ones = np.ones(hier.coarse.n_dofs)
        lifted = hier.coarse_to_fine @ ones
        fine_xy = hier.fine.points[hier.fine.dof_nodes]
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
    for P, mesh in ((hier.coarse_to_fine, hier.coarse), (hier.initial_to_fine, hier.initial)):
        pencil = assemble(mesh)
        assert galerkin_error(P, fine.stiffness, pencil.stiffness) <= 1e-13
        assert galerkin_error(P, fine.mass, pencil.mass) <= 1e-13


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
        union = np.unique(np.concatenate(dec.subdomains))
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
            assert np.bincount(np.concatenate(dec.subdomains)).max() == 4

    def test_overlap_too_small_rejected(self):
        hier = build_hierarchy(DomainShape.SQUARE, 3, 4)
        with pytest.raises(InvalidArgumentError):
            build_decomposition(hier, 0.1)  # 0.1 * 2 fine cells < 1 layer

    @pytest.mark.parametrize("ratio", [0.0, -0.25, 0.75])
    def test_out_of_range_ratio_rejected(self, ratio):
        hier = build_hierarchy(DomainShape.SQUARE, 2, 4)
        with pytest.raises(InvalidArgumentError):
            build_decomposition(hier, ratio)
