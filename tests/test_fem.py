import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd.fem import assemble
from schwarzjd.mesh import DomainShape, build_hierarchy, build_mesh

from .helpers import assert_same_csr, mesh_triangles


@pytest.fixture(scope="module")
def square4():
    mesh = build_mesh(DomainShape.SQUARE, 4)
    return mesh, assemble(mesh)


class TestAssembly:
    def test_level1_single_dof(self):
        # hand assembly over the 6 incident triangles of the single node
        mesh = build_mesh(DomainShape.SQUARE, 1)
        pencil = assemble(mesh)
        g = mesh.spacing
        assert pencil.stiffness.toarray().item() == pytest.approx(4.0)
        assert pencil.mass.toarray().item() == pytest.approx(g * g / 2)

    def test_interior_stiffness_stencil(self, square4):
        mesh, pencil = square4
        n = 1 << mesh.level
        center = mesh.dof_grid[n // 2, n // 2]
        row = pencil.stiffness[center].toarray().ravel()
        assert row[center] == pytest.approx(4.0)
        neighbors = [
            mesh.dof_grid[n // 2, n // 2 - 1],
            mesh.dof_grid[n // 2, n // 2 + 1],
            mesh.dof_grid[n // 2 - 1, n // 2],
            mesh.dof_grid[n // 2 + 1, n // 2],
        ]
        for j in neighbors:
            assert row[j] == pytest.approx(-1.0)
        others = np.setdiff1d(np.arange(pencil.n), neighbors + [center])
        assert np.all(row[others] == 0.0)
        assert row.sum() == pytest.approx(0.0, abs=1e-14)

    def test_interior_mass_row_sum(self, square4):
        mesh, pencil = square4
        g = mesh.spacing
        lat = mesh.dof_lattice()
        n = 1 << mesh.level
        away = np.all((lat >= 2) & (lat <= n - 2), axis=1)
        sums = np.asarray(pencil.mass.sum(axis=1)).ravel()
        assert np.allclose(sums[away], g * g, rtol=1e-14)

    def test_full_mass_total_equals_domain_area(self):
        for shape, area in [(DomainShape.SQUARE, np.pi**2), (DomainShape.LSHAPE, 3 * np.pi**2)]:
            _, element_mass = element_matrices(build_mesh(shape, 3))
            assert element_mass.sum() == pytest.approx(area, rel=1e-13)

    @pytest.mark.parametrize("shape,level", [(DomainShape.SQUARE, 3), (DomainShape.LSHAPE, 2)])
    def test_exact_symmetry(self, shape, level):
        pencil = assemble(build_mesh(shape, level))
        assert abs(pencil.stiffness - pencil.stiffness.T).max() == 0.0
        assert abs(pencil.mass - pencil.mass.T).max() == 0.0

    @pytest.mark.parametrize("shape,level", [(DomainShape.SQUARE, 3), (DomainShape.LSHAPE, 2)])
    def test_positive_definiteness_on_random_vectors(self, shape, level):
        pencil = assemble(build_mesh(shape, level))
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(pencil.n)
            assert v @ (pencil.stiffness @ v) > 0
            assert v @ (pencil.mass @ v) > 0

    @pytest.mark.parametrize("shape", list(DomainShape))
    def test_galerkin_consistency_with_prolongation(self, shape):
        # nested P1 spaces: the assembled coarse pencil equals the
        # variationally projected fine pencil
        hier = build_hierarchy(shape, 2, 4)
        fine = assemble(hier.fine)
        coarse = assemble(hier.coarse)
        P = hier.fine_to_coarse.T
        for fine_mat, coarse_mat in [(fine.stiffness, coarse.stiffness), (fine.mass, coarse.mass)]:
            projected = (P.T @ (fine_mat @ P)).toarray()
            target = coarse_mat.toarray()
            assert np.abs(projected - target).max() <= 1e-12 * np.abs(target).max()

    def test_smallest_eigenvalue_converges_at_second_order(self):
        import scipy.linalg as sla

        errs = []
        for level in (3, 4, 5):
            pencil = assemble(build_mesh(DomainShape.SQUARE, level))
            lam = sla.eigh(
                pencil.stiffness.toarray(),
                pencil.mass.toarray(),
                eigvals_only=True,
                subset_by_index=(0, 0),
            )[0]
            errs.append(lam - 2.0)
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 2.0) < 0.1)


def element_matrices(mesh):
    """Element stiffness and mass, each (n_triangles, 3, 3), in closed form.

    Stiffness entries come from integer lattice differences, so they are
    exact dyadic rationals independent of the spacing.
    """
    corners, _ = mesh_triangles(mesh)
    ix, iy = corners[:, :, 0], corners[:, :, 1]
    b = iy[:, [1, 2, 0]] - iy[:, [2, 0, 1]]
    c = ix[:, [2, 0, 1]] - ix[:, [1, 2, 0]]
    det = (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]).astype(np.float64)
    ke = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ke = ke * (1.0 / (2.0 * det))[:, None, None]
    pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    me = (0.5 * det * mesh.spacing**2)[:, None, None] * pattern
    return ke, me


def reference_assemble(mesh):
    """(K, M) with one COO-to-CSR conversion per matrix, from the element matrices."""
    ke, me = element_matrices(mesh)
    _, idx = mesh_triangles(mesh)
    n = mesh.n_dofs
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    K = sp.coo_matrix((ke.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    M = sp.coo_matrix((me.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    K.eliminate_zeros()
    return K, M


def assert_matches_reference(mesh):
    pencil = assemble(mesh)
    K, M = reference_assemble(mesh)
    assert_same_csr(pencil.stiffness, K)
    assert_same_csr(pencil.mass, M)
    assert pencil.n == K.shape[0]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=st.sampled_from(list(DomainShape)), level=st.integers(1, 7))
def test_assembly_matches_two_conversion_reference(shape, level):
    # The stencils give the bits of the element-by-element assembly.
    assert_matches_reference(build_mesh(shape, level))


@pytest.mark.parametrize("shape", list(DomainShape))
def test_level8_assembly_matches_two_conversion_reference(shape):
    assert_matches_reference(build_mesh(shape, 8))


@pytest.mark.parametrize("shape", list(DomainShape))
@pytest.mark.parametrize("level", [1, 3, 5])
def test_full_stiffness_annihilates_constants_exactly(shape, level):
    # Constants lie in the kernel of every element stiffness, so the whole-
    # domain stiffness annihilates them; the dyadic row sums are exact.
    element_stiffness, _ = element_matrices(build_mesh(shape, level))
    assert np.all(element_stiffness.sum(axis=2) == 0.0)
