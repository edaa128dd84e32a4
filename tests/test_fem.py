import numpy as np
import pytest

from schwarzjd.fem import assemble
from schwarzjd.mesh import DomainShape, build_hierarchy, build_mesh


@pytest.fixture(scope="module")
def square4():
    mesh = build_mesh(DomainShape.SQUARE, 4)
    return mesh, assemble(mesh)


class TestAssembly:
    def test_level1_single_dof(self):
        # hand assembly over the 8 incident triangles of the single node
        mesh = build_mesh(DomainShape.SQUARE, 1)
        pencil = assemble(mesh)
        g = mesh.spacing
        assert pencil.stiffness.toarray().item() == pytest.approx(4.0)
        assert pencil.mass.toarray().item() == pytest.approx(g * g / 2)

    def test_interior_stiffness_stencil(self, square4):
        mesh, pencil = square4
        n = mesh.n_cells_per_side
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
        n = mesh.n_cells_per_side
        away = np.all((lat >= 2) & (lat <= n - 2), axis=1)
        sums = np.asarray(pencil.mass.sum(axis=1)).ravel()
        assert np.allclose(sums[away], g * g, rtol=1e-14)

    def test_full_mass_total_equals_domain_area(self):
        for shape, area in [(DomainShape.SQUARE, np.pi**2), (DomainShape.LSHAPE, 3 * np.pi**2)]:
            pencil = assemble(build_mesh(shape, 3), drop_boundary=False)
            assert pencil.mass.sum() == pytest.approx(area, rel=1e-13)

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
        P = hier.coarse_to_fine
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
