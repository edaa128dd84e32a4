import numpy as np
import pytest

from schwarzjd.errors import InvalidArgumentError, ProblemTooLargeError
from schwarzjd.fem import assemble
from schwarzjd.mesh import DomainShape, build_mesh
from schwarzjd.oracle import exact_square_eigenvalues

from .helpers import cluster_gaps, dense_discrete_spectrum


def naive_square_values():
    """Every p^2 + q^2 with p, q < 60, sorted; its first 2762 values (those <= 60^2) are exact."""
    return sorted(p * p + q * q for p in range(1, 60) for q in range(1, 60))


class TestExactSquareEigenvalues:
    def test_first_four(self):
        assert exact_square_eigenvalues(4).tolist() == [2, 5, 5, 8]

    def test_multiplet_block_99_to_108(self):
        vals = exact_square_eigenvalues(108)
        assert vals[98:108].tolist() == [145, 145, 145, 145, 146, 146, 148, 148, 149, 149]

    def test_multiplet_block_198_to_203(self):
        vals = exact_square_eigenvalues(203)
        assert vals[197:203].tolist() == [272, 272, 274, 274, 277, 277]

    def test_agrees_with_naive_enumeration(self):
        naive = naive_square_values()
        for count in range(1, 1001):
            vals = exact_square_eigenvalues(count)
            assert vals.dtype == np.float64
            assert vals.tolist() == naive[:count], count

    def test_invalid_count(self):
        for count in (0, 2.5, True):
            with pytest.raises(InvalidArgumentError, match=f"got {count!r}"):
                exact_square_eigenvalues(count)


class TestDenseDiscreteSpectrum:
    def test_level1_single_value(self):
        mesh = build_mesh(DomainShape.SQUARE, 1)
        ref = dense_discrete_spectrum(assemble(mesh), 1)
        assert ref.values[0] == pytest.approx(8 / mesh.spacing**2)

    def test_discrete_bounds_analytic_from_above(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 5))
        ref = dense_discrete_spectrum(pencil, 10)
        exact = exact_square_eigenvalues(10)
        assert np.all(ref.values >= exact)

    def test_second_order_error_decay(self):
        errs = []
        for level in (5, 6):
            pencil = assemble(build_mesh(DomainShape.SQUARE, level))
            lam1 = dense_discrete_spectrum(pencil, 1).values[0]
            errs.append(lam1 - 2.0)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_vectors_satisfy_pencil_equation(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        ref = dense_discrete_spectrum(pencil, 5)
        K = pencil.stiffness.toarray()
        M = pencil.mass.toarray()
        for j in range(5):
            r = K @ ref.vectors[:, j] - ref.values[j] * (M @ ref.vectors[:, j])
            assert np.linalg.norm(r) <= 1e-9 * ref.values[j]

    def test_invariant_under_dof_permutation(self):
        from schwarzjd.fem import SparsePencil

        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        rng = np.random.default_rng(31)
        p = rng.permutation(pencil.n)
        K = pencil.stiffness[p][:, p].tocsr()
        M = pencil.mass[p][:, p].tocsr()
        shuffled = SparsePencil(stiffness=K, mass=M, n=pencil.n)
        a = dense_discrete_spectrum(pencil, 8).values
        b = dense_discrete_spectrum(shuffled, 8).values
        assert np.allclose(a, b, rtol=1e-11)

    def test_feasibility_guard(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 7))  # 16129 dofs
        with pytest.raises(ProblemTooLargeError):
            dense_discrete_spectrum(pencil, 4)


class TestClusterGaps:
    def test_first_eigenvalue_uses_zero_below(self):
        ref = exact_square_eigenvalues(4)
        gaps = cluster_gaps(ref, 1, 1)
        assert (gaps.left, gaps.right) == (2.0, 3.0)
        assert gaps.isolated

    def test_multiplet_cluster_99_108(self):
        ref = exact_square_eigenvalues(120)
        gaps = cluster_gaps(ref, 99, 108)
        assert gaps.left == ref[98] - ref[97]
        assert gaps.right == ref[108] - ref[107]
        assert gaps.isolated

    def test_split_multiplet_flagged(self):
        ref = exact_square_eigenvalues(10)
        gaps = cluster_gaps(ref, 3, 4)  # splits the pair of 5s on the left
        assert gaps.left == 0.0
        assert not gaps.isolated

    def test_out_of_range_cluster_rejected(self):
        ref = exact_square_eigenvalues(10)
        with pytest.raises(InvalidArgumentError):
            cluster_gaps(ref, 5, 10)  # needs the 11th value
        for first, last in [(1.5, 3), (True, 3), (1, 3.0)]:
            with pytest.raises(InvalidArgumentError, match=rf"got \({first!r}, {last!r}\)"):
                cluster_gaps(ref, first, last)
