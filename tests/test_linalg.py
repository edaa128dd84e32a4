import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzjd import linalg
from schwarzjd.errors import (
    EigensolverError,
    EmptyBasisError,
    IndefiniteMatrixError,
    InvalidArgumentError,
    SingularMatrixError,
)
from schwarzjd.fem import assemble
from schwarzjd.linalg import (
    DENSE_LIMIT,
    b_orthonormalize,
    dense_generalized_eig,
    factorize,
    factorize_shifted,
    lowest_eigenpairs,
)
from schwarzjd.mesh import DomainShape, build_mesh


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestFactorize:
    def test_identity_solves_return_rhs(self):
        fact = factorize(sp.identity(8, format="csr"), expect_spd=True)
        rhs = np.arange(8.0)
        assert np.allclose(fact.solve(rhs), rhs)

    def test_two_by_two_hand_solution(self):
        fact = factorize(np.array([[2.0, -1.0], [-1.0, 2.0]]), expect_spd=True)
        assert np.allclose(fact.solve(np.array([1.0, 0.0])), [2 / 3, 1 / 3])

    def test_spd_round_trip_small_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            S = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = factorize(S, expect_spd=True).solve(b)
            assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sparse_path_round_trip(self):
        # the stiffness matrix at level 5 exceeds the dense threshold
        pencil = assemble(build_mesh(DomainShape.SQUARE, 5))
        assert pencil.n > DENSE_LIMIT
        fact = factorize(pencil.stiffness, expect_spd=True)
        assert fact.kind == "sparse-lu"
        rng = np.random.default_rng(5)
        b = rng.standard_normal(pencil.n)
        x = fact.solve(b)
        assert np.linalg.norm(pencil.stiffness @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_block_rhs(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 40)
        B = rng.standard_normal((40, 3))
        X = factorize(S, expect_spd=True).solve(B)
        assert np.allclose(S @ X, B, atol=1e-9)

    def test_indefinite_raises_with_pivot_when_spd_expected(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        S = (pencil.stiffness - 3.0 * pencil.mass).toarray()
        # dense inertia check: 3 sits above the smallest pencil eigenvalue
        assert np.any(np.linalg.eigvalsh(S) < 0)
        with pytest.raises(IndefiniteMatrixError) as err:
            factorize(S, expect_spd=True)
        assert 0 <= err.value.pivot < pencil.n

    def test_indefinite_fallback_path_solves(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        S = (pencil.stiffness - 3.0 * pencil.mass).toarray()
        fact = factorize(S, expect_spd=False)
        assert fact.kind == "symmetric-indefinite"
        rng = np.random.default_rng(4)
        b = rng.standard_normal(pencil.n)
        x = fact.solve(b)
        assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_factorize_shifted_falls_back_transparently(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        fact = factorize_shifted(pencil.stiffness.toarray(), pencil.mass.toarray(), 3.0)
        assert fact.kind == "symmetric-indefinite"
        fact = factorize_shifted(pencil.stiffness.toarray(), pencil.mass.toarray(), 0.0)
        assert fact.kind == "spd-cholesky"

    def test_singular_matrix_rejected(self):
        S = np.zeros((4, 4))
        with pytest.raises(SingularMatrixError):
            factorize(S, expect_spd=False)

    def test_singular_sparse_rejected(self):
        S = sp.csr_matrix((DENSE_LIMIT + 1, DENSE_LIMIT + 1))
        S.setdiag(np.r_[0.0, np.ones(DENSE_LIMIT)])
        with pytest.raises(SingularMatrixError):
            factorize(S)


class TestDenseGeneralizedEig:
    def test_diagonal_case(self):
        eig = dense_generalized_eig(np.diag([3.0, 1.0, 2.0]), np.eye(3))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])

    def test_matches_independent_reference_on_fem_pencil(self):
        from schwarzjd.oracle import dense_discrete_spectrum

        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        eig = dense_generalized_eig(pencil.stiffness.toarray(), pencil.mass.toarray())
        ref = dense_discrete_spectrum(pencil, pencil.n)
        assert np.allclose(eig.values, ref.values, rtol=1e-9)

    def test_b_orthonormal_vectors_and_diagonalization(self):
        rng = np.random.default_rng(9)
        A = random_spd(rng, 30)
        B = random_spd(rng, 30)
        eig = dense_generalized_eig(A, B)
        assert np.abs(eig.vectors.T @ B @ eig.vectors - np.eye(30)).max() <= 1e-10
        D = eig.vectors.T @ A @ eig.vectors
        assert np.abs(D - np.diag(eig.values)).max() <= 1e-8 * np.abs(eig.values).max()

    def test_scaling_mass_scales_values_inversely(self):
        rng = np.random.default_rng(10)
        A = random_spd(rng, 12)
        B = random_spd(rng, 12)
        base = dense_generalized_eig(A, B)
        scaled = dense_generalized_eig(A, 4.0 * B)
        assert np.allclose(scaled.values, base.values / 4.0)

    def test_trace_identity_on_random_pencils(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 51))
            A = random_spd(rng, n)
            B = random_spd(rng, n)
            eig = dense_generalized_eig(A, B)
            tr = np.trace(np.linalg.solve(B, A))
            assert np.sum(eig.values) == pytest.approx(tr, rel=1e-8)

    def test_non_spd_mass_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dense_generalized_eig(np.eye(3), np.diag([1.0, -1.0, 1.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dense_generalized_eig(np.eye(3), np.eye(4))


def max_sin_angle(V, W, M):
    """Sine of the largest principal angle between span(V) and the larger span(W),
    both M-orthonormal; computed from the residual, so it resolves angles near 0."""
    R = V - W @ (W.T @ (M @ V))
    return float(np.sqrt(max(np.linalg.eigvalsh(R.T @ (M @ R)).max(), 0.0)))


class TestLowestEigenpairs:
    # 225 and 161 dofs, both below DENSE_LIMIT
    CASES = [(DomainShape.SQUARE, 4, 20), (DomainShape.LSHAPE, 3, 30)]

    @pytest.mark.parametrize("shape,level,k", CASES)
    def test_sparse_route_matches_dense_route(self, shape, level, k, monkeypatch):
        p = assemble(build_mesh(shape, level))
        ref = lowest_eigenpairs(p.stiffness, p.mass, k + 6)  # dense route
        monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
        got = lowest_eigenpairs(p.stiffness, p.mass, k)
        assert got.values.shape == (k,) and got.vectors.shape == (p.n, k)
        assert np.all(np.diff(got.values) >= 0.0)
        assert np.abs(got.values - ref.values[:k]).max() <= 1e-9 * ref.values[k - 1]
        G = got.vectors.T @ (p.mass @ got.vectors)
        assert np.abs(G - np.eye(k)).max() <= 1e-10
        # a multiplet cut at k is compared against its whole span
        stop = k
        while ref.values[stop] - ref.values[k - 1] <= 1e-6 * ref.values[k - 1]:
            stop += 1
        assert max_sin_angle(got.vectors, ref.vectors[:, :stop], p.mass) <= 1e-8

    def test_dense_route_is_the_plain_dense_solve(self):
        p = assemble(build_mesh(DomainShape.SQUARE, 4))
        got = lowest_eigenpairs(p.stiffness, p.mass, 10)
        values, vectors = sla.eigh(p.stiffness.toarray(), p.mass.toarray(), subset_by_index=(0, 9))
        assert got.values.tobytes() == values.tobytes()
        assert got.vectors.tobytes() == vectors.tobytes()

    def test_sparse_route_reruns_bit_identically(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
        p = assemble(build_mesh(DomainShape.LSHAPE, 3))
        a = lowest_eigenpairs(p.stiffness, p.mass, 12)
        b = lowest_eigenpairs(p.stiffness, p.mass, 12)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    @pytest.mark.parametrize("k", [0, 9, 10])
    def test_k_outside_one_to_n_minus_one_rejected(self, k):
        p = assemble(build_mesh(DomainShape.SQUARE, 2))
        assert p.n == 9
        with pytest.raises(InvalidArgumentError):
            lowest_eigenpairs(p.stiffness, p.mass, k)

    def test_arpack_failure_is_a_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(linalg, "DENSE_LIMIT", 0)
        monkeypatch.setattr(spla, "eigsh", no_convergence)
        p = assemble(build_mesh(DomainShape.SQUARE, 4))
        with pytest.raises(EigensolverError) as err:
            lowest_eigenpairs(p.stiffness, p.mass, 5)
        assert not isinstance(err.value, InvalidArgumentError)


@pytest.fixture(scope="module")
def pencil():
    return assemble(build_mesh(DomainShape.SQUARE, 4))


class TestBOrthonormalize:
    def test_random_set_is_mass_orthonormal(self, pencil):
        rng = np.random.default_rng(21)
        V = rng.standard_normal((pencil.n, 10))
        W = b_orthonormalize(V, pencil.mass)
        assert W.shape[1] == 10
        G = W.T @ (pencil.mass @ W)
        assert np.abs(G - np.eye(10)).max() <= 1e-10

    def test_orthonormal_input_unchanged_up_to_sign(self, pencil):
        rng = np.random.default_rng(22)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 5)), pencil.mass)
        W2 = b_orthonormalize(W, pencil.mass)
        signs = np.sign(np.einsum("ij,ij->j", W, W2))
        assert np.abs(W2 * signs - W).max() <= 1e-12

    def test_duplicate_vector_dropped(self, pencil):
        rng = np.random.default_rng(23)
        V = rng.standard_normal((pencil.n, 4))
        V = np.hstack([V, V[:, :1]])
        W = b_orthonormalize(V, pencil.mass)
        assert W.shape[1] == 4

    def test_idempotent_up_to_column_signs(self, pencil):
        rng = np.random.default_rng(24)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass)
        W2 = b_orthonormalize(W, pencil.mass)
        assert W2.shape == W.shape
        overlap = np.abs(W.T @ (pencil.mass @ W2))
        assert np.allclose(overlap, np.eye(6), atol=1e-10)

    def test_projection_against_existing_basis(self, pencil):
        rng = np.random.default_rng(25)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass)
        V = rng.standard_normal((pencil.n, 3))
        T = b_orthonormalize(V, pencil.mass, against=W)
        assert T.shape[1] == 3
        assert np.abs(W.T @ (pencil.mass @ T)).max() <= 1e-10

    def test_dependent_on_existing_basis_returns_empty(self, pencil):
        rng = np.random.default_rng(26)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass)
        T = b_orthonormalize(W[:, :2] @ np.array([[1.0, 2.0], [3.0, -1.0]]),
                             pencil.mass, against=W)
        assert T.shape == (pencil.n, 0)

    def test_all_dropped_without_fallback_raises(self, pencil):
        with pytest.raises(EmptyBasisError):
            b_orthonormalize(np.zeros((pencil.n, 3)), pencil.mass)
        # An against basis without columns is no basis to fall back on.
        with pytest.raises(EmptyBasisError):
            b_orthonormalize(np.zeros((pencil.n, 3)), pencil.mass,
                             against=np.empty((pencil.n, 0)))

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5])
    def test_drop_tolerance_domain(self, pencil, tol):
        with pytest.raises(InvalidArgumentError):
            b_orthonormalize(np.ones((pencil.n, 1)), pencil.mass, drop_tol=tol)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 8),
       against_cols=st.integers(0, 5), dependent=st.booleans())
def test_orthonormalize_property(pencil, seed, cols, against_cols, dependent):
    rng = np.random.default_rng(seed)
    M = pencil.mass
    V = rng.standard_normal((pencil.n, cols))
    if dependent:  # a combination of the earlier columns must be dropped
        V = np.hstack([V, V @ rng.standard_normal(cols)[:, None]])
    against = None
    if against_cols:
        against = b_orthonormalize(rng.standard_normal((pencil.n, against_cols)), M)
    W = b_orthonormalize(V, M, against=against)
    assert W.shape == (pencil.n, cols)
    assert np.abs(W.T @ (M @ W) - np.eye(cols)).max() <= 1e-10
    if against is not None:
        assert np.abs(against.T @ (M @ W)).max() <= 1e-10
