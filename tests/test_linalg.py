import io
import resource

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
    InvalidArgumentError,
    SingularMatrixError,
)
from schwarzjd.fem import assemble
from schwarzjd.linalg import (
    b_orthonormalize,
    basis_times,
    dense_generalized_eig,
    dense_symmetric_eig,
    factorize,
    factorize_shifted,
    lower_bands,
    lowest_eigenpairs,
)
from schwarzjd.mesh import DomainShape, build_mesh

from .helpers import dense_discrete_spectrum


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def banded(S):
    """The band route of ``factorize_shifted`` on the dense symmetric ``S``, at shift 0."""
    return factorize_shifted(*lower_bands(S, np.zeros_like(S)), 0.0)


class TestFactorize:
    def test_identity_solves_return_rhs(self):
        fact = factorize(sp.identity(8, format="csr"), expect_spd=True)
        assert fact.kind == "sparse-lu"  # the operand type, not its order, picks the route
        rhs = np.arange(8.0)
        assert np.allclose(fact.solve(rhs), rhs)

    def test_two_by_two_hand_solution(self):
        fact = banded(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(fact.solve(np.array([1.0, 0.0])), [2 / 3, 1 / 3])

    def test_spd_round_trip_small_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            S = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = banded(S).solve(b)
            assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sparse_path_round_trip(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 5))
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
        X = banded(S).solve(B)
        assert np.allclose(S @ X, B, atol=1e-9)

    @pytest.mark.parametrize("shape", [(), (3, 2, 2)], ids=["0-d", "3-d"])
    @pytest.mark.parametrize("kind", ["spd-cholesky", "symmetric-indefinite", "sparse-lu"])
    def test_rhs_neither_vector_nor_block_rejected(self, kind, shape):
        S = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        fact = {"spd-cholesky": lambda: banded(S),
                "symmetric-indefinite": lambda: factorize_shifted(*lower_bands(S, np.eye(3)), 2.5),
                "sparse-lu": lambda: factorize(sp.csr_matrix(S))}[kind]()
        assert fact.kind == kind
        with pytest.raises(InvalidArgumentError, match=r"rhs \(n,\) or \(n, k\) with n = 3"):
            fact.solve(np.ones(shape))

    def test_indefinite_fallback_path_solves(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        S = (pencil.stiffness - 3.0 * pencil.mass).toarray()
        fact = factorize_shifted(*lower_bands(pencil.stiffness, pencil.mass), 3.0)
        assert fact.kind == "symmetric-indefinite"
        rng = np.random.default_rng(4)
        b = rng.standard_normal(pencil.n)
        x = fact.solve(b)
        assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_factorize_shifted_falls_back_transparently(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 3))
        bands = lower_bands(pencil.stiffness, pencil.mass)
        assert factorize_shifted(*bands, 3.0).kind == "symmetric-indefinite"
        assert factorize_shifted(*bands, 0.0).kind == "spd-cholesky"

    def test_singular_matrix_rejected(self):
        S = np.zeros((4, 4))
        with pytest.raises(SingularMatrixError):
            banded(S)

    @pytest.mark.parametrize("S", [np.eye(3), sp.csr_matrix((2, 3))], ids=["ndarray", "oblong"])
    def test_factorize_takes_only_square_sparse_operands(self, S):
        with pytest.raises(InvalidArgumentError, match="square sparse operand expected"):
            factorize(S)

    def test_singular_sparse_rejected(self):
        S = sp.diags([0.0, 1.0, 1.0, 1.0], format="csr")
        with pytest.raises(SingularMatrixError):
            factorize(S)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), negatives=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_dense_kind_tells_definiteness_and_solves(n, negatives, seed):
    # S = Q diag(d) Q' with |d| in [0.5, 2], so rounding cannot flip the inertia
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, n)
    d[: min(negatives, n)] *= -1.0
    S = (q * d) @ q.T
    S = 0.5 * (S + S.T)
    fact = banded(S)
    assert (fact.kind == "spd-cholesky") == (negatives == 0)
    assert fact.kind in ("spd-cholesky", "symmetric-indefinite")
    b = rng.standard_normal(n)
    assert np.linalg.norm(S @ fact.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


class TestDenseGeneralizedEig:
    def test_diagonal_case(self):
        eig = dense_generalized_eig(np.diag([3.0, 1.0, 2.0]), np.eye(3))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])

    def test_matches_independent_reference_on_fem_pencil(self):
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

    @pytest.mark.parametrize("solve, A, B", [
        (dense_generalized_eig, np.eye(3), np.diag([1.0, -1.0, 1.0])),
        # the dense route of the startup eigensolve
        (lambda A, B: lowest_eigenpairs(A, B, 2), sp.identity(5, format="csr"),
         -sp.identity(5, format="csr")),
    ], ids=["dense_generalized_eig", "lowest_eigenpairs"])
    def test_non_spd_mass_rejected(self, solve, A, B):
        with pytest.raises(InvalidArgumentError):
            solve(A, B)

    @pytest.mark.parametrize("message", [
        "The algorithm failed to converge; 3 off-diagonal elements of an intermediate "
        "tridiagonal form did not converge to zero.",
        "2 eigenvectors failed to converge.",
    ], ids=["ev", "evx"])
    def test_convergence_failure_is_a_numerical_error(self, monkeypatch, message):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(sla, "eigh", no_convergence)
        with pytest.raises(EigensolverError, match=message) as err:
            dense_generalized_eig(np.eye(3), np.eye(3))
        assert not isinstance(err.value, InvalidArgumentError)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dense_generalized_eig(np.eye(3), np.eye(4))
        with pytest.raises(InvalidArgumentError):
            dense_generalized_eig(sp.identity(3, format="csr"), np.eye(4))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_same_bits_as_scipy_and_operands_kept(self, sparse):
        # the operands are copied into maps that LAPACK overwrites
        pencil = assemble(build_mesh(DomainShape.LSHAPE, 3))
        K, M = pencil.stiffness.toarray(), pencil.mass.toarray()
        values, vectors = sla.eigh(K, M)
        A, B = (pencil.stiffness, pencil.mass) if sparse else (K.copy(), M.copy())
        eig = dense_generalized_eig(A, B)
        assert np.array_equal(eig.values, values) and np.array_equal(eig.vectors, vectors)
        if not sparse:
            assert np.array_equal(A, K) and np.array_equal(B, M)

    def test_dense_lowest_eigenpairs_same_bits_as_scipy(self):
        pencil = assemble(build_mesh(DomainShape.SQUARE, 4))
        K, M = pencil.stiffness.toarray(), pencil.mass.toarray()
        values, vectors = sla.eigh(K, M, subset_by_index=(0, 11))
        got = lowest_eigenpairs(pencil.stiffness, pencil.mass, 12)  # 225 dofs: the dense route
        assert np.array_equal(got.values, values) and np.array_equal(got.vectors, vectors)


def packed_rows(a):
    """The lower triangle of the square ``a``, row by row."""
    return a[np.tril_indices(len(a))]


class TestDenseSymmetricEig:
    # 64-column panels: within one, at and across panel edges
    @pytest.mark.parametrize("m", [1, 7, 60, 63, 64, 65, 128, 129, 200])
    def test_same_bits_as_scipy_in_the_operand(self, m):
        # packed rows, as the projected matrix is held, solved in a larger flat operand
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        a += a.T
        rows = packed_rows(a)
        kept = rows.copy()
        operand = np.full((m + 5) ** 2, np.nan)
        eig = dense_symmetric_eig(rows, operand)
        for values, vectors in (sla.eigh(a, driver="evd"), np.linalg.eigh(a)):
            assert np.array_equal(eig.values, values) and np.array_equal(eig.vectors, vectors)
        assert np.array_equal(rows, kept)
        assert eig.vectors.ctypes.data == operand.ctypes.data  # solved in place
        assert np.isnan(operand[m * m:]).all()

    @pytest.mark.parametrize("m", [2, 7, 60, 63, 64, 65, 128, 129, 200])
    def test_strict_upper_triangle_is_not_read(self, m):
        # dsyevd reads only the lower triangle, which is all that packed rows hold
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        a += a.T
        got = dense_symmetric_eig(packed_rows(a), np.full(m * m, np.nan))
        a[np.triu_indices(m, 1)] = np.nan
        values, vectors = np.linalg.eigh(a)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.vectors, vectors)

    @pytest.mark.parametrize("length", [2, 4, 5])
    def test_rows_that_are_not_a_triangle_rejected(self, length):
        with pytest.raises(InvalidArgumentError,
                           match=rf"m \(m \+ 1\) / 2 entries expected, got {length}$"):
            dense_symmetric_eig(np.ones(length), np.empty(9))


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

    @pytest.mark.parametrize("k", [0, 9, 10, 2.5, True])
    def test_k_outside_one_to_n_minus_one_rejected(self, k, monkeypatch):
        p = assemble(build_mesh(DomainShape.SQUARE, 2))
        assert p.n == 9
        for dense_limit in (linalg.DENSE_LIMIT, 0):  # the dense route, then ARPACK's
            monkeypatch.setattr(linalg, "DENSE_LIMIT", dense_limit)
            with pytest.raises(InvalidArgumentError, match=f"got k={k!r}"):
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


class TestReleaseFreeHeap:
    def test_calls_malloc_trim_with_no_padding(self, monkeypatch):
        pads = []
        monkeypatch.setattr(linalg, "_malloc_trim", pads.append)
        linalg.release_free_heap()
        assert pads == [0]

    def test_does_nothing_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(linalg, "_malloc_trim", None)
        assert linalg.release_free_heap() is None


class TestHighWaterMark:
    def test_reads_ru_maxrss_where_the_status_file_is_missing(self, monkeypatch):
        def missing(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(linalg, "open", missing, raising=False)
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert kib * 1024 <= linalg.high_water_mark() <= (kib + 1024) * 1024

    def test_reads_ru_maxrss_where_the_status_file_lacks_vmhwm(self, monkeypatch):
        opened = []

        def without_vmhwm(path, *args, **kwargs):
            opened.append(path)
            if path == "/proc/self/status":  # as a kernel without the field writes it
                return io.StringIO("Name:\tpython3\nVmPeak:\t  9999 kB\nVmRSS:\t  1024 kB\n")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(linalg, "open", without_vmhwm, raising=False)
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert kib * 1024 <= linalg.high_water_mark() <= (kib + 1024) * 1024
        assert opened == ["/proc/self/status"]


def no_basis(pencil):
    return np.empty((pencil.n, 0))


class TestBOrthonormalize:
    def test_random_set_is_mass_orthonormal(self, pencil):
        rng = np.random.default_rng(21)
        V = rng.standard_normal((pencil.n, 10))
        W = b_orthonormalize(V, pencil.mass, no_basis(pencil))
        assert W.shape[1] == 10
        G = W.T @ (pencil.mass @ W)
        assert np.abs(G - np.eye(10)).max() <= 1e-10

    def test_orthonormal_input_unchanged_up_to_sign(self, pencil):
        rng = np.random.default_rng(22)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 5)), pencil.mass, no_basis(pencil))
        W2 = b_orthonormalize(W.copy(), pencil.mass, no_basis(pencil))
        signs = np.sign(np.einsum("ij,ij->j", W, W2))
        assert np.abs(W2 * signs - W).max() <= 1e-12

    def test_duplicate_vector_dropped(self, pencil):
        rng = np.random.default_rng(23)
        V = rng.standard_normal((pencil.n, 4))
        V = np.hstack([V, V[:, :1]])
        W = b_orthonormalize(V, pencil.mass, no_basis(pencil))
        assert W.shape[1] == 4

    def test_idempotent_up_to_column_signs(self, pencil):
        rng = np.random.default_rng(24)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass, no_basis(pencil))
        W2 = b_orthonormalize(W.copy(), pencil.mass, no_basis(pencil))
        assert W2.shape == W.shape
        overlap = np.abs(W.T @ (pencil.mass @ W2))
        assert np.allclose(overlap, np.eye(6), atol=1e-10)

    def test_projection_against_existing_basis(self, pencil):
        rng = np.random.default_rng(25)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass, no_basis(pencil))
        V = rng.standard_normal((pencil.n, 3))
        T = b_orthonormalize(V, pencil.mass, W)
        assert T.shape[1] == 3
        assert np.abs(W.T @ (pencil.mass @ T)).max() <= 1e-10

    def test_dependent_on_existing_basis_returns_empty(self, pencil):
        rng = np.random.default_rng(26)
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), pencil.mass, no_basis(pencil))
        T = b_orthonormalize(W[:, :2] @ np.array([[1.0, 2.0], [3.0, -1.0]]), pencil.mass, W)
        assert T.shape == (pencil.n, 0)

    @pytest.mark.parametrize("outside, kept", [(1e-6, 1), (1e-12, 0)])
    def test_nearly_dependent_column_projected_to_working_precision(self, pencil, outside,
                                                                     kept):
        # One blocked pass leaves a component of about 4e-10 along W here;
        # the second brings it to roundoff.
        rng = np.random.default_rng(27)
        M = pencil.mass
        W = b_orthonormalize(rng.standard_normal((pencil.n, 6)), M, no_basis(pencil))
        d = b_orthonormalize(rng.standard_normal((pencil.n, 1)), M, W)
        v = W @ rng.standard_normal((6, 1)) + outside * d
        T = b_orthonormalize(v, M, W)
        assert T.shape == (pencil.n, kept)
        assert np.abs(W.T @ (M @ T)).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("dependent", [False, True], ids=["all-kept", "one-dropped"])
    def test_out_block_gets_the_same_bits_in_place(self, pencil, dependent):
        # A block inside a wider buffer, as in eigensolver._grow, gets the
        # same bits as a standalone copy of it, and the buffer outside the
        # block keeps its contents.
        rng = np.random.default_rng(28)
        M = pencil.mass
        against = b_orthonormalize(rng.standard_normal((pencil.n, 4)), M, no_basis(pencil))
        V = rng.standard_normal((pencil.n, 5))
        if dependent:
            V[:, 2] = V[:, 0] - 2.0 * V[:, 1]
        ref = b_orthonormalize(np.asfortranarray(V), M, against)
        assert ref.shape[1] == (4 if dependent else 5)
        buffer = linalg.mapped_zeros(pencil.n, 9)
        block = buffer[:, 2:7]
        block[:] = V
        W = b_orthonormalize(block, M, against)
        assert np.shares_memory(W, buffer) and W.ctypes.data == buffer[:, 2:].ctypes.data
        assert np.array_equal(W, ref)
        assert not buffer[:, :2].any() and not buffer[:, 7:].any()

    def test_all_dropped_without_fallback_raises(self, pencil):
        # An against basis without columns is no basis to fall back on.
        with pytest.raises(EmptyBasisError):
            b_orthonormalize(np.zeros((pencil.n, 3)), pencil.mass, no_basis(pencil))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 8),
       against_cols=st.integers(0, 5), dependent=st.booleans(), spare=st.integers(0, 3))
def test_orthonormalize_property(pencil, seed, cols, against_cols, dependent, spare):
    # As in eigensolver._grow: the basis is the leading columns of a wider
    # buffer and the block the columns right behind it, with spare columns after.
    rng = np.random.default_rng(seed)
    M, n = pencil.mass, pencil.n
    V = rng.standard_normal((n, cols))
    if dependent:  # a combination of the earlier columns must be dropped
        V = np.hstack([V, V @ rng.standard_normal(cols)[:, None]])
    k = V.shape[1]
    buffer = linalg.mapped_zeros(n, against_cols + k + spare)
    buffer[:, against_cols + k:] = rng.standard_normal((n, spare))
    against = buffer[:, :against_cols]
    if against_cols:
        against[:] = rng.standard_normal((n, against_cols))
        assert b_orthonormalize(against, M, no_basis(pencil)).shape[1] == against_cols
    block = buffer[:, against_cols:against_cols + k]
    block[:] = V
    outside = np.delete(buffer, np.s_[against_cols:against_cols + k], axis=1)

    W = b_orthonormalize(block, M, against)
    assert W.shape == (n, cols)
    assert W.ctypes.data == block.ctypes.data and W.strides == block.strides
    assert np.array_equal(np.delete(buffer, np.s_[against_cols:against_cols + k], axis=1),
                          outside)
    assert np.abs(W.T @ (M @ W) - np.eye(cols)).max() <= 1e-10
    assert np.abs(against.T @ (M @ W)).max(initial=0.0) <= 1e-10
    # every input column lies in span(against, W): its M-orthogonal residual vanishes
    R = V - against @ (against.T @ (M @ V)) - W @ (W.T @ (M @ V))
    residual = np.sqrt(np.einsum("ij,ij->j", R, M @ R))
    assert np.all(residual <= 1e-10 * np.sqrt(np.einsum("ij,ij->j", V, M @ V)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), dim=st.integers(1, 80), spare=st.integers(0, 40),
       cols=st.integers(1, 16), offset=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_basis_times_agrees_with_plain_product(n, dim, spare, cols, offset, seed):
    # the basis is a read-only leading-column view of a wider Fortran
    # buffer, and the coefficients a column slice of a C-ordered array, as
    # in eigensolver._grow
    rng = np.random.default_rng(seed)
    buffer = np.asfortranarray(rng.standard_normal((n, dim + spare)))
    basis = buffer[:, :dim].view()
    basis.flags.writeable = False
    coeffs = rng.standard_normal((dim, cols + offset))[:, offset:]
    out = basis_times(basis, coeffs)
    assert out.shape == (n, cols)
    # agreement, not bits: OpenBLAS picks another kernel from 12 columns on
    scale = np.abs(basis) @ np.abs(coeffs)
    assert np.all(np.abs(out - basis @ coeffs) <= 1e-14 * scale)
