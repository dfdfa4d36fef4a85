import math
from fractions import Fraction

import numpy as np
import pytest

from bowmonad import caloron, monadcore, numkit as nk, taubnut
from bowmonad.numkit import GQ, ToleranceContext


def test_gaussian_rational_field_ops():
    a, b = GQ(1, 2), GQ(3, -1)
    assert a + b == GQ(4, 1)
    assert a * b == GQ(5, 5)
    assert (a * b) / b == a
    assert a - a == GQ(0)
    assert -a == GQ(-1, -2)
    assert a ** 3 == a * a * a
    with pytest.raises(ZeroDivisionError):
        a / GQ(0)


def _assert_reduced(M):
    """The split-form invariants of an exact matrix: Python-int numerators
    over a positive denominator sharing no factor with all of them, and im
    None exactly when every imaginary part is zero."""
    assert nk.is_exact(M)
    nums = M.re.ravel().tolist()
    if M.im is not None:
        assert M.im.shape == M.re.shape
        nums += M.im.ravel().tolist()
        assert any(M.im.ravel().tolist())
    assert all(type(n) is int for n in nums)
    assert type(M.den) is int and M.den > 0
    assert math.gcd(M.den, *nums) == 1


def _entries(M):
    """An exact matrix as an object array of the GaussianRationals it
    holds."""
    out = np.empty(M.shape, dtype=object)
    for idx in np.ndindex(M.shape):
        out[idx] = M[idx]
    return out


def test_numpy_integers_are_stored_as_python_ints():
    """A numpy integer part is coerced to a Python int, in a scalar and in
    an exact matrix: an int64 numerator would overflow in later
    products."""
    assert type(GQ(np.int64(3), np.int32(-2)).re.numerator) is int
    assert type(GQ(np.int64(3), np.int32(-2)).im.numerator) is int
    assert GQ(1, 1) * np.int64(2) == GQ(2, 2)
    for make in (nk.exact_matrix, lambda a: nk.int_matrix(a, True)):
        M = make(np.array([[2**40]]))
        _assert_reduced(M)
        assert nk.mat_mul(M, M)[0, 0] == GQ(2**80)
        assert (M * np.int64(2**30))[0, 0] == GQ(2**70)
        N = make(np.array([[2**40, 1], [3, 2**40]]))
        _assert_reduced(N)
        det = 2**80 - 3
        inv = nk.exact_inverse(N)
        _assert_reduced(inv)
        assert inv == nk.exact_matrix(
            [[Fraction(2**40, det), Fraction(-1, det)],
             [Fraction(-3, det), Fraction(2**40, det)]])


def test_real_data_are_decided_by_value():
    """im is None exactly when every imaginary part is zero, however the
    entries were made, and the denominator is the least common one."""
    real = nk.exact_matrix([[GQ(1, 1) * GQ(1, -1), Fraction(-1, 3)],
                            [GQ(1, 1) - GQ(0, 1), 0]])
    assert real.im is None and real.den == 3
    assert real.re.tolist() == [[6, -1], [3, 0]]
    cplx = nk.exact_matrix([[GQ(1, 1) * GQ(1, -1), Fraction(-1, 3)],
                            [GQ(1, 1) - GQ(0, 1), GQ(0, Fraction(1, 5))]])
    assert cplx.den == 15 and cplx.im.tolist() == [[0, 0], [0, 3]]
    # products and sums whose imaginary parts cancel are real again
    u = nk.exact_matrix([[GQ(1, 1)]])
    assert (u @ u.conj()).im is None and (u @ u.conj())[0, 0] == GQ(2)
    assert (cplx - cplx.conj() + cplx.conj()) == cplx
    assert (cplx + cplx.conj()).im is None
    assert all(type(e) is GQ for e in _entries(cplx).flat)


_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 3)]


def _split_form_samples(rng, m, n):
    """Exact m x n matrices: zero, integer, and real and complex rational
    with big numerators and denominators."""
    return [nk.exact_zeros(m, n),
            nk.int_matrix(rng.integers(-3, 4, (m, n)), True)] + [
        nk.exact_matrix(_oracle_matrix(rng, m, n, field, big=True))
        for field in (Fraction, GQ)]


@pytest.mark.parametrize("m, n", _SHAPES)
def test_split_form_invariants_hold_after_every_operation(m, n):
    """Construction, products, sums, differences, negation, scalar factors,
    slicing, stacking and the (conjugate) transpose each give a reduced
    exact matrix with the values of the same work in Q(i) arithmetic, on
    empty shapes too."""
    rng = np.random.default_rng([m, n, 27])
    samples = _split_form_samples(rng, m, n)
    for A in samples:
        _assert_reduced(A)
        ref = _entries(A)
        for B in samples:
            for got, want in ((A + B, ref + _entries(B)),
                              (A - B, ref - _entries(B))):
                _assert_same(got, want)
        _assert_same(-A, -ref)
        for c in (0, 3, Fraction(-5, 6), GQ(Fraction(1, 2), -2), GQ(0, 7)):
            _assert_same(A * c, ref * c)
            _assert_same(c * A, ref * c)
            if c:
                _assert_same(A / c, ref / c)
        _assert_same(A.T, ref.T)
        _assert_same(A.conj().T,
                     np.vectorize(lambda e: GQ(e.re, -e.im),
                                  otypes=[object])(ref.T))
        _assert_same(A[1:, ::2], ref[1:, ::2])
        _assert_same(A[:, [j for j in range(n) if j % 2]],
                     ref[:, [j for j in range(n) if j % 2]])
        for C in (_split_form_samples(rng, n, 2) + _split_form_samples(
                rng, n, 0)):
            _assert_same(A @ C, _ref_mat_mul(ref, _entries(C)))
        stacked = nk.block([[A, A.conj()], [A * 2, -A]])
        _assert_same(stacked, np.block([[ref, _entries(A.conj())],
                                        [_entries(A * 2), _entries(-A)]]))
        assert nk.is_zero_matrix(A - A)
        assert nk.is_zero_matrix(A) == all(not e for e in ref.flat)
    # a shape mismatch raises, and a matrix has no truth value
    wide, tall = nk.exact_zeros(m, n + 1), nk.exact_zeros(n + 1, 1)
    for op in (lambda A: A + wide, lambda A: A - wide, lambda A: A @ tall,
               bool):
        with pytest.raises((ValueError, TypeError)):
            op(samples[-1])


@pytest.mark.parametrize("m, n", _SHAPES)
def test_split_form_invariants_hold_after_elimination(m, n):
    """exact_kernel, exact_solve and exact_inverse give reduced exact
    matrices, on empty shapes too."""
    rng = np.random.default_rng([m, n, 28])
    for A in _split_form_samples(rng, m, n):
        K = nk.exact_kernel(A)
        _assert_reduced(K)
        assert K.shape[0] == n and nk.is_zero_matrix(A @ K)
        for b in (_split_form_samples(rng, m, 2)[-1], nk.exact_zeros(m, 0)):
            x = nk.exact_solve(A, b)
            if x is not None:
                _assert_reduced(x)
                assert A @ x == b
        if m == n:
            inv = nk.exact_inverse(A)
            if inv is not None:
                _assert_reduced(inv)
                assert inv @ A == nk.exact_eye(n) == A @ inv


def test_repr_is_value_based():
    """Equal matrices built in different ways have the same repr, and it
    names no object id: the benchmark hashes the repr of exact data."""
    a = nk.exact_matrix([[Fraction(1, 2), GQ(0, 1)], [3, 0]])
    b = nk.exact_matrix([[1, GQ(0, 2)], [6, 0]]) / 2
    c = nk.block([[nk.exact_matrix([[Fraction(2, 4)], [3]]),
                   nk.exact_matrix([[GQ(0, 3)], [0]]) * Fraction(1, 3)]])
    assert a == b == c and repr(a) == repr(b) == repr(c)
    assert " at 0x" not in repr(a) and "den=2" in repr(a)
    assert repr(nk.exact_zeros(0, 3)) != repr(nk.exact_zeros(3, 0))


def test_equality_compares_the_reduced_parts():
    """== decides equality of values on the reduced parts: matrices built
    by exact_matrix, exact_from_ratios and a product are equal, numerators
    near 10^400 included, and a change of one entry, of the denominator or
    of an imaginary part (none against a nonzero one) makes them unequal."""
    for big in (5, 10**400 + 7):
        a = nk.exact_matrix([[Fraction(big, 3), GQ(1, Fraction(big, 3))],
                             [big, 0]])
        b = nk.exact_from_ratios([((big, 3), (0, 1)), ((1, 1), (big, 3)),
                                  ((big, 1), (0, 1)), ((0, 1), (0, 1))],
                                 (2, 2))
        c = nk.exact_matrix([[Fraction(1, 2), 0], [0, 2]]) @ nk.exact_matrix(
            [[Fraction(2 * big, 3), GQ(2, Fraction(2 * big, 3))],
             [Fraction(big, 2), 0]])
        assert a == b == c and not a != c
        for other in (nk.exact_matrix([[Fraction(big + 1, 3), GQ(1, Fraction(
                          big, 3))], [big, 0]]),
                      nk.exact_matrix([[Fraction(big, 7), GQ(1, Fraction(
                          big, 3))], [big, 0]]),
                      nk.exact_matrix([[Fraction(big, 3), GQ(1, Fraction(
                          big, 3))], [big, GQ(0, 1)]])):
            assert a != other and other != a
        real = nk.exact_matrix([[big, 1], [0, Fraction(1, 3)]])
        assert real.im is None and real == nk.exact_matrix(
            [[big, GQ(1, 0)], [0, Fraction(2, 6)]])
        tilted = nk.exact_matrix([[big, GQ(1, Fraction(1, big))],
                                  [0, Fraction(1, 3)]])
        assert real != tilted and tilted != real
    assert nk.exact_zeros(0, 3) != nk.exact_zeros(3, 0)
    assert nk.exact_matrix([[1, 2, 3, 4]]) != nk.exact_matrix([[1, 2], [3, 4]])
    assert nk.exact_eye(2) != np.eye(2)


def test_rank_kernel_identity():
    assert nk.rank_kernel(np.eye(3, dtype=complex)).shape == (3, 0)


def test_rank_kernel_zero_matrix():
    assert nk.rank_kernel(np.zeros((2, 3), dtype=complex)).shape == (3, 3)
    assert nk.rank_kernel(np.zeros((0, 3), dtype=complex)).shape == (3, 3)


def test_rank_kernel_hand_example():
    # hand row reduction: [[1,2],[2,4]] has rank 1, kernel along (2, -1)
    K = nk.rank_kernel(np.array([[1, 2], [2, 4]], dtype=complex))
    assert K.shape == (2, 1)
    v = K[:, 0]
    assert abs(v[0] / v[1] + 2) < 1e-12

    K = nk.rank_kernel(nk.exact_matrix([[1, 2], [2, 4]]))
    assert K.shape == (2, 1)
    v = K[:, 0]
    assert v[0] / v[1] == GQ(-2)


def test_rank_transpose_and_nullity():
    """Row rank equals column rank, and the kernel is orthonormal and
    killed by M."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = rng.integers(1, 6, size=2)
        M = rng.integers(-5, 6, size=(m, n)).astype(complex)
        K = nk.rank_kernel(M)
        Kt = nk.rank_kernel(M.T.copy())
        assert n - K.shape[1] == m - Kt.shape[1] == np.linalg.matrix_rank(M)
        assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]))
        assert np.linalg.norm(M @ K) < 1e-12 * max(np.linalg.norm(M), 1.0)


def test_exact_and_float_ranks_agree():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m, n = rng.integers(1, 6, size=2)
        Mi = rng.integers(-1000, 1001, size=(m, n))
        # force occasional rank deficiency
        if rng.random() < 0.4 and m > 1:
            Mi[-1] = Mi[0] * int(rng.integers(-3, 4))
        nullity_f = nk.rank_kernel(Mi.astype(complex)).shape[1]
        nullity_e = nk.rank_kernel(nk.exact_matrix(Mi.tolist())).shape[1]
        assert nullity_f == nullity_e


def test_gap_too_small():
    M = np.diag([1.0, 2e-10, 5e-11]).astype(complex)
    with pytest.raises(nk.GapTooSmall):
        nk.rank_kernel(M, ToleranceContext(rank_tol=1e-10, gap_factor=1e3))


def test_common_eigenvector_k1_no_kernel():
    obs = nk.common_eigenvector_obstruction(
        np.array([[2.0 + 0j]]), np.array([[5.0 + 0j]]),
        np.array([[3.0], [1.0]], dtype=complex))
    assert obs == []


def test_common_eigenvector_diagonal():
    obs = nk.common_eigenvector_obstruction(
        np.diag([1.0, 1.0]).astype(complex), np.diag([2.0, 3.0]).astype(complex),
        np.zeros((2, 2), dtype=complex))
    found = sorted((round(o.xi.real), round(o.eta.real)) for o in obs)
    assert found == [(1, 2), (1, 3)]


def test_common_eigenvector_jordan_block():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    B = np.eye(2, dtype=complex)
    D = np.array([[0, 1], [0, 0]], dtype=complex)
    obs = nk.common_eigenvector_obstruction(A, B, D)
    assert len(obs) == 1
    o = obs[0]
    assert abs(o.xi) < 1e-10 and abs(o.eta - 1) < 1e-10
    assert abs(abs(o.vector[0]) - 1) < 1e-10


def test_common_eigenvector_exact_certificate():
    A = nk.exact_matrix([[0, 1], [0, 0]])
    B = nk.exact_eye(2)
    D = nk.exact_matrix([[0, 1], [0, 0]])
    obs = nk.common_eigenvector_obstruction(A, B, D)
    assert len(obs) == 1 and obs[0].exact_checked


def test_cluster_orders_a_conjugate_pair_by_imaginary_part():
    """Real parts that agree within the cluster radius (here 1 - 7e-16 and
    1 - 2e-16, as rounding leaves a conjugate pair) do not decide the order:
    the pair comes out as (1 - 1.732i, 1 + 1.732i) whichever member rounds
    lower, after the clusters with a smaller real part."""
    for lo, hi in ((1 - 7e-16, 1 - 2e-16), (1 - 2e-16, 1 - 7e-16)):
        vals = np.array([hi - 1.732j, lo + 1.732j, 0.5 + 3j, 2.0 - 1j,
                         lo + 1.732j + 1e-12])
        got = nk._cluster(vals, 1e-8)
        assert len(got) == 4
        assert [z.imag for z in got] == [3.0, -1.732, 1.732, -1.0]
        assert got[0] == 0.5 + 3j and got[3] == 2.0 - 1j


def test_obstruction_agrees_with_sampling():
    """Emptiness of the obstruction list must agree with full column rank of
    the stacked pencil at random samples and on the eigenvalue grid."""
    rng = np.random.default_rng(3)
    for trial in range(6):
        k = int(rng.integers(1, 4))
        A = rng.integers(-3, 4, (k, k)).astype(complex)
        B = rng.integers(-3, 4, (k, k)).astype(complex)
        D = rng.integers(-2, 3, (2, k)).astype(complex)
        if trial % 2 == 0:
            D[:] = 0  # force failures at every joint eigenvalue
        obs = nk.common_eigenvector_obstruction(A, B, D)
        full_rank = True
        for xi in np.linalg.eigvals(A):
            for eta in np.linalg.eigvals(B):
                S = np.vstack([A - xi * np.eye(k), B - eta * np.eye(k), D])
                s = np.linalg.svd(S, compute_uv=False)
                if s[-1] < 1e-9 * max(s[0], 1.0):
                    full_rank = False
        for _ in range(200):
            xi, eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            S = np.vstack([A - xi * np.eye(k), B - eta * np.eye(k), D])
            s = np.linalg.svd(S, compute_uv=False)
            if s[-1] < 1e-9 * max(s[0], 1.0):
                full_rank = False
        assert (len(obs) == 0) == full_rank


def test_quotient_trivial_image():
    reps = nk.quotient_representatives(np.zeros((1, 2), dtype=complex),
                                       np.zeros((2, 0), dtype=complex))
    assert reps.shape == (2, 2)


def test_quotient_coordinate_case():
    # E kills e0 and e1
    E = np.eye(3, dtype=complex)[2:]
    I = np.eye(3, dtype=complex)[:, :1]
    reps = nk.quotient_representatives(E, I)
    assert reps.shape == (3, 1)
    v = reps[:, 0]
    assert abs(v[1]) > 0.99 and abs(v[0]) < 1e-10 and abs(v[2]) < 1e-10


def test_quotient_dependent_leading_image_columns():
    # the leading image columns are dependent: the image basis must still
    # span e1 and e2, so the one representative is e0
    E = np.eye(4, dtype=complex)
    I = E[:, [1, 1, 2]]
    reps = nk.quotient_representatives(E[3:], I)
    assert reps.shape == (4, 1)
    v = reps[:, 0]
    assert np.linalg.norm(I.conj().T @ v) < 1e-12
    assert abs(abs(v[0]) - 1.0) < 1e-12 and np.linalg.norm(v[1:]) < 1e-12


def test_quotient_not_contained():
    E = np.eye(3, dtype=complex)[1:]
    I = np.eye(3, dtype=complex)[:, 1:2]
    with pytest.raises(nk.ImageNotContained):
        nk.quotient_representatives(E, I)


def _old_quotient_count(E, I, ctx=nk.DEFAULT_CTX):
    """The quotient count from the kernel basis of E, the route section
    counts took before quotient_dimension."""
    return nk._quotient_decision(nk.rank_kernel(E, ctx), I, ctx)[2]


def _planted_system(delta, seed=0):
    """E (3 x 4) of singular values (1e3, 1), so sigma_1 / sigma_r = 1e3,
    and an image of one column in its 2-dimensional kernel, tilted by
    delta along the leading right singular vector."""
    rng = np.random.default_rng(seed)

    def unitary(n):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return Q
    U, V = unitary(3), unitary(4)
    E = U[:, :2] @ np.diag([1e3, 1.0]) @ V[:, :2].conj().T
    c = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    return E, V[:, 2:] @ c + delta * V[:, :1]


def test_quotient_dimension_takes_the_residual_where_the_bound_fails(
        monkeypatch):
    """A tilt of 1e-9 along the leading direction: the residual (1e-9)
    passes the threshold (1e-7) while the bound, 1e3 times the residual,
    does not, so the count falls back to the kernel basis and gives the
    old count.  Untilted, the bound decides alone.  A tilt of 1e-3 is off
    the kernel on both routes."""
    fallbacks = []
    decide = nk._quotient_decision

    def counted(*args):
        fallbacks.append(args)
        return decide(*args)
    E, I = _planted_system(1e-9)
    want = _old_quotient_count(E, I)
    monkeypatch.setattr(nk, "_quotient_decision", counted)
    assert nk.quotient_dimension(E, I) == want == 1
    assert len(fallbacks) == 1
    E, I = _planted_system(0.0)
    assert nk.quotient_dimension(E, I) == 1 and len(fallbacks) == 1
    E, I = _planted_system(1e-3)
    for count in (nk.quotient_dimension, _old_quotient_count):
        with pytest.raises(nk.ImageNotContained):
            count(E, I)


def test_quotient_dimension_edges():
    """Rank 0 (zero or empty E) keeps every vector, full rank keeps none
    and refuses a nonzero image, and an image with no columns needs no
    containment; each as the old route counts it."""
    rng = np.random.default_rng(34)
    n = 4
    full = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    image = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    cases = [(np.zeros((3, n), dtype=complex), image, 2),
             (np.zeros((0, n), dtype=complex), image, 2),
             (np.zeros((3, n), dtype=complex), np.zeros((n, 0)), n),
             (full, np.zeros((n, 0), dtype=complex), 0),
             (full, np.zeros((n, 3), dtype=complex), 0),
             (full[:2], np.zeros((n, 0), dtype=complex), 2)]
    for E, I, want in cases:
        assert nk.quotient_dimension(E, I) == _old_quotient_count(E, I) \
            == want
    for count in (nk.quotient_dimension, _old_quotient_count):
        with pytest.raises(nk.ImageNotContained, match="zero kernel"):
            count(full, image)


def test_quotient_dimension_refuses_an_image_off_the_kernel():
    """A random image is not in the kernel of a rank-2 map of 4 columns."""
    rng = np.random.default_rng(35)
    E = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    I = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    for count in (nk.quotient_dimension, _old_quotient_count):
        with pytest.raises(nk.ImageNotContained, match="containment"):
            count(E, I)


def test_exact_quotient():
    E = nk.exact_matrix([[0, 0, 1]])
    I = nk.exact_matrix([[1], [0], [0]])
    reps = nk.quotient_representatives(E, I)
    assert reps == nk.exact_matrix([[0], [1], [0]])


def test_exact_charpoly():
    M = nk.exact_matrix([[2, -3], [3, 0]])
    cp = nk.charpoly(M)
    assert cp == [GQ(1), GQ(-2), GQ(9)]


def test_exact_solve():
    A = nk.exact_matrix([[2, 1], [1, 1]])
    b = nk.exact_matrix([[3], [2]])
    x = nk.exact_solve(A, b)
    assert x[0, 0] == GQ(1) and x[1, 0] == GQ(1)
    # inconsistent system
    A2 = nk.exact_matrix([[1, 1], [1, 1]])
    b2 = nk.exact_matrix([[0], [1]])
    assert nk.exact_solve(A2, b2) is None


# A ``field`` parameter names the field of the entries: GQ for Q(i), and
# Fraction for Q, real data stored as GaussianRationals with zero imaginary
# parts, which split with no imaginary numerators (im None)


def _integer_matrix(rng, m, n, rank, field):
    """Seeded m x n matrix of the given rank with Gaussian-integer entries
    (integer entries for Fraction), as a float array and as an exact one."""
    def draw(a, b):
        z = rng.integers(-3, 4, (a, b)) + 0j
        return z + 1j * rng.integers(-3, 4, (a, b)) if field is GQ else z
    Mf = draw(m, rank) @ draw(rank, n)
    return Mf, _as_exact(Mf, field)


def _as_exact(M, field):
    return nk.exact_matrix([[GQ(int(z.real), int(z.imag) if field is GQ else 0)
                             for z in row] for row in M])


@pytest.mark.parametrize("field", [GQ, Fraction])
@pytest.mark.parametrize("m, n, rank", [(4, 4, 4), (4, 4, 2), (3, 5, 3),
                                        (5, 3, 1), (6, 6, 5)])
def test_exact_engine_kernel_rank_and_solve(field, m, n, rank):
    rng = np.random.default_rng([m, n, rank])
    for _ in range(3):
        Mf, M = _integer_matrix(rng, m, n, rank, field)
        _, pivots = nk.rref(M)
        K = nk.exact_kernel(M)
        _assert_reduced(K)
        assert nk.is_zero_matrix(M @ K)
        assert len(pivots) == rank == n - nk.rank_kernel(Mf).shape[1]
        assert len(pivots) + K.shape[1] == n
        assert nk.rank_kernel(M) == K
        L = nk.rank_kernel(M.conj().T)
        assert L.shape[1] == m - rank and nk.is_zero_matrix(L.conj().T @ M)
        # a right-hand side in the image is solved with free variables 0
        b = M @ _as_exact(rng.integers(-3, 4, (n, 2)) + 0j, field)
        x = nk.exact_solve(M, b)
        assert M @ x == b
        assert all(nk.is_zero_matrix(x[c]) for c in range(n) if c not in pivots)
        # the identity has a column outside the image unless M is onto
        eye = _as_exact(np.eye(m) + 0j, field)
        assert (nk.exact_solve(M, eye) is None) == (rank < m)


@pytest.mark.parametrize("field", [GQ, Fraction])
def test_exact_inverse(field):
    rng = np.random.default_rng(5)
    _, M = _integer_matrix(rng, 4, 4, 4, field)
    inv = nk.exact_inverse(M)
    eye = _as_exact(np.eye(4) + 0j, field)
    assert M @ inv == eye and inv @ M == eye
    _, S = _integer_matrix(rng, 4, 4, 3, field)
    assert nk.exact_inverse(S) is None


# -- the fraction-free exact kernel against plain Q(i) object arithmetic,
# kept here as reference implementations


def _ref_mat_mul(A, B):
    """Object-array product: one Fraction gcd per multiply-add."""
    return np.dot(A, B)


def _ref_evaluate(pm, x, y):
    """Exact PolyMatrix value as a per-monomial sum in Q(i) arithmetic."""
    out = np.full(pm.shape, GQ(0), dtype=object)
    for (p, q), mat in pm.coeffs.items():
        mat = _entries(mat)
        out = out + mat * (x ** p) * (y ** q) if (p or q) else out + mat
    return out


def _ref_rref(M):
    """Gauss-Jordan elimination in Q(i) arithmetic, pivot row by pivot row."""
    R = M.copy()
    m, n = R.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if R[i, c]), None)
        if p is None:
            continue
        if p != r:
            R[[r, p]] = R[[p, r]]
        R[r, c:] = R[r, c:] / R[r, c]
        for i in range(m):
            if i != r and R[i, c]:
                R[i, c:] = R[i, c:] - R[i, c] * R[r, c:]
        pivots.append(c)
    return R, pivots


# denominators with and without common factors, two of them large primes
_DENS = (1, 2, 3, 7, 12, 35, 10**9 + 7, 998244353)


def _rational(rng, field, big):
    def part():
        num = int(rng.integers(-10**12, 10**12)) if big else int(rng.integers(-9, 10))
        return Fraction(num, _DENS[int(rng.integers(len(_DENS)))])
    return GQ(part(), part()) if field is GQ else GQ(part())


def _oracle_matrix(rng, m, n, field, big=False, rank=None, zero_rows=0):
    """Seeded exact m x n matrix of GaussianRationals: entries of Q(i) (or
    Q for Fraction), rank at most `rank` when given, with its last
    `zero_rows` rows zero."""
    def draw(a, b):
        out = np.empty((a, b), dtype=object)
        for idx in np.ndindex(a, b):
            out[idx] = _rational(rng, field, big)
        return out
    M = draw(m, n) if rank is None else _ref_mat_mul(draw(m, rank), draw(rank, n))
    if zero_rows:
        M[m - zero_rows:] = GQ(0)
    return M


def _assert_same(A, B):
    """A, an exact matrix in reduced split form, holds the values of B, an
    object array of Q(i) entries, entry by entry."""
    _assert_reduced(A)
    assert A.shape == B.shape
    assert all(A[idx] == B[idx] for idx in np.ndindex(B.shape))


_ORACLE_SHAPES = [  # (m, k, n): A is m x k, B is k x n
    (1, 1, 1), (1, 5, 1), (1, 4, 6), (6, 4, 1), (5, 1, 5), (4, 4, 4), (7, 5, 6)]


@pytest.mark.parametrize("field", [GQ, Fraction])
@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("m, k, n", _ORACLE_SHAPES)
def test_mat_mul_matches_object_products(field, big, m, k, n):
    rng = np.random.default_rng([m, k, n, big, field is GQ])
    for zero_rows in (0, 1):
        A = _oracle_matrix(rng, m, k, field, big, zero_rows=min(zero_rows, m - 1))
        B = _oracle_matrix(rng, k, n, field, big, rank=max(1, min(k, n) - 1))
        _assert_same(nk.mat_mul(nk.exact_matrix(A), nk.exact_matrix(B)),
                     _ref_mat_mul(A, B))


def test_mat_mul_mixed_fields_is_gaussian():
    """Real times complex and complex times real: one operand splits with
    im None, the other with imaginary numerators."""
    rng = np.random.default_rng(3)
    A = _oracle_matrix(rng, 3, 4, GQ, big=True)
    B = _oracle_matrix(rng, 4, 2, Fraction, big=True)
    Ae, Be = nk.exact_matrix(A), nk.exact_matrix(B)
    assert Ae.im is not None and Be.im is None
    _assert_same(nk.mat_mul(Ae, Be), _ref_mat_mul(A, B))
    _assert_same(nk.mat_mul(Be.T, Ae.T), _ref_mat_mul(B.T, A.T))


@pytest.mark.parametrize("field", [GQ, Fraction])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 4)])
def test_evaluate_matches_monomial_sum(field, shape):
    rng = np.random.default_rng([*shape, field is GQ])
    pm = monadcore.PolyMatrix(shape, exact=True)
    assert nk.is_zero_matrix(pm.evaluate(GQ(2), GQ(3)))
    pm = monadcore.PolyMatrix(shape, {
        key: nk.exact_matrix(_oracle_matrix(rng, *shape, field, big=True))
        for key in [(0, 0), (1, 0), (0, 2), (1, 1), (3, 2)]}, exact=True)
    for _ in range(3):
        x, y = _rational(rng, GQ, True), _rational(rng, GQ, False)
        _assert_same(pm.evaluate(x, y), _ref_evaluate(pm, x, y))
    zero = GQ(0)
    _assert_same(pm.evaluate(zero, zero), _ref_evaluate(pm, zero, zero))


_RREF_CASES = [  # (m, n, rank or None for a generic draw, zero rows)
    (1, 1, None, 0), (1, 6, None, 0), (6, 1, None, 0), (4, 4, None, 0),
    (4, 6, None, 0), (6, 4, None, 0), (5, 5, 3, 0), (6, 7, 2, 0),
    (5, 4, None, 2), (4, 6, 2, 1), (3, 3, None, 3), (1, 4, None, 1)]


@pytest.mark.parametrize("field", [GQ, Fraction])
@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("m, n, rank, zero_rows", _RREF_CASES)
def test_rref_matches_gauss_jordan(field, big, m, n, rank, zero_rows):
    rng = np.random.default_rng([m, n, rank or 0, zero_rows, big, field is GQ])
    for _ in range(2):
        M = _oracle_matrix(rng, m, n, field, big, rank, zero_rows)
        # zero rows first, so the elimination has to swap rows
        M = M[::-1].copy()
        R, pivots = nk.rref(nk.exact_matrix(M))
        R_ref, pivots_ref = _ref_rref(M)
        assert pivots == pivots_ref
        _assert_same(R, R_ref)
        if rank is not None:
            assert len(pivots) <= rank


@pytest.mark.parametrize("field", [GQ, Fraction])
def test_exact_quotient_containment(field):
    rng = np.random.default_rng(11)
    B = _oracle_matrix(rng, 3, 7, field, big=True)
    E = nk.exact_matrix(B)
    K = nk.exact_kernel(E)      # 7 x 4
    inside = nk.exact_matrix(_ref_mat_mul(_entries(K[:, :2]),
                                          _oracle_matrix(rng, 2, 2, field)))
    reps = nk.quotient_representatives(E, inside)
    assert reps.shape == (7, 2)
    # the image and the representatives span the whole kernel
    assert len(nk.rref(nk.block([[inside, reps]]))[1]) == 4
    outside = nk.block([[inside, nk.exact_matrix(
        _oracle_matrix(rng, 7, 1, field))]])
    with pytest.raises(nk.ImageNotContained):
        nk.quotient_representatives(E, outside)


def _ref_exact_quotient(K, I):
    """The quotient by one Q(i) elimination of [I | K]: the columns of K
    are independent, so span I lies in span K iff [I | K] has rank
    K.shape[1], and the pivot columns in the K block are the
    representatives."""
    ni = I.shape[1]
    pivots = _ref_rref(np.hstack([_entries(I), _entries(K)]))[1]
    if len(pivots) != K.shape[1]:
        raise nk.ImageNotContained("image not contained in kernel (exact)")
    return K[:, [c - ni for c in pivots if c >= ni]]


def _quotient_images(rng, K, field):
    """(name, image) pairs inside span K, and one just outside it."""
    n, f = K.shape
    def inside(cols):
        return K @ nk.exact_matrix(_oracle_matrix(rng, f, cols, field))
    some = inside(max(f - 2, 1))
    off = _entries(some)
    off[n // 2, 0] = off[n // 2, 0] + GQ(Fraction(1, 10**12))
    return [("empty", nk.exact_zeros(n, 0)), ("some", some),
            ("whole", inside(f + 1)),
            ("repeated", nk.block([[some, some[:, :1]]])),
            ("off", nk.exact_matrix(off))]


@pytest.mark.parametrize("field", [GQ, Fraction])
@pytest.mark.parametrize("m, n, rank", [(3, 7, None), (2, 8, 1), (4, 9, 2),
                                        (1, 5, None), (5, 6, None)])
def test_exact_quotient_matches_image_kernel_elimination(field, m, n, rank):
    """The coordinate quotient of a map E returns the very columns that the
    elimination of [I | K] picks, K = exact_kernel(E), with the same
    entries, on maps whose free columns sit among the pivots (their columns
    shuffled twice) and on images that are empty, generic, the whole kernel
    and rank-deficient; an image 1/10^12 off the kernel in one entry is
    refused by both."""
    rng = np.random.default_rng([m, n, rank or 0, field is GQ, 29])
    B = _oracle_matrix(rng, m, n, field, big=True, rank=rank)
    B = B[:, rng.permutation(n)]      # free columns among the pivots
    E = nk.exact_matrix(B)
    for E in (E, E[:, rng.permutation(n)]):
        K = nk.exact_kernel(E)
        for name, I in _quotient_images(rng, K, field):
            if name == "off":
                for quotient, M in ((nk.quotient_representatives, E),
                                    (_ref_exact_quotient, K)):
                    with pytest.raises(nk.ImageNotContained):
                        quotient(M, I)
                continue
            reps = nk.quotient_representatives(E, I)
            # equal parts: the same values, and im None on the same side
            assert reps == _ref_exact_quotient(K, I)
            _assert_reduced(reps)
            assert all(type(reps[idx]) is GQ for idx in np.ndindex(reps.shape))
            want = {"empty": K.shape[1], "whole": 0}.get(
                name, K.shape[1] - len(_ref_rref(_entries(I))[1]))
            assert reps.shape == (n, want)


def test_exact_fiber_runs_two_eliminations(monkeypatch):
    """One exact fiber of a k = 3, m = 0 Taub-NUT draw eliminates twice:
    beta (9 x 23) for its kernel, then the 12 x 14 coordinates of alpha in
    that kernel."""
    d = taubnut.generate_taubnut(3, 0, seed=2, exact=True)
    point = taubnut.big_monad(d).evaluate((GQ(Fraction(1, 2), 1), GQ(2, -1)))
    shapes = []
    eliminate = nk._eliminate

    def counted(M):
        shapes.append(M.shape)
        return eliminate(M)
    monkeypatch.setattr(nk, "_eliminate", counted)
    assert monadcore.fiber(point).dim == 2
    assert shapes == [(9, 23), (12, 14)]


@pytest.mark.parametrize("field", [GQ, Fraction])
def test_to_float_matches_entrywise_conversion(field):
    rng = np.random.default_rng(17)
    M = _oracle_matrix(rng, 5, 6, field, big=True)
    M[0, 0] = GQ(Fraction(10**400 + 1, 3 * 10**399))   # beyond float range parts
    ref = np.array([[complex(e.re) + 1j * complex(e.im) for e in row]
                    for row in M])
    out = nk.to_float(nk.exact_matrix(M))
    assert out.dtype == complex
    assert (out == ref).all()


def _ref_det_poly(M):
    """det(eta I - M) by cofactor expansion along the first row, in Q(i)
    arithmetic: coefficient lists, lowest degree first."""
    def mul(a, b):
        out = [GQ(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    def det(rows):
        if not rows:
            return [GQ(1)]
        total = [GQ(0)]
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = mul(entry, det(minor))
            total += [GQ(0)] * (len(term) - len(total))
            for i, c in enumerate(term):
                total[i] = total[i] + c if j % 2 == 0 else total[i] - c
        return total

    n = M.shape[0]
    return det([[[GQ(0) - M[i, j]] + ([GQ(1)] if i == j else [])
                 for j in range(n)] for i in range(n)])


def _charpoly_oracle_inputs():
    """B0, B1 and the monodromy (m > 0) or A (m = 0) of the exact draws of
    both flavors at every (k, m) pair, seeds 0-3, then a real 4 x 4
    matrix, a 1 x 1 and a 0 x 0 one."""
    out = []
    for gen in (caloron.generate_caloron, taubnut.generate_taubnut):
        for k, m in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)):
            for seed in range(4):
                d = gen(k, m, seed=seed, exact=True)
                out += [d.B0, d.B1, d.monodromy if m else d.A]
    rng = np.random.default_rng(8)
    out.append(nk.exact_matrix(_oracle_matrix(rng, 4, 4, Fraction, big=True)))
    out.append(nk.exact_matrix(_oracle_matrix(rng, 1, 1, GQ, big=True)))
    out.append(nk.exact_zeros(0, 0))
    return out


def test_exact_charpoly_matches_cofactor_determinant():
    """The exact Faddeev-LeVerrier of numkit.charpoly of exact matrices
    against det(eta I - M) expanded by cofactors of their entries: equal
    values, GaussianRational coefficients."""
    inputs = _charpoly_oracle_inputs()
    assert {M.shape[0] for M in inputs} == {0, 1, 2, 3, 4}
    for M in inputs:
        got = nk.charpoly(M)
        assert all(type(c) is GQ for c in got)
        assert got == _ref_det_poly(M)[::-1]


@pytest.fixture
def made_counts(monkeypatch):
    """The number of exact matrices made through the reducing constructor
    (every result of exact arithmetic is), in a one-entry list."""
    made = [0]
    init = nk.ExactMatrix.__init__

    def counted(self, *args):
        made[0] += 1
        init(self, *args)
    monkeypatch.setattr(nk.ExactMatrix, "__init__", counted)
    return made


def test_exact_chains_split_once_and_join_results_only(made_counts):
    """An exact matrix is stored split, so the chains that stay in Z[i]
    make no exact matrix along the way: charpoly of an exact n x n matrix
    makes none, and neither does composite_residual of a closing exact
    monad, whose numerator tensors the monad's builder made once."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4, 5):
        for field in (GQ, Fraction):
            M = nk.exact_matrix(_oracle_matrix(rng, n, n, field, big=True))
            made_counts[0] = 0
            assert all(type(c) is GQ for c in nk.charpoly(M))
            assert made_counts[0] == 0
    for k, m in ((1, 0), (2, 1), (3, 0)):
        d = taubnut.generate_taubnut(k, m, seed=2, exact=True)
        for pm in (taubnut._big_monad_unchecked(d),
                   caloron.small_monad(caloron.generate_caloron(
                       k, m, seed=2, exact=True))):
            for _ in range(2):
                made_counts[0] = 0
                assert pm.composite_residual() == 0.0
                assert made_counts[0] == 0


def test_full_rank_margin_is_finite_and_can_fail():
    ctx = ToleranceContext(rank_tol=1e-10, gap_factor=1e3)
    assert nk.rank_kernel(np.diag([1.0, 1e-6]).astype(complex), ctx).shape \
        == (2, 0)
    assert ctx.rank_cut([1.0, 1e-6]) == (2, pytest.approx(1e4))
    with pytest.raises(nk.GapTooSmall):
        nk.rank_kernel(np.diag([1.0, 1e-8]).astype(complex), ctx)
    assert ctx.rank_cut([3.0, 2.0]) == (2, pytest.approx(2.0 / 3e-10))
    assert ctx.rank_cut([0.0, 0.0]) == (0, np.inf)
    assert ctx.rank_cut([2.0, 0.0]) == (1, np.inf)


DEFECTIVE_S = np.array([[2, 1, -1], [1, 3, 2], [-1, 1, 1]], dtype=float)


def _defective_pencil(b_fixes_eigenvector: bool = False):
    """A = S J S^-1 with J = 2 I + e1 e2^T: eigenvalue 2 with a Jordan block
    of size 2, which eigvals returns only to about 1e-8.  D kills S e1, the
    one eigenvector of A in ker D, and B does not fix it (unless asked to:
    then B S e1 = 5 S e1 and (2, 5, S e1) is an obstruction)."""
    S = DEFECTIVE_S
    Sinv = np.linalg.inv(S)
    J = 2 * np.eye(3)
    J[0, 1] = 1
    M = np.diag([5.0, 6.0, 7.0])
    if not b_fixes_eigenvector:
        M[1, 0] = 1.0
    Y = np.array([[0, 1, 2], [0, -1, 3]], dtype=float)
    return [X.astype(complex) for X in (S @ J @ Sinv, S @ M @ Sinv, Y @ Sinv)]


def test_obstruction_search_at_a_defective_eigenvalue():
    A, B, D = _defective_pencil()
    eigs = np.linalg.eigvals(A)
    assert np.max(np.abs(eigs - 2)) > 1e-9          # the spread being handled
    tol = 1e-8 * np.max(np.abs(eigs))
    found = list(nk._eigen_kernels(A, eigs, D, tol, nk.DEFAULT_CTX))
    assert len(found) == 1
    xi, W = found[0]
    assert abs(xi - 2) < 1e-12 and W.shape == (3, 1)
    assert nk.common_eigenvector_obstruction(A, B, D) == []


def test_obstruction_found_at_a_defective_eigenvalue():
    """B fixes the eigenvector S e1: the compressed pencil [S - eta; G] is
    zero up to rounding, which only an absolute floor at the scale of the
    pencil reads as rank 0."""
    A, B, D = _defective_pencil(b_fixes_eigenvector=True)
    obs = nk.common_eigenvector_obstruction(A, B, D)
    assert len(obs) == 1
    o = obs[0]
    assert abs(o.xi - 2) < 1e-12 and abs(o.eta - 5) < 1e-12
    e1 = DEFECTIVE_S[:, 0] / np.linalg.norm(DEFECTIVE_S[:, 0])
    assert abs(abs(np.vdot(e1, o.vector)) - 1) < 1e-12


def test_rank_floor_margin():
    ctx = ToleranceContext(rank_tol=1e-10, gap_factor=1e3)
    # everything under the floor: rank 0, margin floor / sigma_max
    assert ctx.rank_cut([1e-15, 1e-16], floor=1e-9) == (0, pytest.approx(1e6))
    with pytest.raises(nk.GapTooSmall):
        ctx.rank_cut([1e-11], floor=1e-9)
    # the floor decides a full-rank cut: sigma_min / floor
    assert ctx.rank_cut([1e-3, 1e-5], floor=1e-9) == (2, pytest.approx(1e4))


@pytest.mark.parametrize("rank_tol", [0.0, -1e-10, float("nan"),
                                      float("inf"), 1.0, 2.0])
def test_tolerance_context_refuses_rank_tol_outside_unit_interval(rank_tol):
    with pytest.raises(nk.InvalidArgument):
        ToleranceContext(rank_tol=rank_tol)
