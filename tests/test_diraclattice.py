import tracemalloc
import warnings

import numpy as np
import pytest

from bowmonad import diraclattice as dlm, nahmbow as nb, numkit as nk


def pair_m0():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    return nb.solution_k1_m0(rep, Bth=1.4 + 0.2j, Bht=0.8 - 0.5j, j_minus=0.9)


def pair_m1():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 1)
    return nb.solution_k1_m1(rep, mu1=(0.9, -0.3, 0.4), mu2=(-0.5, 0.8, -0.2),
                             weight=0.4, axis_phase=0.9)


GENERIC_POINTS = [(0.7 + 0.3j, 0.4 - 0.6j), (1.1 - 0.2j, -0.5 + 0.8j),
                  (-0.6 + 0.9j, 1.2 + 0.1j), (0.9 + 0.0j, -0.9 - 0.4j),
                  (0.3 - 1.1j, 0.8 + 0.5j)]


def test_shape_arithmetic_m0():
    sol = pair_m0()
    dl = dlm.assemble(sol, GENERIC_POINTS[0], grid=256)
    rows, cols = dl.shape
    # index bookkeeping: two more unknowns than equations
    assert cols - rows == 2
    assert dl.n_aux == 2 + 2          # W-, W+ and the two edge scalars
    assert dl.h == pytest.approx(1.0 / 256)


def test_shape_arithmetic_m1_no_w_columns():
    sol = pair_m1()
    dl = dlm.assemble(sol, GENERIC_POINTS[0], grid=128)
    rows, cols = dl.shape
    assert cols - rows == 2
    assert dl.n_aux == 2              # edge scalars only
    # middle nodes carry rank 2 blocks
    assert sol.middle.rank == 2


def test_zero_data_unit_point_z_block():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    z = lambda: np.zeros((1, 1), dtype=complex)
    head = nb.constant_segment(-0.5, -0.25, z(), z(), z())
    mid = nb.constant_segment(-0.25, 0.25, z(), z(), z())
    tail = nb.constant_segment(0.25, 0.5, z(), z(), z())
    sol = nb.NahmSolution(rep, head, mid, tail, z(), z(),
                          I_minus=z(), J_minus=z(), I_plus=z(), J_plus=z())
    dl = dlm.assemble(sol, (1.0, 1.0), grid=32)
    # the multiplication block on every link is T1 + iT2 - xi psi = -1
    p1, p2, r = _sites(dl)[0]
    col_psi2 = 1    # second spinor component of the first node
    assert dl.matrix[p2, 0] == pytest.approx(-0.5)   # Z/2 on the left node
    assert dl.matrix[p1, col_psi2] == pytest.approx(-0.5)  # Z^dag/2


def test_kernel_dim_two_at_generic_points():
    sol = pair_m0()
    for pt in GENERIC_POINTS:
        dl = dlm.assemble(sol, pt, grid=128)
        dim, basis, gap = dlm.kernel(dl)
        assert dim == 2
        assert np.isfinite(gap) and gap > 1e3
        assert np.max(np.abs(dl.matrix @ basis)) < 1e-8 * np.max(np.abs(dl.matrix))


def _continuum_kernel(sol, pt):
    """Transfer-matrix kernel of the constant k=1, m=0 family member, in the
    coordinates (psi(h), w-, w+, u_h, u_t)."""
    rep = sol.rep
    t12 = pt[0] * pt[1]
    t3 = (abs(pt[1]) ** 2 - abs(pt[0]) ** 2) / 2

    def transfer(seg, s0, s1):
        t1, t2, t3s = seg.at((s0 + s1) / 2)
        M = t3s[0, 0] - t3
        Z = t1[0, 0] + 1j * t2[0, 0] - t12
        G = np.array([[M, -np.conj(Z)], [-Z, -M]], dtype=complex)
        w, V = np.linalg.eig(G * (s1 - s0))
        return V @ np.diag(np.exp(w)) @ np.linalg.inv(V)

    lm, lp, e = rep.lam_minus, rep.lam_plus, rep.ell / 2
    TH = transfer(sol.head, -e, lm)
    TM = transfer(sol.middle, lm, lp)
    TT = transfer(sol.tail, lp, e)
    Jm = np.array([[-np.conj(sol.J_minus[0, 0])], [-sol.I_minus[0, 0]]])
    Jp = np.array([[-np.conj(sol.J_plus[0, 0])], [-sol.I_plus[0, 0]]])
    A_h = TT @ TM @ TH
    A_wm = TT @ TM @ Jm
    A_wp = TT @ Jp
    Bth, Bht = sol.Bth[0, 0], sol.Bht[0, 0]
    xi, psi_ = pt
    rows = np.zeros((4, 6), dtype=complex)
    rows[0, 0] = 1
    rows[0, 4] = np.conj(xi)
    rows[0, 5] = np.conj(Bth)
    rows[1, 1] = 1
    rows[1, 4] = -psi_
    rows[1, 5] = Bht
    rows[2, :2] = -A_h[0]
    rows[2, 2], rows[2, 3] = -A_wm[0, 0], -A_wp[0, 0]
    rows[2, 4] += np.conj(Bht)
    rows[2, 5] += -np.conj(psi_)
    rows[3, :2] = -A_h[1]
    rows[3, 2], rows[3, 3] = -A_wm[1, 0], -A_wp[1, 0]
    rows[3, 4] += -Bth
    rows[3, 5] += -xi
    return nk.rank_kernel(rows)


def _subspace_angle(A, B):
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    s = np.clip(np.linalg.svd(Qa.conj().T @ Qb, compute_uv=False), -1, 1)
    return float(np.arccos(s.min()))


def test_refinement_stability_and_basis_angles():
    sol = pair_m0()
    pt = GENERIC_POINTS[0]
    want = _continuum_kernel(sol, pt)
    assert want.shape[1] == 2
    study = dlm.refinement_study(sol, pt, grids=(64, 128, 256))
    assert [s["dim"] for s in study] == [2, 2, 2]
    angles = []
    for s in study:
        basis = s["basis"]
        coords = np.vstack([basis[0:2], basis[-4:]])    # psi(h), W's, edges
        angles.append(_subspace_angle(coords, want))
    assert angles[0] > angles[1] > angles[2]
    assert angles[2] < 1e-3


def test_reality_residual_decreases():
    for pair in (pair_m0, pair_m1):
        sol = pair()
        study = dlm.refinement_study(sol, GENERIC_POINTS[1],
                                     grids=(64, 128, 256))
        r = [s["reality"] for s in study]
        assert r[0] > r[1] > r[2]
        assert r[0] / r[1] > 1.7 and r[1] / r[2] > 1.7


def test_positivity_at_generic_points():
    sol = pair_m1()
    for pt in GENERIC_POINTS[:3]:
        dl = dlm.assemble(sol, pt, grid=96)
        assert dlm.positivity(dl) > 1e-6


def test_min_eig_decays_toward_singular_ray():
    """For a nearly abelian solution (small fundamental data) the squared
    operator degenerates as the family point runs into the bow's own
    location; the minimum eigenvalue trends to zero along that ray."""
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.4 + 0.2j, Bht=0.8 - 0.5j, j_minus=0.05)
    target = (sol.Bht[0, 0], sol.Bth[0, 0])
    start = GENERIC_POINTS[0]
    vals = []
    for t in (0.0, 0.5, 0.9, 1.0):
        pt = (start[0] * (1 - t) + target[0] * t,
              start[1] * (1 - t) + target[1] * t)
        dl = dlm.assemble(sol, pt, grid=96)
        vals.append(dlm.positivity(dl))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.3 * vals[0]


def test_broken_data_caught_before_kernel():
    sol = pair_m0()
    sol.Bth = sol.Bth + 0.4          # violates the bifundamental identity
    report = nb.check_boundary(sol)
    assert not report.passed
    assert not report["bifundamental_tail"].passed


def _weighted(dl):
    """Oracle: the dense operator in the pairing where the junction rows
    (distributional components) carry their natural weight h instead of
    1/h."""
    M = dl.matrix.copy()
    M[dl.n_link_rows:] *= dl.h
    return M


def _sites(dl):
    """Oracle: (row of the first spinor component, row of the second, rows
    per component) of every equation site of the dense operator: each link
    of each segment, then the junction sites, site i at rows 2k i and
    2k i + k of the junction rows."""
    k = len(dl.junction) // (2 * dlm.JUNCTION_SITES)
    j0 = dl.n_link_rows
    return ([(p, p + w // 2, w // 2) for r0, _, n, w in dl.segments
             for p in range(r0, r0 + (n - 1) * w, w)]
            + [(j0 + 2 * k * i, j0 + 2 * k * i + k, k)
               for i in range(dlm.JUNCTION_SITES)])


def _dense_kernel(dl):
    """Oracle: kernel of the whole operator by a dense SVD."""
    return nk.rank_kernel(dl.matrix)


def _dense_reality(dl):
    """Oracle: the commutator of the squared operator with the structure,
    both formed as dense matrices."""
    M = _weighted(dl)
    G = M @ M.conj().T
    n = G.shape[0]
    C = np.zeros((n, n), dtype=complex)
    for p1, p2, r in _sites(dl):
        C[p1:p1 + r, p2:p2 + r] = -np.eye(r)
        C[p2:p2 + r, p1:p1 + r] = np.eye(r)
    resid = G @ C - C @ G.conj()
    return np.linalg.norm(resid, 2) / np.linalg.norm(G, 2)


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_transfer_kernel_matches_dense_oracle(pair):
    sol = pair()
    for grid in (8, 16, 64, 256):
        for pt in GENERIC_POINTS:
            dl = dlm.assemble(sol, pt, grid)
            dim, basis, gap = dlm.kernel(dl)
            want = _dense_kernel(dl)
            assert dim == want.shape[1] == 2
            assert _subspace_angle(basis, want) < 1e-6
            assert np.allclose(basis.conj().T @ basis, np.eye(dim))
            assert (np.linalg.norm(dl.matrix @ basis, 2)
                    < 1e-12 * np.linalg.norm(dl.matrix, 2))
            assert np.isfinite(gap) and gap > 1e3


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_reality_residual_matches_dense_commutator(pair):
    sol = pair()
    for grid in (64, 128, 256):
        for pt in GENERIC_POINTS:
            dl = dlm.assemble(sol, pt, grid)
            want = _dense_reality(dl)
            assert abs(dlm.reality_residual(dl) - want) <= 1e-12 * want


def _dense_chain(g, skip):
    """Oracle: the dense matrix of a _Chain with its first `skip` rows (the
    decoupled leading block) and its padding rows left out, written block
    by block; and the chain rows it keeps, in order."""
    nb_, W = g.D.shape[:2]
    keep = np.ones((nb_, W), dtype=bool)
    keep[g.pad] = False
    keep = np.flatnonzero(keep.ravel())
    keep = keep[keep >= skip]
    n = nb_ * W + len(g.S)
    A = np.zeros((n, n), dtype=complex)
    for j in range(nb_):
        A[j * W:(j + 1) * W, j * W:(j + 1) * W] = g.D[j]
        A[nb_ * W:, j * W:(j + 1) * W] = g.C[j]
        A[j * W:(j + 1) * W, nb_ * W:] = g.C[j].conj().T
    for j in range(nb_ - 1):
        A[(j + 1) * W:(j + 2) * W, j * W:(j + 1) * W] = g.B[j]
        A[j * W:(j + 1) * W, (j + 1) * W:(j + 2) * W] = g.B[j].conj().T
    A[nb_ * W:, nb_ * W:] = g.S
    rows = np.concatenate([keep, np.arange(nb_ * W, n)])
    return A[np.ix_(rows, rows)], rows


def _check_chain_solver(g, A, rows, rng):
    """Solve residual against a dense solve, and positive definiteness
    against dense eigvalsh, at shifts below, inside and above the spectrum
    of the chain's matrix A; and the shift-and-invert Lanczos value at both
    ends of the spectrum, from shifts outside it, against eigvalsh to the
    rounding level."""
    lam = np.linalg.eigvalsh(A)
    scale = np.abs(lam).max()
    gap = (lam[-1] - lam[0]) / len(lam)
    for shift, sign, want in ((lam[0] - gap, 1.0, lam[0]),
                              (lam[-1] + gap, -1.0, lam[-1])):
        value, v = dlm._lanczos(g, shift, sign,
                                len(A) * np.finfo(float).eps * scale)
        assert abs(value - want) <= 1e-12 * scale
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.delete(v, rows)).max() == 0.0
    n = g.D.shape[0] * g.D.shape[1] + len(g.S)
    # midpoints between eigenvalues distinct beyond rounding: a shift inside
    # a double eigenvalue that rounding splits decides nothing
    distinct = np.diff(lam) > len(lam) * np.finfo(float).eps * scale
    mids = ((lam[:-1] + lam[1:]) / 2)[distinct]
    for shift in (lam[0] - gap, mids[len(mids) // 3], mids[-1],
                  lam[-1] + gap):
        for sign in (1.0, -1.0):
            Ad = sign * (A - shift * np.eye(len(A)))
            want = bool(np.linalg.eigvalsh(Ad)[0] > 0)
            assert dlm._definite(g, shift, sign) == want
            V = np.zeros((n, 3), dtype=complex)
            V[rows] = rng.standard_normal((len(rows), 3))
            x = dlm._BlockLDL(g, shift, sign).solve(g, V)
            ref = np.linalg.solve(Ad, V[rows])
            assert (np.linalg.norm(x[rows] - ref)
                    <= 1e-10 * np.linalg.cond(Ad) * np.linalg.norm(ref))
            assert np.abs(np.delete(x, rows, 0)).max() == 0.0


def _random_chain(rng, length, w, double=False):
    """A random Hermitian block chain whose border (three rows) couples to
    every block, with a decoupled zero leading block; with double, every
    block is tensored with I_2, so every eigenvalue is exactly double."""
    cplx = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    D, B, C, S = (cplx(length + 1, w, w), cplx(length, w, w),
                  cplx(length + 1, 3, w), cplx(3, 3))
    D += dlm._H(D)
    S += S.conj().T
    D[0], B[0], C[0] = 0.0, 0.0, 0.0
    if double:
        D, B, C, S = (np.kron(X, np.eye(2)) for X in (D, B, C, S))
        w *= 2
    return dlm._Chain(D, B, C, S, (np.zeros(w, dtype=int), np.arange(w)))


_TAIL = dlm.TAIL_BLOCKS


@pytest.mark.parametrize("w", [2, 4])
@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 33, _TAIL - 1, _TAIL,
                                    _TAIL + 1, 200])
def test_block_ldl_on_random_bordered_chains(length, w):
    """Random Hermitian block chains whose border couples to every block:
    the odd-even factorization solves like a dense solve and is positive
    definite exactly when the dense spectrum is, so an indefinite chain is
    refused.  The lengths put the chain (leading block included) at the
    dense tail's size, one block past it and two, and at 201 blocks, which
    leave the tail after five levels."""
    rng = np.random.default_rng(100 * length + w)
    g = _random_chain(rng, length, w)
    A, rows = _dense_chain(g, w)
    x = rng.standard_normal((len(g.D) * w + 3, 2)) + 0j
    x[:w] = 0.0
    assert np.allclose(g.matvec(x)[rows], A @ x[rows], rtol=0, atol=1e-12)
    _check_chain_solver(g, A, rows, rng)


@pytest.mark.parametrize("length", [2, 8, 33])
def test_block_ldl_on_chain_with_double_eigenvalues(length):
    """A chain whose blocks are X (x) I_2 has every eigenvalue exactly
    double (a degenerate top or bottom pair): one start vector still finds
    the value at both ends."""
    rng = np.random.default_rng(length)
    g = _random_chain(rng, length, 3, double=True)
    A, rows = _dense_chain(g, 6)
    lam = np.linalg.eigvalsh(A)
    assert np.allclose(lam[0::2], lam[1::2], rtol=0,
                       atol=1e-12 * np.abs(lam).max())
    _check_chain_solver(g, A, rows, rng)


@pytest.mark.parametrize("grid", [8, 16])
def test_block_ldl_on_padded_gram_chain(grid):
    """m = 1: the outer segments' blocks are half as wide as the middle's
    and are padded.  The chain's matrix is the dense W W^H."""
    sol = pair_m1()
    dl = dlm.assemble(sol, GENERIC_POINTS[2], grid)
    g = dlm._Chain.of(dl, dl.h)
    A, rows = _dense_chain(g, g.D.shape[1])
    W = _weighted(dl)
    assert np.allclose(A, W @ W.conj().T, rtol=0,
                       atol=1e-13 * np.abs(A).max())
    assert g.gershgorin() >= np.linalg.eigvalsh(A)[-1]
    _check_chain_solver(g, A, rows, np.random.default_rng(grid))


def _segment_blocks(dl, g):
    """The blocks of the chain g = _Chain.of(dl, .) per segment, without
    padding: the link diagonal blocks, the blocks coupling link j+1 to link
    j, and the junction rows against the first and against the last link."""
    out, b = [], 1
    for _, _, n, w in dl.segments:
        out.append((g.D[b:b + n - 1, :w, :w], g.B[b:b + n - 2, :w, :w],
                    g.C[b, :, :w], g.C[b + n - 2, :, :w]))
        b += n - 1
    return out


def _sequential_is_positive(blocks, JJ, tau):
    """Reference: M M^H - tau I positive definite by the sequential block
    LDL^H, one link after the other with the junction coupling carried
    along and the junction border last."""
    border = JJ - tau * np.eye(len(JJ))
    try:
        for diag, sub, head, tail in blocks:
            nb_, w = diag.shape[:2]
            D = diag - tau * np.eye(w)
            S, Z = D[0], head.conj().T
            pivots, Sinv, Zs = [S], [np.linalg.inv(S)], [Z]
            for j in range(1, nb_):
                BS = sub[j - 1] @ Sinv[-1]
                S = D[j] - BS @ sub[j - 1].conj().T
                Z = (tail.conj().T if j == nb_ - 1 else 0.0) - BS @ Z
                pivots.append(S)
                Sinv.append(np.linalg.inv(S))
                Zs.append(Z)
            np.linalg.cholesky(np.array(pivots))
            Zs = np.array(Zs)
            border = border - (dlm._H(Zs) @ (np.array(Sinv) @ Zs)).sum(0)
        np.linalg.cholesky(border)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_positivity_certificate_agrees_with_sequential_factorization(pair):
    """The odd-even certificate decides as the sequential block LDL^H at the
    shift positivity_bracket certifies and at shifts just past lambda_min,
    so the brackets are unchanged."""
    sol = pair()
    for grid in (8, 64, 256, 512):
        for pt in GENERIC_POINTS[:3]:
            dl = dlm.assemble(sol, pt, grid)
            lower, value, _ = dlm.positivity_bracket(dl)
            g = dlm._Chain.of(dl, 1.0)
            for tau in ((lower + value) / 2, 1.001 * value, 1.1 * value):
                assert (dlm._definite(g, tau, 1.0)
                        == _sequential_is_positive(_segment_blocks(dl, g),
                                                   g.S, tau)
                        == (tau < value))


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_gram_normaliser_matches_eigvalsh(pair):
    """The certified top of G = W W^H against the dense eigvalsh: within
    1e-13, inside the bracket, and the bracket at most 1e-12 wide."""
    sol = pair()
    for grid in (8, 16, 64, 256):
        for pt in GENERIC_POINTS:
            dl = dlm.assemble(sol, pt, grid)
            W = _weighted(dl)
            want = np.linalg.eigvalsh(W @ W.conj().T)[-1]
            lower, value, upper = dlm._gram_top_bracket(
                dl, dlm._Chain.of(dl, dl.h))
            assert abs(value - want) <= 1e-13 * want
            assert lower <= want <= upper
            assert upper - lower <= 1e-12 * value


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_gram_normaliser_refuses_a_value_below_the_top(pair, monkeypatch):
    """The factorization of (value + eps_r) I - G must fail once value is
    below lambda_max: a value 1% low is refused, not used."""
    sol = pair()
    dl = dlm.assemble(sol, GENERIC_POINTS[0], 64)
    solve = dlm._lanczos

    def low(g, shift, sign, tol):
        value, v = solve(g, shift, sign, tol)
        return 0.99 * value, v

    monkeypatch.setattr(dlm, "_lanczos", low)
    with pytest.raises(dlm.CertificateFailed) as err:
        dlm.reality_residual(dl)
    assert isinstance(err.value, nk.BowmonadError)


def test_lanczos_refuses_a_step_that_overflows():
    """A decoupled chain whose diagonal blocks are 1e-300 I: the first solve
    overflows, and the step is refused by name, without a NumPy warning,
    instead of divided by."""
    D = np.zeros((3, 2, 2), dtype=complex)
    D[1:] = 1e-300 * np.eye(2)
    g = dlm._Chain(D, np.zeros((2, 2, 2), dtype=complex),
                   np.zeros((3, 1, 2), dtype=complex), np.eye(1) + 0j,
                   (np.zeros(2, dtype=int), np.arange(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dlm.NumericalBreakdown, match="Lanczos step 0"):
            dlm._lanczos(g, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("solver", ["_lanczos", "eigvalsh"])
def test_reality_residual_refuses_a_failed_eigen_solver(solver, monkeypatch):
    """An eigen-solver that raises LinAlgError inside reality_residual (the
    Lanczos factorization of its normaliser, or the commutator block's
    eigvalsh) is refused as NumericalBreakdown, a BowmonadError."""
    dl = dlm.assemble(pair_m1(), GENERIC_POINTS[0], 64)

    def fail(*args, **kw):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(dlm if solver == "_lanczos" else np.linalg,
                        solver, fail)
    with pytest.raises(dlm.NumericalBreakdown, match="Singular matrix"):
        dlm.reality_residual(dl)


def test_assemble_refuses_segments_shorter_than_two_steps():
    sol = pair_m0()
    for grid in (0, -4, 4, 6, 7):
        with pytest.raises(nk.InvalidArgument):
            dlm.assemble(sol, GENERIC_POINTS[0], grid)
    assert [n for _, _, n, _ in dlm.assemble(sol, GENERIC_POINTS[0],
                                             8).segments] == [3, 5, 3]


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_positivity_matches_dense_svd(pair):
    """Lanczos on (M M^H)^-1 through the block LDL^H of the Gram chain
    against the smallest singular value of the whole operator, which must
    lie in the certified bracket."""
    sol = pair()
    for grid in (8, 16, 64, 256):
        for pt in GENERIC_POINTS:
            dl = dlm.assemble(sol, pt, grid)
            want = np.linalg.svd(dl.matrix, compute_uv=False)[-1] ** 2
            lower, value, upper = dlm.positivity_bracket(dl)
            assert abs(value - want) <= 1e-10 * want
            assert 0 < lower <= want <= upper
            assert dlm.positivity(dl) == value


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_positivity_certificate_refuses_a_value_above_the_minimum(
        pair, monkeypatch):
    """The block Cholesky of M M^H - tau I must fail once tau passes
    lambda_min: a Lanczos value 1% too high is refused, not reported."""
    sol = pair()
    dl = dlm.assemble(sol, GENERIC_POINTS[0], 64)
    solve = dlm._lanczos

    def high(g, shift, sign, tol):
        value, v = solve(g, shift, sign, tol)
        return 1.01 * value, v

    monkeypatch.setattr(dlm, "_lanczos", high)
    with pytest.raises(dlm.SingularPoint, match="not certified"):
        dlm.positivity(dl)


@pytest.mark.parametrize("pair", [pair_m0, pair_m1])
def test_solvers_never_build_the_dense_operator(pair):
    """kernel, positivity_bracket and reality_residual read the link stacks
    and the junction rows: on a fresh lattice they leave the dense operator
    unbuilt.  Built afterwards, it holds every link's (L, R) in its link
    rows and the junction rows below them."""
    sol = pair()
    for grid in (8, 64):
        for pt in GENERIC_POINTS[:2]:
            dl = dlm.assemble(sol, pt, grid)
            dlm.kernel(dl)
            dlm.positivity_bracket(dl)
            dlm.reality_residual(dl)
            assert "matrix" not in vars(dl)
            M = dl.matrix
            assert M.shape == dl.shape
            assert np.array_equal(M[dl.n_link_rows:], dl.junction)
            for (r0, c0, n, w), (L, R) in zip(dl.segments, dl.links):
                for j in range(n - 1):
                    LR = np.hstack([L[j], R[j]])
                    rows = M[r0 + j * w:r0 + (j + 1) * w]
                    assert np.array_equal(
                        rows[:, c0 + j * w:c0 + (j + 2) * w], LR)
                    assert np.count_nonzero(rows) == np.count_nonzero(LR)


def test_refinement_to_grid_1024_stays_small():
    """The lattice holds no dense operator, so a refinement study to grid
    1024 allocates a few megabytes, not the 151 MB of the grid-1024 dense
    matrix."""
    tracemalloc.start()
    try:
        study = dlm.refinement_study(pair_m1(), GENERIC_POINTS[0],
                                     grids=(256, 512, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s["dim"] for s in study] == [2, 2, 2]
    assert peak < 40e6


def test_positivity_refused_at_reducible_point():
    """The point of test_kernel_margin_fails_at_reducible_point: M M^H is
    singular there, which positivity reports as SingularPoint."""
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.4 + 0.2j, Bht=0.8 - 0.5j, j_minus=0.0)
    pt = (sol.Bht[0, 0], sol.Bth[0, 0])
    dl = dlm.assemble(sol, pt, grid=96)
    with pytest.raises(dlm.SingularPoint) as err:
        dlm.positivity(dl)
    assert isinstance(err.value, nk.BowmonadError)
    near = dlm.assemble(sol, (0.99 * pt[0], 0.99 * pt[1]), 96)
    assert dlm.positivity(near) > 0


def test_kernel_margin_fails_at_reducible_point():
    """The abelian solution (no fundamental data) at the bow's own location:
    the reduced junction system drops rank, so the kernel is refused rather
    than counted."""
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.4 + 0.2j, Bht=0.8 - 0.5j, j_minus=0.0)
    near = dlm.assemble(sol, (0.99 * sol.Bht[0, 0], 0.99 * sol.Bth[0, 0]), 96)
    assert dlm.kernel(near)[0] == 2
    dl = dlm.assemble(sol, (sol.Bht[0, 0], sol.Bth[0, 0]), grid=96)
    with pytest.raises(nk.GapTooSmall):
        dlm.kernel(dl)


def test_singular_link_refused():
    """Zero data at |xi|^2 + |psi|^2 = 4/h: the link block acting on the
    right-hand node is singular and cannot be eliminated."""
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    z = lambda: np.zeros((1, 1), dtype=complex)
    segs = [nb.constant_segment(s0, s1, z(), z(), z())
            for s0, s1 in ((-0.5, -0.25), (-0.25, 0.25), (0.25, 0.5))]
    sol = nb.NahmSolution(rep, *segs, z(), z(),
                          I_minus=z(), J_minus=z(), I_plus=z(), J_plus=z())
    dl = dlm.assemble(sol, (4.0, 4.0), grid=8)
    with pytest.raises(dlm.SingularLink):
        dlm.kernel(dl)


def test_pole_order_guard():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 2)
    z3 = np.zeros((3, 3), dtype=complex)
    z1 = np.zeros((1, 1), dtype=complex)
    head = nb.constant_segment(-0.5, -0.25, z1, z1, z1)
    mid = nb.constant_segment(-0.25, 0.25, z3, z3, z3)
    tail = nb.constant_segment(0.25, 0.5, z1, z1, z1)
    sol = nb.NahmSolution(rep, head, mid, tail, z1, z1)
    with pytest.raises(dlm.PoleOrderUnsupported):
        dlm.assemble(sol, (1.0, 1.0), grid=32)


def test_kernel_against_transfer_matrix_oracle():
    """Independent continuum check for the constant k=1, m=0 solution: the
    kernel condition reduces to a finite linear system over the segment data
    propagated by closed-form transfer matrices."""
    sol = pair_m0()
    rep = sol.rep
    pt = GENERIC_POINTS[2]
    t12 = pt[0] * pt[1]
    t3 = (abs(pt[1]) ** 2 - abs(pt[0]) ** 2) / 2

    def transfer(seg, s0, s1):
        t1, t2, t3s = seg.at((s0 + s1) / 2)
        M = (t3s[0, 0] - t3)
        Z = t1[0, 0] + 1j * t2[0, 0] - t12
        # psi' = G psi with rows from the two spinor equations
        G = np.array([[M, -np.conj(Z)], [-Z, -M]], dtype=complex)
        w, V = np.linalg.eig(G * (s1 - s0))
        return V @ np.diag(np.exp(w)) @ np.linalg.inv(V)

    lm, lp, e = rep.lam_minus, rep.lam_plus, rep.ell / 2
    # parameters: psi(h) (2), w-, w+, u_h, u_t  -> six unknowns
    # constraints: jumps at lambda points are absorbed by propagation; the
    # four edge rows close the system
    TH = transfer(sol.head, -e, lm)
    TM = transfer(sol.middle, lm, lp)
    TT = transfer(sol.tail, lp, e)
    Jm = np.array([[-np.conj(sol.J_minus[0, 0])], [-sol.I_minus[0, 0]]])
    Jp = np.array([[-np.conj(sol.J_plus[0, 0])], [-sol.I_plus[0, 0]]])
    rows = np.zeros((4, 6), dtype=complex)
    # psi(t) as an affine map of (psi(h), w-, w+)
    A_h = TT @ TM @ TH
    A_wm = TT @ TM @ Jm
    A_wp = TT @ Jp
    Bth, Bht = sol.Bth[0, 0], sol.Bht[0, 0]
    xi, psi_ = pt
    # head edge rows: psi1(h) + conj(xi) u_h + conj(Bth) u_t = 0, etc.
    rows[0, 0] = 1
    rows[0, 4] = np.conj(xi)
    rows[0, 5] = np.conj(Bth)
    rows[1, 1] = 1
    rows[1, 4] = -psi_
    rows[1, 5] = Bht
    # tail edge rows on psi(t)
    rows[2, :2] = -A_h[0]
    rows[2, 2] = -A_wm[0, 0]
    rows[2, 3] = -A_wp[0, 0]
    rows[2, 4] += np.conj(Bht)
    rows[2, 5] += -np.conj(psi_)
    rows[3, :2] = -A_h[1]
    rows[3, 2] = -A_wm[1, 0]
    rows[3, 3] = -A_wp[1, 0]
    rows[3, 4] += -Bth
    rows[3, 5] += -xi
    s = np.linalg.svd(rows, compute_uv=False)
    continuum_dim = 6 - int(np.sum(s > 1e-10 * s[0]))
    dl = dlm.assemble(sol, pt, grid=128)
    dim, _, _ = dlm.kernel(dl)
    assert dim == continuum_dim == 2
