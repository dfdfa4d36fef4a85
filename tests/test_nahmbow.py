from fractions import Fraction

import numpy as np
import pytest

from bowmonad import monadcore as mc, nahmbow as nb, numkit as nk, taubnut as tn
from bowmonad.nahmbow import NotInNormalForm


def comm(X, Y):
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# representation theory


def test_su2_irrep_m1_scalars():
    r = nb.su2_irrep(1)
    assert all(np.allclose(x, 0) for x in r)


def test_su2_irrep_m2_half_pauli():
    r1, r2, r3 = nb.su2_irrep(2)
    cas = r1 @ r1 + r2 @ r2 + r3 @ r3
    assert np.allclose(cas, 0.75 * np.eye(2))
    assert np.max(np.abs(comm(r1, r2) + 1j * r3)) == 0.0
    # entries are half integers
    for r in (r1, r2, r3):
        assert np.all(np.abs(2 * r - np.round(2 * r.real) -
                             1j * np.round(2 * r.imag)) < 1e-15)


def test_su2_irrep_m3_casimir():
    r1, r2, r3 = nb.su2_irrep(3)
    cas = r1 @ r1 + r2 @ r2 + r3 @ r3
    assert np.allclose(cas, 2.0 * np.eye(3))
    assert np.max(np.abs(comm(r2, r3) + 1j * r1)) == 0.0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_su2_irrep_commutant_is_scalar(m):
    rho = nb.su2_irrep(m)
    rows = [np.kron(np.eye(m), r) - np.kron(r.T, np.eye(m)) for r in rho]
    null = nk.rank_kernel(np.vstack(rows)).kernel
    assert null.shape[1] == 1         # Schur: commutant is scalars
    for r in rho:
        assert np.max(np.abs(r - r.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# flows


def test_scalar_flow_is_stationary():
    one = np.array([[0.7]], dtype=complex)
    seg = nb.flow(one, 2 * one, -one, 0.0, 1.0, 1e-2)
    assert seg.drift == 0.0
    assert np.allclose(seg.T1[-1], one)


def test_pole_ansatz_reproduced_fourth_order():
    rho = nb.su2_irrep(2)
    T0 = [r / 0.1 for r in rho]
    errs = {}
    for step in (2e-2, 1e-2):
        seg = nb.flow(*T0, 0.1, 1.0, step, drift_tol=1e-3)
        errs[step] = max(np.max(np.abs(seg.T1[-1] - rho[0])),
                         np.max(np.abs(seg.T3[-1] - rho[2])))
    ratio = errs[2e-2] / errs[1e-2]
    assert 10 < ratio < 24           # fourth order halving ~ 16
    seg = nb.flow(*T0, 0.1, 1.0, 1e-3)
    err = max(np.max(np.abs(T[-1] - r))
              for T, r in zip((seg.T1, seg.T2, seg.T3), rho))
    assert err < 1e-9


def test_flow_preserves_hermiticity():
    # modest initial size keeps the flow pole outside the interval
    rng = np.random.default_rng(0)
    Ts = [0.3 * (X + X.conj().T) for X in
          (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
           for _ in range(3))]
    seg = nb.flow(*Ts, 0.0, 1.0, 1e-3)
    for T in (seg.T1, seg.T2, seg.T3):
        herm = np.max(np.abs(T - np.conj(np.transpose(T, (0, 2, 1)))))
        assert herm < 1e-10


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_step_too_coarse():
    rng = np.random.default_rng(1)
    Ts = [(X + X.conj().T) for X in
          (3 * rng.standard_normal((3, 3)) + 3j * rng.standard_normal((3, 3))
           for _ in range(3))]
    with pytest.raises(nb.StepTooCoarse):
        nb.flow(*Ts, 0.0, 1.0, 0.2, drift_tol=1e-10)


def _unstacked_rk4(T1, T2, T3, s0, s1, step):
    """Reference: RK4 on the three matrices held separately, one commutator
    at a time."""
    n = max(2, int(np.ceil((s1 - s0) / step)) + 1)
    h = np.linspace(s0, s1, n)[1] - s0
    rhs = lambda T1, T2, T3: (-1j * comm(T2, T3), -1j * comm(T3, T1),
                              -1j * comm(T1, T2))
    cur, out = [np.asarray(T, dtype=complex) for T in (T1, T2, T3)], []
    for i in range(n):
        out.append(cur)
        if i == n - 1:
            break
        k1 = rhs(*cur)
        k2 = rhs(*(T + h / 2 * K for T, K in zip(cur, k1)))
        k3 = rhs(*(T + h / 2 * K for T, K in zip(cur, k2)))
        k4 = rhs(*(T + h * K for T, K in zip(cur, k3)))
        cur = [T + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
               for T, K1, K2, K3, K4 in zip(cur, k1, k2, k3, k4)]
    return [np.array(T) for T in zip(*out)]


def test_stacked_flow_matches_unstacked_rk4():
    """The stacked triple takes the same arithmetic steps as three separate
    matrices, so the segments are equal bit for bit."""
    rng = np.random.default_rng(2)
    starts = [([r / 0.1 for r in nb.su2_irrep(d)], 0.1) for d in (2, 3, 4)]
    starts += [([0.1 * (X + X.conj().T) for X in
                 (rng.standard_normal((r, r))
                  + 1j * rng.standard_normal((r, r)) for _ in range(3))], 0.0)
               for r in (1, 3)]
    # the window views of the stage buffer depend on r
    starts += [([0.1 * (X + X.conj().T) for X in
                 (rng.standard_normal((r, r))
                  + 1j * rng.standard_normal((r, r)) for _ in range(3))], 0.0)
               for r in (2, 4)]
    # the copy into the stage buffer depends on the input layout: real
    # float64 matrices passed as transposed views
    real = [(0.1 * (X + X.T)).T for X in
            (rng.standard_normal((3, 3)) for _ in range(3))]
    assert not any(T.flags.c_contiguous for T in real)
    starts.append((real, 0.0))
    for Ts, s0 in starts:
        seg = nb.flow(*Ts, s0, 1.0, 1e-3)
        want = _unstacked_rk4(*Ts, s0, 1.0, 1e-3)
        for T, W in zip((seg.T1, seg.T2, seg.T3), want):
            assert np.array_equal(T, W)


@pytest.mark.parametrize("step", [0.0, -0.01, np.nan, np.inf])
def test_flow_refuses_a_step_that_is_not_finite_and_positive(step):
    one = np.array([[1.0]], dtype=complex)
    with pytest.raises(nk.InvalidArgument):
        nb.flow(one, one, one, 0.0, 1.0, step)


def _malformed_starts():
    one, two = np.eye(1), np.eye(2, dtype=complex)
    inf, nan = two.copy(), two.copy()
    inf[0, 1], nan[1, 1] = np.inf, complex(0.0, np.nan)
    return {"mismatched": (two, two, one), "not-square": (np.ones((2, 3)),) * 3,
            "vectors": (np.ones(2),) * 3, "scalars": (1.0, 1.0, 1.0),
            "inf-entry": (two, inf, two), "nan-entry": (nan, two, two)}


@pytest.mark.parametrize("name", sorted(_malformed_starts()))
def test_flow_refuses_a_malformed_start_triple(name):
    """Three matrices that are not square of one shape, or that have an
    entry that is not finite, are refused before any step is taken."""
    with pytest.raises(nk.InvalidArgument, match="start triple"):
        nb.flow(*_malformed_starts()[name], 0.0, 1.0, 1e-2)


def test_an_empty_zeta_set_is_refused():
    """A drift check over no zeta cannot fail, so flow, charpoly_drift and
    isospectral_drift refuse an empty zeta set."""
    rho = [r / 0.1 for r in nb.su2_irrep(2)]
    with pytest.raises(nk.InvalidArgument, match="zeta"):
        nb.flow(*rho, 0.1, 1.0, 1e-2, zeta_checks=())
    seg = nb.flow(*rho, 0.1, 1.0, 1e-2)
    for check in (nb.charpoly_drift, nb.isospectral_drift):
        with pytest.raises(nk.InvalidArgument, match="zeta"):
            check(seg, [])


@pytest.mark.parametrize("zetas", [(0.0, np.inf), (np.nan,), (1.0, 1j * np.inf)])
def test_a_zeta_that_is_not_finite_is_refused(zetas):
    """A drift check at a zeta that is not finite reads nan, so flow,
    charpoly_drift and isospectral_drift refuse it."""
    rho = [r / 0.1 for r in nb.su2_irrep(2)]
    with pytest.raises(nk.InvalidArgument, match="finite zetas"):
        nb.flow(*rho, 0.1, 1.0, 1e-2, zeta_checks=zetas)
    seg = nb.flow(*rho, 0.1, 1.0, 1e-2)
    for check in (nb.charpoly_drift, nb.isospectral_drift):
        with pytest.raises(nk.InvalidArgument, match="finite zetas"):
            check(seg, zetas)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_drift_that_is_not_a_number_fails():
    """A finite zeta whose square overflows makes the drift nan, which
    fails the drift check instead of passing it."""
    rho = [r / 0.1 for r in nb.su2_irrep(2)]
    with pytest.raises(nb.StepTooCoarse, match="drift nan"):
        nb.flow(*rho, 0.1, 1.0, 1e-2, zeta_checks=(0.0, 1e200))


@pytest.mark.parametrize("s0, s1", [(1.0, 0.1), (0.5, 0.5), (np.nan, 1.0),
                                    (0.0, np.inf), (-np.inf, 0.0)])
def test_flow_refuses_an_interval_that_is_not_finite_and_increasing(s0, s1):
    rho = [r / 0.1 for r in nb.su2_irrep(2)]
    with pytest.raises(nk.InvalidArgument, match="interval"):
        nb.flow(*rho, s0, s1, 1e-3)


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_step_too_coarse_names_the_first_sample_that_is_not_finite():
    """A start far past the step's reach overflows within a few steps, long
    before the drift check; the refusal names the s of the first sample the
    unstacked reference loop leaves the finite regime at."""
    start = [-20 * r for r in nb.su2_irrep(2)]
    s0, s1, step = 0.0, 1.0, 0.05
    want = np.stack(_unstacked_rk4(*start, s0, s1, step), axis=1)
    finite = np.isfinite(want).all(axis=(1, 2, 3))
    assert 0 < np.argmin(finite) < len(finite) - 1
    first = np.linspace(s0, s1, len(finite))[np.argmin(finite)]
    with pytest.raises(nb.StepTooCoarse, match="finite regime") as refused:
        nb.flow(*start, s0, s1, step)
    assert f"near s = {first:.4f} " in str(refused.value)


def test_pole_proximity_guard():
    one = np.array([[1.0]], dtype=complex)
    with pytest.raises(nb.PoleProximity):
        nb.flow(one, one, one, -0.5, 0.5, 1e-2, lam_points=(0.25,))


# ---------------------------------------------------------------------------
# boundary data


def test_unit_edge_pins_the_end_triple():
    # Bth = Bht = 1: the end identity forces (T1, T2, T3) = (1, 0, 0)
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.0, Bht=1.0, j_minus=0.5)
    t1, t2, t3 = sol.tail.at(rep.ell / 2)
    assert abs(t1[0, 0] - 1) < 1e-14 and abs(t2[0, 0]) < 1e-14 \
        and abs(t3[0, 0]) < 1e-14
    assert nb.check_boundary(sol).passed


def test_fundamental_jump_rank_one_at_zeta_zero():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.3 - 0.4j, Bht=0.6 + 0.9j, j_minus=1.1)
    report = nb.check_boundary(sol)
    assert report.passed
    jump0 = sol.middle.beta_at(rep.lam_minus) - sol.head.beta_at(rep.lam_minus)
    want = sol.I_minus @ sol.J_minus
    assert np.max(np.abs(jump0 - want)) < 1e-12
    assert np.linalg.matrix_rank(want, tol=1e-12) <= 1


def test_boundary_report_m1():
    rep = nb.BowRepresentation(1.0, 0.3, 1, 1)
    sol = nb.solution_k1_m1(rep, mu1=(1.0, 0.2, -0.4), mu2=(-0.3, 0.7, 0.5),
                            weight=0.35)
    report = nb.check_boundary(sol)
    assert report.passed
    assert report["continuing_minus"].passed
    assert report["continuing_plus"].passed


def test_broken_edge_is_caught():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.0, Bht=1.0, j_minus=0.5)
    sol.Bth = sol.Bth + 0.2
    report = nb.check_boundary(sol)
    assert not report["bifundamental_tail"].passed


def test_m2_pole_fit_recovers_irrep():
    rho = nb.su2_irrep(2)
    lam = 0.3
    c = np.array([0.4, -0.1, 0.2])
    # exact one-pole flow embedded in the (1+2)-block middle, pole at lam_plus
    def T(i, s):
        out = np.zeros((3, 3), dtype=complex)
        out[0, 0] = c[i]
        out[1:, 1:] = rho[i] / (s - lam)
        return out
    # grid nodes aligned with the fit sample distances {2, 4, 8} eps, so
    # interpolation is exact at the sampled points
    eps = 1e-3
    grid = lam - eps * np.arange(599, 0, -1)
    seg = nb.Segment(-lam, lam, 3, grid,
                     np.stack([T(0, s) for s in grid]),
                     np.stack([T(1, s) for s in grid]),
                     np.stack([T(2, s) for s in grid]))
    fitted, res = nb.fit_pole_residues(seg, lam, -eps)
    assert res < 1e-8
    ok, equiv = nb.residues_match_irrep(fitted, 2)
    assert ok and equiv < 1e-6


def test_noisy_pole_fit_is_refused_not_raised():
    """Residues off the irrep by about 1e-9 give an intertwiner system whose
    full rank cannot be decided: the match fails instead of raising."""
    rng = np.random.default_rng(4)
    noisy = [r + 1e-9 * (rng.standard_normal(r.shape)
                         + 1j * rng.standard_normal(r.shape))
             for r in nb.su2_irrep(2)]
    assert nb.residues_match_irrep(noisy, 2) == (False, np.inf)


# ---------------------------------------------------------------------------
# spectral curves


def test_point_at_origin_curve():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    seg = nb.diagonal_solution(rep, [(0.0, 0.0, 0.0)])
    curve = nb.spectral_curve(seg)
    assert curve.rank == 1
    assert set(curve.coeffs) == {(1, 0)}
    assert abs(curve.coeffs[(1, 0)] - 1) < 1e-12


def test_diagonal_k2_product_of_twistor_lines():
    rep = nb.BowRepresentation(1.0, 0.25, 2, 0)
    seg = nb.diagonal_solution(rep, [(1, 0, 0), (0, 0, 1)])
    curve = nb.spectral_curve(seg)
    want = {(2, 0): 1, (1, 0): -1, (1, 1): 2, (1, 2): 1, (0, 1): -2, (0, 3): 2}
    assert set(curve.coeffs) == set(want)
    for key, val in want.items():
        assert abs(curve.coeffs[key] - val) < 1e-9
    assert curve.grading_ok()
    assert curve.reality_residual() < 1e-10
    assert curve.s_drift < 1e-12


def test_curve_reality_and_grading_for_bow_solution():
    rep = nb.BowRepresentation(1.0, 0.3, 1, 1)
    sol = nb.solution_k1_m1(rep, mu1=(0.9, -0.3, 0.4), mu2=(-0.5, 0.8, -0.2),
                            weight=0.4)
    for which in ("S0", "S1"):
        curve = nb.spectral_curve(sol, which=which)
        assert curve.grading_ok()
        assert curve.reality_residual() < 1e-9
        assert curve.s_drift < 1e-10


def test_curve_intersection_count_recorded():
    rep = nb.BowRepresentation(1.0, 0.3, 1, 1)
    sol = nb.solution_k1_m1(rep, mu1=(0.9, -0.3, 0.4), mu2=(-0.5, 0.8, -0.2),
                            weight=0.4)
    s0 = nb.spectral_curve(sol, "S0")
    s1 = nb.spectral_curve(sol, "S1")
    zetas = np.exp(2j * np.pi * np.arange(20) / 20) * 0.9
    common = 0
    for z in zetas:
        e0 = np.roots([s0.coeffs.get((1, j), 0) for j in (0,)] and
                      [1] + [sum(s0.coeffs.get((i, j), 0) * z ** j
                                 for j in range(3)) for i in (0,)])
        # count eta roots shared between the two curves at this zeta
        r0 = np.roots([s0.coeffs.get((1, 0), 1),
                       sum(s0.coeffs.get((0, j), 0) * z ** j for j in range(3))])
        poly1 = [s1.coeffs.get((2, 0), 1),
                 sum(s1.coeffs.get((1, j), 0) * z ** j for j in range(3)),
                 sum(s1.coeffs.get((0, j), 0) * z ** j for j in range(5))]
        r1 = np.roots(poly1)
        for a in np.atleast_1d(r0):
            common += int(min(abs(a - b) for b in r1) < 1e-6)
    # recorded, not asserted against a closed count
    assert common >= 0


def test_isospectral_drift_small_k3():
    rng = np.random.default_rng(5)
    Ts = [0.2 * (X + X.conj().T) for X in
          (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for _ in range(3))]
    seg = nb.flow(*Ts, 0.0, 1.0, 1e-3)
    assert nb.isospectral_drift(seg, [0.0, 0.5, -1.0, 1j, 2.0]) < 1e-8


def _exact_of(z):
    """The float z as an element of Q(i), converted without rounding."""
    return nk.GQ(Fraction(z.real), Fraction(z.imag))


def test_float_charpoly_matches_exact_oracle():
    """numkit.charpoly on float stacks against the exact Faddeev-LeVerrier
    of the same entries converted exactly to Q(i): coefficient j of an
    n x n matrix within n j eps |M|_2^j (the error compared exactly).
    Random matrices at r = 1-4 and three scales, and the nilpotent Lax
    matrices of the su(2) irreps, whose lower coefficients are exactly 0."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    zetas = np.array([0.0, 0.5, -1.0, 1j, 2.0])
    stacks = [scale * (rng.standard_normal((40, r, r))
                       + 1j * rng.standard_normal((40, r, r)))
              for r in (1, 2, 3, 4) for scale in (0.1, 1.0, 10.0)]
    stacks += [nb.lax(*nb.su2_irrep(d), zetas[:, None, None]) for d in (2, 3, 4)]
    for Ms in stacks:
        n = Ms.shape[-1]
        got = nk.charpoly(Ms)
        assert got.shape == (len(Ms), n + 1)
        for M, c in zip(Ms, got):
            want = nk.charpoly(nk.exact_matrix([[_exact_of(z) for z in row]
                                                for row in M]))
            norm = np.linalg.norm(M, 2)
            for j in range(n + 1):
                err = nk.to_float(nk.exact_matrix([[_exact_of(c[j]) - want[j]]]))
                assert abs(err[0, 0]) <= n * j * eps * norm ** j, (n, j)


def test_charpoly_drift_matches_per_sample_charpoly():
    """The stacked drift against numkit.charpoly sample by sample and zeta
    by zeta.  A stacked product may round differently from a single one;
    each coefficient is within b = n j eps |L|_2^j of the exact one
    (test_float_charpoly_matches_exact_oracle), so two drifts, each a
    difference of two coefficients, differ by at most 4 b."""
    eps = np.finfo(float).eps
    zetas = [0.0, 0.5, -1.0, 1j, 2.0]
    rng = np.random.default_rng(5)
    herm = lambda r: [0.3 * (X + X.conj().T) for X in
                      (rng.standard_normal((r, r))
                       + 1j * rng.standard_normal((r, r)) for _ in range(3))]
    segs = [nb.flow(*herm(3), 0.0, 1.0, 1e-3)]
    segs += [nb.flow(*[r / 0.1 for r in nb.su2_irrep(d)], 0.1, 1.0, 1e-3)
             for d in (2, 4)]
    # T2 = 0 at the first sample only: a Hermitian Lax matrix at zeta = 0
    # there alone
    T1, T2, T3 = [np.stack(X) for X in zip(*(herm(2) for _ in range(4)))]
    T2[0] = 0
    segs.append(nb.Segment(0.0, 1.0, 2, np.linspace(0.0, 1.0, 4), T1, T2, T3))
    for seg in segs:
        n = seg.rank
        want, bound = np.zeros(len(seg.s_grid)), 0.0
        for z in zetas:
            laxes = [nb.lax(seg.T1[i], seg.T2[i], seg.T3[i], z)
                     for i in range(len(seg.s_grid))]
            polys = [nk.charpoly(L) for L in laxes]
            want = np.maximum(want, [np.max(np.abs(c - polys[0]))
                                     for c in polys])
            norm = max(np.linalg.norm(L, 2) for L in laxes)
            bound = max(bound, max(n * j * eps * norm ** j
                                   for j in range(n + 1)))
        got = nb.charpoly_drift(seg, zetas)
        assert got.shape == want.shape and got[0] == 0.0
        assert np.max(np.abs(got - want)) <= 4 * bound
        assert abs(nb.isospectral_drift(seg, zetas) - want.max()) <= 4 * bound


# ---------------------------------------------------------------------------
# shadows and the finite reduction


def matched_pair_m0():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 0)
    sol = nb.solution_k1_m0(rep, Bth=1.4 + 0.2j, Bht=0.8 - 0.5j, j_minus=0.9)
    bc = nb.complex_shadow(sol)
    return sol, bc, tn.from_bow_complex(bc)


def matched_pair_m1():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 1)
    sol = nb.solution_k1_m1(rep, mu1=(0.9, -0.3, 0.4), mu2=(-0.5, 0.8, -0.2),
                            weight=0.4, axis_phase=0.9)
    bc = nb.complex_shadow(sol)
    return sol, bc, tn.from_bow_complex(bc, tol=1e-7)


def test_shadow_consistency():
    for pair in (matched_pair_m0, matched_pair_m1):
        sol, bc, data = pair()
        assert bc.edge_factors(1e-10)
        assert tn.validate(data).passed


# the one rank-one jump factorization: a column whose leading `lead` entries
# vanish, times a row


def rank_one(rng, lead):
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    u[:lead] = 0
    return u @ (rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3)))


@pytest.mark.parametrize("lead", [0, 1, 2])
def test_rank_one_factor_float(lead):
    """The SVD path: the product comes back to rounding, and the first
    entry of the column above rounding is 1."""
    R = rank_one(np.random.default_rng(lead), lead)
    col, row = nb.rank_one_factor(R, 1e-12)
    assert col.shape == (3, 1) and row.shape == (1, 3)
    assert np.max(np.abs(col @ row - R)) < 1e-14 * np.max(np.abs(R))
    assert np.all(np.abs(col[:lead]) < 1e-12)
    assert abs(col[lead, 0] - 1) < 1e-15


@pytest.mark.parametrize("lead", [0, 1, 2])
def test_rank_one_factor_exact(lead):
    """The pivot path on Gaussian rationals: the product is R exactly, and
    the column is zero above its first nonzero entry, which is 1."""
    rng = np.random.default_rng(10 + lead)
    u = [[nk.GQ(Fraction(int(a), 3), int(b))] for a, b in
         rng.integers(1, 5, size=(3, 2))]
    for i in range(lead):
        u[i][0] = nk.GQ(0)
    v = [[nk.GQ(int(a), Fraction(int(b), 2)) for a, b in
          rng.integers(1, 5, size=(3, 2))]]
    R = nk.mat_mul(nk.exact_matrix(u), nk.exact_matrix(v))
    col, row = nb.rank_one_factor(R, 1e-12)
    assert nk.mat_mul(col, row) == R
    assert nk.is_zero_matrix(col[:lead]) and col[lead, 0] == 1


def test_rank_one_factor_refuses_rank_two():
    rng = np.random.default_rng(3)
    R = rank_one(rng, 0) + rank_one(rng, 0)
    with pytest.raises(NotInNormalForm, match="rank > 1"):
        nb.rank_one_factor(R, 1e-12)
    Rx = nk.exact_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(NotInNormalForm, match="rank > 1"):
        nb.rank_one_factor(Rx, 1e-12)


def test_rank_one_factor_of_zero_is_none():
    """None on a zero R, and on floats within tol of zero; on the exact
    backend only the zero matrix is zero."""
    assert nb.rank_one_factor(np.zeros((3, 3), complex), 1e-12) is None
    assert nb.rank_one_factor(np.full((2, 2), 1e-13 + 0j), 1e-12) is None
    assert nb.rank_one_factor(nk.exact_matrix([[0, 0], [0, 0]]), 1e-12) is None
    tiny = nk.exact_matrix([[0, Fraction(1, 10**15)], [0, 0]])
    col, row = nb.rank_one_factor(tiny, 1e-12)
    assert nk.mat_mul(col, row) == tiny


def _sequential_transport(seg, s0, s1, steps):
    """Reference: RK4 on dP/ds = T3 P one step at a time."""
    n = max(8, steps)
    grid = np.linspace(s0, s1, n + 1)
    h = grid[1] - grid[0]
    nodes = np.empty(2 * n + 1)
    nodes[0::2] = grid
    nodes[1::2] = grid[:-1] + h / 2
    T3 = seg.sample(nodes)[2]
    P = np.eye(seg.rank, dtype=complex)
    for i in range(n):
        start, mid, end = T3[2 * i], T3[2 * i + 1], T3[2 * i + 2]
        k1 = start @ P
        k2 = mid @ (P + h / 2 * k1)
        k3 = mid @ (P + h / 2 * k2)
        k4 = end @ (P + h * k3)
        P = P + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return P


@pytest.fixture(scope="module")
def transport_cases():
    """name -> (segment, s0, s1): the su(2) pole flows of dims 2-4 under a
    seeded unitary, random Hermitian flows of ranks 1 and 3, and a constant
    triple stored as a sampled segment."""
    rng = np.random.default_rng(20)
    cases = {}
    for d in (2, 3, 4):
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        rho = [q @ r @ q.conj().T / 0.1 for r in nb.su2_irrep(d)]
        cases[f"pole{d}"] = (nb.flow(*rho, 0.1, 1.0, 1e-3), 0.1, 1.0)
    for r in (1, 3):
        Ts = [0.1 * (X + X.conj().T) for X in
              (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
               for _ in range(3))]
        cases[f"hermitian{r}"] = (nb.flow(*Ts, 0.0, 1.0, 1e-3), 0.0, 1.0)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    zero = np.zeros((2, 2), complex)
    const = nb.constant_segment(0.0, 0.7, zero, zero, H + H.conj().T, 33)
    cases["sampled-constant"] = (nb.Segment(
        0.0, 0.7, 2, const.s_grid, const.T1, const.T2, const.T3), 0.0, 0.7)
    return cases


@pytest.mark.parametrize("steps", [8, 9, 400, 401, 2000])
def test_transport_matches_sequential_rk4(transport_cases, steps):
    """The batched step matrices and their product tree give the sequential
    RK4 transport up to rounding.  Each side rounds every one of the n
    steps at most about eps/2 relative to |P|_2 (the 1 + O(h) factors),
    and the tree adds at most about r eps per level of rank-r products, so
    the gap stays below (n + r ceil(log2 n)) eps |P|_2 (largest measured
    ratio 0.43)."""
    eps = np.finfo(float).eps
    for name, (seg, s0, s1) in transport_cases.items():
        want = _sequential_transport(seg, s0, s1, steps)
        got = nb.transport(seg, s0, s1, steps)
        bound = ((steps + seg.rank * np.ceil(np.log2(steps))) * eps
                 * np.linalg.norm(want, 2))
        assert np.max(np.abs(got - want)) <= bound, name


def test_transport_reads_only_t3(transport_cases):
    seg, s0, s1 = transport_cases["pole3"]
    blind = nb.Segment(seg.s0, seg.s1, seg.rank, seg.s_grid,
                       np.full_like(seg.T1, np.nan),
                       np.full_like(seg.T2, np.nan), seg.T3)
    P = nb.transport(blind, s0, s1)
    assert np.isfinite(P).all()
    assert np.array_equal(P, nb.transport(seg, s0, s1))


def test_transport_constant_matches_rk4():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((2, 2))
    H = (H + H.T) / 2
    seg_const = nb.constant_segment(0.0, 0.7, np.zeros((2, 2), complex),
                                    np.zeros((2, 2), complex), H.astype(complex))
    seg_samp = nb.Segment(0.0, 0.7, 2, seg_const.s_grid, seg_const.T1,
                          seg_const.T2, seg_const.T3, constant=False)
    P1 = nb.transport(seg_const, 0.0, 0.7)
    P2 = nb.transport(seg_samp, 0.0, 0.7, steps=2000)
    assert np.max(np.abs(P1 - P2)) < 1e-9


def test_constant_segment_is_its_first_sample():
    """A constant segment is its first sample everywhere, whatever else it
    stores: with one sample, and with later T3 samples that differ."""
    rng = np.random.default_rng(3)
    T3 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    zeros = np.zeros_like(T3)
    one = nb.Segment(0.0, 0.7, 2, np.array([0.0]), zeros[:1], zeros[:1],
                     T3[:1], constant=True)
    many = nb.Segment(0.0, 0.7, 2, np.linspace(0.0, 0.7, 3), zeros, zeros,
                      T3, constant=True)
    # the RK4 transport of the first sample, as a sampled segment
    first = nb.Segment(0.0, 0.7, 2, many.s_grid, zeros, zeros,
                       np.repeat(T3[:1], 3, axis=0))
    want = nb.transport(first, 0.0, 0.7, steps=2000)
    for seg in (one, many):
        assert np.array_equal(seg.at(0.35)[2], T3[0])
        stacked = seg.sample(np.linspace(-0.1, 0.8, 7))[2]
        assert stacked.shape == (7, 2, 2) and all(
            np.array_equal(t, T3[0]) for t in stacked)
        assert np.max(np.abs(nb.transport(seg, 0.0, 0.7) - want)) < 1e-9


def test_reduce_scalar_closed_form_fiber():
    _, bc, _ = matched_pair_m0()
    fm = nb.finite_monad_family(bc)
    rng = np.random.default_rng(6)
    for _ in range(5):
        pt = (complex(rng.standard_normal() + 1j * rng.standard_normal()),
              complex(rng.standard_normal() + 1j * rng.standard_normal()))
        assert mc.fiber(fm.evaluate(pt)).dim == 2


def test_reduce_matches_big_monad_on_matched_data():
    d = tn.generate_taubnut(2, 1, seed=13)
    bc = tn.to_bow_complex(d)
    fm = nb.finite_monad_family(bc)
    assert fm.composite_residual() < 1e-13
    bm = tn._big_monad_unchecked(d).to_float()
    rng = np.random.default_rng(7)
    for pt in mc.random_chart_points(10, rng):
        assert mc.fiber_dim(bm.evaluate(pt)) == mc.fiber_dim(fm.evaluate(pt))


# the generic chart points of the Dirac kernel tests
GENERIC_POINTS = [(0.7 + 0.3j, 0.4 - 0.6j), (1.1 - 0.2j, -0.5 + 0.8j),
                  (-0.6 + 0.9j, 1.2 + 0.1j), (0.9 + 0.0j, -0.9 - 0.4j),
                  (0.3 - 1.1j, 0.8 + 0.5j)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduce_exact_m0_matches_float_data(k):
    """The finite monad of an exact m = 0 bow complex has rank-2 fibers, as
    the one built from the same data in floats does."""
    for seed in range(4):
        d = tn.generate_taubnut(k, 0, seed=seed, exact=True)
        fms = [nb.finite_monad_family(tn.to_bow_complex(data))
               for data in (d, tn._float_data(d))]
        for pt in GENERIC_POINTS:
            assert [mc.fiber_dim(fm.evaluate(pt)) for fm in fms] == [2, 2]


def test_reduce_on_jumping_line_point():
    sol, bc, data = matched_pair_m1()
    eta0 = nk.to_float(data.B0)[0, 0]
    pt = (1.3 + 0.0j, complex(eta0) / 1.3)
    assert mc.fiber(nb.finite_monad_family(bc).evaluate(pt)).dim == 2


def test_reduce_refuses_high_pole_order():
    rep = nb.BowRepresentation(1.0, 0.25, 1, 2)
    fake = nb.BowComplexTN(1, 2, np.eye(1, dtype=complex),
                           np.eye(1, dtype=complex), np.eye(1, dtype=complex),
                           np.eye(1, dtype=complex), np.eye(3, dtype=complex),
                           np.eye(3, dtype=complex))
    with pytest.raises(nb.BuildRefused):
        nb.finite_monad_family(fake)


def test_bow_representation_guards():
    with pytest.raises(ValueError):
        nb.BowRepresentation(1.0, 0.5, 1, 0)     # lambda on the edge point
    with pytest.raises(ValueError):
        nb.BowRepresentation(1.0, 0.0, 1, 0)
