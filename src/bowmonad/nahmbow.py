"""Analytic side: Nahm flows, boundary data, bow complexes, spectral curves
and the reduction of a bow solution to a finite monad.

Conventions (fixed once, enforced by tests):

* Flow:  i dT_i/ds = (1/2) sum_jk eps_ijk [T_j, T_k], i.e.
  dT1/ds = -i [T2, T3] and cyclic; the T_i stay Hermitian.
* Residue triples rho with T_i = rho_i / s an exact solution satisfy
  [rho_1, rho_2] = -i rho_3 and cyclic; Casimir sum rho_i^2 = (m^2-1)/4.
* Lax matrix A(zeta, s) = T1 + i T2 - 2 T3 zeta - (T1 - i T2) zeta^2; its
  characteristic polynomial is constant along the flow.
* Holomorphic reduction: beta = T1 + i T2, connection d/ds + alpha with
  alpha = -T3 (T0 = 0 gauge), so that d(beta)/ds + [alpha, beta] = 0.
* Bow complexes store the middle endomorphism in the normal frame at the
  right lambda point; the middle transport conjugates the left-end form to
  it.  Rank-one jump data at the lambda points is stored with the
  convention  (outer beta) - (middle beta) = I . J  at both points.
* One normalization of stored (I, J) pairs (`_normalize_pair`, also the
  output of `rank_one_factor`): the first nonzero entry of I is 1, and a
  pair with I = 0 is stored unscaled, so J is then the row itself.  A zero
  jump in `complex_shadow` keeps the solution's unitary pair (-I-, J-) or
  (I+, J+) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .monadcore import TWISTS, BlockSpec, ParamMonad, block_starts
from .numkit import DEFAULT_CTX, ToleranceContext, ValidationReport


class StepTooCoarse(nk.BowmonadError):
    pass


class PoleProximity(nk.BowmonadError):
    pass


class TransportSingular(nk.BowmonadError):
    pass


class InterpolationIllConditioned(nk.BowmonadError):
    pass


class NotInNormalForm(nk.BowmonadError):
    pass


class BuildRefused(nk.BowmonadError):
    pass


# ---------------------------------------------------------------------------
# representation data


@dataclass(frozen=True)
class BowRepresentation:
    """One interval of length ell with an edge joining its ends, marked
    points at +-lam, ranks k (outer) and k+m (middle)."""

    ell: float = 1.0
    lam: float = 0.25
    k: int = 1
    m: int = 0

    def __post_init__(self):
        if not (0.0 < self.lam < self.ell / 2):
            raise ValueError("lambda must sit strictly inside (0, ell/2)")

    @property
    def lam_minus(self):
        return -self.lam

    @property
    def lam_plus(self):
        return self.lam


def su2_irrep(m: int):
    """Hermitian triple (rho1, rho2, rho3) of the m-dimensional irreducible
    representation, normalized so that T_i = rho_i/s solves the flow:
    [rho1, rho2] = -i rho3 and cyclic, Casimir = (m^2 - 1)/4."""
    if m < 1:
        raise ValueError("m >= 1")
    if m == 1:
        z = np.zeros((1, 1), dtype=complex)
        return (z, z.copy(), z.copy())
    if m == 2:
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        return (s1 / 2, -s2 / 2, s3 / 2)
    if m == 3:
        L1 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
        L2 = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], dtype=complex)
        L3 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
        return (L1, -L2, L3)
    j = (m - 1) / 2.0
    mm = j - np.arange(m)
    J3 = np.diag(mm).astype(complex)
    Jp = np.zeros((m, m), dtype=complex)
    for i in range(m - 1):
        Jp[i, i + 1] = np.sqrt(j * (j + 1) - mm[i + 1] * (mm[i + 1] + 1))
    Jm = Jp.conj().T
    J1 = (Jp + Jm) / 2
    J2 = (Jp - Jm) / (2j)
    return (J1, -J2, J3)


# ---------------------------------------------------------------------------
# Lax matrices and flows


def lax(T1, T2, T3, zeta) -> np.ndarray:
    """A(zeta) of the triple; zetas shaped (..., 1, 1) stack it."""
    return T1 + 1j * T2 - 2 * zeta * T3 - (T1 - 1j * T2) * zeta ** 2


@dataclass
class Segment:
    """Sampled Nahm triple on [s0, s1]; linear interpolation in between."""

    s0: float
    s1: float
    rank: int
    s_grid: np.ndarray
    T1: np.ndarray       # (n, rank, rank)
    T2: np.ndarray
    T3: np.ndarray
    constant: bool = False
    drift: float = 0.0

    def at(self, s: float):
        return tuple(T[0] for T in self.sample([s]))

    def sample(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T1, T2, T3) at every point of the array s, each stacked along a
        leading axis: a constant segment is its first sample everywhere,
        otherwise the samples are interpolated linearly, clamped to the grid."""
        return tuple(self._lerp(T, s) for T in (self.T1, self.T2, self.T3))

    def _lerp(self, T: np.ndarray, s) -> np.ndarray:
        """One stored stack (T1, T2 or T3) at every point of s, as sample
        takes it."""
        s = np.asarray(s, dtype=float)
        if self.constant:
            return np.repeat(T[:1], len(s), axis=0)
        g = self.s_grid
        s = np.clip(s, g[0], g[-1])
        i = np.clip(np.searchsorted(g, s) - 1, 0, len(g) - 2)
        w = ((s - g[i]) / (g[i + 1] - g[i]))[:, None, None]
        return (1 - w) * T[i] + w * T[i + 1]

    def beta_at(self, s: float):
        t1, t2, _ = self.at(s)
        return t1 + 1j * t2


def constant_segment(s0, s1, T1, T2, T3, samples: int = 2) -> Segment:
    grid = np.linspace(s0, s1, samples)
    mk = lambda T: np.repeat(np.asarray(T, dtype=complex)[None, :, :], samples, 0)
    return Segment(s0, s1, T1.shape[0], grid, mk(T1), mk(T2), mk(T3),
                   constant=True)


def _start_triple(T1, T2, T3) -> np.ndarray:
    """The start of a flow as one (3, r, r) complex stack; three matrices
    that are not square of one shape, or that have an entry that is not
    finite, raise InvalidArgument."""
    Ts = [np.asarray(T, dtype=complex) for T in (T1, T2, T3)]
    shape = Ts[0].shape
    if (any(T.shape != shape for T in Ts) or len(shape) != 2
            or shape[0] != shape[1]):
        raise nk.InvalidArgument(f"start triple must be three square "
                                 f"matrices of one shape, got "
                                 f"{[T.shape for T in Ts]}")
    start = np.array(Ts)
    if not np.isfinite(start).all():
        raise nk.InvalidArgument("start triple has an entry that is not "
                                 "finite")
    return start


def _zeta_nodes(zetas) -> np.ndarray:
    """The zetas of a drift check as an array; an empty set, or a zeta that
    is not finite, raises InvalidArgument (a check over no zeta cannot
    fail, and one at a zeta that is not finite reads nan)."""
    z = np.asarray(zetas)
    if z.size == 0:
        raise nk.InvalidArgument("drift check needs at least one zeta")
    if not np.isfinite(z).all():
        raise nk.InvalidArgument("drift check needs finite zetas")
    return z


def flow(T1, T2, T3, s0: float, s1: float, step: float,
         zeta_checks=(0.0, 0.5, -1.0, 1j, 2.0), drift_tol: float = 1e-6,
         lam_points=(), pole_guard: float = 0.0) -> Segment:
    """RK4 integration of the flow on [s0, s1]; characteristic coefficients
    of the Lax matrix are monitored at the given zeta samples and a drift
    beyond drift_tol, or one that is not a number, raises StepTooCoarse,
    as does a sample that is not finite (naming the first such s).  A step
    that is not finite and positive, an end that is not finite, s1 <= s0, a
    start triple that is not three square matrices of one shape with finite
    entries, or an empty zeta set or one with a zeta that is not finite
    raises InvalidArgument.

    Each stage argument is held in one preallocated (5, r, r) buffer
    X = (T1, T2, T3, T1, T2), and each stage is one windowed product and
    one subtraction into preallocated buffers.  The -i of the flow is
    folded into the stage factors (multiplying by +-i is exact, so the
    samples are those of k = -i [., .] bit for bit); the stage arguments
    and the sum take the IEEE operations, in the order, of cur + half k and
    cur + sixth ((k1 + 2 k2) + 2 k3 + k4)."""
    if not (np.isfinite(step) and step > 0):
        raise nk.InvalidArgument(f"step must be finite and positive, "
                                 f"got {step!r}")
    if not (np.isfinite(s0) and np.isfinite(s1) and s1 > s0):
        raise nk.InvalidArgument(f"interval must be finite with s1 > s0, "
                                 f"got [{s0!r}, {s1!r}]")
    start = _start_triple(T1, T2, T3)
    zetas = _zeta_nodes(zeta_checks)[:, None, None]
    for lam in lam_points:
        if s0 - pole_guard < lam < s1 + pole_guard:
            raise PoleProximity(f"interval [{s0}, {s1}] crosses {lam}")
    n = max(2, int(np.ceil((s1 - s0) / step)) + 1)
    grid = np.linspace(s0, s1, n)
    h = grid[1] - grid[0]
    r = start.shape[1]
    out = np.empty((n, 3, r, r), dtype=complex)
    out[0] = start
    ref = nk.charpoly(lax(*start, zetas))
    half, full, sixth = -0.5j * h, -1j * h, -1j * h / 6
    # the stage argument is X[:3] and X[3:] = X[:2]; with win[j, w] =
    # X[j + w], win[1:3] @ win[2:0:-1] is P = ((T2 T3, T3 T1, T1 T2),
    # (T3 T2, T1 T3, T2 T1)), the order of the three commutators
    X = np.empty((5, r, r), dtype=complex)
    win = np.moveaxis(np.lib.stride_tricks.sliding_window_view(X, 3, axis=0),
                      -1, 1)
    left, right, arg = win[1:3], win[2:0:-1], X[:3]
    P = np.empty((2, 3, r, r), dtype=complex)
    k, acc = np.empty((2, 3, r, r), dtype=complex)

    def commutators(into):
        X[3:] = X[:2]
        np.matmul(left, right, out=P)
        np.subtract(P[0], P[1], out=into)

    # a sample past overflow is inf or nan and stays so; the finite check
    # runs once, after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            cur = out[i]
            arg[...] = cur
            commutators(acc)
            np.multiply(half, acc, out=arg)
            np.add(cur, arg, out=arg)
            commutators(k)
            np.multiply(half, k, out=arg)
            np.add(cur, arg, out=arg)
            np.multiply(2, k, out=k)
            np.add(acc, k, out=acc)
            commutators(k)
            np.multiply(full, k, out=arg)
            np.add(cur, arg, out=arg)
            np.multiply(2, k, out=k)
            np.add(acc, k, out=acc)
            commutators(k)
            np.add(acc, k, out=acc)
            np.multiply(sixth, acc, out=acc)
            np.add(cur, acc, out=out[i + 1])
    finite = np.isfinite(out).all(axis=(1, 2, 3))
    if not finite.all():
        first = grid[np.argmin(finite)]
        raise StepTooCoarse(f"flow left the finite regime near s = "
                            f"{first:.4f} (pole hit or step too large)")
    drift = float(np.max(np.abs(nk.charpoly(lax(*out[-1], zetas)) - ref)))
    if not drift <= drift_tol:                 # nan where zeta^2 overflows
        raise StepTooCoarse(f"isospectral drift {drift:.2e} > {drift_tol:.0e}")
    seg = Segment(s0, s1, r, grid,
                  *np.ascontiguousarray(out.transpose(1, 0, 2, 3)))
    seg.drift = drift
    return seg


def charpoly_drift(seg: Segment, zetas) -> np.ndarray:
    """Per sample, the largest change of a characteristic coefficient of
    the Lax matrix from the first sample, over the given zetas: one
    numkit.charpoly call on the (zetas, samples, r, r) Lax stack.  An
    empty zeta set, or a zeta that is not finite, raises InvalidArgument."""
    c = nk.charpoly(lax(seg.T1, seg.T2, seg.T3,
                        _zeta_nodes(zetas)[:, None, None, None]))
    return np.max(np.abs(c - c[:, :1]), axis=(0, 2))


def isospectral_drift(seg: Segment, zetas) -> float:
    """Max char-poly coefficient drift along a sampled segment (the largest
    value of charpoly_drift)."""
    return float(np.max(charpoly_drift(seg, zetas)))


# ---------------------------------------------------------------------------
# bow solutions


@dataclass
class NahmSolution:
    """Piecewise flow data on the bow with the boundary decorations.

    segments: head [-ell/2, -lam] rank k, middle [-lam, lam] rank k+m,
    tail [lam, ell/2] rank k.  i_minus/i_plus are (k+m) x k isometric
    embeddings of the outer fibers into the middle fiber at the lambda
    points.  For m = 0 the fundamental pairs (I, J) at each lambda point are
    stored with the sign conventions of the unitary jump identities
    A^1 - A^0 = (I- - J-^dag z)(J- + I-^dag z) at lam_minus and
    A^0 - A^1 = (I+ - J+^dag z)(J+ + I+^dag z) at lam_plus.
    """

    rep: BowRepresentation
    head: Segment
    middle: Segment
    tail: Segment
    Bth: np.ndarray
    Bht: np.ndarray
    i_minus: np.ndarray | None = None
    i_plus: np.ndarray | None = None
    I_minus: np.ndarray | None = None   # m = 0 only, shape (k, 1)
    J_minus: np.ndarray | None = None   # (1, k)
    I_plus: np.ndarray | None = None
    J_plus: np.ndarray | None = None

    def __post_init__(self):
        k, m = self.rep.k, self.rep.m
        if self.i_minus is None:
            self.i_minus = np.eye(k + m, k, dtype=complex)
        if self.i_plus is None:
            self.i_plus = np.eye(k + m, k, dtype=complex)

    @property
    def k(self):
        return self.rep.k

    @property
    def m(self):
        return self.rep.m


def solution_k1_m0(rep: BowRepresentation, Bth: complex, Bht: complex,
                   j_minus: complex = 1.0) -> NahmSolution:
    """Closed-form rank-one bow solution.

    The outer triple is pinned by the bifundamental identities; all jumps of
    beta vanish (forced at k = 1), the inner T3 is displaced by the
    fundamental data, and the scalar flow is stationary.
    """
    if rep.k != 1 or rep.m != 0:
        raise ValueError("k = 1, m = 0 generator")
    z = Bth * Bht
    t = np.array([z.real, z.imag, (abs(Bth) ** 2 - abs(Bht) ** 2) / 2.0])
    u3 = t[2] + abs(j_minus) ** 2 / 2.0
    mk = lambda v: np.array([[v]], dtype=complex)
    lm, lp = rep.lam_minus, rep.lam_plus
    head = constant_segment(-rep.ell / 2, lm, mk(t[0]), mk(t[1]), mk(t[2]), 33)
    mid = constant_segment(lm, lp, mk(t[0]), mk(t[1]), mk(u3), 33)
    tail = constant_segment(lp, rep.ell / 2, mk(t[0]), mk(t[1]), mk(t[2]), 33)
    return NahmSolution(rep, head, mid, tail, mk(Bth), mk(Bht),
                        I_minus=mk(0.0), J_minus=mk(j_minus),
                        I_plus=mk(abs(j_minus)), J_plus=mk(0.0))


def solution_k1_m1(rep: BowRepresentation, mu1, mu2, weight: float = 0.5,
                   axis_phase: float = 0.9) -> NahmSolution:
    """Closed-form k=1, m=1 bow solution with a commuting constant middle.

    mu1, mu2 are the two real eigenvalue triples of the middle; the outer
    value is their weight / (1-weight) mixture, realized by unit vectors
    v_minus, v_plus with the same overlap against the joint eigenbasis.
    """
    if rep.k != 1 or rep.m != 1:
        raise ValueError("k = 1, m = 1 generator")
    mu1 = np.asarray(mu1, float)
    mu2 = np.asarray(mu2, float)
    w = float(weight)
    if not 0 < w < 1:
        raise ValueError("weight in (0, 1)")
    t = w * mu1 + (1 - w) * mu2
    u = np.array([1.0, 0.0], dtype=complex)
    uperp = np.array([0.0, 1.0], dtype=complex)
    Tmid = [np.diag([mu1[i], mu2[i]]).astype(complex) for i in range(3)]
    v_minus = np.sqrt(w) * u + np.sqrt(1 - w) * uperp
    v_plus = np.sqrt(w) * u + np.sqrt(1 - w) * np.exp(1j * axis_phase) * uperp
    z = t[0] + 1j * t[1]
    if abs(z) < 1e-12:
        raise ValueError("degenerate edge: Bth*Bht would vanish")
    x = t[2] + np.sqrt(t[2] ** 2 + abs(z) ** 2)
    Bth = np.sqrt(x) * np.exp(0.3j)
    Bht = z / Bth
    mk = lambda v: np.array([[v]], dtype=complex)
    lm, lp = rep.lam_minus, rep.lam_plus
    head = constant_segment(-rep.ell / 2, lm, mk(t[0]), mk(t[1]), mk(t[2]), 33)
    mid = constant_segment(lm, lp, *Tmid, 33)
    tail = constant_segment(lp, rep.ell / 2, mk(t[0]), mk(t[1]), mk(t[2]), 33)
    im = np.stack([v_minus]).T
    ip = np.stack([v_plus]).T
    return NahmSolution(rep, head, mid, tail, mk(Bth), mk(Bht),
                        i_minus=im, i_plus=ip)


def diagonal_solution(rep: BowRepresentation, points) -> Segment:
    """Stationary diagonal flow on one interval: each diagonal entry is a
    fixed point of R^3, so commutators vanish and the curve factors into the
    corresponding twistor lines.  Used for curve tests, not a bow solution."""
    pts = np.asarray(points, dtype=float)
    T = [np.diag(pts[:, i]).astype(complex) for i in range(3)]
    return constant_segment(-rep.lam, rep.lam, *T, 17)


# ---------------------------------------------------------------------------
# boundary report


def _zeta_coeffs_of_product(L, R):
    """(L0 + z L1)(R0 + z R1) -> coefficients of z^0, z^1, z^2."""
    (L0, L1), (R0, R1) = L, R
    return (L0 @ R0, L0 @ R1 + L1 @ R0, L1 @ R1)


def check_boundary(sol: NahmSolution,
                   ctx: ToleranceContext = DEFAULT_CTX) -> ValidationReport:
    """Residuals of the bifundamental end identities, the fundamental data
    at the lambda points, Hermiticity, and (m > 1) the pole residue fit."""
    rep = sol.rep
    report = ValidationReport()
    k, m = rep.k, rep.m

    herm = 0.0
    for seg in (sol.head, sol.middle, sol.tail):
        for T in (seg.T1, seg.T2, seg.T3):
            herm = max(herm, float(np.max(np.abs(T - np.conj(np.transpose(
                T, (0, 2, 1)))))))
    report.add("hermiticity", herm < 1e-10, herm)

    # bifundamental: A0(z, ell/2) = (Bth + z Bht^d)(Bht - z Bth^d)
    #                A0(z, -ell/2) = (Bht - z Bth^d)(Bth + z Bht^d)
    Bth, Bht = sol.Bth, sol.Bht
    for name, seg, s, prod in (
            ("bifundamental_tail", sol.tail, rep.ell / 2,
             ((Bth, Bht.conj().T), (Bht, -Bth.conj().T))),
            ("bifundamental_head", sol.head, -rep.ell / 2,
             ((Bht, -Bth.conj().T), (Bth, Bht.conj().T)))):
        t1, t2, t3 = seg.at(s)
        want = (t1 + 1j * t2, -2 * t3, -(t1 - 1j * t2))
        got = _zeta_coeffs_of_product(*prod)
        res = max(float(np.max(np.abs(w - g))) for w, g in zip(want, got))
        report.add(name, res < 1e-10, res)

    if m == 0:
        for name, s, pair, sign in (
                ("fundamental_minus", rep.lam_minus, (sol.I_minus, sol.J_minus), +1),
                ("fundamental_plus", rep.lam_plus, (sol.I_plus, sol.J_plus), -1)):
            I, J = pair
            if I is None or J is None:
                report.add(name, False, np.inf,
                           note="fundamental pair (I, J) missing")
                continue
            inner = sol.middle.at(s)
            outer = (sol.head if sign > 0 else sol.tail).at(s)
            # sign > 0: A^1 - A^0 at lam_minus; sign < 0: A^1 - A^0 = -(...)
            diff = [sign * (i - o) for i, o in zip(inner, outer)]
            want = (diff[0] + 1j * diff[1], -2 * diff[2], -(diff[0] - 1j * diff[1]))
            got = _zeta_coeffs_of_product((I, -J.conj().T), (J, I.conj().T))
            res = max(float(np.max(np.abs(w - g))) for w, g in zip(want, got))
            report.add(name, res < 1e-10, res)
    else:
        # continuing components match across the lambda points
        for name, s, outer_seg, emb in (
                ("continuing_minus", rep.lam_minus, sol.head, sol.i_minus),
                ("continuing_plus", rep.lam_plus, sol.tail, sol.i_plus)):
            res = 0.0
            for Ti, To in zip(sol.middle.at(s), outer_seg.at(s)):
                res = max(res, float(np.max(np.abs(
                    emb.conj().T @ Ti @ emb - To))))
            report.add(name, res < 1e-8, res)
        if m >= 2:
            eps = 1e-3 * rep.ell
            for name, lam, side in (("pole_fit_minus", rep.lam_minus, +1),
                                    ("pole_fit_plus", rep.lam_plus, -1)):
                rho, res = fit_pole_residues(sol.middle, lam, side * eps)
                ok, ures = residues_match_irrep(rho, m)
                report.add(name, ok and res < 1e-4, max(res, ures))
    return report


def fit_pole_residues(seg: Segment, lam: float, eps: float):
    """Least-squares fit T_i(s) ~ rho_i/(s-lam) + c_i from samples at
    distances {2, 4, 8} eps on the side of the sign of eps."""
    ds = np.array([2 * eps, 4 * eps, 8 * eps])
    rho, residual = [], 0.0
    for comp in range(3):
        vals = np.stack([seg.at(lam + d)[comp] for d in ds])
        A = np.stack([1.0 / ds, np.ones_like(ds)], axis=1)
        sol, res, *_ = np.linalg.lstsq(A, vals.reshape(3, -1), rcond=None)
        rho.append(sol[0].reshape(vals.shape[1:]))
        fit = A @ sol
        residual = max(residual, float(np.max(np.abs(fit - vals.reshape(3, -1)))))
    return rho, residual


def residues_match_irrep(rho, m: int):
    """Unitary equivalence of a fitted residue triple with su2_irrep(m) on
    its nonzero block; returns (ok, residual)."""
    want = su2_irrep(m)
    got = [np.asarray(r) for r in rho]
    n = got[0].shape[0]
    # restrict to the m-dimensional block actually carrying the residues
    norms = np.array([max(np.linalg.norm(r[i]) for r in
                          [np.abs(g) for g in got]) for i in range(n)])
    idx = np.argsort(-norms)[:m]
    idx = np.sort(idx)
    sub = [g[np.ix_(idx, idx)] for g in got]
    # intertwiner: want_i V = V sub_i for all i
    rows = []
    for w, s in zip(want, sub):
        rows.append(np.kron(np.eye(m), w) - np.kron(s.T, np.eye(m)))
    try:
        null = nk.rank_kernel(np.vstack(rows)).kernel
    except nk.GapTooSmall:
        # an intertwiner system that is nearly, but not decidedly,
        # solvable certifies no equivalence
        return False, np.inf
    if null.shape[1] == 0:
        return False, np.inf
    V = null[:, 0].reshape(m, m, order="F")
    if np.linalg.cond(V) > 1e8:
        return False, np.inf
    V = V / np.linalg.norm(V) * np.sqrt(m)
    res = max(float(np.max(np.abs(V @ s @ np.linalg.inv(V) - w)))
              for w, s in zip(want, sub))
    return res < 1e-5, res


# ---------------------------------------------------------------------------
# spectral curves


@dataclass
class SpectralCurve:
    rank: int
    coeffs: dict            # {(i, j): complex} for eta^i zeta^j
    s_drift: float = 0.0

    def grading_ok(self) -> bool:
        return not any(j > 2 * (self.rank - i) and abs(c) > 1e-8
                       for (i, j), c in self.coeffs.items())

    def reality_residual(self) -> float:
        """Invariance under (eta, zeta) -> (-eta~/zeta~^2, -1/zeta~), i.e.
        c[i, 2(r-i)-j] = (-1)^(r+i+j) conj(c[i, j])."""
        r = self.rank
        worst = 0.0
        scale = max(abs(c) for c in self.coeffs.values()) or 1.0
        for i in range(r + 1):
            for j in range(2 * (r - i) + 1):
                a = self.coeffs.get((i, j), 0.0)
                b = self.coeffs.get((i, 2 * (r - i) - j), 0.0)
                worst = max(worst, abs(b - (-1) ** (r + i + j) * np.conj(a)))
        return worst / scale


def spectral_curve(sol_or_seg, which: str = "S0",
                   zeta_samples: int = None) -> SpectralCurve:
    """det(eta I - A(zeta, s)) as a bivariate polynomial, interpolated from
    characteristic polynomials at Vandermonde zeta nodes (default 2r + 3;
    fewer than the 2r + 1 unknowns of each eta coefficient raise
    InvalidArgument); constancy in s is verified at three interior values."""
    if isinstance(sol_or_seg, NahmSolution):
        seg = {"S0": sol_or_seg.tail, "S1": sol_or_seg.middle}[which]
    else:
        seg = sol_or_seg
    r = seg.rank
    n = 2 * r + 3 if zeta_samples is None else zeta_samples
    if n < 2 * r + 1:
        raise nk.InvalidArgument(f"rank {r} needs at least {2 * r + 1} zeta "
                                 f"samples, got {n}")
    nodes = 1.3 * np.exp(2j * np.pi * np.arange(n) / n) + 0.07
    V = np.vander(nodes, 2 * r + 1, increasing=True)
    if np.linalg.cond(V) > 1e10:
        raise InterpolationIllConditioned("zeta nodes too clustered")
    T = seg.sample(np.linspace(seg.s0, seg.s1, 5)[1:-1])
    rows = nk.charpoly(lax(*T, nodes[:, None, None, None]))   # (n, 3, r+1)
    cz = np.linalg.lstsq(V, rows.reshape(n, -1), rcond=None)[0]
    cz = cz.reshape(2 * r + 1, 3, r + 1)        # zeta power, s, eta degree
    c0 = cz[:, 0]
    big = 1e-11 * max(1.0, np.max(np.abs(c0)))
    coeffs = {(i, j): complex(c0[j, r - i]) for i in range(r + 1)
              for j in range(2 * r + 1) if abs(c0[j, r - i]) > big}
    return SpectralCurve(r, coeffs, float(np.max(np.abs(cz - c0[:, None]))))


# ---------------------------------------------------------------------------
# transports and holomorphic reduction


def transport(seg: Segment, s0: float, s1: float, steps: int = 400) -> np.ndarray:
    """Solution of dP/ds = T3(s) P, P(s0) = 1, evaluated at s1 (this moves
    flat sections of d/ds + alpha with alpha = -T3).  Only T3 is read.

    A constant segment takes one eigendecomposition.  Otherwise the equation
    is linear, so each of the max(8, steps) RK4 steps is one matrix
    M = 1 + h/6 (S + 2 Q (A1 + A2) + E A3), with A1 = 1 + h/2 S,
    A2 = 1 + h/2 Q A1 and A3 = 1 + h Q A2, of T3 at the start S, midpoint
    Q and end E of the step.  All the M are built in one batch and
    multiplied in order by a pairwise tree of batched products."""
    if seg.constant:
        T3 = seg.T3[0]
        w, V = np.linalg.eig(T3 * (s1 - s0))
        try:
            return V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
        except np.linalg.LinAlgError as e:
            raise TransportSingular(str(e))
    n = max(8, steps)
    grid = np.linspace(s0, s1, n + 1)
    h = grid[1] - grid[0]
    # T3 at the 2n + 1 RK4 nodes: the grid points and their midpoints
    nodes = np.empty(2 * n + 1)
    nodes[0::2] = grid
    nodes[1::2] = grid[:-1] + h / 2
    T3 = seg._lerp(seg.T3, nodes)
    S, Q, E = T3[:-1:2], T3[1::2], T3[2::2]
    one = np.eye(seg.rank, dtype=complex)
    A1 = one + h / 2 * S
    A2 = one + h / 2 * (Q @ A1)
    A3 = one + h * (Q @ A2)
    P = one + h / 6 * (S + 2 * (Q @ (A1 + A2)) + E @ A3)
    while len(P) > 1:
        # later steps on the left; an odd last step waits for the next level
        m = len(P) // 2
        P = np.concatenate([P[1:2 * m:2] @ P[0:2 * m:2], P[2 * m:]])
    return P[0]


@dataclass
class BowComplexTN:
    """Gauge-normalized holomorphic shadow of a bow solution (or of matrix
    data) on the edge-joined interval.

    Outer frames are anchored at the lambda points (outer transports are
    absorbed into the edge maps), the middle endomorphism is recorded in the
    lambda_plus normal frame, and `monodromy` conjugates the lambda_minus
    form to it.  For m = 0 the stored (I, J) pairs factor the jumps
    (outer beta) - (middle beta) at each lambda point.  An m >= 1 caloron's
    circle complex is the one with the identity edge, Bth = I and Bht = B.
    """

    k: int
    m: int
    B0: np.ndarray
    B1: np.ndarray
    Bth: np.ndarray
    Bht: np.ndarray
    beta_mid_plus: np.ndarray
    monodromy: np.ndarray
    I_minus: np.ndarray | None = None
    J_minus: np.ndarray | None = None
    I_plus: np.ndarray | None = None
    J_plus: np.ndarray | None = None
    exact: bool = False

    @property
    def beta_mid_minus(self):
        return _inv(self.monodromy) @ self.beta_mid_plus @ self.monodromy

    def edge_factors(self, tol: float) -> bool:
        """Whether Bht Bth = B0 and Bth Bht = B1: exactly on exact matrices,
        within tol entrywise on floats."""
        return not any(_off(R, tol) for R in (self.B0 - self.Bht @ self.Bth,
                                              self.B1 - self.Bth @ self.Bht))


@dataclass
class BowComplexCircle:
    """The m = 0 holomorphic Nahm complex on the circle (no edge): the
    constant endomorphisms B0 and B1, the holonomy A, and the tuple's
    fundamental pairs, unnormalized: (I_minus, J_minus) = (C1, D1) with
    B0 - B1 = C1 D1, and (I_plus, J_plus) = (C2, D2) with
    -[A, B0] - C1 D1 = C2 D2.  At m >= 1 it is a BowComplexTN."""

    k: int
    B0: np.ndarray
    B1: np.ndarray
    A: np.ndarray
    I_minus: np.ndarray
    J_minus: np.ndarray
    I_plus: np.ndarray
    J_plus: np.ndarray


def _inv(M):
    if nk.is_exact(M):
        inv = nk.exact_inverse(M)
        if inv is None:
            raise TransportSingular("exact matrix not invertible")
        return inv
    M = np.asarray(M, dtype=complex)
    if M.size and np.linalg.cond(M) > 1e12:
        raise TransportSingular("monodromy numerically defective")
    return np.linalg.inv(M)


def _off(dev, tol: float, *refs) -> bool:
    """Whether dev, the deviation of a matrix from a pattern, is nonzero:
    exactly on the exact backend; on floats, beyond tol times the largest
    entry of refs (at least 1)."""
    scale = 1.0 if nk.is_exact(dev) else \
        max([1.0] + [np.max(np.abs(R)) for R in refs])
    return not nk.is_zero_matrix(dev, tol * scale)


def _normalize_pair(I, J):
    """(I / c, c J) with c the first entry of I above 1e-12 max(1, |I|);
    the pair as it is when I has no such entry."""
    If = nk.to_float(I)
    nz = np.flatnonzero(np.abs(If.ravel()) > 1e-12 * max(1.0, np.max(np.abs(If))
                                                         if If.size else 1.0))
    if not len(nz):
        return I, J
    c = I[nz[0], 0] if nk.is_exact(I) else If.ravel()[nz[0]]
    return I / c, J * c


def rank_one_factor(R, tol: float):
    """Column and row with R = column . row and the first nonzero entry of
    the column equal to 1, or None when every entry of R is within tol of
    zero (on the exact backend: when R is zero).  Raises NotInNormalForm
    when R has rank > 1.

    Exact R: one pivot, the first nonzero entry in row order, and an exact
    check of the product.  Float R: one SVD, refused when s2 > 1e-8 s1.
    """
    if nk.is_exact(R):
        if nk.is_zero_matrix(R):
            return None
        i, j = np.argwhere((R.re != 0) | (R.im is not None and R.im != 0))[0]
        col, row = R[:, j:j + 1] / R[i, j], R[i:i + 1, :]
        if not nk.is_zero_matrix(col @ row - R):
            raise NotInNormalForm("jump has rank > 1")
        return col, row
    R = np.asarray(R, dtype=complex)
    if np.max(np.abs(R)) <= tol:
        return None
    U, s, Vh = np.linalg.svd(R)
    if len(s) > 1 and s[1] > 1e-8 * s[0]:
        raise NotInNormalForm(f"jump has rank > 1 (s2/s1 = {s[1] / s[0]:.1e})")
    return _normalize_pair(U[:, :1], s[0] * Vh[:1, :])


def complex_shadow(sol: NahmSolution) -> BowComplexTN:
    """Holomorphic (zeta = 0) reduction of a bow solution, gauge-normalized:
    outer transports are absorbed into the edge maps, the middle is put into
    the lambda-point normal frames built from i_minus / i_plus."""
    rep = sol.rep
    k, m = rep.k, rep.m
    lm, lp = rep.lam_minus, rep.lam_plus
    PH = transport(sol.head, -rep.ell / 2, lm, 800)
    PT = transport(sol.tail, lp, rep.ell / 2, 800)
    PM = transport(sol.middle, lm, lp, 800)
    U_minus = _normal_frame(sol.i_minus)
    U_plus = _normal_frame(sol.i_plus)
    beta_mid_plus = U_plus.conj().T @ sol.middle.beta_at(lp) @ U_plus
    monodromy = U_plus.conj().T @ PM @ U_minus
    B0 = sol.head.beta_at(lm)
    B1 = sol.tail.beta_at(lp)
    Bth_n = np.linalg.inv(PT) @ sol.Bth @ np.linalg.inv(PH)
    Bht_n = PH @ sol.Bht @ PT
    out = BowComplexTN(k, m, B0, B1, Bth_n, Bht_n, beta_mid_plus, monodromy)
    if m == 0:
        # jumps in the normalized frames; products carry the invariants
        for side, jump, sign in (("minus", B0 - out.beta_mid_minus, -1),
                                 ("plus", B1 - beta_mid_plus, +1)):
            pair = rank_one_factor(jump, 1e-12)
            if pair is None:        # keep the unitary pair, zero if missing
                I, J = getattr(sol, "I_" + side), getattr(sol, "J_" + side)
                pair = (np.zeros((k, 1), complex), np.zeros((1, k), complex)) \
                    if I is None or J is None else \
                    (sign * np.asarray(I, complex), np.asarray(J, complex))
            setattr(out, "I_" + side, pair[0])
            setattr(out, "J_" + side, pair[1])
    return out


def _normal_frame(emb: np.ndarray) -> np.ndarray:
    """Unitary whose first k columns are the embedded outer frame."""
    n, k = emb.shape
    q, _ = np.linalg.qr(np.hstack([emb, np.eye(n, dtype=complex)]))
    U = q[:, :n]
    # align the leading block's phases with the embedding itself
    for j in range(k):
        overlap = U[:, j].conj() @ emb[:, j]
        if abs(overlap) > 1e-12:
            U[:, j] *= overlap / abs(overlap)
    return U


# ---------------------------------------------------------------------------
# finite monad from a bow complex


def finite_monad_family(bc: BowComplexTN,
                        ctx: ToleranceContext = DEFAULT_CTX) -> ParamMonad:
    """The finite monad of a normalized bow complex as a ParamMonad over the
    Taub-NUT (xi, psi) chart.

    The columns are spanned by flat-section families on the two arcs through
    the lambda points, cut down by the requirement that the endomorphism
    preserve the boundary conditions there, plus the edge spaces; evaluation
    maps are built from the stored transports.  m <= 1 only: higher pole
    orders need the graded pole frames, which the desk-scale generators do
    not produce.
    """
    k, m = bc.k, bc.m
    if m > 1:
        raise BuildRefused("finite reduction implemented for m <= 1")
    B0 = np.asarray(nk.to_float(bc.B0))
    B1 = np.asarray(nk.to_float(bc.B1))
    Bth = np.asarray(nk.to_float(bc.Bth))
    Bht = np.asarray(nk.to_float(bc.Bht))
    Mp = np.asarray(nk.to_float(bc.beta_mid_plus))
    P = np.asarray(nk.to_float(bc.monodromy))
    Mm = np.linalg.inv(P) @ Mp @ P
    iplus = np.eye(k + m, k, dtype=complex)

    if m == 0:
        Kp = np.eye(k, dtype=complex)
        Km = np.eye(k, dtype=complex)
        w_extra = [BlockSpec("Wplus", TWISTS["triv"], 1),
                   BlockSpec("Wminus", TWISTS["triv"], 1)]
    else:
        Kp = nk.rank_kernel(Mp[k:, :k], ctx).kernel
        Km = nk.rank_kernel(Mm[k:, :k], ctx).kernel
        if Kp.shape[1] != k - 1 or Km.shape[1] != k - 1:
            raise TransportSingular("pole cut at a lambda point is degenerate")
        w_extra = []

    cols = (
        [BlockSpec("Uplus", TWISTS["mF"], Kp.shape[1]),
         BlockSpec("W1", TWISTS["mFC0"], k),
         BlockSpec("W2", TWISTS["mFCi"], k),
         BlockSpec("Uminus", TWISTS["mF"], Km.shape[1])],
        [BlockSpec("U1", TWISTS["mF"], k + m),
         BlockSpec("Vplus", TWISTS["triv"], k),
         BlockSpec("U0m", TWISTS["mF"], k),
         BlockSpec("E1", TWISTS["Eh"], k),
         BlockSpec("E2", TWISTS["Et"], k),
         BlockSpec("U0p", TWISTS["mF"], k),
         BlockSpec("Vminus", TWISTS["triv"], k)] + w_extra,
        [BlockSpec("V1", TWISTS["triv"], k + m),
         BlockSpec("V0p", TWISTS["triv"], k),
         BlockSpec("V0m", TWISTS["triv"], k)])
    at = block_starts(cols)

    alpha = [
        # U+ column: -ev1, (eta - beta) in the tail parametrization, -ev_c
        (0, 0, at["U1"], at["Uplus"], -(iplus @ Kp)),
        (0, 0, at["Vplus"], at["Uplus"], -(B1 @ Kp)),
        (1, 1, at["Vplus"], at["Uplus"], Kp),               # eta
        (0, 0, at["U0m"], at["Uplus"], -(Bht @ Kp)),
        # W1 column
        (0, 0, at["U0p"], at["W1"], -np.eye(k)),
        (0, 1, at["E1"], at["W1"], np.eye(k)),              # psi
        (0, 0, at["E2"], at["W1"], -Bht),
        # W2 column
        (0, 0, at["U0m"], at["W2"], -np.eye(k)),
        (0, 0, at["E1"], at["W2"], -Bth),
        (1, 0, at["E2"], at["W2"], np.eye(k)),              # xi
        # U- column
        (0, 0, at["U0p"], at["Uminus"], -(Bth @ Km)),
        (0, 0, at["Vminus"], at["Uminus"], -(B0 @ Km)),
        (1, 1, at["Vminus"], at["Uminus"], Km),             # eta
        (0, 0, at["U1"], at["Uminus"], -(P @ iplus @ Km))]
    beta = [
        (1, 1, at["V1"], at["U1"], np.eye(k + m)),          # eta
        (0, 0, at["V1"], at["U1"], -Mp),
        (0, 0, at["V1"], at["Vplus"], iplus),
        (0, 0, at["V0m"], at["Vplus"], Bht),
        (1, 1, at["V0m"], at["U0m"], np.eye(k)),
        (0, 0, at["V0m"], at["U0m"], -B0),
        (1, 0, at["V0p"], at["E1"], np.eye(k)),             # xi
        (0, 0, at["V0m"], at["E1"], Bht),
        (0, 0, at["V0p"], at["E2"], Bth),
        (0, 1, at["V0m"], at["E2"], np.eye(k)),             # psi
        (1, 1, at["V0p"], at["U0p"], np.eye(k)),
        (0, 0, at["V0p"], at["U0p"], -B1),
        (0, 0, at["V0p"], at["Vminus"], Bth),
        (0, 0, at["V1"], at["Vminus"], P @ iplus)]
    if m == 0:
        J_plus, J_minus, I_plus, I_minus = (
            nk.to_float(M) for M in (bc.J_plus, bc.J_minus, bc.I_plus,
                                     bc.I_minus))
        alpha += [(0, 0, at["Wplus"], at["Uplus"], J_plus),
                  (0, 0, at["Wminus"], at["Uminus"], J_minus)]
        beta += [(0, 0, at["V1"], at["Wplus"], I_plus),
                 (0, 0, at["V1"], at["Wminus"], P @ I_minus)]
    return ParamMonad.from_blocks("xi_psi", cols, alpha, beta)
