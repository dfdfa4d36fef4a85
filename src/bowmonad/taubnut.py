"""Taub-NUT matrix data: tuples with the two-sided edge factorization
B0 = Bht Bth, B1 = Bth Bht, the fused monad on the blown-up surface,
jumping-line bookkeeping, and conversion to and from bow complexes.

The fused monad lives on the (xi, psi) chart with eta = xi psi; the edge
columns carry the multiplication-by-xi and -psi blocks whose compositions
close up against B0 and B1, which is exactly what makes the two pushdown
monads glue.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import numkit as nk
from .caloron import (M0Tuple, MposTuple, _add_invertibility_check,
                      _bow_complex, _draw_ints, _e_minus_col, _e_plus_row,
                      _first_valid_draw, _gluing, _opening_rows, _pack,
                      _read_back_m0, _read_normal_form, _require_valid,
                      _solve_commutator, _solve_cprime)
from .monadcore import TWISTS, BlockSpec, ParamMonad, block_starts
from .nahmbow import (BowComplexTN, BuildRefused, NotInNormalForm,
                      TransportSingular, _inv, _normalize_pair, _off,
                      rank_one_factor)
from .numkit import DEFAULT_CTX, ToleranceContext, ValidationReport


class _EdgeTuple:
    """B0 = Bht Bth and B1 = Bth Bht of both Taub-NUT data classes."""

    @property
    def B0(self):
        return nk.mat_mul(self.Bht, self.Bth)

    @property
    def B1(self):
        return nk.mat_mul(self.Bth, self.Bht)


@dataclass
class TaubNutData(_EdgeTuple, MposTuple):
    """Matrix tuple for magnetic charge m > 0 with edge factors Bht, Bth:
    the tuple core with B0 = Bht Bth and B1 = Bth Bht."""

    k: int
    m: int
    A: np.ndarray
    Bht: np.ndarray
    Bth: np.ndarray
    C: np.ndarray
    D2row: np.ndarray
    Aprime: np.ndarray
    Bprime: np.ndarray
    Cprime: np.ndarray


@dataclass
class TaubNutDataM0(_EdgeTuple, M0Tuple):
    """m = 0 flavor: the m = 0 core whose rank-one jump is realized through
    the edge, B_th B_ht = B0 - C1 D1."""

    k: int
    A: np.ndarray
    Bht: np.ndarray
    Bth: np.ndarray
    C: np.ndarray
    D: np.ndarray

    relation_names = ("relation_1", "edge_jump")

    def relation_residuals(self):
        r_edge = self.B1 - (self.B0 - nk.mat_mul(self.C1, self.D[0:1, :]))
        return (*super().relation_residuals(), r_edge)

    def middle_jump(self):
        """(A^-1, B0 - C1 D1 A^-1, D1 (A^-1 - 1)) from one inverse of A: the
        middle endomorphism at lambda_plus and the row of its tail jump
        B1 - middle = C1 D1 (A^-1 - 1)."""
        Ainv = _inv(self.A)
        D1 = self.D[0:1, :]
        D1_Ainv = nk.mat_mul(D1, Ainv)
        return Ainv, self.B0 - nk.mat_mul(self.C1, D1_Ainv), D1_Ainv - D1


# ---------------------------------------------------------------------------
# validation


def validate(data, ctx: ToleranceContext = DEFAULT_CTX) -> ValidationReport:
    """Relations, injectivity of the stacked pencil, the pointwise
    injectivity/surjectivity of the fused monad at random points, the
    away-from-zero surjectivity of the xi and psi pushdown gluing maps (see
    `_pushdown_surjectivity`) and invertibility of the monodromy (A at
    m = 0).  The m = 0 fused monad is built through A^-1: where A is too
    close to singular for that, the pointwise rows fail undecided.  For
    float data the report keeps the fused monad that the pointwise rows
    built (None when it could not be built) as ``built``, for big_monad."""
    report = _opening_rows(data, ctx)

    fdata = _float_data(data)
    gluing = _gluing(fdata)
    try:
        pm = _big_monad_unchecked(fdata, gluing)
    except TransportSingular as e:
        pm, undecided = None, f"no fused monad: {e}"
    rng = np.random.default_rng(7)
    # point i is re (x, y) + i im (x, y), drawn re then im
    normals = rng.standard_normal((20, 2, 2))
    pts = normals[:, 0] + 1j * normals[:, 1]
    # full rank at every point; the value is the smallest margin
    # sigma_min / (rank_tol sigma_max) over the points, 0 at a zero matrix
    for name, poly in (("monad_pointwise_injective", "alpha"),
                       ("monad_pointwise_surjective", "beta")):
        if pm is None:
            report.add(name, False, 0.0, note=undecided)
            continue
        s = np.linalg.svd(getattr(pm, poly).evaluate_many(pts),
                          compute_uv=False)
        thr = ctx.rank_tol * s[:, 0]
        margin = np.divide(s[:, -1], thr, out=np.zeros(len(s)), where=thr > 0)
        report.add(name, np.all(s[:, -1] > thr), np.min(margin))

    for which, (margin, trend) in zip(
            ("xi", "psi"), _pushdown_surjectivity(fdata, rng, ctx, gluing)):
        report.add(f"pushdown_surjective_{which}", margin > 1, margin,
                   note="min sv trend " + ", ".join(f"{v:.2e}" for v in trend))

    _add_invertibility_check(report, "monodromy_invertible",
                             data.monodromy if data.m else data.A, ctx)
    if not data.exact:
        report.built = (data, pm)
    return report


def _pushdown_surjectivity(data, rng, ctx, gluing=None):
    """Surjectivity of the xi and psi pushdown gluing maps of float data
    away from the collapsed coordinate t, as [(margin, trend)] for xi then
    psi.  Each map is M(t) = (F_m | E(t) | F_p): rows (k + m | k | k),

        (Y-1,        0,            -Y+1 )
        (-(1, 0, 0), t I or -Bht,   0   )
        (0,          -Bth or t I,  (1, 0))

    with the t-free columns F = (F_m | F_p), built from `_gluing`, the same
    on both sides.  One SVD of F, cut at sigma > rank_tol max(sigma_1, 1),
    keeps its left null space Z; then Z^H M(t) = (0 | R(t) | 0) with
    R(t) = t Z[var]^H - Z[fixed]^H B (B = Bht on xi, Bth on psi), so M(t)
    is onto exactly when R(t) has full row rank.  R is decided at the t of
    100 complex normals per side, drawn from rng, with |t| >= 0.05.

    The margin is the smaller of sigma_r(F) / (rank_tol max(sigma_1(F), 1))
    and the smallest sigma_min(R) / (rank_tol max(sigma_max(R), 1)) over the
    sampled t; it exceeds 1 when the map is certified onto.  Where Z is empty
    there is no second term: M M^H >= F F^H, so F's margin holds at every
    t.  On the generator draws Z is empty at k = 1 and at m >= 1 unless B0
    is singular; at m = 0 it has k - 1 columns.  The trend is sigma_min of
    the full M(t) at t = 1, 0.1, 0.01 and 0.001.  ``gluing`` is
    `_gluing(data)`, built here when None."""
    _, _, Ym1, Yp1 = _gluing(data) if gluing is None else gluing
    k, m = data.k, data.m
    rows = 3 * k + m
    cm = Ym1.shape[1]
    template = np.zeros((rows, cm + k + Yp1.shape[1]), dtype=complex)
    template[:k + m, :cm] = Ym1
    template[:k + m, cm + k:] = -Yp1
    template[k + m: 2 * k + m, :k] = -np.eye(k)            # -(1, 0, 0)
    template[2 * k + m:, cm + k:cm + 2 * k] = np.eye(k)    # (1, 0)
    U, s, _ = np.linalg.svd(np.delete(template, np.s_[cm:cm + k], axis=1))
    top = ctx.rank_tol * max(s[0], 1.0)
    r = int(np.count_nonzero(s > top))
    Z = U[:, r:]
    f_margin = s[r - 1] / top
    bands = {"xi": slice(k + m, 2 * k + m), "psi": slice(2 * k + m, rows)}
    trend_ts = np.array([1.0, 0.1, 0.01, 0.001])
    out = []
    for var, fixed, B in (("xi", "psi", data.Bht), ("psi", "xi", data.Bth)):
        normals = rng.standard_normal(200)     # (re, im) of 100 samples in turn
        ts = normals[0::2] + 1j * normals[1::2]
        ts = ts[np.abs(ts) >= 0.05]
        margin = f_margin
        if Z.shape[1] > k:                     # R is never of full row rank
            margin = 0.0
        elif Z.shape[1]:
            R = (ts[:, None, None] * Z[bands[var]].conj().T
                 - Z[bands[fixed]].conj().T @ B)
            sr = np.linalg.svd(R, compute_uv=False)
            margin = min(margin, np.min(
                sr[:, -1] / (ctx.rank_tol * np.maximum(sr[:, 0], 1.0))))
        side = template.copy()
        side[bands[fixed], cm:cm + k] = -B
        stack = np.repeat(side[None], len(trend_ts), axis=0)
        stack[:, bands[var], cm:cm + k] = trend_ts[:, None, None] * np.eye(k)
        trend = np.linalg.svd(stack, compute_uv=False)[:, rows - 1]
        out.append((float(margin), trend.tolist()))
    return out


def _float_data(data):
    """The data with every matrix converted to floats."""
    if not data.exact:
        return data
    return replace(data, **{f.name: nk.to_float(getattr(data, f.name))
                            for f in fields(data) if f.name not in ("k", "m")})


# ---------------------------------------------------------------------------
# the fused monad


def big_monad(data, ctx: ToleranceContext = DEFAULT_CTX,
              validated: ValidationReport | None = None) -> ParamMonad:
    """The fused monad of validated data.  Float data take the monad that
    their validation built for its pointwise rows, when ``validated`` is
    None or a report made from this very data object; the report then
    drops it, so a second build from that report builds afresh.  The
    monad is the one of the data as validated: data edited in place after
    ``validate`` must be validated again."""
    validated = _require_valid(validate, data, ctx, validated)
    made_from, pm = validated.built or (None, None)
    if made_from is not data or pm is None:
        return _big_monad_unchecked(data)
    validated.built = None
    return pm


def _big_monad_unchecked(data, gluing=None) -> ParamMonad:
    """The fused three-column complex on the (xi, psi) chart.

    For m = 0 the one-sided resolutions are renormalized through the
    monodromy: the jump row of the minus resolution is D1 (A^-1 - 1) and the
    middle endomorphism acquires B0 - C1 D1 A^-1, which is what the
    anticommutation forces once both Z blocks are pinned by the edge.
    ``gluing`` is `_gluing(data)`, built here when None.
    """
    k, m = data.k, data.m
    exact = data.exact
    eyek = nk.eye_like_backend(k, exact)
    eyekm = nk.eye_like_backend(k + m, exact)
    Wm, Wp, Ym1, Yp1 = _gluing(data) if gluing is None else gluing
    if m:
        Mmid = data.normal_form
    else:
        _, Mmid, d_w = data.middle_jump()
        Wm = nk.block([[Wm[:k]], [-d_w]])

    cols = (
        [BlockSpec("Um", TWISTS["mF"], k + m),
         BlockSpec("Wh", TWISTS["mFC0"], k),
         BlockSpec("Wt", TWISTS["mFCi"], k),
         BlockSpec("Up", TWISTS["mF"], k)],
        [BlockSpec("S1", TWISTS["mF"], k + m),
         BlockSpec("Vm", TWISTS["triv"], k + m + 1),
         BlockSpec("S10", TWISTS["mF"], k), BlockSpec("Eh", TWISTS["Eh"], k),
         BlockSpec("Et", TWISTS["Et"], k), BlockSpec("S00", TWISTS["mF"], k),
         BlockSpec("Vp", TWISTS["triv"], k + 1)],
        [BlockSpec("T1", TWISTS["triv"], k + m),
         BlockSpec("T10", TWISTS["triv"], k),
         BlockSpec("T00", TWISTS["triv"], k)])
    at = block_starts(cols)
    alpha = [
        # Um column: -I into S1, the minus-side resolution W- plus eta I
        (0, 0, at["S1"], at["Um"], -eyekm),
        (0, 0, at["Vm"], at["Um"], Wm),
        (1, 1, at["Vm"], at["Um"], eyekm),
        (0, 0, at["S10"], at["Um"], -eyek),                # -X_{-,0}
        # Wh column
        (0, 0, at["S10"], at["Wh"], -eyek),
        (0, 1, at["Eh"], at["Wh"], eyek),                  # psi
        (0, 0, at["Et"], at["Wh"], -data.Bht),
        # Wt column
        (0, 0, at["Eh"], at["Wt"], -data.Bth),
        (1, 0, at["Et"], at["Wt"], eyek),                  # xi
        (0, 0, at["S00"], at["Wt"], -eyek),
        # Up column: -I into S00, the plus-side resolution W+ plus eta I,
        # -(A; A') into S1
        (0, 0, at["S00"], at["Up"], -eyek),
        (0, 0, at["Vp"], at["Up"], Wp),
        (1, 1, at["Vp"], at["Up"], eyek),
        (0, 0, at["S1"], at["Up"], -Yp1[:, :k])]
    beta = [
        # T1 row: eta - Mmid, Y-1 on Vm, Y+1 on Vp
        (1, 1, at["T1"], at["S1"], eyekm),
        (0, 0, at["T1"], at["S1"], -Mmid),
        (0, 0, at["T1"], at["Vm"], Ym1),
        (0, 0, at["T1"], at["Vp"], Yp1),
        # T10 row
        (0, 0, at["T10"], at["Vm"], eyek),                 # (1, 0, 0) row
        (1, 1, at["T10"], at["S10"], eyek),
        (0, 0, at["T10"], at["S10"], Wm[:k, :k]),          # -B1
        (1, 0, at["T10"], at["Eh"], eyek),                 # xi
        (0, 0, at["T10"], at["Et"], data.Bth),
        # T00 row
        (0, 0, at["T00"], at["Eh"], data.Bht),
        (0, 1, at["T00"], at["Et"], eyek),                 # psi
        (1, 1, at["T00"], at["S00"], eyek),
        (0, 0, at["T00"], at["S00"], Wp[:k]),              # -B0
        (0, 0, at["T00"], at["Vp"], eyek)]                 # (1, 0) row
    return ParamMonad.from_blocks("xi_psi", cols, alpha, beta, exact)


def psi_pushdown_monad(data: TaubNutData) -> ParamMonad:
    """The one-sided monad obtained by collapsing the psi ruling; away from
    psi = 0 its fibers agree with the fused monad.  Used as an independent
    cross-check (m > 0 data only)."""
    if not isinstance(data, TaubNutData):
        raise BuildRefused("the psi-pushdown monad needs the m > 0 data "
                           "flavor")
    k, m = data.k, data.m
    exact = data.exact
    B0, B1 = data.B0, data.B1
    eyek = nk.eye_like_backend(k, exact)
    cols = (
        [BlockSpec("Um", TWISTS["mF"], k + m),
         BlockSpec("Wpsi", TWISTS["Wpsi"], k),
         BlockSpec("Up", TWISTS["mF"], k)],
        [BlockSpec("S1", TWISTS["mF"], k + m),
         BlockSpec("Vm", TWISTS["triv"], k + m + 1),
         BlockSpec("S10", TWISTS["mF"], k), BlockSpec("Epsi", TWISTS["Et"], k),
         BlockSpec("S00", TWISTS["mF"], k),
         BlockSpec("Vp", TWISTS["triv"], k + 1)],
        [BlockSpec("T1", TWISTS["triv"], k + m),
         BlockSpec("T10", TWISTS["triv"], k),
         BlockSpec("T00", TWISTS["triv"], k)])
    at = block_starts(cols)
    km = k + m
    em = _e_minus_col(m, exact)
    ep = _e_plus_row(m, exact)
    alpha = [
        # Um column (as in the fused monad)
        (0, 0, at["S1"], at["Um"], -nk.eye_like_backend(km, exact)),
        (0, 0, at["Vm"], at["Um"], -B1),
        (1, 1, at["Vm"], at["Um"], eyek),
        (0, 0, at["Vm"] + k, at["Um"], -nk.mat_mul(em, data.Bprime)),
        (0, 0, at["Vm"] + k, at["Um"] + k, -data.shift),
        (1, 1, at["Vm"] + k, at["Um"] + k, nk.eye_like_backend(m, exact)),
        (0, 0, at["Vm"] + km, at["Um"] + k, -ep),
        (0, 0, at["S10"], at["Um"], -eyek),
        # Wpsi column: (eta - B0) into Epsi, -Bth into S10, -psi into S00
        (1, 1, at["Epsi"], at["Wpsi"], eyek),
        (0, 0, at["Epsi"], at["Wpsi"], -B0),
        (0, 0, at["S10"], at["Wpsi"], -data.Bth),
        (0, 1, at["S00"], at["Wpsi"], -eyek),
        # Up column
        (0, 0, at["S00"], at["Up"], -eyek),
        (0, 0, at["Vp"], at["Up"], -B0),
        (1, 1, at["Vp"], at["Up"], eyek),
        (0, 0, at["Vp"] + k, at["Up"], -data.D2row),
        (0, 0, at["S1"], at["Up"], -data.A),
        (0, 0, at["S1"] + k, at["Up"], -data.Aprime)]
    beta = [
        (1, 1, at["T1"], at["S1"], nk.eye_like_backend(km, exact)),
        (0, 0, at["T1"], at["S1"], -data.normal_form),
        (0, 0, at["T1"], at["Vm"], eyek),
        (0, 0, at["T1"], at["Vm"] + km, -data.C1),
        (0, 0, at["T1"] + k, at["Vm"] + k, nk.eye_like_backend(m, exact)),
        (0, 0, at["T1"] + k, at["Vm"] + km, -data.Cprime[:, 0:1]),
        (0, 0, at["T1"], at["Vp"], _gluing(data)[3]),
        (0, 0, at["T10"], at["Vm"], eyek),
        (1, 1, at["T10"], at["S10"], eyek),
        (0, 0, at["T10"], at["S10"], -B1),
        (0, 0, at["T10"], at["Epsi"], data.Bth),
        (0, 1, at["T00"], at["Epsi"], eyek),
        (1, 1, at["T00"], at["S00"], eyek),
        (0, 0, at["T00"], at["S00"], -B0),
        (0, 0, at["T00"], at["Vp"], eyek)]
    return ParamMonad.from_blocks("xi_psi", cols, alpha, beta, exact)


# ---------------------------------------------------------------------------
# jumping lines


def jumping_lines(data, ctx: ToleranceContext = DEFAULT_CTX):
    """Eigenvalues of B0 (k values, with multiplicity) plus the roots of the
    middle-block determinant (k + m values).  B1 = Bth Bht has the
    eigenvalues of B0 = Bht Bth (char(XY) = char(YX)), so B0 stands for
    both."""
    spec_b0 = np.linalg.eigvals(nk.to_float(data.B0))
    mid = data.normal_form if data.m else data.middle_jump()[1]
    mid_roots = np.linalg.eigvals(nk.to_float(mid))
    return sorted(spec_b0, key=lambda z: (z.real, z.imag)), \
        sorted(mid_roots, key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# bow complexes


def to_bow_complex(data, ctx: ToleranceContext = DEFAULT_CTX,
                   validated: ValidationReport | None = None) -> BowComplexTN:
    """Normalized bow complex of the matrix data.

    For m = 0 the middle endomorphism at the lambda_plus end is
    B0 - C1 D1 A^-1; the commutator relation makes both end jumps rank one:
    B1 - mid = C1 D1 (A^-1 - 1) at lambda_plus and
    B0 - A^-1 mid A = -A^-1 C2 D2 at lambda_minus, stored as the normalized
    pairs (C1, D1 (A^-1 - 1)) and (-A^-1 C2, D2).
    """
    _require_valid(validate, data, ctx, validated)
    if data.m:
        return _bow_complex(data, data.Bth, data.Bht)
    Ainv, mid, jump_row = data.middle_jump()
    I_plus, J_plus = _normalize_pair(data.C1, jump_row)
    I_minus, J_minus = _normalize_pair(-nk.mat_mul(Ainv, data.C2),
                                       data.D[1:2, :])
    return BowComplexTN(data.k, 0, data.B0, data.B1, data.Bth, data.Bht,
                        mid, data.A, I_minus=I_minus, J_minus=J_minus,
                        I_plus=I_plus, J_plus=J_plus, exact=data.exact)


def from_bow_complex(bc: BowComplexTN, tol: float = 1e-9):
    """Matrix tuple back from a normalized bow complex; an edge, shape or
    coupling residual raises NotInNormalForm: any nonzero one on the exact
    backend, one beyond tolerance on floats."""
    if bc.m:
        return TaubNutData(bc.k, bc.m, Bht=bc.Bht, Bth=bc.Bth,
                           **_read_normal_form(bc, tol))
    if not bc.edge_factors(tol):
        raise NotInNormalForm("edge factorizations fail on this complex")
    # verify the stored factors against the intrinsic end jumps
    for name, jump, I, J in (("head", bc.B0 - bc.beta_mid_minus,
                              bc.I_minus, bc.J_minus),
                             ("tail", bc.B1 - bc.beta_mid_plus,
                              bc.I_plus, bc.J_plus)):
        if I is None or J is None:
            raise NotInNormalForm("m = 0 complex must carry jump factors")
        prod = nk.mat_mul(I, J)
        if _off(jump - prod, tol, prod, jump):
            raise NotInNormalForm(f"{name} jump does not match its factors")
    # C1 D1 = B0 - B1; C2 D2 = -[A, B0] - C1 D1 with D2 from the head factor
    # when C2 = 0, which leaves that factor unscaled
    pair = rank_one_factor(bc.B0 - bc.B1, tol)
    C1, D1 = pair if pair is not None else (
        nk.zeros_like_backend(bc.k, 1, bc.exact), _recover_d1(bc))
    C, D = _read_back_m0(bc.monodromy, bc.B0, C1, D1, bc.J_minus, tol)
    return TaubNutDataM0(bc.k, bc.monodromy, bc.Bht, bc.Bth, C, D)


def _recover_d1(bc):
    """Direction of D1 when C1 D1 = 0: from J_plus = D1 (A^-1 - 1) when that
    pencil inverts, otherwise the first unit row."""
    k, exact = bc.k, bc.exact
    if not nk.is_zero_matrix(bc.J_plus, 1e-12):
        try:
            return nk.mat_mul(bc.J_plus, _inv(
                _inv(bc.monodromy) - nk.eye_like_backend(k, exact)))
        except TransportSingular:
            pass
    return nk.int_matrix(np.eye(1, k, dtype=int), exact)


# ---------------------------------------------------------------------------
# generation


def generate_taubnut(k: int, m: int, seed: int = 0, exact: bool = False,
                     max_tries: int = 60):
    """Random validated Taub-NUT data at desk scale (k <= 2 for m >= 1, any
    small k for m = 0).  Negative m folds onto its positive representative
    under the rank swap."""
    return _first_valid_draw(_draw_taubnut, validate, "draw", k, m, seed,
                             exact, max_tries)


def _draw_taubnut(k: int, m: int, rng, exact: bool):
    if m == 0:
        return _draw_taubnut_m0(k, rng, exact)
    Bht = _draw_ints(rng, (k, k))
    Bth = _draw_ints(rng, (k, k))
    A = _draw_ints(rng, (k, k))
    Ap = _draw_ints(rng, (m, k))
    D2 = _draw_ints(rng, (1, k))
    D1 = Ap[m - 1:m, :]
    D = nk.block([[D1], [D2]])
    B0, B1 = Bht @ Bth, Bth @ Bht
    R = B1 @ A - A @ B0                           # C D must equal R
    if k == 1:
        if D[0, 0]:
            C = nk.exact_matrix([[(R[0, 0] - D[1, 0]) / D[0, 0], 1]])
        elif D[1, 0]:
            C = nk.exact_matrix([[1, R[0, 0] / D[1, 0]]])
        else:
            return None
    else:
        Dinv = nk.exact_inverse(D)
        if Dinv is None:
            return None
        C = R @ Dinv
    Bp = _draw_ints(rng, (1, k))
    Cp = _solve_cprime(Bp, A, Ap, B0, D)
    if Cp is None:
        return None
    mats = dict(A=A, Bht=Bht, Bth=Bth, C=C, D2row=D2, Aprime=Ap, Bprime=Bp,
                Cprime=Cp)
    return _pack(TaubNutData, dict(k=k, m=m), mats, exact)


def _draw_taubnut_m0(k: int, rng, exact: bool):
    # B0 with distinct integer eigenvalues; D1 a left eigenvector, C1 in the
    # orthogonal slice so the rank-one update preserves the spectrum
    evals = rng.choice(np.arange(-5, 6), size=k, replace=False).tolist()
    S = _draw_ints(rng, (k, k))
    Sinv = nk.exact_inverse(S)
    if Sinv is None:
        return None
    E = nk.int_matrix(np.diag(evals), True)
    B0 = S @ E @ Sinv
    D1 = Sinv[0:1]                                   # left eigenvector
    if k == 1:
        C1 = nk.exact_zeros(1, 1)
    else:
        C1 = S[:, 1:] @ _draw_ints(rng, (k - 1, 1))  # D1 C1 = 0
    C1D1 = C1 @ D1
    B1 = B0 - C1D1
    # edge: Bth conjugates B0 to B1 through the two eigenbases.  For v_i of
    # B0, B1 v_i = ev_i v_i unless D1 v_i != 0; D1 v_i = delta_{1i} in the S
    # basis, and the first eigenvector shifts: solve directly instead.
    V1 = _eigvecs(B1, evals)
    if V1 is None:
        return None
    Bth = V1 @ Sinv
    Bth_inv = nk.exact_inverse(Bth)
    if Bth_inv is None:
        return None
    Bht = B0 @ Bth_inv
    if k == 1:
        # CD = 0 is forced; keep both genericity conditions alive with
        # C = (0, 1) and D = (D1, 0)
        A = _draw_ints(rng, (1, 1))
        if not A[0, 0]:
            return None
        C = nk.exact_matrix([[0, 1]])
        D = nk.block([[D1], [nk.exact_zeros(1, 1)]])
        mats = dict(A=A, Bht=Bht, Bth=Bth, C=C, D=D)
        return _pack(TaubNutDataM0, dict(k=k), mats, exact)
    # A, C2 from [A, B0] = [-B0, A]: the commutator solve in the B0 eigenbasis
    D2 = _draw_ints(rng, (1, k))
    D2_e = D2 @ S
    if not all(D2_e[0, i] for i in range(k)):
        return None
    C2_e, Ae = _solve_commutator(-E, Sinv @ C1D1 @ S, D2_e, rng, 1, 5)
    A = S @ Ae @ Sinv
    C = nk.block([[C1, S @ C2_e]])
    D = nk.block([[D1], [D2]])
    mats = dict(A=A, Bht=Bht, Bth=Bth, C=C, D=D)
    return _pack(TaubNutDataM0, dict(k=k), mats, exact)


def _eigvecs(B, evals):
    """Eigenvector matrix of B ordered to match evals, exactly; None unless
    every eigenvalue has a one-dimensional rational eigenspace."""
    eye = nk.exact_eye(B.shape[0])
    V = []
    for ev in evals:
        kern = nk.exact_kernel(B - ev * eye)
        if kern.shape[1] != 1:
            return None
        V.append(kern)
    return nk.block([V])
