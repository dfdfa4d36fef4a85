"""Caloron matrix data: normalized tuples, monad constructions on the
product surface, non-degeneracy certification, and the round trip with Nahm
complexes on the circle.

The small monad is the two-variable complex

    alpha = (A - xi; B - eta; D),   beta = (eta - B, A - xi, C),

whose composite is exactly [A, B] + C D, so the first relation is the
anticommutation.  The fused monad for m > 0 carries the shift-structure
blocks; all of its signs are pinned by the requirement beta o alpha = 0,
which the test suite enforces rather than trusting the table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import numkit as nk
from .monadcore import BlockSpec, ParamMonad, block_starts, o_pp
from .nahmbow import (BowComplexCircle, BowComplexTN, BuildRefused,
                      NotInNormalForm, _inv, _off, rank_one_factor)
from .numkit import DEFAULT_CTX, ToleranceContext, ValidationReport, is_exact


class NoValidDraw(nk.BowmonadError):
    """No random draw validated within a generator's ``max_tries``."""


def _shift_matrix(m: int, exact: bool):
    """Lower shift: ones on the first subdiagonal."""
    return nk.int_matrix(np.eye(m, k=-1, dtype=int), exact)


def _e_minus_col(m: int, exact: bool):
    return nk.int_matrix(np.eye(m, 1, dtype=int), exact)


def _e_plus_row(m: int, exact: bool):
    return nk.int_matrix(np.eye(1, m, m - 1, dtype=int), exact)


class _TupleCore:
    """Accessors and the data-file shape table shared by the four data
    classes.  Each is a dataclass whose matrix fields, in field order, are
    the matrices of its data files; `shapes` gives their shapes: k x k
    unless the class's `_fixed_shapes` says otherwise."""

    @classmethod
    def shapes(cls, k: int, m: int) -> dict:
        fixed = cls._fixed_shapes(k, m)
        return {f.name: fixed.get(f.name, (k, k)) for f in fields(cls)
                if f.name not in ("k", "m")}

    def __post_init__(self):
        for name, want in self.shapes(self.k, self.m).items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, want {want}")

    @property
    def exact(self) -> bool:
        return is_exact(self.A)

    @property
    def C1(self):
        return self.C[:, 0:1]

    @property
    def C2(self):
        return self.C[:, 1:2]


class MposTuple(_TupleCore):
    """The matrix tuple for magnetic charge m > 0, shared by both flavors.

    Subclasses are dataclasses with fields k, m, A, C (k x 2), D2row (1 x k),
    Aprime (m x k), Bprime (1 x k), Cprime (m x 2) plus their edge
    endomorphisms, and supply B0 (the head block, acted on by A) and B1
    (the tail block the normal form continues).  The caloron is the case
    B0 = B1 = B; for Taub-NUT data B0 = Bht Bth and B1 = Bth Bht.  The
    stacked 2 x k matrix D has D2row as its second row; its first row D1 is
    not stored but defined as e+ A', the last row of Aprime.
    """

    relation_names = ("relation_1", "relation_2")

    def __post_init__(self):
        name = type(self).__name__
        if self.m < 1:
            raise ValueError(f"{name} requires m >= 1; use {name}M0")
        super().__post_init__()

    @staticmethod
    def _fixed_shapes(k: int, m: int) -> dict:
        return {"C": (k, 2), "D2row": (1, k), "Aprime": (m, k),
                "Bprime": (1, k), "Cprime": (m, 2)}

    @property
    def D(self):
        """(D1; D2row) with D1 = e+ A', the last row of Aprime."""
        return nk.block([[self.Aprime[self.m - 1:self.m, :]], [self.D2row]])

    @property
    def shift(self):
        return _shift_matrix(self.m, self.exact)

    @property
    def normal_form(self):
        """Constant block (B1, -C1 e+; e-^T B', shift - C1' e+): the large
        interval endomorphism in its normal form."""
        em = _e_minus_col(self.m, self.exact)
        ep = _e_plus_row(self.m, self.exact)
        return nk.block(
            [[self.B1, -nk.mat_mul(self.C1, ep)],
             [nk.mat_mul(em, self.Bprime),
              self.shift - nk.mat_mul(self.Cprime[:, 0:1], ep)]])

    @property
    def monodromy(self):
        """Krylov matrix [ (A; A'), v, M v, ..., M^{m-1} v ] with
        v = (C2; C2') and M the normal form; invertibility is the last
        non-degeneracy condition and the matrix itself is the large-interval
        parallel transport."""
        v = nk.block([[self.C2], [self.Cprime[:, 1:2]]])
        cols = [nk.block([[self.A], [self.Aprime]]), v]
        M = self.normal_form
        for _ in range(self.m - 1):
            cols.append(nk.mat_mul(M, cols[-1]))
        return nk.block([cols])

    def relation_residuals(self):
        """Residuals of the relation_names; zero for consistent data."""
        A, B0, C, D = self.A, self.B0, self.C, self.D
        em = _e_minus_col(self.m, self.exact)
        r1 = nk.mat_mul(A, B0) - nk.mat_mul(self.B1, A) + nk.mat_mul(C, D)
        r2 = (nk.mat_mul(nk.mat_mul(em, self.Bprime), A)
              + nk.mat_mul(self.shift, self.Aprime)
              - nk.mat_mul(self.Aprime, B0) - nk.mat_mul(self.Cprime, D))
        return r1, r2


@dataclass
class CaloronData(MposTuple):
    """Matrix tuple for magnetic charge m > 0: the tuple core with
    B0 = B1 = B.

    Shapes: A, B: k x k; C: k x 2; D2row: 1 x k; Aprime: m x k;
    Bprime: 1 x k; Cprime: m x 2.
    """

    k: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D2row: np.ndarray
    Aprime: np.ndarray
    Bprime: np.ndarray
    Cprime: np.ndarray

    @property
    def B0(self) -> np.ndarray:
        return self.B

    B1 = B0
    left_normal = MposTuple.normal_form


class M0Tuple(_TupleCore):
    """The matrix tuple for m = 0, shared by both flavors: subclasses are
    dataclasses with fields k, A (the holonomy, invertible), C (k x 2) and
    D (2 x k) plus their edge endomorphisms, and supply B0 and B1.  The
    rank-one jump C1 D1 is B0 - B1; the commutator relation is
    A B0 - B0 A + C D = 0."""

    m = 0
    relation_names = ("relation_1",)

    @staticmethod
    def _fixed_shapes(k: int, m: int) -> dict:
        return {"C": (k, 2), "D": (2, k)}

    def relation_residuals(self):
        r1 = (nk.mat_mul(self.A, self.B0) - nk.mat_mul(self.B0, self.A)
              + nk.mat_mul(self.C, self.D))
        return (r1,)


@dataclass
class CaloronDataM0(M0Tuple):
    """m = 0 flavor: the m = 0 core with endomorphism B0; B1 = B0 - C1 D1
    is derived."""

    k: int
    A: np.ndarray
    B0: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def B1(self) -> np.ndarray:
        return self.B0 - nk.mat_mul(self.C1, self.D[0:1, :])


# ---------------------------------------------------------------------------
# validation


def validate(data, ctx: ToleranceContext = DEFAULT_CTX) -> ValidationReport:
    """Per-condition report: algebraic relations plus the four
    non-degeneracy conditions (injectivity and surjectivity of the small
    pencils for all parameter values, surjectivity of the mixed pencil, and
    invertibility of the transport matrix).  All three pencil rows are
    decided by one search, `numkit.common_eigenvector_obstruction`, through
    `_add_obstruction_check`."""
    report = _opening_rows(data, ctx)
    _add_obstruction_check(report, "row_pencil_surjective",
                           _t(data.A), _t(data.B0), _t(data.C), ctx)

    if isinstance(data, CaloronData):
        # [Y | eta - M] loses row rank exactly where a left eigenvector of
        # the normal form M kills Y: a common eigenvector of (0, M^T) in the
        # kernel of Y^T, with xi = 0
        Y, M = _gluing(data)[3], data.normal_form
        _add_obstruction_check(report, "mixed_pencil_surjective",
                               nk.zeros_like_backend(*M.shape, data.exact),
                               _t(M), _t(Y), ctx)
        _add_invertibility_check(report, "transport_invertible",
                                 data.monodromy, ctx)
    else:
        _add_invertibility_check(report, "A_invertible", data.A, ctx)
    return report


def _opening_rows(data, ctx):
    """A report with the rows both flavors open with: one per relation
    residual, named by the data's relation_names and valued by its norm
    (zero on the exact backend, below 1e-10 max(|A|, |B0|, 1) on floats),
    then stacked_pencil_injective of (A - xi; B0 - eta; D)."""
    report = ValidationReport()
    if not data.exact:
        scale = max(nk.mat_norm(data.A), nk.mat_norm(data.B0), 1.0)
    for name, r in zip(data.relation_names, data.relation_residuals(),
                       strict=True):
        res = nk.mat_norm(r)
        report.add(name, nk.is_zero_matrix(r) if data.exact
                   else res < 1e-10 * scale, res)
    _add_obstruction_check(report, "stacked_pencil_injective",
                           data.A, data.B0, data.D, ctx)
    return report


def _add_obstruction_check(report, name, A, B, D, ctx):
    """The common-eigenvector check of the pencil (A - xi; B - eta; D), one
    certificate entry (xi, eta, vector, exact_checked) per obstruction.  A
    rank decision the search cannot make (GapTooSmall) fails the check:
    the pencil is then not certified."""
    try:
        obs = nk.common_eigenvector_obstruction(A, B, D, ctx)
    except nk.GapTooSmall as e:
        report.add(name, False, np.inf, note=str(e))
        return
    report.add(name, len(obs) == 0, 0.0,
               certificate=[(o.xi, o.eta, o.vector, o.exact_checked)
                            for o in obs] or None)


def _add_invertibility_check(report, name, M, ctx):
    """Exact M is invertible when it has full exact rank; float M when its
    smallest singular value exceeds rank_tol times max(largest, 1).  The
    residual is smallest / largest singular value on both backends."""
    s = np.linalg.svd(nk.to_float(M), compute_uv=False)
    report.add(name, nk.exact_rank(M) == M.shape[0] if is_exact(M)
               else s[-1] > ctx.rank_tol * max(s[0], 1.0),
               float(s[-1] / max(s[0], 1e-300)))


def _t(M):
    """Plain transpose on both backends (copied on floats): a certificate
    of the transposed pencil reports the same (xi, eta) as the pencil."""
    return M.T if is_exact(M) else M.T.copy()


def _gluing(data):
    """The four constant blocks of both flavors' fused monads, for any m:
    the minus resolution W- = (-B1, 0; -e- B', -shift; 0, -e+), rows
    (k | m | 1) by columns (k | m), and the plus resolution
    W+ = (-B0; -D2), rows (k | 1), each completed by eta times the
    identity; and the gluing rows Y-1 = (1, 0, -C1; 0, 1, -C1') and
    Y+1 = (A, C2; A', C2').  At m = 0 the last row of W- is zero: the
    Taub-NUT monad puts its tail-jump row there."""
    k, m, exact = data.k, data.m, data.exact
    zeros = lambda r, c: nk.zeros_like_backend(r, c, exact)
    tail = nk.block([[-data.Bprime], [zeros(m, k)]]) if m else zeros(1, k)
    Wm = nk.block([[-data.B1, zeros(k, m)],
                   [tail, -_shift_matrix(m + 1, exact)[:, :m]]])  # (-shift; -e+)
    Wp = nk.block([[-data.B0], [-data.D[1:2, :]]])
    C1s, Yp1 = [[-data.C1]], [[data.A, data.C2]]
    if m:
        C1s.append([-data.Cprime[:, 0:1]])
        Yp1.append([data.Aprime, data.Cprime[:, 1:2]])
    Ym1 = nk.block([[nk.eye_like_backend(k + m, exact), nk.block(C1s)]])
    return Wm, Wp, Ym1, nk.block(Yp1)


# ---------------------------------------------------------------------------
# monads


def _require_valid(validate, data, ctx, validated):
    """The report ``validated``, or ``validate(data, ctx)`` of the flavor's
    validate when that is None; BuildRefused unless it passes."""
    report = validated if validated is not None else validate(data, ctx)
    if not report.passed:
        raise BuildRefused("data fails validation:\n" + report.render())
    return report


def small_monad(data, ctx: ToleranceContext = DEFAULT_CTX,
                validated: ValidationReport | None = None) -> ParamMonad:
    """Standard monad with column ranks (k, 2k+2, k) on the (xi, eta)
    chart; works for both flavors (m = 0 uses B0)."""
    _require_valid(validate, data, ctx, validated)
    k = data.k
    exact = data.exact
    B = data.B0
    cols = ([BlockSpec("U", o_pp(-1, 0), k)],
            [BlockSpec("S", o_pp(-1, 1), k), BlockSpec("T", o_pp(0, 0), k),
             BlockSpec("W", o_pp(0, 0), 2)],
            [BlockSpec("Q", o_pp(0, 1), k)])
    at = block_starts(cols)
    eye = nk.eye_like_backend(k, exact)
    alpha = [(0, 0, at["S"], at["U"], data.A),
             (1, 0, at["S"], at["U"], -eye),
             (0, 0, at["T"], at["U"], B),
             (0, 1, at["T"], at["U"], -eye),
             (0, 0, at["W"], at["U"], data.D)]
    beta = [(0, 0, at["Q"], at["S"], -B),
            (0, 1, at["Q"], at["S"], eye),
            (0, 0, at["Q"], at["T"], data.A),
            (1, 0, at["Q"], at["T"], -eye),
            (0, 0, at["Q"], at["W"], data.C)]
    return ParamMonad.from_blocks("xi_eta", cols, alpha, beta, exact)


def big_monad(data: CaloronData, ctx: ToleranceContext = DEFAULT_CTX,
              validated: ValidationReport | None = None) -> ParamMonad:
    """Fused monad with the shift-structure blocks (m > 0)."""
    if not isinstance(data, CaloronData):
        raise BuildRefused("the fused monad needs the m > 0 data flavor")
    _require_valid(validate, data, ctx, validated)
    k, m = data.k, data.m
    exact = data.exact
    cols = ([BlockSpec("Up", o_pp(-1, 0), k),
             BlockSpec("Um", o_pp(-1, 0), k + m)],
            [BlockSpec("Vp", o_pp(0, 0), k + 1),
             BlockSpec("Vm", o_pp(0, 0), k + m + 1),
             BlockSpec("S0", o_pp(-1, 1), k),
             BlockSpec("S1", o_pp(-1, 0), k + m)],
            [BlockSpec("T0", o_pp(0, 1), k),
             BlockSpec("T1", o_pp(0, 0), k + m)])
    at = block_starts(cols)
    eyek = nk.eye_like_backend(k, exact)
    eyekm = nk.eye_like_backend(k + m, exact)
    Wm, Wp, Ym1, Yp1 = _gluing(data)
    alpha = [
        # plus- and minus-side resolutions: W+ and W- plus eta times I
        (0, 0, at["Vp"], at["Up"], Wp),
        (0, 1, at["Vp"], at["Up"], eyek),
        (0, 0, at["Vm"], at["Um"], Wm),
        (0, 1, at["Vm"], at["Um"], eyekm),
        # S0 row: xi * I from Up, [I | 0] from Um
        (1, 0, at["S0"], at["Up"], eyek),
        (0, 0, at["S0"], at["Um"], eyek),
        # S1 row: (A; A') from Up, I from Um
        (0, 0, at["S1"], at["Up"], Yp1[:, :k]),
        (0, 0, at["S1"], at["Um"], eyekm)]
    beta = [
        # beta rows: T0, T1
        (1, 0, at["T0"], at["Vp"], eyek),                  # (xi, 0) row
        (0, 0, at["T0"], at["Vm"], eyek),                  # (1, 0, 0) row
        (0, 0, at["T0"], at["S0"], data.B),                # B - eta
        (0, 1, at["T0"], at["S0"], -eyek),
        (0, 0, at["T1"], at["Vp"], Yp1),
        (0, 0, at["T1"], at["Vm"], Ym1),
        # shifted-block pencil: left normal form minus eta
        (0, 0, at["T1"], at["S1"], data.normal_form),
        (0, 1, at["T1"], at["S1"], -eyekm)]
    return ParamMonad.from_blocks("xi_eta", cols, alpha, beta, exact)


# ---------------------------------------------------------------------------
# Nahm complexes on the circle


def to_nahm_complex(data, ctx: ToleranceContext = DEFAULT_CTX,
                    validated: ValidationReport | None = None
                    ) -> BowComplexTN | BowComplexCircle:
    """Circle complex of the matrix data.

    m > 0: the bow complex of the identity edge, Bth = I and Bht = B.
    m = 0: the BowComplexCircle of B0, B1, the holonomy A and the tuple's
    two fundamental pairs as they are: I_minus, J_minus = C1, D1 factor the
    jump B0 - B1, and I_plus, J_plus = C2, D2 factor -[A, B0] - C1 D1.  D2
    is the one datum the endomorphisms do not determine when C2 = 0, and
    from_nahm_complex reads it from J_plus.
    """
    _require_valid(validate, data, ctx, validated)
    if isinstance(data, CaloronData):
        return _bow_complex(data, nk.eye_like_backend(data.k, data.exact),
                            data.B)
    return BowComplexCircle(data.k, data.B0, data.B1, data.A,
                            I_minus=data.C1, J_minus=data.D[0:1, :],
                            I_plus=data.C2, J_plus=data.D[1:2, :])


def from_nahm_complex(nc: BowComplexTN | BowComplexCircle,
                      tol: float = 1e-9):
    """Matrix tuple back from a circle complex: CaloronData from an m > 0
    bow complex on the identity edge (NotInNormalForm on any other),
    CaloronDataM0 from a BowComplexCircle; checks as nahmbow._off makes
    them."""
    if isinstance(nc, BowComplexTN):
        if nc.m < 1 or _off(nc.Bth - nk.eye_like_backend(
                nc.k, nk.is_exact(nc.Bth)), tol):
            raise NotInNormalForm("a caloron's bow complex has m >= 1 and "
                                  "the identity edge")
        return CaloronData(nc.k, nc.m, B=nc.Bht, **_read_normal_form(nc, tol))
    jump = nc.B0 - nc.B1
    if _off(jump - nc.I_minus @ nc.J_minus, tol, jump):
        raise NotInNormalForm("stored jump factors do not match B0 - B1")
    C, D = _read_back_m0(nc.A, nc.B0, nc.I_minus, nc.J_minus, nc.J_plus, tol)
    return CaloronDataM0(nc.k, nc.A, nc.B0, C, D)


def _read_back_m0(A, B0, C1, D1, D2_stored, tol: float):
    """C and D of an m = 0 tuple from the holonomy A, the head block B0 and
    the first fundamental pair (C1, D1): C2 D2 = -[A, B0] - C1 D1, factored
    by rank_one_factor.  When that product vanishes, C2 = 0 and D2 is the
    stored row (which the pair normalization leaves unscaled when C2 = 0);
    when that row is zero too, C2 is the first unit column and D2 = 0."""
    k, exact = A.shape[0], nk.is_exact(A)
    R = -(nk.mat_mul(A, B0) - nk.mat_mul(B0, A)) - nk.mat_mul(C1, D1)
    pair = rank_one_factor(R, tol)
    if pair is not None:
        C2, D2 = pair
    elif not nk.is_zero_matrix(D2_stored, 1e-12):
        C2, D2 = nk.zeros_like_backend(k, 1, exact), D2_stored
    else:
        C2 = nk.int_matrix(np.eye(k, 1, dtype=int), exact)
        D2 = nk.zeros_like_backend(1, k, exact)
    return nk.block([[C1, C2]]), nk.block([[D1], [D2]])


def _bow_complex(data: MposTuple, Bth, Bht) -> BowComplexTN:
    """The m > 0 bow complex of either flavor on the edge (Bth, Bht): the
    blocks B0 and B1, the left-normal form and the monodromy."""
    return BowComplexTN(data.k, data.m, data.B0, data.B1, Bth, Bht,
                        data.normal_form, data.monodromy, exact=data.exact)


def _read_normal_form(bc: BowComplexTN, tol: float) -> dict:
    """The m > 0 tuple fields other than the edge maps, read off a bow
    complex whose edge factors B0 and B1, whose normal form M continues B1
    and whose monodromy N conjugates M to a form continuing B0.  A deviation
    from that pattern raises NotInNormalForm (see nahmbow._off)."""
    if not bc.edge_factors(tol):
        raise NotInNormalForm("edge factorizations fail on this complex")
    k, m = bc.k, bc.m
    M, N = bc.beta_mid_plus, bc.monodromy
    body = M[k:, k:] - _shift_matrix(m, nk.is_exact(M))
    for dev, what in (
            (M[:k, :k] - bc.B1, "normal form does not continue the tail block"),
            (M[:k, k:k + m - 1], "normal form has entries off the final column"),
            (M[k + 1:, :k], "normal form bottom block is not a single row"),
            (body[:, :m - 1], "pole block deviates from the shift form")):
        if _off(dev, tol, M):
            raise NotInNormalForm(what)
    right = nk.mat_mul(nk.mat_mul(_inv(N), M), N)
    if _off(right[:k, :k] - bc.B0, tol, right):
        raise NotInNormalForm("conjugated form does not continue the head block")
    C = nk.block([[-M[:k, k + m - 1:k + m], N[:k, k:k + 1]]])
    Cprime = nk.block([[-body[:, m - 1:m], N[k:, k:k + 1]]])
    return dict(A=N[:k, :k], C=C, D2row=right[k:k + 1, :k], Aprime=N[k:, :k],
                Bprime=M[k:k + 1, :k], Cprime=Cprime)


# ---------------------------------------------------------------------------
# generation


def generate_caloron(k: int, m: int, seed: int = 0, exact: bool = False,
                     max_tries: int = 40):
    """Random validated caloron data at desk scale.

    Negative magnetic charge is folded onto its positive representative (the
    half-shift swaps the two interval ranks and the sign of m, so only one
    representative is ever materialized).  k = 1 uses the closed-form
    relation solve for any m; k >= 2 picks A with distinct eigenvalues,
    adjusts the second column of C so the product C D has no diagonal part
    in the A eigenbasis, then solves the commutator equation for B entry by
    entry.  m >= 1 needs D (2 x k) of full row rank, which limits the
    solver to k <= 2 there; rejected draws are retried.
    """
    return _first_valid_draw(_draw_caloron, validate, "caloron draw", k, m,
                             seed, exact, max_tries)


def _first_valid_draw(draw, validate, what: str, k: int, m: int, seed: int,
                      exact: bool, max_tries: int):
    """Both flavors' generator loop: the first of max_tries draws
    ``draw(k, |m|, rng, exact)`` from one seeded rng that is not None and
    passes ``validate``, else NoValidDraw naming ``what``.  k below 1, or
    k above 2 with m != 0, raises ValueError before any draw."""
    if k < 1:
        raise ValueError(f"generator needs k >= 1, got k={k}")
    if m and k > 2:
        raise ValueError("generator supports m >= 1 only for k <= 2")
    m = abs(m)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        data = draw(k, m, rng, exact)
        if data is not None and validate(data).passed:
            return data
    raise NoValidDraw(f"no validated {what} for k={k}, m={m}, seed={seed}")


def _draw_ints(rng, shape, lo=-4, hi=5):
    """Exact matrix of integers drawn uniformly from [lo, hi)."""
    return nk.int_matrix(rng.integers(lo, hi, size=shape), True)


def _draw_caloron(k: int, m: int, rng, exact: bool):
    if m == 0:
        return _draw_caloron_m0(k, rng, exact)
    # integer draws keep the exact backend available
    A = _draw_diagonal(rng, k)
    D2 = _draw_ints(rng, (1, k))
    Ap = _draw_ints(rng, (m, k))
    # integer draws: the numerators are the entries
    if not (all(D2.re.flat) and all(Ap.re[m - 1])):
        return None
    D1 = Ap[m - 1:m, :]
    C1 = _draw_ints(rng, (k, 1))
    C2, B = _solve_commutator(A, C1 @ D1, D2, rng, -4, 5)
    Bp = _draw_ints(rng, (1, k))
    Cp = _solve_cprime(Bp, A, Ap, B, nk.block([[D1], [D2]]))
    if Cp is None:
        return None
    C = nk.block([[C1, C2]])
    mats = dict(A=A, B=B, C=C, D2row=D2, Aprime=Ap, Bprime=Bp, Cprime=Cp)
    return _pack(CaloronData, dict(k=k, m=m), mats, exact)


def _draw_diagonal(rng, k: int):
    """Exact diagonal matrix of k distinct integers drawn from [-6, 6]."""
    return nk.int_matrix(np.diag(rng.choice(np.arange(-6, 7), size=k,
                                            replace=False)), True)


def _solve_commutator(A, CD1, D2, rng, lo: int, hi: int):
    """(C2, X) with [A, X] + CD1 + C2 D2 = 0, A diagonal integer, CD1 and D2
    real: C2 clears the diagonal of CD1, X's diagonal is drawn from
    [lo, hi), and each other entry is one ratio of numerators."""
    k, d = A.shape[0], A.re.diagonal().tolist()
    N, M = CD1.re, D2.re
    C2 = nk.exact_from_ratios([((-N[i, i] * D2.den, CD1.den * M[0, i]), (0, 1))
                               for i in range(k)], (k, 1))
    CD = CD1 + C2 @ D2
    X = nk.exact_from_ratios([((int(rng.integers(lo, hi)), 1) if i == j else
                               (-CD.re[i, j], CD.den * (d[i] - d[j])), (0, 1))
                              for i in range(k) for j in range(k)], (k, k))
    return C2, X


def _solve_cprime(Bp, A, Ap, B0, D):
    """Relation 2 solved for Cprime: Cprime D = K with
    K = e- B' A + shift A' - A' B0, so Cprime = K D^-1 for k = 2 and, for
    k = 1, K / D00 beside a zero second column; None when the solve is
    singular."""
    m, k = Ap.shape
    K = (_e_minus_col(m, True) @ Bp @ A + _shift_matrix(m, True) @ Ap
         - Ap @ B0)
    if k == 1:
        if not D[0, 0]:
            return None
        return nk.block([[K / D[0, 0], nk.exact_zeros(m, 1)]])
    Dinv = nk.exact_inverse(D)
    return None if Dinv is None else K @ Dinv


def _draw_caloron_m0(k: int, rng, exact: bool):
    A = _draw_diagonal(rng, k)
    C1 = _draw_ints(rng, (k, 1))
    D1 = _draw_ints(rng, (1, k))
    D2 = _draw_ints(rng, (1, k))
    if not all(D2.re.flat):
        return None
    C2, B0 = _solve_commutator(A, C1 @ D1, D2, rng, -4, 5)
    C = nk.block([[C1, C2]])
    D = nk.block([[D1], [D2]])
    mats = dict(A=A, B0=B0, C=C, D=D)
    return _pack(CaloronDataM0, dict(k=k), mats, exact)


def _pack(cls, meta, mats, exact: bool):
    """Data of class cls from exact draws: as drawn on the exact backend,
    each matrix through to_float on the float one (both round n / d
    correctly)."""
    if not exact:
        mats = {name: nk.to_float(M) for name, M in mats.items()}
    return cls(**meta, **mats)
