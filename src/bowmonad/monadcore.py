"""Three-term monads over coordinate charts of the compactified surface.

The surface in play is the blow-up X of P1 x P1 at (0,0) and (infinity,
infinity) in the (eta, xi) coordinates; its Picard lattice is spanned by the
two rulings and the two exceptional classes.  Monads are stored as pairs of
matrix polynomials in the chart coordinates together with a table of block
twists, recorded as divisors supported on the six boundary curves

    Dpsi, Dxi, C0, Fpsi, Fxi, Cinf

so that restriction to a line of a ruling reduces to Laurent-window
bookkeeping: a section of O(D)(d) on a line with ends on two boundary curves
is a Laurent polynomial whose pole orders at the ends are bounded by the
divisor coefficients there.

Fibers are quotients ker(beta)/im(alpha) at a point; section spaces along a
line combine the naive kernel/image computation with the first-cohomology
correction of the left column (the two pieces of the hypercohomology of the
restricted complex).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .numkit import DEFAULT_CTX, ToleranceContext, is_exact, mat_mul, to_float


class ChartMismatch(nk.BowmonadError):
    pass


class InconsistentSplitting(nk.BowmonadError):
    pass


class InternalTwistError(nk.BowmonadError):
    pass


# ---------------------------------------------------------------------------
# Picard lattice


@dataclass(frozen=True)
class DivisorClass:
    """Class in Pic(X) = Z<lh, lv, e1, e2> with lh.lv = 1, ei^2 = -1."""

    lh: int = 0
    lv: int = 0
    e1: int = 0
    e2: int = 0

    def intersect(self, other: "DivisorClass") -> int:
        return (self.lh * other.lv + self.lv * other.lh
                - self.e1 * other.e1 - self.e2 * other.e2)

    def __add__(self, other):
        return DivisorClass(self.lh + other.lh, self.lv + other.lv,
                            self.e1 + other.e1, self.e2 + other.e2)

    def __sub__(self, other):
        return DivisorClass(self.lh - other.lh, self.lv - other.lv,
                            self.e1 - other.e1, self.e2 - other.e2)

    def __mul__(self, n: int):
        return DivisorClass(n * self.lh, n * self.lv, n * self.e1, n * self.e2)

    __rmul__ = __mul__

    def is_zero(self):
        return self == DivisorClass()


# the hexagon of -1 curves, in cyclic order
CURVE_CLASSES = {
    "Dpsi": DivisorClass(1, 0, -1, 0),
    "Dxi": DivisorClass(0, 0, 1, 0),
    "C0": DivisorClass(0, 1, -1, 0),
    "Fpsi": DivisorClass(1, 0, 0, -1),
    "Fxi": DivisorClass(0, 0, 0, 1),
    "Cinf": DivisorClass(0, 1, 0, -1),
}
HEXAGON_ORDER = ["Dpsi", "Dxi", "C0", "Fpsi", "Fxi", "Cinf"]

# classes of the three rulings used for line restrictions
LINE_CLASSES = {
    "B_eta": DivisorClass(1, 0, 0, 0),
    "L_xi": DivisorClass(0, 1, 0, 0),
    "L_psi": DivisorClass(1, 1, -1, -1),
}

# principal divisor classes of the chart functions (must vanish in Pic)
PRINCIPAL = {
    "eta": ("Dpsi", "Dxi", "-Fpsi", "-Fxi"),
    "xi": ("Dxi", "-Fxi", "C0", "-Cinf"),
    "psi": ("Dpsi", "-Fpsi", "-C0", "Cinf"),
}


def principal_class(name: str) -> DivisorClass:
    total = DivisorClass()
    for term in PRINCIPAL[name]:
        if term.startswith("-"):
            total = total - CURVE_CLASSES[term[1:]]
        else:
            total = total + CURVE_CLASSES[term]
    return total


def twist_class(twist: dict) -> DivisorClass:
    total = DivisorClass()
    for name, coeff in twist.items():
        total = total + coeff * CURVE_CLASSES[name]
    return total


def o_pp(i: int, j: int) -> dict:
    """Boundary divisor representing O(i, j) on P1 x P1 (first index: degree
    on xi = const lines, second: degree on eta = const lines)."""
    return {"Fxi": i + j, "Fpsi": i, "Cinf": j}


# ---------------------------------------------------------------------------
# lines


@dataclass(frozen=True)
class Line:
    """Member of one of the three rulings, at a fixed parameter value."""

    kind: str          # "B_eta" | "L_xi" | "L_psi"
    value: complex

    def __post_init__(self):
        if self.kind not in LINE_CLASSES:
            raise ChartMismatch(f"unknown line kind {self.kind!r}")


# which boundary curves a line of each ruling hits at t=0 / t=inf, per chart;
# None means the end point is interior to the chart closure (plain zero bound)
_LINE_ENDS = {
    "xi_psi": {"B_eta": ("C0", "Cinf"), "L_xi": ("Dpsi", "Fpsi"),
               "L_psi": ("Dxi", "Fxi")},
    "xi_eta": {"B_eta": (None, "Cinf"), "L_xi": (None, "Fpsi")},
}


def _substitution(chart: str, line: Line):
    """Map a chart monomial (p, q) to (t-exponent, scalar factor)."""
    v = complex(line.value)
    if chart == "xi_psi":
        if line.kind == "B_eta":
            if v == 0:
                raise ChartMismatch("eta = 0 is not a line of the B ruling")
            return lambda p, q: (p - q, v ** q)
        if line.kind == "L_xi":
            if v == 0:
                raise ChartMismatch("xi = 0 degenerates on this chart")
            return lambda p, q: (q, v ** p)
        if line.kind == "L_psi":
            if v == 0:
                raise ChartMismatch("psi = 0 degenerates on this chart")
            return lambda p, q: (p, v ** q)
    elif chart == "xi_eta":
        if line.kind == "B_eta":
            return lambda p, q: (p, v ** q)
        if line.kind == "L_xi":
            return lambda p, q: (q, v ** p)
    raise ChartMismatch(f"line {line.kind} not available on chart {chart}")


# ---------------------------------------------------------------------------
# parametrized monads


@dataclass
class BlockSpec:
    label: str
    twist: dict            # boundary-curve coefficients
    rank: int


class CoeffTensor(Mapping):
    """Coefficients of a matrix polynomial by monomial (p, q), stored as one
    tensor: exponent arrays P and Q, and an array C with one row per
    monomial, the flattened coefficient of x^P[j] y^Q[j].  The exponents
    are held as floats, which a complex power takes without a cast (whole
    exponents are still raised by repeated multiplication).

    The tensor is the only copy.  Reading a key gives a read-only view of
    its row; assigning a key writes the matrix into its row (a new key
    appends one), so every write shows in the next evaluation.
    """

    def __init__(self, shape, exact: bool):
        self.shape = shape
        self.P = np.zeros(0)
        self.Q = np.zeros(0)
        self.C = nk.zeros_like_backend(0, shape[0] * shape[1], exact)
        self._rows: dict[tuple, int] = {}

    def __getitem__(self, key) -> np.ndarray:
        out = self.C[self._rows[key]].reshape(self.shape)
        out.flags.writeable = False
        return out

    def __setitem__(self, key, M):
        if np.shape(M) != self.shape:
            raise ValueError(f"coefficient of shape {np.shape(M)}, "
                             f"want {self.shape}")
        row = np.asarray(M, dtype=self.C.dtype).reshape(1, -1)
        if key in self._rows:
            self.C[self._rows[key]] = row[0]
            return
        self._rows[key] = len(self._rows)
        self.P = np.append(self.P, key[0])
        self.Q = np.append(self.Q, key[1])
        self.C = np.concatenate([self.C, row])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class PolyMatrix:
    """Matrix polynomial sum_{(p,q)} coeff[(p,q)] * x^p * y^q.

    On the (xi, eta) chart (x, y) = (xi, eta); on the (xi, psi) chart
    (x, y) = (xi, psi) and eta = xi*psi enters as the (1, 1) monomial.
    ``coeffs`` is a :class:`CoeffTensor`.
    """

    def __init__(self, shape, coeffs=None, exact=False):
        self.shape = tuple(shape)
        self.exact = exact
        self.coeffs = CoeffTensor(self.shape, exact)
        for key, mat in (coeffs or {}).items():
            self.coeffs[key] = mat

    def add_monomial(self, p, q, rows, cols, payload):
        key = (p, q)
        tgt = self.coeffs[key].copy() if key in self.coeffs else \
            nk.zeros_like_backend(*self.shape, self.exact)
        payload = np.asarray(payload) if not self.exact else payload
        tgt[rows[0]:rows[1], cols[0]:cols[1]] = (
            tgt[rows[0]:rows[1], cols[0]:cols[1]] + payload)
        self.coeffs[key] = tgt

    def evaluate(self, x, y):
        if not self.exact:
            return self.evaluate_many([(x, y)])[0]
        if not self.coeffs:
            return nk.exact_zeros(*self.shape)
        # one exact product: the row of monomial weights times the tensor
        w = nk.exact_matrix([[x ** p * y ** q for (p, q) in self.coeffs]])
        return mat_mul(w, self.coeffs.C).reshape(self.shape)

    def evaluate_many(self, points) -> np.ndarray:
        """Values at N chart points (x, y), stacked as an (N, rows, cols)
        array: the (N, monomials) weights x^p y^q times the coefficient
        tensor.  Float backend only; convert an exact matrix with
        ``to_float`` first."""
        return self._at(*_columns(points))

    def _at(self, x, y) -> np.ndarray:
        """evaluate_many at the points of the (N, 1) columns x and y."""
        if self.exact:
            raise TypeError("evaluate_many needs float coefficients; "
                            "convert with to_float()")
        t = self.coeffs
        return ((x ** t.P * y ** t.Q) @ t.C).reshape(len(x), *self.shape)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self o other as matrix polynomials."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("composition shape mismatch")
        out = PolyMatrix((self.shape[0], other.shape[1]), exact=self.exact)
        factors: dict[tuple, tuple[list, list]] = {}
        for (p1, q1), m1 in self.coeffs.items():
            for (p2, q2), m2 in other.coeffs.items():
                left, right = factors.setdefault((p1 + p2, q1 + q2), ([], []))
                left.append(m1)
                right.append(m2)
        for key, (left, right) in factors.items():
            if self.exact:
                # the sum of the products is one product of the stacked factors
                out.coeffs[key] = mat_mul(np.hstack(left), np.vstack(right))
            else:
                # summed product by product: a stacked BLAS product would
                # round in another order
                out.coeffs[key] = sum(map(mat_mul, left[1:], right[1:]),
                                      mat_mul(left[0], right[0]))
        return out

    def max_coeff_norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(nk.mat_norm(m) for m in self.coeffs.values())

    def to_float(self) -> "PolyMatrix":
        if not self.exact:
            return self
        # one conversion of the whole tensor
        mats = to_float(self.coeffs.C).reshape(-1, *self.shape)
        return PolyMatrix(self.shape, dict(zip(self.coeffs, mats)))


@dataclass
class MonadAtPoint:
    """alpha and beta at a point with the residual of beta alpha."""

    alpha: np.ndarray
    beta: np.ndarray
    point: tuple
    residual: float


@dataclass
class FiberBasis:
    dim: int
    basis: np.ndarray


@dataclass
class SectionSpace:
    line: Line
    degree: int
    basis: list            # explicit Laurent-coefficient solutions
    dimension: int         # full h^0, including the left-column H^1 part
    h1_dim: int


def block_offsets(blocks) -> list[tuple[int, int]]:
    """(start, stop) row or column range of each block of a monad column."""
    out, pos = [], 0
    for b in blocks:
        out.append((pos, pos + b.rank))
        pos += b.rank
    return out


class ParamMonad:
    """Block-structured complex col1 --alpha--> col2 --beta--> col3."""

    def __init__(self, chart, cols, alpha: PolyMatrix, beta: PolyMatrix,
                 exact=False):
        if chart not in ("xi_eta", "xi_psi"):
            raise ChartMismatch(f"unknown chart {chart!r}")
        self.chart = chart
        self.cols = cols                       # 3 lists of BlockSpec
        self.alpha = alpha
        self.beta = beta
        self.exact = exact
        self.ranks = tuple(sum(b.rank for b in col) for col in cols)
        if alpha.shape != (self.ranks[1], self.ranks[0]):
            raise ValueError("alpha shape does not match column ranks")
        if beta.shape != (self.ranks[2], self.ranks[1]):
            raise ValueError("beta shape does not match column ranks")

    # -- basic structure -----------------------------------------------------
    def offsets(self, col: int) -> list[tuple[int, int]]:
        return block_offsets(self.cols[col])

    def composite(self) -> PolyMatrix:
        return self.beta.compose(self.alpha)

    def to_float(self) -> "ParamMonad":
        if not self.exact:
            return self
        return ParamMonad(self.chart, self.cols, self.alpha.to_float(),
                          self.beta.to_float(), exact=False)

    def composite_residual(self) -> float:
        """0 when beta o alpha vanishes identically; relative size otherwise."""
        comp = self.composite()
        if self.exact:
            if all(nk.is_zero_matrix(m) for m in comp.coeffs.values()):
                return 0.0
            return comp.max_coeff_norm()
        den = max(self.alpha.max_coeff_norm() * self.beta.max_coeff_norm(), 1e-300)
        return comp.max_coeff_norm() / den

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, point) -> MonadAtPoint:
        """Instantiate at a chart point: (xi, eta) on the product chart,
        (xi, psi) on the blown-up chart (eta = xi*psi is derived).  On the
        float backend this is evaluate_many at one point."""
        x, y = point
        if not self.exact:
            a, b, res = self.evaluate_many([point])
            return MonadAtPoint(a[0], b[0], (x, y), float(res[0]))
        a = self.alpha.evaluate(x, y)
        b = self.beta.evaluate(x, y)
        prod = mat_mul(b, a)
        res = 0.0 if nk.is_zero_matrix(prod) else nk.mat_norm(prod)
        return MonadAtPoint(a, b, (x, y), res)

    def evaluate_many(self, points):
        """alpha and beta at N chart points, stacked along a leading axis,
        with the relative residual |beta alpha| / (|alpha| |beta|) of each
        point (float backend).  Returns the tuple (alpha, beta, residual)."""
        x, y = _columns(points)
        a = self.alpha._at(x, y)
        b = self.beta._at(x, y)
        res = _norms(b @ a) / np.maximum(_norms(a) * _norms(b), 1e-300)
        return a, b, res


def _columns(points):
    """The x and y coordinates of N chart points as (N, 1) columns."""
    pts = np.asarray(points, dtype=complex).reshape(-1, 2)
    return pts[:, :1], pts[:, 1:]


def _norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack."""
    # np.vecdot needs NumPy >= 2.0, the floor set in pyproject.toml
    v = M.reshape(len(M), M.shape[1] * M.shape[2])
    return np.sqrt(np.vecdot(v, v).real)


def fiber(m: MonadAtPoint, ctx: ToleranceContext = DEFAULT_CTX) -> FiberBasis:
    """Middle cohomology ker(beta)/im(alpha) at a point."""
    if m.residual > 1e-8:
        raise nk.ImageNotContained(
            f"beta*alpha residual {m.residual:.2e} too large for a fiber")
    kern = nk.exact_kernel(m.beta) if is_exact(m.beta) else \
        nk.rank_kernel(m.beta, ctx).kernel
    basis = nk.quotient_representatives(kern, m.alpha, ctx)
    return FiberBasis(basis.shape[1], basis)


def fiber_dims(pm: ParamMonad, points, ctx: ToleranceContext = DEFAULT_CTX):
    """dim ker(beta) - rank(alpha) at N chart points of a float monad,
    without constructing bases: one evaluation and one values-only SVD per
    map for all points.  Returns two lists, the dimensions and the smaller
    of the alpha and beta rank margins at each point."""
    alpha, beta, res = pm.evaluate_many(points)
    return _fiber_dims(alpha, beta, res.tolist(), ctx)


def fiber_dim(m: MonadAtPoint, ctx: ToleranceContext = DEFAULT_CTX) -> int:
    """dim ker(beta) - rank(alpha) at one evaluated point: fiber_dims with
    N = 1."""
    return _fiber_dims(to_float(m.alpha)[None], to_float(m.beta)[None],
                       [m.residual], ctx)[0][0]


def _fiber_dims(alpha, beta, residuals: list, ctx: ToleranceContext):
    for res in residuals:
        if res > 1e-8:
            raise nk.ImageNotContained(
                f"beta*alpha residual {res:.2e} too large for a fiber")
    rank_a, margin_a = _fast_rank(alpha, ctx)
    rank_b, margin_b = _fast_rank(beta, ctx)
    n2 = alpha.shape[1]
    return ([n2 - rb - ra for ra, rb in zip(rank_a, rank_b)],
            [min(ga, gb) for ga, gb in zip(margin_a, margin_b)])


def _fast_rank(M: np.ndarray, ctx: ToleranceContext):
    """Ranks and margins of a stack of float matrices: one values-only SVD,
    then the cut of each."""
    if not min(M.shape[1:]):
        return [0] * len(M), [np.inf] * len(M)
    cuts = [ctx.rank_cut(s) for s in
            np.linalg.svd(M, compute_uv=False).tolist()]
    return [r for r, _ in cuts], [g for _, g in cuts]


# ---------------------------------------------------------------------------
# sections along lines


def _windows(pm: ParamMonad, col: int, line: Line, d: int):
    """Laurent exponent window [lo, hi] per block of a column, after twisting
    by d at the infinity end; empty blocks get lo > hi."""
    ends = _LINE_ENDS.get(pm.chart, {}).get(line.kind)
    if ends is None:
        raise ChartMismatch(f"line {line.kind} not available on {pm.chart}")
    end0, endinf = ends
    cls = LINE_CLASSES[line.kind]
    out = []
    for b in pm.cols[col]:
        lo = -(b.twist.get(end0, 0) if end0 else 0)
        hi = b.twist.get(endinf, 0) + d
        deg = twist_class(b.twist).intersect(cls) + d
        if hi - lo != deg:
            raise InternalTwistError(
                f"block {b.label}: window [{lo},{hi}] vs intersection degree {deg}")
        out.append((lo, hi))
    return out


def _h1_exponents(lo: int, hi: int) -> list[int]:
    return list(range(hi + 1, lo))


class _LaurentLayout:
    """Index bookkeeping for (block, exponent, component) coefficient vectors."""

    def __init__(self, blocks, windows, exps_fn):
        self.entries = []   # (block_index, exponent, base offset, rank)
        self.index = {}
        pos = 0
        for ib, (b, (lo, hi)) in enumerate(zip(blocks, windows)):
            for e in exps_fn(lo, hi):
                self.entries.append((ib, e, pos, b.rank))
                self.index[(ib, e)] = pos
                pos += b.rank
        self.size = pos

    def slot(self, ib, e):
        return self.index.get((ib, e))


def _block_action(pm, which, row_col, col_col, line, d, src_layout, dst_layout,
                  strict=True):
    """Matrix of a PolyMatrix map between Laurent-coefficient layouts.

    Entries whose target exponent has no slot are returned separately as
    overflow triples (row block, exponent, matrix, src slot) for the H^1 and
    connecting-map bookkeeping.
    """
    poly = pm.alpha if which == "alpha" else pm.beta
    sub = _substitution(pm.chart, line)
    roff = pm.offsets(row_col)
    coff = pm.offsets(col_col)
    A = np.zeros((dst_layout.size, src_layout.size), dtype=complex)
    overflow = []
    for (p, q), mat in poly.coeffs.items():
        matf = to_float(mat)
        shift, factor = sub(p, q)
        for (ib_src, e, pos_src, rk_src) in src_layout.entries:
            c0, c1 = coff[ib_src]
            for ib_dst, (r0, r1) in enumerate(roff):
                blk = matf[r0:r1, c0:c1]
                if not blk.size or np.max(np.abs(blk)) == 0.0:
                    continue
                slot = dst_layout.slot(ib_dst, e + shift)
                if slot is None:
                    overflow.append((ib_dst, e + shift, factor * blk, pos_src, rk_src))
                    continue
                A[slot:slot + (r1 - r0), pos_src:pos_src + rk_src] += factor * blk
    if strict and overflow:
        raise InternalTwistError("map leaves the declared Laurent windows")
    return A, overflow


def sections_on_line(pm: ParamMonad, line: Line, d: int,
                     ctx: ToleranceContext = DEFAULT_CTX) -> SectionSpace:
    """Global sections of the cohomology bundle restricted to a line, twisted
    by O(d).

    Two contributions: solutions of the section equations in the declared
    Laurent windows modulo the image of the left column, plus classes in the
    first cohomology of the left column killed by alpha (these have no
    polynomial representative; they only add to the dimension).  The second
    piece is corrected by the connecting map into the right column.
    """
    w1 = _windows(pm, 0, line, d)
    w2 = _windows(pm, 1, line, d)
    blocks1, blocks2, blocks3 = pm.cols

    h0_exps = lambda lo, hi: list(range(lo, hi + 1))
    lay1 = _LaurentLayout(blocks1, w1, h0_exps)
    lay2 = _LaurentLayout(blocks2, w2, h0_exps)

    h0_dim, reps = 0, np.zeros((0, 0), dtype=complex)
    if lay2.size:
        lay_eq = _equation_layout(pm, line, lay2, "beta")
        E, _ = _block_action(pm, "beta", 2, 1, line, d, lay2, lay_eq,
                             strict=False)
        kern = nk.rank_kernel(E, ctx).kernel
        Aim, _ = _block_action(pm, "alpha", 1, 0, line, d, lay1, lay2,
                               strict=True)
        reps = nk.quotient_representatives(kern, Aim, ctx)
        h0_dim = reps.shape[1]

    # H^1 of the left column, with the alpha action on Cech classes
    lay1_h1 = _LaurentLayout(blocks1, w1, _h1_exponents)
    h1_net = 0
    if lay1_h1.size:
        lay2_h1 = _LaurentLayout(blocks2, w2, _h1_exponents)
        H, _ = _block_action(pm, "alpha", 1, 0, line, d, lay1_h1, lay2_h1,
                             strict=False)
        ker_h1 = nk.rank_kernel(H, ctx).kernel if lay2_h1.size else \
            np.eye(lay1_h1.size, dtype=complex)
        if ker_h1.shape[1]:
            d2 = _connecting_rank(pm, line, d, lay1_h1, w2, ker_h1, lay2, ctx)
            h1_net = ker_h1.shape[1] - d2
    return SectionSpace(line, d, [reps[:, j] for j in range(h0_dim)],
                        h0_dim + h1_net, h1_net)


def _equation_layout(pm, line, lay_src, which):
    """Layout over every target exponent the map can reach from a layout."""
    poly = pm.beta if which == "beta" else pm.alpha
    sub = _substitution(pm.chart, line)
    shifts = [sub(p, q)[0] for (p, q) in poly.coeffs] or [0]
    exps = [e for (_, e, _, _) in lay_src.entries]
    lo = min(exps) + min(shifts)
    hi = max(exps) + max(shifts)
    blocks_dst = pm.cols[2] if which == "beta" else pm.cols[1]
    return _LaurentLayout(blocks_dst, [(lo, hi)] * len(blocks_dst),
                          lambda a, b: list(range(a, b + 1)))


def _connecting_rank(pm, line, d, lay1_h1, w2, ker_h1, lay2, ctx):
    """Rank of the connecting differential on H^1(left) classes killed in
    H^1(middle).

    For such a class the alpha image splits into a piece regular at t=0 (all
    exponents above the window floor, poles at infinity allowed) and a piece
    regular at infinity; beta of the regular piece is a genuine global
    section of the right column, well defined modulo beta of global middle
    sections.
    """
    blocks2 = pm.cols[1]
    h0_exps = lambda lo, hi: list(range(lo, hi + 1))
    sub = _substitution(pm.chart, line)
    a_shifts = [sub(p, q)[0] for (p, q) in pm.alpha.coeffs] or [0]
    exps1 = [e for (_, e, _, _) in lay1_h1.entries]
    lo_all = min(exps1) + min(a_shifts)
    hi_all = max(exps1) + max(a_shifts)
    lay_full = _LaurentLayout(blocks2, [(lo_all, hi_all)] * len(blocks2),
                              h0_exps)
    Afull, _ = _block_action(pm, "alpha", 1, 0, line, d, lay1_h1, lay_full,
                             strict=False)
    images = Afull @ ker_h1
    scale = max(1.0, np.max(np.abs(images))) if images.size else 1.0
    # regular piece: keep exponents >= per-block window floor
    lay_reg = _LaurentLayout(
        blocks2, [(w2[ib][0], max(hi_all, w2[ib][0] - 1)) for ib in
                  range(len(blocks2))], h0_exps)
    P = np.zeros((lay_reg.size, lay_full.size), dtype=complex)
    for (ib, e, pos, rk) in lay_full.entries:
        lo, hi = w2[ib]
        if hi < e < lo:
            band = images[pos:pos + rk]
            if band.size and np.max(np.abs(band)) > 1e-7 * scale:
                raise InternalTwistError("H^1 kernel class keeps a residual band")
        slot = lay_reg.slot(ib, e)
        if slot is not None and e >= lo:
            P[slot:slot + rk, pos:pos + rk] = np.eye(rk)
    v0 = P @ images
    lay_eq = _equation_layout(pm, line, lay_reg, "beta")
    Ereg, _ = _block_action(pm, "beta", 2, 1, line, d, lay_reg, lay_eq,
                            strict=False)
    d2_vals = Ereg @ v0
    if not d2_vals.size or np.max(np.abs(d2_vals)) <= 1e-9 * scale:
        return 0
    if lay2.size:
        Eh0, _ = _block_action(pm, "beta", 2, 1, line, d, lay2, lay_eq,
                               strict=False)
        cok = nk.rank_kernel(Eh0, ctx).cokernel
        proj = cok.conj().T @ d2_vals
    else:
        proj = d2_vals
    if not proj.size or np.max(np.abs(proj)) <= 1e-9 * scale:
        return 0
    return nk.rank_kernel(proj, ctx).rank


def splitting_type(pm: ParamMonad, line: Line,
                   ctx: ToleranceContext = DEFAULT_CTX) -> tuple[int, int]:
    """Splitting type (a, -a) of the rank-2 degree-0 restriction to a line.

    a is the number of sections after twisting down once; the untwisted
    section count must then come out as a+1 (jumping) or 2 (balanced).
    """
    a = sections_on_line(pm, line, -1, ctx).dimension
    h0 = sections_on_line(pm, line, 0, ctx).dimension
    if a == 0 and h0 != 2:
        raise InconsistentSplitting(f"a=0 but h0={h0} on {line}")
    if a > 0 and h0 != a + 1:
        raise InconsistentSplitting(f"a={a} but h0={h0} on {line}")
    return (a, -a)


# ---------------------------------------------------------------------------
# convenience


def random_chart_points(n: int, rng: np.random.Generator, radius: float = 2.0,
                        avoid_origin: bool = True):
    """Generic sample points for fiber sweeps; avoids tiny |xi| so both
    charts stay honest."""
    pts = []
    while len(pts) < n:
        x, y = rng.standard_normal(2) * radius + 1j * rng.standard_normal(2) * radius
        if avoid_origin and (abs(x) < 0.05 or abs(y) < 0.05):
            continue
        pts.append((complex(x), complex(y)))
    return pts
