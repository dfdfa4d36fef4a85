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

A monad is built once, from its blocks: ``ParamMonad.from_blocks(chart,
cols, alpha, beta)`` sizes both maps from the column ranks and sums each
map's ``(p, q, start[row label] + i, start[col label] + j, payload)``
blocks, the offsets read from ``block_starts(cols)`` and each extent from
its payload's shape.  The coefficients are read-only from then on.  The
twists come from ``o_pp`` on the (xi, eta) chart and from the ``TWISTS``
table on the (xi, psi) chart.

Fibers are quotients ker(beta)/im(alpha) at a point; section spaces along a
line combine the naive kernel/image computation with the first-cohomology
correction of the left column (the two pieces of the hypercohomology of the
restricted complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import numkit as nk
from .numkit import DEFAULT_CTX, ToleranceContext, is_exact, to_float


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


# degree of each boundary curve on a line of each ruling; a twist divisor's
# degree is their sum with its coefficients (intersection is bilinear)
_CURVE_DEGREES = {kind: {name: c.intersect(cls)
                          for name, c in CURVE_CLASSES.items()}
                  for kind, cls in LINE_CLASSES.items()}


def o_pp(i: int, j: int) -> dict:
    """Boundary divisor representing O(i, j) on P1 x P1 (first index: degree
    on xi = const lines, second: degree on eta = const lines)."""
    return {"Fxi": i + j, "Fpsi": i, "Cinf": j}


# boundary twists of the Taub-NUT fused, psi-pushdown and finite monad
# blocks on the (xi, psi) chart
TWISTS = {
    "mF": {"Fxi": -1, "Fpsi": -1},
    "mFC0": {"Fxi": -1, "Fpsi": -1, "C0": -1},
    "mFCi": {"Fxi": -1, "Fpsi": -1, "Cinf": -1},
    "Eh": {"Cinf": -1, "Fxi": -1},
    "Et": {"C0": -1, "Fpsi": -1},
    "Wpsi": {"Fxi": -1, "Fpsi": -2, "C0": -1},
    "triv": {},
}


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


class PolyMatrix:
    """Matrix polynomial sum_{(p,q)} coeff[(p,q)] * x^p * y^q.

    On the (xi, eta) chart (x, y) = (xi, eta); on the (xi, psi) chart
    (x, y) = (xi, psi) and eta = xi*psi enters as the (1, 1) monomial.

    The coefficients are fixed at construction and stored as one tensor:
    exponent arrays P and Q, and C with one row per monomial, the flattened
    coefficient of x^P[j] y^Q[j]: a read-only complex array, or on the exact
    backend one ExactMatrix, whose numerators over one denominator are the
    split form that evaluation and composition work on.  The exponents
    are held as floats, which a complex power takes without a cast (whole
    exponents are still raised by repeated multiplication).  ``coeffs`` is
    a read-only mapping from (p, q) to its coefficient (a read-only view of
    its row on floats), so what is derived from the coefficients once, such
    as a monad's section plans, stays valid.
    """

    def __init__(self, shape, coeffs=None, exact=False):
        coeffs = coeffs or {}
        if any(M.shape != tuple(shape) for M in coeffs.values()):
            raise ValueError(f"a coefficient is not of shape {tuple(shape)}")
        C = nk.block([[M.reshape(1, -1)] for M in coeffs.values()] or [[
            nk.zeros_like_backend(0, shape[0] * shape[1], exact)]])
        self._set(shape, list(coeffs), C if exact else C.astype(complex))

    @classmethod
    def _of_tensor(cls, shape, monomials, C) -> "PolyMatrix":
        """The matrix polynomial of coefficient tensor C, row j that of
        monomials[j]."""
        out = object.__new__(cls)
        out._set(shape, monomials, C)
        return out

    def _set(self, shape, monomials, C):
        self.shape, self.exact, self.C = tuple(shape), is_exact(C), C
        if not self.exact:
            C.flags.writeable = False
        self.P = np.array([p for p, _ in monomials], dtype=float)
        self.Q = np.array([q for _, q in monomials], dtype=float)
        self.coeffs = MappingProxyType({key: C[j].reshape(self.shape)
                                        for j, key in enumerate(monomials)})

    def evaluate(self, x, y):
        """Value at the chart point (x, y); on floats, evaluate_many's weight
        formula on two complex scalars, bit for bit evaluate_many([(x, y)])."""
        if not self.exact:
            return self._at(complex(x), complex(y))
        # one exact product: the row of monomial weights times the tensor
        w = nk.exact_matrix([[x ** p * y ** q for p, q in self.coeffs]])
        return (w @ self.C).reshape(self.shape)

    def evaluate_many(self, points) -> np.ndarray:
        """Values at N chart points (x, y), stacked as an (N, rows, cols)
        array: the (N, monomials) weights x^p y^q times the coefficient
        tensor.  Float backend only; convert an exact matrix with
        ``to_float`` first."""
        return self._at(*_columns(points))

    def _at(self, x, y) -> np.ndarray:
        """Values at the (N, 1) columns x and y, stacked, or at two scalars."""
        if self.exact:
            raise TypeError("evaluate_many needs float coefficients; "
                            "convert with to_float()")
        w = x ** self.P * y ** self.Q
        return (w @ self.C).reshape(*w.shape[:-1], *self.shape)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self o other as matrix polynomials: on the exact backend the
        tensor of the Z[i] sums of _exact_compose over their denominator;
        on floats each coefficient summed product by product (a stacked
        BLAS product would round in another order)."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("composition shape mismatch")
        shape = (self.shape[0], other.shape[1])
        if self.exact:
            sums, den = self._exact_compose(other)
            zero = np.zeros(shape, dtype=object)
            re, im = (np.array([zero if s[i] is None else s[i]
                                for s in sums.values()], dtype=object)
                      .reshape(len(sums), shape[0] * shape[1]) for i in (0, 1))
            return PolyMatrix._of_tensor(shape, list(sums),
                                         nk.ExactMatrix(re, im, den))
        left, right = list(self.coeffs.values()), list(other.coeffs.values())
        out = {}
        for key, (js, ks) in self._pairs(other).items():
            out[key] = sum(map(np.dot, [left[j] for j in js[1:]],
                               [right[k] for k in ks[1:]]),
                           np.dot(left[js[0]], right[ks[0]]))
        return PolyMatrix(shape, out)

    def _pairs(self, other) -> dict:
        """Per monomial of self o other, in the order first seen, the
        monomial indices (js, ks) into self and other of the factor pairs
        that give it."""
        pairs: dict[tuple, tuple[list, list]] = {}
        for j, (p1, q1) in enumerate(self.coeffs):
            for k, (p2, q2) in enumerate(other.coeffs):
                js, ks = pairs.setdefault((p1 + p2, q1 + q2), ([], []))
                js.append(j)
                ks.append(k)
        return pairs

    def _exact_compose(self, other):
        """self o other in Z[i]: per monomial, (re, im) of the sum of its
        factor products, as one product of the stacked numerators, all over
        the denominator returned beside them."""
        (lr, li), (rr, ri) = ([None if X is None else
                               X.reshape(len(p.coeffs), *p.shape)
                               for X in (p.C.re, p.C.im)] for p in (self, other))
        rows, n, cols = self.shape[0], self.shape[1], other.shape[1]

        def side_by_side(X, js):
            return None if X is None else \
                X[js].transpose(1, 0, 2).reshape(rows, len(js) * n)

        def stacked(X, ks):
            return None if X is None else X[ks].reshape(len(ks) * n, cols)

        sums = {key: nk._zi_dot(side_by_side(lr, js), side_by_side(li, js),
                                stacked(rr, ks), stacked(ri, ks))
                for key, (js, ks) in self._pairs(other).items()}
        return sums, self.C.den * other.C.den

    def max_coeff_norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(nk.mat_norm(m) for m in self.coeffs.values())

    def to_float(self) -> "PolyMatrix":
        if not self.exact:
            return self
        # one conversion of the whole tensor
        mats = to_float(self.C).reshape(-1, *self.shape)
        return PolyMatrix(self.shape, dict(zip(self.coeffs, mats)))


@dataclass
class MonadAtPoint:
    """alpha and beta at a point with the residual of beta alpha."""

    alpha: np.ndarray
    beta: np.ndarray
    residual: float


@dataclass
class FiberBasis:
    dim: int
    basis: np.ndarray


@dataclass
class SectionSpace:
    """The sections of a restricted, twisted cohomology bundle on a line.

    ``dimension`` is the full h^0: the quotient of the section equations'
    solutions by the image of the left column, plus the left-column H^1
    share ``h1_dim``.  The count is all a section decision reads and comes
    from singular values alone (numkit.quotient_dimension), so the space
    keeps the section equations E and the image Aim, with the tolerance
    context, and ``basis``, the explicit Laurent-coefficient
    representatives, builds the quotient ker(E) / im(Aim) from them the
    first time it is read."""

    line: Line
    dimension: int
    h1_dim: int
    _system: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def basis(self) -> list:
        if self._system is None:
            return []
        reps = nk.quotient_representatives(*self._system)
        return [reps[:, j] for j in range(reps.shape[1])]


def block_starts(cols) -> dict[str, int]:
    """The first row or column of each block, by label (unique across the
    three columns)."""
    start = {b.label: sum(c.rank for c in col[:i])
             for col in cols for i, b in enumerate(col)}
    if len(start) < sum(map(len, cols)):
        raise ValueError("repeated block label")
    return start


def _summed_blocks(shape, blocks, exact) -> PolyMatrix:
    """The matrix polynomial of (p, q, r0, c0, payload) blocks: each payload
    added into the coefficient of x^p y^q with its top-left entry at
    (r0, c0), its extent read from its shape.  Monomials keep the order in
    which they are first seen.  An exact monad takes exact payloads only,
    and sums their numerators over the least common denominator of all."""
    rows, at = {}, []
    for p, q, r0, c0, payload in blocks:
        if exact and not nk.is_exact(payload):
            raise TypeError("an exact monad takes exact payloads only")
        h, w = np.shape(payload)
        if r0 + h > shape[0] or c0 + w > shape[1]:
            raise ValueError(f"block {(h, w)} at {(r0, c0)} leaves {shape}")
        at.append((rows.setdefault((p, q), len(rows)), slice(r0, r0 + h),
                   slice(c0, c0 + w)))
    payloads = [b[4] for b in blocks]
    den = math.lcm(*(P.den for P in payloads)) if exact else 1

    def summed(parts):
        # a sum, not a copy: a -0.0 float payload entry lands as +0.0
        T = np.zeros((len(rows), *shape), dtype=object if exact else complex)
        for where, X in zip(at, parts):
            if X is not None:
                T[where] += X
        return T.reshape(len(rows), shape[0] * shape[1])

    C = nk.ExactMatrix(
        summed([P.re * (den // P.den) for P in payloads]),
        summed([None if P.im is None else P.im * (den // P.den)
                for P in payloads]), den) if exact else summed(payloads)
    return PolyMatrix._of_tensor(shape, list(rows), C)


class ParamMonad:
    """Block-structured complex col1 --alpha--> col2 --beta--> col3.

    ``start`` maps each block label (unique across the three columns) to
    the block's first row or column.  The section plans of each ruling and
    twist (see _LineSystem) are kept in ``_plans``: the coefficients never
    change."""

    def __init__(self, chart, cols, alpha: PolyMatrix, beta: PolyMatrix,
                 exact=False):
        if chart not in ("xi_eta", "xi_psi"):
            raise ChartMismatch(f"unknown chart {chart!r}")
        self.chart = chart
        self.cols = cols                       # 3 lists of BlockSpec
        self.exact = exact
        self.start = block_starts(cols)
        self.ranks = n1, n2, n3 = tuple(sum(b.rank for b in c) for c in cols)
        self.alpha, self.beta = alpha, beta
        if (self.alpha.shape, self.beta.shape) != ((n2, n1), (n3, n2)):
            raise ValueError("alpha or beta shape does not match column ranks")
        self._plans: dict = {}

    @classmethod
    def from_blocks(cls, chart, cols, alpha, beta,
                    exact=False) -> "ParamMonad":
        """The monad whose alpha and beta sum the (p, q, r0, c0, payload)
        blocks given for each (see _summed_blocks), sized from the column
        ranks; block_starts(cols) gives the offsets r0 and c0."""
        n1, n2, n3 = (sum(b.rank for b in c) for c in cols)
        return cls(chart, cols, _summed_blocks((n2, n1), alpha, exact),
                   _summed_blocks((n3, n2), beta, exact), exact)

    # -- basic structure -----------------------------------------------------
    def composite(self) -> PolyMatrix:
        return self.beta.compose(self.alpha)

    def to_float(self) -> "ParamMonad":
        if not self.exact:
            return self
        return ParamMonad(self.chart, self.cols, self.alpha.to_float(),
                          self.beta.to_float(), exact=False)

    def composite_residual(self) -> float:
        """0 when beta o alpha vanishes identically; relative size otherwise."""
        if self.exact:
            # decided on the Gaussian-integer sums; only a nonzero composite
            # is divided out, for its largest coefficient norm
            sums, den = self.beta._exact_compose(self.alpha)
            if not any(any(part.ravel().tolist()) for re, im in sums.values()
                       for part in (re, im) if part is not None):
                return 0.0
            return max(nk.mat_norm(nk.ExactMatrix(re, im, den))
                       for re, im in sums.values())
        comp = self.composite()
        den = max(self.alpha.max_coeff_norm() * self.beta.max_coeff_norm(), 1e-300)
        return comp.max_coeff_norm() / den

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, point) -> MonadAtPoint:
        """Instantiate at a chart point: (xi, eta) on the product chart,
        (xi, psi) on the blown-up chart (eta = xi*psi is derived).  On the
        float backend, evaluate_many's formulas on two complex scalars, with
        no stack of one point: alpha, beta and the residual are bit for bit
        those of evaluate_many([point])."""
        x, y = point
        if not self.exact:
            a, b, res = self._maps_at(complex(x), complex(y))
            return MonadAtPoint(a, b, res)
        a = self.alpha.evaluate(x, y)
        b = self.beta.evaluate(x, y)
        return MonadAtPoint(a, b, nk.mat_norm(b @ a))

    def evaluate_many(self, points):
        """alpha and beta at N chart points, stacked along a leading axis,
        with the relative residual |beta alpha| / (|alpha| |beta|) of each
        point (float backend).  Returns the tuple (alpha, beta, residual)."""
        return self._maps_at(*_columns(points))

    @cached_property
    def _weights(self):
        """What the weight rows of the two float maps share: the exponents
        P and Q of alpha's monomials, then of those only beta has, and the
        positions of beta's monomials among them, in beta's order.  One row
        x^P y^Q then holds both maps' rows entry for entry as each map
        computes its own (elementwise work is the same at any position).
        Derived on first evaluation, as the coefficients never change."""
        if self.alpha.exact or self.beta.exact:
            raise TypeError("evaluate_many needs float coefficients; "
                            "convert with to_float()")
        keys = {key: j for j, key in enumerate(
            dict.fromkeys([*self.alpha.coeffs, *self.beta.coeffs]))}
        return (np.array([p for p, _ in keys], dtype=float),
                np.array([q for _, q in keys], dtype=float),
                np.array([keys[key] for key in self.beta.coeffs], dtype=int))

    def _maps_at(self, x, y):
        """evaluate_many at (N, 1) columns x and y, or at two scalars.

        One row of monomial weights, then each map's own product of its
        part of the row with its tensor, so alpha and beta are bit for bit
        the maps' own evaluate.  (One product of a block-diagonal tensor
        would round differently: BLAS sums a column in an order that
        depends on the product's shape and the column's place in it.)  At
        two scalars the residual is taken in Python floats, the same IEEE
        operations as on the arrays of N points."""
        P, Q, at_beta = self._weights
        w = x ** P * y ** Q
        fa = w[..., :len(self.alpha.P)] @ self.alpha.C
        fb = w[..., at_beta] @ self.beta.C
        lead = w.shape[:-1]
        a = fa.reshape(*lead, *self.alpha.shape)
        b = fb.reshape(*lead, *self.beta.shape)
        if lead:
            res = _norms(b @ a) / np.maximum(_norms(a) * _norms(b), 1e-300)
        else:
            ba = (b @ a).ravel()
            res = math.sqrt(np.vecdot(ba, ba).real) / max(
                math.sqrt(np.vecdot(fa, fa).real)
                * math.sqrt(np.vecdot(fb, fb).real), 1e-300)
        return a, b, res


def _columns(points):
    """The x and y coordinates of N chart points as (N, 1) columns."""
    pts = np.asarray(points, dtype=complex).reshape(-1, 2)
    return pts[:, :1], pts[:, 1:]


def _norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack, or of one matrix."""
    # np.vecdot needs NumPy >= 2.0, the floor set in pyproject.toml
    v = M.reshape(*M.shape[:-2], M.shape[-2] * M.shape[-1])
    return np.sqrt(np.vecdot(v, v).real)


def _check_residual(residual: float, alpha, beta):
    """The residual guard of every fiber computation: a residual above 1e-8,
    or one that is not a number, refuses the point, naming the maps that
    hold entries that are not finite."""
    if residual <= 1e-8:
        return
    bad = [name for name, M in (("alpha", alpha), ("beta", beta))
           if not is_exact(M) and not np.isfinite(M).all()]
    raise nk.ImageNotContained(
        f"beta*alpha residual {residual:.2e} too large for a fiber"
        + (f" ({' and '.join(bad)} not finite)" if bad else ""))


def fiber(m: MonadAtPoint, ctx: ToleranceContext = DEFAULT_CTX) -> FiberBasis:
    """Middle cohomology ker(beta)/im(alpha) at a point."""
    _check_residual(m.residual, m.alpha, m.beta)
    basis = nk.quotient_representatives(m.beta, m.alpha, ctx)
    return FiberBasis(basis.shape[1], basis)


def fiber_dims(pm: ParamMonad, points, ctx: ToleranceContext = DEFAULT_CTX):
    """dim ker(beta) - rank(alpha) at N chart points of a float monad,
    without constructing bases: one evaluation and one values-only SVD per
    map for all points.  Returns two lists, the dimensions and the smaller
    of the alpha and beta rank margins at each point.  It keeps the SVDs
    at every point, full-rank ones included, since the margins are read
    (CLI ``fiber`` prints them); fiber_dim decides the same rank."""
    alpha, beta, res = pm.evaluate_many(points)
    refused = np.flatnonzero(~(res <= 1e-8))
    if refused.size:
        i = refused[0]
        _check_residual(float(res[i]), alpha[i], beta[i])
    # one values-only SVD of each stack, then the cut of each matrix (rank
    # 0 and margin inf where it is empty)
    cut_a, cut_b = ([ctx.rank_cut(s) for s in
                     np.linalg.svd(M, compute_uv=False).tolist()]
                    for M in (alpha, beta))
    n2 = alpha.shape[1]
    return ([n2 - rb - ra for (ra, _), (rb, _) in zip(cut_a, cut_b)],
            [min(ga, gb) for (_, ga), (_, gb) in zip(cut_a, cut_b)])


def fiber_dim(m: MonadAtPoint, ctx: ToleranceContext = DEFAULT_CTX) -> int:
    """dim ker(beta) - rank(alpha) at one evaluated point: the residual
    guard, then the rank decision of fiber_dims, which it matches at that
    point.  Where one Cholesky certifies that both maps have full rank
    (``_full_rank_certified``, the generic point) that is the answer;
    otherwise one values-only SVD of each map cut by ctx.rank_cut decides,
    and raises GapTooSmall where that cut has no margin.  Where neither map
    has two rows and two columns the SVDs decide at once: on such vectors
    they cost less than the certificate's fixed cost."""
    _check_residual(m.residual, m.alpha, m.beta)
    alpha, beta = (to_float(M) if is_exact(M) else M
                   for M in (m.alpha, m.beta))
    if max(min(alpha.shape), min(beta.shape)) > 1 and \
            _full_rank_certified(alpha, beta, ctx):
        return alpha.shape[0] - min(alpha.shape) - min(beta.shape)
    return alpha.shape[0] - sum(
        ctx.rank_cut(np.linalg.svd(M, compute_uv=False).tolist())[0]
        for M in (alpha, beta))


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


def _full_rank_certified(alpha, beta, ctx: ToleranceContext) -> bool:
    """True only where the SVD cut of fiber_dim would give both maps full
    rank with margin at least ctx.gap_factor: one np.linalg.cholesky of a
    (2, p, p) stack.  False sends the point to the SVDs.

    For an m x n map M with q = min(m, n) > 0, l = max(m, n) and
    N = |M|_F^2, the stack holds G - s I, where G is the q x q Gram matrix
    (M^H M if tall, M M^H if wide), s = tau nu and nu the computed N; the
    smaller Gram matrix is padded with identity to p = max(q_alpha,
    q_beta), which leaves its own factorization as it is.  Here
    tau = (4 g r)^2, g = max(ctx.gap_factor, 1), r = ctx.rank_tol.

    With eps the machine epsilon (twice the unit roundoff, which covers
    the sqrt(2) of complex products), the computed nu is N (1 - l q eps)
    or more, the computed G is G + E with |E|_2 <= (l + 2) eps N (inner
    products of length l, bounded by |M|^H |M|, whose 2-norm is at most
    N), and the diagonal subtraction adds eps N.  A Cholesky that runs to
    the end on a p x p Hermitian A factors A + dA with |dA|_2 <=
    (p + 2) eps trace(A) (Demmel 1989; Higham 2002, Thm 10.5), so A + dA
    is positive semidefinite, and trace(A) <= N.  Summed, with one eps
    more for the second-order terms:

        sigma_min(M)^2 >= (tau - gamma) N,
        gamma = (l + p + 6) eps + tau l q eps.

    The certificate is taken only where tau - gamma >= (2 g r)^2, so
    sigma_min >= 2 g r |M|_F >= 2 g r sigma_max.  The SVD's own values are
    off by at most f eps sigma_max for a modest f (backward stability), and
    tau - gamma >= (2 g r)^2 forces g r >= sqrt(eps) / 2, so for any
    f < 10^7 its margin sigma_min / (r sigma_max) stays above g: full rank,
    no GapTooSmall.  Success is therefore never a different answer, only
    a cheaper one; a failed factorization proves nothing and the SVDs
    decide (degenerate points, zero maps, far chart points).

    The bounds hold without underflow or overflow, so a map is refused
    unless tiny / (tau eps) < nu < max / 2: then the shift is at least
    tiny / eps, far above any subnormal rounding, and no entry of G or its
    factor can overflow.  A NaN or infinite nu fails the same test.  A map
    with q = 0 has full rank 0 and adds identity only."""
    gr2 = (max(ctx.gap_factor, 1.0) * ctx.rank_tol) ** 2   # nan stays nan
    tau = 16.0 * gr2
    qa, qb = min(alpha.shape), min(beta.shape)
    p = qa if qa > qb else qb
    stack = np.zeros((2, p, p), complex)
    diag = stack.reshape(2, p * p)[:, ::p + 1]
    diag[:] = 1.0
    for i, M, q in ((0, alpha, qa), (1, beta, qb)):
        if q == 0:
            continue
        l = M.shape[0] + M.shape[1] - q
        if tau - (l + p + 6 + tau * l * q) * _EPS < 4.0 * gr2:
            return False
        v = M.ravel()
        nu = np.vecdot(v, v).real
        if not _TINY / (tau * _EPS) < nu < _HUGE / 2:
            return False
        if M.shape[0] >= M.shape[1]:
            np.matmul(M.conj().T, M, out=stack[i, :q, :q])
        else:
            np.matmul(M, M.conj().T, out=stack[i, :q, :q])
        diag[i, :q] -= tau * nu
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# sections along lines


def _windows(pm: ParamMonad, col: int, kind: str):
    """Laurent exponent window [lo, hi] per block of a column on the lines of
    one ruling; a twist by O(d) at the infinity end adds d to every hi.
    Empty blocks get lo > hi."""
    ends = _LINE_ENDS.get(pm.chart, {}).get(kind)
    if ends is None:
        raise ChartMismatch(f"line {kind} not available on {pm.chart}")
    end0, endinf = ends
    degrees = _CURVE_DEGREES[kind]
    out = []
    for b in pm.cols[col]:
        lo = -(b.twist.get(end0, 0) if end0 else 0)
        hi = b.twist.get(endinf, 0)
        deg = sum(c * degrees[name] for name, c in b.twist.items())
        if hi - lo != deg:
            raise InternalTwistError(
                f"block {b.label}: window [{lo},{hi}] vs intersection degree {deg}")
        out.append((lo, hi))
    return out


class _Layout:
    """Coefficient vectors of Laurent sections of one column's blocks:
    block ib holds the exponents first..last of its span, each a run of
    rank components, the runs of all blocks laid end to end.  Each position
    records its exponent ``exp``, its row or column ``comp`` in the monad's
    column and its ``block``."""

    def __init__(self, blocks, spans):
        self.blocks = []    # (first exponent, count, base offset, rank)
        block, exp, comp = [], [], []
        pos = col = 0
        for ib, (b, (first, last)) in enumerate(zip(blocks, spans)):
            count = max(last - first + 1, 0)
            self.blocks.append((first, count, pos, b.rank))
            # exponent-major runs: each exponent once per component
            block += [ib] * (count * b.rank)
            exp += [e for e in range(first, last + 1) for _ in range(b.rank)]
            comp += list(range(col, col + b.rank)) * count
            pos += count * b.rank
            col += b.rank
        self.size = pos
        self.block, self.exp, self.comp = np.array([block, exp, comp],
                                                   dtype=int)


class _Placement:
    """Where alpha or beta lands in the matrix of the map between two
    Laurent layouts, with no line value in it.

    Entry (a, b) sums f_j C_j[comp(a), comp(b)] over the monomials j with
    exp(a) = exp(b) + shift_j, f_j the monomial's factor on the line.  The
    nonzero cells are kept in monomial order, each with its flat index,
    monomial and coefficient, so a line's matrix is one unbuffered
    scatter-add (np.add.at, which adds in index order) of the products
    f_j C_j, and each cell sums its monomials in monomial order.
    ``leaves`` tells whether a nonzero coefficient sends a source exponent
    out of the window of its row's block.
    """

    def __init__(self, which: str, coeffs, shifts, src: _Layout,
                 dst: _Layout):
        self.which, self.src, self.dst = which, src, dst
        self.shape = (dst.size, src.size)
        self.coeffs = coeffs
        match = dst.exp[:, None] == src.exp + shifts[:, None, None]
        j, a, b = np.nonzero(match)
        vals = coeffs[j, dst.comp[a], src.comp[b]]
        nz = vals != 0
        self.monomial, self.cells, self.vals = \
            j[nz], (a * src.size + b)[nz], vals[nz]

    @cached_property
    def leaves(self) -> bool:
        # each nonzero C_j[r, comp(b)] of a source position b has its cell
        # unless the target exponent lies outside the window of row r
        placed = len(self.vals)
        nonzero = np.count_nonzero(self.coeffs, axis=1)[:, self.src.comp]
        return bool(placed < nonzero.sum())

    def matrix(self, factors) -> np.ndarray:
        """The matrix on a line, from the array of the line factors of the
        monomials."""
        A = np.zeros(self.shape[0] * self.shape[1], dtype=complex)
        np.add.at(A, self.cells, factors[self.monomial] * self.vals)
        return A.reshape(self.shape)


# Thresholds of the first-cohomology part of a section count, relative to
# the largest alpha image of its classes: an image entry above
# _H1_BAND_TOL in the band between a middle window's ends is an error, and
# the connecting map counts as zero where no entry exceeds _D2_TOL, before
# or after the projection off the image of the middle sections.
_H1_BAND_TOL = 1e-7
_D2_TOL = 1e-9


def _ruling(pm: ParamMonad, kind: str):
    """What a monad's section systems share on every line of one ruling:
    the windows of the left and middle columns, and for alpha and beta the
    float coefficient stack (monomial, row, column) with the t-shift of
    each monomial."""
    windows = _windows(pm, 0, kind), _windows(pm, 1, kind)
    # no line value enters a t-shift: read them off the line at 1
    sub = _substitution(pm.chart, Line(kind, 1))
    maps = {name: (to_float(poly.C).reshape(len(poly.coeffs), *poly.shape),
                   np.array([sub(p, q)[0] for p, q in poly.coeffs], int))
            for name, poly in (("alpha", pm.alpha), ("beta", pm.beta))}
    return windows, maps


def _reach(lay: _Layout, shifts) -> tuple[int, int]:
    """Lowest and highest exponent a map of these t-shifts reaches from a
    layout that holds any."""
    shifts = shifts.tolist() or [0]
    return (int(lay.exp.min()) + min(shifts),
            int(lay.exp.max()) + max(shifts))


class _SectionPlan:
    """The section systems of a monad on the lines of one ruling, twisted
    by O(d), with no line value in them: the layouts of the windows and,
    for every matrix that _LineSystem forms from them, the cells where the
    exponents match.  The connecting-map part is planned on first use."""

    def __init__(self, cols, ruling, d: int):
        blocks1, self.blocks2, self.blocks3 = cols
        (w1, w2), self.maps = ruling
        self.w2 = [(lo, hi + d) for lo, hi in w2]
        w1 = [(lo, hi + d) for lo, hi in w1]
        lay1 = _Layout(blocks1, w1)
        self.lay2 = _Layout(self.blocks2, self.w2)
        self.E = self.Aim = None
        if self.lay2.size:
            self.E = self._place("beta", self.lay2,
                                 self._equation_layout(self.lay2))
            self.Aim = self._place("alpha", lay1, self.lay2)
        # H^1 of the left and middle columns: the windows' complements
        self.lay1_h1 = _Layout(blocks1, [(hi + 1, lo - 1) for lo, hi in w1])
        lay2_h1 = _Layout(self.blocks2,
                          [(hi + 1, lo - 1) for lo, hi in self.w2])
        self.H = self._place("alpha", self.lay1_h1, lay2_h1) \
            if self.lay1_h1.size and lay2_h1.size else None

    def _place(self, which, src: _Layout, dst: _Layout) -> _Placement:
        return _Placement(which, *self.maps[which], src, dst)

    def _equation_layout(self, lay_src: _Layout) -> _Layout:
        """Right-column layout over every exponent beta can reach from a
        middle layout."""
        span = _reach(lay_src, self.maps["beta"][1])
        return _Layout(self.blocks3, [span] * len(self.blocks3))

    @cached_property
    def connecting(self):
        """What _LineSystem._connecting_rank places: alpha from the left H^1
        layout into a middle layout over every exponent it reaches (and down
        to the lowest window floor), the masks of that layout's rows in the
        bands between the middle windows' ends and in the piece regular at
        t=0, and beta from that piece and from the middle sections (None
        without any) into one right layout."""
        lo_all, hi_all = _reach(self.lay1_h1, self.maps["alpha"][1])
        floors = [lo for lo, _ in self.w2]
        lay_full = _Layout(self.blocks2, [(min(floors + [lo_all]), hi_all)]
                           * len(self.blocks2))
        lay_reg = _Layout(self.blocks2, [(lo, hi_all) for lo in floors])
        lay_eq = self._equation_layout(lay_reg)
        # the window ends of each row's block: the band hi < e < lo must
        # vanish, and e >= lo is the regular piece
        lo, hi = np.array(self.w2, dtype=int).reshape(-1, 2)[lay_full.block].T
        e = lay_full.exp
        return (self._place("alpha", self.lay1_h1, lay_full),
                (hi < e) & (e < lo), e >= lo,
                self._place("beta", lay_reg, lay_eq),
                self._place("beta", self.lay2, lay_eq)
                if self.lay2.size else None)


class _LineSystem:
    """The Laurent section systems of one monad on one line, for every twist
    O(d).  Their line-independent part is kept with the monad in
    ParamMonad._plans: the windows, float coefficient stacks and t-shifts
    of each ruling, and the _SectionPlan of each (ruling, d).  A line adds
    the factor of every monomial, then each system costs one scatter-add
    and its SVDs."""

    def __init__(self, pm: ParamMonad, line: Line):
        self.pm = pm
        self.line = line
        self.ruling = pm._plans.get(line.kind)
        if self.ruling is None:
            self.ruling = pm._plans[line.kind] = _ruling(pm, line.kind)
        sub = _substitution(pm.chart, line)
        self.factors = {name: np.array([sub(p, q)[1] for p, q in poly.coeffs],
                                       dtype=complex)
                        for name, poly in (("alpha", pm.alpha),
                                           ("beta", pm.beta))}

    def _matrix(self, placement: _Placement, strict: bool = False):
        """A placed matrix on this line; with ``strict`` a map that leaves
        the declared Laurent windows raises InternalTwistError."""
        if strict and placement.leaves:
            raise InternalTwistError("map leaves the declared Laurent windows")
        return placement.matrix(self.factors[placement.which])

    def sections(self, d: int, ctx: ToleranceContext) -> SectionSpace:
        key = self.line.kind, d
        plan = self.pm._plans.get(key)
        if plan is None:
            plan = self.pm._plans[key] = _SectionPlan(self.pm.cols,
                                                      self.ruling, d)
        h0_dim, system = 0, None
        if plan.lay2.size:
            system = (self._matrix(plan.E),
                      self._matrix(plan.Aim, strict=True), ctx)
            h0_dim = nk.quotient_dimension(*system)

        # H^1 of the left column, with the alpha action on Cech classes
        h1_net = 0
        if plan.lay1_h1.size:
            ker_h1 = np.eye(plan.lay1_h1.size, dtype=complex) \
                if plan.H is None else \
                nk.rank_kernel(self._matrix(plan.H), ctx)
            if ker_h1.shape[1]:
                d2 = self._connecting_rank(plan, ker_h1, ctx)
                h1_net = ker_h1.shape[1] - d2
        return SectionSpace(self.line, h0_dim + h1_net, h1_net, system)

    def _connecting_rank(self, plan: _SectionPlan, ker_h1, ctx):
        """Rank of the connecting differential on H^1(left) classes killed
        in H^1(middle).

        For such a class the alpha image splits into a piece regular at t=0
        (all exponents above the window floor, poles at infinity allowed)
        and a piece regular at infinity; beta of the regular piece is a
        genuine global section of the right column, well defined modulo
        beta of global middle sections.
        """
        full, band, regular, reg, middle = plan.connecting
        images = self._matrix(full) @ ker_h1
        scale = max(1.0, np.max(np.abs(images))) if images.size else 1.0
        if np.max(np.abs(images[band]), initial=0.0) > _H1_BAND_TOL * scale:
            raise InternalTwistError("H^1 kernel class keeps a residual band")
        d2_vals = self._matrix(reg) @ images[regular]
        if not d2_vals.size or np.max(np.abs(d2_vals)) <= _D2_TOL * scale:
            return 0
        if middle is not None:
            cok = nk.rank_kernel(self._matrix(middle).conj().T, ctx)
            proj = cok.conj().T @ d2_vals
        else:
            proj = d2_vals
        if not proj.size or np.max(np.abs(proj)) <= _D2_TOL * scale:
            return 0
        return ctx.rank_cut(np.linalg.svd(proj, compute_uv=False).tolist())[0]


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
    return _LineSystem(pm, line).sections(d, ctx)


def splitting_type(pm: ParamMonad, line: Line,
                   ctx: ToleranceContext = DEFAULT_CTX) -> tuple[int, int]:
    """Splitting type (a, -a) of the rank-2 degree-0 restriction to a line.

    a is the number of sections after twisting down once; the untwisted
    section count must then come out as a+1 (jumping) or 2 (balanced).
    """
    system = _LineSystem(pm, line)
    a = system.sections(-1, ctx).dimension
    h0 = system.sections(0, ctx).dimension
    if a == 0 and h0 != 2:
        raise InconsistentSplitting(f"a=0 but h0={h0} on {line}")
    if a > 0 and h0 != a + 1:
        raise InconsistentSplitting(f"a={a} but h0={h0} on {line}")
    return (a, -a)


# ---------------------------------------------------------------------------
# convenience


def random_chart_points(n: int, rng: np.random.Generator):
    """Generic sample points for fiber sweeps, Gaussian of radius 2; avoids
    tiny |xi| so both charts stay honest."""
    pts = []
    while len(pts) < n:
        x, y = rng.standard_normal(2) * 2.0 + 1j * rng.standard_normal(2) * 2.0
        if abs(x) < 0.05 or abs(y) < 0.05:
            continue
        pts.append((complex(x), complex(y)))
    return pts
