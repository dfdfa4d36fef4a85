"""Scalar backends and tolerance-aware linear algebra.

Two matrix backends are used throughout the package:

* float: ``numpy`` arrays of ``complex128``.  Every rank or kernel decision
  is made against a :class:`ToleranceContext` and must be backed by a
  finite singular-value margin, at full rank too; ambiguous cuts raise
  :class:`GapTooSmall` instead of silently picking a rank.
* exact: :class:`ExactMatrix`, a matrix over Q(i) in split form: Python-int
  numerator arrays ``re`` and ``im`` over one positive denominator,
  reduced once when made, with ``im`` None exactly when every imaginary
  part is zero (real data, which cost no imaginary products).  Rank
  decisions are made by exact elimination and need no gap.  The arithmetic
  is fraction-free: products, sums, scalar factors and stacking work in
  Z[i] on the numerators, with one gcd reduction per result rather than a
  Fraction gcd per multiply-add, and so do the elimination (``rref``), the
  Faddeev-LeVerrier steps of ``charpoly`` (one growing integer
  denominator, one Fraction per coefficient) and the composite of two exact
  matrix polynomials (``monadcore``: the products of one output monomial
  summed in Z[i], and ``beta o alpha = 0`` decided on the integer sums).
  Every product of numerator arrays goes through ``_zi_dot``.
  :class:`GaussianRational` (a pair of ``Fraction``s) is the exact scalar:
  points, charpoly coefficients and single entries read out.

The structured solvers at the bottom (common eigenvector search, quotient
representatives) are what the non-degeneracy conditions of the matrix data
reduce to.  Both take maps: ``rank_kernel(M)`` is the kernel of M, and
``quotient_representatives(E, I)`` a basis of ker(E) / im(I) on either
backend.  The float quotient is a decision (containment, then the rank of
the image, which fixes the dimension) and a construction (the
representatives).  A caller that needs only the dimension takes
``quotient_dimension``: singular values of E and I, and a kernel basis only
where a bound on the containment residual is not small enough.  The exact
quotient works in the coordinates of the kernel basis K read off the one
RREF of E: K is the identity on the free columns of that RREF, so the image
I has coordinates I[free], is contained iff K @ I[free] == I, and its
representatives are read off one elimination of the small coordinate matrix
(12 x 14 for a k = 3, m = 0 Taub-NUT fiber) rather than of [I | K].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np


class BowmonadError(Exception):
    """Base of every exception the library raises on purpose."""


class InvalidArgument(BowmonadError):
    """A size or step outside its domain, refused before any work."""


class GapTooSmall(BowmonadError):
    """A float-backend rank decision had no decisive singular-value margin."""


class ImageNotContained(BowmonadError):
    """Quotient requested for spaces that are not nested to tolerance."""


# ---------------------------------------------------------------------------
# scalars


class GaussianRational:
    """Element of Q(i), stored as a pair of Fractions: the exact scalar.

    Arithmetic is closed and exact; division by zero raises
    ``ZeroDivisionError`` as usual.  A real factor or divisor costs two
    Fraction operations.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction of a numpy integer keeps it as its numerator, which
        # overflows in later products
        self.re = Fraction(int(re) if isinstance(re, np.integer) else re)
        self.im = Fraction(int(im) if isinstance(im, np.integer) else im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _gq(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _gq(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.im:
            return _gq(self.re * other.re, self.im * other.re)
        return _gq(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero GaussianRational")
        if not other.im:
            return _gq(self.re / other.re, self.im / other.re)
        d = other.re * other.re + other.im * other.im
        return _gq((self.re * other.re + self.im * other.im) / d,
                   (self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return _gq(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GQ_ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GQ({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, np.integer)):
        return GaussianRational(x, 0)
    return NotImplemented


GQ = GaussianRational

GQ_ONE = GQ(1)


def rationalize(z: complex):
    """Nearest GaussianRational (denominators <= 10^6) within 1e-9, or None."""
    re = Fraction(float(np.real(z))).limit_denominator(10**6)
    im = Fraction(float(np.imag(z))).limit_denominator(10**6)
    if abs(float(re) - np.real(z)) <= 1e-9 and abs(float(im) - np.imag(z)) <= 1e-9:
        return GQ(re, im)
    return None


# ---------------------------------------------------------------------------
# matrices: float numpy arrays, or ExactMatrix


def _lin(a, s: int, b, t: int):
    """s a + t b of two numerator arrays, None standing for zero."""
    if a is None:
        return None if b is None else t * b
    return s * a if b is None else s * a + t * b


class ExactMatrix:
    """A matrix over Q(i) in split form: (re + i im) / den, with re and im
    numpy object arrays of Python ints and den a positive int.

    Each one is reduced when made, so equal matrices have equal parts:
    gcd(den, every numerator) = 1, and im is None exactly when every
    imaginary part is zero (real data).  The parts are never written to
    after that.  Arithmetic works on the numerators, with one gcd reduction
    per result; reading one entry gives a GaussianRational.
    """

    __slots__ = ("re", "im", "den")
    # numpy defers its binary operators to this class, which refuses floats
    __array_ufunc__ = None

    def __init__(self, re: np.ndarray, im=None, den: int = 1):
        if im is not None and not any(im.ravel().tolist()):
            im = None
        if den != 1:
            g = math.gcd(den, *re.ravel().tolist(),
                         *(() if im is None else im.ravel().tolist()))
            if g != 1:
                re, den = re // g, den // g
                im = None if im is None else im // g
        self.re, self.im, self.den = re, im, den

    def _map(self, f, drops=False) -> "ExactMatrix":
        """f on both numerator arrays, reduced again if f drops entries."""
        re, im = f(self.re), None if self.im is None else f(self.im)
        if drops:
            return ExactMatrix(re, im, self.den)
        out = object.__new__(ExactMatrix)
        out.re, out.im, out.den = re, im, self.den
        return out

    @property
    def shape(self) -> tuple:
        return self.re.shape

    @property
    def T(self) -> "ExactMatrix":
        return self._map(np.transpose)

    def conj(self) -> "ExactMatrix":
        return self if self.im is None else ExactMatrix(self.re, -self.im,
                                                        self.den)

    def reshape(self, *shape) -> "ExactMatrix":
        return self._map(lambda X: X.reshape(*shape))

    def __getitem__(self, key):
        re = self.re[key]
        if isinstance(re, np.ndarray):
            return self._map(lambda X: X[key], drops=True)
        return _gq(Fraction(re, self.den),
                   Fraction(0 if self.im is None else self.im[key], self.den))

    def __neg__(self) -> "ExactMatrix":
        return self._map(np.negative)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} and {other.shape}")
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return ExactMatrix(_lin(self.re, s, other.re, t),
                           _lin(self.im, s, other.im, t), den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, c):
        """The matrix times an int, a Fraction or a GaussianRational."""
        c = _coerce(c)
        if c is NotImplemented:
            return NotImplemented
        (a, p), (b, q) = c.re.as_integer_ratio(), c.im.as_integer_ratio()
        d = math.lcm(p, q)
        a, b = a * (d // p), b * (d // q)
        return ExactMatrix(_lin(self.re, a, self.im, -b),
                           _lin(self.im, a, self.re, b), self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (GQ_ONE / c)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        re, im = _zi_dot(self.re, self.im, other.re, other.im)
        return ExactMatrix(re, im, self.den * other.den)

    def __eq__(self, other):
        # both are reduced, so equal values have equal parts
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and (self.im is None) == (other.im is None)
                and self.re.tolist() == other.re.tolist()
                and (self.im is None or self.im.tolist() == other.im.tolist()))

    def __bool__(self):
        raise TypeError("an exact matrix has no truth value; use is_zero_matrix")

    def __repr__(self):
        im = None if self.im is None else self.im.tolist()
        return (f"ExactMatrix(shape={self.shape}, re={self.re.tolist()}, "
                f"im={im}, den={self.den})")


def is_exact(M) -> bool:
    return isinstance(M, ExactMatrix)


def exact_from_ratios(pairs, shape) -> ExactMatrix:
    """The exact matrix of the given shape with row-major entries n/d + i n'/d'
    for the pairs ((n, d), (n', d')) of Python ints, d and d' nonzero."""
    ratios = [r for pair in pairs for r in pair]
    den = math.lcm(*(d for _, d in ratios))
    nums = np.array([n * (den // d) for n, d in ratios], dtype=object)
    return ExactMatrix(nums[0::2].reshape(shape), nums[1::2].reshape(shape),
                       den)


def exact_matrix(rows) -> ExactMatrix:
    """The exact matrix of nested int/Fraction/GQ data (numpy integers
    included)."""
    rows = np.asarray(rows, dtype=object)
    entries = [e if isinstance(e, GQ) else GQ(e) for e in rows.ravel().tolist()]
    return exact_from_ratios([(e.re.as_integer_ratio(), e.im.as_integer_ratio())
                              for e in entries], rows.shape)


def exact_zeros(m: int, n: int) -> ExactMatrix:
    return ExactMatrix(np.zeros((m, n), dtype=object))


def exact_eye(n: int) -> ExactMatrix:
    return ExactMatrix(np.eye(n, dtype=object))


def int_matrix(ints, exact: bool):
    """An integer array as a matrix of either backend."""
    return ExactMatrix(np.asarray(ints).astype(object)) if exact else \
        np.asarray(ints, dtype=complex)


def to_float(M) -> np.ndarray:
    if not is_exact(M):
        return np.asarray(M, dtype=complex)
    # int / int is correctly rounded, as float(Fraction) is
    out = np.zeros(M.shape, dtype=complex)
    out.real = M.re / M.den
    if M.im is not None:
        out.imag = M.im / M.den
    return out


def zeros_like_backend(m: int, n: int, exact: bool):
    return exact_zeros(m, n) if exact else np.zeros((m, n), dtype=complex)


def eye_like_backend(n: int, exact: bool):
    return exact_eye(n) if exact else np.eye(n, dtype=complex)


def _concat(rows) -> np.ndarray:
    """np.block of a two-level grid of arrays, always a new array."""
    return np.concatenate([row[0] if len(row) == 1 else
                           np.concatenate(row, axis=1) for row in rows])


def block(rows):
    """np.block of a grid of matrices of one backend: the exact parts are
    put over their least common denominator."""
    if not is_exact(rows[0][0]):
        return _concat(rows)
    parts = [M for row in rows for M in row]
    den = math.lcm(*(M.den for M in parts))
    re = _concat([[M.re * (den // M.den) for M in row] for row in rows])
    if all(M.im is None for M in parts):
        return ExactMatrix(re, None, den)
    im = _concat([[np.zeros(M.shape, dtype=object) if M.im is None
                   else M.im * (den // M.den) for M in row] for row in rows])
    return ExactMatrix(re, im, den)


def mat_mul(A, B):
    """A @ B on either backend (np.dot on floats)."""
    return A @ B if is_exact(A) else np.dot(A, B)


def _zi_dot(ar, ai, br, bi):
    """(re, im) of the Gaussian-integer product (ar + i ai)(br + i bi) of
    numerator arrays, object arrays of Python ints.  An imaginary part of
    None is zero and costs no product; so is the im returned when both are
    None."""
    re = np.dot(ar, br)
    im = None
    if ai is not None:
        im = np.dot(ai, br)
        if bi is not None:
            re = re - np.dot(ai, bi)
    if bi is not None:
        im = np.dot(ar, bi) if im is None else im + np.dot(ar, bi)
    return re, im


def _gq(re: Fraction, im: Fraction) -> GaussianRational:
    """GaussianRational of two Fractions, without coercing them again."""
    out = object.__new__(GaussianRational)
    out.re, out.im = re, im
    return out


def mat_norm(M) -> float:
    return float(np.linalg.norm(to_float(M)))


def is_zero_matrix(M, tol: float = 0.0) -> bool:
    if is_exact(M):
        return M.im is None and not any(M.re.ravel().tolist())
    return not M.size or bool(np.max(np.abs(M)) <= tol)


# ---------------------------------------------------------------------------
# tolerance context


@dataclass(frozen=True)
class ToleranceContext:
    """Rank decisions keep singular values above ``rank_tol`` (relative) and
    require a margin of at least ``gap_factor`` at the cut.  A ``rank_tol``
    outside (0, 1) raises InvalidArgument."""

    rank_tol: float = 1e-10
    gap_factor: float = 1e3

    def __post_init__(self):
        if not 0.0 < self.rank_tol < 1.0:
            raise InvalidArgument(f"rank_tol must be finite and in (0, 1), "
                                  f"got {self.rank_tol!r}")

    def rank_cut(self, sigma, floor: float = 0.0) -> tuple[int, float]:
        """Rank of a matrix from its singular values in descending order:
        how many exceed max(rank_tol * sigma_max, floor), with the margin of
        that cut (see require_gap).  A list is the fastest ``sigma``."""
        thr = self.rank_tol * sigma[0] if len(sigma) else 0.0
        if floor > thr:
            thr = floor
        rank = sum(v > thr for v in sigma)
        return rank, self.require_gap(sigma, rank, floor)

    def require_gap(self, sigma, rank: int, floor: float = 0.0) -> float:
        """Margin of a rank cut, from singular values in descending order;
        raises GapTooSmall below ``gap_factor``.

        Below full rank the margin is the gap sigma[rank-1] / sigma[rank];
        at full rank it is sigma_min / max(rank_tol * sigma_max, floor), by
        how far the smallest kept value clears the rank threshold; at rank 0
        under an absolute floor it is floor / sigma_max.  It is inf only
        where everything cut off is exactly zero, a zero matrix included.
        """
        if rank == 0:
            if not len(sigma) or sigma[0] == 0.0:
                return np.inf
            kept, cut = floor, sigma[0]
        else:
            kept = sigma[rank - 1]
            if rank < len(sigma):
                cut = sigma[rank]
            else:
                cut = self.rank_tol * sigma[0]
                if floor > cut:
                    cut = floor
            if cut == 0.0:
                return np.inf
        margin = kept / cut
        if not margin >= self.gap_factor:
            raise GapTooSmall(
                f"rank {rank}: {kept:.3e} against {cut:.3e} gives margin "
                f"{margin:.1f} < {self.gap_factor}")
        return float(margin)


DEFAULT_CTX = ToleranceContext()


# ---------------------------------------------------------------------------
# rank / kernel


def rank_kernel(M: np.ndarray, ctx: ToleranceContext = DEFAULT_CTX,
                floor: float = 0.0) -> np.ndarray:
    """Kernel basis of M, one column per dimension of its right kernel; the
    left kernel is rank_kernel(M.conj().T).

    Float backend: the orthonormal right singular vectors past the rank of
    the SVD cut by ctx.rank_cut (with an optional absolute floor), which
    raises GapTooSmall where that cut has no margin; the identity for an
    empty or zero M.  Exact backend: ``exact_kernel(M)``, gap-free.
    """
    if is_exact(M):
        return exact_kernel(M)
    M = np.asarray(M, dtype=complex)
    n = M.shape[1]
    if not M.size:
        return np.eye(n, dtype=complex)
    _, s, Vh = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(n, dtype=complex)
    return Vh[ctx.rank_cut(s.tolist(), floor)[0]:].conj().T


# ---------------------------------------------------------------------------
# exact elimination: every exact rank, kernel, solve, quotient and inverse
# is read off one reduced row echelon form


def _eliminate(M: ExactMatrix):
    """Fraction-free Gauss-Jordan elimination of an exact matrix over Z[i].

    It runs on copies of M's numerators (a scalar multiple has the same
    RREF).  At each pivot p every other row becomes
    (p row - row[c] pivot_row) / previous pivot; the division is exact
    because every entry stays a minor of the scaled matrix (Bareiss,
    Math. Comp. 22, 1968), and every pivot row ends with the last pivot d at
    its pivot.  Returns (re, im, (dr, di), pivots) with the RREF equal to
    (re + i im) / (dr + i di); for real data im is None and di is 0.
    """
    re = M.re.copy()
    im = None if M.im is None else M.im.copy()
    m, n = re.shape
    dr, di = 1, 0
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m)
                  if re[i, c] or (im is not None and im[i, c])), None)
        if p is None:
            continue
        if p != r:
            re[[r, p]] = re[[p, r]]
            if im is not None:
                im[[r, p]] = im[[p, r]]
        pr, row_r, col_r = re[r, c], re[r], re[:, c, None]
        if im is None:
            re = (pr * re - col_r * row_r) // dr
            re[r] = row_r
        else:
            pi, row_i, col_i = im[r, c], im[r], im[:, c, None]
            xr = pr * re - pi * im - (col_r * row_r - col_i * row_i)
            xi = pr * im + pi * re - (col_r * row_i + col_i * row_r)
            norm = dr * dr + di * di
            re, im = (xr * dr + xi * di) // norm, (xi * dr - xr * di) // norm
            re[r], im[r] = row_r, row_i
            di = pi
        dr = pr
        pivots.append(c)
    return re, im, (dr, di), pivots


def exact_rank(M: ExactMatrix) -> int:
    """Rank of an exact matrix: the pivot count of one elimination."""
    return len(_eliminate(M)[3])


def rref(M: ExactMatrix):
    """Reduced row echelon form of an exact matrix; returns (R, pivot
    columns).

    Real data (every imaginary part zero) are eliminated over Z alone.  The
    RREF of a matrix is unique, so nothing read off it depends on the
    choice of pivot rows.
    """
    re, im, (dr, di), pivots = _eliminate(M)
    return ExactMatrix(re, im) / GQ(dr, di), pivots


def _rows_of(R: ExactMatrix, rows, cols, shape):
    """Numerator arrays (re, im) of the given shape, zero but for the rows
    ``rows``, which hold the leading len(rows) rows of R's numerators read
    at the columns ``cols``; im is None for real R."""
    def part(X):
        out = np.zeros(shape, dtype=object)
        out[rows] = X[:len(rows)][:, cols]
        return out
    return part(R.re), None if R.im is None else part(R.im)


def exact_kernel(M: ExactMatrix) -> ExactMatrix:
    """Kernel basis of an exact matrix, one column per free column of its
    RREF: that entry 1 and the other free entries 0, so the basis is the
    identity on the rows of the free columns."""
    return _kernel_and_free(M)[0]


def _kernel_and_free(M: ExactMatrix):
    """exact_kernel(M) and the free columns of M's RREF, from one RREF."""
    R, pivots = rref(M)
    n = M.shape[1]
    free = [c for c in range(n) if c not in pivots]
    re, im = _rows_of(R, pivots, free, (n, len(free)))
    re[free, np.arange(len(free))] = -R.den
    return -ExactMatrix(re, im, R.den), free


def exact_solve(A: ExactMatrix, b: ExactMatrix):
    """The exact solution of A x = b with every free variable 0, or None if
    the system is inconsistent (a pivot of [A | b] lands in the b block)."""
    n = A.shape[1]
    R, pivots = rref(block([[A, b]]))
    if pivots and pivots[-1] >= n:
        return None
    return ExactMatrix(*_rows_of(R, pivots, slice(n, None), (n, b.shape[1])),
                       R.den)


def exact_inverse(M: ExactMatrix):
    """Inverse of a square exact matrix, or None if it is singular."""
    return exact_solve(M, exact_eye(M.shape[0]))


# ---------------------------------------------------------------------------
# characteristic polynomials


def charpoly(M: np.ndarray):
    """Coefficients of det(eta I - M), highest degree first, by
    Faddeev-LeVerrier on both backends: with M_1 = M, c_k = -tr(M_k) / k
    and M_{k+1} = M (M_k + c_k I).

    An exact (n, n) matrix M = N / e gives a list of n + 1
    GaussianRationals, and the steps stay in Z[i]: M_k = X_k / e_k with
    X_1 = N, e_1 = e, X_{k+1} = N (k X_k - tr(X_k) I) and e_{k+1} = k e e_k,
    so c_k = -tr(X_k) / (k e_k) is the one division of each coefficient.
    A float stack (..., n, n) gives an (..., n + 1) array from n - 1
    batched products for the whole stack (M_1 = M is a copy, not a
    product)."""
    if is_exact(M):
        nr, ni, e = M.re, M.im, M.den
        n = M.shape[0]
        coeffs = [GQ_ONE]
        xr, xi, den = nr, ni, e
        for k in range(1, n + 1):
            tr = sum(xr.diagonal().tolist())
            ti = 0 if xi is None else sum(xi.diagonal().tolist())
            coeffs.append(_gq(Fraction(-tr, k * den), Fraction(-ti, k * den)))
            if k < n:
                xr = k * xr
                xr.flat[::n + 1] -= tr
                if xi is not None:
                    xi = k * xi
                    xi.flat[::n + 1] -= ti
                xr, xi = _zi_dot(nr, ni, xr, xi)
                den *= k * e
        return coeffs
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1]
    d = np.arange(n)
    coeffs = [np.ones(M.shape[:-2], dtype=complex)]
    Mk = M.copy()
    for k in range(1, n + 1):
        c = Mk[..., d, d].sum(axis=-1) / -k
        coeffs.append(c)
        if k < n:
            Mk[..., d, d] += c[..., None]
            Mk = M @ Mk
    return np.stack(coeffs, axis=-1)


# ---------------------------------------------------------------------------
# validation report plumbing


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float = 0.0
    certificate: Any = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.passed else "fail",
               "residual": self.residual}
        if self.certificate is not None:
            out["certificate"] = _jsonable(self.certificate)
        if self.note:
            out["note"] = self.note
        return out


def _jsonable(x):
    """A certificate (tuples of complex values, arrays and bools) as JSON
    values: each complex as [re, im], each array as nested lists."""
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return _jsonable(to_float(x).tolist())
    return x


@dataclass
class ValidationReport:
    """The rows of a validation.  ``built`` is (data, object) for an object
    the validation built from that data object, which a builder given the
    report with that very data may take, once, instead of building it
    again; the object is that of the data as validated, so data must not
    be edited in place between validation and build.  to_json, render and
    equality ignore it."""

    checks: list[CheckResult] = field(default_factory=list)
    built: tuple | None = field(default=None, repr=False, compare=False)

    def add(self, name, passed, residual=0.0, certificate=None, note=""):
        self.checks.append(CheckResult(name, bool(passed), float(residual),
                                       certificate, note))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"status": "pass" if self.passed else "fail",
                "checks": [c.to_json() for c in self.checks]}

    def render(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"{tag:4s}  {c.name:32s} residual={c.residual:.3e}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# common eigenvector obstruction


@dataclass
class Obstruction:
    xi: complex
    eta: complex
    vector: np.ndarray
    residual: float
    exact_checked: bool = False


def _cluster(values: np.ndarray, tol: float) -> list[complex]:
    """One representative per cluster (radius tol) of values, ordered by
    real part, and by imaginary part among those whose real parts agree
    within tol: a conjugate pair keeps its order under rounding."""
    out: list[complex] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - w) <= tol for w in out):
            out.append(complex(v))
    keys, start = [], -np.inf
    for z in out:
        if z.real - start > tol:
            start = z.real
        keys.append((start, z.imag))
    return [z for _, z in sorted(zip(keys, out), key=lambda kz: kz[0])]


def common_eigenvector_obstruction(
        A, B, D, ctx: ToleranceContext = DEFAULT_CTX) -> list[Obstruction]:
    """All (xi, eta, v) with v != 0, Av = xi v, Bv = eta v, Dv = 0.

    An empty list certifies that the stacked pencil (A - xi; B - eta; D) is
    injective for every (xi, eta).  The search is spectral and deterministic:
    xi must be an eigenvalue of A, and within W = ker(A - xi) ∩ ker D the
    remaining condition B v = eta v is linear once eta is pinned to an
    eigenvalue of the compression of B to W.
    """
    Af, Bf, Df = to_float(A), to_float(B), to_float(D)
    k = Af.shape[0]
    if k == 0:
        return []
    scale = max(np.linalg.norm(Af), np.linalg.norm(Bf), np.linalg.norm(Df), 1.0)
    vtol = max(ctx.rank_tol * scale * 100, 1e-8 * scale)
    eigs = np.linalg.eigvals(Af)
    found: list[Obstruction] = []
    xi_tol = 1e-8 * max(1.0, np.max(np.abs(eigs)))
    # both rank decisions are floored at the scale of the pencil: a stacked
    # matrix that is zero up to rounding (B fixing a vector of W) has rank
    # 0, which a threshold relative to its own sigma_max cannot see
    floor = ctx.rank_tol * scale
    for xi, W in _eigen_kernels(Af, eigs, Df, xi_tol, ctx, floor):
        if W.shape[1] == 0:
            continue
        S = W.conj().T @ Bf @ W
        G = (np.eye(k) - W @ W.conj().T) @ Bf @ W
        for eta, C in _eigen_kernels(S, np.linalg.eigvals(S), G,
                                     1e-8 * max(1.0, np.linalg.norm(S)), ctx,
                                     floor):
            for j in range(C.shape[1]):
                v = W @ C[:, j]
                v = v / np.linalg.norm(v)
                res = max(np.linalg.norm(Af @ v - xi * v),
                          np.linalg.norm(Bf @ v - eta * v),
                          np.linalg.norm(Df @ v) if Df.size else 0.0)
                if res <= vtol:
                    ob = Obstruction(complex(xi), complex(eta), v, float(res))
                    if is_exact(A):
                        ob.exact_checked = _exact_certificate(A, B, D, xi, eta)
                    found.append(ob)
    return found


def _eigen_kernels(M, eigs, below, tol: float, ctx: ToleranceContext,
                   floor: float = 0.0):
    """(lam, kernel of [M - lam I; below]) for each cluster lam (radius tol)
    of the eigenvalues eigs of M, with rank decisions under the absolute
    floor (singular values at or below it count as zero).

    A multiple eigenvalue with a Jordan block of size p is computed only to
    about eps^(1/p), which can leave the rank of the stacked matrix
    undecided (GapTooSmall).  The mean of the eigenvalues within 1e3 tol of
    it is accurate to about eps, so the decision is retaken there, once per
    such mean; a decision still undecided raises.
    """
    def kernel(lam):
        return rank_kernel(np.vstack([M - lam * np.eye(len(M)), below]),
                           ctx, floor)

    done: list[complex] = []
    for lam in _cluster(eigs, tol):
        try:
            K = kernel(lam)
        except GapTooSmall:
            K = None
            lam = complex(np.mean(eigs[np.abs(eigs - lam) <= 1e3 * tol]))
        if any(abs(lam - d) <= tol for d in done):
            continue
        done.append(lam)
        yield lam, kernel(lam) if K is None else K


def _exact_certificate(A, B, D, xi, eta) -> bool:
    """Re-verify a float certificate exactly when xi, eta rationalize."""
    xq, eq = rationalize(xi), rationalize(eta)
    if xq is None or eq is None:
        return False
    k = A.shape[0]
    eye = exact_eye(k)
    stacked = block([[A - xq * eye], [B - eq * eye], [D]])
    return exact_rank(stacked) < k


# ---------------------------------------------------------------------------
# quotient representatives


def quotient_representatives(E, I, ctx: ToleranceContext = DEFAULT_CTX):
    """Basis of a complement of span(I) inside ker(E), for an image I that
    E kills.  Raises :class:`ImageNotContained` when the inclusion fails
    (beyond tolerance on floats), which upstream signals a broken composite
    (beta o alpha != 0).

    Float backend: three SVDs.  The kernel K = rank_kernel(E), with
    orthonormal columns.  The decision (``_quotient_decision``): the
    containment residual, then the SVD of I, cut by ``ctx.rank_cut``, whose
    leading left singular vectors Q_I span it; the quotient has
    K.shape[1] - rank(I) dimensions.  The construction (``_quotient_basis``):
    the SVD of K - Q_I Q_I^H K, whose leading left singular vectors are the
    representatives.  A caller that needs only the dimension takes
    ``quotient_dimension``.

    Exact backend: two eliminations.  The one RREF of E gives the kernel
    basis K of ``exact_kernel``, the identity on the rows of the free
    columns, so the coordinates of the image are I at those rows, C, and the
    inclusion is the exact identity K C == I.  Column j of K is a
    representative iff row j of C lies in the span of the rows below it,
    read off one elimination of C[::-1].T (I.shape[1] x K.shape[1]): the
    same columns as the pivots in the K block of [I | K].
    """
    if is_exact(E) or is_exact(I):
        return _exact_quotient(E, I)
    return _quotient_basis(*_quotient_decision(rank_kernel(E, ctx), I, ctx))


def _quotient_decision(K: np.ndarray, I: np.ndarray, ctx: ToleranceContext):
    """The float quotient's decision: (K, Q_I, count), with Q_I the
    orthonormal basis of the image (None without image columns) and count
    the number of representatives, all that _quotient_basis needs."""
    K = np.asarray(K, dtype=complex)
    I = np.asarray(I, dtype=complex)
    if K.shape[1] == 0:
        if I.shape[1] != 0 and np.linalg.norm(I) > ctx.rank_tol:
            raise ImageNotContained("nonzero image with zero kernel")
        return K, None, 0
    if not I.shape[1]:
        return K, None, K.shape[1]
    resid = np.linalg.norm(I - K @ (K.conj().T @ I))
    if resid > _containment_tol(np.linalg.norm(I), ctx):
        raise ImageNotContained(f"containment residual {resid:.3e}")
    U, s, _ = np.linalg.svd(I, full_matrices=False)
    rk_i = ctx.rank_cut(s.tolist())[0]
    return K, U[:, :rk_i], max(K.shape[1] - rk_i, 0)


def _containment_tol(norm_i: float, ctx: ToleranceContext) -> float:
    """The largest containment residual an image of norm norm_i may have."""
    return max(ctx.rank_tol * 1e3, 1e-8) * max(norm_i, 1.0)


def quotient_dimension(E: np.ndarray, I: np.ndarray,
                       ctx: ToleranceContext = DEFAULT_CTX) -> int:
    """dim ker(E) - rank(I) for a float image I that E kills: the count of
    ``_quotient_decision(rank_kernel(E, ctx), I, ctx)``, read off
    values-only SVDs of E and I cut by ``ctx.rank_cut``.

    The containment of I in the kernel K of rank r cut of E is certified by
    ||E I||_F / sigma_r(E), which bounds the residual ||I - K K^H I||_F
    from above: with E = sum sigma_i u_i v_i^H and I - K K^H I the part of
    I in the span of v_1..v_r, ||E I||_F >= sigma_r ||I - K K^H I||_F.  The
    computed product is off from E I by at most sqrt(2) gamma_{n+2}
    ||E||_F ||I||_F (n the columns of E, gamma_k = k u / (1 - k u) for the
    unit roundoff u; complex products, Higham 2002, section 3.6), which the
    bound adds.  Where the bound does not clear the residual threshold of
    ``_quotient_decision``, that decision is taken on the kernel basis, and
    its residual gives the verdict and the count.  r = 0 keeps every vector
    (K is the identity, residual 0), r = n keeps none (a nonzero image is
    not contained), and an image with no columns needs no containment."""
    n = E.shape[1]
    s = np.linalg.svd(E, compute_uv=False).tolist() if E.size else []
    free = n - ctx.rank_cut(s)[0]
    if not free:
        if I.shape[1] and np.linalg.norm(I) > ctx.rank_tol:
            raise ImageNotContained("nonzero image with zero kernel")
        return 0
    if not I.shape[1]:
        return free
    s_i = np.linalg.svd(I, compute_uv=False).tolist()
    if free < n:
        # Frobenius norms from the singular values
        norm_i = math.sqrt(math.fsum(v * v for v in s_i))
        norm_e = math.sqrt(math.fsum(v * v for v in s))
        ku = (n + 2) * math.ulp(1.0) / 2     # n + 2 unit roundoffs
        room = math.sqrt(2) * ku / (1 - ku) * norm_e * norm_i
        if (np.linalg.norm(E @ I) + room) / s[n - free - 1] > \
                _containment_tol(norm_i, ctx):
            return _quotient_decision(rank_kernel(E, ctx), I, ctx)[2]
    return max(free - ctx.rank_cut(s_i)[0], 0)


def _quotient_basis(K: np.ndarray, Q, count: int) -> np.ndarray:
    """The float quotient's construction from its decision: the leading
    count left singular vectors of K - Q Q^H K (of K without image)."""
    if not count:
        return K[:, :0]
    C = K if Q is None else K - Q @ (Q.conj().T @ K)
    return np.linalg.svd(C, full_matrices=False)[0][:, :count]


def _exact_quotient(E: ExactMatrix, I: ExactMatrix) -> ExactMatrix:
    # C holds the coordinates of the image in the basis K; column j of K is
    # a representative iff column f - 1 - j of C[::-1].T is not a pivot
    K, free = _kernel_and_free(E)
    f = len(free)
    C = I[free]
    if not K @ C == I:
        raise ImageNotContained("image not contained in kernel (exact)")
    pivots = _eliminate(C[::-1].T)[3]
    return K[:, [j for j in range(f) if f - 1 - j not in pivots]]
