"""Discretized bow Dirac operator at a fixed Taub-NUT point.

The operator acts on two-component spinors over the bow interval (rank k on
the outer segments, k+m in the middle) together with the auxiliary spaces:
one scalar per lambda point when m = 0, and the two k-dimensional edge
spaces.  The derivative is a two-point link scheme with midpoint
coefficients; every delta insertion (fundamental data at the lambda points,
edge couplings at the interval ends) becomes a single junction row of
weight 1/h, which is the sole discretization convention and is validated by
the grid-refinement study.

Row layout: every equation site (link or junction) contributes the two
spinor components as adjacent blocks, so the quaternionic structure on the
output space is the block matrix J(a, b) = (-conj b, conj a).

The link rows of a segment are block-bidiagonal (link j couples nodes j and
j+1 only), and the 8k junction rows touch only the segment end nodes and
the auxiliaries.  A DiracLattice keeps the (L, R) link stacks per segment
and the junction rows, and every solver works on them in O(grid): the
kernel by transfer matrices, and every spectral bound (the smallest
eigenvalue of M M^H, the top of the reality residual's Gram matrix) on one
bordered block chain, factored by odd-even block LDL^H down to a dense tail
of at most TAIL_BLOCKS blocks and the border.  Both ends of the spectrum
come from one eigen-solver, shift-and-invert Lanczos through that
factorization (_lanczos), stopped at the rounding bound eps_r that the
certificate of each bound absorbs.  The dense N x (N+2) operator is built
only when DiracLattice.matrix is read, so refinement runs to grid 4096.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numkit as nk
from .nahmbow import BuildRefused, NahmSolution
from .numkit import DEFAULT_CTX, ToleranceContext

# Step cap of the shift-and-invert Lanczos iteration (_lanczos).
LANCZOS_MAX_STEPS = 60
# Chain blocks at which the odd-even reduction of _BlockLDL stops: the rest
# is factored as one dense matrix.
TAIL_BLOCKS = 12
# Junction sites after the link rows: the two lambda points and the two
# interval ends, each two blocks of k rows.
JUNCTION_SITES = 4


class SingularPoint(nk.BowmonadError):
    pass


class PoleOrderUnsupported(nk.BowmonadError):
    pass


class SingularLink(nk.BowmonadError):
    """A link row pair cannot be solved for its right-hand node."""


class CertificateFailed(nk.BowmonadError):
    """A computed eigenvalue bound was not proved by its factorization."""


class NumericalBreakdown(nk.BowmonadError):
    """A spectral computation left the finite float64 range or did not
    converge."""


@dataclass
class TaubNutPoint:
    xi: complex
    psi: complex

    @property
    def t12(self) -> complex:
        return self.xi * self.psi

    @property
    def t3(self) -> float:
        return (abs(self.psi) ** 2 - abs(self.xi) ** 2) / 2.0

    @property
    def b_ht(self) -> complex:
        return self.xi

    @property
    def b_th(self) -> complex:
        return self.psi


@dataclass
class DiracLattice:
    h: float
    n_psi: int          # spinor unknowns
    n_aux: int          # W and edge unknowns
    # (first link row, first node column, node count, node width) per segment
    segments: list
    # (L, R) per segment: link j is L[j] psi_j + R[j] psi_{j+1}
    links: list
    # the 8k junction rows against every unknown; junction site i holds rows
    # 2k i and 2k i + k (its two spinor components)
    junction: np.ndarray
    _transfer: object = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return self.n_link_rows + len(self.junction), self.junction.shape[1]

    @property
    def n_link_rows(self) -> int:
        """Rows before the junction sites."""
        r0, _, n, w = self.segments[-1]
        return r0 + (n - 1) * w

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense operator, built on first read: the link stacks placed
        segment by segment, then the junction rows.  No solver reads it."""
        mat = np.zeros(self.shape, dtype=complex)
        for (r0, c0, n, w), (L, R) in zip(self.segments, self.links):
            j = np.arange(n - 1)[:, None] * w
            rows = r0 + (j + np.arange(w))[:, :, None]
            mat[rows, c0 + (j + np.arange(2 * w))[:, None, :]] = \
                np.concatenate([L, R], 2)
        mat[self.n_link_rows:] = self.junction
        return mat


def _segment_nodes(sol: NahmSolution, grid: int):
    """Node positions per segment, endpoints included, density set by the
    total grid budget.  A segment shorter than two steps h raises
    InvalidArgument: it would get fewer than two links (the junction rows
    need distinct first and last links) or links longer than h."""
    rep = sol.rep
    out = []
    for seg, (s0, s1) in zip((sol.head, sol.middle, sol.tail), rep.intervals):
        steps = grid * (s1 - s0) / rep.ell
        if not steps > 2 - 1e-9:          # 2 up to rounding in the division
            raise nk.InvalidArgument(
                f"grid {grid} gives the segment [{s0}, {s1}] {steps:g} steps "
                f"of h; it needs at least 2")
        out.append((seg, np.linspace(s0, s1, int(round(steps)) + 1)))
    return out


def _link_blocks(seg, grid_s, pt: TaubNutPoint):
    """(L, R) stacks of one segment's link rows, with midpoint coefficients
    and the two-point derivative: row 1 is psi1' - M psi1 + Z^dag psi2,
    row 2 is Z psi1 + psi2' + M psi2."""
    r = seg.rank
    eye = np.eye(r)
    hl = (grid_s[1:] - grid_s[:-1])[:, None, None]
    t1, t2, t3 = seg.sample((grid_s[:-1] + grid_s[1:]) / 2)
    M = t3 - pt.t3 * eye
    Z = t1 + 1j * t2 - pt.t12 * eye
    L = np.empty((len(hl), 2 * r, 2 * r), dtype=complex)
    R = np.empty_like(L)
    L[:, :r, :r] = -eye / hl - M / 2
    R[:, :r, :r] = eye / hl - M / 2
    L[:, :r, r:] = R[:, :r, r:] = Z.conj().swapaxes(1, 2) / 2
    L[:, r:, :r] = R[:, r:, :r] = Z / 2
    L[:, r:, r:] = -eye / hl + M / 2
    R[:, r:, r:] = eye / hl + M / 2
    return L, R


def assemble(sol: NahmSolution, point, grid: int = 256) -> DiracLattice:
    """The lattice operator of the family member at the given chart point
    (xi, psi), as its link stacks per segment and its junction rows; m <= 1
    (higher pole orders need graded frames the desk generators do not
    produce)."""
    if sol.m > 1:
        raise PoleOrderUnsupported("lattice assembly supports m <= 1")
    if sol.m == 0 and any(v is None for v in (sol.I_minus, sol.J_minus,
                                              sol.I_plus, sol.J_plus)):
        raise BuildRefused("m = 0 assembly needs the fundamental pairs "
                           "(I, J) at both lambda points")
    pt = point if isinstance(point, TaubNutPoint) else TaubNutPoint(*point)
    nodes = _segment_nodes(sol, grid)
    rep = sol.rep
    k, m = sol.k, sol.m
    h = rep.ell / grid

    # unknown layout: psi blocks per node (2 * rank), then W-, W+, u_h, u_t;
    # row layout: the link rows segment by segment, then the junctions
    segments, links = [], []
    row_pos = pos = 0
    for seg, grid_s in nodes:
        r, n = seg.rank, len(grid_s)
        segments.append((row_pos, pos, n, 2 * r))
        links.append(_link_blocks(seg, grid_s, pt))
        row_pos += (n - 1) * 2 * r
        pos += n * 2 * r
    n_psi = pos
    w_off = pos
    if m == 0:
        pos += 2                      # W_-, W_+
    uh_off = pos
    pos += k
    ut_off = pos
    pos += k
    jn = np.zeros((2 * JUNCTION_SITES * k, pos), dtype=complex)

    def put(r0, c0, block):
        block = np.atleast_2d(block)
        jn[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block

    first = [c0 for _, c0, _, _ in segments]
    last = [c0 + (n - 1) * w for _, c0, n, w in segments]
    # lambda junctions: continuity of continuing components with the
    # fundamental insertions (m = 0)
    im = sol.i_minus.conj().T           # k x (k+m)
    ip = sol.i_plus.conj().T
    w = 1.0 / h
    rmid = k + m
    # lambda_minus: head end node vs middle first node
    p1, p2 = 0, k
    oL, oR = last[0], first[1]
    put(p1, oL, -w * np.eye(k))
    put(p1, oR, w * im)
    put(p2, oL + k, -w * np.eye(k))
    put(p2, oR + rmid, w * im)
    if m == 0:
        put(p1, w_off, w * sol.J_minus.conj().T)
        put(p2, w_off, w * sol.I_minus)
    # lambda_plus: middle last node vs tail first node
    p1, p2 = 2 * k, 3 * k
    oL, oR = last[1], first[2]
    put(p1, oL, -w * ip)
    put(p1, oR, w * np.eye(k))
    put(p2, oL + rmid, -w * ip)
    put(p2, oR + k, w * np.eye(k))
    if m == 0:
        put(p1, w_off + 1, w * sol.J_plus.conj().T)
        put(p2, w_off + 1, w * sol.I_plus)

    # edge junctions
    Bth, Bht = sol.Bth, sol.Bht
    p1, p2 = 4 * k, 5 * k                       # head end, s = -ell/2
    oh = first[0]
    put(p1, oh, w * np.eye(k))
    put(p1, uh_off, w * np.conj(pt.b_ht) * np.eye(k))
    put(p1, ut_off, w * Bth.conj().T)
    put(p2, oh + k, w * np.eye(k))
    put(p2, uh_off, -w * pt.b_th * np.eye(k))
    put(p2, ut_off, w * Bht)
    p1, p2 = 6 * k, 7 * k                       # tail end, s = +ell/2
    ot = last[2]
    put(p1, ot, -w * np.eye(k))
    put(p1, uh_off, w * Bht.conj().T)
    put(p1, ut_off, -w * np.conj(pt.b_th) * np.eye(k))
    put(p2, ot + k, -w * np.eye(k))
    put(p2, uh_off, -w * Bth)
    put(p2, ut_off, -w * pt.b_ht * np.eye(k))

    return DiracLattice(h, n_psi, pos - n_psi, segments, links, jn)


@dataclass
class _Transfer:
    """The link rows solved by transfer matrices (see kernel)."""
    link_sigma: tuple      # (sigma_min, sigma_max) of every block R_j
    sigma: np.ndarray      # singular values of the junction system S = J E
    basis: np.ndarray      # orthonormal kernel of the operator


def _transfer(dl: DiracLattice, ctx: ToleranceContext) -> _Transfer:
    """The transfer data of a lattice, built on first use and shared by
    kernel and positivity; SingularLink where a block R_j cannot be
    eliminated at ctx.rank_tol."""
    t = dl._transfer
    if t is None:
        s = [np.linalg.svd(R, compute_uv=False) for _, R in dl.links]
        smin, smax = (np.concatenate([x[:, i] for x in s]) for i in (-1, 0))
    else:
        smin, smax = t.link_sigma
    bad = np.flatnonzero(smin <= ctx.rank_tol * smax)
    if len(bad):
        raise SingularLink(f"link {bad[0]} is singular: sigma "
                           f"{smin[bad[0]]:.3e} / {smax[bad[0]]:.3e}")
    if t is not None:
        return t
    E = np.zeros((dl.shape[1],
                  sum(w for *_, w in dl.segments) + dl.n_aux), dtype=complex)
    col = 0
    for (_, c0, n, w), (L, R) in zip(dl.segments, dl.links):
        T = -np.linalg.solve(R, L)
        P = np.empty((n, w, w), dtype=complex)
        P[0] = np.eye(w)
        for j in range(n - 1):
            P[j + 1] = T[j] @ P[j]
        E[c0:c0 + n * w, col:col + w] = P.reshape(n * w, w)
        col += w
    E[dl.n_psi:, col:] = np.eye(dl.n_aux)
    _, s, Vh = np.linalg.svd(dl.junction @ E)
    basis, _ = np.linalg.qr(E @ Vh[len(s):].conj().T)
    dl._transfer = _Transfer((smin, smax), s, basis)
    return dl._transfer


def kernel(dl: DiracLattice, ctx: ToleranceContext = DEFAULT_CTX):
    """(dimension, orthonormal basis, margin) of the kernel, by transfer
    matrices.

    Each link row pair L_j psi_j + R_j psi_{j+1} = 0 is solved for the next
    node, psi_{j+1} = -R_j^{-1} L_j psi_j, so every node of a segment is a
    linear image of the segment's first node: the columns of E below, one
    per first-node and auxiliary unknown.  The junction rows applied to E
    leave the reduced system S (8k rows, two more columns), whose kernel E
    maps onto the operator's.  The margin sigma_min(S) / (rank_tol
    sigma_max(S)) certifies that S has full row rank; below gap_factor the
    decision is refused with GapTooSmall.
    """
    t = _transfer(dl, ctx)
    margin = ctx.require_gap(t.sigma, len(t.sigma))
    return t.basis.shape[1], t.basis, margin


def _H(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return A.conj().swapaxes(-1, -2)


@dataclass
class _Chain:
    """A Hermitian matrix as one chain of blocks with a border: a decoupled
    leading block, then every segment's link blocks in order, each padded to
    the widest block by decoupled rows.  Padding rows are zero here;
    factorizations set their diagonal to one, so they stay decoupled and
    solve to zero."""
    D: np.ndarray          # (nb, W, W) diagonal blocks
    B: np.ndarray          # (nb - 1, W, W): B[j] couples block j+1 to j
    C: np.ndarray          # (nb, nJ, W): the border rows against each block
    S: np.ndarray          # (nJ, nJ) border block
    pad: tuple             # (block, row) indices of the padding rows

    @classmethod
    def of(cls, dl: DiracLattice, jw: float) -> "_Chain":
        """W W^H, W the operator with its junction rows scaled by jw, from
        the link stacks and the junction rows.

        Per segment: the link diagonal blocks L L^H + R R^H, the blocks
        coupling link j+1 to link j, and the coupling of the junction rows
        to the first and to the last link (the two holding the segment's end
        nodes, the only nodes the junction rows touch).  The border is the
        junction block J J^H.  Blocks that overflow float64 raise
        NumericalBreakdown (the finite check runs once, after they are
        formed)."""
        J = jw * dl.junction
        W = max(w for *_, w in dl.segments)
        nb = 1 + sum(n - 1 for _, _, n, _ in dl.segments)
        D = np.zeros((nb, W, W), dtype=complex)
        B = np.zeros((nb - 1, W, W), dtype=complex)
        C = np.zeros((nb, len(J), W), dtype=complex)
        real = np.zeros((nb, W), dtype=bool)
        b = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for (_, c0, n, w), (L, R) in zip(dl.segments, dl.links):
                LH, RH = _H(L), _H(R)
                D[b:b + n - 1, :w, :w] = L @ LH + R @ RH
                B[b:b + n - 2, :w, :w] = L[1:] @ RH[:-1]
                C[b, :, :w] = (J[:, c0:c0 + 2 * w]
                               @ np.concatenate([LH[0], RH[0]]))
                C[b + n - 2, :, :w] = (J[:, c0 + (n - 2) * w:c0 + n * w]
                                       @ np.concatenate([LH[-1], RH[-1]]))
                real[b:b + n - 1, :w] = True
                b += n - 1
            S = J @ J.conj().T
        if not all(np.isfinite(X).all() for X in (D, B, C, S)):
            raise NumericalBreakdown("the Gram blocks of the operator overflow "
                                     "float64: its entries are too large to "
                                     "square")
        return cls(D, B, C, S, np.nonzero(~real))

    def split(self, V: np.ndarray):
        """A block of vectors (rows: the chain, then the border) as its
        (nb, W, p) chain part and its (nJ, p) border part."""
        nb, W = self.D.shape[:2]
        return V[:nb * W].reshape(nb, W, -1), V[nb * W:]

    def matvec(self, V: np.ndarray) -> np.ndarray:
        x, xJ = self.split(V)
        y = self.D @ x + _H(self.C) @ xJ
        y[1:] += self.B @ x[:-1]
        y[:-1] += _H(self.B) @ x[1:]
        yJ = self.S @ xJ + (self.C @ x).sum(0)
        return np.concatenate([y.reshape(-1, V.shape[1]), yJ])

    def gershgorin(self) -> float:
        """Largest absolute row sum, a bound on every eigenvalue."""
        aB, aC = np.abs(self.B), np.abs(self.C)
        rows = np.abs(self.D).sum(2) + aC.sum(1)
        rows[1:] += aB.sum(2)
        rows[:-1] += aB.sum(1)
        border = np.abs(self.S).sum(1) + aC.sum((0, 2))
        return float(max(rows.max(), border.max()))


class _BlockLDL:
    """Block LDL^H of A = sign (G - shift I), G a _Chain, by odd-even
    (cyclic) reduction down to a dense tail.

    Each level eliminates the blocks at odd positions of the current chain.
    They couple to nothing but their two neighbours and the border, so all
    of a level is one batch: with P the odd diagonal blocks and K = [A_ol,
    A_or, A_oJ] the rows of each pivot against its left and right neighbour
    and the border, the whole Schur update is K^H P^-1 K, and what is left on
    the even blocks is again a chain with a border.  Each level keeps P^-1 K
    for the back-substitution.  The leading decoupled block is never
    eliminated.  Once at most TAIL_BLOCKS blocks are left, a level would pay
    its NumPy calls for almost no arithmetic, so what is left (the chain,
    leading block included, then the border) is one dense matrix, the tail:
    the Schur complement of every eliminated block.  By Sylvester's law A is
    positive definite exactly when every level pivot and the tail are
    (_definite)."""

    def __init__(self, g: _Chain, shift: float, sign: float):
        W = g.D.shape[1]
        D = sign * (g.D - shift * np.eye(W))
        D[g.pad[0], g.pad[1], g.pad[1]] = 1.0
        B, C = sign * g.B, sign * g.C
        S = sign * (g.S - shift * np.eye(len(g.S)))
        self.levels = []
        while len(D) > TAIL_BLOCKS:
            P, nr = D[1::2], len(B[1::2])
            K = np.zeros((len(P), W, 2 * W + len(S)), dtype=complex)
            K[:, :, :W] = B[0::2]
            K[:nr, :, W:2 * W] = _H(B[1::2])
            K[:, :, 2 * W:] = _H(C[1::2])
            Pi = np.linalg.inv(P)
            KH = _H(K)
            PiK = Pi @ K
            U = KH @ PiK
            D, C = D[0::2].copy(), C[0::2].copy()
            D[:len(P)] -= U[:, :W, :W]
            D[1:1 + nr] -= U[:nr, W:2 * W, W:2 * W]
            C[:len(P)] -= U[:, 2 * W:, :W]
            C[1:1 + nr] -= U[:nr, 2 * W:, W:2 * W]
            S = S - U[:, 2 * W:, 2 * W:].sum(0)
            B = -U[:nr, W:2 * W, :W]
            self.levels.append((P, Pi, PiK, KH, nr))
        nt, n = len(D), len(D) * W
        T = np.zeros((n + len(S),) * 2, dtype=complex)
        blocks, j = T[:n, :n].reshape(nt, W, nt, W), np.arange(nt)
        blocks[j, :, j] = D
        blocks[j[1:], :, j[:-1]] = B
        blocks[j[:-1], :, j[1:]] = _H(B)
        T[n:, :n] = C.transpose(1, 0, 2).reshape(len(S), n)
        T[:n, n:] = T[n:, :n].conj().T
        T[n:, n:] = S
        self.tail = T

    @cached_property
    def tail_inv(self) -> np.ndarray:
        """The tail's inverse, formed by the first solve (_definite needs
        only the tail's Cholesky)."""
        return np.linalg.inv(self.tail)

    def solve(self, g: _Chain, V: np.ndarray) -> np.ndarray:
        """A^-1 V, V a block of vectors in the layout of _Chain.split."""
        x, xJ = g.split(V)
        W, p = x.shape[1:]
        kept = []
        for _, Pi, _, KH, nr in self.levels:
            xo, x = x[1::2], x[0::2].copy()
            z = Pi @ xo
            u = KH @ z
            x[:len(z)] -= u[:, :W]
            x[1:1 + nr] -= u[:nr, W:2 * W]
            xJ = xJ - u[:, 2 * W:].sum(0)
            kept.append(z)
        n = len(x) * W
        y = self.tail_inv @ np.concatenate([x.reshape(n, p), xJ])
        y, yJ = y[:n].reshape(-1, W, p), y[n:]
        for (_, _, PiK, _, nr), z in zip(self.levels[::-1], kept[::-1]):
            Y = np.zeros((len(z), PiK.shape[2], p), dtype=complex)
            Y[:, :W] = y[:len(z)]
            Y[:nr, W:2 * W] = y[1:1 + nr]
            Y[:, 2 * W:] = yJ
            out = np.empty((len(y) + len(z), W, p), dtype=complex)
            out[0::2], out[1::2] = y, z - PiK @ Y
            y = out
        return np.concatenate([y.reshape(-1, p), yJ])


def _definite(g: _Chain, shift: float, sign: float) -> bool:
    """Whether sign (G - shift I) is positive definite: a Cholesky of every
    level pivot of _BlockLDL and of its tail (Sylvester)."""
    try:
        f = _BlockLDL(g, shift, sign)
        if f.levels:
            np.linalg.cholesky(np.concatenate([lv[0] for lv in f.levels]))
        np.linalg.cholesky(f.tail)
    except np.linalg.LinAlgError:
        return False
    return True


def _lanczos(g: _Chain, shift: float, sign: float, tol: float):
    """(lam, v): the eigenvalue of the chain's matrix G nearest shift on the
    side sign, and its unit eigenvector (zero on the padding rows).

    Shift-and-invert Lanczos with full reorthogonalisation from a seeded
    start: A = sign (G - shift I), positive definite, is factored once by
    _BlockLDL, and the Krylov space of A^-1 is built from a start vector
    held at zero on the padding rows, where every solve keeps it.  The top
    Ritz pair (theta, y) of A^-1 gives lam = shift + sign / theta, which
    lies on the far side from shift of the eigenvalue it approximates.  The
    iteration stops once the Ritz residual carried back to G, b |s_last| /
    theta^2, is at most tol (or the Krylov space is invariant), or after
    LANCZOS_MAX_STEPS steps.  A step whose new vector's norm b is not finite
    (the solve overflowed) raises NumericalBreakdown."""
    nb, W = g.D.shape[:2]
    n = nb * W + len(g.S)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g.split(q)[0][g.pad] = 0.0
    q /= np.linalg.norm(q)
    Q = np.empty((min(n - len(g.pad[0]), LANCZOS_MAX_STEPS), n),
                 dtype=complex)
    tri = np.zeros((len(Q) + 1,) * 2)         # the Lanczos tridiagonal
    # an overflow in the factorization or a solve makes b inf or nan; the
    # finite check on b reports it
    with np.errstate(over="ignore", invalid="ignore"):
        f = _BlockLDL(g, shift, sign)
        for j in range(len(Q)):
            Q[j] = q
            v = f.solve(g, q[:, None])[:, 0]
            tri[j, j] = np.vdot(q, v).real
            for _ in range(2):
                v -= (Q[:j + 1] @ v.conj()).conj() @ Q[:j + 1]
            b = np.linalg.norm(v)
            if not np.isfinite(b):
                raise NumericalBreakdown(f"Lanczos step {j} at shift "
                                         f"{shift:.6e}: the new vector has "
                                         f"norm {b}")
            theta, S = np.linalg.eigh(tri[:j + 1, :j + 1])
            if b * abs(S[-1, -1]) <= tol * theta[-1] ** 2 or b == 0.0:
                break
            q = v / b
            tri[j + 1, j] = tri[j, j + 1] = b
    return shift + sign / theta[-1], Q[:j + 1].T @ S[:, -1]


def _gram_top_bracket(dl: DiracLattice, g: _Chain):
    """(lower, value, upper) for the largest eigenvalue of G = W W^H, W the
    operator with its junction rows weighted by h, from G's chain ``g`` =
    _Chain.of(dl, dl.h).

    value comes from _lanczos on G from above (shift the Gershgorin bound,
    sign -1: Lanczos on (shift I - G)^-1 through one _BlockLDL), stopped at
    eps_r, the rounding bound of _rounding_bound for W; it is a lower bound
    up to the rounding in forming G's blocks, so lower = value - eps_r.  One
    block LDL^H of (value + eps_r) I - G with positive definite pivots
    proves lambda_max < value + 2 eps_r (Sylvester), the upper end.  An
    uncertified value raises CertificateFailed; a singular pivot of the
    Lanczos factorization, NumericalBreakdown.
    """
    err = _rounding_bound(dl, dl.h)
    try:
        value, _ = _lanczos(g, g.gershgorin(), -1.0, err)
    except np.linalg.LinAlgError as e:
        raise NumericalBreakdown(f"the top of the Gram matrix: {e}") from e
    if not _definite(g, value + err, -1.0):
        raise CertificateFailed(f"the Gram matrix has an eigenvalue above "
                                f"{value + err:.15e}")
    return value - err, value, value + 2 * err


def reality_residual(dl: DiracLattice) -> float:
    """Relative norm of the commutator of the squared operator with the
    quaternionic structure on the spinor factor.

    The commutator is measured in the pairing where the junction rows carry
    their distributional weight h; there it decays at least linearly in h
    for valid data (exactly linearly once the lambda-point frames rotate).

    The structure C is a signed permutation, so ||G C - C conj(G)||_2 is the
    norm of the Hermitian D = G - C conj(G) C^T.  Link rows commute with the
    structure (the T_i are Hermitian), so D vanishes outside the rows of the
    first and last link of each segment (the only links holding the end
    nodes the junction rows touch) and of the junction sites; its norm is
    the largest |eigenvalue| of that block, which is filled from the chain
    of G (no N x N array is formed).  The normaliser is lambda_max(G), the
    value of the certified bracket _gram_top_bracket.  An eigen-solver that
    does not converge raises NumericalBreakdown.
    """
    g = _Chain.of(dl, dl.h)
    nl = 2 * sum(w for *_, w in dl.segments)
    Gk = np.zeros((nl + len(g.S),) * 2, dtype=complex)
    o, b, halves = 0, 1, []
    for _, _, n, w in dl.segments:
        # the first and the last link: chain blocks b and b + n - 2
        first, last = slice(o, o + w), slice(o + w, o + 2 * w)
        for c, at in ((b, first), (b + n - 2, last)):
            Gk[at, at] = g.D[c, :w, :w]
            Gk[nl:, at] = g.C[c, :, :w]
            Gk[at, nl:] = g.C[c, :, :w].conj().T
        if n == 3:                          # the first and last link touch
            Gk[last, first] = g.B[b, :w, :w]
            Gk[first, last] = g.B[b, :w, :w].conj().T
        o, b, halves = o + 2 * w, b + n - 1, halves + [w // 2] * 2
    Gk[nl:, nl:] = g.S
    # C swaps the two spinor components (r rows each) of every site of Gk:
    # two links per segment, then the junction sites
    partner, sign = [], []
    for r in halves + [len(g.S) // (2 * JUNCTION_SITES)] * JUNCTION_SITES:
        p = len(sign)
        partner += [*range(p + r, p + 2 * r), *range(p, p + r)]
        sign += [-1.0] * r + [1.0] * r
    sign = np.array(sign)
    D = Gk - np.outer(sign, sign) * Gk.conj()[np.ix_(partner, partner)]
    try:
        resid = np.max(np.abs(np.linalg.eigvalsh(D)))
    except np.linalg.LinAlgError as e:
        raise NumericalBreakdown(f"the reality commutator block: {e}") from e
    return float(resid / max(_gram_top_bracket(dl, g)[1], 1e-300))


def _rounding_bound(dl: DiracLattice, jw: float = 1.0) -> float:
    """Bound on the rounding in forming the blocks of W W^H (W the operator
    with its junction rows scaled by jw) and in their block LDL^H
    factorization (_BlockLDL): (p + q (q + 1)) eps ||W||_1 ||W||_inf, with
    p the most nonzeros in a row of W and q the widest row of the factor.
    In the odd-even order an eliminated block couples to its two neighbour
    blocks and the junction border, as in the sequential order it coupled to
    its own block, its successor and the border, so q = 2 w_max + n_J in
    both.  The dense tail of _BlockLDL is factored in the sequential order,
    which the bound already covers, so q stays 2 w_max + n_J there; and an
    entry of the tail's factor that is structurally zero (a chain block
    against one two or more blocks away) is a sum of products each with an
    exact zero factor, so it is computed as exactly zero and adds no
    rounding."""
    aJ = jw * np.abs(dl.junction)
    col, row = aJ.sum(0), aJ.sum(1).max()
    p, wmax = np.count_nonzero(aJ, axis=1).max(), 0
    for (_, c0, n, w), (L, R) in zip(dl.segments, dl.links):
        aL, aR = np.abs(L), np.abs(R)
        row = max(row, (aL.sum(2) + aR.sum(2)).max())
        nodes = col[c0:c0 + n * w].reshape(n, w)
        nodes[:-1] += aL.sum(1)
        nodes[1:] += aR.sum(1)
        wmax = max(wmax, w)
    p, q = max(p, 2 * wmax), 2 * wmax + len(aJ)
    return float((p + q * (q + 1)) * np.finfo(float).eps * row * col.max())


def positivity_bracket(dl: DiracLattice, ctx: ToleranceContext = DEFAULT_CTX):
    """(lower, value, upper) for the smallest eigenvalue of the squared
    operator M M^H, certified positive.

    M M^H is the bordered block chain _Chain.of(dl, 1).  value and its unit vector
    v come from _lanczos on it from below (shift 0, sign +1: Lanczos on
    (M M^H)^-1 through one _BlockLDL of M M^H), stopped at eps_r, the
    rounding bound of _rounding_bound; value is at least lambda_min.  The
    Rayleigh quotient rho = v^H M M^H v / v^H v is at least the value.  One
    block LDL^H of M M^H - (value - eps_r) I with positive definite pivots
    (_definite) proves lambda_min > value - 2 eps_r (Sylvester).  So the
    bracket is [(1 - delta) value, rho + eps_r] with delta = 2 eps_r /
    value.

    Raises SingularPoint where the junction system drops rank (the margin
    of kernel), where M M^H has a singular pivot, where the bracket does not
    clear zero, or where the certificate fails; and SingularLink where a
    link block cannot be eliminated.
    """
    t = _transfer(dl, ctx)
    try:
        ctx.require_gap(t.sigma, len(t.sigma))
    except nk.GapTooSmall as e:
        raise SingularPoint(f"the junction system drops rank, so M M^H is "
                            f"singular here: {e}") from e
    g = _Chain.of(dl, 1.0)
    err = _rounding_bound(dl)
    try:
        value, v = _lanczos(g, 0.0, 1.0, err)
    except np.linalg.LinAlgError as e:
        raise SingularPoint(f"M M^H has a singular pivot: {e}") from e
    rho = np.vdot(v, g.matvec(v[:, None])[:, 0]).real / np.vdot(v, v).real
    lower = value - 2 * err
    if not lower > 0:
        raise SingularPoint(f"smallest eigenvalue {value:.3e} of M M^H is "
                            f"within rounding ({2 * err:.1e}) of zero")
    if not _definite(g, value - err, 1.0):
        raise SingularPoint(f"positivity not certified: M M^H has an "
                            f"eigenvalue below {value - err:.6e}")
    return float(lower), float(value), float(rho + err)


def positivity(dl: DiracLattice, ctx: ToleranceContext = DEFAULT_CTX) -> float:
    """Smallest eigenvalue of the squared operator, certified positive (the
    value of positivity_bracket); strictly positive away from the singular
    strata."""
    return positivity_bracket(dl, ctx)[1]


def refinement_study(sol: NahmSolution, point, grids=(64, 128, 256),
                     ctx: ToleranceContext = DEFAULT_CTX):
    """Kernel dimension, margin, reality residual and positivity across a
    sequence of grids (halving h each step)."""
    out = []
    for g in grids:
        dl = assemble(sol, point, g)
        dim, basis, gap = kernel(dl, ctx)
        out.append({"grid": g, "h": dl.h, "dim": dim, "gap": gap,
                    "reality": reality_residual(dl),
                    "min_eig": positivity(dl, ctx), "basis": basis})
    return out

