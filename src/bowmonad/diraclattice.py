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
the auxiliaries.  Every solver here works on those blocks in O(grid): the
kernel and the pseudo-inverse by transfer matrices, the squared operator
M M^H as a bordered block-tridiagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .monadcore import fiber_dim
from .nahmbow import (BuildRefused, NahmSolution, complex_shadow,
                      finite_monad_family)
from .numkit import DEFAULT_CTX, ToleranceContext

# Lanczos stops once the residual of its top Ritz pair is below this
# fraction of the Ritz value (the value is then good to about its square).
LANCZOS_TOL = 1e-9
LANCZOS_MAX_STEPS = 60


class SingularPoint(nk.BowmonadError):
    pass


class PoleOrderUnsupported(nk.BowmonadError):
    pass


class SingularLink(nk.BowmonadError):
    """A link row pair cannot be solved for its right-hand node."""


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
    sol: NahmSolution
    point: TaubNutPoint
    h: float
    matrix: np.ndarray
    sites: list         # (row_offset_1, row_offset_2, block_size) per site
    n_psi: int          # spinor unknowns
    n_aux: int          # W and edge unknowns
    # (first link row, first node column, node count, node width) per segment
    segments: list
    # (L, R) per segment: link j is L[j] psi_j + R[j] psi_{j+1}
    links: list
    n_junctions: int = 4
    _transfer: object = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_link_rows(self) -> int:
        """Rows before the junction sites."""
        return self.sites[len(self.sites) - self.n_junctions][0]

    def weighted(self) -> np.ndarray:
        """Operator in the pairing where the junction rows (distributional
        components) carry their natural weight h instead of 1/h."""
        M = self.matrix.copy()
        M[self.n_link_rows:] *= self.h
        return M


def _segment_nodes(sol: NahmSolution, grid: int):
    """Node positions per segment, endpoints included, density set by the
    total grid budget."""
    rep = sol.rep
    segs = [(sol.head, -rep.ell / 2, rep.lam_minus),
            (sol.middle, rep.lam_minus, rep.lam_plus),
            (sol.tail, rep.lam_plus, rep.ell / 2)]
    out = []
    for seg, s0, s1 in segs:
        n = max(3, int(round(grid * (s1 - s0) / rep.ell)) + 1)
        out.append((seg, np.linspace(s0, s1, n)))
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
    """Sparse-structured dense operator for the family member at the given
    chart point (xi, psi); m <= 1 (higher pole orders need graded frames the
    desk generators do not produce).  The link blocks are kept per segment
    for the block solvers."""
    if sol.m > 1:
        raise PoleOrderUnsupported("lattice assembly supports m <= 1")
    if sol.m == 0 and any(v is None for v in (sol.I_minus, sol.J_minus,
                                              sol.I_plus, sol.J_plus)):
        raise BuildRefused("m = 0 assembly needs the fundamental pairs "
                           "(I, J) at both lambda points")
    pt = point if isinstance(point, TaubNutPoint) else TaubNutPoint(*point)
    rep = sol.rep
    k, m = sol.k, sol.m
    h = rep.ell / grid

    # unknown layout: psi blocks per node (2 * rank), then W-, W+, u_h, u_t;
    # row layout: the link sites segment by segment, then the junctions
    segments, links, sites = [], [], []
    row_pos = pos = 0
    for seg, grid_s in _segment_nodes(sol, grid):
        r, n = seg.rank, len(grid_s)
        segments.append((row_pos, pos, n, 2 * r))
        links.append(_link_blocks(seg, grid_s, pt))
        sites += [(p, p + r, r)
                  for p in range(row_pos, row_pos + (n - 1) * 2 * r, 2 * r)]
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
    mat = np.zeros((row_pos + 8 * k, pos), dtype=complex)   # 4 junction sites
    for (r0, c0, n, w), (L, R) in zip(segments, links):
        j = np.arange(n - 1)[:, None] * w
        rows = r0 + (j + np.arange(w))[:, :, None]
        mat[rows, c0 + (j + np.arange(2 * w))[:, None, :]] = \
            np.concatenate([L, R], 2)

    def put(r0, c0, block):
        block = np.atleast_2d(block)
        mat[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block

    def new_site(r):
        nonlocal row_pos
        p1, p2 = row_pos, row_pos + r
        sites.append((p1, p2, r))
        row_pos = p2 + r
        return p1, p2

    first = [c0 for _, c0, _, _ in segments]
    last = [c0 + (n - 1) * w for _, c0, n, w in segments]
    # lambda junctions: continuity of continuing components with the
    # fundamental insertions (m = 0)
    im = sol.i_minus.conj().T           # k x (k+m)
    ip = sol.i_plus.conj().T
    w = 1.0 / h
    rmid = k + m
    # lambda_minus: head end node vs middle first node
    p1, p2 = new_site(k)
    oL, oR = last[0], first[1]
    put(p1, oL, -w * np.eye(k))
    put(p1, oR, w * im)
    put(p2, oL + k, -w * np.eye(k))
    put(p2, oR + rmid, w * im)
    if m == 0:
        put(p1, w_off, w * sol.J_minus.conj().T)
        put(p2, w_off, w * sol.I_minus)
    # lambda_plus: middle last node vs tail first node
    p1, p2 = new_site(k)
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
    p1, p2 = new_site(k)                        # head end, s = -ell/2
    oh = first[0]
    put(p1, oh, w * np.eye(k))
    put(p1, uh_off, w * np.conj(pt.b_ht) * np.eye(k))
    put(p1, ut_off, w * Bth.conj().T)
    put(p2, oh + k, w * np.eye(k))
    put(p2, uh_off, -w * pt.b_th * np.eye(k))
    put(p2, ut_off, w * Bht)
    p1, p2 = new_site(k)                        # tail end, s = +ell/2
    ot = last[2]
    put(p1, ot, -w * np.eye(k))
    put(p1, uh_off, w * Bht.conj().T)
    put(p1, ut_off, -w * np.conj(pt.b_th) * np.eye(k))
    put(p2, ot + k, -w * np.eye(k))
    put(p2, uh_off, -w * Bth)
    put(p2, ut_off, -w * pt.b_ht * np.eye(k))

    return DiracLattice(sol, pt, h, mat, sites, n_psi, pos - n_psi, segments,
                        links)


@dataclass
class _Transfer:
    """The link rows solved by transfer matrices (see kernel)."""
    link_sigma: tuple      # (sigma_min, sigma_max) of every block R_j
    P: list                # per segment (n, w, w): node j = P[j] first node
    E: np.ndarray          # first nodes and auxiliaries -> all unknowns
    U: np.ndarray          # SVD of the junction system S = J E
    sigma: np.ndarray
    Vh: np.ndarray
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
    E = np.zeros((dl.matrix.shape[1],
                  sum(w for *_, w in dl.segments) + dl.n_aux), dtype=complex)
    Ps, col = [], 0
    for (_, c0, n, w), (L, R) in zip(dl.segments, dl.links):
        T = -np.linalg.solve(R, L)
        P = np.empty((n, w, w), dtype=complex)
        P[0] = np.eye(w)
        for j in range(n - 1):
            P[j + 1] = T[j] @ P[j]
        E[c0:c0 + n * w, col:col + w] = P.reshape(n * w, w)
        Ps.append(P)
        col += w
    E[dl.n_psi:, col:] = np.eye(dl.n_aux)
    U, s, Vh = np.linalg.svd(dl.matrix[dl.n_link_rows:] @ E)
    basis, _ = np.linalg.qr(E @ Vh[len(s):].conj().T)
    dl._transfer = _Transfer((smin, smax), Ps, E, U, s, Vh, basis)
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


def _gram(dl: DiracLattice, jw: float):
    """Blocks of W W^H, W the operator with its junction rows scaled by jw.

    Per segment: the link diagonal blocks (n-1, w, w), the blocks (n-2, w,
    w) coupling link j+1 to link j, and the coupling (8k, w) of the junction
    rows to the first and to the last link (the two holding the segment's
    end nodes, the only nodes the junction rows touch).  Then the junction
    block (8k, 8k)."""
    J = jw * dl.matrix[dl.n_link_rows:]
    out = []
    for (_, c0, n, w), (L, R) in zip(dl.segments, dl.links):
        LH, RH = L.conj().swapaxes(1, 2), R.conj().swapaxes(1, 2)
        out.append((L @ LH + R @ RH, L[1:] @ RH[:-1],
                    J[:, c0:c0 + 2 * w] @ np.concatenate([LH[0], RH[0]]),
                    J[:, c0 + (n - 2) * w:c0 + n * w]
                    @ np.concatenate([LH[-1], RH[-1]])))
    return out, J @ J.conj().T


def reality_residual(dl: DiracLattice) -> float:
    """Relative norm of the commutator of the squared operator with the
    quaternionic structure on the spinor factor.

    The commutator is measured in the pairing where the junction rows carry
    their distributional weight h; there it decays at least linearly in h
    for valid data (exactly linearly once the lambda-point frames rotate).

    The structure C is a signed permutation, so ||G C - C conj(G)||_2 is the
    norm of the Hermitian D = G - C conj(G) C^T.  Link rows commute with the
    structure (the T_i are Hermitian), so D vanishes outside the rows of the
    junction sites and of the link sites sharing a node column with them;
    its norm is the largest |eigenvalue| of that block.  G = W W^H is filled
    from the blocks of _gram; its largest eigenvalue normalises.
    """
    blocks, JJ = _gram(dl, dl.h)
    j0 = dl.n_link_rows
    G = np.zeros((dl.matrix.shape[0],) * 2, dtype=complex)
    for (r0, _, n, w), (diag, sub, head, tail) in zip(dl.segments, blocks):
        idx = r0 + np.arange((n - 1) * w).reshape(n - 1, w)
        G[idx[:, :, None], idx[:, None, :]] = diag
        G[idx[1:, :, None], idx[:-1, None, :]] = sub
        G[idx[:-1, :, None], idx[1:, None, :]] = sub.conj().swapaxes(1, 2)
        for rows, C in ((idx[0], head), (idx[-1], tail)):
            G[j0:, rows] = C
            G[rows, j0:] = C.conj().T
    G[j0:, j0:] = JJ
    M = dl.matrix
    first = len(dl.sites) - dl.n_junctions
    junction_cols = np.any(M[j0:] != 0, axis=0)
    touched = np.any(M[:j0, junction_cols] != 0, axis=1)
    rows, partner, sign = [], [], []
    for i, (p1, p2, r) in enumerate(dl.sites):
        if i >= first or touched[p1:p2 + r].any():
            b = len(rows)
            rows += [*range(p1, p1 + r), *range(p2, p2 + r)]
            partner += [*range(b + r, b + 2 * r), *range(b, b + r)]
            sign += [-1.0] * r + [1.0] * r
    sign = np.array(sign)
    Gk = G[np.ix_(rows, rows)]
    D = Gk - np.outer(sign, sign) * Gk.conj()[np.ix_(partner, partner)]
    resid = np.max(np.abs(np.linalg.eigvalsh(D)))
    return float(resid / max(np.linalg.eigvalsh(G)[-1], 1e-300))


class _PseudoInverse:
    """M^+ of an operator of full row rank, by transfer matrices.

    X b solves M x = b: a particular solution of the link rows with zero
    first nodes, x_{j+1} = T_j x_j + R_j^{-1} b_j, is the cumsum
    x_j = P_j sum_{i<j} F_i b_i with F_i = (R_i P_{i+1})^{-1}; the junction
    rows are then met by E S^+ (b_J - J x).  M^+ b is X b projected off the
    kernel, and the adjoint runs the same steps backwards (a reverse
    cumsum).  normal(b) = X^H (1 - K K^H) X b = (M M^H)^{-1} b.
    """

    def __init__(self, dl: DiracLattice, t: _Transfer):
        self.j0, self.shape = dl.n_link_rows, dl.matrix.shape
        self.J = dl.matrix[self.j0:]
        self.E, self.K = t.E, t.basis
        r = len(t.sigma)
        self.Sp = (t.Vh[:r].conj().T / t.sigma) @ t.U.conj().T
        self.segs = []
        for (r0, c0, n, w), (_, R), P in zip(dl.segments, dl.links, t.P):
            F = np.linalg.inv(R @ P[1:])
            self.segs.append((r0, c0, n, w, P[1:], F,
                              P[1:].conj().swapaxes(1, 2),
                              F.conj().swapaxes(1, 2)))

    def normal(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros(self.shape[1], dtype=complex)
        for r0, c0, n, w, P, F, _, _ in self.segs:
            y = np.cumsum(F @ b[r0:r0 + (n - 1) * w].reshape(n - 1, w, 1), 0)
            x[c0 + w:c0 + n * w] = (P @ y).ravel()
        x += self.E @ (self.Sp @ (b[self.j0:] - self.J @ x))
        x -= self.K @ (self.K.conj().T @ x)
        z = self.Sp.conj().T @ (self.E.conj().T @ x)
        x -= self.J.conj().T @ z
        out = np.empty(self.shape[0], dtype=complex)
        for r0, c0, n, w, _, _, PH, FH in self.segs:
            g = PH @ x[c0 + w:c0 + n * w].reshape(n - 1, w, 1)
            G = np.cumsum(g[::-1], 0)[::-1]
            out[r0:r0 + (n - 1) * w] = (FH @ G).ravel()
        out[self.j0:] = z
        return out


def _lanczos_top(op, n: int):
    """Largest eigenvalue and unit eigenvector of a Hermitian positive
    operator on C^n: Lanczos with full reorthogonalisation from a seeded
    start, until the top Ritz residual is below LANCZOS_TOL times the Ritz
    value (or the Krylov space is invariant)."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    Q = np.empty((min(n, LANCZOS_MAX_STEPS), n), dtype=complex)
    alpha, beta = [], []
    for j in range(len(Q)):
        Q[j] = q
        v = op(q)
        alpha.append(np.vdot(q, v).real)
        for _ in range(2):
            v -= Q[:j + 1].T @ (Q[:j + 1].conj() @ v)
        b = np.linalg.norm(v)
        theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                  + np.diag(beta, -1))
        if b * abs(S[-1, -1]) <= LANCZOS_TOL * theta[-1] or b == 0.0:
            break
        q = v / b
        beta.append(b)
    return theta[-1], Q[:j + 1].T @ S[:, -1]


def _rounding_bound(dl: DiracLattice) -> float:
    """Bound on the rounding in forming the blocks of M M^H and in their
    block LDL^H factorization: (p + q (q + 1)) eps ||M||_1 ||M||_inf,
    with p the most nonzeros in a row of M and q the widest row of the
    factor (two link blocks and the junction border)."""
    aJ = np.abs(dl.matrix[dl.n_link_rows:])
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


def _shift_is_positive(blocks, JJ: np.ndarray, tau: float) -> bool:
    """Whether M M^H - tau I is positive definite, from the blocks of
    _gram, by one block LDL^H factorization: the pivots of each segment's
    links in order, S_j = H_jj - B_j S_{j-1}^-1 B_j^H (B_j the block coupling
    link j to link j-1), carry the junction coupling
    Z_j = H_jJ - B_j S_{j-1}^-1 Z_{j-1} along, and the junction border is
    the last pivot, H_JJ - sum_j Z_j^H S_j^-1 Z_j.  By Sylvester's law the
    matrix is positive definite exactly when every pivot is, which one
    batched Cholesky per segment and one of the border decide."""
    nJ = len(JJ)
    border = JJ - tau * np.eye(nJ)
    try:
        for diag, sub, head, tail in blocks:
            nb, w = diag.shape[:2]
            D = diag - tau * np.eye(w)
            subH = sub.conj().swapaxes(1, 2)
            S, Z = D[0], head.conj().T
            pivots, Sinv, Zs = [S], [np.linalg.inv(S)], [Z]
            for j in range(1, nb):
                BS = sub[j - 1] @ Sinv[-1]
                S = D[j] - BS @ subH[j - 1]
                Z = (tail.conj().T if j == nb - 1 else 0.0) - BS @ Z
                pivots.append(S)
                Sinv.append(np.linalg.inv(S))
                Zs.append(Z)
            np.linalg.cholesky(np.array(pivots))
            Zs = np.array(Zs)
            border = border - (Zs.conj().swapaxes(1, 2)
                               @ (np.array(Sinv) @ Zs)).sum(0)
        np.linalg.cholesky(border)
    except np.linalg.LinAlgError:
        return False
    return True


def positivity_bracket(dl: DiracLattice, ctx: ToleranceContext = DEFAULT_CTX):
    """(lower, value, upper) for the smallest eigenvalue of the squared
    operator M M^H, certified positive.

    Where the junction system certifies full row rank (the margin of
    kernel), lambda_min(M M^H) = 1 / ||M^+||^2.  Lanczos on (M M^H)^{-1},
    applied through the transfer matrices (_PseudoInverse), gives the top
    Ritz pair (theta, v), and value = 1 / theta.  The Rayleigh quotient
    rho = ||M^H v||^2 / ||v||^2 is at least lambda_min and at least the
    value.  One block LDL^H of M M^H - (value - eps_r) I with positive
    definite pivots (_shift_is_positive) proves lambda_min > value -
    2 eps_r (Sylvester), eps_r the rounding bound of _rounding_bound.  So
    the bracket is [(1 - delta) value, rho + eps_r] with
    delta = 2 eps_r / value.

    Raises SingularPoint where the junction system drops rank, where the
    bracket does not clear zero, or where the certificate fails; and
    SingularLink where a link block cannot be eliminated.
    """
    t = _transfer(dl, ctx)
    try:
        ctx.require_gap(t.sigma, len(t.sigma))
    except nk.GapTooSmall as e:
        raise SingularPoint(f"the junction system drops rank, so M M^H is "
                            f"singular here: {e}") from e
    try:
        op = _PseudoInverse(dl, t)
    except np.linalg.LinAlgError as e:
        raise SingularLink(f"a link transfer is not invertible: {e}") from e
    theta, v = _lanczos_top(op.normal, dl.matrix.shape[0])
    value = 1.0 / theta
    u = v.conj() @ dl.matrix                  # conj(M^H v)
    rho = np.vdot(u, u).real / np.vdot(v, v).real
    err = _rounding_bound(dl)
    lower = value - 2 * err
    if not lower > 0:
        raise SingularPoint(f"smallest eigenvalue {value:.3e} of M M^H is "
                            f"within rounding ({2 * err:.1e}) of zero")
    if not _shift_is_positive(*_gram(dl, 1.0), value - err):
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


def compare_with_monad(data, sol: NahmSolution, point, grid: int = 256,
                       ctx: ToleranceContext = DEFAULT_CTX) -> dict:
    """Kernel dimension of the lattice operator against the fiber dimension
    of the fused monad and of the finite reduction, at one chart point;
    SingularPoint where the squared operator is not certified positive."""
    from . import taubnut
    dl = assemble(sol, point, grid)
    mineig = positivity(dl, ctx)
    dim, _, gap = kernel(dl, ctx)
    bm = taubnut._big_monad_unchecked(taubnut._float_data(data))
    fdim = fiber_dim(bm.evaluate(tuple(point)), ctx)
    rdim = fiber_dim(finite_monad_family(complex_shadow(sol))
                     .evaluate(tuple(point)), ctx)
    return {"kernel_dim": dim, "monad_dim": fdim, "reduced_dim": rdim,
            "gap": gap, "min_eig": mineig,
            "match": dim == fdim == rdim}
