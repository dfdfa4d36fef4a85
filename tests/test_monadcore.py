from fractions import Fraction

import numpy as np
import pytest

from bowmonad import caloron, monadcore as mc, nahmbow, numkit as nk, taubnut
from bowmonad.monadcore import (CURVE_CLASSES, HEXAGON_ORDER, Line,
                                principal_class, sections_on_line,
                                splitting_type)


def mk(rows):
    return np.array(rows, dtype=complex)


def k1_example():
    # A=1, B=0, C=(1,0), D=(0;1): the one-instanton normalization
    return caloron.CaloronDataM0(1, mk([[1]]), mk([[0]]), mk([[1, 0]]),
                                 mk([[0], [1]]))


def k1m1_taubnut():
    return taubnut.TaubNutData(1, 1, mk([[1]]), mk([[2]]), mk([[3]]),
                               mk([[1, -3]]), mk([[1]]), mk([[3]]),
                               mk([[21]]), mk([[1, 0]]))


# ---------------------------------------------------------------------------
# Picard lattice


def test_hexagon_intersections():
    for i, name in enumerate(HEXAGON_ORDER):
        c = CURVE_CLASSES[name]
        assert c.intersect(c) == -1
        nxt = CURVE_CLASSES[HEXAGON_ORDER[(i + 1) % 6]]
        assert c.intersect(nxt) == 1
        # non-neighbors miss each other
        for j in range(6):
            other = CURVE_CLASSES[HEXAGON_ORDER[j]]
            want = -1 if j == i else (1 if abs(j - i) in (1, 5) else 0)
            assert c.intersect(other) == want


def test_principal_divisors_vanish():
    for fn in ("eta", "xi", "psi"):
        assert principal_class(fn).is_zero()


def test_line_classes():
    b = mc.LINE_CLASSES["B_eta"]
    lxi = mc.LINE_CLASSES["L_xi"]
    lpsi = mc.LINE_CLASSES["L_psi"]
    assert b.intersect(b) == 0 and lxi.intersect(lxi) == 0
    assert lpsi.intersect(lpsi) == 0
    assert b.intersect(lxi) == 1 and b.intersect(lpsi) == 1


# ---------------------------------------------------------------------------
# evaluation and fibers


def test_evaluate_hand_expansion():
    sm = caloron.small_monad(k1_example())
    m = sm.evaluate((2.0, 3.0))
    assert np.allclose(m.alpha.ravel(), [-1, -3, 0, 1])
    assert np.allclose(m.beta.ravel(), [3, -1, 1, 0])
    assert m.residual == 0.0


def test_evaluate_exact_taubnut():
    d = taubnut.TaubNutData(
        1, 1, nk.exact_matrix([[1]]), nk.exact_matrix([[2]]),
        nk.exact_matrix([[3]]), nk.exact_matrix([[1, -3]]),
        nk.exact_matrix([[1]]), nk.exact_matrix([[3]]),
        nk.exact_matrix([[21]]), nk.exact_matrix([[1, 0]]))
    bm = taubnut._big_monad_unchecked(d)
    m = bm.evaluate((nk.GQ(1), nk.GQ(1)))
    assert m.residual == 0.0


def test_composite_vanishes_definitionally():
    sm = caloron.small_monad(k1_example())
    rng = np.random.default_rng(0)
    for _ in range(20):
        pt = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert sm.evaluate(pt).residual < 1e-14


def test_fiber_k1_and_empty_monad():
    sm = caloron.small_monad(k1_example())
    assert mc.fiber(sm.evaluate((2.0, 3.0))).dim == 2
    # k = 0: empty blocks, trivial rank-2 middle
    empty = mc.ParamMonad(
        "xi_eta",
        ([], [mc.BlockSpec("W", mc.o_pp(0, 0), 2)], []),
        mc.PolyMatrix((2, 0)), mc.PolyMatrix((0, 2)))
    m = empty.evaluate((0.3, 0.7))
    assert mc.fiber(m).dim == 2


def test_fiber_exact_sweep():
    d = taubnut.generate_taubnut(1, 1, seed=5, exact=True)
    bm = taubnut._big_monad_unchecked(d)
    rng = np.random.default_rng(7)
    for _ in range(20):
        num = [nk.GQ(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
               for _ in range(2)]
        den = nk.GQ(int(rng.integers(1, 5)))
        pt = (num[0] / den, num[1] / den)
        m = bm.evaluate(pt)
        assert m.residual == 0.0
        assert mc.fiber(m).dim == 2


def test_chart_mismatch():
    sm = caloron.small_monad(k1_example())
    with pytest.raises(mc.ChartMismatch):
        sections_on_line(sm, Line("L_psi", 1.0), 0)
    with pytest.raises(mc.ChartMismatch):
        Line("bogus", 1.0)


# ---------------------------------------------------------------------------
# sections and splitting


def trivial_rank2():
    return mc.ParamMonad(
        "xi_eta", ([], [mc.BlockSpec("W", mc.o_pp(0, 0), 2)], []),
        mc.PolyMatrix((2, 0)), mc.PolyMatrix((0, 2)))


def test_sections_trivial_bundle():
    pm = trivial_rank2()
    assert sections_on_line(pm, Line("B_eta", 1.3), -1).dimension == 0
    assert sections_on_line(pm, Line("B_eta", 1.3), 0).dimension == 2


def test_sections_jumping_line_k1():
    sm = caloron.small_monad(k1_example())
    # eta = 0 is the single root of det(eta - B)
    s = sections_on_line(sm, Line("B_eta", 0.0), -1)
    assert s.dimension >= 1
    for v in s.basis:
        assert np.linalg.norm(v) > 0


def test_splitting_types_caloron():
    sm = caloron.small_monad(k1_example())
    assert splitting_type(sm, Line("B_eta", 0.0)) == (1, -1)
    assert splitting_type(sm, Line("B_eta", 2.3)) == (0, 0)
    assert splitting_type(sm, Line("B_eta", -1.0 + 0.5j)) == (0, 0)


def test_splitting_types_k2():
    d = caloron.generate_caloron(2, 1, seed=13)
    sm = caloron.small_monad(d)
    evs = np.linalg.eigvals(nk.to_float(d.B))
    assert abs(evs[0] - evs[1]) > 0.5
    for ev in evs:
        assert splitting_type(sm, Line("B_eta", complex(ev))) == (1, -1)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        z = complex(rng.standard_normal() * 3 + 1j * rng.standard_normal() * 3)
        if min(abs(z - e) for e in evs) < 0.3:
            continue
        assert splitting_type(sm, Line("B_eta", z)) == (0, 0)
        checked += 1


def test_splitting_types_taubnut_h1_piece():
    """On the blown-up chart the twisted-down count comes entirely from the
    first-cohomology correction; it must still see exactly the B0 spectrum."""
    bm = taubnut._big_monad_unchecked(k1m1_taubnut())
    s = sections_on_line(bm, Line("B_eta", 6.0), -1)
    assert s.dimension == 1 and s.h1_dim == 1
    assert splitting_type(bm, Line("B_eta", 6.0)) == (1, -1)
    assert splitting_type(bm, Line("B_eta", 1.9)) == (0, 0)


def test_sections_other_rulings():
    bm = taubnut._big_monad_unchecked(k1m1_taubnut())
    for kind, val in (("L_xi", 1.3), ("L_psi", 0.8)):
        assert sections_on_line(bm, Line(kind, val), 0).dimension == 2
        assert sections_on_line(bm, Line(kind, val), -1).dimension == 0


def test_fiber_dim_constant_sweep():
    d = taubnut.generate_taubnut(2, 1, seed=4)
    bm = taubnut._big_monad_unchecked(d)
    rng = np.random.default_rng(3)
    dims = {mc.fiber_dim(bm.evaluate(p))
            for p in mc.random_chart_points(50, rng)}
    assert dims == {2}


# ---------------------------------------------------------------------------
# the coefficient tensor and the batched engine


def _float_monads():
    d = taubnut.generate_taubnut(2, 2, seed=3)
    yield taubnut.big_monad(d)
    yield taubnut.big_monad(taubnut.generate_taubnut(3, 0, seed=1))
    yield caloron.big_monad(caloron.generate_caloron(2, 1, seed=2))
    yield caloron.small_monad(caloron.generate_caloron(2, 0, seed=2))
    yield taubnut._big_monad_unchecked(
        taubnut.generate_taubnut(1, 1, seed=5, exact=True)).to_float()


def _monomial_sum(poly, x, y):
    """A float matrix polynomial at (x, y), summed monomial by monomial: the
    test-side oracle of ParamMonad.evaluate."""
    return sum((M * x ** p * y ** q for (p, q), M in poly.coeffs.items()),
               np.zeros(poly.shape, dtype=complex))


def _near_monomial_sum(got, poly, x, y):
    want = _monomial_sum(poly, x, y)
    return np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want),
                                                     1.0)


def test_evaluate_many_matches_per_point():
    rng = np.random.default_rng(8)
    pts = mc.random_chart_points(40, rng) + [(0.0, 0.0), (1.5, 0.0)]
    for pm in _float_monads():
        alpha, beta, residual = pm.evaluate_many(pts)
        assert alpha.shape == (len(pts), *pm.alpha.shape)
        for i, p in enumerate(pts):
            one = pm.evaluate(p)
            for got, want in ((alpha[i], one.alpha), (beta[i], one.beta)):
                assert np.linalg.norm(got - want) <= 1e-14 * max(
                    np.linalg.norm(want), 1.0)
            assert abs(residual[i] - one.residual) <= 1e-14
            assert _near_monomial_sum(one.alpha, pm.alpha, *p)


def test_fiber_dims_matches_fiber_dim():
    rng = np.random.default_rng(9)
    pts = mc.random_chart_points(60, rng)
    for pm in _float_monads():
        dims, margins = mc.fiber_dims(pm, pts)
        assert dims == [mc.fiber_dim(pm.evaluate(p)) for p in pts]
        assert set(dims) == {2}
        assert all(np.isfinite(g) and g >= nk.DEFAULT_CTX.gap_factor
                   for g in margins)
    assert mc.fiber_dims(trivial_rank2(), pts[:3]) == ([2] * 3, [np.inf] * 3)
    assert mc.fiber_dims(pm, []) == ([], [])


_COMBOS = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)]


def _generator_draws(seed=0):
    """The float generator draws of both flavors and every (k, m) at the
    seed, each with the monad a fiber request builds."""
    for k, m in _COMBOS:
        d = caloron.generate_caloron(k, m, seed=seed)
        yield d, caloron.big_monad(d) if m else caloron.small_monad(d)
        d = taubnut.generate_taubnut(k, m, seed=seed)
        yield d, taubnut.big_monad(d)


def _generator_monads(seed=0):
    """The monads of the float generator draws at the seed, and an exact
    draw (seed 4 + seed) after to_float."""
    for _, pm in _generator_draws(seed):
        yield pm
    yield caloron.big_monad(
        caloron.generate_caloron(2, 1, seed=4 + seed, exact=True)).to_float()


def test_single_point_path_equals_the_batch():
    """evaluate and fiber_dim at one point give the values of evaluate_many
    and fiber_dims at that point bit for bit, and both maps are their
    monomial sums to rounding: on the generator monads of seeds 0-2 at 37
    points each, 1,665 points."""
    rng = np.random.default_rng(19)
    # 37 points; the last 22 come from their own generator, so rng still
    # draws the same dense maps below
    pts = (mc.random_chart_points(12, rng) + [(0.0, 0.0), (1.5, 0.0), (2, -1)]
           + mc.random_chart_points(22, np.random.default_rng(20)))
    for pm in (pm for seed in range(3) for pm in _generator_monads(seed)):
        alpha, beta, residual = pm.evaluate_many(pts)
        dims = mc.fiber_dims(pm, pts)[0]
        for i, p in enumerate(pts):
            one = pm.evaluate(p)
            assert np.array_equal(one.alpha, alpha[i])
            assert np.array_equal(one.beta, beta[i])
            assert one.residual == residual[i]
            assert _near_monomial_sum(alpha[i], pm.alpha, *p)
            assert _near_monomial_sum(beta[i], pm.beta, *p)
            assert mc.fiber_dim(one) == mc.fiber_dims(pm, [p])[0][0] \
                == dims[i] == 2
    # dense maps, where every entry sums several monomials: a product of
    # many weight rows may round in another order than one row, so the
    # batch compared against is evaluate_many at that one point
    keys = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)]
    alpha, beta = (mc.PolyMatrix(shape, {key: rng.standard_normal(shape) +
                                         1j * rng.standard_normal(shape)
                                         for key in keys})
                   for shape in ((4, 3), (2, 4)))
    pm = mc.ParamMonad("xi_eta", ([mc.BlockSpec("U", {}, 3)],
                                  [mc.BlockSpec("V", {}, 4)],
                                  [mc.BlockSpec("W", {}, 2)]), alpha, beta)
    for p in pts:
        one, (a, b, res) = pm.evaluate(p), pm.evaluate_many([p])
        assert np.array_equal(one.alpha, a[0])
        assert np.array_equal(one.beta, b[0])
        assert one.residual == res[0]
        assert _near_monomial_sum(a[0], alpha, *p)


def test_shared_weight_row_keeps_each_map_bit_for_bit():
    """alpha and beta of different monomials, in different orders: a
    monad's evaluate and evaluate_many, through the one weight row both
    maps read, give each map byte for byte as a monad whose other map has
    no monomials, whose row is that map's alone, and evaluate the residual
    of those two.  Each is its monomial sum to rounding.  An exact monad
    refuses evaluate_many."""
    rng = np.random.default_rng(30)

    def dense(shape, keys):
        return mc.PolyMatrix(shape, {key: rng.standard_normal(shape) +
                                     1j * rng.standard_normal(shape)
                                     for key in keys})
    alpha = dense((4, 3), [(2, 1), (0, 0), (1, 0)])
    beta = dense((2, 4), [(0, 1), (1, 3), (0, 0), (3, 0), (1, 0)])
    cols = ([mc.BlockSpec("U", {}, 3)], [mc.BlockSpec("V", {}, 4)],
            [mc.BlockSpec("W", {}, 2)])
    pm = mc.ParamMonad("xi_eta", cols, alpha, beta)
    alone_a = mc.ParamMonad("xi_eta", cols, alpha, mc.PolyMatrix(beta.shape))
    alone_b = mc.ParamMonad("xi_eta", cols, mc.PolyMatrix(alpha.shape), beta)
    pts = mc.random_chart_points(15, rng)
    for p in pts:
        one = pm.evaluate(p)
        a, b = alone_a.evaluate(p).alpha, alone_b.evaluate(p).beta
        assert one.alpha.tobytes() == a.tobytes()
        assert one.beta.tobytes() == b.tobytes()
        assert one.residual == mc._norms(b @ a) / max(
            mc._norms(a) * mc._norms(b), 1e-300)
        assert _near_monomial_sum(a, alpha, *p)
        assert _near_monomial_sum(b, beta, *p)
    a, b, _ = pm.evaluate_many(pts)
    assert a.tobytes() == alone_a.evaluate_many(pts)[0].tobytes()
    assert b.tobytes() == alone_b.evaluate_many(pts)[1].tobytes()
    exact = taubnut._big_monad_unchecked(
        taubnut.generate_taubnut(1, 1, seed=5, exact=True))
    with pytest.raises(TypeError):
        exact.evaluate_many([(0.5, 0.5)])


def _type_from_counts(pm, line):
    """The splitting type of a line recomputed from its two section counts,
    or "refused" where they are inconsistent."""
    a = sections_on_line(pm, line, -1).dimension
    h0 = sections_on_line(pm, line, 0).dimension
    return (a, -a) if h0 == (a + 1 if a else 2) else "refused"


def test_splitting_builds_no_section_basis(monkeypatch):
    """splitting_type reads section counts only: over the float generator
    monads of seed 0, on their spectrum lines with |eta| >= 0.2 and three
    off-spectrum lines each, the quotient's construction step never runs,
    and each type is the one its section counts give.  A basis is built
    when it is first read, and once."""
    built = [0]
    construct = nk._quotient_basis

    def counted(*args):
        built[0] += 1
        return construct(*args)
    monkeypatch.setattr(nk, "_quotient_basis", counted)
    rng = np.random.default_rng(30)
    lines = 0
    for d, pm in _generator_draws():
        spec = np.linalg.eigvals(nk.to_float(d.B0 if hasattr(d, "B0") else d.B))
        off = []
        while len(off) < 3:
            z = complex(rng.standard_normal() * 2 + 1j * rng.standard_normal() * 2)
            if abs(z) >= 0.2 and np.min(np.abs(spec - z)) >= 0.3:
                off.append(z)
        for z in [complex(ev) for ev in spec if abs(ev) >= 0.2] + off:
            line = Line("B_eta", z)
            try:
                got = splitting_type(pm, line)
            except mc.InconsistentSplitting:
                got = "refused"
            assert got == _type_from_counts(pm, line)
            if z in off:
                assert got == (0, 0)
            lines += 1
    assert lines > 14 * 3 and built[0] == 0
    s = sections_on_line(pm, Line("B_eta", off[0]), 0)
    assert built[0] == 0
    assert len(s.basis) == s.dimension - s.h1_dim and s.basis is s.basis
    assert built[0] == 1


def _old_counts(pm, line, d, ctx=nk.DEFAULT_CTX):
    """(dimension, h1_dim) of a section count as it was decided from bases:
    the kernel basis of the section equations, the quotient decision on it,
    and the connecting rank from the rank of a full SVD."""
    system = mc._LineSystem(pm, line)
    plan = pm._plans.get((line.kind, d))
    if plan is None:
        plan = pm._plans[line.kind, d] = mc._SectionPlan(pm.cols,
                                                         system.ruling, d)
    h0 = h1 = 0
    if plan.lay2.size:
        kern = nk.rank_kernel(system._matrix(plan.E), ctx)
        Aim = system._matrix(plan.Aim, strict=True)
        h0 = nk._quotient_decision(kern, Aim, ctx)[2]
    if plan.lay1_h1.size:
        ker_h1 = np.eye(plan.lay1_h1.size, dtype=complex) if plan.H is None \
            else nk.rank_kernel(system._matrix(plan.H), ctx)
        if ker_h1.shape[1]:
            h1 = ker_h1.shape[1] - _old_connecting_rank(system, plan, ker_h1,
                                                        ctx)
    return h0 + h1, h1


def _old_connecting_rank(system, plan, ker_h1, ctx):
    full, band, regular, reg, middle = plan.connecting
    images = system._matrix(full) @ ker_h1
    scale = max(1.0, np.max(np.abs(images))) if images.size else 1.0
    if np.max(np.abs(images[band]), initial=0.0) > mc._H1_BAND_TOL * scale:
        raise mc.InternalTwistError("H^1 kernel class keeps a residual band")
    d2_vals = system._matrix(reg) @ images[regular]
    if not d2_vals.size or np.max(np.abs(d2_vals)) <= mc._D2_TOL * scale:
        return 0
    proj = d2_vals if middle is None else \
        _left_kernel(system._matrix(middle), ctx).conj().T @ d2_vals
    if not proj.size or np.max(np.abs(proj)) <= mc._D2_TOL * scale:
        return 0
    return proj.shape[1] - nk.rank_kernel(proj, ctx).shape[1]


def _left_kernel(M, ctx):
    """The left kernel of M as the trailing left singular vectors of its
    full SVD, past the rank of the cut; the identity for an empty or zero
    M."""
    if not M.size:
        return np.eye(M.shape[0], dtype=complex)
    U, s, _ = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    return U[:, ctx.rank_cut(s.tolist())[0]:]


def _counted_or_refused(count, *args):
    try:
        return count(*args)
    except nk.BowmonadError as e:
        return type(e).__name__


def test_values_only_counts_match_the_basis_route(monkeypatch):
    """Float generator monads of both flavors at every (k, m), seeds 0-11,
    on each draw's spectrum lines and three off-spectrum lines, d = -2..1:
    the section count from singular values gives the dimension and H^1
    share (or the refusal) of the route through kernel and image bases.
    On these systems the containment bound decides alone: the count never
    falls back to the kernel basis."""
    fallbacks = [0]
    decide = nk._quotient_decision

    def counted(*args):
        fallbacks[0] += 1
        return decide(*args)
    rng = np.random.default_rng(34)
    compared, outcomes = 0, set()
    for seed in range(12):
        for k, m in _COMBOS:
            for flavor in ("caloron", "taubnut"):
                if flavor == "caloron":
                    d = caloron.generate_caloron(k, m, seed=seed)
                    pm = caloron.big_monad(d) if m else caloron.small_monad(d)
                else:
                    d = taubnut.generate_taubnut(k, m, seed=seed)
                    pm = taubnut.big_monad(d)
                spec = np.linalg.eigvals(nk.to_float(
                    d.B0 if hasattr(d, "B0") else d.B))
                lines = [complex(ev) for ev in spec]
                while len(lines) < len(spec) + 3:
                    z = complex(rng.standard_normal() * 2
                                + 1j * rng.standard_normal() * 2)
                    if np.min(np.abs(spec - z)) >= 0.3:
                        lines.append(z)
                for z in lines:
                    line = Line("B_eta", z)
                    for dd in range(-2, 2):
                        want = _counted_or_refused(_old_counts, pm, line, dd)
                        monkeypatch.setattr(nk, "_quotient_decision", counted)
                        s = _counted_or_refused(sections_on_line, pm, line, dd)
                        monkeypatch.setattr(nk, "_quotient_decision", decide)
                        got = s if isinstance(s, str) else (s.dimension,
                                                            s.h1_dim)
                        assert got == want, (flavor, k, m, seed, z, dd)
                        outcomes.add(got if isinstance(got, str) else got[1])
                        compared += 1
    assert compared > 168 * 4 * 4 and fallbacks[0] == 0
    # counts with and without an H^1 share, and the eta = 0 refusal
    assert {0, 1, "ChartMismatch"} <= outcomes


def _layout_cells(blocks, spans):
    """block, exp and comp of a layout from one (block, exponent, comp)
    tuple per position."""
    cells, col = [], 0
    for ib, (b, (first, last)) in enumerate(zip(blocks, spans)):
        cells += [(ib, e, c) for e in range(first, last + 1)
                  for c in range(col, col + b.rank)]
        col += b.rank
    return np.array(cells, dtype=int).reshape(-1, 3).T


def test_layouts_match_the_per_position_cells(monkeypatch):
    """Every layout that the section plans of the float generator monads
    ask for (seed 0, both rulings of each chart, d = -2..1, the
    connecting-map layouts included) holds the block, exponent and
    component arrays of one tuple per position."""
    made = []
    layout = mc._Layout

    def recorded(blocks, spans):
        made.append((layout(blocks, spans), blocks, spans))
        return made[-1][0]

    monkeypatch.setattr(mc, "_Layout", recorded)
    for pm in _generator_monads():
        for kind in mc._LINE_ENDS[pm.chart]:
            for dd in range(-2, 2):
                try:
                    sections_on_line(pm, Line(kind, 0.8 - 0.3j), dd)
                except nk.BowmonadError:
                    pass
        for key, plan in pm._plans.items():
            if isinstance(key, tuple) and plan.lay1_h1.size:
                plan.connecting
    sizes = set()
    for lay, blocks, spans in made:
        want = _layout_cells(blocks, spans)
        for got, ref in zip((lay.block, lay.exp, lay.comp), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert lay.size == want.shape[1]
        sizes.add(lay.size)
    assert len(made) > 400
    assert 0 in sizes and max(sizes) > 20


def test_fiber_guard_refuses_a_non_complex():
    """beta alpha = 1 at every point: every fiber computation raises
    ImageNotContained instead of returning a dimension."""
    cols = ([mc.BlockSpec("U", {}, 1)], [mc.BlockSpec("V", {}, 2)],
            [mc.BlockSpec("W", {}, 1)])
    pm = mc.ParamMonad("xi_eta", cols,
                       mc.PolyMatrix((2, 1), {(0, 0): np.array([[1.0], [0]])}),
                       mc.PolyMatrix((1, 2), {(0, 0): np.array([[1.0, 0]])}))
    pt = (0.5, 0.5)
    assert pm.evaluate(pt).residual == pytest.approx(1.0)
    with pytest.raises(nk.ImageNotContained):
        mc.fiber_dim(pm.evaluate(pt))
    with pytest.raises(nk.ImageNotContained):
        mc.fiber_dims(pm, [(1.0, 2.0), pt])
    with pytest.raises(nk.ImageNotContained):
        mc.fiber(pm.evaluate(pt))


def _diag_monad(small):
    """alpha = diag(1, small) into a rank-2 middle column, beta = 0."""
    alpha = mc.PolyMatrix((2, 2), {(0, 0): np.diag([1.0, small])})
    return mc.ParamMonad(
        "xi_eta", ([mc.BlockSpec("U", {}, 2)], [mc.BlockSpec("V", {}, 2)], []),
        alpha, mc.PolyMatrix((0, 2)))


def test_full_rank_margin_is_finite_and_can_fail():
    pm = _diag_monad(1e-6)
    dims, margins = mc.fiber_dims(pm, [(0.5, 0.5)])
    assert dims == [0]
    assert margins[0] == pytest.approx(1e4)
    assert mc.fiber_dim(pm.evaluate((0.5, 0.5))) == 0
    pm = _diag_monad(1e-8)
    with pytest.raises(nk.GapTooSmall):
        mc.fiber_dims(pm, [(0.5, 0.5)])
    with pytest.raises(nk.GapTooSmall):
        mc.fiber_dim(pm.evaluate((0.5, 0.5)))


def _value_or_error(f):
    """A function's value, or the type of the library error it raises."""
    try:
        return f()
    except nk.BowmonadError as e:
        return type(e)


def _certified(one):
    return mc._full_rank_certified(nk.to_float(one.alpha),
                                   nk.to_float(one.beta), nk.DEFAULT_CTX)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the np.linalg.svd calls made while the test runs."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _spectrum_points(flavor, data, rng, n):
    """n seeded chart points, then one over each jumping line (eta an
    eigenvalue of B / B0), made as the fiber-sweep benchmark makes them."""
    pts = []
    while len(pts) < n:
        x, y = rng.standard_normal(2) * 2 + 1j * rng.standard_normal(2) * 2
        if abs(x) >= 0.05 and abs(y) >= 0.05:
            pts.append((complex(x), complex(y)))
    x = 1.0 + 0.3j
    edge = data.B0 if hasattr(data, "B0") else data.B
    for ev in np.linalg.eigvals(np.asarray(edge, complex)):
        if flavor == "caloron":
            pts.append((x, complex(ev)))
        elif abs(ev) > 1e-8:             # (xi, psi) chart, eta = xi * psi
            pts.append((x, complex(ev) / x))
    return pts


def test_fiber_dim_certifies_generic_points_without_svd(svd_calls):
    """At the generic points of every float generator draw the Cholesky
    certificate decides fiber_dim, with no SVD, and the dimension is the
    one fiber_dims reads off the singular values.  Where both maps are
    vectors (the caloron k = 1, m = 0 small monad) the two SVDs decide."""
    checked = 0
    for seed in range(4):
        for k, m in _COMBOS:
            for flavor, gen in (("caloron", caloron.generate_caloron),
                                ("taubnut", taubnut.generate_taubnut)):
                d = gen(k, m, seed=seed)
                pm = (caloron.small_monad(d) if flavor == "caloron" and not m
                      else (caloron if flavor == "caloron" else taubnut)
                      .big_monad(d))
                rng = np.random.default_rng(1000 * seed + 10 * k + m)
                vectors = max(min(pm.alpha.shape), min(pm.beta.shape)) == 1
                for p in _spectrum_points(flavor, d, rng, 50):
                    del svd_calls[:]
                    dim = mc.fiber_dim(pm.evaluate(p))
                    assert len(svd_calls) == 2 * vectors, (flavor, k, m,
                                                            seed, p)
                    assert dim == mc.fiber_dims(pm, [p])[0][0] == 2
                    checked += 1
    assert checked > 56 * 50


def test_fiber_dim_on_vector_maps_skips_the_certificate(monkeypatch):
    """On the 4 x 1 alpha and 1 x 4 beta of the caloron k = 1, m = 0 small
    monad fiber_dim never calls the certificate, and reads the dimensions
    of fiber_dims at the generic and the spectrum points."""
    calls, certified = [], mc._full_rank_certified

    def counted(*args):
        calls.append(1)
        return certified(*args)
    monkeypatch.setattr(mc, "_full_rank_certified", counted)
    for seed in range(4):
        d = caloron.generate_caloron(1, 0, seed=seed)
        pm = caloron.small_monad(d)
        assert (pm.alpha.shape, pm.beta.shape) == ((4, 1), (1, 4))
        pts = _spectrum_points("caloron", d, np.random.default_rng(seed), 50)
        dims = [mc.fiber_dim(pm.evaluate(p)) for p in pts]
        assert dims == mc.fiber_dims(pm, pts)[0]
    assert not calls


def test_fiber_dim_certificate_at_planted_boundaries(svd_calls):
    """Near the rank cut, on empty, zero and wide maps and on exact points,
    fiber_dim returns what the SVD route returns or raises what it raises;
    the certificate accepts only with room to spare."""
    pt = (0.5, 0.5)
    for small in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        pm = _diag_monad(small)                 # beta has shape (0, 2)
        one = pm.evaluate(pt)
        want = _value_or_error(lambda: mc.fiber_dims(pm, [pt])[0][0])
        assert _value_or_error(lambda: mc.fiber_dim(one)) == want
        assert want == (0 if small >= 1e-6 else nk.GapTooSmall)
        # the shift (4 * gap_factor * rank_tol)^2 = 1.6e-13 > small^2 at 1e-7
        assert _certified(one) == (small >= 1e-6)

    def monad(alpha):
        n1, n2 = alpha.shape[1], alpha.shape[0]
        return mc.ParamMonad(
            "xi_eta", ([mc.BlockSpec("U", {}, n1)], [mc.BlockSpec("V", {}, n2)],
                       []), mc.PolyMatrix(alpha.shape, {(0, 0): alpha}),
            mc.PolyMatrix((0, n2)))
    rng = np.random.default_rng(5)
    cases = [(np.zeros((3, 2)), False, 3),          # zero alpha: rank 0
             (rng.standard_normal((3, 2)), True, 1),
             (rng.standard_normal((2, 3)), True, 0)]  # wide alpha: rank 2
    for alpha, certified, dim in cases:
        pm = monad(alpha)
        one = pm.evaluate(pt)
        assert _certified(one) is certified
        assert mc.fiber_dim(one) == mc.fiber_dims(pm, [pt])[0][0] == dim

    exact = taubnut._big_monad_unchecked(
        taubnut.generate_taubnut(2, 1, seed=5, exact=True))
    for p in ((Fraction(1, 3), Fraction(-2, 7)), (2, 3)):
        one = exact.evaluate(p)
        assert nk.is_exact(one.alpha) and _certified(one)
        del svd_calls[:]
        assert mc.fiber_dim(one) == 2 and not svd_calls
        assert mc.fiber_dims(exact.to_float(), [p])[0][0] == 2

    # the isolated point where the k = 2, m = 0 fused monad drops rank
    # (ROADMAP item 1): the certificate refuses and the SVDs read 3
    pm = taubnut.big_monad(taubnut.generate_taubnut(2, 0, seed=0))
    one = pm.evaluate((60, -1 / 12))
    assert not _certified(one)
    assert mc.fiber_dim(one) == mc.fiber_dims(pm, [(60, -1 / 12)])[0][0] == 3
    # a margin no cut can meet: the certificate leaves the refusal to the SVDs
    for gap in (np.inf, np.nan):
        ctx = nk.ToleranceContext(rank_tol=1e-4, gap_factor=gap)
        for call in (lambda: mc.fiber_dim(pm.evaluate(pt), ctx),
                     lambda: mc.fiber_dims(pm, [pt], ctx)):
            with pytest.raises(nk.GapTooSmall):
                call()


def test_far_chart_points_are_left_to_the_svds():
    """At far chart points the unscaled maps make the relative cut read a
    rank drop (6 and 4, not 2, for this draw; see CHANGES.md).  The
    certificate refuses there, so fiber_dim keeps the SVD answer, the same
    as fiber_dims."""
    pm = taubnut.big_monad(taubnut.generate_taubnut(2, 1, seed=0))
    for p in ((1e20, 1e20), (1e40, 1.0)):
        one = pm.evaluate(p)
        assert not _certified(one)
        assert mc.fiber_dim(one) == mc.fiber_dims(pm, [p])[0][0]


def test_fiber_guard_refuses_maps_that_are_not_finite():
    """alpha = (x^9, 0) at x = 1e40 overflows: the residual is nan, and each
    fiber computation refuses it with ImageNotContained, naming alpha,
    where an SVD of the infinite map would raise numpy's LinAlgError."""
    cols = ([mc.BlockSpec("U", {}, 1)], [mc.BlockSpec("V", {}, 2)],
            [mc.BlockSpec("W", {}, 1)])
    pm = mc.ParamMonad("xi_eta", cols,
                       mc.PolyMatrix((2, 1), {(9, 0): np.array([[1.0], [0]])}),
                       mc.PolyMatrix((1, 2), {(0, 0): np.array([[0, 1.0]])}))
    far = (1e40, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        one = pm.evaluate(far)
        assert np.isnan(one.residual)
        for call in (lambda: mc.fiber_dim(one), lambda: mc.fiber(one),
                     lambda: mc.fiber_dims(pm, [(1.0, 1.0), far])):
            with pytest.raises(nk.ImageNotContained, match="alpha not finite"):
                call()
    assert mc.fiber_dim(pm.evaluate((1.0, 1.0))) == 0


def test_blocks_sum_into_read_only_coefficients():
    pt = (0.7 - 0.2j, 1.1 + 0.4j)
    cols = ([mc.BlockSpec("U", {}, 3)], [mc.BlockSpec("V", {}, 2)], [])
    assert np.all(mc.ParamMonad.from_blocks("xi_eta", cols, [], [])
                  .evaluate(pt).alpha == 0)
    pm = mc.ParamMonad.from_blocks("xi_eta", cols, [
        (0, 0, 0, 0, [[1.0, 2.0]]),
        (1, 0, 1, 2, [[1.0]]),                          # a new monomial
        (0, 0, 0, 1, [[3.0]])], [])                     # same monomial again
    alpha = pm.alpha
    assert list(alpha.coeffs) == [(0, 0), (1, 0)]
    assert alpha.coeffs[(0, 0)].tolist() == [[1, 5, 0], [0, 0, 0]]
    assert pm.evaluate(pt).alpha[0, 1] == 5.0
    assert pm.evaluate(pt).alpha[1, 2] == pt[0]
    assert pm.evaluate_many([pt])[0][0, 1, 2] == pt[0]
    # a float block is added, not copied: -0.0 entries land as +0.0
    signs = mc.ParamMonad.from_blocks("xi_eta", cols, [
        (0, 0, 0, 0, -np.eye(2))], []).alpha.C
    assert np.signbit(signs.real).sum() == 2
    with pytest.raises(ValueError):
        mc.PolyMatrix((2, 3), {(2, 0): np.zeros((3, 2))})   # wrong shape
    with pytest.raises(ValueError):
        alpha.coeffs[(0, 0)][0, 0] = 1.0                # views are read-only
    with pytest.raises(ValueError):
        alpha.C[0, 0] = 1.0                             # and C itself
    with pytest.raises(TypeError):
        alpha.coeffs[(0, 1)] = np.ones((2, 3))          # no key is assigned
    comp = alpha.compose(mc.PolyMatrix((3, 1), {(0, 0): np.ones((3, 1)),
                                                (4, 0): np.ones((3, 1))}))
    assert list(comp.coeffs) == [(0, 0), (4, 0), (1, 0), (5, 0)]
    assert _monomial_sum(comp, *pt)[0, 0] == pytest.approx(
        6 + 6 * pt[0] ** 4, rel=1e-15)
    assert _monomial_sum(comp, *pt)[1, 0] == pytest.approx(
        pt[0] + pt[0] ** 5, rel=1e-15)
    with pytest.raises(TypeError):
        comp.coeffs[(5, 0)] = np.ones((2, 1))


def test_payload_past_the_matrix_edge_raises():
    cols = ([mc.BlockSpec("U", {}, 3)], [mc.BlockSpec("V", {}, 2)], [])
    for exact in (False, True):
        block = nk.exact_matrix if exact else np.array
        corner = (0, 0, 1, 1, block([[1, 2]]))          # ends at the corner
        pm = mc.ParamMonad.from_blocks("xi_eta", cols, [corner], [])
        assert pm.exact == exact
        assert list(pm.alpha.coeffs) == [(0, 0)]
        assert np.all(pm.alpha.coeffs[(0, 0)] == block([[0, 0, 0], [0, 1, 2]]))
        for r0, c0, payload in ((1, 2, [[1, 2]]), (0, 0, [[1], [1], [1]]),
                                (2, 0, [[1]])):
            with pytest.raises(ValueError, match="leaves"):
                mc.ParamMonad.from_blocks(
                    "xi_eta", cols, [corner, (0, 0, r0, c0, block(payload))],
                    [])
        with pytest.raises(ValueError, match="leaves"):      # beta is 0 x 2
            mc.ParamMonad.from_blocks("xi_eta", cols, [],
                                      [(0, 0, 0, 0, block([[1]]))])


def test_backend_is_read_off_the_data():
    """A monad is exact when its payloads, or its maps' coefficients, are:
    all exact gives an exact monad, all float (or none at all) a float one,
    and a mix raises TypeError, within one map or across the two."""
    cols = ([mc.BlockSpec("U", {}, 1)], [mc.BlockSpec("V", {}, 2)],
            [mc.BlockSpec("W", {}, 1)])
    a, b = [[1], [2]], [[2, -1]]
    floats = mc.ParamMonad.from_blocks("xi_eta", cols, [(0, 0, 0, 0, a)],
                                       [(1, 0, 0, 0, np.array(b))])
    exact = mc.ParamMonad.from_blocks(
        "xi_eta", cols, [(0, 0, 0, 0, nk.exact_matrix(a))],
        [(1, 0, 0, 0, nk.exact_matrix(b))])
    assert not floats.exact and not floats.alpha.exact
    assert exact.exact and exact.alpha.exact and exact.beta.exact
    assert not mc.ParamMonad.from_blocks("xi_eta", cols, [], []).exact
    pt = (nk.GQ(1, 2), nk.GQ(3))
    assert nk.is_exact(exact.evaluate(pt).alpha)
    assert exact.evaluate(pt).residual == 0.0
    assert not exact.to_float().exact
    for alpha, beta in (([(0, 0, 0, 0, a), (1, 0, 0, 0, nk.exact_matrix(a))],
                         []),
                        ([(0, 0, 0, 0, nk.exact_matrix(a))],
                         [(1, 0, 0, 0, b)])):
        with pytest.raises(TypeError, match="one backend"):
            mc.ParamMonad.from_blocks("xi_eta", cols, alpha, beta)
    with pytest.raises(TypeError, match="one backend"):
        mc.ParamMonad("xi_eta", cols, exact.alpha, floats.beta)
    with pytest.raises(TypeError, match="one backend"):
        mc.PolyMatrix((2, 1), {(0, 0): np.array(a),
                               (1, 0): nk.exact_matrix(a)})


def test_param_monad_allocates_maps_and_rejects_repeated_labels():
    cols = ([mc.BlockSpec("U", {}, 1)],
            [mc.BlockSpec("V", {}, 2), mc.BlockSpec("W", {}, 1)],
            [mc.BlockSpec("Q", {}, 1)])
    pm = mc.ParamMonad.from_blocks("xi_eta", cols, [], [])
    assert pm.start == {"U": 0, "V": 0, "W": 2, "Q": 0}
    assert (pm.alpha.shape, pm.beta.shape) == ((3, 1), (1, 3))
    assert not pm.alpha.coeffs and not pm.beta.coeffs
    for repeated in ((cols[0], cols[1], [mc.BlockSpec("U", {}, 1)]),
                     (cols[0], cols[1] + [mc.BlockSpec("V", {}, 1)], [])):
        with pytest.raises(ValueError, match="repeated block label"):
            mc.ParamMonad.from_blocks("xi_eta", repeated, [], [])
        with pytest.raises(ValueError, match="repeated block label"):
            mc.block_starts(repeated)


def test_exact_evaluate_and_to_float_stay_exact():
    d = taubnut.generate_taubnut(2, 1, seed=5, exact=True)
    bm = taubnut._big_monad_unchecked(d)
    pt = (nk.GQ(1, 2), nk.GQ(-3, 1))
    m = bm.evaluate(pt)
    for poly, val in ((bm.alpha, m.alpha), (bm.beta, m.beta)):
        want = nk.exact_zeros(*poly.shape)
        for (p, q), mat in poly.coeffs.items():
            want = want + mat * (pt[0] ** p * pt[1] ** q)
        assert nk.is_exact(val) and val == want
        flt = poly.to_float()
        assert list(flt.coeffs) == list(poly.coeffs)
        for key, mat in poly.coeffs.items():
            assert np.array_equal(flt.coeffs[key], nk.to_float(mat))
    with pytest.raises(TypeError):
        bm.evaluate_many([(0.5, 0.5)])


COMBOS = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))


def _entries(M):
    """An exact matrix as an object array of the GaussianRationals it
    holds."""
    out = np.empty(M.shape, dtype=object)
    for idx in np.ndindex(M.shape):
        out[idx] = M[idx]
    return out


def _add_monomial_reference(shape, blocks, exact):
    """Block assembly as a mutable matrix polynomial did it: per block, copy
    the monomial's coefficient (a zero matrix for a new monomial), add the
    payload into it and write the matrix back.  Exact coefficients are
    object arrays of GaussianRationals, summed entry by entry."""
    coeffs = {}
    for p, q, r0, c0, payload in blocks:
        payload = _entries(payload) if exact else np.asarray(payload)
        h, w = np.shape(payload)
        key = (p, q)
        tgt = coeffs[key].copy() if key in coeffs else \
            np.full(shape, nk.GQ(0), dtype=object) if exact else \
            np.zeros(shape, dtype=complex)
        blk = tgt[r0:r0 + h, c0:c0 + w]
        blk[...] = blk + payload
        coeffs[key] = tgt
    return coeffs


def _builder_monads(backends=(False, True)):
    """Every monad builder on both data flavors at every (k, m) pair, seeds
    0 and 1, on both backends (or on those given)."""
    out = []
    for exact in backends:
        for k, m in COMBOS:
            for seed in (0, 1):
                dc = caloron.generate_caloron(k, m, seed=seed, exact=exact)
                dt = taubnut.generate_taubnut(k, m, seed=seed, exact=exact)
                out += [caloron.small_monad(dc),
                        taubnut._big_monad_unchecked(dt)]
                if m:
                    out += [caloron.big_monad(dc),
                            taubnut.psi_pushdown_monad(dt)]
                if m <= 1:
                    out.append(nahmbow.finite_monad_family(
                        taubnut.to_bow_complex(dt)))
    return out


def test_builders_match_per_block_assembly(monkeypatch):
    """Every tensor a builder makes is the one the per-block reference sums
    from the same blocks: key order, C bytes on floats and the float
    exponents of the monad's weight row, the value of every entry on the
    exact backend."""
    built = []
    from_blocks = mc.ParamMonad.from_blocks.__func__

    def capture(cls, chart, cols, alpha, beta):
        alpha, beta = list(alpha), list(beta)
        pm = from_blocks(cls, chart, cols, alpha, beta)
        built.append((pm, alpha, beta))
        return pm

    monkeypatch.setattr(mc.ParamMonad, "from_blocks", classmethod(capture))
    monads = _builder_monads()
    assert len(monads) == 2 * 2 * (7 * 2 + 4 * 2 + 5)
    # validation builds monads of its own, checked here as well
    assert {id(pm) for pm in monads} <= {id(pm) for pm, _, _ in built}
    for pm, *blocks in built:
        if not pm.exact:
            # alpha's monomials, then those only beta has
            keys = list(dict.fromkeys([*pm.alpha.coeffs, *pm.beta.coeffs]))
            monomials, P, Q, at_beta = pm._weights
            assert monomials == keys
            assert P.tobytes() == np.array([p for p, _ in keys],
                                           float).tobytes()
            assert Q.tobytes() == np.array([q for _, q in keys],
                                           float).tobytes()
            assert [keys[j] for j in at_beta] == list(pm.beta.coeffs)
        for poly, blks in zip((pm.alpha, pm.beta), blocks):
            want = _add_monomial_reference(poly.shape, blks, pm.exact)
            assert list(poly.coeffs) == list(want)
            C = np.stack([M.ravel() for M in want.values()])
            if pm.exact:
                assert poly.C.shape == C.shape
                assert all(poly.C[idx] == C[idx] for idx in np.ndindex(C.shape))
            else:
                assert poly.C.dtype == complex
                assert poly.C.tobytes() == C.tobytes()


def _reference_compose(left, right):
    """left o right as one exact product per monomial: the factors of its
    pairs side by side times the stacked partners, in Q(i) arithmetic on
    object arrays of GaussianRationals."""
    factors = {}
    for (p1, q1), m1 in left.coeffs.items():
        for (p2, q2), m2 in right.coeffs.items():
            lf, rf = factors.setdefault((p1 + p2, q1 + q2), ([], []))
            lf.append(_entries(m1))
            rf.append(_entries(m2))
    return {key: np.dot(np.hstack(lf), np.vstack(rf))
            for key, (lf, rf) in factors.items()}


def _reference_composite_residual(pm):
    comp = _reference_compose(pm.beta, pm.alpha)
    if all(not x for m in comp.values() for x in m.flat):
        return 0.0
    return max(float(np.linalg.norm([[complex(x.re) + 1j * complex(x.im)
                                      for x in row] for row in m]))
               for m in comp.values())


def _broken_exact_monad():
    """An exact fused monad with one beta coefficient moved off by a
    Gaussian rational, so that beta o alpha does not vanish."""
    pm = taubnut._big_monad_unchecked(
        taubnut.generate_taubnut(2, 1, seed=0, exact=True))
    coeffs = dict(pm.beta.coeffs)
    unit = np.zeros(pm.beta.shape, dtype=int)
    unit[0, 0] = 1
    coeffs[0, 0] = coeffs[0, 0] + nk.int_matrix(unit, True) * nk.GQ(
        Fraction(1, 3), Fraction(-2, 7))
    beta = mc.PolyMatrix(pm.beta.shape, coeffs)
    return mc.ParamMonad(pm.chart, pm.cols, pm.alpha, beta)


def test_exact_compose_matches_per_key_products():
    """The composite of every exact monad the builders make from exact
    data (finite_monad_family makes float monads) and of a monad whose
    composite does not vanish, against one split-and-joined product per
    monomial in Q(i) arithmetic: the same keys in the same order and the
    same values; composite_residual against the reference's, bit for
    bit."""
    monads = [pm for pm in _builder_monads(backends=(True,)) if pm.exact]
    assert len(monads) == 2 * (7 * 2 + 4 * 2)
    broken = _broken_exact_monad()
    for pm in monads + [broken]:
        comp = pm.composite()
        want = _reference_compose(pm.beta, pm.alpha)
        assert list(comp.coeffs) == list(want)
        for key, mat in want.items():
            got = comp.coeffs[key]
            assert nk.is_exact(got) and got.shape == mat.shape
            assert all(got[idx] == mat[idx] for idx in np.ndindex(mat.shape))
        res = pm.composite_residual()
        assert type(res) is float
        assert res == _reference_composite_residual(pm)
        assert (res > 0.0) == (pm is broken)


# ---------------------------------------------------------------------------
# Laurent section systems



def _offsets(pm, col):
    """(start, stop) row or column range of each block of a column."""
    return [(pm.start[b.label], pm.start[b.label] + b.rank)
            for b in pm.cols[col]]


def reference_block_action(pm, which, line, src, dst, strict):
    """The per-entry assembly of a section system: every monomial x source
    (block, exponent) x destination block, one zero test and one slot
    lookup each; a nonzero block without a target slot overflows."""
    poly, rows, cols = ((pm.alpha, 1, 0) if which == "alpha"
                        else (pm.beta, 2, 1))
    sub = mc._substitution(pm.chart, line)
    roff, coff = _offsets(pm, rows), _offsets(pm, cols)
    src_entries = [(ib, first + i, base + i * rk, rk)
                   for ib, (first, count, base, rk) in enumerate(src.blocks)
                   for i in range(count)]
    dst_slot = {(ib, first + i): base + i * rk
                for ib, (first, count, base, rk) in enumerate(dst.blocks)
                for i in range(count)}
    A = np.zeros((dst.size, src.size), dtype=complex)
    overflow = False
    for (p, q), mat in poly.coeffs.items():
        matf = nk.to_float(mat)
        shift, factor = sub(p, q)
        for ib_src, e, pos_src, rk_src in src_entries:
            c0, c1 = coff[ib_src]
            for ib_dst, (r0, r1) in enumerate(roff):
                blk = matf[r0:r1, c0:c1]
                if not blk.size or np.max(np.abs(blk)) == 0.0:
                    continue
                slot = dst_slot.get((ib_dst, e + shift))
                if slot is None:
                    overflow = True
                    continue
                A[slot:slot + (r1 - r0), pos_src:pos_src + rk_src] += \
                    factor * blk
    if strict and overflow:
        raise mc.InternalTwistError("map leaves the declared Laurent windows")
    return A


@pytest.fixture
def checked_systems(monkeypatch):
    """Compare every matrix sections_on_line assembles from its plans with
    the per-entry reference on the monad's current coefficients, bit for
    bit; yields the list of (map, strict) assembled."""
    seen = []
    real_matrix = mc._LineSystem._matrix

    def checked(system, placement, strict=False):
        try:
            want = reference_block_action(system.pm, placement.which,
                                          system.line, placement.src,
                                          placement.dst, strict)
        except mc.InternalTwistError:
            with pytest.raises(mc.InternalTwistError):
                real_matrix(system, placement, strict)
            raise
        got = real_matrix(system, placement, strict)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        seen.append((placement.which, strict))
        return got

    monkeypatch.setattr(mc._LineSystem, "_matrix", checked)
    return seen


def _line_monads():
    """Both flavors at every (k, m) pair with their spectrum, plus an exact
    monad and the Taub-NUT H^1 example."""
    for k, m in COMBOS:
        d = caloron.generate_caloron(k, m, seed=3)
        pm = caloron.big_monad(d) if m else caloron.small_monad(d)
        yield pm, np.linalg.eigvals(nk.to_float(d.B if m else d.B0))
        d = taubnut.generate_taubnut(k, m, seed=3)
        yield taubnut.big_monad(d), np.linalg.eigvals(nk.to_float(d.B0))
    d = taubnut.generate_taubnut(1, 1, seed=5, exact=True)
    yield taubnut._big_monad_unchecked(d), np.linalg.eigvals(nk.to_float(d.B0))
    yield taubnut._big_monad_unchecked(k1m1_taubnut()), [6.0]


def test_section_systems_match_per_entry_assembly(checked_systems):
    charts, outcomes = set(), 0
    for pm, spectrum in _line_monads():
        kinds = mc._LINE_ENDS[pm.chart]
        charts.add(pm.chart)
        for kind in kinds:
            values = [1.3 - 0.4j] + ([complex(e) for e in spectrum]
                                     if kind == "B_eta" else [])
            for v in values:
                for d in range(-3, 2):
                    try:
                        sections_on_line(pm, Line(kind, v), d)
                        outcomes += 1
                    except nk.BowmonadError:
                        pass
    assert charts == {"xi_eta", "xi_psi"} and outcomes > 300
    # the H^1 systems (the only alpha systems built without strict) included
    assert checked_systems.count(("alpha", False)) > 50
    assert {("alpha", True), ("beta", False)} <= set(checked_systems)


def _shift_monad(coeff):
    """alpha = coeff * xi from a trivial line into a trivial line: on a
    B ruling line of the (xi, eta) chart it raises the t-exponent by one,
    out of the degree-0 window."""
    return mc.ParamMonad(
        "xi_eta", ([mc.BlockSpec("U", {}, 1)], [mc.BlockSpec("V", {}, 1)], []),
        mc.PolyMatrix((1, 1), {(1, 0): np.array([[coeff]])}),
        mc.PolyMatrix((0, 1)))


def test_out_of_window_map_raises():
    with pytest.raises(mc.InternalTwistError):
        sections_on_line(_shift_monad(1.0), Line("B_eta", 0.5), 0)
    # a zero coefficient places nothing, so nothing leaves the windows
    assert sections_on_line(_shift_monad(0.0), Line("B_eta", 0.5),
                            0).dimension == 1


def _window_edge_monad():
    """alpha of three monomials from one left block into two middle blocks
    on the (xi, psi) chart: on B_eta lines it sends an exponent out of the
    middle windows at some twists d and not at others."""
    return mc.ParamMonad.from_blocks("xi_psi", (
        [mc.BlockSpec("U", {"Cinf": -3}, 1)],
        [mc.BlockSpec("V", {"C0": 5, "Cinf": -3}, 1),
         mc.BlockSpec("V2", {"C0": 1, "Cinf": -2}, 1)],
        [mc.BlockSpec("W", {"C0": 5, "Cinf": -3}, 1)]),
        [(0, 0, 0, 0, mk([[1]])), (1, 1, 1, 0, mk([[2]])),
         (1, 0, 0, 0, mk([[3]]))],
        [(0, 0, 0, 0, mk([[1, 5]])), (2, 0, 0, 1, mk([[2]]))])


def test_leaves_matches_the_per_entry_overflow():
    """A strict placement leaves the declared windows exactly where the
    per-entry reference finds a nonzero block without a target slot."""
    seen = set()
    line = Line("B_eta", 0.7)
    for pm in (_window_edge_monad(), _shift_monad(1.0), _shift_monad(0.0)):
        for d in range(-3, 4):
            try:
                sections_on_line(pm, line, d)
            except nk.BowmonadError:
                pass
            aim = pm._plans["B_eta", d].Aim
            if aim is None:
                continue
            try:
                reference_block_action(pm, "alpha", line, aim.src, aim.dst,
                                       True)
                want = False
            except mc.InternalTwistError:
                want = True
            assert aim.leaves == want
            seen.add(want)
    assert seen == {False, True}


def _koszul_monad(n):
    """The Koszul complex of the sections 1 and xi^n of O(n) on the (xi, eta)
    chart: O(0, -1-n) -> O(0, -1)^2 -> O(0, n-1) with alpha = (1, -xi^n)^T
    and beta = (xi^n, 1).  The two sections share no zero on a B_eta line,
    so the complex is exact there."""
    one = mk([[1]])
    return mc.ParamMonad.from_blocks("xi_eta", (
        [mc.BlockSpec("U", mc.o_pp(0, -1 - n), 1)],
        [mc.BlockSpec("S1", mc.o_pp(0, -1), 1),
         mc.BlockSpec("S2", mc.o_pp(0, -1), 1)],
        [mc.BlockSpec("Q", mc.o_pp(0, n - 1), 1)]),
        [(0, 0, 0, 0, one), (n, 0, 1, 0, -one)],
        [(n, 0, 0, 0, one), (0, 0, 0, 1, one)])


@pytest.mark.parametrize("n", [1, 2])
def test_connecting_map_cancels_left_column_h1(n):
    """The Koszul complex has zero cohomology, so h0 = 0 for every twist.
    The left column's H^1 classes that alpha kills only cancel through the
    connecting map into the right column: without it the count reads
    (0, 0, 1, 0, 0) at n = 1 and (0, 1, 2, 1, 0) at n = 2, where the
    middle column also has sections to project off."""
    pm = _koszul_monad(n)
    assert pm.composite_residual() == 0.0
    for z in (0.3, 1.7 - 0.4j):
        assert [sections_on_line(pm, Line("B_eta", z), d).dimension
                for d in range(-2, 3)] == [0] * 5


@pytest.mark.parametrize("k", [1, 2])
def test_pushdown_and_fused_tables_agree_on_l_xi_lines(k):
    """On generic L_xi lines the psi-pushdown and fused Taub-NUT monads both
    read h0 = (0, 0, 2, 4, 6) for d = -2..2, the table of O + O.  The
    pushdown's d = 0 count takes the connecting map modulo beta of the
    middle sections: without that projection it reads 1 (k = 1) or 0
    (k = 2), which no rank-2 degree-0 bundle has."""
    d = taubnut.generate_taubnut(k, 1, seed=0)
    for pm in (taubnut._big_monad_unchecked(d), taubnut.psi_pushdown_monad(d)):
        for v in (0.7 + 0.2j, -0.4 + 1.1j):
            assert [sections_on_line(pm, Line("L_xi", v), dd).dimension
                    for dd in range(-2, 3)] == [0, 0, 2, 4, 6]


def _fresh(pm):
    """A copy of a monad with no section plans yet; the coefficients are
    read-only, so it shares them."""
    return mc.ParamMonad(pm.chart, pm.cols, pm.alpha, pm.beta)


def _outcome(pm, line, d):
    """Everything a section count decides, bytes of the basis included, or
    the refusal's type and message."""
    try:
        s = sections_on_line(pm, line, d)
    except nk.BowmonadError as e:
        return type(e).__name__, str(e)
    return s.dimension, s.h1_dim, [b.tobytes() for b in s.basis]


def test_interleaved_rulings_and_twists_match_fresh_monads():
    """Lines of every ruling of the chart and every twist d = -2..2, taken
    in an interleaved order on one monad (so each call reuses the plans of
    the calls before it), decide exactly what a fresh monad decides."""
    calls = 0
    for pm, spectrum in _line_monads():
        kinds = list(mc._LINE_ENDS[pm.chart])
        values = [1.3 - 0.4j, complex(spectrum[0]), -0.6 + 0.9j]
        for v in values:
            for d in (0, -2, 2, -1, 1):
                for kind in kinds[::-1] if d % 2 else kinds:
                    line = Line(kind, v)
                    assert _outcome(pm, line, d) == \
                        _outcome(_fresh(pm), line, d)
                    calls += 1
    assert calls > 600


def test_refusals_survive_the_plans():
    """The chart and twist refusals read the same with plans in place, on
    every call: a line the chart cannot take, a kind it lacks, a twist that
    contradicts a line's degree and a map that leaves the declared
    windows."""
    pm = taubnut._big_monad_unchecked(k1m1_taubnut())
    for kind in ("B_eta", "L_xi", "L_psi"):
        sections_on_line(pm, Line(kind, 0.8), 0)
        for _ in range(2):
            with pytest.raises(mc.ChartMismatch, match="degenerates|not a line"):
                sections_on_line(pm, Line(kind, 0.0), 0)
    sm = caloron.small_monad(k1_example())
    sections_on_line(sm, Line("B_eta", 0.8), 0)
    for _ in range(2):
        with pytest.raises(mc.ChartMismatch, match="not available"):
            sections_on_line(sm, Line("L_psi", 0.8), 0)
    # C0 meets a B ruling line once, off both ends of its (xi, eta) window
    bad = mc.ParamMonad(
        "xi_eta", ([], [mc.BlockSpec("V", {"C0": 1}, 1)], []),
        mc.PolyMatrix((1, 0)), mc.PolyMatrix((0, 1)))
    for v in (0.8, 0.0, 0.8):
        with pytest.raises(mc.InternalTwistError, match="block V"):
            sections_on_line(bad, Line("B_eta", v), 0)
    shift = _shift_monad(1.0)
    for _ in range(2):
        with pytest.raises(mc.InternalTwistError, match="leaves"):
            sections_on_line(shift, Line("B_eta", 0.5), 0)


def test_plans_are_built_once_per_ruling_and_twist(monkeypatch):
    """Many lines of one ruling at d = -1 and 0 build one _SectionPlan per
    (ruling, d) and one per-ruling entry on a monad; a second ruling adds
    its own."""
    built = []
    plan_init, ruling = mc._SectionPlan.__init__, mc._ruling

    def counted_plan(self, cols, entry, d):
        built.append(("plan", d))
        plan_init(self, cols, entry, d)

    def counted_ruling(pm, kind):
        built.append(("ruling", kind))
        return ruling(pm, kind)

    monkeypatch.setattr(mc._SectionPlan, "__init__", counted_plan)
    monkeypatch.setattr(mc, "_ruling", counted_ruling)
    pm = taubnut._big_monad_unchecked(taubnut.generate_taubnut(2, 1, seed=3))
    values = [0.3, 1.3 - 0.4j, -0.6 + 0.9j, 2.1j, 0.8 + 0.8j]
    for kind in ("B_eta", "L_xi"):
        before = len(built)
        for v in values:
            for d in (-1, 0):
                sections_on_line(pm, Line(kind, v), d)
        assert sorted(built[before:]) == [("plan", -1), ("plan", 0),
                                          ("ruling", kind)]
    assert set(pm._plans) == {"B_eta", ("B_eta", -1), ("B_eta", 0),
                              "L_xi", ("L_xi", -1), ("L_xi", 0)}
