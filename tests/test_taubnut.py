from dataclasses import fields, replace

import numpy as np
import pytest

from bowmonad import caloron as cal, monadcore as mc, numkit as nk, taubnut as tn
from bowmonad.monadcore import Line, splitting_type
from bowmonad.nahmbow import BuildRefused, NotInNormalForm
from normal_form import nudged, right_normal_residual


def mk(rows):
    return np.array(rows, dtype=complex)


def worked_example(**overrides):
    fields = dict(A=mk([[1]]), Bht=mk([[2]]), Bth=mk([[3]]), C=mk([[1, -3]]),
                  D2row=mk([[1]]), Aprime=mk([[3]]), Bprime=mk([[21]]),
                  Cprime=mk([[1, 0]]))
    fields.update(overrides)
    return tn.TaubNutData(1, 1, **fields)


def test_worked_example_relations():
    data = worked_example()
    assert np.allclose(data.B0, [[6]]) and np.allclose(data.B1, [[6]])
    # relation 1 reduces to C D = 0; relation 2 reads 21 - 18 = 3
    r1, r2, r3 = data.relation_residuals()
    assert nk.mat_norm(r1) < 1e-14
    assert nk.mat_norm(r2) < 1e-14
    assert nk.mat_norm(r3) < 1e-14
    assert tn.validate(data).passed


def test_bprime_violation():
    report = tn.validate(worked_example(Bprime=mk([[0]])))
    assert not report["relation_2"].passed
    # the full relation leaves |B'A - A'B0 - C'D| = |0 - 18 - 3| = 21
    assert abs(report["relation_2"].residual - 21.0) < 1e-12


def test_nilpotent_edge_support():
    data = worked_example(Bht=mk([[0]]), Bprime=mk([[-3]]), C=mk([[1, -3]]))
    # B0 = B1 = 0; jumping support is {0} with multiplicity k
    assert np.allclose(data.B0, 0) and np.allclose(data.B1, 0)
    spec_b0, _ = tn.jumping_lines(data)
    assert len(spec_b0) == 1 and abs(spec_b0[0]) < 1e-12


def test_charpoly_identity_always():
    rng = np.random.default_rng(0)
    for _ in range(10):
        Bht = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Bth = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c0 = np.poly(Bht @ Bth)
        c1 = np.poly(Bth @ Bht)
        assert np.max(np.abs(c0 - c1)) < 1e-10
    d = tn.generate_taubnut(2, 1, seed=2, exact=True)
    assert nk.charpoly(d.B0) == nk.charpoly(d.B1)


def test_big_monad_identity_and_fibers():
    data = worked_example()
    bm = tn.big_monad(data)
    assert bm.composite_residual() < 1e-14
    rng = np.random.default_rng(1)
    spec = np.linalg.eigvals(nk.to_float(data.B0))
    for pt in mc.random_chart_points(50, rng):
        if min(abs(pt[0] * pt[1] - e) for e in spec) < 0.05:
            continue
        assert mc.fiber_dim(bm.evaluate(pt)) == 2


def test_big_monad_exact_identity():
    for k, m, seed in ((1, 1, 3), (2, 1, 5), (2, 2, 7), (2, 0, 9), (3, 0, 11)):
        d = tn.generate_taubnut(k, m, seed=seed, exact=True)
        assert tn._big_monad_unchecked(d).composite_residual() == 0.0


def test_big_monad_builds_the_float_monad_once(monkeypatch):
    """big_monad without a report returns the fused monad its validation
    built, on float data: one build per call, with the tensors of a build
    of its own.  Exact data keep their exact build beside the float one."""
    built = []
    from_blocks = mc.ParamMonad.from_blocks.__func__

    def counted(cls, *args, **kwargs):
        built.append(from_blocks(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(mc.ParamMonad, "from_blocks", classmethod(counted))
    for data in (worked_example(), tn.generate_taubnut(2, 1, seed=0),
                 tn.generate_taubnut(3, 0, seed=1)):
        built.clear()
        pm = tn.big_monad(data)
        assert built == [pm] and not pm.exact
        want = tn._big_monad_unchecked(data)
        for got, ref in ((pm.alpha, want.alpha), (pm.beta, want.beta)):
            assert list(got.coeffs) == list(ref.coeffs)
            for a, b in ((got.P, ref.P), (got.Q, ref.Q), (got.C, ref.C)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    data = tn.generate_taubnut(2, 1, seed=0, exact=True)
    built.clear()
    pm = tn.big_monad(data)
    assert len(built) == 2 and built[-1] is pm and pm.exact


@pytest.mark.parametrize("data", [worked_example(),
                                  tn.generate_taubnut(2, 1, seed=0),
                                  tn.generate_taubnut(3, 0, seed=1),
                                  tn.generate_taubnut(1, 2, seed=3, exact=True)])
def test_pushdown_samples_match_scalar_draws(data):
    """The samples drawn in one call, xi side then psi side from one
    generator, give the margins of scalar draws decided one t at a time and
    their trend bit for bit, and leave the generator in the same state."""
    fdata = tn._float_data(data)
    rngs = np.random.default_rng(7), np.random.default_rng(7)
    got = tn._pushdown_surjectivity(fdata, rngs[0], nk.DEFAULT_CTX)
    want = _pushdown_values(fdata, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    for (margin, trend), (want_margin, want_trend) in zip(got, want):
        assert trend == want_trend
        assert margin == pytest.approx(want_margin, rel=1e-9)


def test_build_refused():
    with pytest.raises(BuildRefused):
        tn.big_monad(worked_example(Bprime=mk([[0]])))


def test_pushdown_refuses_m0_data():
    d = tn.generate_taubnut(1, 0, seed=0)
    with pytest.raises(BuildRefused, match="m > 0"):
        tn.psi_pushdown_monad(d)


def test_pushdown_agrees_away_from_psi_zero():
    data = worked_example()
    bm = tn.big_monad(data)
    pp = tn.psi_pushdown_monad(data)
    assert pp.composite_residual() < 1e-14
    rng = np.random.default_rng(4)
    for pt in mc.random_chart_points(20, rng):
        if abs(pt[1]) < 0.2:
            continue
        assert mc.fiber_dim(bm.evaluate(pt)) == mc.fiber_dim(pp.evaluate(pt))


def test_edge_relations_recomputed():
    d = tn.generate_taubnut(2, 1, seed=8)
    assert np.max(np.abs(nk.to_float(d.B0) -
                         nk.to_float(d.Bht) @ nk.to_float(d.Bth))) < 1e-13
    assert np.max(np.abs(nk.to_float(d.B1) -
                         nk.to_float(d.Bth) @ nk.to_float(d.Bht))) < 1e-13


def test_jumping_lines_worked_example():
    data = worked_example()
    spec_b0, mid_roots = tn.jumping_lines(data)
    assert len(spec_b0) == 1 and abs(spec_b0[0] - 6) < 1e-10
    assert len(mid_roots) == 2
    # middle block is [[6, -1], [21, -1]]: trace 5, det 15
    assert abs(sum(mid_roots) - 5) < 1e-8
    assert abs(np.prod(mid_roots) - 15) < 1e-8


class _PerturbedB1(tn.TaubNutDataM0):
    """m = 0 data whose B1 is Bth Bht (1 + 1e-6): char(B0) = char(B1) fails
    at 1e-6 relative."""

    @property
    def B1(self):
        return super().B1 * (1 + 1e-6)


@pytest.mark.parametrize("scale, perturbed", [
    pytest.param(1.0, False, id="unit"),
    pytest.param(100 / 3, False, id="scaled"),
    pytest.param(1.0, True, id="perturbed")])
def test_jumping_lines_reads_the_validate_charpoly_check(scale, perturbed):
    """jumping_lines refuses with BuildRefused exactly the data whose
    charpoly_B0_eq_B1 row fails in validate.  With Bht and Bth scaled by
    100/3 the float coefficients differ by about 3e-7, rounding that the
    derived bound absorbs; a B1 off by 1e-6 relative fails."""
    d = tn.generate_taubnut(2, 0, seed=0)
    d = (_PerturbedB1 if perturbed else tn.TaubNutDataM0)(
        2, d.A, d.Bht * scale, d.Bth * scale, d.C, d.D)
    holds = tn.validate(d)["charpoly_B0_eq_B1"].passed
    assert holds == (not perturbed)
    if holds:
        tn.jumping_lines(d)
    else:
        with pytest.raises(BuildRefused, match="char polys"):
            tn.jumping_lines(d)


@pytest.mark.parametrize("s", [10, 100 / 3, 100])
@pytest.mark.parametrize("k, seed", [(2, 0), (3, 1)])
def test_validate_verdicts_invariant_under_edge_rescaling(k, seed, s):
    """Scaling (Bht, Bth) by s and C by s^2 maps m = 0 data to m = 0 data
    (B0 and B1 scale by s^2, every relation is homogeneous): every check
    of validate keeps its verdict, although the float char-poly
    coefficients of B0 and B1 then differ by up to 5e-2 at k = 3."""
    d = tn.generate_taubnut(k, 0, seed=seed)
    scaled = replace(d, Bht=d.Bht * s, Bth=d.Bth * s, C=d.C * s * s)
    verdicts = [{c.name: c.passed for c in tn.validate(x).checks}
                for x in (d, scaled)]
    assert verdicts[0] == verdicts[1]
    assert all(verdicts[0].values())


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_jumping_lines_m0_middle_roots(k, exact):
    """For m = 0 the middle block is B0 - C1 D1 A^-1, the lambda_plus
    endomorphism of the bow complex; its roots against that formula."""
    for seed in range(3):
        d = tn.generate_taubnut(k, 0, seed=seed, exact=exact)
        A, Bht, Bth, C, D = (nk.to_float(getattr(d, f))
                             for f in ("A", "Bht", "Bth", "C", "D"))
        B0 = Bht @ Bth
        spec_b0, mid_roots = tn.jumping_lines(d)
        for got, mat in ((spec_b0, B0),
                         (mid_roots, B0 - C[:, :1] @ D[:1] @ np.linalg.inv(A))):
            want = np.linalg.eigvals(mat)
            assert len(got) == k
            assert all(np.min(np.abs(np.asarray(got) - w)) < 1e-9 for w in want)


def test_identity_edge_spectrum():
    data = worked_example(Bht=mk([[1]]), Bth=mk([[1]]), Bprime=mk([[6]]),
                          C=mk([[1, -3]]))
    # Bht = Bth = 1 forces spec B0 = {1, ..., 1}
    spec_b0, _ = tn.jumping_lines(data)
    assert all(abs(e - 1) < 1e-10 for e in spec_b0)


def test_splitting_at_reported_lines():
    for k, m, seed in ((1, 1, 13), (2, 1, 13)):
        d = tn.generate_taubnut(k, m, seed=seed)
        bm = tn._big_monad_unchecked(d)
        spec_b0, _ = tn.jumping_lines(d)
        for ev in spec_b0:
            a, _ = splitting_type(bm, Line("B_eta", complex(ev)))
            assert a >= 1


def test_m0_aligned_line_measured_as_boundary_torsion():
    """For m = 0 the characteristic-polynomial identity forces the rank-one
    jump to align with an eigenvector, and along that one line the fused
    resolution carries a length-one boundary torsion: the naive section
    counts come out (h0, h0(-1)) = (3, 1), splitting-inconsistent, while the
    affine pointwise exactness never fails.  The balanced reading is
    torsion 1 plus a trivial bundle restriction; splitting_type refuses
    rather than guessing."""
    from bowmonad.monadcore import InconsistentSplitting, sections_on_line
    d = tn.generate_taubnut(2, 0, seed=9)
    pm = tn._big_monad_unchecked(d)
    D1 = nk.to_float(d.D)[0:1, :]
    B0 = nk.to_float(d.B0)
    ratios = (D1 @ B0) / D1
    aligned = complex(ratios[0, 0])
    assert np.max(np.abs(ratios - aligned)) < 1e-9   # D1 is a left eigenvector
    s0 = sections_on_line(pm, Line("B_eta", aligned), 0)
    s1 = sections_on_line(pm, Line("B_eta", aligned), -1)
    assert (s0.dimension, s1.dimension) == (3, 1)
    with pytest.raises(InconsistentSplitting):
        splitting_type(pm, Line("B_eta", aligned))
    # pointwise exactness holds everywhere on the affine part of the line
    for t in np.linspace(0.1, 2.5, 23):
        m = pm.evaluate((t, aligned / t))
        sa = np.linalg.svd(m.alpha, compute_uv=False)
        sb = np.linalg.svd(m.beta, compute_uv=False)
        assert sa[-1] > 1e-3 and sb[min(m.beta.shape) - 1] > 1e-3
    # the other eigenvalue behaves generically
    other = [e for e in np.linalg.eigvals(B0)
             if abs(e - aligned) > 1e-6][0]
    assert splitting_type(pm, Line("B_eta", complex(other))) == (1, -1)


def test_bow_complex_edge_values():
    # k=1, m=0 with Bht = 2, Bth = 3: both edge values equal 6
    d = tn.generate_taubnut(1, 0, seed=3)
    d = tn.TaubNutDataM0(1, d.A, mk([[2]]), mk([[3]]), d.C, d.D)
    rep = tn.validate(d)
    assert rep.passed
    bc = tn.to_bow_complex(d, validated=rep)
    assert abs(nk.to_float(bc.B0)[0, 0] - 6) < 1e-12
    assert abs(nk.to_float(bc.B1)[0, 0] - 6) < 1e-12
    assert bc.edge_factors(1e-12)


def test_round_trip_k1m1_exact():
    d = worked_example()
    back = tn.from_bow_complex(tn.to_bow_complex(d))
    for name in ("A", "Bht", "Bth", "C", "D2row", "Aprime", "Bprime", "Cprime"):
        assert np.max(np.abs(nk.to_float(getattr(back, name)) -
                             nk.to_float(getattr(d, name)))) < 1e-12


@pytest.mark.parametrize("k,m,seed", [(1, 1, 1), (2, 1, 2), (2, 2, 3)])
def test_round_trip_monodromy_invariants(k, m, seed):
    d = tn.generate_taubnut(k, m, seed=seed, exact=True)
    back = tn.from_bow_complex(tn.to_bow_complex(d))
    assert nk.charpoly(back.B0) == nk.charpoly(d.B0)
    assert nk.charpoly(back.B1) == nk.charpoly(d.B1)
    assert nk.charpoly(back.monodromy) == nk.charpoly(d.monodromy)


def test_round_trip_m0():
    d = tn.generate_taubnut(2, 0, seed=9)
    back = tn.from_bow_complex(tn.to_bow_complex(d))
    assert np.max(np.abs(nk.to_float(back.B0) - nk.to_float(d.B0))) < 1e-10
    assert np.max(np.abs(nk.to_float(back.B1) - nk.to_float(d.B1))) < 1e-10
    assert np.max(np.abs(nk.to_float(back.A) - nk.to_float(d.A))) < 1e-10
    assert tn.validate(back).passed


def test_round_trip_nilpotent_edge():
    # zero edge: beta ends vanish, nilpotency preserved
    mkq = nk.exact_matrix
    d = tn.TaubNutDataM0(1, mkq([[2]]), mkq([[0]]), mkq([[0]]),
                         mkq([[0, 1]]), mkq([[1], [0]]))
    r1, redge = d.relation_residuals()
    assert nk.is_zero_matrix(r1) and nk.is_zero_matrix(redge)
    bc = tn.to_bow_complex.__wrapped__(d) if hasattr(tn.to_bow_complex, "__wrapped__") \
        else None
    # bypass the genericity gate: the zero edge is degenerate but the
    # conversion itself must preserve the nilpotent endomorphisms
    from bowmonad.nahmbow import BowComplexTN
    bc = BowComplexTN(1, 0, d.B0, d.B1, d.Bth, d.Bht, d.B0, d.A,
                      I_minus=nk.exact_matrix([[0]]),
                      J_minus=nk.exact_matrix([[0]]),
                      I_plus=nk.exact_matrix([[0]]),
                      J_plus=nk.exact_matrix([[0]]), exact=True)
    back = tn.from_bow_complex(bc)
    assert nk.is_zero_matrix(back.B0) and nk.is_zero_matrix(back.B1)


def test_from_bow_complex_rejects_broken_edge():
    d = worked_example()
    bc = tn.to_bow_complex(d)
    bc.Bht = bc.Bht + 0.3
    with pytest.raises(NotInNormalForm):
        tn.from_bow_complex(bc)


# as in test_caloron: one entry of the k = 2, m = 2 middle normal form per
# pattern the shared reader checks
BROKEN_BLOCKS = {"corner": ((1, 1), "tail block"),
                 "off_final_column": ((0, 2), "off the final column"),
                 "pole_block": ((2, 2), "pole block")}


@pytest.mark.parametrize("block", list(BROKEN_BLOCKS))
def test_not_in_normal_form(block):
    (i, j), message = BROKEN_BLOCKS[block]
    bc = tn.to_bow_complex(tn.generate_taubnut(2, 2, seed=3))
    bc.beta_mid_plus = bc.beta_mid_plus.copy()
    bc.beta_mid_plus[i, j] += 0.1
    with pytest.raises(NotInNormalForm, match=message):
        tn.from_bow_complex(bc)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k,m,seed", [(1, 1, 2), (2, 1, 8), (1, 2, 3),
                                      (2, 2, 5)])
def test_caloron_is_taubnut_with_identity_edge(k, m, seed, exact):
    """Caloron data are Taub-NUT data with Bht = B and Bth = I: the normal
    form, monodromy, relations and right-normal residual coincide."""
    cd = cal.generate_caloron(k, m, seed=seed, exact=exact)
    td = tn.TaubNutData(k, m, cd.A, cd.B, nk.eye_like_backend(k, exact),
                        cd.C, cd.D2row, cd.Aprime, cd.Bprime, cd.Cprime)
    assert np.all(td.normal_form == cd.left_normal)
    assert np.all(td.monodromy == cd.monodromy)
    for rt, rc in zip(td.relation_residuals(), cd.relation_residuals(),
                      strict=True):
        assert np.all(rt == rc)
    assert right_normal_residual(td) == right_normal_residual(cd)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k,m,seed", [(1, 1, 2), (2, 1, 8), (1, 2, 3),
                                      (2, 2, 5)])
def test_caloron_complex_reads_back_as_the_identity_edge_lift(k, m, seed,
                                                              exact):
    """A caloron's circle complex is a bow complex: from_bow_complex reads
    it back as the lift with Bht = B and Bth = I (exactly on the exact
    backend, to rounding on floats), and the lift validates."""
    cd = cal.generate_caloron(k, m, seed=seed, exact=exact)
    lift = tn.TaubNutData(k, m, cd.A, cd.B, nk.eye_like_backend(k, exact),
                          cd.C, cd.D2row, cd.Aprime, cd.Bprime, cd.Cprime)
    td = tn.from_bow_complex(cal.to_nahm_complex(cd))
    for f in fields(td):
        got, want = getattr(td, f.name), getattr(lift, f.name)
        assert np.all(got == want) if exact else np.allclose(got, want,
                                                             atol=1e-12)
    assert tn.validate(td).passed


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (2, 0)])
def test_exact_edge_off_by_one_part_in_10_12_is_refused(k, m):
    bc = tn.to_bow_complex(tn.generate_taubnut(k, m, seed=3, exact=True))
    bc.Bht = nudged(bc.Bht, 0, 1)
    with pytest.raises(NotInNormalForm, match="edge factorizations"):
        tn.from_bow_complex(bc)


@pytest.mark.parametrize("side", ["I_minus", "J_plus"])
def test_exact_m0_jump_factor_off_by_one_part_in_10_12_is_refused(side):
    bc = tn.to_bow_complex(tn.generate_taubnut(2, 0, seed=3, exact=True))
    setattr(bc, side, nudged(getattr(bc, side), 0, 0))
    with pytest.raises(NotInNormalForm, match="jump does not match"):
        tn.from_bow_complex(bc)


@pytest.mark.parametrize("k,m,field,row", [
    (2, 2, "Bprime", "relation_2"), (2, 1, "D2row", "relation_1"),
    (2, 0, "D", "edge_jump")])
def test_exact_relation_off_by_one_part_in_10_12_fails(k, m, field, row):
    """An exact relation row passes only when its residual is zero; the
    float norm it reports is that of the residual."""
    data = tn.generate_taubnut(k, m, seed=3, exact=True)
    assert tn.validate(data)[row].passed
    setattr(data, field, nudged(getattr(data, field), 0, 1))
    check = tn.validate(data)[row]
    assert not check.passed and 0 < check.residual < 1e-10


def test_right_normal_residual():
    assert right_normal_residual(worked_example()) < 1e-12
    d = tn.generate_taubnut(2, 2, seed=6)
    assert right_normal_residual(d) < 1e-9


def test_validate_reports_gen_trend():
    rep = tn.validate(worked_example())
    note = rep["pushdown_surjective_xi"].note
    assert "trend" in note


def _pointwise_margins(pm, ctx=nk.DEFAULT_CTX):
    """sigma_min / (rank_tol sigma_max) of alpha and beta, smallest over the
    20 points validate draws, evaluated one point at a time."""
    rng = np.random.default_rng(7)
    pts = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
           for _ in range(20)]
    out = []
    for poly in (pm.alpha, pm.beta):
        worst = np.inf
        for x, y in pts:
            s = np.linalg.svd(poly.evaluate(x, y), compute_uv=False)
            worst = min(worst, s[-1] / (ctx.rank_tol * s[0]) if s[0] else 0.0)
        out.append(worst)
    return out


@pytest.mark.parametrize("data", [worked_example(),
                                  tn.generate_taubnut(2, 1, seed=0),
                                  tn.generate_taubnut(3, 0, seed=1)])
def test_pointwise_checks_report_their_margin(data):
    """monad_pointwise_* pass with the smallest sigma_min / (rank_tol
    sigma_max) over their points as the value, far above 1."""
    rep = tn.validate(data)
    want = _pointwise_margins(tn._big_monad_unchecked(data))
    for name, margin in zip(("monad_pointwise_injective",
                             "monad_pointwise_surjective"), want):
        assert rep[name].passed and rep[name].residual > 1e6
        assert rep[name].residual == pytest.approx(margin, rel=1e-9)


def test_pointwise_checks_fail_below_margin_one(monkeypatch):
    """A zero alpha fails with margin 0; a beta with one row scaled by
    1e-20 keeps a nonzero sigma_min and fails with a margin below 1."""
    build = tn._big_monad_unchecked

    def broken(data):
        pm = build(data)
        scale = np.ones(pm.beta.shape[0])
        scale[-1] = 1e-20
        beta = mc.PolyMatrix(pm.beta.shape, {key: scale[:, None] * mat for
                                             key, mat in pm.beta.coeffs.items()})
        return mc.ParamMonad(pm.chart, pm.cols, mc.PolyMatrix(pm.alpha.shape),
                             beta)
    data = tn.generate_taubnut(2, 1, seed=0)
    monkeypatch.setattr(tn, "_big_monad_unchecked", broken)
    rep = tn.validate(data)
    inj, surj = (rep[name] for name in ("monad_pointwise_injective",
                                        "monad_pointwise_surjective"))
    assert not inj.passed and inj.residual == 0.0
    assert not surj.passed and 0.0 < surj.residual < 1.0
    assert surj.residual == pytest.approx(_pointwise_margins(broken(data))[1],
                                          rel=1e-9)


def _gluing_map(d, which, t, row_scale=1.0):
    """The xi or psi pushdown gluing map of float data d at t, rows
    (k + m | k | k), columns (Vm | E | Vp):

        (Y-1,        0,            -Y+1 )
        (-(1, 0, 0), t I or -Bht,   0   )
        (0,          -Bth or t I,  (1, 0))

    with row k + m - 1 times row_scale."""
    k, m = d.k, d.m
    below = (d.Cprime, d.Aprime) if m else (np.zeros((0, 2)), np.zeros((0, k)))
    Ym1 = np.hstack([np.eye(k + m), -np.vstack([d.C1, below[0][:, 0:1]])])
    Yp1 = np.block([[d.A, d.C2], [below[1], below[0][:, 1:2]]])
    X0m = np.hstack([np.eye(k), np.zeros((k, m + 1))])
    X0p = np.hstack([np.eye(k), np.zeros((k, 1))])
    xi_blk, psi_blk = (t * np.eye(k), -d.Bht) if which == "xi" else \
        (-d.Bth, t * np.eye(k))
    M = np.block([[Ym1, np.zeros((k + m, k)), -Yp1],
                  [-X0m, xi_blk, np.zeros((k, k + 1))],
                  [np.zeros((k, k + m + 1)), psi_blk, X0p]])
    M[k + m - 1] *= row_scale
    return M


def _validate_rng():
    """validate's generator after the 20 points of its pointwise checks."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        rng.standard_normal(2)
    return rng


def _sampled_ts(rng):
    """The t of one pushdown side: 100 complex normals drawn one scalar at a
    time, the real part first, with |t| >= 0.05."""
    ts = [rng.standard_normal() + 1j * rng.standard_normal()
          for _ in range(100)]
    return [t for t in ts if abs(t) >= 0.05]


def _pushdown_margins(data, row_scale=1.0, ctx=nk.DEFAULT_CTX):
    """Reference oracle for the verdicts of the pushdown rows: the smallest
    sigma_min / (rank_tol max(sigma_max, 1)) of the full xi and psi gluing
    maps over the t that validate samples, one t at a time."""
    d = tn._float_data(data)
    rng = _validate_rng()
    out = []
    for which in ("xi", "psi"):
        worst = np.inf
        for t in _sampled_ts(rng):
            s = np.linalg.svd(_gluing_map(d, which, t, row_scale),
                              compute_uv=False)
            worst = min(worst, s[-1] / (ctx.rank_tol * max(s[0], 1.0)))
        out.append(worst)
    return out


def _reduced_pencil(d, which, row_scale=1.0, ctx=nk.DEFAULT_CTX):
    """(margin of F, t -> R(t)) for the xi or psi gluing map of float data:
    F is the map without its E columns, cut at sigma > rank_tol
    max(sigma_1, 1), and R(t) = Z^H E(t) the E columns seen from F's left
    null space Z."""
    k, m = d.k, d.m
    E = slice(k + m + 1, 2 * k + m + 1)
    F = np.delete(_gluing_map(d, which, 0.0, row_scale), E, axis=1)
    U, s, _ = np.linalg.svd(F)
    top = ctx.rank_tol * max(s[0], 1.0)
    r = int(np.sum(s > top))
    Z = U[:, r:]
    return s[r - 1] / top, \
        lambda t: Z.conj().T @ _gluing_map(d, which, t, row_scale)[:, E]


def _pushdown_values(data, rng, row_scale=1.0, ctx=nk.DEFAULT_CTX):
    """[(value, trend)] of the xi and psi pushdown rows, decided one scalar
    t at a time from rng: the smaller of F's margin and the smallest
    sigma_min(R) / (rank_tol max(sigma_max(R), 1)) over the sampled t, and
    sigma_min of the full map at t = 1, 0.1, 0.01, 0.001."""
    d = tn._float_data(data)
    out = []
    for which in ("xi", "psi"):
        worst, R = _reduced_pencil(d, which, row_scale, ctx)
        for t in _sampled_ts(rng):
            Rt = R(t)
            if Rt.shape[0]:
                s = np.linalg.svd(Rt, compute_uv=False)
                low = s[Rt.shape[0] - 1] if Rt.shape[0] <= Rt.shape[1] else 0.0
                worst = min(worst, low / (ctx.rank_tol * max(s[0], 1.0)))
        rows = 3 * d.k + d.m
        trend = [np.linalg.svd(_gluing_map(d, which, t),
                               compute_uv=False)[rows - 1]
                 for t in (1.0, 0.1, 0.01, 0.001)]
        out.append((worst, trend))
    return out


PUSHDOWN_ROWS = ("pushdown_surjective_xi", "pushdown_surjective_psi")


@pytest.mark.parametrize("data", [worked_example(),
                                  tn.generate_taubnut(2, 1, seed=0),
                                  tn.generate_taubnut(3, 0, seed=1),
                                  tn.generate_taubnut(1, 2, seed=3, exact=True)])
def test_pushdown_checks_report_their_margin(data):
    """pushdown_surjective_xi/psi pass with the smaller of F's margin and
    the smallest margin of the reduced pencil over the sampled t as the
    value, far above 1 (the k = 3, m = 0 draw has the smallest, 7.0e5)."""
    rep = tn.validate(data)
    for name, (value, _) in zip(PUSHDOWN_ROWS,
                                _pushdown_values(data, _validate_rng())):
        assert rep[name].passed and rep[name].residual > 1e5
        assert rep[name].residual == pytest.approx(value, rel=1e-9)


def _planted_gluing(monkeypatch):
    """Gluing rows with their last row times 1e-12."""
    gluing = tn._gluing

    def dropped(data):
        Wm, Wp, Ym1, Yp1 = gluing(data)
        Ym1[-1] *= 1e-12
        Yp1[-1] *= 1e-12
        return Wm, Wp, Ym1, Yp1
    monkeypatch.setattr(tn, "_gluing", dropped)


def test_pushdown_checks_fail_below_margin_one(monkeypatch):
    """Gluing rows with their last row times 1e-12 fail both pushdown
    checks with a nonzero value below 1: the cut of F drops that row, and
    the reduced pencil seen from it is of order 1e-12."""
    data = tn.generate_taubnut(2, 1, seed=0)
    _planted_gluing(monkeypatch)
    rep = tn.validate(data)
    want = _pushdown_values(data, _validate_rng(), row_scale=1e-12)
    for name, (value, _) in zip(PUSHDOWN_ROWS, want):
        assert not rep[name].passed and 0.0 < rep[name].residual < 1.0
        assert rep[name].residual == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k, m", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1),
                                  (1, 2), (2, 2)])
def test_pushdown_verdicts_match_the_full_map_oracle(k, m, exact):
    """Every pushdown row passes or fails as the one-t-at-a-time SVD of the
    full gluing map decides, on seeds 0-11."""
    for seed in range(12):
        data = tn.generate_taubnut(k, m, seed=seed, exact=exact)
        rep = tn.validate(data)
        for name, margin in zip(PUSHDOWN_ROWS, _pushdown_margins(data)):
            assert rep[name].passed == (margin > 1), (seed, name)


def test_planted_pushdown_verdicts_match_the_full_map_oracle(monkeypatch):
    data = tn.generate_taubnut(2, 1, seed=0)
    want = _pushdown_margins(data, row_scale=1e-12)
    _planted_gluing(monkeypatch)
    rep = tn.validate(data)
    for name, margin in zip(PUSHDOWN_ROWS, want):
        assert not rep[name].passed and margin < 1
        assert 0.0 < rep[name].residual < 1.0


@pytest.mark.parametrize("exact", [False, True])
def test_reduced_pencil_vanishes_where_the_samples_miss(exact):
    """At k = 2, m = 0, seed 0 the xi pencil vanishes at t = -60 and the psi
    pencil at t = 1/12, the point (xi, psi) = (60, -1/12) where beta of the
    fused monad drops rank; both rows pass, since no sample lands there."""
    data = tn.generate_taubnut(2, 0, seed=0, exact=exact)
    d = tn._float_data(data)
    for which, t0 in (("xi", -60.0), ("psi", 1 / 12)):
        R = _reduced_pencil(d, which)[1]
        assert R(t0).shape == (1, 2)
        s0, s1 = (np.linalg.svd(R(t), compute_uv=False)[-1] for t in (t0, 1.0))
        assert s0 <= 1e-12 * s1
    rep = tn.validate(data)
    assert all(rep[name].passed for name in PUSHDOWN_ROWS)


@pytest.mark.parametrize("k, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_gluing_margin_bounds_the_full_map_at_m_positive(k, m):
    """On the seed-0 draws of the m >= 1 pairs the t-free columns F have
    full row rank, so sigma_min of the full map is at least sigma_min(F)
    at every t."""
    d = tn.generate_taubnut(k, m, seed=0)
    rng = np.random.default_rng(5)
    ts = 10.0 ** rng.uniform(-3, 3, 50) * np.exp(2j * np.pi * rng.random(50))
    E = slice(k + m + 1, 2 * k + m + 1)
    for which in ("xi", "psi"):
        F = np.delete(_gluing_map(d, which, 0.0), E, axis=1)
        floor = np.linalg.svd(F, compute_uv=False)[-1]
        assert _reduced_pencil(d, which)[1](1.0).shape == (0, k)
        for t in ts:
            s = np.linalg.svd(_gluing_map(d, which, t), compute_uv=False)
            assert s[-1] >= (1 - 1e-12) * floor


def test_negative_m_reduces_to_positive():
    d_neg = tn.generate_taubnut(1, -1, seed=5)
    d_pos = tn.generate_taubnut(1, 1, seed=5)
    assert d_neg.m == d_pos.m == 1
    assert np.array_equal(nk.to_float(d_neg.A), nk.to_float(d_pos.A))


@pytest.mark.parametrize("m", [0, 1])
def test_generator_without_valid_draw(m):
    with pytest.raises(cal.NoValidDraw, match="no validated draw") as exc:
        tn.generate_taubnut(1, m, seed=0, max_tries=0)
    assert isinstance(exc.value, nk.BowmonadError)


@pytest.mark.parametrize("flavor", ["caloron", "taubnut"])
def test_undecided_obstruction_search_fails_its_check(flavor, monkeypatch):
    """A rank decision the common-eigenvector search cannot make fails the
    check (the pencil is not certified) instead of escaping validate."""
    module = cal if flavor == "caloron" else tn
    data = getattr(module, f"generate_{flavor}")(2, 1, seed=0)

    def undecided(*args, **kwargs):
        raise nk.GapTooSmall("rank 2: margin 18.7 < 1000.0")

    monkeypatch.setattr(nk, "common_eigenvector_obstruction", undecided)
    check = module.validate(data)["stacked_pencil_injective"]
    assert not check.passed and check.residual == np.inf
    assert "margin 18.7" in check.note


def test_float_data_of_exact_data():
    d = tn.generate_taubnut(2, 1, seed=5, exact=True)
    f = tn._float_data(d)
    assert type(f) is type(d) and not f.exact
    assert np.array_equal(f.Bht, nk.to_float(d.Bht))
    assert tn._float_data(f) is f


def test_round_trip_m0_keeps_d2_when_c2_vanishes():
    """C2 = 0 leaves D2 only in the stored head factor J_minus; without it
    the recovered tuple has the common eigenvector (2, 5, (1, -2)) of A, B0
    and D, a real obstruction of the stacked pencil."""
    d = tn.generate_taubnut(2, 0, seed=9)
    assert np.max(np.abs(nk.to_float(d.C2))) == 0.0
    back = tn.from_bow_complex(tn.to_bow_complex(d))
    drift = nk.to_float(back.D[1:2]) - nk.to_float(d.D[1:2])
    assert np.max(np.abs(drift)) < 1e-12


@pytest.mark.parametrize("exact", [False, True])
def test_round_trip_k1m0_returns_c_and_d(exact):
    """k = 1 forces C1 D1 = 0 = C2 D2, so neither factor can be read off the
    endomorphisms: D1 comes back from the tail factor J_plus = D1 (A^-1 - 1)
    and D2 from the head factor.  Exactly on the exact backend."""
    for seed in range(12):
        d = tn.generate_taubnut(1, 0, seed=seed, exact=exact)
        back = tn.from_bow_complex(tn.to_bow_complex(d))
        if exact:
            assert back.C == d.C and back.D == d.D
        else:
            assert np.max(np.abs(back.C - d.C)) < 1e-15
            assert np.max(np.abs(back.D - d.D)) < 1e-15
