"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All tolerances are pinned here; every expected
value is either trivial, taken from a hand computation in the module tests,
or produced by the independent oracle inside the test itself.
"""

import time

import numpy as np
import pytest

from bowmonad import (caloron as cal, diraclattice as dlm, monadcore as mc,
                      nahmbow as nb, numkit as nk, taubnut as tn)
from bowmonad.monadcore import Line, splitting_type
from normal_form import right_normal_residual

COMBOS = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)]


def _report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num}] {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def instances():
    """100 generated, validated instances across flavors and backends."""
    out = []
    for k, m in COMBOS:
        for seed in range(5):
            out.append(("caloron", cal.generate_caloron(k, m, seed=seed)))
        for seed in range(5, 7):
            out.append(("caloron", cal.generate_caloron(k, m, seed=seed,
                                                        exact=True)))
        for seed in range(5):
            out.append(("taubnut", tn.generate_taubnut(k, m, seed=seed)))
        for seed in range(5, 7):
            out.append(("taubnut", tn.generate_taubnut(k, m, seed=seed,
                                                       exact=True)))
    out.append(("caloron", cal.generate_caloron(2, 1, seed=31)))
    out.append(("taubnut", tn.generate_taubnut(2, 1, seed=31)))
    assert len(out) == 100
    return out


def _monad(kind, data):
    if kind == "taubnut":
        return tn._big_monad_unchecked(data)
    if isinstance(data, cal.CaloronData):
        return cal.big_monad(data)
    return cal.small_monad(data)


def test_criterion_1_monad_identity(instances):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_exact = 0
    worst = 0.0
    for kind, data in instances:
        pm = _monad(kind, data)
        if data.exact:
            assert pm.composite_residual() == 0.0
            n_exact += 1
        else:
            alpha_scale = pm.alpha.max_coeff_norm()
            beta_scale = pm.beta.max_coeff_norm()
            pts = []
            for _ in range(1000):
                x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                pts.append((x, y))
            a, b, _ = pm.evaluate_many(pts)
            res = np.linalg.norm(b @ a, axis=(1, 2)) / np.maximum(
                np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2)),
                1e-300)
            worst = max(worst, res.max())
    elapsed = time.time() - t0
    _report(1, "monad identity", n_exact >= 20 and worst < 1e-12
            and elapsed < 60,
            f"{n_exact} exact identities, float max residual {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_fiber_rank(instances):
    t0 = time.time()
    rng = np.random.default_rng(99)
    bad = 0
    checked = 0
    for kind, data in instances:
        pm = _monad(kind, data).to_float()
        spec = np.linalg.eigvals(nk.to_float(
            data.B0 if hasattr(data, "B0") else data.B))
        pts = mc.random_chart_points(995, rng)
        # points sitting exactly over the jumping lines
        for ev in spec[:5]:
            x = 1.0 + 0.3j
            if pm.chart == "xi_psi":
                if abs(ev) < 1e-8:
                    continue
                pts.append((x, complex(ev) / x))
            else:
                pts.append((x, complex(ev)))
        while len(pts) < 1000:
            pts.extend(mc.random_chart_points(1, rng))
        dims, _ = mc.fiber_dims(pm, pts)
        checked += len(dims)
        bad += sum(d != 2 for d in dims)
    elapsed = time.time() - t0
    _report(2, "fiber rank", bad == 0 and elapsed < 60,
            f"{checked} fibers, {bad} off-rank, {elapsed:.1f}s")


def test_criterion_3_jumping_detection():
    t0 = time.time()
    ok = True
    notes = []
    # exact coefficientwise identity of the two characteristic polynomials,
    # across all flavors
    for k, m, seed in ((1, 1, 5), (2, 1, 5), (2, 0, 5), (2, 2, 6), (1, 0, 5)):
        d = tn.generate_taubnut(k, m, seed=seed, exact=True)
        ok &= nk.charpoly(d.B0) == nk.charpoly(d.B1)
    rng = np.random.default_rng(17)

    def sweep(pm, spec, target):
        nonlocal ok
        hit = 0
        for ev in spec:
            if abs(ev) < 0.2:
                continue        # eta = 0 is the split conic, not a B line
            ok &= splitting_type(pm, Line("B_eta", complex(ev))) == (1, -1)
            hit += 1
        n_checked = 0
        while n_checked < target:
            z = complex(rng.standard_normal() * 2.5 +
                        1j * rng.standard_normal() * 2.5)
            if abs(z) < 0.2 or min(abs(z - e) for e in spec) < 0.3:
                continue
            ok &= splitting_type(pm, Line("B_eta", z)) == (0, 0)
            n_checked += 1
        return hit, n_checked

    for k, m, seed in ((1, 1, 13), (2, 1, 13), (1, 2, 2), (2, 2, 8)):
        d = tn.generate_taubnut(k, m, seed=seed)
        spec, _ = tn.jumping_lines(d)
        hit, n_off = sweep(tn._big_monad_unchecked(d), spec,
                           50 if (k, m) == (2, 1) else 10)
        notes.append(f"tn-k{k}m{m}:{hit}+{n_off}")
    # the m = 0 flavor is exercised through the clean one-sided monad
    d0 = cal.generate_caloron(2, 0, seed=4)
    spec0 = np.linalg.eigvals(nk.to_float(d0.B0))
    hit, n_off = sweep(cal.small_monad(d0), list(spec0), 10)
    notes.append(f"cal-m0:{hit}+{n_off}")
    _report(3, "jumping detection", ok,
            f"lines checked {' '.join(notes)}, {time.time()-t0:.1f}s")


def test_criterion_4_isospectrality():
    rng = np.random.default_rng(42)
    Ts = [0.4 * (X + X.conj().T) for X in
          (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
           for _ in range(3))]
    zetas = [0.0, 0.5, -1.0, 1j, 2.0]
    seg = nb.flow(*Ts, 0.0, 1.0, 1e-3, zeta_checks=zetas)
    drift = nb.isospectral_drift(seg, zetas)
    # pole ansatz on [0.1, 1]: exact solution rho_i / s
    rho = nb.su2_irrep(2)
    T0 = [r / 0.1 for r in rho]
    fine = nb.flow(*T0, 0.1, 1.0, 1e-3)
    scale = max(np.max(np.abs(r)) for r in rho)
    err = max(np.max(np.abs(T[-1] - r)) for T, r in
              zip((fine.T1, fine.T2, fine.T3), rho)) / scale
    errs = {}
    for step in (2e-2, 1e-2):
        s = nb.flow(*T0, 0.1, 1.0, step, drift_tol=1e-3)
        errs[step] = max(np.max(np.abs(T[-1] - r)) for T, r in
                         zip((s.T1, s.T2, s.T3), rho))
    ratio = errs[2e-2] / errs[1e-2]
    ok = drift < 1e-8 and err < 1e-9 and 10 < ratio < 24
    _report(4, "isospectrality", ok,
            f"k=2 drift {drift:.2e}, pole error {err:.2e}, "
            f"halving ratio {ratio:.1f}")


def test_criterion_5_boundary_identities():
    worst_bif, worst_fund = 0.0, 0.0
    rep0 = nb.BowRepresentation(1.0, 0.25, 1, 0)
    rep1 = nb.BowRepresentation(1.0, 0.3, 1, 1)
    sols = [nb.solution_k1_m0(rep0, 1.4 + 0.2j, 0.8 - 0.5j, 0.9),
            nb.solution_k1_m0(rep0, 0.9 - 0.7j, 1.1 + 0.3j, 1.2),
            nb.solution_k1_m1(rep1, (0.9, -0.3, 0.4), (-0.5, 0.8, -0.2), 0.4),
            nb.solution_k1_m1(rep1, (1.2, 0.1, -0.6), (-0.2, 0.9, 0.3), 0.6)]
    for sol in sols:
        report = nb.check_boundary(sol)
        assert report.passed
        for c in report.checks:
            if c.name.startswith("bifundamental"):
                worst_bif = max(worst_bif, c.residual)
            if c.name.startswith("fundamental"):
                worst_fund = max(worst_fund, c.residual)
    # m = 2 pole residues, fitted from exact one-pole samples
    rho = nb.su2_irrep(2)
    lam, eps = 0.3, 1e-3
    c = np.array([0.4, -0.1, 0.2])

    def T(i, s):
        out = np.zeros((3, 3), dtype=complex)
        out[0, 0] = c[i]
        out[1:, 1:] = rho[i] / (s - lam)
        return out

    grid = lam - eps * np.arange(599, 0, -1)
    seg = nb.Segment(-lam, lam, 3, grid,
                     np.stack([T(0, s) for s in grid]),
                     np.stack([T(1, s) for s in grid]),
                     np.stack([T(2, s) for s in grid]))
    fitted, fit_res = nb.fit_pole_residues(seg, lam, -eps)
    ok_irrep, equiv = nb.residues_match_irrep(fitted, 2)
    ok = worst_bif < 1e-10 and worst_fund < 1e-10 and ok_irrep and equiv < 1e-6
    _report(5, "boundary identities", ok,
            f"bifundamental {worst_bif:.1e}, fundamental {worst_fund:.1e}, "
            f"m=2 equivalence {equiv:.1e}")


def test_criterion_6_normal_form_conjugation():
    worst = 0.0
    for k, m, seed in ((1, 1, 2), (2, 1, 8), (1, 2, 3), (2, 2, 5)):
        worst = max(worst, right_normal_residual(
            cal.generate_caloron(k, m, seed=seed)))
        worst = max(worst, right_normal_residual(
            tn.generate_taubnut(k, m, seed=seed)))
    _report(6, "normal-form conjugation", worst < 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_7_round_trips():
    ok = True
    worst = 0.0
    for k, m, seed in ((1, 1, 2), (2, 1, 8), (2, 2, 5), (2, 0, 4)):
        d = cal.generate_caloron(k, m, seed=seed)
        b = cal.from_nahm_complex(cal.to_nahm_complex(d))
        names = ("B", "monodromy") if m else ("B0", "B1")
        for n in names:
            worst = max(worst, float(np.max(np.abs(
                np.asarray(nk.charpoly(nk.to_float(getattr(b, n)))) -
                np.asarray(nk.charpoly(nk.to_float(getattr(d, n))))))))
        de = cal.generate_caloron(k, m, seed=seed + 20, exact=True)
        be = cal.from_nahm_complex(cal.to_nahm_complex(de))
        for n in names:
            ok &= nk.charpoly(getattr(be, n)) == nk.charpoly(getattr(de, n))
    for k, m, seed in ((1, 1, 1), (2, 1, 2), (2, 2, 3), (2, 0, 9)):
        d = tn.generate_taubnut(k, m, seed=seed)
        b = tn.from_bow_complex(tn.to_bow_complex(d))
        names = ("B0", "B1") + (("monodromy",) if m else ("A",))
        for n in names:
            worst = max(worst, float(np.max(np.abs(
                np.asarray(nk.charpoly(nk.to_float(getattr(b, n)))) -
                np.asarray(nk.charpoly(nk.to_float(getattr(d, n))))))))
        de = tn.generate_taubnut(k, m, seed=seed + 20, exact=True)
        be = tn.from_bow_complex(tn.to_bow_complex(de))
        for n in names:
            ok &= nk.charpoly(getattr(be, n)) == nk.charpoly(getattr(de, n))
    _report(7, "round trips", ok and worst < 1e-8,
            f"exact invariants equal, float drift {worst:.2e}")


def test_criterion_8_cross_representation():
    t0 = time.time()
    rep0 = nb.BowRepresentation(1.0, 0.25, 1, 0)
    rep1 = nb.BowRepresentation(1.0, 0.25, 1, 1)
    pairs = []
    sol0 = nb.solution_k1_m0(rep0, 1.4 + 0.2j, 0.8 - 0.5j, 0.9)
    pairs.append((sol0, tn.from_bow_complex(nb.complex_shadow(sol0))))
    sol1 = nb.solution_k1_m1(rep1, (0.9, -0.3, 0.4), (-0.5, 0.8, -0.2),
                             0.4, axis_phase=0.9)
    pairs.append((sol1, tn.from_bow_complex(nb.complex_shadow(sol1),
                                            tol=1e-7)))
    rng = np.random.default_rng(512)
    ok = True
    notes = []
    for sol, data in pairs:
        assert tn.validate(data).passed
        bm = tn._big_monad_unchecked(data).to_float()
        fm = nb.finite_monad_family(nb.complex_shadow(sol))
        n_pts = 0
        while n_pts < 5:
            pt = (complex(rng.standard_normal() + 1j * rng.standard_normal()),
                  complex(rng.standard_normal() + 1j * rng.standard_normal()))
            if abs(pt[0]) < 0.3 or abs(pt[1]) < 0.3:
                continue
            dl = dlm.assemble(sol, pt, grid=256)
            dim, _, gap = dlm.kernel(dl)
            mono = mc.fiber_dim(bm.evaluate(pt))
            red = mc.fiber_dim(fm.evaluate(pt))
            ok &= dim == mono == red == 2
            ok &= bool(np.isfinite(gap)) and gap > 1e3
            ok &= dlm.positivity(dl) > 0
            n_pts += 1
        reality = [dlm.reality_residual(dlm.assemble(sol, (0.9 + 0.4j,
                                                           0.7 - 0.5j), g))
                   for g in (64, 128, 256)]
        ok &= reality[0] / reality[1] > 1.7 and reality[1] / reality[2] > 1.7
        notes.append("reality " + "/".join(f"{r:.1e}" for r in reality))
    elapsed = time.time() - t0
    _report(8, "cross-representation equivalence",
            ok and elapsed < 300,
            f"kernel = monad = reduced = 2 at 5 pts per pair; "
            f"{'; '.join(notes)}; {elapsed:.0f}s")


def test_criterion_9_spectral_curve_structure():
    ok = True
    worst_real = 0.0
    rep1 = nb.BowRepresentation(1.0, 0.3, 1, 1)
    sol1 = nb.solution_k1_m1(rep1, (0.9, -0.3, 0.4), (-0.5, 0.8, -0.2), 0.4)
    curves = [nb.spectral_curve(sol1, "S0"), nb.spectral_curve(sol1, "S1")]
    rng = np.random.default_rng(7)
    Ts = [0.2 * (X + X.conj().T) for X in
          (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for _ in range(3))]
    seg = nb.flow(*Ts, 0.0, 1.0, 1e-3)
    curves.append(nb.spectral_curve(seg))
    for curve in curves:
        ok &= curve.grading_ok()
        worst_real = max(worst_real, curve.reality_residual())
    ok &= worst_real < 1e-8
    # diagonal k=2 reproduces the product of the two twistor lines
    rep2 = nb.BowRepresentation(1.0, 0.25, 2, 0)
    dseg = nb.diagonal_solution(rep2, [(1, 0, 0), (0, 0, 1)])
    curve = nb.spectral_curve(dseg)
    want = {(2, 0): 1, (1, 0): -1, (1, 1): 2, (1, 2): 1, (0, 1): -2,
            (0, 3): 2}
    ok &= set(curve.coeffs) == set(want)
    diag_err = max(abs(curve.coeffs[key] - val) for key, val in want.items())
    ok &= diag_err < 1e-9
    _report(9, "spectral-curve structure", ok,
            f"reality residual {worst_real:.1e}, diagonal error {diag_err:.1e}")
