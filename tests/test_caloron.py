import numpy as np
import pytest

from bowmonad import caloron as cal, monadcore as mc, numkit as nk
from bowmonad.nahmbow import (BowComplexCircle, BowComplexTN, BuildRefused,
                              NotInNormalForm)
from normal_form import nudged, right_normal_residual


def mk(rows):
    return np.array(rows, dtype=complex)


def worked_example(**overrides):
    fields = dict(A=mk([[2]]), B=mk([[5]]), C=mk([[1, -3]]), D2row=mk([[1]]),
                  Aprime=mk([[3]]), Bprime=mk([[9]]), Cprime=mk([[1, 0]]))
    fields.update(overrides)
    return cal.CaloronData(1, 1, **fields)


def test_worked_example_validates():
    data = worked_example()
    assert np.allclose(data.D, [[3], [1]])
    assert np.allclose(data.monodromy, [[2, -3], [3, 0]])
    assert abs(np.linalg.det(data.monodromy) - 9) < 1e-12
    assert cal.validate(data).passed


def test_relation2_violation():
    report = cal.validate(worked_example(Cprime=mk([[0, 0]])))
    assert not report.passed
    assert not report["relation_2"].passed
    assert abs(report["relation_2"].residual - 3.0) < 1e-12


def test_zero_D_breaks_injectivity():
    report = cal.validate(worked_example(D2row=mk([[0]]), Aprime=mk([[0]])))
    assert not report["stacked_pencil_injective"].passed
    cert = report["stacked_pencil_injective"].certificate
    xi, eta, _, _ = cert[0]
    assert abs(complex(*xi if isinstance(xi, list) else (xi.real, xi.imag)) - 2) < 1e-8


def test_build_refused_on_invalid_data():
    bad = worked_example(Cprime=mk([[0, 0]]))
    with pytest.raises(BuildRefused):
        cal.small_monad(bad)
    with pytest.raises(BuildRefused):
        cal.big_monad(bad)


def test_big_monad_polynomial_identity():
    data = worked_example()
    bm = cal.big_monad(data)
    assert bm.composite_residual() < 1e-14
    exact = cal.generate_caloron(2, 2, seed=6, exact=True)
    assert cal.big_monad(exact).composite_residual() == 0.0


def test_big_monad_refuses_m0():
    d0 = cal.generate_caloron(2, 0, seed=1)
    with pytest.raises(BuildRefused):
        cal.big_monad(d0)


def test_big_and_small_fibers_agree():
    data = worked_example()
    bm = cal.big_monad(data)
    sm = cal.small_monad(data)
    rng = np.random.default_rng(8)
    for pt in mc.random_chart_points(50, rng):
        assert mc.fiber_dim(bm.evaluate(pt)) == mc.fiber_dim(sm.evaluate(pt)) == 2


def test_fiber_pairing_between_big_and_small():
    """A fixed random pairing between the two fibers stays rank 2 across
    points (fiberwise isomorphism proxy)."""
    data = worked_example()
    bm, sm = cal.big_monad(data), cal.small_monad(data)
    rng = np.random.default_rng(9)
    n_big = bm.ranks[1]
    n_small = sm.ranks[1]
    pairing = rng.standard_normal((n_small, n_big)) + \
        1j * rng.standard_normal((n_small, n_big))
    for pt in mc.random_chart_points(50, rng):
        fb = mc.fiber(bm.evaluate(pt))
        fs = mc.fiber(sm.evaluate(pt))
        G = fs.basis.conj().T @ pairing @ fb.basis
        s = np.linalg.svd(G, compute_uv=False)
        assert s[1] > 1e-6 * max(s[0], 1.0)


def test_fiber_on_jumping_line():
    data = worked_example()
    bm = cal.big_monad(data)
    # eta in spec(B) = {5}
    assert mc.fiber_dim(bm.evaluate((0.7, 5.0))) == 2


def test_nahm_complex_monodromy_and_conjugation():
    data = worked_example()
    ncx = cal.to_nahm_complex(data)
    assert np.allclose(nk.to_float(ncx.monodromy), [[2, -3], [3, 0]])
    # left form conjugates onto the right-normal pattern
    assert right_normal_residual(data) < 1e-10
    N = nk.to_float(data.monodromy)
    right = np.linalg.inv(N) @ nk.to_float(data.left_normal) @ N
    assert np.allclose(right, [[5, -9], [1, -1]])


def test_m0_jumps_are_rank_one_products():
    d0 = cal.generate_caloron(2, 0, seed=4)
    ncx = cal.to_nahm_complex(d0)
    jump = nk.to_float(ncx.B0) - nk.to_float(ncx.B1)
    want = nk.to_float(d0.C1) @ nk.to_float(d0.D)[0:1, :]
    assert np.max(np.abs(jump - want)) < 1e-12
    assert np.linalg.matrix_rank(jump, tol=1e-9) <= 1


def test_round_trip_exact_k1m1():
    data = worked_example()
    back = cal.from_nahm_complex(cal.to_nahm_complex(data))
    for name in ("A", "B", "C", "D2row", "Aprime", "Bprime", "Cprime"):
        assert np.max(np.abs(nk.to_float(getattr(back, name)) -
                             nk.to_float(getattr(data, name)))) < 1e-12


@pytest.mark.parametrize("k,m,seed", [(1, 1, 2), (2, 1, 8), (1, 2, 3),
                                      (2, 2, 5)])
def test_round_trip_invariants_float(k, m, seed):
    data = cal.generate_caloron(k, m, seed=seed)
    back = cal.from_nahm_complex(cal.to_nahm_complex(data))
    assert np.max(np.abs(np.poly(nk.to_float(back.B)) -
                         np.poly(nk.to_float(data.B)))) < 1e-8
    assert np.max(np.abs(np.poly(nk.to_float(back.monodromy)) -
                         np.poly(nk.to_float(data.monodromy)))) < 1e-8
    assert (back.k, back.m) == (k, m)


def test_round_trip_exact_backend():
    data = cal.generate_caloron(2, 1, seed=7, exact=True)
    back = cal.from_nahm_complex(cal.to_nahm_complex(data))
    assert nk.charpoly(back.B) == nk.charpoly(data.B)
    assert nk.charpoly(back.monodromy) == nk.charpoly(data.monodromy)


def test_round_trip_m0():
    data = cal.generate_caloron(2, 0, seed=4)
    back = cal.from_nahm_complex(cal.to_nahm_complex(data))
    for name in ("B0", "B1"):
        assert np.max(np.abs(np.poly(nk.to_float(getattr(back, name))) -
                             np.poly(nk.to_float(getattr(data, name))))) < 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_round_trip_m0_keeps_d2_when_c2_vanishes(exact):
    """k = 1, seed 0 has C = (1, 0) and D = (0; -2): C D = 0, and D2 lives
    only in the stored factor J_plus.  Without it the read-back has D = 0,
    and A, B0 and D share the eigenvector (5, -2, (1))."""
    data = cal.generate_caloron(1, 0, seed=0, exact=exact)
    assert nk.is_zero_matrix(data.C2) and not nk.is_zero_matrix(data.D[1:2])
    back = cal.from_nahm_complex(cal.to_nahm_complex(data))
    assert np.all(back.C == data.C) and np.all(back.D == data.D)
    assert cal.validate(back).passed


def test_degenerate_m0_complex_refused_upstream():
    # equal endomorphisms with C = 0 fail gencon2 before any complex is built
    data = cal.CaloronDataM0(1, mk([[1]]), mk([[0]]), mk([[0, 0]]),
                             mk([[0], [1]]))
    assert not cal.validate(data)["row_pencil_surjective"].passed
    with pytest.raises(BuildRefused):
        cal.to_nahm_complex(data)


# one entry of the k = 2, m = 2 normal form per pattern the reader checks,
# with the message that names it
BROKEN_BLOCKS = {"corner": ((1, 1), "tail block"),
                 "off_final_column": ((0, 2), "off the final column"),
                 "pole_block": ((2, 2), "pole block")}


@pytest.mark.parametrize("block", list(BROKEN_BLOCKS))
def test_not_in_normal_form(block):
    (i, j), message = BROKEN_BLOCKS[block]
    ncx = cal.to_nahm_complex(cal.generate_caloron(2, 2, seed=5))
    ncx.beta_mid_plus = ncx.beta_mid_plus.copy()
    ncx.beta_mid_plus[i, j] += 0.1
    with pytest.raises(NotInNormalForm, match=message):
        cal.from_nahm_complex(ncx)


@pytest.mark.parametrize("block", list(BROKEN_BLOCKS))
def test_exact_not_in_normal_form(block):
    """On the exact backend an off-pattern entry moved by 1/10^12 is refused,
    not dropped."""
    (i, j), message = BROKEN_BLOCKS[block]
    ncx = cal.to_nahm_complex(cal.generate_caloron(2, 2, seed=5, exact=True))
    ncx.beta_mid_plus = nudged(ncx.beta_mid_plus, i, j)
    with pytest.raises(NotInNormalForm, match=message):
        cal.from_nahm_complex(ncx)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k,m,seed", [(1, 1, 2), (2, 1, 8), (1, 2, 3),
                                      (2, 2, 5)])
def test_circle_complex_is_the_identity_edge_bow_complex(k, m, seed, exact):
    data = cal.generate_caloron(k, m, seed=seed, exact=exact)
    ncx = cal.to_nahm_complex(data)
    assert type(ncx) is BowComplexTN and (ncx.k, ncx.m) == (k, m)
    assert np.all(ncx.Bth == nk.eye_like_backend(k, exact))
    for M in (ncx.B0, ncx.B1, ncx.Bht):
        assert np.all(M == data.B)
    assert np.all(ncx.beta_mid_plus == data.left_normal)
    assert np.all(ncx.monodromy == data.monodromy)


@pytest.mark.parametrize("exact", [False, True])
def test_edge_that_is_not_the_identity_is_refused(exact):
    """Exactly on the exact backend, within tol on floats."""
    ncx = cal.to_nahm_complex(cal.generate_caloron(2, 1, seed=8, exact=exact))
    if not exact:
        ncx.Bth = nudged(ncx.Bth, 0, 1, 1e-12)
        cal.from_nahm_complex(ncx)
        ncx.Bth = nudged(ncx.Bth, 0, 1, 1e-6)
    else:
        ncx.Bth = nudged(ncx.Bth, 0, 1)
    with pytest.raises(NotInNormalForm, match="identity edge"):
        cal.from_nahm_complex(ncx)


def test_m0_bow_complex_is_not_a_circle_complex():
    data = cal.generate_caloron(1, 1, seed=2)
    ncx = cal.to_nahm_complex(data)
    ncx.m = 0
    with pytest.raises(NotInNormalForm, match="m >= 1"):
        cal.from_nahm_complex(ncx)


@pytest.mark.parametrize("exact", [False, True])
def test_m0_circle_complex_fields(exact):
    data = cal.generate_caloron(2, 0, seed=4, exact=exact)
    ncx = cal.to_nahm_complex(data)
    assert type(ncx) is BowComplexCircle and not hasattr(ncx, "m")
    assert np.all(ncx.B0 == data.B0) and np.all(ncx.B1 == data.B1)
    assert np.all(ncx.A == data.A)
    assert np.all(nk.block([[ncx.I_minus, ncx.I_plus]]) == data.C)
    assert np.all(nk.block([[ncx.J_minus], [ncx.J_plus]]) == data.D)


def test_exact_m0_stored_factor_off_by_one_part_in_10_12_is_refused():
    ncx = cal.to_nahm_complex(cal.generate_caloron(2, 0, seed=4, exact=True))
    ncx.I_minus = nudged(ncx.I_minus, 1, 0)
    with pytest.raises(NotInNormalForm, match="stored jump factors"):
        cal.from_nahm_complex(ncx)


@pytest.mark.parametrize("k,m,field,row", [
    (2, 2, "Bprime", "relation_2"), (2, 1, "D2row", "relation_1"),
    (2, 0, "B0", "relation_1")])
def test_exact_relation_off_by_one_part_in_10_12_fails(k, m, field, row):
    """An exact relation row passes only when its residual is zero; the
    float norm it reports is that of the residual."""
    data = cal.generate_caloron(k, m, seed=3, exact=True)
    assert cal.validate(data)[row].passed
    setattr(data, field, nudged(getattr(data, field), 0, 1))
    check = cal.validate(data)[row]
    assert not check.passed and 0 < check.residual < 1e-10


@pytest.mark.parametrize("k,m,seed", [(1, 0, 0), (1, 1, 1), (1, 2, 2),
                                      (2, 0, 3), (2, 1, 4), (2, 2, 5),
                                      (3, 0, 6)])
def test_generated_data_relations(k, m, seed):
    data = cal.generate_caloron(k, m, seed=seed)
    scale = max(nk.mat_norm(data.A), 1.0)
    for r in data.relation_residuals():
        assert nk.mat_norm(r) < 1e-12 * scale
    exact = cal.generate_caloron(k, m, seed=seed, exact=True)
    for r in exact.relation_residuals():
        assert nk.is_zero_matrix(r)


def test_gencon1_certificate_grid():
    """When validation passes, the stacked pencil keeps full column rank on
    the whole eigenvalue grid."""
    data = cal.generate_caloron(2, 1, seed=12)
    assert cal.validate(data).passed
    A, B, D = nk.to_float(data.A), nk.to_float(data.B), nk.to_float(data.D)
    for xi in np.linalg.eigvals(A):
        for eta in np.linalg.eigvals(B):
            S = np.vstack([A - xi * np.eye(2), B - eta * np.eye(2), D])
            s = np.linalg.svd(S, compute_uv=False)
            assert s[-1] > 1e-8 * s[0]


def test_exact_draws_store_python_ints():
    """Exact draws used to keep numpy int64 numerators: their products
    overflowed in the fiber's elimination, and JSON could not write them."""
    import json
    from fractions import Fraction
    from bowmonad import bowcli
    point = (nk.GQ(Fraction(3, 2), Fraction(-1, 2)), nk.GQ(Fraction(-2, 3), 1))
    for seed in range(6):
        data = cal.generate_caloron(3, 0, seed=seed, exact=True)
        assert mc.fiber(cal.small_monad(data).evaluate(point)).dim == 2
        back = bowcli.data_from_json(
            json.loads(json.dumps(bowcli.data_to_json(data))))
        for name in ("A", "B0", "C", "D"):
            assert getattr(back, name) == getattr(data, name)


@pytest.mark.parametrize("m", [0, 1])
def test_generator_without_valid_draw(m):
    with pytest.raises(cal.NoValidDraw, match="no validated caloron draw") as exc:
        cal.generate_caloron(1, m, seed=0, max_tries=0)
    assert isinstance(exc.value, nk.BowmonadError)


@pytest.mark.parametrize("exact", [False, True])
def test_row_pencil_certificate_is_the_failing_point(exact):
    """C = 0 and A, B0 sharing their eigenvector make the row pencil
    (xi - A, eta - B, C) fail at (2 + i, 1 + 3i) on both backends; the exact
    backend used to report the conjugate point."""
    mat = nk.exact_matrix if exact else mk
    g = nk.GQ if exact else complex
    data = cal.CaloronDataM0(1, mat([[g(2, 1)]]), mat([[g(1, 3)]]),
                             mat([[0, 0]]), mat([[1], [1]]))
    check = cal.validate(data)["row_pencil_surjective"]
    assert not check.passed
    [(xi, eta, _, _)] = check.certificate
    assert abs(xi - (2 + 1j)) < 1e-9 and abs(eta - (1 + 3j)) < 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_left_eigenvector_killing_y_fails_mixed_pencil(exact):
    """k = m = 1 with equal rows of Y = (A, C2; A', C2') and
    B - B' = C1 - C1' = 2 + 3i: w = (1, -1) is a left eigenvector of the
    normal form M with eigenvalue 2 + 3i and w Y = 0, so [Y | eta - M] loses
    row rank at eta = 2 + 3i.  The relations fail; the row is decided on
    its own."""
    mat = nk.exact_matrix if exact else mk
    eta0 = nk.GQ(2, 3) if exact else 2 + 3j
    data = cal.CaloronData(1, 1, A=mat([[1]]), B=mat([[eta0]]),
                           C=mat([[eta0, 1]]), D2row=mat([[1]]),
                           Aprime=mat([[1]]), Bprime=mat([[0]]),
                           Cprime=mat([[0, 1]]))
    check = cal.validate(data)["mixed_pencil_surjective"]
    assert not check.passed
    [(xi, eta, _, exact_checked)] = check.certificate
    assert xi == 0 and abs(eta - (2 + 3j)) < 1e-9
    assert exact_checked == exact


@pytest.mark.parametrize("exact", [False, True])
def test_mixed_pencil_verdict_agrees_with_svd_oracle(exact):
    """On raw draws, failing ones included, mixed_pencil_surjective fails
    exactly where [Y | eta - M] loses row rank at an eigenvalue eta of M
    (the only places it can)."""
    verdicts = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for k, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
            data = cal._draw_caloron(k, m, rng, exact)
            if data is None:
                continue
            Y = nk.to_float(cal._gluing(data)[3])
            M = nk.to_float(data.normal_form)
            scale = np.linalg.norm(np.hstack([Y, M]))
            drops = any(np.linalg.svd(np.hstack([Y, eta * np.eye(k + m) - M]),
                                      compute_uv=False)[-1] < 1e-9 * scale
                        for eta in np.linalg.eigvals(M))
            passed = cal.validate(data)["mixed_pencil_surjective"].passed
            assert passed != drops, (seed, k, m)
            verdicts.append(passed)
    assert True in verdicts and False in verdicts
