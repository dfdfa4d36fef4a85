"""The rows of the matrix-data validation reports: the exact ordered row
list of each flavor at m = 0 and m >= 1, and a planted datum that fails
each invertibility row on both backends."""

import json
from dataclasses import replace

import numpy as np
import pytest

from bowmonad import bowcli, caloron as cal, numkit as nk, taubnut as tn

MODULES = {"caloron": cal, "taubnut": tn}

# every row each report emits, in order, by flavor and whether m >= 1
REPORT_ROWS = {
    ("caloron", False): ["relation_1", "stacked_pencil_injective",
                         "row_pencil_surjective", "A_invertible"],
    ("caloron", True): ["relation_1", "relation_2", "stacked_pencil_injective",
                        "row_pencil_surjective", "mixed_pencil_surjective",
                        "transport_invertible"],
    ("taubnut", False): ["relation_1", "edge_jump", "stacked_pencil_injective",
                         "monad_pointwise_injective",
                         "monad_pointwise_surjective",
                         "pushdown_surjective_xi", "pushdown_surjective_psi",
                         "monodromy_invertible"],
    ("taubnut", True): ["relation_1", "relation_2", "stacked_pencil_injective",
                        "monad_pointwise_injective",
                        "monad_pointwise_surjective",
                        "pushdown_surjective_xi", "pushdown_surjective_psi",
                        "monodromy_invertible"],
}


def _generate(flavor, k, m, exact):
    return getattr(MODULES[flavor], f"generate_{flavor}")(k, m, seed=0,
                                                          exact=exact)


def _rows(report):
    return [c.name for c in report.checks]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("flavor", list(MODULES))
def test_report_rows_are_pinned(flavor, m, exact):
    report = MODULES[flavor].validate(_generate(flavor, 2, m, exact))
    assert report.passed
    assert _rows(report) == REPORT_ROWS[flavor, m > 0]


def _singular_a(d):
    """A = diag(1, 0)."""
    return dict(A=nk.int_matrix(np.diag([1, 0]), d.exact))


def _zero_a_and_aprime(d):
    """A = 0 and A' = 0: the first k columns of the monodromy vanish."""
    return dict(A=nk.zeros_like_backend(d.k, d.k, d.exact),
                Aprime=nk.zeros_like_backend(d.m, d.k, d.exact))


# row: (flavor, m, the fields planted into the seed-0 k = 2 draw)
PLANTED = {
    "A_invertible": ("caloron", 0, _singular_a),
    "transport_invertible": ("caloron", 1, _zero_a_and_aprime),
    "monodromy_invertible-m1": ("taubnut", 1, _zero_a_and_aprime),
    "monodromy_invertible-m0": ("taubnut", 0, _singular_a),
}


def _planted(case, exact):
    flavor, m, plant = PLANTED[case]
    d = _generate(flavor, 2, m, exact)
    return flavor, replace(d, **plant(d))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("case", list(PLANTED))
def test_planted_datum_fails_its_invertibility_row(case, exact):
    """Each invertibility row fails on its planted datum, and the report
    keeps the row list of its flavor and m."""
    flavor, bad = _planted(case, exact)
    report = MODULES[flavor].validate(bad)
    assert not report[case.split("-")[0]].passed and not report.passed
    assert _rows(report) == REPORT_ROWS[flavor, bad.m > 0]


@pytest.mark.parametrize("exact", [False, True])
def test_singular_a_fails_the_m0_monad_rows_undecided(exact):
    """The m = 0 fused monad is built through A^-1: with A singular its
    pointwise rows fail with a note instead of validate raising."""
    _, bad = _planted("monodromy_invertible-m0", exact)
    report = tn.validate(bad)
    for name in ("monad_pointwise_injective", "monad_pointwise_surjective"):
        assert not report[name].passed
        assert "no fused monad" in report[name].note


@pytest.mark.parametrize("backend", ["f64", "exact"])
def test_validate_singular_a_m0_file_exit_1(backend, tmp_path, capsys):
    _, bad = _planted("monodromy_invertible-m0", backend == "exact")
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(bowcli.data_to_json(bad)))
    assert bowcli.main(["validate", "--input", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "fail"
    row = [c for c in out["checks"] if c["name"] == "monodromy_invertible"]
    assert row[0]["status"] == "fail"


def test_generator_retries_a_draw_with_singular_a(monkeypatch):
    """A draw whose A is singular fails validation, so the generator draws
    again instead of raising."""
    draw = tn._draw_taubnut_m0
    planted = []

    def first_singular(k, rng, exact):
        d = draw(k, rng, exact)
        if d is None or planted:
            return d
        planted.append(d)
        return replace(d, **_singular_a(d))

    monkeypatch.setattr(tn, "_draw_taubnut_m0", first_singular)
    d = tn.generate_taubnut(2, 0, seed=0)
    assert planted and tn.validate(d).passed


def _nearly_singular_a(d):
    """A = diag(1, 1/10^11), A' = 0 at m >= 1: invertible, with a smallest
    singular value below rank_tol."""
    A = nk.exact_from_ratios([((1, 1), (0, 1)), ((0, 1), (0, 1)),
                              ((0, 1), (0, 1)), ((1, 10 ** 11), (0, 1))],
                             (2, 2))
    plant = dict(A=A if d.exact else nk.to_float(A))
    if d.m:
        plant["Aprime"] = nk.zeros_like_backend(d.m, d.k, d.exact)
    return plant


@pytest.mark.parametrize("case", list(PLANTED))
def test_exact_invertibility_is_decided_exactly(case):
    """A = diag(1, 1/10^11) in the exact seed-0 k = 2 draw: the exact
    matrix inverts, so its row passes, while the float twin of the same
    data fails it at rank_tol.  Both report smallest / largest singular
    value."""
    flavor, m, _ = PLANTED[case]
    row = case.split("-")[0]
    d = _generate(flavor, 2, m, True)
    exact = replace(d, **_nearly_singular_a(d))
    twin = tn._float_data(exact)
    got = MODULES[flavor].validate(exact)[row]
    want = MODULES[flavor].validate(twin)[row]
    assert got.passed and not want.passed
    assert got.residual == want.residual < nk.DEFAULT_CTX.rank_tol
