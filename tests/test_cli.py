import argparse
import csv
import functools
import hashlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bowmonad import (bowcli, caloron, monadcore, nahmbow as nb, numkit as nk,
                      taubnut)

DATA = Path(__file__).parent / "data"


def run_cli(*args, **kw):
    return bowcli.main(list(args))


def test_validate_golden_file_passes(capsys):
    assert run_cli("validate", "--input", str(DATA / "caloron_k1m1.json")) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"


def test_validate_broken_file_fails(capsys):
    code = run_cli("validate", "--input",
                   str(DATA / "caloron_k1m1_broken.json"))
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    rel2 = [c for c in out["checks"] if c["name"] == "relation_2"][0]
    assert rel2["status"] == "fail"
    assert abs(rel2["residual"] - 3.0) < 1e-12


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "caloron", broken')
    assert run_cli("validate", "--input", str(bad)) == 2
    err = capsys.readouterr().err
    assert "parse" in err


@pytest.mark.parametrize("command", ["validate", "fiber", "splitting",
                                     "spectral", "roundtrip", "dirac",
                                     "nahm-flow"])
def test_missing_input_exit_2(command, capsys):
    assert run_cli(command) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "parse" and "--input" in err["message"]


def test_wrong_shape_exit_2(tmp_path):
    obj = json.loads((DATA / "caloron_k1m1.json").read_text())
    obj["A"] = [[[1.0, 0.0], [0.0, 0.0]]]      # 1x2, should be 1x1
    f = tmp_path / "shape.json"
    f.write_text(json.dumps(obj))
    assert run_cli("validate", "--input", str(f)) == 2


_EXACT_ZERO = '{"n": 0, "d": 1}'


@pytest.mark.parametrize("backend, entry", [
    ("f64", '["a", 0]'), ("f64", "[null, 0]"), ("f64", "[1e400, 0]"),
    ("exact", '{"re": {"n": 1, "d": 0}, "im": %s}' % _EXACT_ZERO),
    ("exact", '{"re": 5, "im": %s}' % _EXACT_ZERO),
    ("exact", '{"re": {"n": 1.5, "d": 1}, "im": %s}' % _EXACT_ZERO)])
@pytest.mark.parametrize("command", ["validate", "fiber", "roundtrip"])
def test_malformed_matrix_entry_exit_2(command, backend, entry, tmp_path,
                                       capsys):
    """An entry that is not two finite reals (f64), or whose exact parts
    are not an integer n over a nonzero integer d, exits 2 with one JSON
    parse error: not a TypeError, an inf reaching validate, or a division
    by zero."""
    good = tmp_path / "good.json"
    assert run_cli("generate", "--kind", "taubnut", "--k", "1", "--m", "1",
                   "--backend", backend, "--out", str(good)) == 0
    obj = json.loads(good.read_text())
    obj["A"] = [["ENTRY"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj).replace('"ENTRY"', entry))
    capsys.readouterr()
    assert run_cli(command, "--input", str(bad)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "parse" and "got" in err["message"]


def _entry_by_entry(obj):
    """An f64 matrix decoded one [re, im] entry at a time."""
    return np.array([[complex(re, im) for re, im in row] for row in obj],
                    dtype=complex)


def _assert_same(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


# the m >= 1 generators draw k = 1 and 2, the m = 0 ones k = 1 to 3
@pytest.mark.parametrize("kind, ks", [("caloron", (1, 2)),
                                      ("caloron-m0", (1, 2, 3)),
                                      ("taubnut", (1, 2)),
                                      ("taubnut-m0", (1, 2, 3))])
def test_f64_data_decode_matches_entry_by_entry(kind, ks, tmp_path):
    """Every field of a generated f64 data file decodes to the complex128
    matrix its entries give one at a time, bit for bit."""
    f = tmp_path / "data.json"
    for k in ks:
        for seed in range(3):
            assert run_cli("generate", "--kind", kind, "--k", str(k),
                           "--seed", str(seed), "--out", str(f)) == 0
            obj = json.loads(f.read_text())
            data = bowcli.load_file(str(f))
            for name in data.shapes(k, data.m):
                _assert_same(getattr(data, name), _entry_by_entry(obj[name]))


@pytest.mark.parametrize("m", [0, 1])
def test_f64_solution_decode_matches_entry_by_entry(m, tmp_path):
    """Each segment's grid and T1, T2, T3 stacks and every boundary matrix
    of a generated bowsol file decode as their entries one at a time do."""
    f = tmp_path / "sol.json"
    for seed in range(3):
        assert run_cli("generate", "--kind", "bowsol", "--m", str(m),
                       "--seed", str(seed), "--out", str(f)) == 0
        obj = json.loads(f.read_text())
        sol = bowcli.load_file(str(f))
        for name in ("head", "middle", "tail"):
            seg, o = getattr(sol, name), obj[name]
            _assert_same(seg.s_grid, np.array([float(v) for v in o["s"]]))
            for key in ("T1", "T2", "T3"):
                _assert_same(getattr(seg, key),
                             np.stack([_entry_by_entry(T) for T in o[key]]))
        for name in ("Bth", "Bht", "i_minus", "i_plus", "I_minus", "J_minus",
                     "I_plus", "J_plus"):
            if name in obj:
                _assert_same(getattr(sol, name), _entry_by_entry(obj[name]))


# entries that are not two finite reals; NaN and a 400-digit int are JSON
# Python reads, 1e400 reads as inf
_BAD_ENTRIES = ['["a", 0]', "[true, 0]", "[null, 0]", "[1e400, 0]", "NaN",
                "[NaN, 0]", "[%s, 0]" % ("1" + "0" * 399), "[1]", "[1, 2, 3]"]


def _planted_solution(tmp_path, plants):
    """A generated m = 1 bowsol file (rank-2 middle) with the JSON text of
    each (sample, row, col, text) in plants put at that entry of the
    middle segment's T2 stack."""
    sol_file = tmp_path / "sol.json"
    assert run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "2",
                   "--out", str(sol_file)) == 0
    obj = json.loads(sol_file.read_text())
    for i, (sample, row, col, _) in enumerate(plants):
        obj["middle"]["T2"][sample][row][col] = f"@{i}"
    text = json.dumps(obj)
    for i, (*_, entry) in enumerate(plants):
        text = text.replace(f'"@{i}"', entry)
    sol_file.write_text(text)
    return sol_file


@pytest.mark.parametrize("command", ["dirac", "spectral", "nahm-flow"])
@pytest.mark.parametrize("entry", _BAD_ENTRIES)
def test_malformed_solution_entry_exit_2(command, entry, tmp_path, capsys):
    """An entry of a segment's sample stack that is not two finite reals
    exits 2 with one JSON parse error that names the entry."""
    sol_file = _planted_solution(tmp_path, [(7, 1, 0, entry)])
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse"
    assert f"got {json.loads(entry)!r}" in err["message"]


@pytest.mark.parametrize("command", ["dirac", "spectral", "nahm-flow"])
def test_ragged_solution_row_exit_2(command, tmp_path, capsys):
    """A sample matrix with a row of three entries is malformed input."""
    sol_file = _planted_solution(tmp_path, [])
    obj = json.loads(sol_file.read_text())
    obj["middle"]["T3"][4][1].append([0.0, 0.0])
    sol_file.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "parse" and "2x2 row-major" in err["message"]


def test_malformed_solution_names_the_first_bad_entry(tmp_path, capsys):
    """Of two bad entries in one stack, the error names the one that comes
    first in sample then row-major order."""
    sol_file = _planted_solution(tmp_path, [(9, 0, 0, '["late", 0]'),
                                            (3, 1, 1, '["early", 0]')])
    capsys.readouterr()
    assert run_cli("nahm-flow", "--input", str(sol_file)) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "early" in message and "late" not in message


def test_generate_then_validate(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert run_cli("generate", "--kind", "taubnut", "--k", "1", "--m", "1",
                   "--seed", "42", "--out", str(out)) == 0
    assert run_cli("validate", "--input", str(out)) == 0
    capsys.readouterr()


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        run_cli("generate", "--kind", "caloron", "--k", "2", "--m", "1",
                "--seed", "7", "--out", str(f))
    assert a.read_text() == b.read_text()


def test_exact_save_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        run_cli("generate", "--kind", "taubnut", "--k", "2", "--m", "2",
                "--seed", "5", "--backend", "exact", "--out", str(f))
    assert a.read_bytes() == b.read_bytes()
    data = bowcli.load_file(str(a))
    assert data.exact


def test_f64_load_save_round_trip(tmp_path):
    data = caloron.generate_caloron(2, 1, seed=9)
    f = tmp_path / "x.json"
    f.write_text(json.dumps(bowcli.data_to_json(data)))
    back = bowcli.load_file(str(f))
    for name in ("A", "B", "C", "D2row", "Aprime", "Bprime", "Cprime"):
        assert np.array_equal(getattr(back, name), getattr(data, name))


def test_fiber_command(tmp_path, capsys):
    code = run_cli("fiber", "--input", str(DATA / "taubnut_k1m1.json"),
                   "--points", "8", "--seed", "3")
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [2] * 8
    assert out["composite_residual"] < 1e-13
    assert 1e3 <= out["min_margin"] < np.inf


def test_splitting_command(tmp_path, capsys):
    code = run_cli("splitting", "--input", str(DATA / "taubnut_k1m1.json"),
                   "--points", "4", "--seed", "1")
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    spec_rows = [s for s in out["splittings"] if s["which"] == "spectrum"]
    assert spec_rows[0]["type"] == [1, -1]


def test_roundtrip_command(capsys):
    for name in ("caloron_k1m1.json", "taubnut_k1m1.json"):
        assert run_cli("roundtrip", "--input", str(DATA / name)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_diff"] < 1e-10


def test_spectral_csv_diagonal(tmp_path, capsys):
    sol_file = tmp_path / "diag.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "2",
            "--out", str(sol_file))
    csv_file = tmp_path / "curve.csv"
    assert run_cli("spectral", "--input", str(sol_file), "--which", "S1",
                   "--out", str(csv_file)) == 0
    rows = csv_file.read_text().strip().splitlines()
    assert rows[0] == "eta_power,zeta_power,re,im"
    assert len(rows) > 1
    capsys.readouterr()


def test_dirac_command(tmp_path, capsys):
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
            "--out", str(sol_file))
    code = run_cli("dirac", "--input", str(sol_file), "--points", "2",
                   "--grid", "48", "--seed", "4")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(r["kernel_dim"] == 2 for r in out["results"])
    assert all(r["min_eig"] > 0 for r in out["results"])


def test_dirac_csv_min_eig_matches_spectrum(tmp_path, capsys):
    """min_eig comes from diraclattice.positivity; the dense singular values
    of the CSV columns agree with it."""
    sol_file = tmp_path / "sol.json"
    out_file = tmp_path / "kernels.csv"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "11",
            "--out", str(sol_file))
    assert run_cli("dirac", "--input", str(sol_file), "--points", "2",
                   "--grid", "48", "--seed", "4", "--out", str(out_file)) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 2
    for row in rows:
        want = float(row["sigma_1"]) ** 2
        assert abs(float(row["min_eig"]) - want) <= 1e-10 * want


def test_nahm_flow_command(tmp_path, capsys):
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "6",
            "--out", str(sol_file))
    csv_file = tmp_path / "drift.csv"
    assert run_cli("nahm-flow", "--input", str(sol_file), "--step", "0.001",
                   "--out", str(csv_file)) == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "s,charpoly_drift"
    drifts = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(drifts) < 1e-10
    capsys.readouterr()


def test_cli_subprocess_entry_point(tmp_path):
    """The installed console script behaves like the library calls."""
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bowmonad.bowcli", "generate", "--kind",
         "taubnut", "--k", "1", "--m", "1", "--seed", "42", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "bowmonad.bowcli", "validate", "--input",
         str(out)], capture_output=True, text=True)
    assert proc.returncode == 0


def test_solution_serialization_round_trip(tmp_path):
    from bowmonad import nahmbow as nb
    rep = nb.BowRepresentation(1.0, 0.25, 1, 1)
    sol = nb.solution_k1_m1(rep, mu1=(0.9, -0.3, 0.4), mu2=(-0.5, 0.8, -0.2),
                            weight=0.4)
    f = tmp_path / "sol.json"
    f.write_text(json.dumps(bowcli.solution_to_json(sol)))
    back = bowcli.load_file(str(f))
    assert np.allclose(back.middle.T1, sol.middle.T1)
    assert np.allclose(back.i_minus, sol.i_minus)
    assert np.array_equal(back.Bth, sol.Bth)


def test_solution_with_lambda_outside_the_interval_exit_2(tmp_path, capsys):
    """A nahmsolution file whose marked points do not sit inside the
    interval is malformed input: exit 2 with a JSON parse error."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0",
            "--out", str(sol_file))
    obj = json.loads(sol_file.read_text())
    obj["rep"]["lam"] = 0.9
    sol_file.write_text(json.dumps(obj))
    assert run_cli("validate", "--input", str(sol_file)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "parse" and "lambda" in err["message"]


# reals of a nahmsolution file replaced by JSON text that is not a finite
# number: 1e400 reads as inf, NaN and Infinity are JSON extensions Python
# reads, and a string is not a number even where float() would take it
_NOT_FINITE = [(("rep", "ell"), "1e400"), (("rep", "ell"), '"inf"'),
               (("rep", "ell"), "NaN"), (("rep", "lam"), '"0.25"'),
               (("middle", "s0"), "-1e400"), (("head", "s1"), '"nan"'),
               (("tail", "s", 1), "Infinity")]


@pytest.mark.parametrize("command", ["validate", "spectral", "nahm-flow",
                                     "dirac"])
@pytest.mark.parametrize("path, text", _NOT_FINITE)
def test_solution_reals_must_be_finite_numbers_exit_2(command, path, text,
                                                      tmp_path, capsys):
    """ell, lam, each segment's s0 and s1 and every grid point s are finite
    JSON numbers; anything else is malformed input: exit 2 with one JSON
    parse error before the command runs."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "6",
            "--out", str(sol_file))
    capsys.readouterr()
    obj = json.loads(sol_file.read_text())
    *keys, last = path
    functools.reduce(lambda o, key: o[key], keys, obj)[last] = "@"
    sol_file.write_text(json.dumps(obj).replace('"@"', text))
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and "finite number" in err["message"]


def _cut_t1(seg):
    seg["T1"] = seg["T1"][:3]


def _one_point(seg):
    for key in ("s", "T1", "T2", "T3"):
        seg[key] = seg[key][:1]


def _reversed(seg):
    for key in ("s", "T1", "T2", "T3"):
        seg[key] = seg[key][::-1]


def _repeated_point(seg):
    seg["s"][5] = seg["s"][4]


@pytest.mark.parametrize("command", ["validate", "spectral", "nahm-flow",
                                     "dirac"])
@pytest.mark.parametrize("edit, message", [
    (_cut_t1, "T1 needs one matrix per grid point s: 3 for 33"),
    (_one_point, "needs 2 or more grid points s, got 1"),
    (_reversed, "strictly increasing"), (_repeated_point, "strictly increasing")],
    ids=["cut-T1", "one-point", "reversed", "repeated-point"])
def test_segment_samples_must_match_an_increasing_grid_exit_2(
        command, edit, message, tmp_path, capsys):
    """A sampled segment holds one T1, T2 and T3 matrix per point of a
    strictly increasing grid of at least two points; any other is
    malformed input: exit 2 with one JSON parse error before the command
    runs, rather than an IndexError, a LinAlgError or a silent load."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    capsys.readouterr()
    obj = json.loads(sol_file.read_text())
    obj["middle"]["constant"] = False
    edit(obj["middle"])
    sol_file.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and message in err["message"]


@pytest.mark.parametrize("command", ["validate", "spectral", "nahm-flow",
                                     "dirac"])
@pytest.mark.parametrize("constant, message", [
    (False, "sampled segment's grid s must run from s0 to s1"),
    (True, "constant segment's grid s must lie in [s0, s1]")],
    ids=["sampled", "constant"])
def test_segment_grid_must_sit_on_its_interval_exit_2(
        command, constant, message, tmp_path, capsys):
    """A sampled segment's grid starts at s0 and ends at s1, and a constant
    segment's grid lies in [s0, s1]: a middle grid shifted by +10 is
    malformed input, exit 2 with one JSON parse error, rather than a load
    that reads every s at the grid's clamped end."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    capsys.readouterr()
    obj = json.loads(sol_file.read_text())
    obj["middle"]["constant"] = constant
    obj["middle"]["s"] = [s + 10 for s in obj["middle"]["s"]]
    sol_file.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and message in err["message"]


def test_constant_segment_grid_inside_its_interval_loads(tmp_path, capsys):
    """A constant segment reads its first sample anywhere on [s0, s1], so a
    grid strictly inside the interval loads."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    capsys.readouterr()
    obj = json.loads(sol_file.read_text())
    assert obj["middle"]["constant"]
    obj["middle"]["s"] = obj["middle"]["s"][1:-1]
    for key in ("T1", "T2", "T3"):
        obj["middle"][key] = obj["middle"][key][1:-1]
    sol = bowcli.solution_from_json(obj)
    assert len(sol.middle.s_grid) == 31


def _lam_moved(obj):
    obj["rep"]["lam"] = 0.3


def _tail_stretched(obj):
    obj["tail"]["s1"] = 0.75


@pytest.mark.parametrize("command", ["validate", "spectral", "nahm-flow",
                                     "dirac"])
@pytest.mark.parametrize("edit, message", [
    (_lam_moved, "the head segment runs on [-0.5, -0.25], not on its bow "
                 "interval [-0.5, -0.3]"),
    (_tail_stretched, "the tail segment runs on [0.25, 0.75], not on its "
                      "bow interval [0.25, 0.5]")],
    ids=["lam-moved", "tail-stretched"])
def test_segment_must_run_on_its_bow_interval_exit_2(
        command, edit, message, tmp_path, capsys):
    """Head, middle and tail run on [-ell/2, -lam], [-lam, lam] and
    [lam, ell/2] exactly: a rep whose lam moved off the segments' ends, or a
    segment that runs past its interval, is malformed input, exit 2 with
    one JSON parse error, rather than a command that runs on the rep's
    intervals and reads the segments clamped."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    capsys.readouterr()
    obj = json.loads(sol_file.read_text())
    edit(obj)
    sol_file.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(sol_file),
                   *_CONTRACT_ARGS[command], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and message in err["message"]


@pytest.mark.parametrize("args", [("--points", "0", "--grid", "64"),
                                  ("--points", "1")])
def test_dirac_on_overflowing_samples_exit_1_with_json_error(args, tmp_path,
                                                              capsys):
    """A bowsol file whose middle T1 samples are scaled to 1e200 loads (and
    fails validate); its Gram blocks overflow, so dirac, the refinement
    trace or a sampled point, exits 1 with one JSON error, and prints no
    traceback and no NumPy warning."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    obj = json.loads(sol_file.read_text())
    for sample in obj["middle"]["T1"]:
        for row in sample:
            for entry in row:
                entry[0] = entry[0] * 1e200 if entry[0] else 1e200
    sol_file.write_text(json.dumps(obj))
    assert run_cli("validate", "--input", str(sol_file)) == 1
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "bowmonad.bowcli", "dirac", "--input",
         str(sol_file), *args], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "NumericalBreakdown"


# data files refused before any check, each by its own rule: an unknown
# kind or backend, a missing matrix field, a top level that is not an
# object, and an exact entry that is not a fraction pair; each edit maps a
# generated file's object to the refused file's top level
_REFUSED_FILES = [
    ("f64", lambda obj: {**obj, "kind": "instanton"}, "unknown kind"),
    ("f64", lambda obj: {**obj, "backend": "f32"}, "unknown backend"),
    ("f64", lambda obj: {k: v for k, v in obj.items() if k != "Cprime"},
     "missing field 'Cprime'"),
    ("f64", lambda obj: [obj], "top level must be an object"),
    ("exact", lambda obj: {**obj, "A": [[[1, 0]]]}, "expected fraction pair")]


@pytest.mark.parametrize("backend, edit, message", _REFUSED_FILES,
                         ids=["kind", "backend", "missing-field",
                              "top-level", "exact-entry"])
def test_refused_data_file_exit_2_with_one_parse_error(
        backend, edit, message, tmp_path, capsys):
    """validate exits 2 on each refused data file, writing nothing to
    stdout and exactly one JSON parse error, one line, to stderr."""
    good = tmp_path / "good.json"
    assert run_cli("generate", "--kind", "taubnut", "--k", "1", "--m", "1",
                   "--backend", backend, "--out", str(good)) == 0
    obj = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(obj)))
    capsys.readouterr()
    assert run_cli("validate", "--input", str(bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    err = json.loads(line)["error"]
    assert err["type"] == "parse" and message in err["message"]


def test_constant_segment_loads_from_one_point(tmp_path, capsys):
    """A segment flagged constant is its first sample, so one grid point
    with one matrix each is enough."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "3",
            "--out", str(sol_file))
    obj = json.loads(sol_file.read_text())
    _one_point(obj["middle"])
    sol = bowcli.solution_from_json(obj)
    assert sol.middle.constant and len(sol.middle.s_grid) == 1
    obj["middle"]["s"] = []
    with pytest.raises(bowcli.ParseError, match="needs 1 or more grid points s, got 0"):
        bowcli.solution_from_json(obj)
    capsys.readouterr()


def test_diagonal_nahm_kind_reproduces_reference_curve(tmp_path, capsys):
    sol_file = tmp_path / "diag.json"
    run_cli("generate", "--kind", "diagonal-nahm", "--k", "2", "--seed", "3",
            "--out", str(sol_file))
    csv_file = tmp_path / "c.csv"
    assert run_cli("spectral", "--input", str(sol_file), "--which", "S0",
                   "--out", str(csv_file)) == 0
    rows = {}
    for line in csv_file.read_text().strip().splitlines()[1:]:
        i, j, re, im = line.split(",")
        rows[(int(i), int(j))] = complex(float(re), float(im))
    want = {(2, 0): 1, (1, 0): -1, (1, 1): 2, (1, 2): 1, (0, 1): -2, (0, 3): 2}
    assert set(rows) == set(want)
    for key, val in want.items():
        assert abs(rows[key] - val) < 1e-9
    capsys.readouterr()


def test_dirac_refinement_trace(tmp_path, capsys):
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
            "--out", str(sol_file))
    csv_file = tmp_path / "refine.csv"
    assert run_cli("dirac", "--input", str(sol_file), "--points", "0",
                   "--grid", "64", "--seed", "2", "--out", str(csv_file)) == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "grid,h,kernel_dim,gap,reality,min_eig"
    assert len(lines) == 4
    capsys.readouterr()


def test_dirac_refinement_runs_to_grid_4096(tmp_path, capsys):
    """The refinement trace builds no dense operator (2.4 GB at grid 4096),
    so it runs to grid 4096: three rows, each with kernel dimension 2."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--out",
            str(sol_file))
    csv_file = tmp_path / "refine.csv"
    assert run_cli("dirac", "--input", str(sol_file), "--points", "0",
                   "--grid", "4096", "--out", str(csv_file)) == 0
    with csv_file.open() as f:
        rows = list(csv.DictReader(f))
    assert [(r["grid"], r["kernel_dim"]) for r in rows] == [
        ("1024", "2"), ("2048", "2"), ("4096", "2")]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fiber", "splitting", "dirac"])
def test_negative_points_exit_2(command, tmp_path, capsys):
    """Every command with --points refuses a negative count before it runs,
    rather than writing an empty result with exit 0."""
    data = DATA / "taubnut_k1m1.json"
    extra = []
    if command == "dirac":
        data = tmp_path / "sol.json"
        run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
                "--out", str(data))
        capsys.readouterr()
        extra = ["--grid", "32"]
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(data), "--points", "-1",
                   "--out", str(out), *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["error"]["type"] == "parse"


@pytest.mark.parametrize("command, extra", [
    ("fiber", []), ("splitting", []), ("dirac", ["--grid", "32"]),
    *(("generate", ["--kind", kind]) for kind in (
        "caloron", "caloron-m0", "taubnut", "taubnut-m0", "bowsol",
        "diagonal-nahm"))])
def test_negative_seed_exit_2(command, extra, tmp_path, capsys):
    """Every command with --seed refuses a negative seed before it runs,
    with one JSON parse error, not a traceback from the generator."""
    given = [] if command == "generate" else \
        ["--input", str(DATA / "taubnut_k1m1.json")]
    out = tmp_path / "out"
    assert run_cli(command, *given, *extra, "--seed", "-1",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and "--seed >= 0" in err["message"]


def test_dirac_refinement_rejects_coarse_grid(tmp_path, capsys):
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
            "--out", str(sol_file))
    capsys.readouterr()
    assert run_cli("dirac", "--input", str(sol_file), "--points", "0",
                   "--grid", "16") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "parse"


def test_dirac_refinement_rejects_grid_not_divisible_by_4(tmp_path, capsys):
    """The trace runs grid/4, grid/2 and grid; --grid 34 would run 8, 17
    and 34, and h would not halve."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
            "--out", str(sol_file))
    capsys.readouterr()
    assert run_cli("dirac", "--input", str(sol_file), "--points", "0",
                   "--grid", "34") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "parse"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1", "2"])
@pytest.mark.parametrize("command, extra", [
    ("validate", []), ("fiber", ["--points", "2"]),
    ("dirac", ["--points", "1", "--grid", "32"]), ("spectral", []),
    ("nahm-flow", []), ("generate", ["--kind", "caloron"])])
def test_tol_outside_unit_interval_exit_2(command, extra, tol, tmp_path,
                                          capsys):
    """--tol is a relative rank tolerance: zero, a negative or non-finite
    value, or one of 1 or more is malformed input, not a silent default, a
    failed check on valid data or an infinite gap.  Every command refuses
    it, also those that make no rank decision."""
    data = DATA / "taubnut_k1m1.json"
    if command in ("dirac", "spectral", "nahm-flow"):
        data = tmp_path / "sol.json"
        run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
                "--out", str(data))
        capsys.readouterr()
    assert run_cli(command, "--input", str(data), *extra,
                   f"--tol={tol}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "parse"


def test_fiber_tol_sets_the_rank_tolerance(capsys):
    """A valid --tol reaches the rank decisions: at full rank the margin is
    sigma_min / (rank_tol sigma_max), so 100 times the tolerance gives 1/100
    of the margin."""
    margins = []
    for tol in ([], ["--tol", "1e-8"]):
        assert run_cli("fiber", "--input", str(DATA / "taubnut_k1m1.json"),
                       "--points", "8", "--seed", "3", *tol) == 0
        margins.append(json.loads(capsys.readouterr().out)["min_margin"])
    assert margins[1] == pytest.approx(margins[0] / 100, rel=1e-12)


@pytest.mark.parametrize("grid", ["0", "-4", "4", "6"])
def test_dirac_grid_below_two_steps_per_segment_exit_2(grid, tmp_path,
                                                        capsys):
    """A grid that leaves an end segment shorter than two steps h (no grid
    at all, a negative one, or one whose end links would be longer than h)
    is malformed input, not a traceback or a silent success."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "0", "--seed", "11",
            "--out", str(sol_file))
    capsys.readouterr()
    assert run_cli("dirac", "--input", str(sol_file), "--points", "1",
                   "--grid", grid) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "parse"


@pytest.mark.parametrize("step", ["0", "-0.01", "nan"])
def test_nahm_flow_step_not_finite_and_positive_exit_2(step, tmp_path,
                                                        capsys):
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "6",
            "--out", str(sol_file))
    capsys.readouterr()
    assert run_cli("nahm-flow", "--input", str(sol_file), f"--step={step}",
                   "--out", str(tmp_path / "d.csv")) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "parse"
    assert not (tmp_path / "d.csv").exists()


def test_dirac_pole_order_exit_1(tmp_path, capsys):
    from bowmonad import nahmbow as nb
    rep = nb.BowRepresentation(1.0, 0.25, 1, 2)
    z1 = np.zeros((1, 1), dtype=complex)
    z3 = np.zeros((3, 3), dtype=complex)
    sol = nb.NahmSolution(rep, nb.constant_segment(-0.5, -0.25, z1, z1, z1),
                          nb.constant_segment(-0.25, 0.25, z3, z3, z3),
                          nb.constant_segment(0.25, 0.5, z1, z1, z1), z1, z1)
    sol_file = tmp_path / "m2.json"
    sol_file.write_text(json.dumps(bowcli.solution_to_json(sol)))
    assert run_cli("dirac", "--input", str(sol_file), "--points", "1",
                   "--grid", "32") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "PoleOrderUnsupported"


@pytest.mark.parametrize("command", ["validate", "fiber", "splitting",
                                     "spectral", "nahm-flow", "dirac",
                                     "roundtrip"])
def test_backend_only_on_generate(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--input", str(DATA / "taubnut_k1m1.json"),
                "--backend", "exact")
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def _cli_result(capsys, *args):
    """(exit code, the JSON written to --out, or the JSON error)."""
    code = run_cli(*args)
    captured = capsys.readouterr()
    return code, json.loads(captured.out or captured.err)


@pytest.mark.parametrize("kind", ["caloron", "caloron-m0", "taubnut",
                                  "taubnut-m0"])
def test_fiber_and_splitting_agree_on_exact_and_f64_files(kind, tmp_path,
                                                          capsys):
    """The exact and f64 files of one k = 2 draw give fiber and splitting
    the same dims, splitting types (or refusal) and exit code, with
    margins and residuals within 1e-9: an exact file reaches both commands
    through to_float of the exact ParamMonad and PolyMatrix."""
    out = {}
    for backend in ("f64", "exact"):
        data = tmp_path / f"{backend}.json"
        run_cli("generate", "--kind", kind, "--k", "2", "--seed", "0",
                "--backend", backend, "--out", str(data))
        capsys.readouterr()
        out[backend] = [_cli_result(capsys, command, "--input", str(data),
                                    "--points", "3")
                        for command in ("fiber", "splitting")]
    (f_code, f_fiber), (s_code, split) = out["f64"]
    (f_code_e, f_fiber_e), (s_code_e, split_e) = out["exact"]
    assert (f_code, s_code) == (f_code_e, s_code_e)
    close = functools.partial(pytest.approx, rel=1e-9, abs=1e-9)
    assert f_fiber["dims"] == f_fiber_e["dims"] == [2, 2, 2]
    assert f_fiber["points"] == f_fiber_e["points"]
    for key in ("composite_residual", "min_margin"):
        assert f_fiber_e[key] == close(f_fiber[key])
    if "error" in split:
        assert split == split_e
    else:
        assert [(r["which"], r["type"]) for r in split["splittings"]] == \
            [(r["which"], r["type"]) for r in split_e["splittings"]]
        assert [r["eta"] for r in split_e["splittings"]] == \
            [close(r["eta"]) for r in split["splittings"]]


def _diagonal_nahm_file(tmp_path, capsys):
    """An m = 0 solution without the fundamental pairs I, J."""
    sol_file = tmp_path / "diag.json"
    run_cli("generate", "--kind", "diagonal-nahm", "--k", "2",
            "--out", str(sol_file))
    capsys.readouterr()
    return sol_file


def test_validate_m0_without_fundamental_data(tmp_path, capsys):
    sol_file = _diagonal_nahm_file(tmp_path, capsys)
    assert run_cli("validate", "--input", str(sol_file)) == 1

    def strict(token):
        raise ValueError(f"non-standard JSON token {token}")

    out = json.loads(capsys.readouterr().out, parse_constant=strict)
    checks = {c["name"]: c for c in out["checks"]}
    for name in ("fundamental_minus", "fundamental_plus"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["residual"] == "inf"
        assert "missing" in checks[name]["note"]
    assert run_cli("spectral", "--input", str(sol_file),
                   "--out", str(tmp_path / "c.csv")) == 0


def test_dirac_m0_without_fundamental_data(tmp_path, capsys):
    sol_file = _diagonal_nahm_file(tmp_path, capsys)
    assert run_cli("dirac", "--input", str(sol_file), "--points", "1",
                   "--grid", "32") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "BuildRefused"


_CONTRACT_KINDS = {"caloron": ["--k", "2", "--m", "1"],
                   "caloron-m0": ["--k", "2"],
                   "taubnut": ["--k", "2", "--m", "1"],
                   "taubnut-m0": ["--k", "2"],
                   "bowsol": ["--m", "1"]}
_CONTRACT_ARGS = {"validate": [], "fiber": ["--points", "2"],
                  "splitting": ["--points", "2"], "spectral": [],
                  "nahm-flow": [], "dirac": ["--points", "1", "--grid", "32"],
                  "roundtrip": []}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """One seeded file per data kind; bowsol writes a nahmsolution file."""
    d = tmp_path_factory.mktemp("contract")
    files = {}
    for kind, extra in _CONTRACT_KINDS.items():
        files[kind] = d / f"{kind}.json"
        assert run_cli("generate", "--kind", kind, "--seed", "0",
                       "--out", str(files[kind]), *extra) == 0
    return files


@pytest.mark.parametrize("kind", list(_CONTRACT_KINDS))
@pytest.mark.parametrize("command", list(_CONTRACT_ARGS) + ["generate"])
def test_exit_code_contract(command, kind, contract_inputs, tmp_path, capsys):
    """Every command on every input kind exits 0, 1 or 2 without a
    traceback; a non-zero exit leaves exactly one JSON error on stderr.
    generate runs its kind at k = 3, m = 1, outside the m >= 1 generators'
    range."""
    if command == "generate":
        args = ["generate", "--kind", kind, "--k", "3", "--m", "1"]
    else:
        args = [command, "--input", str(contract_inputs[kind]),
                *_CONTRACT_ARGS[command]]
    code = run_cli(*args, "--out", str(tmp_path / "out"))
    assert code in (0, 1, 2)
    if code:
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error"} and set(err["error"]) == {"type", "message"}


@pytest.mark.parametrize("kind", ["caloron", "caloron-m0", "taubnut",
                                  "taubnut-m0"])
def test_generate_without_valid_draw_exit_1(kind, monkeypatch, capsys):
    """A generator that runs out of draws exits 1 with a JSON error."""
    for module, name in ((caloron, "generate_caloron"),
                         (taubnut, "generate_taubnut")):
        monkeypatch.setattr(module, name, functools.partial(
            getattr(module, name), max_tries=0))
    assert run_cli("generate", "--kind", kind, "--k", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "NoValidDraw"


@pytest.mark.parametrize("samples", ["-1", "0", "1", "2"])
def test_spectral_too_few_zeta_samples_exit_2(samples, tmp_path, capsys):
    """The rank-1 tail curve has 2r + 1 = 3 unknowns per eta power: fewer
    zeta samples exit 2 with a JSON parse error and write no CSV."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "2",
            "--out", str(sol_file))
    capsys.readouterr()
    assert run_cli("spectral", "--input", str(sol_file),
                   f"--zeta-samples={samples}",
                   "--out", str(tmp_path / "c.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and "zeta samples" in err["message"]
    assert not (tmp_path / "c.csv").exists()


def test_spectral_minimal_zeta_samples_run(tmp_path, capsys):
    """2r + 1 samples interpolate the curve exactly: the same coefficients
    as the default 2r + 3."""
    sol_file = tmp_path / "sol.json"
    run_cli("generate", "--kind", "bowsol", "--m", "1", "--seed", "2",
            "--out", str(sol_file))
    curves = []
    for extra in (["--zeta-samples", "3"], []):
        out = tmp_path / "c.csv"
        assert run_cli("spectral", "--input", str(sol_file),
                       "--out", str(out), *extra) == 0
        with open(out) as f:
            curves.append({(r["eta_power"], r["zeta_power"]):
                           complex(float(r["re"]), float(r["im"]))
                           for r in csv.DictReader(f)})
    assert set(curves[0]) == set(curves[1])
    assert all(abs(curves[0][key] - curves[1][key]) < 1e-12
               for key in curves[0])
    capsys.readouterr()


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("kind", ["caloron", "caloron-m0", "taubnut",
                                  "taubnut-m0", "diagonal-nahm"])
def test_generate_k_below_1_exit_2(kind, k, capsys):
    assert run_cli("generate", "--kind", kind, f"--k={k}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "parse" and "k >= 1" in err["message"]


def test_generate_refuses_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--kind", "perturbed")
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "parse"
    assert "invalid choice: 'perturbed'" in err["message"]


@pytest.mark.parametrize("extra", [
    ["--kind", "bowsol", "--k", "2"],
    ["--kind", "bowsol", "--backend", "exact"],
    ["--kind", "diagonal-nahm", "--k", "2", "--backend", "exact"]])
def test_generate_refuses_values_its_kind_ignores(extra, tmp_path, capsys):
    """bowsol draws k = 1 solutions and both bow-solution kinds are f64
    only: any other --k or --backend exact is malformed input, not a
    silent f64 k = 1 file."""
    out = tmp_path / "sol.json"
    assert run_cli("generate", *extra, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err)["error"]["type"] == "parse"


@pytest.mark.parametrize("kind", ["caloron-m0", "taubnut-m0", "diagonal-nahm"])
def test_generate_refuses_m_its_kind_ignores(kind, tmp_path, capsys):
    """The m = 0 kinds take --m 0 or no --m, and write the same file for
    both; any other --m exits 2 instead of writing the m = 0 file."""
    files = [tmp_path / "plain.json", tmp_path / "m0.json"]
    for f, extra in zip(files, ([], ["--m", "0"])):
        assert run_cli("generate", "--kind", kind, "--k", "2", *extra,
                       "--out", str(f)) == 0
    assert files[0].read_text() == files[1].read_text()
    out = tmp_path / "m5.json"
    for m in ("5", "1", "-1"):
        assert run_cli("generate", "--kind", kind, "--k", "2", "--m", m,
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)["error"]
        assert err["type"] == "parse" and f"--m {m}" in err["message"]


_COMMANDS = ["validate", "fiber", "splitting", "spectral", "nahm-flow",
             "dirac", "roundtrip", "generate"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_unknown_option_exit_2_with_json_error(command, capsys):
    """An option the command does not take is a usage error: exit 2 with
    the one JSON parse error on stderr, never argparse's usage text."""
    given = ["--kind", "caloron"] if command == "generate" else \
        ["--input", str(DATA / "taubnut_k1m1.json")]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *given, "--no-such-option", "1")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error"} and err["error"]["type"] == "parse"
    assert "--no-such-option" in err["error"]["message"]


def test_every_option_is_read_by_its_command():
    """Each option of each command is read as args.<dest> by the command's
    function; --tol counts as read where the function reads args.ctx, the
    context main builds from it."""
    [sub] = [a for a in bowcli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(_COMMANDS)
    unread = []
    for name, sp in sub.choices.items():
        source = inspect.getsource(sp.get_default("fn"))
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            dest = "ctx" if action.dest == "tol" else action.dest
            if not re.search(rf"\bargs\.{dest}\b", source):
                unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []


@pytest.mark.parametrize("exact", [False, True])
def test_validate_reports_the_exact_recheck_of_a_pencil_failure(
        exact, tmp_path, capsys):
    """A k = m = 1 tuple whose normal form has a left eigenvector killing
    Y fails mixed_pencil_surjective; each certificate entry is
    [xi, eta, vector, exact_checked], and the exact backend's exact
    re-check shows as true."""
    mat = nk.exact_matrix if exact else (lambda r: np.array(r, dtype=complex))
    eta0 = nk.GQ(2, 3) if exact else 2 + 3j
    data = caloron.CaloronData(1, 1, A=mat([[1]]), B=mat([[eta0]]),
                               C=mat([[eta0, 1]]), D2row=mat([[1]]),
                               Aprime=mat([[1]]), Bprime=mat([[0]]),
                               Cprime=mat([[0, 1]]))
    f = tmp_path / "pencil.json"
    f.write_text(json.dumps(bowcli.data_to_json(data)))
    assert run_cli("validate", "--input", str(f)) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    [(xi, eta, vector, exact_checked)] = \
        checks["mixed_pencil_surjective"]["certificate"]
    assert xi == [0.0, 0.0] and abs(complex(*eta) - (2 + 3j)) < 1e-9
    assert len(vector) == 2 and exact_checked is exact


# size fields that are not what the kind allows: a bool, a float or a
# string where a JSON integer belongs, a k below 1, m = 0 for an m >= 1
# kind and m != 0 for an m = 0 kind
_BAD_SIZES = [("taubnut", "k", True), ("taubnut", "k", 1.7),
              ("taubnut", "k", "1"), ("taubnut", "k", 0),
              ("taubnut", "m", 1.2), ("taubnut", "m", 0),
              ("taubnut", "m", None), ("taubnut-m0", "m", 2),
              ("taubnut-m0", "m", 0.0), ("taubnut-m0", "k", 1.0),
              ("bowsol", "k", 1.9), ("bowsol", "k", True),
              ("bowsol", "k", 0), ("bowsol", "m", -1), ("bowsol", "m", 0.5),
              ("bowsol", "m", "1")]


@pytest.fixture(scope="module")
def size_inputs(tmp_path_factory):
    """A Taub-NUT k = 1, m = 1 file, a taubnut-m0 k = 1 file and an m = 1
    bow solution file."""
    d = tmp_path_factory.mktemp("sizes")
    files = {"taubnut": DATA / "taubnut_k1m1.json",
             "taubnut-m0": d / "m0.json", "bowsol": d / "sol.json"}
    assert run_cli("generate", "--kind", "taubnut-m0", "--out",
                   str(files["taubnut-m0"])) == 0
    assert run_cli("generate", "--kind", "bowsol", "--m", "1", "--out",
                   str(files["bowsol"])) == 0
    return files


@pytest.mark.parametrize("kind, field, value", _BAD_SIZES)
def test_size_fields_must_be_json_integers_exit_2(kind, field, value,
                                                  size_inputs, tmp_path,
                                                  capsys):
    """k >= 1, m >= 1 for the m >= 1 kinds, m absent or 0 for the -m0 kinds
    and rep m >= 0, each a JSON integer: anything else exits 2 with one
    JSON parse error, whatever the command."""
    capsys.readouterr()
    obj = json.loads(size_inputs[kind].read_text())
    (obj["rep"] if kind == "bowsol" else obj)[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    commands = ["validate", "dirac"] if kind == "bowsol" else \
        ["validate", "fiber", "roundtrip"]
    for command in commands:
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(path),
                       *_CONTRACT_ARGS[command], "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)["error"]
        assert err["type"] == "parse" and field in err["message"]


def test_request_too_large_for_memory_exit_1(tmp_path, monkeypatch, capsys):
    """A MemoryError (a tiny nahm-flow --step asks for TiBs of samples)
    ends in one JSON error and exit 1, not a traceback."""
    sol_file = tmp_path / "sol.json"
    assert run_cli("generate", "--kind", "bowsol", "--m", "1",
                   "--out", str(sol_file)) == 0
    capsys.readouterr()

    def too_large(*args, **kw):
        raise MemoryError("Unable to allocate 3.64 TiB")

    monkeypatch.setattr(nb, "flow", too_large)
    out = tmp_path / "drift.csv"
    assert run_cli("nahm-flow", "--input", str(sol_file), "--step", "1e-12",
                   "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert set(err) == {"error"}
    assert err["error"] == {"type": "MemoryError",
                            "message": "Unable to allocate 3.64 TiB"}


# sha256 (first 16 hex digits) of the sorted-key data JSON of seeds 0-3,
# f64 then exact, per flavor and (k, m) pair of the acceptance suite
GENERATOR_DIGESTS = {
    ("caloron", 1, 0): "9d8305fcfe07465a",
    ("caloron", 1, 1): "3e4b1f03c93c1a11",
    ("caloron", 1, 2): "0eebfef5d2c16de5",
    ("caloron", 2, 0): "9165ffbad865dc39",
    ("caloron", 2, 1): "60ea258c3184c0f8",
    ("caloron", 2, 2): "31df588a092664dd",
    ("caloron", 3, 0): "61940df3b41f7141",
    ("taubnut", 1, 0): "c907a50ba4d5ebc3",
    ("taubnut", 1, 1): "094f8a3e8de53da4",
    ("taubnut", 1, 2): "8b5ba84465c71d95",
    ("taubnut", 2, 0): "23c9345adfb179bf",
    ("taubnut", 2, 1): "f51cec1d6d9e2b44",
    ("taubnut", 2, 2): "1c3a31d975977b0e",
    ("taubnut", 3, 0): "b9f8500f3e5f11d3",
}


@pytest.mark.parametrize("flavor, k, m", list(GENERATOR_DIGESTS))
def test_generator_streams_are_pinned(flavor, k, m):
    """Each generator draws the same data, bit for bit in its data file, on
    both backends: the rng call order, the retries and the conversion of
    the exact draws to floats are all fixed."""
    gen = {"caloron": caloron.generate_caloron,
           "taubnut": taubnut.generate_taubnut}[flavor]
    h = hashlib.sha256()
    for seed in range(4):
        for exact in (False, True):
            data = bowcli.data_to_json(gen(k, m, seed=seed, exact=exact))
            h.update(json.dumps(data, sort_keys=True).encode())
    assert h.hexdigest()[:16] == GENERATOR_DIGESTS[flavor, k, m]


# sha256 (first 16 hex digits) over seeds 0-3 of the exact outputs of each
# exact draw, per flavor and (k, m) pair; see _exact_outputs
EXACT_OUTPUT_DIGESTS = {
    ("caloron", 1, 0): "540143d91cc28023",
    ("caloron", 1, 1): "3a543430ca1bacf8",
    ("caloron", 1, 2): "4212de6ab9a11831",
    ("caloron", 2, 0): "4c8ddb694dabd4fc",
    ("caloron", 2, 1): "0f88548dddbbcdbe",
    ("caloron", 2, 2): "1c9ea37eb5173d4d",
    ("caloron", 3, 0): "ae833b5528875ba2",
    ("taubnut", 1, 0): "b1640fad4922ac28",
    ("taubnut", 1, 1): "7e114d6a2f5c5d16",
    ("taubnut", 1, 2): "1874a42d389e2d59",
    ("taubnut", 2, 0): "896fdf65cd339c1b",
    ("taubnut", 2, 1): "2e22b540a64727e4",
    ("taubnut", 2, 2): "7bb2180c8accd471",
    ("taubnut", 3, 0): "2bbb523183dc6e81",
}


def _gq_text(z):
    return f"{z.re}/{z.im}"


def _gaussian_rational_point(k, m, seed):
    """A seeded chart point with Gaussian-rational coordinates of modulus
    at least 1/2."""
    rng = np.random.default_rng([k, m, seed])
    pt = []
    while len(pt) < 2:
        re, im = (int(v) for v in rng.integers(-6, 7, size=2))
        den = int(rng.integers(1, 5))
        if re * re + im * im >= den * den / 4:
            pt.append(nk.GQ(re, im) / nk.GQ(den))
    return tuple(pt)


def _exact_outputs(flavor, k, m, seed):
    """What the exact backend computes from one exact draw: the pass flag of
    every validate check (not its float margin, which rests on LAPACK),
    charpoly of B0, B1 and the monodromy (m > 0) or A, whether each exact
    builder monad closes (composite_residual() == 0), the data JSON of the
    round-trip read-back and the exact fiber basis at a seeded point."""
    if flavor == "caloron":
        d = caloron.generate_caloron(k, m, seed=seed, exact=True)
        report = caloron.validate(d)
        monads = [caloron.small_monad(d, validated=report)]
        if m:
            monads.append(caloron.big_monad(d, validated=report))
        back = caloron.from_nahm_complex(caloron.to_nahm_complex(
            d, validated=report))
        fiber_monad = monads[-1]
    else:
        d = taubnut.generate_taubnut(k, m, seed=seed, exact=True)
        report = taubnut.validate(d)
        monads = [taubnut.big_monad(d, validated=report)]
        if m:
            monads.append(taubnut.psi_pushdown_monad(d))
        back = taubnut.from_bow_complex(taubnut.to_bow_complex(
            d, validated=report))
        fiber_monad = monads[0]
    fb = monadcore.fiber(fiber_monad.evaluate(_gaussian_rational_point(
        k, m, seed)))
    return {
        "verdicts": [[c.name, c.passed] for c in report.checks],
        "charpolys": [[_gq_text(c) for c in nk.charpoly(M)]
                      for M in (d.B0, d.B1, d.monodromy if m else d.A)],
        "composite_zero": [pm.composite_residual() == 0 for pm in monads],
        "roundtrip": bowcli.data_to_json(back),
        "fiber": [fb.dim, [[_gq_text(fb.basis[i, j])
                            for j in range(fb.basis.shape[1])]
                           for i in range(fb.basis.shape[0])]],
    }


@pytest.mark.parametrize("flavor, k, m", list(EXACT_OUTPUT_DIGESTS))
def test_exact_outputs_are_pinned(flavor, k, m):
    """The exact backend's verdicts, characteristic polynomials, composite
    decisions, round trips and fiber bases of the exact draws of seeds 0-3
    are fixed value for value.  The digests were taken before exact
    matrices were held in split form, and retaken with the verdict rows
    relation_3, charpoly_B0_eq_B1 and mixed_pencil_large_eta filtered out
    when those rows, which no datum could fail, were deleted."""
    h = hashlib.sha256()
    for seed in range(4):
        h.update(json.dumps(_exact_outputs(flavor, k, m, seed),
                            sort_keys=True).encode())
    assert h.hexdigest()[:16] == EXACT_OUTPUT_DIGESTS[flavor, k, m]
