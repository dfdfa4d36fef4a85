"""Command line front end: JSON data files, generators, sweeps and CSV
emission.

Every command is a thin delegate to the library; results are identical to
direct calls on the same inputs.  Complex entries are serialized as
two-element [re, im] arrays on the f64 backend and as integer fraction
objects {"re": {"n", "d"}, "im": {"n", "d"}} on the exact backend; matrices
are row-major nested lists; non-finite floats are written as the strings
"inf", "-inf" and "nan".  Exit codes: 0 success, 1 a validation or
comparison failed or the library raised one of its errors, 2 malformed input
or a file of the wrong kind.  A non-zero exit from an error writes one JSON
object {"error": {"type", "message"}} to stderr; so does a usage error of the
argument parser (an unknown option, a bad choice or type), which raises
SystemExit(2) as argparse does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import chain

import numpy as np

from . import caloron, diraclattice, monadcore, nahmbow, numkit as nk, taubnut
from .monadcore import Line, splitting_type
from .numkit import ToleranceContext


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# scalar / matrix serialization


def _part_to_json(n: int, den: int) -> dict:
    """The reduced fraction n / den (den > 0) as {"n", "d"}."""
    g = math.gcd(n, den)
    return {"n": n // g, "d": den // g}


def _num_from_json(obj, exact: bool):
    """An f64 entry [re, im] of two finite reals as a complex, or an exact
    one {"re": part, "im": part} whose parts are {"n": int, "d": nonzero
    int} as the pair of (n, d) pairs; anything else raises ParseError."""
    if exact:
        if not (isinstance(obj, dict) and "re" in obj and "im" in obj):
            raise ParseError(f"expected fraction pair, got {obj!r}")
        return _ratio_from_json(obj["re"]), _ratio_from_json(obj["im"])
    if not (isinstance(obj, list) and len(obj) == 2
            and _finite_reals(obj) is not None):
        raise ParseError(f"expected [re, im] of finite reals, got {obj!r}")
    return complex(obj[0], obj[1])


def _real_from_json(v, what: str) -> float:
    if _finite_reals([v]) is None:
        raise ParseError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _size_from_json(v, what: str, least: int) -> int:
    """A size field: a JSON integer (not a bool) of at least ``least``."""
    if type(v) is not int or v < least:
        raise ParseError(f"{what} must be an integer >= {least}, got {v!r}")
    return v


def _ratio_from_json(part) -> tuple[int, int]:
    n, d = (part.get(key) if isinstance(part, dict) else None
            for key in ("n", "d"))
    if type(n) is not int or type(d) is not int or d == 0:
        raise ParseError(f'expected {{"n": int, "d": nonzero int}}, '
                         f"got {part!r}")
    return n, d


def matrix_to_json(M, exact: bool):
    if exact:
        im = np.zeros(M.shape, dtype=object) if M.im is None else M.im
        return [[{"re": _part_to_json(a, M.den), "im": _part_to_json(b, M.den)}
                 for a, b in zip(*row)]
                for row in zip(M.re.tolist(), im.tolist())]
    return [[[z.real, z.imag] for z in row] for row in
            np.asarray(M, dtype=complex).tolist()]


def matrix_from_json(obj, shape, exact: bool):
    _check_matrix_shape(obj, shape)
    if exact:
        return nk.exact_from_ratios([_num_from_json(e, True) for row in obj
                                     for e in row], shape)
    return _f64_entries(list(chain.from_iterable(obj))).reshape(shape)


def _check_matrix_shape(obj, shape):
    if not isinstance(obj, list) or len(obj) != shape[0] or any(
            not isinstance(r, list) or len(r) != shape[1] for r in obj):
        raise ParseError(f"matrix must be {shape[0]}x{shape[1]} row-major")


def _f64_entries(entries: list) -> np.ndarray:
    """f64 entries [re, im] as one complex vector: one type check over the
    entries and one over their values, one float conversion and one finite
    check.  A list with an entry that ``_num_from_json`` refuses is decoded
    entry by entry, so the ParseError names the first such entry."""
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        values = _finite_reals(list(chain.from_iterable(entries)))
        if values is not None:
            return values.view(complex)
    return np.array([_num_from_json(e, False) for e in entries],
                    dtype=complex)


def _finite_reals(values: list) -> np.ndarray | None:
    """The JSON numbers ``values`` as one float array when each one is a
    finite number, an int or a float (not a bool, a string or an int
    beyond the float range); None otherwise."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        out = np.array(values, dtype=float)
    except OverflowError:                     # an int beyond the float range
        return None
    return out if np.isfinite(out).all() else None


def real_array_to_json(M):
    return np.asarray(M, dtype=float).tolist()


# ---------------------------------------------------------------------------
# data files


_DATA_CLS = {"caloron": caloron.CaloronData, "caloron-m0": caloron.CaloronDataM0,
             "taubnut": taubnut.TaubNutData, "taubnut-m0": taubnut.TaubNutDataM0}
_KIND = {cls: kind for kind, cls in _DATA_CLS.items()}
_CALORON = (caloron.CaloronData, caloron.CaloronDataM0)
_TAUBNUT = (taubnut.TaubNutData, taubnut.TaubNutDataM0)


def data_to_json(data) -> dict:
    exact = data.exact
    kind = _KIND.get(type(data))
    if kind is None:
        raise TypeError(type(data))
    out = {"kind": kind, "backend": "exact" if exact else "f64",
           "k": data.k, "m": data.m}
    for name in data.shapes(data.k, data.m):
        out[name] = matrix_to_json(getattr(data, name), exact)
    return out


def data_from_json(obj) -> object:
    kind = obj.get("kind")
    if kind == "nahmsolution":
        return solution_from_json(obj)
    cls = _DATA_CLS.get(kind)
    if cls is None:
        raise ParseError(f"unknown kind {kind!r}")
    backend = obj.get("backend", "f64")
    if backend not in ("f64", "exact"):
        raise ParseError(f"unknown backend {backend!r}")
    exact = backend == "exact"
    m0 = kind.endswith("-m0")
    k = _size_from_json(obj.get("k"), "k", 1)
    m = _size_from_json(obj.get("m", 0), "m", 0 if m0 else 1)
    if m0 and m:
        raise ParseError(f"{kind} has m = 0, got m = {m}")
    shapes = cls.shapes(k, m)
    for name, shape in shapes.items():
        if name not in obj:
            raise ParseError(f"missing field {name!r}")
        _check_matrix_shape(obj[name], shape)
    if exact:
        fields = {name: matrix_from_json(obj[name], shape, True)
                  for name, shape in shapes.items()}
    else:
        # every field's entries in one decode; each field is a view of it
        flat = _f64_entries(list(chain.from_iterable(chain.from_iterable(
            obj[name] for name in shapes))))
        fields, at = {}, 0
        for name, (r, c) in shapes.items():
            fields[name] = flat[at:at + r * c].reshape(r, c)
            at += r * c
    meta = {"k": k} if m0 else {"k": k, "m": m}
    try:
        return cls(**meta, **fields)
    except ValueError as e:
        raise ParseError(str(e))


def solution_to_json(sol: nahmbow.NahmSolution) -> dict:
    def seg(s):
        return {"s0": s.s0, "s1": s.s1, "rank": s.rank,
                "constant": bool(s.constant),
                "s": real_array_to_json(s.s_grid),
                "T1": [matrix_to_json(T, False) for T in s.T1],
                "T2": [matrix_to_json(T, False) for T in s.T2],
                "T3": [matrix_to_json(T, False) for T in s.T3]}
    rep = sol.rep
    out = {"kind": "nahmsolution", "backend": "f64",
           "rep": {"ell": rep.ell, "lam": rep.lam, "k": rep.k, "m": rep.m},
           "head": seg(sol.head), "middle": seg(sol.middle),
           "tail": seg(sol.tail),
           "Bth": matrix_to_json(sol.Bth, False),
           "Bht": matrix_to_json(sol.Bht, False),
           "i_minus": matrix_to_json(sol.i_minus, False),
           "i_plus": matrix_to_json(sol.i_plus, False)}
    for name in ("I_minus", "J_minus", "I_plus", "J_plus"):
        v = getattr(sol, name)
        if v is not None:
            out[name] = matrix_to_json(np.atleast_2d(v), False)
    return out


def solution_from_json(obj) -> nahmbow.NahmSolution:
    try:
        r = obj["rep"]
        rep = nahmbow.BowRepresentation(_real_from_json(r["ell"], "ell"),
                                        _real_from_json(r["lam"], "lam"),
                                        _size_from_json(r["k"], "rep k", 1),
                                        _size_from_json(r["m"], "rep m", 0))

        def seg(name, rank, interval):
            o = obj[name]
            s = list(o["s"])
            grid = _finite_reals(s)
            if grid is None:
                grid = np.array([_real_from_json(v, "a grid point s")
                                 for v in s], dtype=float)
            constant = bool(o.get("constant", False))
            kind = "constant" if constant else "sampled"
            # interpolation needs two points; a constant segment reads one
            least = 1 if constant else 2
            if len(grid) < least:
                raise ParseError(f"a {kind} segment needs {least} or more "
                                 f"grid points s, got {len(grid)}")
            if not (np.diff(grid) > 0).all():
                raise ParseError("a segment's grid s must be strictly "
                                 "increasing")
            s0 = _real_from_json(o["s0"], "s0")
            s1 = _real_from_json(o["s1"], "s1")
            if (s0, s1) != interval:
                raise ParseError(f"the {name} segment runs on [{s0}, {s1}], "
                                 f"not on its bow interval {list(interval)}")
            if not ((s0 <= grid[0] and grid[-1] <= s1) if constant
                    else (grid[0] == s0 and grid[-1] == s1)):
                raise ParseError(f"a {kind} segment's grid s must " + (
                    "lie in [s0, s1]" if constant else "run from s0 to s1"))

            def mk(key):
                """The key's samples as one (n, rank, rank) stack."""
                Ts = list(o[key])
                if len(Ts) != len(grid):
                    raise ParseError(f"a segment's {key} needs one matrix per "
                                     f"grid point s: {len(Ts)} for "
                                     f"{len(grid)}")
                for T in Ts:
                    _check_matrix_shape(T, (rank, rank))
                return _f64_entries(list(chain.from_iterable(
                    chain.from_iterable(Ts)))).reshape(len(Ts), rank, rank)

            return nahmbow.Segment(s0, s1, rank, grid, mk("T1"), mk("T2"),
                                   mk("T3"), constant=constant)

        k, m = rep.k, rep.m
        sol = nahmbow.NahmSolution(
            rep, *(seg(name, rank, interval) for name, rank, interval in
                   zip(("head", "middle", "tail"), (k, k + m, k),
                       rep.intervals)),
            matrix_from_json(obj["Bth"], (k, k), False),
            matrix_from_json(obj["Bht"], (k, k), False),
            i_minus=matrix_from_json(obj["i_minus"], (k + m, k), False),
            i_plus=matrix_from_json(obj["i_plus"], (k + m, k), False))
        for name, shape in (("I_minus", (k, 1)), ("J_minus", (1, k)),
                            ("I_plus", (k, 1)), ("J_plus", (1, k))):
            if name in obj:
                setattr(sol, name, matrix_from_json(obj[name], shape, False))
        return sol
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed solution file: {e}")


def load_file(path: str):
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}")
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    return data_from_json(obj)


def _dumps(payload, **kw) -> str:
    """Strict JSON: non-finite floats are written as strings."""
    return json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False, **kw)


def _write_out(payload, out_path):
    text = _dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write_csv(rows, header, out_path):
    f = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out_path:
            f.close()


def _load_for(command: str, path: str, solution: bool):
    """The data file at path for a command that reads a nahmsolution file
    (``solution``) or matrix data; a file of the other kind raises
    ParseError."""
    data = load_file(path)
    if isinstance(data, nahmbow.NahmSolution) != solution:
        raise ParseError(f"{command} expects " + (
            "a nahmsolution file" if solution else "matrix data"))
    return data


def _monad_for(command: str, path: str, ctx):
    """The matrix data file at path and its float monad, for the fiber and
    splitting commands."""
    data = _load_for(command, path, False)
    if isinstance(data, _TAUBNUT):
        return data, taubnut.big_monad(data, ctx).to_float()
    return data, caloron.small_monad(data, ctx).to_float()


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    data = load_file(args.input)
    if isinstance(data, nahmbow.NahmSolution):
        report = nahmbow.check_boundary(data, args.ctx)
    elif isinstance(data, _CALORON):
        report = caloron.validate(data, args.ctx)
    else:
        report = taubnut.validate(data, args.ctx)
    _write_out(report.to_json(), args.out)
    print(report.render(), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_fiber(args) -> int:
    ctx = args.ctx
    _, pm = _monad_for("fiber", args.input, ctx)
    rng = np.random.default_rng(args.seed)
    pts = monadcore.random_chart_points(args.points, rng)
    dims, margins = monadcore.fiber_dims(pm, pts, ctx)
    payload = {"chart": pm.chart, "composite_residual": pm.composite_residual(),
               "points": [[p[0].real, p[0].imag, p[1].real, p[1].imag]
                          for p in pts],
               "dims": dims, "min_margin": min(margins, default=np.inf)}
    _write_out(payload, args.out)
    return 0 if all(d == dims[0] for d in dims) else 1


def cmd_splitting(args) -> int:
    ctx = args.ctx
    data, pm = _monad_for("splitting", args.input, ctx)
    spec = np.linalg.eigvals(nk.to_float(data.B0))
    rng = np.random.default_rng(args.seed)
    rows = []
    for ev in sorted(spec, key=lambda z: (z.real, z.imag)):
        a, b = splitting_type(pm, Line("B_eta", complex(ev)), ctx)
        rows.append(["spectrum", ev.real, ev.imag, a, b])
    n_off = 0
    while n_off < args.points:
        z = complex(rng.standard_normal() * 2 + 1j * rng.standard_normal() * 2)
        if abs(z) < 0.1 or min(abs(z - e) for e in spec) < 0.2:
            continue
        a, b = splitting_type(pm, Line("B_eta", z), ctx)
        rows.append(["sample", z.real, z.imag, a, b])
        n_off += 1
    payload = {"splittings": [{"which": r[0], "eta": [r[1], r[2]],
                               "type": [r[3], r[4]]} for r in rows]}
    _write_out(payload, args.out)
    ok = all(r[3] >= 1 for r in rows if r[0] == "spectrum") and \
        all(r[3] == 0 for r in rows if r[0] == "sample")
    return 0 if ok else 1


def cmd_spectral(args) -> int:
    data = _load_for("spectral", args.input, True)
    curve = nahmbow.spectral_curve(data, which=args.which,
                                   zeta_samples=args.zeta_samples)
    rows = [[i, j, c.real, c.imag]
            for (i, j), c in sorted(curve.coeffs.items())]
    _write_csv(rows, ["eta_power", "zeta_power", "re", "im"], args.out)
    summary = {"rank": curve.rank, "grading_ok": curve.grading_ok(),
               "reality_residual": curve.reality_residual(),
               "s_drift": curve.s_drift}
    print(_dumps(summary), file=sys.stderr)
    return 0 if curve.grading_ok() else 1


def cmd_nahm_flow(args) -> int:
    seg = _load_for("nahm-flow", args.input, True).middle
    t1, t2, t3 = seg.at(seg.s0)
    flowed = nahmbow.flow(t1, t2, t3, seg.s0, seg.s1, args.step)
    rows = [[s, d] for s, d in zip(flowed.s_grid, nahmbow.charpoly_drift(
        flowed, nahmbow.DRIFT_ZETAS))]
    _write_csv(rows, ["s", "charpoly_drift"], args.out)
    print(_dumps({"drift": flowed.drift, "steps": len(flowed.s_grid)}),
          file=sys.stderr)
    return 0


def cmd_dirac(args) -> int:
    """Kernel statistics at sampled points; with --points 0 a refinement
    trace (grid, h, dim, gap, reality, min_eig) at one seeded point."""
    sol = _load_for("dirac", args.input, True)
    ctx = args.ctx
    rng = np.random.default_rng(args.seed)
    # one seeded chart point (xi, psi): re then im of xi, then of psi
    point = lambda: tuple(complex(rng.standard_normal() + 1j *
                                  rng.standard_normal()) for _ in range(2))
    if args.points == 0:
        if args.grid < 32 or args.grid % 4:
            raise ParseError("refinement needs --grid >= 32 and divisible "
                             "by 4 so that the three grids halve h at each "
                             "step")
        xi, psi = point()
        grids = [args.grid // 4, args.grid // 2, args.grid]
        trace = diraclattice.refinement_study(sol, (xi, psi), grids, ctx)
        rows = [[t["grid"], t["h"], t["dim"], t["gap"], t["reality"],
                 t["min_eig"]] for t in trace]
        _write_csv(rows, ["grid", "h", "kernel_dim", "gap", "reality",
                          "min_eig"], args.out)
        print(_dumps({"refinement": [
            {k: v for k, v in t.items() if k != "basis"} for t in trace]}))
        return 0 if all(t["dim"] == 2 for t in trace) else 1
    results = []
    spectra = []
    for _ in range(args.points):
        xi, psi = point()
        dl = diraclattice.assemble(sol, (xi, psi), args.grid)
        dim, _, gap = diraclattice.kernel(dl, ctx)
        if args.out:
            # the dense spectrum only fills the sigma_i columns of the CSV
            sv = np.linalg.svd(dl.matrix, compute_uv=False)
            spectra.append(sv[-8:][::-1])
        results.append({"xi": [xi.real, xi.imag], "psi": [psi.real, psi.imag],
                        "kernel_dim": dim, "gap": gap,
                        "min_eig": diraclattice.positivity(dl, ctx),
                        "reality": diraclattice.reality_residual(dl)})
    if args.out:
        rows = []
        for r, sv in zip(results, spectra):
            rows.append([r["xi"][0], r["xi"][1], r["psi"][0], r["psi"][1],
                         r["kernel_dim"], r["gap"], r["min_eig"],
                         r["reality"]] + [float(s) for s in sv])
        _write_csv(rows, ["xi_re", "xi_im", "psi_re", "psi_im", "kernel_dim",
                          "gap", "min_eig", "reality"] +
                   [f"sigma_{i}" for i in range(1, len(spectra[0]) + 1)],
                   args.out)
    print(_dumps({"grid": args.grid, "results": results}))
    return 0 if all(r["kernel_dim"] == 2 for r in results) else 1


def _json_safe(x):
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (float, np.floating)) and not np.isfinite(x):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def cmd_roundtrip(args) -> int:
    data = _load_for("roundtrip", args.input, False)
    ctx = args.ctx
    if isinstance(data, _CALORON):
        back = caloron.from_nahm_complex(caloron.to_nahm_complex(data, ctx))
        pairs = [("B", data.B0, back.B0),
                 ("monodromy", data.monodromy, back.monodromy) if data.m
                 else ("B1", data.B1, back.B1)]
    else:
        back = taubnut.from_bow_complex(taubnut.to_bow_complex(data, ctx))
        pairs = [("B0", data.B0, back.B0), ("B1", data.B1, back.B1),
                 ("monodromy", data.monodromy, back.monodromy) if data.m
                 else ("A", data.A, back.A)]
    entries = []
    worst = 0.0
    for name, before, after in pairs:
        diff = float(np.max(np.abs(nk.charpoly(nk.to_float(before))
                                   - nk.charpoly(nk.to_float(after)))))
        worst = max(worst, diff)
        entries.append({"invariant": f"charpoly({name})", "diff": diff})
    payload = {"checks": entries, "max_diff": worst}
    _write_out(payload, args.out)
    return 0 if worst < 1e-8 else 1


def cmd_generate(args) -> int:
    kind = args.kind
    m = 0 if kind in ("caloron-m0", "taubnut-m0", "diagonal-nahm") else \
        1 if args.m is None else args.m
    if args.m not in (None, m):
        raise ParseError(f"{kind} draws m = 0; --m {args.m} does not apply")
    if kind in _DATA_CLS:
        generate = caloron.generate_caloron if kind.startswith("caloron") \
            else taubnut.generate_taubnut
        try:
            data = generate(args.k, m, seed=args.seed,
                            exact=args.backend == "exact")
        except ValueError as e:     # sizes outside the generator's range
            raise ParseError(str(e))
        _write_out(data_to_json(data), args.out)
        return 0
    # bow solutions are sampled on the f64 backend only
    if args.backend == "exact":
        raise ParseError(f"{kind} writes f64 solutions; --backend exact "
                         f"does not apply")
    rng = np.random.default_rng(args.seed)
    if kind == "diagonal-nahm":
        if args.k < 1:
            raise ParseError(f"diagonal-nahm needs --k >= 1, got {args.k}")
        rep = nahmbow.BowRepresentation(1.0, 0.25, args.k, 0)
        # the first two centers are pinned so the k = 2 curve is the product
        # of the two reference lines; extra centers are drawn
        base = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
        pts = (base + [tuple(v) for v in rng.standard_normal((args.k, 3))])[:args.k]
        T = nahmbow.diagonal_solution(rep, pts).at(0.0)
        sol = nahmbow.NahmSolution(rep, *(nahmbow.constant_segment(s0, s1, *T)
                                          for s0, s1 in rep.intervals),
                                   np.eye(args.k, dtype=complex),
                                   np.eye(args.k, dtype=complex))
    elif args.k != 1:
        raise ParseError(f"bowsol generator supports k = 1 only, got "
                         f"{args.k}")
    elif m == 0:
        rep = nahmbow.BowRepresentation(1.0, 0.25, 1, 0)
        sol = nahmbow.solution_k1_m0(
            rep, Bth=complex(*rng.standard_normal(2)),
            Bht=complex(*rng.standard_normal(2)),
            j_minus=float(rng.uniform(0.5, 1.5)))
    elif m == 1:
        rep = nahmbow.BowRepresentation(1.0, 0.25, 1, 1)
        sol = nahmbow.solution_k1_m1(
            rep, mu1=rng.standard_normal(3), mu2=rng.standard_normal(3),
            weight=float(rng.uniform(0.25, 0.75)),
            axis_phase=float(rng.uniform(0.3, 2.8)))
    else:
        raise ParseError("bowsol generator supports m in {0, 1}")
    _write_out(solution_to_json(sol), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _print_error(kind: str, message: str):
    print(json.dumps({"error": {"type": kind, "message": message}}),
          file=sys.stderr)


def _usage_error(message: str):
    """The error hook of every parser: a usage error ends in the one JSON
    error object, then exits 2 as argparse does."""
    _print_error("parse", message)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bowmonad",
        description="monads, bow complexes, Nahm flows and Dirac kernels")
    p.error = _usage_error
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, data=True, tol=True, seed=False,
                points=False):
        sp = sub.add_parser(name, help=help)
        sp.error = _usage_error
        if data:
            sp.add_argument("--input")
        sp.add_argument("--out", default=None)
        if tol:
            sp.add_argument("--tol", type=float, default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if points:
            sp.add_argument("--points", type=int, default=20)
        sp.set_defaults(fn=fn)
        return sp

    command("validate", cmd_validate, "check relations and genericity")
    command("fiber", cmd_fiber, "fiber dimensions at random points",
            seed=True, points=True)
    command("splitting", cmd_splitting, "splitting types along the ruling",
            seed=True, points=True)
    sp = command("spectral", cmd_spectral, "spectral curve coefficients (CSV)",
                 tol=False)
    sp.add_argument("--zeta-samples", type=int, default=None,
                    dest="zeta_samples")
    sp.add_argument("--which", choices=["S0", "S1"], default="S0")
    sp = command("nahm-flow", cmd_nahm_flow,
                 "flow the middle interval, drift CSV", tol=False)
    sp.add_argument("--step", type=float, default=1e-3)
    sp = command("dirac", cmd_dirac, "lattice kernel at sampled points",
                 seed=True, points=True)
    sp.add_argument("--grid", type=int, default=256)
    command("roundtrip", cmd_roundtrip,
            "matrix -> complex -> matrix invariants")
    sp = command("generate", cmd_generate, "seeded instance generators",
                 data=False, tol=False, seed=True)
    sp.add_argument("--backend", choices=["f64", "exact"], default="f64")
    sp.add_argument("--kind", required=True,
                    choices=["caloron", "caloron-m0", "taubnut", "taubnut-m0",
                             "bowsol", "diagonal-nahm"])
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=int, default=None)
    return p


def main(argv=None) -> int:
    try:
        # --tol is read before the command line is parsed, so a malformed
        # one is refused alike by every command, also by those that take
        # no tolerance
        pre = argparse.ArgumentParser(add_help=False)
        pre.error = _usage_error
        pre.add_argument("--tol", type=float, default=None)
        tol = pre.parse_known_args(argv)[0].tol
        ctx = ToleranceContext() if tol is None else \
            ToleranceContext(rank_tol=tol)
        args = build_parser().parse_args(argv)
        args.ctx = ctx
        if getattr(args, "input", "") is None:
            raise ParseError(f"{args.command} needs --input")
        if getattr(args, "points", 0) < 0:
            raise ParseError(f"{args.command} needs --points >= 0")
        if getattr(args, "seed", 0) < 0:
            raise ParseError(f"{args.command} needs --seed >= 0")
        return args.fn(args)
    except (ParseError, nk.InvalidArgument) as e:
        _print_error("parse", str(e))
        return 2
    except nk.BowmonadError as e:
        _print_error(type(e).__name__, str(e))
        return 1
    except MemoryError as e:
        # a request too large to hold, such as a tiny nahm-flow --step
        _print_error("MemoryError", str(e) or "out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
