"""The four benchmark workloads: seeded inputs, the ops that use them, and
the check of every op's result.

Each workload is built by `setup(seed, workdir, api)`, which generates its
inputs from the seed (writing input files where the op reads one) and
returns a `Workload`.  An op is a function of the bound library table `api`
(see spans.bind) that returns `(ok, detail, counters)`: whether every check
passed, a deterministic record of what it decided (dims, splitting types,
refusals), and counts for the per-layer metrics.  An op that raises counts
as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from bowmonad import (bowcli, caloron, diraclattice, monadcore, nahmbow,
                      numkit, taubnut)

# the (k, m) pairs of the acceptance suite
COMBOS = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))
FLAVORS = ("caloron", "taubnut")

# Every library entry point an op or a set-up step calls, by span name.
API = {
    "bowcli.load_file": bowcli.load_file,
    "bowcli.data_to_json": bowcli.data_to_json,
    "bowcli.solution_to_json": bowcli.solution_to_json,
    "caloron.generate_caloron": caloron.generate_caloron,
    "caloron.validate": caloron.validate,
    "caloron.small_monad": caloron.small_monad,
    "caloron.big_monad": caloron.big_monad,
    "caloron.to_nahm_complex": caloron.to_nahm_complex,
    "caloron.from_nahm_complex": caloron.from_nahm_complex,
    "taubnut.generate_taubnut": taubnut.generate_taubnut,
    "taubnut.validate": taubnut.validate,
    "taubnut.big_monad": taubnut.big_monad,
    "taubnut.jumping_lines": taubnut.jumping_lines,
    "taubnut.to_bow_complex": taubnut.to_bow_complex,
    "taubnut.from_bow_complex": taubnut.from_bow_complex,
    "monadcore.evaluate": monadcore.ParamMonad.evaluate,
    "monadcore.composite_residual": monadcore.ParamMonad.composite_residual,
    "monadcore.fiber": monadcore.fiber,
    "monadcore.fiber_dim": monadcore.fiber_dim,
    "monadcore.splitting_type": monadcore.splitting_type,
    "numkit.charpoly": numkit.charpoly,
    "nahmbow.solution_k1_m0": nahmbow.solution_k1_m0,
    "nahmbow.solution_k1_m1": nahmbow.solution_k1_m1,
    "nahmbow.flow": nahmbow.flow,
    "nahmbow.isospectral_drift": nahmbow.isospectral_drift,
    "nahmbow.spectral_curve": nahmbow.spectral_curve,
    "nahmbow.transport": nahmbow.transport,
    "nahmbow.check_boundary": nahmbow.check_boundary,
    "nahmbow.complex_shadow": nahmbow.complex_shadow,
    "nahmbow.finite_monad_family": nahmbow.finite_monad_family,
    "diraclattice.assemble": diraclattice.assemble,
    "diraclattice.kernel": diraclattice.kernel,
    "diraclattice.positivity": diraclattice.positivity,
    "diraclattice.reality_residual": diraclattice.reality_residual,
}


@dataclass
class Op:
    kind: str
    label: str
    fn: object        # fn(api) -> (ok, detail, counters)
    # probes only: the exception the library is known to raise on this op
    # (see "Known baseline failures" in README.md)
    known_error: str | None = None


@dataclass
class Workload:
    ops: list                                   # one round: each op once
    digests: dict                               # input name -> sha256
    notes: dict = field(default_factory=dict)   # set-up findings to report
    # Ops the library is known to fail on.  They run once, untimed, after
    # the measured rounds, and their outcomes are reported beside the
    # metrics; the measured rounds hold only ops expected to pass.
    probes: list = field(default_factory=list)

    def round_order(self, seed: int, index: int) -> list:
        """Seeded shuffle of the ops for round `index`."""
        perm = np.random.default_rng([seed, index]).permutation(len(self.ops))
        return [self.ops[i] for i in perm]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_json(workdir, name, obj) -> tuple[str, str]:
    text = json.dumps(obj, sort_keys=True)
    path = os.path.join(workdir, name)
    with open(path, "w") as f:
        f.write(text)
    return path, _sha(text)


def _complex_pair(rng, lo: float):
    """A seeded chart point with both coordinates of modulus >= lo."""
    while True:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if abs(z[0]) >= lo and abs(z[1]) >= lo:
            return complex(z[0]), complex(z[1])


def _edge_matrix(data):
    """B for the caloron m >= 1 flavor, B0 otherwise."""
    return data.B0 if hasattr(data, "B0") else data.B


def _build_monad(api, flavor, data, report):
    """The monad a `bowmonad fiber`-style request builds from a validated
    report: small for caloron m = 0, fused otherwise."""
    if flavor == "taubnut":
        return api["taubnut.big_monad"](data, validated=report)
    if data.m == 0:
        return api["caloron.small_monad"](data, validated=report)
    return api["caloron.big_monad"](data, validated=report)


# ---------------------------------------------------------------------------
# float instances: fiber-sweep and line-splitting


@dataclass
class _Instance:
    flavor: str
    k: int
    m: int
    label: str
    path: str
    spectrum: np.ndarray    # eigenvalues of B / B0 at generation


# Instances drawn per flavor and (k, m), per workload.  Several draws average
# out how much an op costs on one draw (how many spectrum lines it has, for
# one).  Taub-NUT ops cost about twice what caloron ops do, and in
# line-splitting the two flavors' op times do not overlap; with equal counts
# the median op would sit at the edge of that gap and jump from run to run.
# The counts put the median op inside the k = 1 Taub-NUT ops instead.
SWEEP_DRAWS = {"caloron": 3, "taubnut": 4}
SPLITTING_DRAWS = {"caloron": 3, "taubnut": 5}
SWEEP_POINTS = 200
OFF_LINES = 10
LINE_MIN_ETA = 0.2            # spectrum lines closer to eta = 0 are skipped
OFF_LINE_CLEARANCE = 0.3      # off-spectrum lines keep this far from it
ALIGNED_TOL = 1e-6            # relative gap under which two spectra share a line


def _float_instances(rng, workdir, api, digests, draws):
    out = []
    for flavor in FLAVORS:
        generate = api[f"{flavor}.generate_{flavor}"]
        for k, m in COMBOS:
            for i in range(draws[flavor]):
                data = generate(k, m, seed=int(rng.integers(2**31)))
                label = f"{flavor}-k{k}m{m}-d{i}"
                path, digests[label] = _write_json(
                    workdir, f"{label}.json", api["bowcli.data_to_json"](data))
                spec = np.linalg.eigvals(np.asarray(_edge_matrix(data), complex))
                out.append(_Instance(flavor, k, m, label, path, spec))
    return out


def _sweep_points(rng, inst: _Instance):
    """Seeded chart points for one fiber request, then one point over each
    jumping line (eta an eigenvalue of B / B0)."""
    pts = []
    while len(pts) < SWEEP_POINTS:
        x, y = rng.standard_normal(2) * 2 + 1j * rng.standard_normal(2) * 2
        if abs(x) >= 0.05 and abs(y) >= 0.05:
            pts.append((complex(x), complex(y)))
    x = 1.0 + 0.3j
    for ev in inst.spectrum:
        if inst.flavor == "taubnut":       # (xi, psi) chart, eta = xi * psi
            if abs(ev) > 1e-8:
                pts.append((x, complex(ev) / x))
        else:
            pts.append((x, complex(ev)))
    return pts


def _fiber_op(inst: _Instance, points):
    def op(api):
        data = api["bowcli.load_file"](inst.path)
        report = api[f"{inst.flavor}.validate"](data)
        pm = _build_monad(api, inst.flavor, data, report)
        evaluate, fiber_dim = api["monadcore.evaluate"], api["monadcore.fiber_dim"]
        dims = Counter(fiber_dim(evaluate(pm, p)) for p in points)
        ok = report.passed and set(dims) == {2}
        return ok, {"dims": sorted(dims.items())}, {}
    return op


def _off_lines(rng, inst: _Instance):
    out = []
    while len(out) < OFF_LINES:
        z = complex(rng.standard_normal() * 2 + 1j * rng.standard_normal() * 2)
        if abs(z) >= LINE_MIN_ETA and min(abs(z - e) for e in inst.spectrum) \
                >= OFF_LINE_CLEARANCE:
            out.append(z)
    return out


def _aligned(ev, others) -> bool:
    return min(abs(ev - o) for o in others) <= ALIGNED_TOL * max(1.0, abs(ev))


def _splitting_op(inst: _Instance, off_lines):
    def op(api):
        data = api["bowcli.load_file"](inst.path)
        report = api[f"{inst.flavor}.validate"](data)
        pm = _build_monad(api, inst.flavor, data, report)
        # the line's other edge: roots of the middle-block determinant
        # (Taub-NUT), of B1 = B0 - C1 D1 (caloron m = 0) or of the
        # left-normal block (caloron m >= 1)
        if inst.flavor == "taubnut":
            spec, others = api["taubnut.jumping_lines"](data)
        else:
            spec = np.linalg.eigvals(np.asarray(_edge_matrix(data), complex))
            other = data.left_normal if data.m else data.B1
            others = np.linalg.eigvals(np.asarray(other, complex))
        split = api["monadcore.splitting_type"]
        ok, types, refused = report.passed, [], 0
        for ev in spec:
            if abs(ev) < LINE_MIN_ETA:
                continue
            try:
                a, b = split(pm, monadcore.Line("B_eta", complex(ev)))
            except monadcore.InconsistentSplitting:
                # the documented boundary-torsion refusal (see
                # tests/test_taubnut.py) is on spectrally aligned lines: an
                # eigenvalue the other edge shares.  m = 0 Taub-NUT data
                # always have such lines; other draws have one when their
                # integer entries make two eigenvalues coincide.  A refusal
                # on any other line propagates and fails the op.
                if not _aligned(ev, others):
                    raise
                refused += 1
                types.append("refused")
                continue
            ok &= a >= 1
            types.append([a, b])
        for z in off_lines:
            t = split(pm, monadcore.Line("B_eta", z))
            ok &= t == (0, 0)
            types.append(list(t))
        return ok, {"types": types}, {"monadcore.splitting_refused": refused}
    return op


def _fiber_sweep(rng, workdir, api):
    digests = {}
    ops = [Op("fiber", inst.label, _fiber_op(inst, _sweep_points(rng, inst)))
           for inst in _float_instances(rng, workdir, api, digests,
                                        SWEEP_DRAWS)]
    return Workload(ops, digests)


def _line_splitting(rng, workdir, api):
    digests = {}
    ops = []
    for inst in _float_instances(rng, workdir, api, digests, SPLITTING_DRAWS):
        ops.append(Op("splitting", inst.label,
                      _splitting_op(inst, _off_lines(rng, inst))))
    return Workload(ops, digests)


# ---------------------------------------------------------------------------
# exact-certify


EXACT_SEEDS = 3


def _exact_digest(data) -> str:
    parts = [type(data).__name__]
    for f in fields(data):
        v = getattr(data, f.name)
        if isinstance(v, np.ndarray):
            parts.append(f"{f.name}{v.shape}:" + ",".join(map(repr, v.ravel())))
        else:
            parts.append(f"{f.name}:{v!r}")
    return _sha(";".join(parts))


def _gaussian_rational_point(rng):
    """A seeded point with Gaussian-rational coordinates of modulus >= 1/2."""
    pt = []
    while len(pt) < 2:
        re, im = (int(v) for v in rng.integers(-6, 7, size=2))
        den = int(rng.integers(1, 5))
        if re * re + im * im >= den * den / 4:
            pt.append(numkit.GQ(Fraction(re, den), Fraction(im, den)))
    return tuple(pt)


def _identity_op(flavor, data):
    def op(api):
        report = api[f"{flavor}.validate"](data)
        pm = _build_monad(api, flavor, data, report)
        res = api["monadcore.composite_residual"](pm)
        return report.passed and res == 0, {"residual_zero": res == 0}, {}
    return op


def _exact_fiber_op(flavor, data, point):
    def op(api):
        report = api[f"{flavor}.validate"](data)
        pm = _build_monad(api, flavor, data, report)
        fb = api["monadcore.fiber"](api["monadcore.evaluate"](pm, point))
        return report.passed and fb.dim == 2, {"dim": fb.dim}, {}
    return op


def _roundtrip_op(flavor, data):
    if flavor == "caloron":
        there, back = "caloron.to_nahm_complex", "caloron.from_nahm_complex"
        names = ("B", "monodromy") if data.m else ("B0", "B1")
    else:
        there, back = "taubnut.to_bow_complex", "taubnut.from_bow_complex"
        names = ("B0", "B1") + (("monodromy",) if data.m else ("A",))

    def op(api):
        again = api[back](api[there](data))
        charpoly = api["numkit.charpoly"]
        same = [charpoly(getattr(again, n)) == charpoly(getattr(data, n))
                for n in names]
        return all(same), {"charpoly_equal": same}, {}
    return op


def _exact_certify(rng, workdir, api):
    digests, ops, probes = {}, [], []
    serialization = Counter()
    for s in range(EXACT_SEEDS):
        for flavor in FLAVORS:
            generate = api[f"{flavor}.generate_{flavor}"]
            for k, m in COMBOS:
                data = generate(k, m, seed=int(rng.integers(2**31)), exact=True)
                label = f"{flavor}-k{k}m{m}-s{s}"
                digests[label] = _exact_digest(data)
                # exact instances stay in memory; a failure to write one as
                # `bowmonad generate` would is recorded, so it is reported
                try:
                    json.dumps(api["bowcli.data_to_json"](data))
                    serialization["ok"] += 1
                except Exception as e:  # noqa: BLE001 - reported per type
                    serialization[f"{label}: {type(e).__name__}"] += 1
                point = _gaussian_rational_point(rng)
                ops.append(Op("identity", label, _identity_op(flavor, data)))
                fiber = Op("fiber", label, _exact_fiber_op(flavor, data, point))
                if flavor == "caloron":
                    # int64 numerators of exact caloron draws overflow in the
                    # fiber's elimination, on several instances of every seed
                    fiber.known_error = "ZeroDivisionError"
                    probes.append(fiber)
                else:
                    ops.append(fiber)
                ops.append(Op("roundtrip", label, _roundtrip_op(flavor, data)))
    return Workload(ops, digests,
                    {"data_to_json": dict(sorted(serialization.items()))},
                    probes)


# ---------------------------------------------------------------------------
# bow-dirac


DIRAC_GRIDS = (64, 128, 256)
# Two points per solution make the median op a grid-128 Dirac op, whose time
# is mostly BLAS, rather than the dimension-2 flow, whose interpreter-bound
# time follows the machine's speed swings most closely.
DIRAC_POINTS = 2
FLOW_DIMS = (2, 3, 4)
FLOW_S0, FLOW_S1, FLOW_STEP = 0.1, 1.0, 1e-3
FLOW_ZETAS = (0.0, 0.5, -1.0, 1j, 2.0)
# acceptance bound of criterion 4 for the pole ansatz, the flow's own drift
# tolerance, and the transport error the 400-step default reaches with room
POLE_ERR_MAX, DRIFT_MAX, TRANSPORT_ERR_MAX = 1e-9, 1e-6, 1e-4


def _bowsol(api, rng, m):
    """A seeded k = 1 bow solution, drawn as `bowmonad generate --kind
    bowsol` draws it."""
    rep = nahmbow.BowRepresentation(1.0, 0.25, 1, m)
    if m == 0:
        return api["nahmbow.solution_k1_m0"](
            rep, Bth=complex(*rng.standard_normal(2)),
            Bht=complex(*rng.standard_normal(2)),
            j_minus=float(rng.uniform(0.5, 1.5)))
    return api["nahmbow.solution_k1_m1"](
        rep, mu1=rng.standard_normal(3), mu2=rng.standard_normal(3),
        weight=float(rng.uniform(0.25, 0.75)),
        axis_phase=float(rng.uniform(0.3, 2.8)))


def _dirac_op(path, m, point, grid):
    # criterion 8 reads the m = 1 shadow back at tolerance 1e-7
    tol = 1e-7 if m else 1e-9

    def op(api):
        sol = api["bowcli.load_file"](path)
        report = api["nahmbow.check_boundary"](sol)
        bc = api["nahmbow.complex_shadow"](sol)
        data = api["taubnut.from_bow_complex"](bc, tol=tol)
        finite = api["nahmbow.finite_monad_family"](bc)
        fused = api["taubnut.big_monad"](data)
        dl = api["diraclattice.assemble"](sol, point, grid)
        dim, _, gap = api["diraclattice.kernel"](dl)
        min_eig = api["diraclattice.positivity"](dl)
        api["diraclattice.reality_residual"](dl)
        evaluate, fiber_dim = api["monadcore.evaluate"], api["monadcore.fiber_dim"]
        fused_dim = fiber_dim(evaluate(fused, point))
        finite_dim = fiber_dim(evaluate(finite, point))
        ok = report.passed and dim == fused_dim == finite_dim == 2 and min_eig > 0
        rows, cols = dl.matrix.shape
        return ok, {"dims": [dim, fused_dim, finite_dim],
                    "min_eig_positive": min_eig > 0}, {
            "diraclattice.operator_entries": rows * cols,
            "diraclattice.kernel.certificates": 1,
            "diraclattice.kernel.finite_gaps": int(np.isfinite(gap))}
    return op


def _flow_op(rho):
    """Flow the su(2) pole ansatz rho_i / s, whose exact solution is known,
    and check the flow, its spectral invariants and the transport."""
    start = [r / FLOW_S0 for r in rho]
    scale = max(np.max(np.abs(r)) for r in rho)
    w, V = np.linalg.eigh(rho[2])
    # dP/ds = (rho3 / s) P from s0 to s1
    exact_transport = V @ np.diag((FLOW_S1 / FLOW_S0) ** w) @ V.conj().T

    def op(api):
        seg = api["nahmbow.flow"](*start, FLOW_S0, FLOW_S1, FLOW_STEP)
        err = max(np.max(np.abs(T[-1] - r)) for T, r in
                  zip((seg.T1, seg.T2, seg.T3), rho)) / scale
        drift = api["nahmbow.isospectral_drift"](seg, FLOW_ZETAS)
        curve = api["nahmbow.spectral_curve"](seg)
        P = api["nahmbow.transport"](seg, FLOW_S0, FLOW_S1)
        terr = np.max(np.abs(P - exact_transport)) / np.max(np.abs(exact_transport))
        checks = {"pole": bool(err < POLE_ERR_MAX),
                  "drift": bool(drift < DRIFT_MAX),
                  "grading": curve.grading_ok(),
                  "transport": bool(terr < TRANSPORT_ERR_MAX)}
        return all(checks.values()), checks, {
            "nahmbow.flow.rk4_steps": len(seg.s_grid) - 1}
    return op


def _bow_dirac(rng, workdir, api):
    digests, ops = {}, []
    for m in (0, 1):
        sol = _bowsol(api, rng, m)
        name = f"bowsol-k1m{m}.json"
        path, digests[name] = _write_json(
            workdir, name, api["bowcli.solution_to_json"](sol))
        for p in range(DIRAC_POINTS):
            point = _complex_pair(rng, 0.3)
            for grid in DIRAC_GRIDS:
                ops.append(Op("dirac", f"m{m}-p{p}-grid{grid}",
                              _dirac_op(path, m, point, grid)))
    for dim in FLOW_DIMS:
        # a seeded unitary conjugate of the irrep is again an exact solution
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        rho = [q @ r @ q.conj().T for r in nahmbow.su2_irrep(dim)]
        digests[f"flow-dim{dim}"] = _sha(repr(np.round(rho, 12).tolist()))
        ops.append(Op("flow", f"dim{dim}", _flow_op(rho)))
    return Workload(ops, digests)


_SETUP = {"fiber-sweep": _fiber_sweep, "line-splitting": _line_splitting,
          "exact-certify": _exact_certify, "bow-dirac": _bow_dirac}
WORKLOADS = tuple(_SETUP)
# the reference kernel (speed.KERNELS) that slows down as the workload does
SPEED_KERNEL = {"fiber-sweep": "objects", "line-splitting": "objects",
                "exact-certify": "objects", "bow-dirac": "dense"}


def setup(name: str, seed: int, workdir: str, api: dict) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _SETUP[name](rng, workdir, api)
