"""One workload in a process of its own.

Modes:
  setup   set up and exit; the parent times process start to ready
  run     set up, then whole seeded rounds of ops until --seconds have
          passed (closed loop: one client, each op after the last one ends)
  trace   set up under spans, run one warm-up round, then pairs of
          rounds, each round once untraced and once traced, until --seconds
          have passed
  once    set up, then one round, untimed (determinism check)

run, trace and once end by running the workload's known-defect probes once.

Prints one JSON line with the measurements; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import envinfo  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_op(op, api) -> dict:
    try:
        ok, detail, counters = op.fn(api)
    except Exception as e:  # noqa: BLE001 - every op failure is reported
        return {"ok": False, "error": type(e).__name__, "message": str(e)[:300],
                "detail": None, "counters": {}}
    return {"ok": bool(ok), "error": None, "detail": detail,
            "counters": counters}


def tail_percentile(n: int) -> int:
    """The highest whole percentile, nearest rank, with at least ten of `n`
    samples above it; 100 (the maximum) when even the median has fewer."""
    best = 100
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def percentile(values, p: int) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank p-th percentile."""
    s = sorted(values)
    rank = math.ceil(p * len(s) / 100)
    return s[rank - 1], len(s) - rank


class Log:
    """Per-op outcomes of a run, tallied for the results file."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.causes = Counter()
        self.first_error = {}
        self.counters = Counter()
        self.records = []            # (round, kind, label, ok, error, detail)

    def add(self, round_index, op, out):
        self.attempted += 1
        self.counters.update(out["counters"])
        self.records.append((round_index, op.kind, op.label, out["ok"],
                             out["error"], out["detail"]))
        if out["ok"]:
            return
        self.failed += 1
        cause = f"{op.kind} {op.label}: {out['error'] or 'check failed'}"
        self.causes[cause] += 1
        if out["error"] and out["error"] not in self.first_error:
            self.first_error[out["error"]] = f"{cause}: {out['message']}"

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.records).encode()).hexdigest()


def run_probes(wl, api) -> dict:
    """Each known-defect probe once: its outcome, and whether that outcome
    is the known one (passing, or raising the known error)."""
    out = {}
    for op in wl.probes:
        res = run_op(op, api)
        outcome = "passed" if res["ok"] else (res["error"] or "check failed")
        out[f"{op.kind} {op.label}"] = {
            "outcome": outcome,
            "expected": outcome in ("passed", op.known_error)}
    return out


def timed_rounds(wl, seed, api, seconds, log, kernel):
    """Throughput, median latency and CPU per op are the medians of their
    per-round values, each scaled to the reference speed by the reference
    slices run between the round's ops (see speed.py).  Pooled over rounds,
    the latencies of two clusters of ops blur into the gap between them, and
    a median taken there jumps from run to run.  The tail is taken over the
    scaled latencies of all rounds."""
    meter = speed.Meter(kernel)
    by_op = {}
    raw = {"ops_per_s": [], "op_p50_ms": [], "cpu_ms_per_op": []}
    rates, medians, cpu_per_op, factors = [], [], [], []
    scaled = []                  # every op latency, at the reference speed
    t0 = time.perf_counter()
    r = 0
    while True:
        passed = log.attempted - log.failed
        meter.reset()
        lat, cpu = [], 0.0
        for op in wl.round_order(seed, r):
            cpu0, start = time.process_time(), time.perf_counter()
            out = run_op(op, api)
            lat.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu0
            by_op.setdefault(f"{op.kind} {op.label}", []).append(lat[-1])
            log.add(r, op, out)
            meter.after_op(lat[-1])
        f = meter.factor()
        factors.append(f)
        raw["ops_per_s"].append((log.attempted - log.failed - passed) / sum(lat))
        raw["op_p50_ms"].append(1e3 * statistics.median(lat))
        raw["cpu_ms_per_op"].append(1e3 * cpu / len(lat))
        rates.append(raw["ops_per_s"][-1] / f)
        medians.append(raw["op_p50_ms"][-1] * f)
        cpu_per_op.append(raw["cpu_ms_per_op"][-1] * f)
        scaled.extend(x * f for x in lat)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            break
    # the percentile is fixed by the size of a round, so it does not change
    # with the number of rounds a run makes
    p = tail_percentile(len(wl.ops))
    tail, beyond = percentile(scaled, p)
    return {"rounds": r, "wall_s": time.perf_counter() - t0,
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(medians),
            "op_tail_ms": 1e3 * tail, "tail_percentile": p,
            "tail_samples_beyond": beyond,
            "cpu_ms_per_op": statistics.median(cpu_per_op),
            "speed_factor_rounds": factors,
            "raw_rounds": raw,
            "op_median_ms": {k: 1e3 * statistics.median(v)
                             for k, v in sorted(by_op.items())}}


def traced_rounds(wl, seed, recorder, seconds, log):
    raw, traced = workloads.API, spans.bind(workloads.API, recorder)
    setup_rows = range(0, len(recorder.spans))
    per_round, ratios, counts = [], [], set()

    def untraced_pass(r, order):
        for op in order:
            log.add(r, op, run_op(op, raw))

    def traced_pass(r, order):
        first = len(recorder.spans)
        round_counters = Counter()
        for j, op in enumerate(order):
            out = recorder.op_span(f"{r}.{j}", f"op.{op.kind}", run_op, op,
                                   traced)
            round_counters.update(out["counters"])
            log.add(r, op, out)
        values = spans.reduce_round(recorder.spans,
                                    range(first, len(recorder.spans)),
                                    setup_rows, round_counters)
        per_round.append(values)
        counts.add(tuple(v for v in values.values() if isinstance(v, int)))

    # one untimed round first, so lazy start-up costs (thread pools, first
    # allocations) fall on neither side of the overhead ratio
    untraced_pass(-1, wl.round_order(seed, 0))
    t0 = time.perf_counter()
    r = 0
    while True:
        order = wl.round_order(seed, r)
        passes = [("untraced", untraced_pass), ("traced", traced_pass)]
        if r % 2:   # alternate which pass goes first, so speed drift cancels
            passes.reverse()
        wall = {}
        for name, run in passes:
            start = time.perf_counter()
            run(r, order)
            wall[name] = time.perf_counter() - start
        ratios.append(wall["traced"] / wall["untraced"])
        r += 1
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = spans.median_rounds(per_round)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return {"rounds": r, "per_layer": metrics,
            "counts_repeat": len(counts) == 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace", "once"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    recorder = spans.Recorder() if args.mode == "trace" else None
    workdir = os.path.join(args.out_dir, f"inputs-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.setup(args.workload, args.seed, workdir,
                             spans.bind(workloads.API, recorder))
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode in ("setup", "run"):
            meter = speed.Meter("objects")
            meter.run(speed.SETUP_SLICES)
            result["setup_speed_factor"] = meter.factor()
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        log = Log()
        if args.mode == "run":
            result.update(timed_rounds(wl, args.seed, workloads.API,
                                       args.seconds, log,
                                       workloads.SPEED_KERNEL[args.workload]))
        elif args.mode == "trace":
            result.update(traced_rounds(wl, args.seed, recorder, args.seconds,
                                        log))
            spans_path = os.path.join(
                args.out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            recorder.write_jsonl(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            for op in wl.round_order(args.seed, 0):
                log.add(0, op, run_op(op, workloads.API))
            result["rounds"] = 1
        # the peak of the measured rounds, before the probes run
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        result["probes"] = run_probes(wl, workloads.API)
        if args.mode == "trace":
            result["per_layer"]["monadcore.fiber.exact_caloron_errors"] = sum(
                p["outcome"] != "passed" for p in result["probes"].values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update({
        "attempted": log.attempted, "failed": log.failed,
        "failure_causes": dict(sorted(log.causes.items())),
        "first_errors": log.first_error,
        "counters": dict(log.counters),
        "input_digests": wl.digests,
        "setup_notes": wl.notes,
        "schedule": hashlib.sha256(json.dumps(
            [r[:3] for r in log.records]).encode()).hexdigest(),
        "outcomes": log.digest(),
        "env": envinfo.collect(ROOT, args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
