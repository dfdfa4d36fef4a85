"""bowmonad benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--selfcheck]

Runs each workload in processes of its own (see worker.py), checks every op,
prints each metric with its unit, writes a results file with an environment
block under perfbench/out/, and prints as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

--selfcheck instead runs one round of each named workload three times (seed
N twice, then N + 1) and checks that the same seed gives the same schedule,
input digests and per-op outcomes, and that another seed changes the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUPS = 5             # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170      # a worker still running after this is killed


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, seconds, deadline) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--out-dir", OUT_DIR]
    # a fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run; one BLAS thread, because on a host of two
    # shared vCPUs a second one measures the scheduler more than the kernel
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: worker exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["ready"] - started
    if "setup_speed_factor" in out:
        out["setup_s"] = out["setup_raw_s"] * out["setup_speed_factor"]
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"workloads": tuple(w["name"] for w in spec["workloads"]),
            "run_seconds": spec["run_seconds"],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure(workload, seed, seconds, trace, spec, deadline) -> dict:
    if trace:
        res = spawn(workload, seed, "trace", seconds, deadline)
        values = res["per_layer"]
        units = spec["per_layer"]
    else:
        setups = [spawn(workload, seed, "setup", seconds, deadline)
                  for _ in range(SETUPS - 1)]
        res = spawn(workload, seed, "run", seconds, deadline)
        setups.append(res)
        values = {k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms",
                                      "cpu_ms_per_op", "peak_rss_mb")}
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["setup_s_samples"] = [s["setup_s"] for s in setups]
        res["setup_s_raw_samples"] = [s["setup_raw_s"] for s in setups]
        units = spec["end_to_end"]
    if set(values) != set(units):
        raise BenchError(f"{workload}: metrics {sorted(set(values) ^ set(units))}"
                         " differ between the run and BENCHMARK.json")
    res["fail_ratio"] = res["failed"] / res["attempted"]
    res["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    res["results_file"] = os.path.relpath(path, ROOT)
    return res


def report(res):
    print(f"{res['workload']} seed={res['seed']} trace={int(res['trace'])}: "
          f"{res['attempted']} ops in {res['rounds']} rounds, "
          f"{res['failed']} failed (fail_ratio {res['fail_ratio']:.4f})")
    for cause, n in res["failure_causes"].items():
        print(f"  failed {n}x  {cause}")
    outcomes = {}
    for name, p in res["probes"].items():
        note = "" if p["expected"] else " (not the known outcome: incorrect)"
        outcomes.setdefault(p["outcome"] + note, []).append(name)
    for outcome, names in sorted(outcomes.items()):
        print(f"  known-defect probes, {len(names)} {outcome}: "
              + ", ".join(names))
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{res['tail_percentile']}, "
                    f"{res['tail_samples_beyond']} samples beyond)")
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    if res["trace"] and not res["counts_repeat"]:
        print("  per-layer counts differ between traced rounds: incorrect")
    print(f"  results: {res['results_file']}")


def selfcheck(workloads, seed) -> bool:
    ok = True
    for w in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        a, b, c = (spawn(w, s, "once", 0, deadline)
                   for s in (seed, seed, seed + 1))
        same = {key: a[key] == b[key]
                for key in ("schedule", "input_digests", "outcomes", "probes")}
        changed = a["input_digests"] != c["input_digests"]
        passed = all(same.values()) and changed
        ok &= passed
        print(f"{w}: same seed reproduces {same}, "
              f"seed {seed + 1} changes inputs: {changed} -> "
              f"{'ok' if passed else 'FAILED'}")
    return ok


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "bowmonad")):
        print(f"no bowmonad sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=spec["workloads"] + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    chosen = spec["workloads"] if args.workload == "all" else (args.workload,)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.selfcheck:
            return 0 if selfcheck(chosen, args.seed) else 1
        results = []
        for w in chosen:
            # the time limit holds per workload
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(measure(w, args.seed, args.seconds, bool(args.trace),
                                   spec, deadline))
            report(results[-1])
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    # a traced run is also incorrect when a per-layer count changed between
    # rounds of the same ops
    correct = all(r["failed"] == 0 and r.get("counts_repeat", True)
                  and all(p["expected"] for p in r["probes"].values())
                  for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
