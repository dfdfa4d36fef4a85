"""Span recorder for the traced benchmark run.

Spans are recorded by the benchmark around each call it makes into a
bowmonad module; nothing inside the library is instrumented.  The untraced
run calls the library functions directly: `bind(table, None)` returns the
table unchanged, so no wrapper is installed.

A span is (name, start, end, parent, op id).  Spans stay in memory and are
written as JSONL when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []
        self.op_id = "setup"

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def op_span(self, op_id, name, fn, *args):
        """Run one op under a top-level span of its own; layer spans made
        during the op get it as their parent."""
        self.op_id = op_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op_id = None

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, op_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op_id}) + "\n")


def bind(table: dict, recorder: Recorder | None) -> dict:
    """The library entry points the ops call, traced or not."""
    if recorder is None:
        return table
    return {name: recorder.wrap(name, fn) for name, fn in table.items()}


# Span metrics: span name -> the metrics taken from it.  `calls` counts
# spans and `busy_s` sums their duration, both per schedule round, with the
# set-up spans added to every round.
_SPAN_METRICS = {
    "numkit.charpoly": ("calls", "busy_s"),
    "monadcore.evaluate": ("calls", "busy_s"),
    "monadcore.fiber_dim": ("calls", "busy_s"),
    "monadcore.fiber": ("calls", "busy_s"),
    "monadcore.composite_residual": ("busy_s",),
    "monadcore.splitting_type": ("calls", "busy_s"),
    "caloron.generate_caloron": ("busy_s",),
    "taubnut.generate_taubnut": ("busy_s",),
    "caloron.validate": ("busy_s",),
    "taubnut.validate": ("busy_s",),
    "taubnut.big_monad": ("busy_s",),
    "taubnut.jumping_lines": ("busy_s",),
    "nahmbow.flow": ("calls", "busy_s"),
    "nahmbow.isospectral_drift": ("busy_s",),
    "nahmbow.spectral_curve": ("busy_s",),
    "nahmbow.transport": ("busy_s",),
    "nahmbow.check_boundary": ("busy_s",),
    "nahmbow.complex_shadow": ("busy_s",),
    "nahmbow.finite_monad_family": ("busy_s",),
    "diraclattice.assemble": ("busy_s",),
    "diraclattice.kernel": ("busy_s",),
    "diraclattice.positivity": ("busy_s",),
    "diraclattice.reality_residual": ("busy_s",),
    "bowcli.load_file": ("calls", "busy_s"),
    "bowcli.data_to_json": ("busy_s",),
    "bowcli.solution_to_json": ("busy_s",),
}

# metrics that sum the busy time of several spans
_GROUPS = {
    "caloron.build_monad.busy_s": ("caloron.small_monad", "caloron.big_monad"),
    "caloron.roundtrip.busy_s": ("caloron.to_nahm_complex",
                                 "caloron.from_nahm_complex"),
    "taubnut.roundtrip.busy_s": ("taubnut.to_bow_complex",
                                 "taubnut.from_bow_complex"),
}

def reduce_round(spans, round_rows: range, setup_rows: range,
                 counters: dict) -> dict:
    """Per-layer values of one traced round.  `round_rows` index the spans of
    the round, op spans included; `setup_rows` those made before the first
    op."""
    op_rows = {i for i in round_rows if spans[i][0].startswith("op.")}
    op_time = sum(spans[i][2] - spans[i][1] for i in op_rows)
    calls, busy = {}, {}
    covered = 0.0
    for i in itertools.chain(setup_rows, round_rows):
        if i in op_rows:
            continue
        name, start, end, parent, _ = spans[i]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent in op_rows:
            covered += end - start
    out = {}
    for name, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            out[f"{name}.{kind}"] = (calls.get(name, 0) if kind == "calls"
                                     else busy.get(name, 0.0))
    for metric, names in _GROUPS.items():
        out[metric] = sum(busy.get(n, 0.0) for n in names)
    n_points = calls.get("monadcore.fiber_dim", 0)
    out["monadcore.us_per_point"] = (
        1e6 * (busy.get("monadcore.evaluate", 0.0)
               + busy.get("monadcore.fiber_dim", 0.0)) / n_points
        if n_points else 0.0)
    out["monadcore.splitting_refused"] = counters.get(
        "monadcore.splitting_refused", 0)
    out["nahmbow.flow.rk4_steps"] = counters.get("nahmbow.flow.rk4_steps", 0)
    out["diraclattice.operator_entries"] = counters.get(
        "diraclattice.operator_entries", 0)
    certs = counters.get("diraclattice.kernel.certificates", 0)
    out["diraclattice.kernel.finite_gap_ratio"] = (
        counters.get("diraclattice.kernel.finite_gaps", 0) / certs
        if certs else 0.0)
    out["trace.coverage"] = covered / op_time if op_time else 0.0
    return out


def median_rounds(rounds: list[dict]) -> dict:
    """Low median of each per-layer value over the traced rounds: a value
    one round measured, so a count stays a whole number."""
    return {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
