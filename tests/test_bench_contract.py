"""The benchmark's ops against the library as it stands: one round of every
workload from perfbench/workloads.py at seed 0, every op passing its own
checks (kernel dimensions 2, min_eig > 0, pole, drift, grading and
transport; splitting types, section counts and refusals; fiber dimensions;
exact identities and round trips).  A change that breaks what the benchmark
reads of the library (`dl.matrix.shape` among it) fails here before it
fails a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def test_bow_dirac_round_passes(tmp_path):
    work = workloads.setup("bow-dirac", 0, str(tmp_path), workloads.API)
    assert {op.kind for op in work.ops} == {"dirac", "flow"}
    for op in work.ops:
        ok, detail, _ = op.fn(workloads.API)
        assert ok, (op.kind, op.label, detail)


def test_line_splitting_round_passes(tmp_path):
    """Section counts and splitting refusals as the benchmark checks them:
    a refusal off a spectrally aligned line raises, any other failed check
    reads ok = False."""
    work = workloads.setup("line-splitting", 0, str(tmp_path), workloads.API)
    assert {op.kind for op in work.ops} == {"splitting"}
    for op in work.ops:
        ok, detail, _ = op.fn(workloads.API)
        assert ok, (op.kind, op.label, detail)


@pytest.mark.parametrize("name, kinds", [
    ("fiber-sweep", {"fiber"}),
    ("exact-certify", {"identity", "fiber", "roundtrip"})])
def test_monad_workload_round_passes(name, kinds, tmp_path):
    """fiber-sweep loads, validates and builds every instance file, then
    takes fiber dimensions at the sweep points and on the jumping lines;
    exact-certify runs exact validate, monad identity, Taub-NUT fiber and
    round trip on all (k, m) pairs of both flavors (its caloron fiber
    probes, whose known error the benchmark records, are not ops)."""
    work = workloads.setup(name, 0, str(tmp_path), workloads.API)
    assert {op.kind for op in work.ops} == kinds
    for op in work.ops:
        ok, detail, _ = op.fn(workloads.API)
        assert ok, (op.kind, op.label, detail)
