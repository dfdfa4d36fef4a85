"""The benchmark's ops against the library as it stands: one round of every
workload from perfbench/workloads.py at seed 0, every op passing its own
checks (kernel dimensions 2, min_eig > 0, pole, drift, grading and
transport; splitting types, section counts and refusals; fiber dimensions;
exact identities and round trips).  A change that breaks what the benchmark
reads of the library (`dl.matrix.shape` among it) fails here before it
fails a benchmark run.

Each round's decisions are pinned: the sha256 of the JSON list of every
op's (kind, label, ok, detail) in set-up order, where a detail holds only
discrete outcomes (dimensions, splitting types and refusals, identity and
round-trip flags, min_eig_positive, the flow checks).  A change that is
meant to leave every outcome as it is, such as a speed-up, keeps these."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

ROUND_DIGESTS = {
    "fiber-sweep":
        "843f780a537c9d65371da0c5b3ea2057afc2ae85572d881cc939aff52f229715",
    "line-splitting":
        "e4f53b92121f813896b2de80ec67f8f152d17675735279e32aa3afa2ee735a90",
    "exact-certify":
        "b72aa984e41de76fe8cb7f5d750a15a767fc28cf3ce4e4fac372a7e9998cd48e",
    "bow-dirac":
        "a8e0fa3fb7a7fe1a6ed1440b0e1192707c50a95694ee19dfd59f131e6b7d384b"}


def _round_passes(name, kinds, tmp_path):
    """Runs one seed-0 round of the workload: the op kinds are ``kinds``,
    every op passes, and the round's decisions have the pinned digest."""
    work = workloads.setup(name, 0, str(tmp_path), workloads.API)
    assert {op.kind for op in work.ops} == kinds
    records = []
    for op in work.ops:
        ok, detail, _ = op.fn(workloads.API)
        assert ok, (op.kind, op.label, detail)
        records.append([op.kind, op.label, ok, detail])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == ROUND_DIGESTS[name]


def test_bow_dirac_round_passes(tmp_path):
    _round_passes("bow-dirac", {"dirac", "flow"}, tmp_path)


def test_line_splitting_round_passes(tmp_path):
    """Section counts and splitting refusals as the benchmark checks them:
    a refusal off a spectrally aligned line raises, any other failed check
    reads ok = False."""
    _round_passes("line-splitting", {"splitting"}, tmp_path)


@pytest.mark.parametrize("name, kinds", [
    ("fiber-sweep", {"fiber"}),
    ("exact-certify", {"identity", "fiber", "roundtrip"})])
def test_monad_workload_round_passes(name, kinds, tmp_path):
    """fiber-sweep loads, validates and builds every instance file, then
    takes fiber dimensions at the sweep points and on the jumping lines;
    exact-certify runs exact validate, monad identity, Taub-NUT fiber and
    round trip on all (k, m) pairs of both flavors (its caloron fiber
    probes, whose known error the benchmark records, are not ops)."""
    _round_passes(name, kinds, tmp_path)
