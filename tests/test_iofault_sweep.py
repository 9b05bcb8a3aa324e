"""Exhaustive fault-schedule sweep over a miniature campaign.

The acceptance bar for the I/O fault layer: inject a fault at the k-th
seam operation for *every* k of a campaign that exercises every
persistence store (result cache, auto-checkpoints, report export,
metrics export, manifest), and prove that

* no torn artifact and no stale ``.tmp`` sibling ever survives,
* every surviving artifact is byte-identical to the clean run's,
* outcomes match the durability class — a single transient fault is
  absorbed everywhere (essential retry / best-effort degradation),
  a persistent essential fault fails loudly with a typed error, a
  persistent best-effort fault degrades and the run completes with
  byte-identical simulation results,
* once the fault clears, re-running over the same directory completes
  the campaign with byte-identical final artifacts.
"""

import random
from pathlib import Path

import pytest

from sim_helpers import fast_io_context, small_config, write_trace_of

from repro.common import fileio
from repro.common.context import run_context
from repro.common.errors import ObservabilityError, PersistenceError
from repro.obs.collect import collect_metrics
from repro.obs.exporters import write_metrics
from repro.robustness.checkpoint import AutoCheckpointPolicy
from repro.robustness.iofault import (
    IoFaultKind,
    IoFaultPlan,
    IoFaultSpec,
    record_io_operations,
)
from repro.robustness.runner import RunManifest
from repro.sim.cache import SimResultCache
from repro.sim.export import write_report_json
from repro.sim.simulator import simulate

pytestmark = pytest.mark.usefixtures("fast_io")


def _workload():
    rng = random.Random(7)
    return {
        core: write_trace_of([rng.randrange(24) for _ in range(40)])
        for core in (0, 1)
    }


def run_campaign(root: Path, config, traces):
    """A tiny end-to-end campaign touching every persistence store.

    Two simulations (a cold computed run and a disk cache hit) under the
    result cache and auto-checkpoint policies, then the three essential
    artifacts a real campaign ends with: the report JSON, the metrics
    export and a campaign manifest (two journalled records, then the
    compaction that ends every campaign).  Returns the first report's
    latencies.
    """
    cache = SimResultCache(root / "cache")
    policy = AutoCheckpointPolicy(root / "ckpts", every_slots=32)
    with run_context(result_cache=cache, checkpoints=policy):
        first = simulate(config, traces)
        cache._memo.clear()  # the second call must hit the disk entry
        again = simulate(config, traces)
        assert again.latencies() == first.latencies()
        write_report_json(first, root / "report.json")
        write_metrics(
            collect_metrics(first, config.slot_width), root / "metrics.jsonl"
        )
        manifest = RunManifest(root / "manifest.json")
        manifest.record(
            "observed-wcl", {"status": "done", "payload": first.observed_wcl()}
        )
        manifest.record(
            "latencies", {"status": "done", "payload": first.latencies()}
        )
        manifest.save()
    return first.latencies()


def snapshot(root: Path):
    """Every file under ``root`` as {relative path: bytes}."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def assert_no_tmp(root: Path, context: str):
    orphans = [str(p) for p in root.rglob("*.tmp")]
    assert not orphans, f"{context}: stale .tmp artifacts survived: {orphans}"


def assert_surviving_artifacts_clean(root: Path, reference_files, context: str):
    """Every file present is byte-identical to the clean run's copy."""
    for relpath, data in snapshot(root).items():
        assert relpath in reference_files, (
            f"{context}: unexpected artifact {relpath} "
            "(the clean campaign never writes it)"
        )
        assert data == reference_files[relpath], (
            f"{context}: artifact {relpath} differs from the clean "
            "campaign's bytes (torn or stale write survived)"
        )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The clean campaign: its artifacts, latencies and seam op stream."""
    config = small_config()
    traces = _workload()
    root = tmp_path_factory.mktemp("reference")
    with fast_io_context():
        latencies = run_campaign(root, config, traces)
        files = snapshot(root)
        recorded_root = tmp_path_factory.mktemp("recorded")
        with record_io_operations() as recorder:
            assert run_campaign(recorded_root, config, traces) == latencies
        operations = list(recorder.operations)
    assert snapshot(recorded_root) == files, (
        "the campaign is not deterministic across directories; the sweep's "
        "byte comparisons would be meaningless"
    )
    return {
        "config": config,
        "traces": traces,
        "latencies": latencies,
        "files": files,
        "operations": operations,
    }


def test_campaign_exercises_every_store_and_is_bounded(reference):
    # The sweep below replays the campaign once per operation; make sure
    # that is (a) exhaustive over the stores and (b) cheap enough.
    sites = {op.site for op in reference["operations"]}
    assert {
        "result-cache",
        "auto-checkpoint",
        "report-export",
        "metrics-export",
        "manifest",
    } <= sites
    ops = {op.op for op in reference["operations"]}
    assert {"open", "write", "fsync", "replace", "fsync-dir", "read"} <= ops
    # The manifest journal's appends are swept too, not just the snapshot.
    journal_ops = [
        op.op for op in reference["operations"] if op.path.suffix == ".journal"
    ]
    assert journal_ops.count("open") == journal_ops.count("write") == 2
    assert journal_ops.count("fsync") == 2
    assert 10 <= len(reference["operations"]) <= 300


def test_single_fault_at_every_operation_is_absorbed(tmp_path, reference):
    """EIO at the k-th seam op, for every k: the campaign still completes
    with byte-identical artifacts — essential stores absorb the fault by
    retrying, best-effort stores degrade and recompute."""
    total = len(reference["operations"])
    for k in range(1, total + 1):
        root = tmp_path / f"k{k}"
        spec = IoFaultSpec(kind=IoFaultKind.EIO, nth=k, count=1)
        plan = IoFaultPlan([spec])
        with fast_io_context(io_hook=plan):
            latencies = run_campaign(
                root, reference["config"], reference["traces"]
            )
        context = f"fault at op {k}/{total}"
        assert latencies == reference["latencies"], context
        assert_no_tmp(root, context)
        assert_surviving_artifacts_clean(root, reference["files"], context)
        # Every essential artifact made it to disk despite the fault.
        for artifact in ("report.json", "metrics.jsonl", "manifest.json"):
            assert (root / artifact).read_bytes() == reference["files"][
                artifact
            ], f"{context}: {artifact} bytes differ"
        assert plan.fired_count >= 1, (
            f"{context}: the fault never fired — the sweep is not "
            "covering the operation it claims to"
        )


def test_short_write_at_every_write_op_leaves_no_torn_artifact(
    tmp_path, reference
):
    """A partial write (half the bytes reach the file, then ENOSPC) at
    every write position: the staged temp file is discarded, never
    promoted, and the campaign still completes byte-identically."""
    writes = sum(1 for op in reference["operations"] if op.op == "write")
    assert writes >= 5
    for j in range(1, writes + 1):
        root = tmp_path / f"w{j}"
        spec = IoFaultSpec(kind=IoFaultKind.SHORT_WRITE, nth=j, count=1)
        with fast_io_context(io_hook=IoFaultPlan([spec])):
            latencies = run_campaign(
                root, reference["config"], reference["traces"]
            )
        context = f"short write at write op {j}/{writes}"
        assert latencies == reference["latencies"], context
        assert_no_tmp(root, context)
        assert_surviving_artifacts_clean(root, reference["files"], context)


@pytest.mark.parametrize(
    "site, error",
    [
        ("report-export", PersistenceError),
        ("manifest", PersistenceError),
        ("metrics-export", ObservabilityError),
    ],
)
def test_persistent_essential_fault_fails_loudly(
    tmp_path, reference, site, error
):
    spec = IoFaultSpec(kind=IoFaultKind.EIO, nth=1, count=None, site=site)
    with run_context(io_hook=IoFaultPlan([spec])):
        with pytest.raises(error):
            run_campaign(tmp_path, reference["config"], reference["traces"])
    context = f"persistent fault at essential site {site!r}"
    assert_no_tmp(tmp_path, context)
    assert_surviving_artifacts_clean(tmp_path, reference["files"], context)
    # The faulted artifact itself never appeared half-written.
    faulted = {
        "report-export": "report.json",
        "manifest": "manifest.json",
        "metrics-export": "metrics.jsonl",
    }[site]
    assert not (tmp_path / faulted).exists(), context


@pytest.mark.parametrize("site", ["result-cache", "auto-checkpoint"])
def test_persistent_best_effort_fault_degrades_and_completes(
    tmp_path, reference, site
):
    spec = IoFaultSpec(kind=IoFaultKind.ENOSPC, nth=1, count=None, site=site)
    with run_context(io_hook=IoFaultPlan([spec])):
        latencies = run_campaign(
            tmp_path, reference["config"], reference["traces"]
        )
    context = f"persistent fault at best-effort site {site!r}"
    assert latencies == reference["latencies"], context
    assert fileio.io_metrics().counter(f"io.degraded.{site}").value >= 1
    assert_no_tmp(tmp_path, context)
    assert_surviving_artifacts_clean(tmp_path, reference["files"], context)
    for artifact in ("report.json", "metrics.jsonl", "manifest.json"):
        assert (tmp_path / artifact).read_bytes() == reference["files"][
            artifact
        ], f"{context}: {artifact} bytes differ"


def test_resume_after_fault_clears_completes_the_campaign(
    tmp_path, reference
):
    """A campaign killed by a persistent essential fault resumes over the
    same directory once the fault clears, ending with the exact artifact
    bytes of a never-faulted campaign."""
    spec = IoFaultSpec(
        kind=IoFaultKind.EIO, nth=1, count=None, site="report-export"
    )
    with run_context(io_hook=IoFaultPlan([spec])):
        with pytest.raises(PersistenceError):
            run_campaign(tmp_path, reference["config"], reference["traces"])
    surviving = set(snapshot(tmp_path))

    with fast_io_context():
        latencies = run_campaign(
            tmp_path, reference["config"], reference["traces"]
        )
    assert latencies == reference["latencies"]
    assert snapshot(tmp_path) == reference["files"]
    # The resume actually reused the failed run's surviving cache entry
    # rather than starting from nothing.
    assert any(name.startswith("cache/") for name in surviving)
