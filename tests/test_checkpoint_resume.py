"""Resume byte-identity: interrupted + resumed == uninterrupted.

The hard guarantee of the checkpoint layer is not "roughly the same
results" but *byte identity* — the final report and every metrics
export of a run that was checkpointed, killed and resumed must be
indistinguishable from a run that was never touched.  These tests
exercise that end-to-end under both engines and across fuzz-generated
configurations.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AccessType
from repro.obs.collect import collect_metrics
from repro.obs.exporters import (
    metrics_to_csv,
    metrics_to_jsonl,
    metrics_to_prometheus,
)
from repro.obs.tracing import trace_digest
from repro.robustness.checkpoint import run_resumable, snapshot_simulator
from repro.sim.simulator import Simulator
from repro.workloads.trace import MemoryTrace, TraceRecord
from sim_helpers import LINE, shared_partition, small_config, write_trace_of


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _workload(seed=11, length=300, blocks=32, cores=2):
    rng = random.Random(seed)
    return {
        core: write_trace_of([rng.randrange(blocks) for _ in range(length)])
        for core in range(cores)
    }


def _report_identity(report):
    """Every comparable field of a report (timing-free by construction)."""
    return (
        report.total_slots,
        report.total_cycles,
        report.timed_out,
        report.latencies(),
        _canonical(report.slot_usage),
        repr(report.llc_stats),
        report.llc_back_invalidations,
        report.dram_reads,
        report.dram_writes,
    )


# ----------------------------------------------------------------------
# Report + metrics byte-identity after an interrupt/resume cycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("checked", [False, True])
def test_resume_is_byte_identical(tmp_path, engine, checked):
    config = dataclasses.replace(
        small_config(), engine=engine, checked=checked
    )
    traces = _workload()
    path = tmp_path / "mid.ckpt"

    reference = Simulator(config, traces).run()

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=23)
    sim.checkpoint(path)
    del sim  # the "killed" process

    resumed = Simulator.restore(path, config, traces).run()

    assert _report_identity(resumed) == _report_identity(reference)
    assert trace_digest(resumed.events) == trace_digest(reference.events)

    ref_metrics = collect_metrics(reference, config.slot_width)
    res_metrics = collect_metrics(resumed, config.slot_width)
    for render in (metrics_to_jsonl, metrics_to_csv, metrics_to_prometheus):
        assert render(res_metrics) == render(ref_metrics)


def test_double_interrupt_resume_is_byte_identical(tmp_path):
    # Two kills in one run: resume, checkpoint again further in, kill
    # again, resume again.  Still byte-identical.
    config = small_config()
    traces = _workload(seed=5)
    path = tmp_path / "twice.ckpt"
    reference = Simulator(config, traces).run()

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=11)
    sim.checkpoint(path)

    sim = Simulator.restore(path, config, traces)
    sim.engine.run(stop_at_slot=37)
    sim.checkpoint(path)

    resumed = Simulator.restore(path, config, traces).run()
    assert _report_identity(resumed) == _report_identity(reference)
    assert trace_digest(resumed.events) == trace_digest(reference.events)


def test_run_resumable_resumes_from_existing_checkpoint(tmp_path):
    config = small_config()
    traces = _workload(seed=3)
    path = tmp_path / "resume.ckpt"
    reference = Simulator(config, traces).run()

    # Crash emulation: drive partway, checkpoint, abandon the process.
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=29)
    sim.checkpoint(path)

    resumed = run_resumable(config, traces, path=path, every_slots=16)
    assert _report_identity(resumed) == _report_identity(reference)
    assert not path.exists()


def test_run_resumable_saves_every_interval_slots(tmp_path, monkeypatch):
    config = small_config()
    traces = _workload(seed=4)
    path = tmp_path / "paced.ckpt"
    saves = []

    import repro.robustness.checkpoint as ckpt

    real_save = ckpt.save_checkpoint

    def counting_save(sim, target, **kwargs):
        saves.append(sim.engine._slot)
        return real_save(sim, target, **kwargs)

    monkeypatch.setattr(ckpt, "save_checkpoint", counting_save)
    report = run_resumable(config, traces, path=path, every_slots=32)
    reference = Simulator(config, traces).run()
    # One save at every 32-slot boundary the run did not finish before.
    assert saves == list(range(32, reference.total_slots, 32))
    assert report.latencies() == reference.latencies()
    assert not path.exists()


# ----------------------------------------------------------------------
# Campaign-level byte identity: summaries and merged metrics
# ----------------------------------------------------------------------
def test_registry_from_rows_is_the_inverse_of_rows():
    from repro.obs.metrics import MetricsRegistry, registry_from_rows

    registry = MetricsRegistry()
    registry.counter("ops", artifact="figure-7").inc(3)
    registry.gauge("depth").set(2.5)
    hist = registry.histogram("latency", bucket_width=4, core=1)
    hist.observe(3)
    hist.observe(9)
    empty = registry.histogram("untouched", bucket_width=2)
    assert empty.count == 0
    assert registry_from_rows(registry.rows()).rows() == registry.rows()


def test_campaign_summary_and_metrics_bytes_survive_kill_and_resume(tmp_path):
    # The merged metrics export and the summary files of a campaign that
    # was killed and resumed must be byte-identical to an uninterrupted
    # run's — regardless of which artifacts completed before the kill.
    from repro.robustness.runner import (
        RunManifest,
        campaign_metrics,
        run_all_robust,
    )

    ref = tmp_path / "ref"
    killed = tmp_path / "killed"
    kwargs = dict(num_requests=60, tightness_repeats=3, with_metrics=True)

    reference = run_all_robust(out_dir=ref, **kwargs)
    ref_export = metrics_to_jsonl(campaign_metrics(reference))
    assert ref_export, "expected the figure artifacts to carry metrics"

    run_all_robust(out_dir=killed, **kwargs)
    # Emulate a kill after two artifacts: strip the later manifest
    # entries and the summary files only a finished run writes.  The
    # surviving names sort *differently* than they ran, which is
    # exactly what used to leak into the resumed summary's key order.
    manifest = RunManifest.load(killed / "manifest.json")
    survived = {"section-5.1-constants", "figure-7"}
    manifest.tasks = {
        name: entry
        for name, entry in manifest.tasks.items()
        if name in survived
    }
    manifest.save()
    (killed / "summary.json").unlink()
    (killed / "SUMMARY.txt").unlink()

    resumed = run_all_robust(out_dir=killed, **kwargs)
    skipped = {o.name for o in resumed.outcomes if o.status == "skipped"}
    assert skipped == survived

    assert (killed / "summary.json").read_bytes() == (
        ref / "summary.json"
    ).read_bytes()
    assert (killed / "SUMMARY.txt").read_bytes() == (
        ref / "SUMMARY.txt"
    ).read_bytes()
    # figure-7 never ran in the resumed campaign; its metrics come from
    # the rows its original run persisted in the manifest.
    assert metrics_to_jsonl(campaign_metrics(resumed)) == ref_export


# ----------------------------------------------------------------------
# Hypothesis: round-trip identity across fuzz-generated configurations
# ----------------------------------------------------------------------
def _traces_strategy(num_cores):
    record = st.tuples(
        st.integers(min_value=0, max_value=15),
        st.booleans(),
    )
    per_core = st.lists(record, min_size=8, max_size=60)
    return st.lists(per_core, min_size=num_cores, max_size=num_cores).map(
        lambda cores: {
            core: MemoryTrace(
                [
                    TraceRecord(
                        block * LINE,
                        AccessType.WRITE if is_write else AccessType.READ,
                    )
                    for block, is_write in records
                ],
                name=f"ckpt-core{core}",
            )
            for core, records in enumerate(cores)
        }
    )


@st.composite
def _scenario(draw):
    num_cores = draw(st.integers(min_value=1, max_value=3))
    sequencer = draw(st.booleans())
    config = small_config(
        num_cores=num_cores,
        partitions=[
            shared_partition(num_cores, ways=4, sequencer=sequencer)
        ],
        llc_sets=2,
        llc_ways=4,
        sequencer=sequencer,
        llc_policy=draw(
            st.sampled_from(["lru", "fifo", "plru", "random", "nmru"])
        ),
    )
    config = dataclasses.replace(
        config, engine=draw(st.sampled_from(["fast", "reference"]))
    )
    traces = draw(_traces_strategy(num_cores))
    stop_slot = draw(st.integers(min_value=1, max_value=40))
    return config, traces, stop_slot


@settings(max_examples=25, deadline=None)
@given(scenario=_scenario())
def test_prop_checkpoint_round_trip(tmp_path_factory, scenario):
    config, traces, stop_slot = scenario
    path = tmp_path_factory.mktemp("prop") / "prop.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=stop_slot)
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    # State-identical at the stop point...
    assert _canonical(snapshot_simulator(restored)) == _canonical(
        snapshot_simulator(sim)
    )
    # ...and byte-identical going forward.
    resumed = restored.engine.run()
    reference = Simulator(config, traces).run()
    assert _report_identity(resumed) == _report_identity(reference)
    assert trace_digest(resumed.events) == trace_digest(reference.events)
