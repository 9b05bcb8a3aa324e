"""Unit tests for crash-consistent checkpoints (repro.robustness.checkpoint).

Covers the checkpoint file format (integrity hash, versioning, refusal
paths), torn-write fault injection (a kill mid-save must leave the
previous checkpoint generation intact), the run-manifest version gate
and the atomic metrics exporters.
"""

import dataclasses
import json
import os
import random

import pytest

from repro.common.errors import (
    CampaignError,
    CheckpointError,
    FormatVersionError,
    ObservabilityError,
    PersistenceError,
)
from repro.common import fileio
from repro.common.context import IoState, run_context
from repro.common.fileio import atomic_write_text, cleanup_stale_tmp, tmp_sibling
from repro.obs.exporters import metrics_to_jsonl, write_metrics
from repro.obs.metrics import MetricsRegistry
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    AutoCheckpointPolicy,
    default_checkpoint_path,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
    snapshot_simulator,
)
from repro.robustness.runner import MANIFEST_KIND, MANIFEST_VERSION, RunManifest
from repro.sim.codec import canonical_json as _canonical, run_key, seal
from repro.sim.export import report_to_dict
from repro.sim.simulator import Simulator, simulate
from sim_helpers import small_config, write_trace_of


def _workload(seed=7, length=300, blocks=32):
    rng = random.Random(seed)
    return {
        0: write_trace_of([rng.randrange(blocks) for _ in range(length)]),
        1: write_trace_of([rng.randrange(blocks) for _ in range(length)]),
    }


# ----------------------------------------------------------------------
# Fingerprints and default paths
# ----------------------------------------------------------------------
def test_fingerprints_separate_configs_and_traces():
    config = small_config()
    traces = _workload()
    other = dataclasses.replace(config, seed=99)
    assert run_key(config, traces) != run_key(other, traces)
    # The engine choice is part of the config identity: a checkpoint
    # written under one engine must not restore under the other.
    assert run_key(config, traces) != run_key(
        dataclasses.replace(config, engine="reference"), traces
    )
    assert run_key(config, {0: write_trace_of([1, 2, 3])}) != run_key(
        config, {0: write_trace_of([1, 2, 4])}
    )


def test_default_checkpoint_path_is_stable_and_distinct(tmp_path):
    config = small_config()
    traces = _workload()
    path = default_checkpoint_path(tmp_path, config, traces)
    assert path.parent == tmp_path
    assert path.name == f"sim-{run_key(config, traces)[:24]}.ckpt"
    assert path == default_checkpoint_path(tmp_path, config, traces)
    assert path != default_checkpoint_path(
        tmp_path, dataclasses.replace(config, seed=2), traces
    )


# ----------------------------------------------------------------------
# Round-trip state identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_snapshot_round_trip_is_state_identical(tmp_path, engine):
    config = dataclasses.replace(small_config(), engine=engine)
    traces = _workload()
    path = tmp_path / "mid.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=23)
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    assert _canonical(snapshot_simulator(sim)) == _canonical(
        snapshot_simulator(restored)
    )


def test_every_save_writes_the_sealed_snapshot(tmp_path):
    # A save encodes only the requests completed since the previous
    # save; each file must still be exactly seal(snapshot), and so must
    # the saves of a simulator restored from one of them.
    config = small_config()
    traces = _workload()
    sim = Simulator(config, traces)
    saved = []
    for stop in (0, 40, 41, 90):
        sim.engine.run(stop_at_slot=stop)
        path = tmp_path / f"at-{stop}.ckpt"
        save_checkpoint(sim, path)
        assert path.read_text() == seal(snapshot_simulator(sim))
        saved.append((path, len(sim.engine._completed)))
    # An empty log, growth, a save with no new request, growth.
    assert [count for _, count in saved] == [0, 21, 21, 38]
    restored = Simulator.restore(saved[1][0], config, traces)
    for stop in (60, 90):
        restored.engine.run(stop_at_slot=stop)
        save_checkpoint(restored, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_text() == seal(
            snapshot_simulator(restored)
        )


@pytest.mark.parametrize("llc_policy", ["random", "plru", "fifo"])
def test_round_trip_covers_every_policy_state(tmp_path, llc_policy):
    # Random shares one RNG across all sets; PLRU carries tree bits;
    # FIFO carries fill clocks.  Each must survive the round trip.
    config = small_config(llc_policy=llc_policy)
    traces = _workload(seed=llc_policy)
    path = tmp_path / "mid.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=31)
    sim.checkpoint(path)
    restored = Simulator.restore(path, config, traces)
    assert _canonical(snapshot_simulator(sim)) == _canonical(
        snapshot_simulator(restored)
    )

    # ... and the rest of the run is identical to the uninterrupted one.
    reference = Simulator(config, traces).run()
    resumed = restored.engine.run()
    assert resumed.latencies() == reference.latencies()
    assert resumed.slot_usage == reference.slot_usage


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_restore_mid_eviction_rebuilds_region_counts(tmp_path, engine):
    # Dense writes into SS(4,16,4) keep dirty victims PENDING_EVICT; the
    # checkpoint lands while one awaits its write-back, so the resumed
    # run depends on the rebuilt (free, pending) region counts.
    from repro.experiments.configs import build_system_for_notation
    from repro.workloads import synthetic

    config = dataclasses.replace(
        build_system_for_notation("SS(4,16,4)", num_cores=4), engine=engine
    )
    traces = synthetic.generate_disjoint_workload(
        synthetic.SyntheticWorkloadConfig(
            num_requests=150, address_range_size=8192, write_fraction=1.0, seed=3
        ),
        range(4),
    )
    sim = Simulator(config, traces)
    while not sim.system.llc.pending_evictions():
        assert not sim.engine.run_complete(), "no eviction was ever in flight"
        sim.engine.advance(stop_at_slot=sim.engine._slot + 1)
    path = tmp_path / "pending.ckpt"
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    llc = restored.system.llc
    llc.validate()
    assert llc.pending_evictions()
    assert [(r.free, r.pending) for r in llc.regions()] == [
        (r.free, r.pending) for r in sim.system.llc.regions()
    ]
    resumed = restored.run()
    reference = Simulator(config, traces).run()
    assert _canonical(report_to_dict(resumed)) == _canonical(
        report_to_dict(reference)
    )


def test_checkpoint_file_is_deleted_on_completion(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "run.ckpt"
    report = run_resumable(config, traces, path=path, every_slots=16)
    assert report.latencies() == simulate(config, traces).latencies()
    assert not path.exists()


# ----------------------------------------------------------------------
# Refusals: state the checkpoint cannot carry
# ----------------------------------------------------------------------
def test_oracle_policy_is_refused():
    config = small_config(llc_policy="oracle")
    sim = Simulator(config, _workload())
    with pytest.raises(CheckpointError, match="oracle"):
        snapshot_simulator(sim)


def test_foreign_hooks_are_refused():
    config = small_config()
    sim = Simulator(config, _workload())
    sim.engine.add_pre_slot_hook(lambda slot, cycle: None)
    with pytest.raises(CheckpointError, match="pre-slot hooks"):
        snapshot_simulator(sim)

    sim = Simulator(config, _workload())
    sim.engine.add_post_slot_hook(lambda slot, cycle: None)
    with pytest.raises(CheckpointError, match="post-slot hooks"):
        snapshot_simulator(sim)


def test_save_with_an_attached_event_sink_is_refused(tmp_path):
    # The events a sink streamed cannot be rewound on restore.
    events = []
    sim = Simulator(small_config(), _workload(), event_sink=events.append)
    sim.engine.run(stop_at_slot=9)
    path = tmp_path / "sinked.ckpt"
    with pytest.raises(CheckpointError, match="event sink attached"):
        sim.checkpoint(path)
    assert events
    assert not path.exists()


def test_checked_mode_monitor_is_allowed_and_reseeded(tmp_path):
    config = dataclasses.replace(small_config(), checked=True)
    traces = _workload()
    path = tmp_path / "checked.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=17)
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    # The reseeded invariant monitor must stay quiet for the remainder
    # of the run, and the outcome must match the uninterrupted one.
    resumed = restored.run()
    reference = Simulator(config, traces).run()
    assert resumed.latencies() == reference.latencies()


def test_restore_refuses_mismatched_config_and_traces(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "mid.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)

    with pytest.raises(CheckpointError, match="different configuration"):
        Simulator.restore(path, dataclasses.replace(config, seed=2), traces)
    with pytest.raises(CheckpointError, match="engine choice"):
        Simulator.restore(
            path, dataclasses.replace(config, engine="reference"), traces
        )
    with pytest.raises(CheckpointError, match="different workload traces"):
        Simulator.restore(path, config, _workload(seed=99))


def test_restore_refuses_different_start_cycles(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "offset.ckpt"
    sim = Simulator(config, traces, start_cycles={1: 5000})
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)

    with pytest.raises(CheckpointError, match="different start cycles"):
        Simulator.restore(path, config, traces, start_cycles=None)
    restored = Simulator.restore(path, config, traces, start_cycles={1: 5000})
    reference = Simulator(config, traces, start_cycles={1: 5000}).run()
    assert restored.run().latencies() == reference.latencies()


def test_default_checkpoint_path_separates_start_offsets(tmp_path):
    config = small_config()
    traces = _workload()
    plain = default_checkpoint_path(tmp_path, config, traces)
    assert default_checkpoint_path(tmp_path, config, traces, {1: 5000}) != plain
    # Zero offsets describe the same run as no offsets at all.
    for same in ({0: 0}, {}, None):
        assert default_checkpoint_path(tmp_path, config, traces, same) == plain


def test_restore_ignores_trace_names(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "named.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)

    renamed = _workload()
    for core, trace in renamed.items():
        trace.name = f"renamed-{core}"
    restored = Simulator.restore(path, config, renamed)
    assert restored.run().latencies() == Simulator(config, traces).run().latencies()


# ----------------------------------------------------------------------
# load_checkpoint error paths
# ----------------------------------------------------------------------
def _written_checkpoint(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "good.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=5)
    sim.checkpoint(path)
    return path


def _rewrite_payload(path, mutate):
    """Edit a checkpoint's payload and re-sign it with a valid digest."""
    payload = json.loads(path.read_text())["payload"]
    mutate(payload)
    path.write_text(seal(payload))


def test_load_checkpoint_error_paths(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "absent.ckpt")

    garbage = tmp_path / "garbage.ckpt"
    garbage.write_text("{truncated")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbage)

    no_payload = tmp_path / "nopayload.ckpt"
    no_payload.write_text('{"integrity": "x"}')
    with pytest.raises(CheckpointError, match="no payload section"):
        load_checkpoint(no_payload)

    path = _written_checkpoint(tmp_path)
    document = json.loads(path.read_text())
    document["payload"]["state"]["engine"]["slot"] += 1  # silent corruption
    path.write_text(_canonical(document) + "\n")
    with pytest.raises(CheckpointError, match="integrity check"):
        load_checkpoint(path)


def test_load_checkpoint_version_gate(tmp_path):
    path = _written_checkpoint(tmp_path)

    def set_kind(payload):
        payload["kind"] = "something-else"

    _rewrite_payload(path, set_kind)
    with pytest.raises(CheckpointError, match="not a repro-sim-checkpoint file"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def break_version(payload):
        payload["version"] = "two"

    _rewrite_payload(path, break_version)
    with pytest.raises(CheckpointError, match="malformed version"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def newer_version(payload):
        payload["version"] = CHECKPOINT_VERSION + 1

    _rewrite_payload(path, newer_version)
    with pytest.raises(CheckpointError, match="newer repro build"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def zero_version(payload):
        payload["version"] = 0

    _rewrite_payload(path, zero_version)
    with pytest.raises(CheckpointError, match="unsupported version"):
        load_checkpoint(path)


def _downgrade_to_version_1(path):
    """Rewrite a checkpoint in the version-1 layout: a config repr hash
    and name-keyed trace fingerprints instead of the run identity."""

    def downgrade(payload):
        del payload["identity"]
        payload["version"] = 1
        payload["config"] = "0" * 64
        payload["traces"] = {"0": "1" * 64, "1": "2" * 64}

    _rewrite_payload(path, downgrade)


def test_version_1_checkpoint_is_refused_as_an_older_build(tmp_path):
    path = _written_checkpoint(tmp_path)
    _downgrade_to_version_1(path)
    with pytest.raises(CheckpointError, match="older repro build") as excinfo:
        load_checkpoint(path)
    assert "delete it" in str(excinfo.value)


def test_version_2_checkpoint_is_refused_as_an_older_build(tmp_path):
    # Version 3 stores each set sequencer as its per-set FIFO table; a
    # version-2 file (queue ids and a free-queue pool) is not read.
    path = _written_checkpoint(tmp_path)

    def downgrade(payload):
        payload["version"] = 2

    _rewrite_payload(path, downgrade)
    with pytest.raises(FormatVersionError, match="older repro build"):
        load_checkpoint(path)


def test_version_3_checkpoint_is_refused_as_an_older_build(tmp_path):
    # Version 4 drops the trace-sink states; a version-3 file is not read.
    path = _written_checkpoint(tmp_path)

    def downgrade(payload):
        payload["version"] = 3
        payload["sinks"] = []

    _rewrite_payload(path, downgrade)
    with pytest.raises(FormatVersionError, match="older repro build"):
        load_checkpoint(path)


def test_version_4_checkpoint_is_refused_as_an_older_build(tmp_path):
    # Version 5 stores the DRAM as its two counters and each sequencer
    # without overflow state; a version-4 file is not read.
    path = _written_checkpoint(tmp_path)

    def downgrade(payload):
        payload["version"] = 4
        state = payload["state"]
        state["dram"] = {"stats": state["dram"], "free_at": 0}
        for _, sequencer in state["sequencers"]:
            sequencer.update(overflows=0, unsequenced=[])

    _rewrite_payload(path, downgrade)
    with pytest.raises(FormatVersionError, match="older repro build"):
        load_checkpoint(path)


def test_version_1_auto_checkpoint_is_discarded_and_recomputed(tmp_path):
    config = small_config()
    traces = _workload()
    reference = simulate(config, traces)
    stale = _written_checkpoint(tmp_path)
    _downgrade_to_version_1(stale)
    directory = tmp_path / "auto"
    directory.mkdir()
    path = default_checkpoint_path(directory, config, traces)
    stale.rename(path)

    with run_context(
        io=IoState(),
        checkpoints=AutoCheckpointPolicy(directory, every_slots=16),
    ):
        report = simulate(config, traces)
        degraded = fileio.io_metrics().counter("io.degraded.auto-checkpoint")
        assert degraded.value == 1
    assert not path.exists()
    assert json.dumps(report_to_dict(report)) == json.dumps(
        report_to_dict(reference)
    )
    assert report.latencies() == reference.latencies()


# ----------------------------------------------------------------------
# Torn writes: a kill mid-save never loses the previous generation
# ----------------------------------------------------------------------
def _interrupted_save(tmp_path, monkeypatch, boom, expect=None):
    """Write a valid checkpoint, then make the *next* save die in
    ``os.replace`` — the moment a torn write would clobber the target."""
    config = small_config()
    traces = _workload()
    path = tmp_path / "torn.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)
    before = path.read_bytes()

    sim.engine.run(stop_at_slot=20)
    real_replace = os.replace

    def dying_replace(src, dst):
        raise boom

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(expect or type(boom)):
        sim.checkpoint(path)
    monkeypatch.setattr(os, "replace", real_replace)
    return config, traces, path, before


def test_torn_write_keeps_previous_checkpoint_valid(tmp_path, monkeypatch):
    # An ESSENTIAL save retries, then fails loudly as PersistenceError
    # (never a bare OSError: the retry budget is already spent).
    monkeypatch.setattr(fileio, "_sleep", lambda seconds: None)
    config, traces, path, before = _interrupted_save(
        tmp_path, monkeypatch, OSError("disk full"), expect=PersistenceError
    )
    # The target was never touched and the failed write cleaned up its
    # own temp sibling — an ENOSPC mid-save leaks no partial data.
    assert path.read_bytes() == before
    assert not tmp_sibling(path).exists()
    restored = Simulator.restore(path, config, traces)
    assert restored.engine._slot == 9


def test_sigint_during_save_keeps_previous_checkpoint_valid(
    tmp_path, monkeypatch
):
    # KeyboardInterrupt is what an in-process SIGINT raises; landing it
    # inside the save path must leave the previous generation intact.
    config, traces, path, before = _interrupted_save(
        tmp_path, monkeypatch, KeyboardInterrupt()
    )
    assert path.read_bytes() == before
    restored = Simulator.restore(path, config, traces)
    resumed = restored.run()
    assert resumed.latencies() == Simulator(config, traces).run().latencies()


def test_sigterm_during_fsync_keeps_previous_checkpoint_valid(
    tmp_path, monkeypatch
):
    # Dying even earlier — during the temp file's fsync — is equally
    # safe: the target is untouched until the final rename.
    config = small_config()
    traces = _workload()
    path = tmp_path / "fsync.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)
    before = path.read_bytes()

    sim.engine.run(stop_at_slot=20)

    def dying_fsync(fd):
        raise SystemExit(143)  # what a handled SIGTERM exits with

    monkeypatch.setattr(os, "fsync", dying_fsync)
    with pytest.raises(SystemExit):
        sim.checkpoint(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert Simulator.restore(path, config, traces).engine._slot == 9


# ----------------------------------------------------------------------
# Auto-checkpoint policy validation and simulate() plumbing
# ----------------------------------------------------------------------
def test_auto_policy_validation(tmp_path):
    with pytest.raises(CheckpointError, match="must be positive"):
        AutoCheckpointPolicy(directory=tmp_path, every_slots=0)
    with pytest.raises(CheckpointError, match="must be positive"):
        AutoCheckpointPolicy.for_directory(tmp_path, every_slots=-1)


def test_auto_policy_for_directory_defaults_the_interval(tmp_path):
    from repro.robustness.checkpoint import DEFAULT_CHECKPOINT_SLOTS

    assert AutoCheckpointPolicy.for_directory(str(tmp_path)) == (
        AutoCheckpointPolicy(tmp_path, every_slots=DEFAULT_CHECKPOINT_SLOTS)
    )
    assert AutoCheckpointPolicy(tmp_path).every_slots == DEFAULT_CHECKPOINT_SLOTS
    assert AutoCheckpointPolicy.for_directory(tmp_path, 64).every_slots == 64


def test_event_sink_runs_bypass_the_auto_checkpoint_policy(tmp_path, monkeypatch):
    import repro.robustness.checkpoint as ckpt

    config = small_config()
    traces = _workload()
    reference = simulate(config, traces)
    saves = []
    real_save = ckpt.save_checkpoint

    def counting_save(sim, target, **kwargs):
        saves.append(target)
        return real_save(sim, target, **kwargs)

    monkeypatch.setattr(ckpt, "save_checkpoint", counting_save)
    directory = tmp_path / "auto"
    events = []
    with run_context(checkpoints=AutoCheckpointPolicy(directory, every_slots=16)):
        report = simulate(config, traces, event_sink=events.append)
    assert events
    assert saves == []
    assert not directory.exists()
    assert _canonical(report_to_dict(report)) == _canonical(
        report_to_dict(reference)
    )


# ----------------------------------------------------------------------
# Satellite: manifest version gate
# ----------------------------------------------------------------------
def test_manifest_rejects_newer_version_with_actionable_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        seal({"kind": MANIFEST_KIND, "version": MANIFEST_VERSION + 1, "tasks": {}})
    )
    with pytest.raises(CampaignError, match="newer repro build") as excinfo:
        RunManifest.load(path)
    # The error must tell the user what to *do*, not just what broke.
    assert "upgrade this installation" in str(excinfo.value)
    assert "delete the manifest" in str(excinfo.value)


def test_manifest_load_sweeps_stale_tmp(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = RunManifest(path)
    manifest.record("t1", {"status": "done", "payload": 1})
    tmp_sibling(path).write_text("torn")
    loaded = RunManifest.load(path)
    assert loaded.is_done("t1")
    assert not tmp_sibling(path).exists()


# ----------------------------------------------------------------------
# Satellite: atomic metrics exporters
# ----------------------------------------------------------------------
def test_write_metrics_is_atomic_and_sweeps_stale_tmp(tmp_path):
    registry = MetricsRegistry()
    registry.counter("demo.count").inc(3)
    target = tmp_path / "metrics.jsonl"
    tmp_sibling(target).write_text("torn half-write from a dead process")

    write_metrics(registry, target)
    assert target.read_text() == metrics_to_jsonl(registry)
    assert not tmp_sibling(target).exists()


def test_write_metrics_torn_write_keeps_previous_export(
    tmp_path, monkeypatch
):
    registry = MetricsRegistry()
    registry.counter("demo.count").inc(1)
    target = tmp_path / "metrics.prom"
    write_metrics(registry, target)
    before = target.read_bytes()

    registry.counter("demo.count").inc(1)

    def dying_replace(src, dst):
        raise OSError("kill landed here")

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(ObservabilityError, match="cannot write metrics"):
        write_metrics(registry, target)
    monkeypatch.undo()
    assert target.read_bytes() == before


def test_atomic_write_text_respects_mkdir_flag(tmp_path):
    nested = tmp_path / "made" / "file.txt"
    atomic_write_text(nested, "hello\n")
    assert nested.read_text() == "hello\n"
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "absent" / "file.txt", "x", mkdir=False)
