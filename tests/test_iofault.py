"""The I/O fault injector and the persistence durability policy.

Covers the seam primitives (every fault kind lands where its spec
says), the two durability classes (ESSENTIAL retry-then-loud,
BEST-EFFORT circuit breaker), the ``.tmp``-leak fix, the counted
``io.swallowed.*`` metrics that replaced silent ``except OSError:
pass``, the loud trace-sink failure, and the ``--io-fault`` CLI flag.
"""

import errno
import json

import pytest

from sim_helpers import small_config, write_trace_of

from repro.cli import main
from repro.common import fileio
from repro.common.context import (
    IoState,
    RetryPolicy,
    run_context,
    store_changes,
)
from repro.common.errors import (
    ConfigurationError,
    ObservabilityError,
    PersistenceError,
)
from repro.common.fileio import (
    Durability,
    atomic_write_text,
    persist_text,
    read_bytes,
    tmp_sibling,
)
from repro.experiments.fig7 import run_fig7
from repro.obs.tracing import JsonlTraceSink
from repro.robustness.iofault import (
    InjectedIoError,
    IoFaultKind,
    IoFaultPlan,
    IoFaultSpec,
    record_io_operations,
)
from repro.sim.cache import SimResultCache
from repro.sim.parallel import parallel_available
from repro.sim.simulator import simulate

pytestmark = pytest.mark.usefixtures("fast_io")


def _workload(length=60, blocks=16, seed=3):
    import random

    rng = random.Random(seed)
    return {
        core: write_trace_of([rng.randrange(blocks) for _ in range(length)])
        for core in (0, 1)
    }


def _counter(name):
    return fileio.io_metrics().counter(name).value


def plan(*texts, seed=0):
    return IoFaultPlan([IoFaultSpec.parse(text) for text in texts], seed=seed)


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestSpecParsing:
    @pytest.mark.parametrize(
        "text, kind, nth, count",
        [
            ("enospc", IoFaultKind.ENOSPC, 1, 1),
            ("eio@7", IoFaultKind.EIO, 7, 1),
            ("eintr@3x2", IoFaultKind.EINTR, 3, 2),
            ("enospc@2x*", IoFaultKind.ENOSPC, 2, None),
            ("SHORT-WRITE@1", IoFaultKind.SHORT_WRITE, 1, 1),
        ],
    )
    def test_windows(self, text, kind, nth, count):
        spec = IoFaultSpec.parse(text)
        assert (spec.kind, spec.nth, spec.count) == (kind, nth, count)

    def test_filters(self):
        spec = IoFaultSpec.parse("eio@2,site=result-cache,op=read,path=res-*")
        assert spec.site == "result-cache"
        assert spec.op == "read"
        assert spec.path_glob == "res-*"

    def test_describe_round_trips(self):
        for text in (
            "enospc",
            "eio@7",
            "eintr@3x2",
            "enospc@2x*",
            "fsync@1,site=manifest",
            "corrupt-read@1,path=*.json",
            "eacces@1,op=open",
        ):
            spec = IoFaultSpec.parse(text)
            assert IoFaultSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ("whatever@1", "unknown io-fault kind"),
            ("enospc@x", "bad io-fault position"),
            ("enospc@1xq", "bad io-fault count"),
            ("enospc@0", "nth must be >= 1"),
            ("enospc@1,yo=1", "unknown io-fault filter key"),
            ("enospc@1,site=", "expected key=value"),
            ("enospc@1,op=frobnicate", "unknown op"),
        ],
    )
    def test_rejects_malformed(self, bad, needle):
        with pytest.raises(ConfigurationError, match=needle):
            IoFaultSpec.parse(bad)


# ----------------------------------------------------------------------
# Every fault kind lands where its spec says
# ----------------------------------------------------------------------
class TestFaultKinds:
    def test_enospc_mid_write_leaves_no_orphan_tmp(self, tmp_path):
        """Satellite: a failed atomic write cleans up its .tmp sibling."""
        target = tmp_path / "a.json"
        with run_context(io_hook=plan("enospc@1")):
            with pytest.raises(InjectedIoError) as excinfo:
                atomic_write_text(target, "x" * 4096, site="manifest")
        assert excinfo.value.errno == errno.ENOSPC
        assert not target.exists()
        assert not tmp_sibling(target).exists()
        assert list(tmp_path.iterdir()) == []

    def test_short_write_leaves_no_torn_file(self, tmp_path):
        target = tmp_path / "b.json"
        with run_context(io_hook=plan("short-write@1")):
            with pytest.raises(InjectedIoError):
                atomic_write_text(target, "Z" * 4096, site="manifest")
        # Half the bytes reached the temp file, but neither a torn
        # target nor the partial sibling survives.
        assert not target.exists()
        assert not tmp_sibling(target).exists()

    def test_rename_failure_keeps_previous_generation(self, tmp_path):
        target = tmp_path / "c.json"
        atomic_write_text(target, "old generation", site="manifest")
        with run_context(io_hook=plan("rename@1")):
            with pytest.raises(InjectedIoError) as excinfo:
                atomic_write_text(target, "new generation", site="manifest")
        assert excinfo.value.errno == errno.EIO
        assert target.read_text() == "old generation"
        assert not tmp_sibling(target).exists()

    def test_fsync_failure_targets_the_fsync_op(self, tmp_path):
        active = plan("fsync@1")
        with run_context(io_hook=active):
            with pytest.raises(InjectedIoError):
                atomic_write_text(tmp_path / "d.json", "x", site="manifest")
        assert [f.operation.op for f in active.fired] == ["fsync"]

    def test_eacces_targets_open(self, tmp_path):
        active = plan("eacces@1")
        with run_context(io_hook=active):
            with pytest.raises(InjectedIoError) as excinfo:
                atomic_write_text(tmp_path / "e.json", "x", site="manifest")
        assert excinfo.value.errno == errno.EACCES
        assert [f.operation.op for f in active.fired] == ["open"]

    def test_nth_and_count_windows(self, tmp_path):
        # eio@2x2 over ops (open write fsync replace fsync-dir):
        # fires at ops 2 and 3 of the *matching* stream only.
        active = plan("eio@2x2,op=write")
        with run_context(io_hook=active):
            atomic_write_text(tmp_path / "f1.json", "x", site="s")
            with pytest.raises(InjectedIoError):
                atomic_write_text(tmp_path / "f2.json", "x", site="s")
            with pytest.raises(InjectedIoError):
                atomic_write_text(tmp_path / "f3.json", "x", site="s")
            atomic_write_text(tmp_path / "f4.json", "x", site="s")
        assert len(active.fired) == 2
        assert (tmp_path / "f4.json").exists()

    def test_site_and_path_filters(self, tmp_path):
        with run_context(io_hook=plan("enospc@1x*,site=result-cache")):
            atomic_write_text(tmp_path / "g.json", "x", site="manifest")
            with pytest.raises(InjectedIoError):
                atomic_write_text(tmp_path / "h.json", "x", site="result-cache")
        with run_context(io_hook=plan("enospc@1x*,path=res-*.json")):
            atomic_write_text(tmp_path / "other.json", "x", site="s")
            with pytest.raises(InjectedIoError):
                atomic_write_text(tmp_path / "res-abc.json", "x", site="s")

    def test_read_corruption_is_deterministic_per_seed(self, tmp_path):
        target = tmp_path / "i.json"
        atomic_write_text(target, "GOOD DATA BYTES", site="s")
        corrupted = []
        for _ in range(2):
            with run_context(io_hook=plan("corrupt-read@1", seed=42)):
                corrupted.append(read_bytes(target, site="s"))
        assert corrupted[0] == corrupted[1]
        assert corrupted[0] != b"GOOD DATA BYTES"
        # The real bytes are untouched.
        assert target.read_bytes() == b"GOOD DATA BYTES"

    def test_recorder_sees_the_operation_stream(self, tmp_path):
        with record_io_operations() as recorder:
            atomic_write_text(tmp_path / "j.json", "x", site="manifest")
        assert [op.op for op in recorder.operations] == [
            "open", "write", "fsync", "replace", "fsync-dir",
        ]
        assert {op.site for op in recorder.operations} == {"manifest"}


# ----------------------------------------------------------------------
# Durability classes
# ----------------------------------------------------------------------
class TestEssentialPolicy:
    def test_transient_fault_is_absorbed_by_retry(self, tmp_path):
        target = tmp_path / "a.json"
        with run_context(io_hook=plan("eintr@1")):
            out = persist_text(target, "data", site="manifest")
        assert out == target and target.read_text() == "data"
        assert _counter("io.retry.manifest") == 1
        assert _counter("io.fault.manifest") == 1

    def test_persistent_fault_raises_actionable_persistence_error(
        self, tmp_path
    ):
        target = tmp_path / "b.json"
        with run_context(io_hook=plan("enospc@1x*")):
            with pytest.raises(PersistenceError) as excinfo:
                persist_text(target, "data", site="manifest")
        message = str(excinfo.value)
        # Actionable: the path, the site, the errno and what to do.
        assert str(target) in message
        assert "manifest" in message
        assert str(errno.ENOSPC) in message
        assert "free disk space" in message
        assert _counter("io.retry.manifest") == 2  # attempts - 1
        assert not tmp_sibling(target).exists()

    def test_retry_policy_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base=0.05, backoff_factor=2.0
        )
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.05, 0.1, 0.2]
        # The default ESSENTIAL schedule: 3 attempts from 50 ms, doubling.
        assert fileio.ESSENTIAL_RETRY == RetryPolicy(
            max_attempts=3, backoff_base=0.05, backoff_factor=2.0
        )


class TestBestEffortPolicy:
    def test_breaker_trips_after_k_failures_with_one_notice(
        self, tmp_path, capsys
    ):
        with run_context(io_hook=plan("enospc@1x*,site=result-cache")):
            results = [
                persist_text(
                    tmp_path / f"{i}.json",
                    "data",
                    site="result-cache",
                    durability=Durability.BEST_EFFORT,
                )
                for i in range(5)
            ]
        assert results == [None] * 5
        err = capsys.readouterr().err
        assert err.count("disabled after") == 1
        assert "result-cache" in err
        assert "run continues" in err
        assert _counter("io.degraded.result-cache") == fileio.DEGRADE_AFTER
        assert _counter("io.skipped.result-cache") == 5 - fileio.DEGRADE_AFTER
        assert fileio.circuit_breaker("result-cache").open

    def test_success_resets_the_consecutive_count(self, tmp_path):
        with run_context(io_hook=plan("enospc@1x2,site=result-cache")):
            for i in range(4):
                persist_text(
                    tmp_path / f"{i}.json",
                    "data",
                    site="result-cache",
                    durability=Durability.BEST_EFFORT,
                )
        # Two failures, then successes: never reaches the threshold.
        assert not fileio.circuit_breaker("result-cache").open
        assert (tmp_path / "2.json").exists()

    def test_breakers_are_per_site(self, tmp_path):
        with run_context(io_hook=plan("enospc@1x*,site=result-cache")):
            for i in range(fileio.DEGRADE_AFTER):
                persist_text(
                    tmp_path / f"{i}.json",
                    "x",
                    site="result-cache",
                    durability=Durability.BEST_EFFORT,
                )
            out = persist_text(
                tmp_path / "other.json",
                "x",
                site="auto-checkpoint",
                durability=Durability.BEST_EFFORT,
            )
        assert fileio.circuit_breaker("result-cache").open
        assert not fileio.circuit_breaker("auto-checkpoint").open
        assert out is not None


# ----------------------------------------------------------------------
# Counted swallows (satellite: no more silent `except OSError: pass`)
# ----------------------------------------------------------------------
class TestSwallowedCounters:
    def test_fsync_directory_failure_is_counted_not_silent(self, tmp_path):
        with run_context(io_hook=plan("eio@1,op=fsync-dir")):
            fileio.fsync_directory(tmp_path, site="manifest")
        assert _counter("io.swallowed.fsync-dir") == 1

    def test_cache_lookup_read_failure_is_counted_as_miss(self, tmp_path):
        config = small_config()
        traces = _workload()
        cache = SimResultCache(tmp_path / "cache")
        with run_context(result_cache=cache):
            reference = simulate(config, traces)
            cache._memo.clear()  # force the next lookup to hit the disk
            with run_context(io_hook=plan("eio@1x*,site=result-cache,op=read")):
                again = simulate(config, traces)
        # The unreadable entry degraded to a recompute, counted, with
        # byte-identical results.
        assert _counter("io.swallowed.result-cache.read") >= 1
        assert again.latencies() == reference.latencies()

    def test_cache_verify_read_failure_is_counted(self, tmp_path):
        from repro.sim.cache import SimResultCache

        config = small_config()
        traces = _workload()
        cache = SimResultCache(tmp_path / "cache")
        cache.store(config, traces, None, simulate(config, traces))
        with run_context(io_hook=plan("eio@1x*,site=result-cache,op=read")):
            ok, removed = cache.verify()
        assert ok == [] and removed == []
        assert _counter("io.swallowed.result-cache.read") == 1

    def test_corrupted_cache_read_is_rejected_by_integrity_check(
        self, tmp_path
    ):
        config = small_config()
        traces = _workload()
        cache = SimResultCache(tmp_path / "cache")
        with run_context(result_cache=cache):
            reference = simulate(config, traces)
            cache._memo.clear()
            with run_context(io_hook=plan("corrupt-read@1,site=result-cache")):
                again = simulate(config, traces)
        # Corrupted bytes are never trusted: the entry was dropped and
        # the run recomputed the same report.
        assert again.latencies() == reference.latencies()
        corruption = cache.registry.counter("sim_cache.corruption").value
        misses = cache.registry.counter("sim_cache.misses").value
        assert corruption + misses >= 1


# ----------------------------------------------------------------------
# Best-effort stores degrade; results stay byte-identical
# ----------------------------------------------------------------------
class TestDegradedRuns:
    def test_cache_store_failure_degrades_run_stays_correct(self, tmp_path):
        config = small_config()
        traces = _workload()
        reference = simulate(config, traces)
        cache = SimResultCache(tmp_path / "cache")
        with run_context(
            result_cache=cache, io_hook=plan("enospc@1x*,site=result-cache")
        ):
            degraded = simulate(config, traces)
        assert degraded.latencies() == reference.latencies()
        assert _counter("io.degraded.result-cache") >= 1
        assert cache.registry.counter("sim_cache.stores").value == 0
        assert list((tmp_path / "cache").glob("*.tmp")) == []

    def test_auto_checkpoint_failure_degrades_run_stays_correct(
        self, tmp_path
    ):
        from repro.robustness.checkpoint import AutoCheckpointPolicy

        config = small_config()
        traces = _workload(length=120)
        reference = simulate(config, traces)
        policy = AutoCheckpointPolicy(tmp_path / "ckpts", every_slots=16)
        with run_context(
            checkpoints=policy, io_hook=plan("enospc@1x*,site=auto-checkpoint")
        ):
            degraded = simulate(config, traces)
        assert degraded.latencies() == reference.latencies()
        assert _counter("io.degraded.auto-checkpoint") >= 1
        assert list((tmp_path / "ckpts").glob("*.tmp")) == []

    def test_corrupt_auto_checkpoint_restarts_instead_of_crashing(
        self, tmp_path
    ):
        from repro.robustness.checkpoint import run_resumable

        config = small_config()
        traces = _workload(length=120)
        reference = simulate(config, traces)
        path = tmp_path / "bad.ckpt"
        path.write_text("{ not a checkpoint")
        report = run_resumable(
            config,
            traces,
            path=path,
            every_slots=16,
            durability=Durability.BEST_EFFORT,
            site="auto-checkpoint",
        )
        assert report.latencies() == reference.latencies()
        assert _counter("io.degraded.auto-checkpoint") == 1


# ----------------------------------------------------------------------
# Trace sink failure is loud (satellite)
# ----------------------------------------------------------------------
class TestTraceSinkFailure:
    def test_mid_run_write_failure_is_loud_and_names_the_path(self, tmp_path):
        trace_path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(trace_path)
        config = small_config()
        with run_context(io_hook=plan("enospc@1,site=trace-sink,op=write")):
            with pytest.raises(ObservabilityError) as excinfo:
                simulate(config, _workload(), event_sink=sink)
        sink.close()
        assert str(trace_path) in str(excinfo.value)

    def test_open_failure_is_loud_and_names_the_path(self, tmp_path):
        trace_path = tmp_path / "denied.jsonl"
        with run_context(io_hook=plan("eacces@1,site=trace-sink")):
            with pytest.raises(ObservabilityError) as excinfo:
                JsonlTraceSink(trace_path)
        assert str(trace_path) in str(excinfo.value)

    def test_partial_trace_write_then_failure_keeps_prefix_valid(
        self, tmp_path
    ):
        # Fail the 5th event write: the first 4 lines must be complete
        # JSON (the sink appends whole lines, never torn ones).
        trace_path = tmp_path / "prefix.jsonl"
        sink = JsonlTraceSink(trace_path)
        with run_context(io_hook=plan("eio@5,site=trace-sink,op=write")):
            with pytest.raises(ObservabilityError):
                simulate(small_config(), _workload(), event_sink=sink)
        sink.close()
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliIoFault:
    def test_essential_report_export_fault_exits_1_with_message(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "simulate",
                "SS(1,16,4)",
                "--requests", "30",
                "--json", str(tmp_path / "report.json"),
                "--io-fault", "enospc@1x*,site=report-export",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: cannot persist essential artifact" in captured.err
        assert "report.json" in captured.err
        assert not (tmp_path / "report.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []
        # The one-line injection summary names the fault count.
        assert "io-fault:" in captured.err

    def test_transient_essential_fault_is_invisible_in_the_output(
        self, tmp_path, capsys
    ):
        target = tmp_path / "report.json"
        code = main(
            [
                "simulate",
                "SS(1,16,4)",
                "--requests", "30",
                "--json", str(target),
                "--io-fault", "eintr@1,site=report-export",
            ]
        )
        capsys.readouterr()
        assert code == 0
        json.loads(target.read_text())

    def test_metrics_export_fault_exits_2_via_observability_error(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "stats",
                "SS(1,16,4)",
                "--requests", "30",
                "--metrics", str(tmp_path / "m.jsonl"),
                "--io-fault", "enospc@1x*,site=metrics-export",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write metrics" in captured.err

    def test_trace_sink_fault_exits_2_with_path(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main(
            [
                "stats",
                "SS(1,16,4)",
                "--requests", "30",
                "--trace", str(trace),
                "--io-fault", "eio@1,site=trace-sink,op=write",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert str(trace) in captured.err

    def test_best_effort_cache_fault_exits_0_and_degrades(
        self, tmp_path, capsys, monkeypatch
    ):
        # main() runs on fresh io.* state; keep a handle on it.
        state = IoState()
        monkeypatch.setattr("repro.common.context.IoState", lambda: state)
        code = main(
            [
                "simulate",
                "SS(1,16,4)",
                "--requests", "30",
                "--cache", str(tmp_path / "cache"),
                "--io-fault", "enospc@1x*,site=result-cache",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "disabled after" not in captured.err  # one miss, no trip
        assert state.metrics.counter("io.degraded.result-cache").value == 1

    def test_malformed_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "SS(1,16,4)", "--io-fault", "frobnicate@1"])
        assert excinfo.value.code == 2
        assert "unknown io-fault kind" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Forked pool workers
# ----------------------------------------------------------------------
@pytest.mark.skipif(not parallel_available(), reason="fork start method unavailable")
class TestForkedWorkers:
    def test_worker_faults_reach_the_reported_totals(self, tmp_path):
        # Each of the six Figure 7 cells runs in a worker forked from the
        # same match counters, so a spec that fires at the first match
        # fires once in every cell, whichever worker finishes first.
        faults = plan("enospc@1,site=auto-checkpoint")
        stores = store_changes(checkpoint_dir=tmp_path, checkpoint_every=64)
        with run_context(io_hook=faults, **stores):
            run_fig7(address_ranges=(1024, 2048), num_requests=100, jobs=2)
        assert faults.fired == []  # none landed in this process
        assert faults.fired_count == 6
        assert faults.operations > faults.fired_count

    def test_cli_summary_counts_worker_faults(self, tmp_path, capsys):
        code = main(
            [
                "fig7",
                "--requests", "100",
                "--jobs", "2",
                "--checkpoint-dir", str(tmp_path),
                "--checkpoint-every", "64",
                "--io-fault", "enospc@1x*,site=auto-checkpoint",
            ]
        )
        summary = capsys.readouterr().err.splitlines()[-1]
        assert code == 0
        faults = int(summary.split()[1])
        assert summary.startswith("io-fault: ") and faults >= 1, summary

    def test_worker_io_counters_reach_the_parent(self, tmp_path):
        # Every result-cache store fails.  Each Figure 7 cell runs in a
        # forked worker, which ships the io.* counters it counted back
        # with its result: none is lost and none is counted twice, so
        # every store is a fault or a skip at --jobs 2 as at --jobs 1.
        counts = {}
        for jobs in (1, 2):
            state = IoState()
            with run_context(
                io=state,
                io_hook=plan("enospc@1x*,site=result-cache"),
                **store_changes(cache_dir=tmp_path / f"cache{jobs}"),
            ):
                run_fig7(address_ranges=(1024, 2048), num_requests=100, jobs=jobs)
            counts[jobs] = {row["name"]: row["value"] for row in state.metrics.rows()}
        assert counts[2]["io.degraded.result-cache"] >= 1
        stores = [
            counts[jobs]["io.fault.result-cache"]
            + counts[jobs].get("io.skipped.result-cache", 0)
            for jobs in (1, 2)
        ]
        assert stores[0] == stores[1] > 0

    def test_a_breaker_opened_in_a_worker_stays_open_for_later_forks(
        self, tmp_path, capfd
    ):
        # Every auto-checkpoint save fails.  A worker sends the sites of
        # its open breakers back and the parent opens them, so only the
        # two workers forked before the first one finished trip their
        # own breaker; the other four cells start with it open.
        code = main(
            [
                "fig7",
                "--requests", "100",
                "--jobs", "2",
                "--checkpoint-dir", str(tmp_path),
                "--checkpoint-every", "64",
                "--io-fault", "enospc@1x*,site=auto-checkpoint",
            ]
        )
        assert code == 0
        # File-descriptor capture: the notices are printed in the workers.
        notices = capfd.readouterr().err.count("disabled after")
        assert 1 <= notices <= 2
