"""The crash-tolerant campaign runner: retry, timeout, quarantine, resume."""

import json
import re
import time
from pathlib import Path

import pytest

from repro.common.errors import (
    CampaignError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TaskTimeoutError,
)
from repro.robustness.runner import (
    CampaignRunner,
    RetryPolicy,
    RunManifest,
    run_all_robust,
    sweep_seeds_robust,
)
from repro.sim.parallel import parallel_available
from repro.sim.sweeps import sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)
from sim_helpers import small_config


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.5, backoff_factor=3.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.5
        assert policy.delay(3) == 4.5

    def test_rejects_zero_attempts(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)


class TestRetryAndQuarantine:
    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient blip")
            return "ok"

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.1),
            sleep=sleeps.append,
        )
        result = runner.run([("flaky", flaky)])
        assert result.all_ok
        assert result.outcomes[0].attempts == 3
        assert sleeps == [0.1, 0.2]

    def test_transient_failure_exhausts_attempts(self, tmp_path):
        def always_down():
            raise OSError("still down")

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=2, backoff_base=0),
            sleep=lambda _s: None,
        )
        result = runner.run([("down", always_down)])
        assert not result.all_ok
        outcome = result.outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2
        assert outcome.error_type == "OSError"

    def test_model_errors_are_never_retried(self, tmp_path):
        attempts = []

        def deterministic():
            attempts.append(1)
            raise SimulationError("model violation — retrying cannot help")

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=5, backoff_base=0),
            transient_types=(OSError, ReproError),
            sleep=lambda _s: None,
        )
        result = runner.run([("det", deterministic)])
        assert len(attempts) == 1
        assert result.outcomes[0].status == "quarantined"

    def test_quarantine_does_not_stop_the_campaign(self, tmp_path):
        order = []

        def bad():
            order.append("bad")
            raise ValueError("boom")

        def good():
            order.append("good")
            return 42

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json", retry=RetryPolicy(max_attempts=1)
        )
        result = runner.run([("bad", bad), ("good", good)])
        assert order == ["bad", "good"]
        assert [o.status for o in result.outcomes] == ["quarantined", "done"]
        assert [o.name for o in result.quarantined] == ["bad"]
        assert not result.all_ok

    def test_duplicate_task_names_rejected(self):
        runner = CampaignRunner()
        with pytest.raises(ConfigurationError):
            runner.run([("a", lambda: 1), ("a", lambda: 2)])


class TestTimeout:
    def test_hung_task_is_quarantined_not_retried(self, tmp_path):
        attempts = []

        def hang():
            attempts.append(1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pass

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0),
        )
        started = time.monotonic()
        result = runner.run([("hang", hang), ("after", lambda: "ran")])
        assert time.monotonic() - started < 4.0
        assert len(attempts) == 1
        assert result.outcomes[0].status == "quarantined"
        assert result.outcomes[0].error_type == "TaskTimeoutError"
        assert result.outcomes[1].status == "done"

    def test_fast_task_unaffected_by_timeout(self, tmp_path):
        runner = CampaignRunner(manifest_path=tmp_path / "m.json", timeout=5.0)
        result = runner.run([("quick", lambda: "ok")])
        assert result.all_ok

    def test_timeout_error_is_a_campaign_error(self):
        assert issubclass(TaskTimeoutError, CampaignError)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(timeout=0)


class TestManifestAndResume:
    def test_manifest_written_after_every_task(self, tmp_path):
        path = tmp_path / "m.json"
        seen = []

        def spy():
            seen.append(RunManifest.load(path).tasks)
            return "ok"

        runner = CampaignRunner(manifest_path=path)
        runner.run([("first", lambda: 1), ("second", spy)])
        # By the time 'second' starts, 'first' is already checkpointed.
        assert seen[0]["first"]["status"] == "done"

    def test_resume_skips_done_tasks(self, tmp_path):
        path = tmp_path / "m.json"
        runs = []
        tasks = [
            ("a", lambda: runs.append("a") or "a"),
            ("b", lambda: runs.append("b") or "b"),
        ]
        CampaignRunner(manifest_path=path).run(tasks)
        result = CampaignRunner(manifest_path=path).run(tasks)
        assert runs == ["a", "b"]
        assert [o.status for o in result.outcomes] == ["skipped", "skipped"]
        assert result.all_ok

    def test_no_resume_reruns_everything(self, tmp_path):
        path = tmp_path / "m.json"
        runs = []
        tasks = [("a", lambda: runs.append("a"))]
        CampaignRunner(manifest_path=path).run(tasks)
        CampaignRunner(manifest_path=path).run(tasks, resume=False)
        assert runs == ["a", "a"]

    def test_quarantined_tasks_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "m.json"
        state = {"fixed": False}

        def sometimes():
            if not state["fixed"]:
                raise ValueError("broken this run")
            return "ok"

        runner = CampaignRunner(
            manifest_path=path, retry=RetryPolicy(max_attempts=1)
        )
        first = runner.run([("flappy", sometimes)])
        assert not first.all_ok
        state["fixed"] = True
        second = CampaignRunner(
            manifest_path=path, retry=RetryPolicy(max_attempts=1)
        ).run([("flappy", sometimes)])
        assert second.all_ok
        assert second.outcomes[0].status == "done"

    def test_malformed_manifest_is_a_campaign_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all {")
        with pytest.raises(CampaignError, match="unreadable"):
            RunManifest.load(path)

    def test_wrong_version_is_a_campaign_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 999, "tasks": {}}))
        with pytest.raises(CampaignError, match="version"):
            RunManifest.load(path)

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        """The acceptance criterion: kill mid-campaign, resume, compare."""

        def make_tasks(kill_on_c):
            state = {"killed": False}

            def c():
                if kill_on_c and not state["killed"]:
                    state["killed"] = True
                    raise KeyboardInterrupt
                return {"passed": True, "checks": {"c-ok": True}}

            return [
                ("a", lambda: {"passed": True, "checks": {"a-ok": True}}),
                ("b", lambda: {"passed": False, "checks": {"b-ok": False}}),
                ("c", c),
                ("d", lambda: {"passed": True, "checks": {"d-ok": True}}),
            ]

        def payload(result):
            if isinstance(result, dict) and "checks" in result:
                return {"passed": result["passed"], "checks": result["checks"]}
            return None

        # Uninterrupted reference run.
        ref_path = tmp_path / "ref.json"
        CampaignRunner(
            manifest_path=ref_path,
            retry=RetryPolicy(max_attempts=1),
            payload_of=payload,
        ).run(make_tasks(kill_on_c=False))

        # Killed at task 'c', then resumed to completion.
        path = tmp_path / "m.json"
        tasks = make_tasks(kill_on_c=True)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                manifest_path=path,
                retry=RetryPolicy(max_attempts=1),
                payload_of=payload,
            ).run(tasks)
        partial = RunManifest.load(path)
        assert partial.is_done("a")
        assert "c" not in partial.tasks or not partial.is_done("c")

        resumed = CampaignRunner(
            manifest_path=path,
            retry=RetryPolicy(max_attempts=1),
            payload_of=payload,
        ).run(tasks)
        # 'b' completed before the kill (its checks failing is a result,
        # not a crash), so only 'c' and 'd' actually run on resume.
        assert [o.status for o in resumed.outcomes] == [
            "skipped",
            "skipped",
            "done",
            "done",
        ]
        assert (
            RunManifest.load(path).results()
            == RunManifest.load(ref_path).results()
        )


class TestSerialInterrupt:
    def test_interrupt_during_retry_backoff_compacts_the_manifest(
        self, tmp_path
    ):
        def down():
            raise OSError("transient blip")

        def interrupted_sleep(_seconds):
            raise KeyboardInterrupt

        path = tmp_path / "m.json"
        runner = CampaignRunner(
            manifest_path=path,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.1),
            sleep=interrupted_sleep,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run([("a", lambda: "ok"), ("b", down)])
        # Ctrl-C in b's backoff still compacts: the snapshot holds a and
        # no journal is left behind.
        assert not path.with_name("m.json.journal").exists()
        tasks = json.loads(path.read_text())["tasks"]
        assert list(tasks) == ["a"]
        assert tasks["a"]["status"] == "done"


class TestSettleParity:
    """Inline and pool results settle into the same manifest entries."""

    KEYS = ["status", "attempts", "elapsed_seconds", "error", "error_type",
            "payload"]
    EXPECTED = {
        "done": {
            "status": "done", "attempts": 1, "error": None,
            "error_type": None, "payload": {"value": 7},
        },
        "model-error": {
            "status": "quarantined", "attempts": 1, "error": "deterministic",
            "error_type": "SimulationError", "payload": None,
        },
        "recovers": {
            "status": "done", "attempts": 2, "error": None,
            "error_type": None, "payload": {"value": "recovered"},
        },
        "exhausts": {
            "status": "quarantined", "attempts": 2, "error": "still down",
            "error_type": "OSError", "payload": None,
        },
    }

    @pytest.mark.parametrize(
        "jobs",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.skipif(
                    not parallel_available(), reason="needs fork"
                ),
            ),
        ],
    )
    def test_entries_match_across_jobs(self, tmp_path, jobs):
        # Each pool attempt is a fresh fork, so the first failure of
        # "recovers" is remembered on disk.
        marker = tmp_path / "failed-once"

        def recovers():
            if not marker.exists():
                marker.touch()
                raise OSError("transient blip")
            return "recovered"

        def model_error():
            raise SimulationError("deterministic")

        def exhausts():
            raise OSError("still down")

        path = tmp_path / "m.json"
        CampaignRunner(
            manifest_path=path,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            jobs=jobs,
            sleep=lambda _s: None,
        ).run(
            [
                ("done", lambda: 7),
                ("model-error", model_error),
                ("recovers", recovers),
                ("exhausts", exhausts),
            ]
        )
        entries = json.loads(path.read_text())["tasks"]
        assert {name: list(entry) for name, entry in entries.items()} == {
            name: self.KEYS for name in self.EXPECTED
        }
        assert {
            name: {k: v for k, v in entry.items() if k != "elapsed_seconds"}
            for name, entry in entries.items()
        } == self.EXPECTED


class TestManifestDurability:
    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run([("a", lambda: 1)])
        assert path.exists()
        assert not (tmp_path / "m.json.tmp").exists()

    def test_load_removes_stale_tmp_leftover(self, tmp_path):
        path = tmp_path / "m.json"
        stale = tmp_path / "m.json.tmp"
        stale.write_text("torn half-write from a crashed checkpoint")
        manifest = RunManifest.load(path)
        assert not stale.exists()
        assert manifest.tasks == {}

    def test_load_removes_stale_tmp_next_to_real_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run([("a", lambda: 1)])
        stale = tmp_path / "m.json.tmp"
        stale.write_text("torn")
        manifest = RunManifest.load(path)
        assert not stale.exists()
        assert manifest.is_done("a")


def _normalised(path):
    """Manifest bytes with the run-dependent timings zeroed."""
    return re.sub(
        rb'"elapsed_seconds": [0-9.e+-]+', b'"elapsed_seconds": 0', path.read_bytes()
    )


def _entry(value):
    return {"status": "done", "attempts": 1, "payload": {"value": value}}


class TestManifestJournal:
    """Snapshot + append-only journal: crash consistency of the manifest."""

    TASKS = [(name, lambda name=name: {"value": name}) for name in "abcd"]

    def test_record_appends_one_line_and_save_compacts(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        manifest.record("b", _entry(2))
        manifest.record("a", _entry(1))
        assert not path.exists()
        lines = manifest.journal.read_text().splitlines()
        assert [json.loads(line)[0] for line in lines] == ["b", "a"]
        manifest.save()
        assert not manifest.journal.exists()
        assert list(json.loads(path.read_text())["tasks"]) == ["a", "b"]
        assert RunManifest.load(path).tasks == manifest.tasks

    def test_last_record_of_a_name_wins(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        manifest.record("a", {"status": "quarantined", "payload": None})
        manifest.record("a", _entry(1))
        assert RunManifest.load(path).is_done("a")

    @pytest.mark.parametrize(
        "tail", [b'["c",{"status":"do', b"not json\n"], ids=["torn", "garbled"]
    )
    def test_bad_final_line_is_ignored_and_its_task_reruns(self, tmp_path, tail):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        manifest.record("a", _entry("a"))
        manifest.record("b", _entry("b"))
        with open(manifest.journal, "ab") as handle:
            handle.write(tail)
        loaded = RunManifest.load(path)
        assert sorted(loaded.tasks) == ["a", "b"]
        # load() is read-only: the torn tail is still there.
        assert manifest.journal.read_bytes().endswith(tail)

        runs = []
        tasks = [
            (name, lambda name=name: runs.append(name) or {"value": name})
            for name in "abc"
        ]
        result = CampaignRunner(manifest_path=path).run(tasks)
        assert runs == ["c"]
        assert [o.status for o in result.outcomes] == ["skipped", "skipped", "done"]
        assert not manifest.journal.exists()
        assert sorted(RunManifest.load(path).tasks) == ["a", "b", "c"]

    def test_corrupt_interior_line_is_a_campaign_error(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        for name in "abc":
            manifest.record(name, _entry(name))
        lines = manifest.journal.read_bytes().split(b"\n")
        lines[1] = b'{"b": "not a record"}'
        manifest.journal.write_bytes(b"\n".join(lines))
        with pytest.raises(CampaignError, match="line 2 is corrupt"):
            RunManifest.load(path)

    def test_crash_between_snapshot_and_journal_unlink_replays_idempotently(
        self, tmp_path, monkeypatch
    ):
        class Crash(BaseException):
            pass

        def crash(self, missing_ok=False):
            raise Crash

        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        manifest.record("a", {"status": "quarantined", "payload": None})
        manifest.record("b", _entry("b"))
        manifest.record("a", _entry("a"))
        monkeypatch.setattr(Path, "unlink", crash)
        with pytest.raises(Crash):
            manifest.save()
        monkeypatch.undo()
        snapshot = path.read_bytes()
        assert manifest.journal.exists()
        assert RunManifest.load(path).tasks == manifest.tasks

        runs = []
        tasks = [
            (name, lambda name=name: runs.append(name) or {"value": name})
            for name in "ab"
        ]
        result = CampaignRunner(manifest_path=path).run(tasks)
        assert runs == []
        assert [o.status for o in result.outcomes] == ["skipped", "skipped"]
        assert not manifest.journal.exists()
        assert path.read_bytes() == snapshot

    def test_short_write_on_append_falls_back_to_compaction(self, tmp_path):
        from repro.common.context import run_context
        from repro.common.fileio import io_metrics
        from repro.robustness.iofault import IoFaultKind, IoFaultPlan, IoFaultSpec

        ref = tmp_path / "ref.json"
        CampaignRunner(manifest_path=ref).run(self.TASKS)

        path = tmp_path / "m.json"
        seen = []

        def spy():
            seen.append((path.exists(), path.with_name("m.json.journal").exists()))
            return {"value": "c"}

        tasks = list(self.TASKS)
        tasks[2] = ("c", spy)
        faults = io_metrics().counter("io.fault.manifest")
        before = faults.value
        # The second manifest write is task b's journal append.
        spec = IoFaultSpec(
            kind=IoFaultKind.SHORT_WRITE, nth=2, count=1, site="manifest"
        )
        plan = IoFaultPlan([spec])
        with run_context(io_hook=plan):
            CampaignRunner(manifest_path=path).run(tasks)
        assert plan.fired_count == 1
        assert io_metrics().counter("io.fault.manifest").value == before + 1
        # By the time c ran, b's torn append had been compacted away.
        assert seen == [(True, False)]
        assert not path.with_name("m.json.journal").exists()
        assert _normalised(path) == _normalised(ref)

    def test_serial_and_parallel_compact_to_equal_results(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        CampaignRunner(manifest_path=serial).run(self.TASKS)
        CampaignRunner(manifest_path=parallel, jobs=2).run(self.TASKS)
        assert not (tmp_path / "parallel.json.journal").exists()
        assert (
            RunManifest.load(parallel).results()
            == RunManifest.load(serial).results()
        )
        assert _normalised(parallel) == _normalised(serial)

    def test_completed_manifest_keeps_the_snapshot_format(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run(list(reversed(self.TASKS)))
        text = path.read_text()
        data = json.loads(text)
        assert json.dumps(data, indent=2) + "\n" == text
        assert data["version"] == 1
        assert list(data["tasks"]) == ["a", "b", "c", "d"]

    def test_fresh_run_does_not_journal_over_an_older_campaign(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run(self.TASKS[:2])
        seen = []

        def spy():
            seen.append(sorted(RunManifest.load(path).tasks))
            return "ok"

        CampaignRunner(manifest_path=path).run(
            [("c", lambda: 1), ("d", spy)], resume=False
        )
        assert seen == [["c"]]
        assert sorted(RunManifest.load(path).tasks) == ["c", "d"]

    def test_campaign_without_manifest_touches_no_file(
        self, tmp_path, monkeypatch
    ):
        from repro.robustness.iofault import record_io_operations

        monkeypatch.chdir(tmp_path)
        with record_io_operations() as recorder:
            result = CampaignRunner().run(self.TASKS)
        assert result.manifest.path is None
        assert sorted(result.manifest.tasks) == ["a", "b", "c", "d"]
        assert recorder.operations == []
        assert list(tmp_path.iterdir()) == []


class TestTimeoutUnenforceable:
    def test_off_main_thread_warns_once_and_flags_entries(self, tmp_path):
        import threading
        import warnings

        path = tmp_path / "m.json"
        captured = []

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runner = CampaignRunner(manifest_path=path, timeout=5.0)
                runner.run([("a", lambda: 1), ("b", lambda: 2)])
                captured.extend(caught)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        loud = [w for w in captured if issubclass(w.category, RuntimeWarning)]
        # One loud warning per runner, not one per task.
        assert len(loud) == 1
        assert "cannot be enforced" in str(loud[0].message)
        manifest = RunManifest.load(path)
        assert manifest.tasks["a"]["timeout_enforced"] is False
        assert manifest.tasks["b"]["timeout_enforced"] is False
        # The tasks still ran (untimed) to completion.
        assert manifest.is_done("a") and manifest.is_done("b")

    def test_main_thread_entries_carry_no_flag(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path, timeout=5.0).run([("a", lambda: 1)])
        assert "timeout_enforced" not in RunManifest.load(path).tasks["a"]

    def test_no_timeout_means_no_warning_off_main_thread(self, tmp_path):
        import threading
        import warnings

        captured = []

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                CampaignRunner(manifest_path=tmp_path / "m.json").run(
                    [("a", lambda: 1)]
                )
                captured.extend(caught)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert not [
            w for w in captured if issubclass(w.category, RuntimeWarning)
        ]


class TestParallelKeyboardInterrupt:
    def test_parallel_interrupt_saves_manifest_and_resumes(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import parallel as parallel_mod
        from repro.sim.parallel import PoolResult

        tasks = [(f"t{i}", lambda i=i: {"value": i}) for i in range(4)]
        ref_path = tmp_path / "ref.json"
        CampaignRunner(manifest_path=ref_path).run(tasks)

        # A pool that delivers one completion, then takes the interrupt
        # in the parent (workers never propagate KeyboardInterrupt —
        # the pool ships it back as a quarantined error instead).
        def interrupted_run(self, pool_tasks, on_result):
            name, thunk = pool_tasks[0]
            on_result(
                PoolResult(
                    index=0,
                    name=name,
                    status="done",
                    value=thunk(),
                    attempts=1,
                    elapsed_seconds=0.0,
                )
            )
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_mod, "parallel_available", lambda: True)
        monkeypatch.setattr(parallel_mod.TaskPool, "run", interrupted_run)
        path = tmp_path / "m.json"
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(manifest_path=path, jobs=2).run(tasks)

        # The manifest is loadable and holds exactly the finished task.
        partial = RunManifest.load(path)
        assert partial.is_done("t0")
        assert not partial.is_done("t3")

        # Resuming (serially, to keep the pool out of it) completes the
        # campaign with results identical to the uninterrupted run.
        monkeypatch.undo()
        resumed = CampaignRunner(manifest_path=path).run(tasks)
        assert [o.status for o in resumed.outcomes] == [
            "skipped",
            "done",
            "done",
            "done",
        ]
        assert (
            RunManifest.load(path).results()
            == RunManifest.load(ref_path).results()
        )


class TestRobustSweep:
    CONFIG = small_config(num_cores=2)

    @staticmethod
    def trace_factory(seed):
        workload = SyntheticWorkloadConfig(
            num_requests=20, address_range_size=512, seed=seed
        )
        return generate_disjoint_workload(workload, [0, 1])

    def test_matches_plain_sweep_when_healthy(self):
        seeds = [1, 2, 3]
        plain = sweep_seeds(self.CONFIG, self.trace_factory, seeds)
        robust = sweep_seeds_robust(self.CONFIG, self.trace_factory, seeds)
        assert robust.complete
        assert robust.result.seeds == plain.seeds
        assert robust.result.observed_wcls == plain.observed_wcls
        assert robust.result.makespans == plain.makespans

    def test_failing_seed_is_quarantined_not_fatal(self):
        def check(report):
            # Seed-independent state makes seed 2 fail deterministically.
            assert report.makespan != report.makespan or True

        def picky_check(report):
            raise AssertionError("bound violated")

        def selective_factory(seed):
            if seed == 2:
                raise SimulationError("seed 2 workload is broken")
            return self.trace_factory(seed)

        robust = sweep_seeds_robust(
            self.CONFIG, selective_factory, [1, 2, 3]
        )
        assert robust.quarantined_seeds == (2,)
        assert robust.completed_seeds == (1, 3)
        assert not robust.complete
        assert robust.result is not None
        assert len(robust.result.observed_wcls) == 2

    def test_all_seeds_failing_yields_no_result(self):
        def bad_factory(seed):
            raise SimulationError("nothing works")

        robust = sweep_seeds_robust(self.CONFIG, bad_factory, [1, 2])
        assert robust.result is None
        assert robust.quarantined_seeds == (1, 2)


class TestRunAllRobust:
    @staticmethod
    def fake_steps(num_requests=300, tightness_repeats=25, **kwargs):
        class FakeArtifact:
            def __init__(self, name, passed):
                self.name = name
                self.table = f"table of {name}"
                self.checks = {"ok": passed}
                self.passed = passed

        return [
            ("alpha", lambda: FakeArtifact("alpha", True)),
            ("beta", lambda: FakeArtifact("beta", False)),
        ]

    def test_writes_artifacts_manifest_and_summary(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        out = tmp_path / "results"
        result = run_all_robust(out_dir=out)
        assert (out / "alpha.txt").read_text() == "table of alpha\n"
        assert (out / "manifest.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"alpha": {"ok": True}, "beta": {"ok": False}}
        assert "PASS  alpha" in (out / "SUMMARY.txt").read_text()
        assert "FAIL  beta" in (out / "SUMMARY.txt").read_text()
        # beta completed but its checks failed: the campaign is not ok.
        assert not result.quarantined
        assert not result.all_ok

    def test_cli_all_exit_codes(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.runner as runner_mod
        from repro.cli import main

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        # A failing artifact check → non-zero.
        assert main(["all", "--out", str(tmp_path / "r1")]) == 1

        def green_steps(num_requests=300, tightness_repeats=25, **kwargs):
            return [self.fake_steps()[0]]

        monkeypatch.setattr(runner_mod, "artifact_steps", green_steps)
        assert main(["all", "--out", str(tmp_path / "r2")]) == 0

        def crashing_steps(num_requests=300, tightness_repeats=25, **kwargs):
            def crash():
                raise RuntimeError("artifact exploded")

            return [("boom", crash)]

        # A quarantined artifact → non-zero, with an error on stderr.
        monkeypatch.setattr(runner_mod, "artifact_steps", crashing_steps)
        assert main(["all", "--out", str(tmp_path / "r3")]) == 1
        assert "quarantined" in capsys.readouterr().err

    def test_cli_all_resume_skips_done_artifacts(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.cli import main

        calls = []

        def counting_steps(num_requests=300, tightness_repeats=25, **kwargs):
            class FakeArtifact:
                name = "alpha"
                table = "t"
                checks = {"ok": True}
                passed = True

            def build():
                calls.append(1)
                return FakeArtifact()

            return [("alpha", build)]

        monkeypatch.setattr(runner_mod, "artifact_steps", counting_steps)
        out = str(tmp_path / "r")
        assert main(["all", "--out", out]) == 0
        assert main(["all", "--out", out]) == 0
        assert len(calls) == 1  # second invocation resumed
        assert main(["all", "--out", out, "--no-resume"]) == 0
        assert len(calls) == 2
