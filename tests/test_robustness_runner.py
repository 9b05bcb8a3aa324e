"""The crash-tolerant campaign runner: retry, timeout, quarantine, resume."""

import json
import re
import time
from functools import partial
from pathlib import Path

import pytest

from repro.common.context import RetryPolicy
from repro.common.errors import (
    CampaignError,
    ConfigurationError,
    SimulationError,
    TaskTimeoutError,
)
from repro.robustness.runner import (
    MANIFEST_KIND,
    MANIFEST_VERSION,
    CampaignRunner,
    RunManifest,
    run_all_robust,
)
from repro.sim.codec import seal, unseal
from repro.sim.parallel import parallel_available
from repro.sim.sweeps import run_seed, sweep_seeds
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
        # The task runs in a worker process, so it counts its attempts
        # in a file the parent can read.
        attempts = tmp_path / "attempts"

        def hang():
            with open(attempts, "a") as handle:
                handle.write("x")
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
        assert attempts.read_text() == "x"
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
        path.write_text(seal({"kind": MANIFEST_KIND, "version": 999, "tasks": {}}))
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
        tasks = RunManifest.load(path).tasks
        assert list(tasks) == ["a"]
        assert tasks["a"]["status"] == "done"


class TestSettleParity:
    """Inline and pool results settle into the same manifest entries."""

    # The sealed manifest holds every entry's keys in sorted order.
    KEYS = ["attempts", "elapsed_seconds", "error", "error_type", "payload",
            "status"]
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
        entries = RunManifest.load(path).tasks
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
    """Manifest bytes with the run-dependent timings, and the integrity
    digest that covers them, blanked."""
    data = re.sub(
        rb'"elapsed_seconds":[0-9.e+-]+', b'"elapsed_seconds":0', path.read_bytes()
    )
    return re.sub(rb'"integrity":"[0-9a-f]+"', b'"integrity":""', data)


def _journal_names(journal):
    """The task names of each journal line, in append order."""
    return [
        list(unseal(line, journal, MANIFEST_KIND, MANIFEST_VERSION)["tasks"])
        for line in journal.read_text().splitlines()
    ]


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
        assert _journal_names(manifest.journal) == [["b"], ["a"]]
        manifest.save()
        assert not manifest.journal.exists()
        assert list(RunManifest.load(path).tasks) == ["a", "b"]
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
        data = unseal(text, path, MANIFEST_KIND, MANIFEST_VERSION)
        # One sealed line: canonical JSON under its integrity digest.
        assert seal(data) == text
        assert text.count("\n") == 1
        assert (data["kind"], data["version"]) == ("repro-run-manifest", 2)
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


def _corrupt_read(seed):
    """A plan that corrupts the first manifest read: a seeded choice of
    one byte XOR 0xFF at a seeded offset, or a cut to half length."""
    from repro.robustness.iofault import IoFaultPlan, IoFaultSpec

    return IoFaultPlan([IoFaultSpec.parse("corrupt-read@1,site=manifest")], seed)


def _flip_value_bit(data):
    """Flip the low bit of the digit in ``"value":2``: the JSON stays
    valid and now says 3."""
    at = re.search(rb'"value": ?(2)', data).start(1)
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


class TestSealedManifest:
    """Snapshot and journal lines are sealed: corruption is refused."""

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupt_snapshot_read_is_a_campaign_error(self, tmp_path, seed):
        from repro.common.context import run_context

        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        for name in "abcd":
            manifest.record(name, _entry(name))
        manifest.save()
        with run_context(io_hook=_corrupt_read(seed)):
            with pytest.raises(CampaignError, match="is unreadable"):
                RunManifest.load(path)

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupt_journal_read_never_yields_an_altered_entry(
        self, tmp_path, seed
    ):
        from repro.common.context import run_context
        from repro.common.fileio import read_bytes

        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        # Twenty records keep every seeded flip off the final line, which
        # the torn-tail rule skips like a torn append.
        names = [f"t{index:02d}" for index in range(20)]
        for name in names:
            manifest.record(name, _entry(name))
        with run_context(io_hook=_corrupt_read(seed)):
            seen = read_bytes(manifest.journal, site="manifest")
        with run_context(io_hook=_corrupt_read(seed)):
            if len(seen) == len(manifest.journal.read_bytes()):
                with pytest.raises(CampaignError, match="is corrupt"):
                    RunManifest.load(path)
                return
            # A read cut short is indistinguishable from a torn append:
            # a prefix of the records loads, every entry unaltered.
            loaded = RunManifest.load(path)
        kept = list(loaded.tasks)
        assert kept == names[: len(kept)] and len(kept) < len(names)
        assert loaded.tasks == {name: manifest.tasks[name] for name in kept}

    def test_one_bit_flip_in_the_snapshot_is_refused(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        manifest.record("a", _entry(2))
        manifest.save()
        path.write_bytes(_flip_value_bit(path.read_bytes()))
        with pytest.raises(CampaignError, match="integrity check"):
            RunManifest.load(path)

    def test_one_bit_flip_in_an_interior_journal_line_is_refused(
        self, tmp_path
    ):
        path = tmp_path / "m.json"
        manifest = RunManifest(path)
        for name, value in (("a", 1), ("b", 2), ("c", 3)):
            manifest.record(name, _entry(value))
        journal = manifest.journal
        journal.write_bytes(_flip_value_bit(journal.read_bytes()))
        with pytest.raises(CampaignError, match="line 2 is corrupt"):
            RunManifest.load(path)

    def test_v1_manifest_is_refused_and_no_resume_overwrites_it(
        self, tmp_path
    ):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"version": 1, "tasks": {"a": _entry(1)}}, indent=2)
            + "\n"
        )
        with pytest.raises(CampaignError, match="delete the manifest"):
            RunManifest.load(path)
        with pytest.raises(CampaignError, match="--no-resume"):
            CampaignRunner(manifest_path=path).run([("a", lambda: 1)])
        CampaignRunner(manifest_path=path).run([("a", lambda: 1)], resume=False)
        assert RunManifest.load(path).tasks["a"]["payload"] == {"value": 1}

    @pytest.mark.parametrize("persisted", [True, False], ids=["disk", "memory"])
    def test_record_holds_the_entry_load_decodes(self, tmp_path, persisted):
        path = tmp_path / "m.json"
        manifest = RunManifest(path if persisted else None)
        entry = {"status": "done", "payload": {"z": (1, 2), "a": {3: "x"}}}
        manifest.record("a", entry)
        decoded = {"payload": {"a": {"3": "x"}, "z": [1, 2]}, "status": "done"}
        assert manifest.tasks == {"a": decoded}
        assert list(manifest.tasks["a"]) == ["payload", "status"]
        if persisted:
            assert RunManifest.load(path).tasks == manifest.tasks


class TestTimeoutEverywhere:
    """A timeout always runs tasks in a worker the parent can kill, so it
    holds at ``jobs=1`` and off the main thread."""

    def test_busy_task_off_main_thread_is_quarantined(self, tmp_path):
        import threading

        def busy():
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                pass
            return "finished"

        results = []

        def work():
            runner = CampaignRunner(
                manifest_path=tmp_path / "m.json", timeout=0.3
            )
            started = time.monotonic()
            result = runner.run([("busy", busy)])
            results.append((result, time.monotonic() - started))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        result, elapsed = results[0]
        assert result.outcomes[0].status == "quarantined"
        assert result.outcomes[0].error_type == "TaskTimeoutError"
        assert elapsed < 2.5, "the worker must be killed within its budget"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timed_out_task_signature_is_durable(self, tmp_path, jobs):
        manifest_path = tmp_path / "manifest.json"
        runner = CampaignRunner(
            manifest_path=manifest_path, jobs=jobs, timeout=0.5
        )
        result = runner.run(
            [("stuck", partial(time.sleep, 30)), ("fine", lambda: "ok")]
        )
        by_name = {o.name: o for o in result.outcomes}
        assert by_name["fine"].status == "done"
        assert by_name["stuck"].status == "quarantined"
        assert by_name["stuck"].error_type == "TaskTimeoutError"

        # A resumed campaign sees the quarantine signature.
        entry = RunManifest.load(manifest_path).entry("stuck")
        assert entry["status"] == "quarantined"
        assert entry["error_type"] == "TaskTimeoutError"

    def test_bounded_campaign_needs_fork(self, monkeypatch):
        from repro.robustness import runner as runner_mod

        monkeypatch.setattr(runner_mod, "parallel_available", lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            CampaignRunner(timeout=5.0)
        CampaignRunner(jobs=2)  # an untimed campaign still runs serially


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
    """A seed sweep as a campaign: one ``run_seed`` task per seed."""

    CONFIG = small_config(num_cores=2)

    @staticmethod
    def trace_factory(seed):
        workload = SyntheticWorkloadConfig(
            num_requests=20, address_range_size=512, seed=seed
        )
        return generate_disjoint_workload(workload, [0, 1])

    def sweep(self, factory, seeds):
        tasks = [
            (f"seed-{seed}", partial(run_seed, self.CONFIG, factory, seed))
            for seed in seeds
        ]
        return CampaignRunner().run(tasks)

    def test_matches_plain_sweep_when_healthy(self):
        seeds = [1, 2, 3]
        plain = sweep_seeds(self.CONFIG, self.trace_factory, seeds)
        robust = self.sweep(self.trace_factory, seeds)
        assert [o.status for o in robust.outcomes] == ["done"] * 3
        reports = [o.result for o in robust.outcomes]
        assert tuple(r.observed_wcl() for r in reports) == plain.observed_wcls
        assert tuple(r.makespan for r in reports) == plain.makespans

    def test_failing_seed_is_quarantined_not_fatal(self):
        def selective_factory(seed):
            if seed == 2:
                raise SimulationError("seed 2 workload is broken")
            return self.trace_factory(seed)

        robust = self.sweep(selective_factory, [1, 2, 3])
        assert [o.name for o in robust.quarantined] == ["seed-2"]
        assert [o.status for o in robust.outcomes] == [
            "done",
            "quarantined",
            "done",
        ]
        bad = robust.outcomes[1]
        assert bad.error_type == "SimulationError"
        assert "seed 2 workload is broken" in bad.error
        assert robust.manifest.tasks["seed-2"]["status"] == "quarantined"

    def test_all_seeds_failing_yields_no_result(self):
        def bad_factory(seed):
            raise SimulationError("nothing works")

        robust = self.sweep(bad_factory, [1, 2])
        assert [o.name for o in robust.quarantined] == ["seed-1", "seed-2"]
        assert all(o.result is None for o in robust.outcomes)
        assert not robust.all_ok


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

    def test_failed_checks_print_fail_not_pass(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        lines = []
        result = run_all_robust(out_dir=tmp_path / "results", progress=lines.append)
        # The progress lines, the printed summary and SUMMARY.txt agree:
        # a done artifact whose checks failed is FAIL.
        assert lines == ["alpha: PASS", "beta: FAIL"]
        assert result.summary().splitlines() == [
            "PASS        alpha",
            "FAIL        beta",
        ]

    def test_interval_without_checkpoint_dir_is_refused(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        with pytest.raises(ConfigurationError, match="needs a checkpoint_dir"):
            run_all_robust(out_dir=tmp_path / "results", checkpoint_every=64)
        assert not (tmp_path / "results").exists()

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
