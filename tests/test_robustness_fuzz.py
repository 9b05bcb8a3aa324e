"""Fuzz campaigns: generator determinism, resume, chaos accounting, CLI."""

import json
import time

import pytest

from repro.cli import main
from repro.common.errors import FuzzError
from repro.obs.metrics import MetricsRegistry
from repro.robustness import fuzz as fuzz_mod
from repro.robustness.fuzz import (
    FuzzCase,
    generate_cases,
    run_fuzz,
    run_fuzz_case,
)
from repro.sim.parallel import parallel_available


class TestGenerator:
    def test_same_seed_same_cases(self):
        first = [case.to_dict() for case in generate_cases(25, 7)]
        second = [case.to_dict() for case in generate_cases(25, 7)]
        assert first == second

    def test_different_seed_differs(self):
        first = [case.to_dict() for case in generate_cases(25, 7)]
        second = [case.to_dict() for case in generate_cases(25, 8)]
        assert first != second

    def test_boundary_regions_are_covered(self):
        cases = generate_cases(80, 3)
        assert any(
            len(part["sets"]) == 1
            for case in cases
            for part in case.config["partitions"]
        )
        assert any(case.config["num_cores"] == 1 for case in cases)
        assert any(case.config["schedule_order"] for case in cases)
        assert any(
            part["sequencer"]
            for case in cases
            for part in case.config["partitions"]
        )

    def test_chaos_rate_zero_injects_nothing(self):
        assert all(case.fault is None for case in generate_cases(30, 0))

    def test_case_round_trips_through_json(self):
        case = generate_cases(3, 5)[2]
        assert FuzzCase.from_dict(json.loads(json.dumps(case.to_dict()))) == case

    def test_unknown_case_version_rejected(self):
        data = generate_cases(1, 5)[0].to_dict()
        data["case_version"] = 99
        with pytest.raises(FuzzError, match="version"):
            FuzzCase.from_dict(data)

    def test_budget_must_be_positive(self):
        with pytest.raises(FuzzError, match="budget"):
            generate_cases(0, 1)


class TestCampaign:
    def test_clean_engine_finds_nothing(self, tmp_path):
        out = tmp_path / "out"
        report = run_fuzz(budget=25, seed=0, out_dir=out)
        assert report.ok
        assert len(report.cases) == 25
        assert report.failures == []
        data = json.loads((out / "fuzz-report.json").read_text())
        assert data["summary"]["ok"]
        assert data["summary"]["cases"] == 25

    @pytest.mark.skipif(
        not parallel_available(), reason="fork pool unavailable"
    )
    def test_jobs_are_bit_identical(self, tmp_path):
        run_fuzz(budget=16, seed=4, out_dir=tmp_path / "j1", jobs=1)
        run_fuzz(budget=16, seed=4, out_dir=tmp_path / "j3", jobs=3)
        assert (tmp_path / "j1" / "fuzz-report.json").read_bytes() == (
            tmp_path / "j3" / "fuzz-report.json"
        ).read_bytes()

    def test_interrupted_campaign_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        ref = run_fuzz(budget=10, seed=2, out_dir=tmp_path / "ref")
        real = fuzz_mod.run_fuzz_case
        calls = {"n": 0}

        def interrupted(case):
            calls["n"] += 1
            if calls["n"] == 6:
                raise KeyboardInterrupt
            return real(case)

        monkeypatch.setattr(fuzz_mod, "run_fuzz_case", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_fuzz(budget=10, seed=2, out_dir=out)
        monkeypatch.setattr(fuzz_mod, "run_fuzz_case", real)
        resumed = run_fuzz(budget=10, seed=2, out_dir=out)
        assert resumed.to_dict() == ref.to_dict()
        assert (out / "fuzz-report.json").read_bytes() == (
            tmp_path / "ref" / "fuzz-report.json"
        ).read_bytes()

    def test_chaos_faults_are_all_detected(self):
        report = run_fuzz(budget=40, seed=1, fault_rate=0.6)
        assert report.chaos_detected > 0
        assert report.chaos_missed == []
        assert report.ok

    def test_quarantined_case_counts_as_failure(self, tmp_path, monkeypatch):
        real = fuzz_mod.run_fuzz_case

        def exploding(case):
            if case.case_id == "case-00003":
                raise RuntimeError("harness exploded")
            return real(case)

        monkeypatch.setattr(fuzz_mod, "run_fuzz_case", exploding)
        report = run_fuzz(
            budget=6, seed=0, out_dir=tmp_path / "o", shrink_failures=False
        )
        assert not report.ok
        assert report.cases[3]["signature"] == "quarantined:RuntimeError"
        assert [case["case_id"] for case in report.failures] == ["case-00003"]

    def test_metrics_are_recorded(self):
        registry = MetricsRegistry()
        report = run_fuzz(budget=8, seed=0, registry=registry)
        passed = registry.counter("fuzz_cases_total", status="passed")
        assert passed.value == len(report.cases) == 8

    def test_failing_case_is_shrunk_to_an_artifact(self, tmp_path, monkeypatch):
        import dataclasses

        import repro.robustness.shrink as shrink_mod

        real = fuzz_mod.run_fuzz_case

        def buggy(case):
            # Simulate a deterministic engine bug that any case where
            # core 0 issues at least one request trips over.
            result = real(case)
            if case.traces.get(0):
                return dataclasses.replace(
                    result, passed=False, signature="oracle:slot-accounting"
                )
            return result

        monkeypatch.setattr(fuzz_mod, "run_fuzz_case", buggy)
        monkeypatch.setattr(shrink_mod, "run_fuzz_case", buggy)
        out = tmp_path / "out"
        report = run_fuzz(budget=4, seed=0, out_dir=out)
        assert not report.ok
        assert report.artifacts
        for name in report.artifacts:
            artifact = json.loads((out / name).read_text())
            assert artifact["failure"]["signature"] == "oracle:slot-accounting"
            assert artifact["shrink"]["requests"] <= 8


class TestCli:
    def test_fuzz_cli_green_campaign(self, tmp_path, capsys):
        out = tmp_path / "o"
        status = main(
            ["fuzz", "--budget", "10", "--seed", "0", "--out", str(out)]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "0 failure(s)" in printed
        assert (out / "fuzz-report.json").exists()
        assert (out / "fuzz-manifest.json").exists()

    def test_fuzz_cli_chaos_campaign(self, capsys):
        assert main(
            ["fuzz", "--budget", "20", "--seed", "1", "--chaos", "0.5"]
        ) == 0
        assert "chaos:" in capsys.readouterr().out

    def test_fuzz_cli_exports_metrics(self, tmp_path):
        metrics = tmp_path / "fuzz.csv"
        status = main(
            ["fuzz", "--budget", "5", "--seed", "0",
             "--metrics", str(metrics)]
        )
        assert status == 0
        assert "fuzz_cases_total" in metrics.read_text()

    @pytest.mark.skipif(
        not parallel_available(), reason="fork start method unavailable"
    )
    def test_fuzz_metrics_export_ignores_jobs_and_supervision(
        self, tmp_path, monkeypatch
    ):
        args = ["fuzz", "--budget", "5", "--seed", "0", "--metrics"]
        serial = tmp_path / "serial.jsonl"
        assert main(args + [str(serial)]) == 0
        # Each case outlasts a few heartbeat intervals, so the pool has
        # heartbeat gaps it could record.
        run_case = fuzz_mod.run_fuzz_case

        def slow_case(case):
            time.sleep(0.6)
            return run_case(case)

        monkeypatch.setattr(fuzz_mod, "run_fuzz_case", slow_case)
        supervised = tmp_path / "supervised.jsonl"
        assert main(
            args + [str(supervised), "--jobs", "2", "--hung-after", "1.0"]
        ) == 0
        assert supervised.read_bytes() == serial.read_bytes()

    def test_repro_cli_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["repro", str(missing)]) == 2
        assert "unreadable" in capsys.readouterr().err
