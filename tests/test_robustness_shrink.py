"""The delta-debugging shrinker and self-contained repro artifacts."""

import json

import pytest

from repro.cli import main
from repro.common.context import run_context
from repro.common.errors import FuzzError
from repro.robustness.fuzz import generate_cases, run_fuzz_case
from repro.robustness.iofault import IoFaultPlan, IoFaultSpec
from repro.robustness.shrink import (
    ARTIFACT_VERSION,
    load_artifact,
    replay_artifact,
    shrink_case,
    write_artifact,
)


def _detected_chaos_case(budget=40, seed=1, fault_rate=0.6):
    """The first generated case whose injected fault fires and is caught."""
    for case in generate_cases(budget, seed, fault_rate=fault_rate):
        if case.fault is None:
            continue
        result = run_fuzz_case(case)
        if not result.passed and result.fault_fired:
            return case, result
    raise AssertionError("no detected chaos case in the generation window")


class TestShrink:
    def test_injected_fault_shrinks_to_minimal_repro(self):
        case, result = _detected_chaos_case()
        shrunk = shrink_case(case, signature=result.signature)
        # The acceptance criterion: a handful of requests, same failure.
        assert shrunk.minimized_requests <= 8
        assert shrunk.minimized_requests <= shrunk.original_requests
        assert run_fuzz_case(shrunk.minimized).signature == shrunk.signature

    def test_signature_is_derived_when_omitted(self):
        case, result = _detected_chaos_case()
        shrunk = shrink_case(case)
        assert shrunk.signature == result.signature

    def test_shrinking_a_passing_case_raises(self):
        case = generate_cases(1, 0)[0]
        assert run_fuzz_case(case).passed
        with pytest.raises(FuzzError, match="does not fail"):
            shrink_case(case)

    def test_evaluation_budget_is_respected(self):
        case, result = _detected_chaos_case()
        shrunk = shrink_case(case, signature=result.signature, max_evaluations=5)
        assert shrunk.evaluations <= 5
        # Even a starved shrink must still end on the same failure.
        assert shrunk.final.signature == result.signature


class TestArtifacts:
    def test_write_load_replay_round_trip(self, tmp_path):
        case, result = _detected_chaos_case()
        shrunk = shrink_case(case, signature=result.signature)
        path = write_artifact(tmp_path / "repro.json", shrunk)
        loaded, signature = load_artifact(path)
        assert signature == shrunk.signature
        assert loaded == shrunk.minimized
        replay = replay_artifact(path)
        assert replay.reproduced

    def test_replay_is_deterministic(self, tmp_path):
        case, result = _detected_chaos_case()
        path = write_artifact(
            tmp_path / "repro.json", shrink_case(case, signature=result.signature)
        )
        first = replay_artifact(path)
        second = replay_artifact(path)
        assert first.result.to_payload() == second.result.to_payload()

    def test_cli_repro_reproduces(self, tmp_path, capsys):
        case, result = _detected_chaos_case()
        path = write_artifact(
            tmp_path / "repro.json", shrink_case(case, signature=result.signature)
        )
        assert main(["repro", str(path)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_cli_repro_detects_signature_drift(self, tmp_path, capsys):
        case, result = _detected_chaos_case()
        path = write_artifact(
            tmp_path / "repro.json", shrink_case(case, signature=result.signature)
        )
        data = json.loads(path.read_text())
        data["failure"]["signature"] = "oracle:response-latency"
        path.write_text(json.dumps(data))
        assert main(["repro", str(path)]) == 1
        assert "NOT REPRODUCED" in capsys.readouterr().err

    def test_malformed_artifacts_are_rejected(self, tmp_path):
        not_json = tmp_path / "a.json"
        not_json.write_text("{ torn")
        with pytest.raises(FuzzError, match="not JSON"):
            load_artifact(not_json)

        not_utf8 = tmp_path / "d.json"
        not_utf8.write_bytes(b"\xff{}")
        with pytest.raises(FuzzError, match="not JSON"):
            load_artifact(not_utf8)

        wrong_version = tmp_path / "b.json"
        case, result = _detected_chaos_case()
        good = json.loads(
            write_artifact(
                tmp_path / "good.json",
                shrink_case(case, signature=result.signature),
            ).read_text()
        )
        good["artifact_version"] = 99
        wrong_version.write_text(json.dumps(good))
        with pytest.raises(FuzzError, match="version"):
            load_artifact(wrong_version)

        missing_case = tmp_path / "c.json"
        missing_case.write_text(json.dumps({"artifact_version": 1}))
        with pytest.raises(FuzzError, match="malformed"):
            load_artifact(missing_case)

    def test_load_reads_through_the_io_seam(self, tmp_path):
        case = generate_cases(1, 0)[0]
        path = tmp_path / "repro.json"
        path.write_text(
            json.dumps(
                {
                    "artifact_version": ARTIFACT_VERSION,
                    "case": case.to_dict(),
                    "failure": {"signature": "oracle:response-latency"},
                }
            )
        )
        assert load_artifact(path) == (case, "oracle:response-latency")
        spec = IoFaultSpec.parse("eio@1x*,site=repro-artifact,op=read")
        plan = IoFaultPlan([spec])
        with run_context(io_hook=plan):
            with pytest.raises(FuzzError, match="unreadable"):
                load_artifact(path)
        assert plan.fired_count == 1
