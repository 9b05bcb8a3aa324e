"""Regression: summary rollups count each task exactly once.

A campaign task that is quarantined, then retried after a resume, ends
up with *two* entries in an accumulated outcome list but only one
(final) manifest entry.  The old inline rollup iterated the outcome
list, so ``summary.json`` / ``SUMMARY.txt`` re-counted the retried
task; :func:`repro.robustness.runner.write_campaign_summaries` dedupes
by task id and always summarises from the final manifest entry.
"""

import json

import pytest

from repro.common.context import RetryPolicy
from repro.robustness.runner import (
    CampaignResult,
    CampaignRunner,
    RunManifest,
    TaskOutcome,
    write_campaign_summaries,
)


def _outcome(name, status, **kw):
    defaults = dict(attempts=1, elapsed_seconds=0.1)
    defaults.update(kw)
    return TaskOutcome(name=name, status=status, **defaults)


def _manifest_entry(status, passed=None, error=None):
    return {
        "status": status,
        "attempts": 1,
        "elapsed_seconds": 0.1,
        "error": error,
        "error_type": None if error is None else "ValueError",
        "payload": None if passed is None else {"passed": passed, "checks": {"ok": passed}},
    }


def test_duplicate_outcomes_summarised_once(tmp_path):
    manifest = RunManifest(tmp_path / "manifest.json")
    manifest.tasks = {
        "figure-7": _manifest_entry("done", passed=True),
        "tightness": _manifest_entry("done", passed=True),
    }
    result = CampaignResult(
        outcomes=[
            # quarantined in the first attempt, retried after resume:
            # the accumulated outcome list holds figure-7 twice.
            _outcome(
                "figure-7",
                "quarantined",
                error="boom",
                error_type="ValueError",
            ),
            _outcome("tightness", "done"),
            _outcome("figure-7", "done"),
        ],
        manifest=manifest,
    )
    write_campaign_summaries(tmp_path, result)

    lines = (tmp_path / "SUMMARY.txt").read_text().splitlines()
    assert lines == ["PASS  figure-7", "PASS  tightness"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["figure-7", "tightness"]
    assert summary["figure-7"] == {"ok": True}


def test_summary_uses_final_manifest_state_not_outcome_status(tmp_path):
    # The outcome list says quarantined; the manifest (written by the
    # retry) says done.  The manifest wins.
    manifest = RunManifest(tmp_path / "manifest.json")
    manifest.tasks = {"flaky": _manifest_entry("done", passed=True)}
    result = CampaignResult(
        outcomes=[
            _outcome(
                "flaky", "quarantined", error="boom", error_type="ValueError"
            )
        ],
        manifest=manifest,
    )
    write_campaign_summaries(tmp_path, result)
    assert (tmp_path / "SUMMARY.txt").read_text() == "PASS  flaky\n"


def test_manifest_only_tasks_appended_sorted(tmp_path):
    # Tasks finished by an earlier (differently-scoped) run appear in
    # the manifest but not this campaign's outcomes; they are appended
    # after the campaign order, sorted, once.
    manifest = RunManifest(tmp_path / "manifest.json")
    manifest.tasks = {
        "z-old": _manifest_entry("done", passed=False),
        "a-old": _manifest_entry("quarantined", error="died"),
        "current": _manifest_entry("done", passed=True),
    }
    result = CampaignResult(
        outcomes=[_outcome("current", "done")], manifest=manifest
    )
    write_campaign_summaries(tmp_path, result)
    lines = (tmp_path / "SUMMARY.txt").read_text().splitlines()
    assert lines == ["PASS  current", "QUARANTINED  a-old", "FAIL  z-old"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["a-old"] == {"quarantined": "died"}


def test_quarantine_resume_retry_end_to_end(tmp_path):
    """The full loop: fail, resume, succeed — summarised exactly once."""
    manifest_path = tmp_path / "manifest.json"
    calls = {"n": 0}

    class Artifact:
        checks = {"reproduced": True}
        passed = True

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise ValueError("first attempt dies")
        return Artifact()

    runner = CampaignRunner(
        manifest_path=manifest_path, retry=RetryPolicy(max_attempts=1)
    )
    first = runner.run([("flaky", flaky)], resume=True)
    assert [o.status for o in first.outcomes] == ["quarantined"]

    second = CampaignRunner(
        manifest_path=manifest_path, retry=RetryPolicy(max_attempts=1)
    ).run([("flaky", flaky)], resume=True)
    assert [o.status for o in second.outcomes] == ["done"]

    # A driver that accumulates outcomes across the resume sees the
    # task twice; the summary still counts it once, as done.
    combined = CampaignResult(
        outcomes=first.outcomes + second.outcomes,
        manifest=second.manifest,
    )
    write_campaign_summaries(tmp_path, combined)
    text = (tmp_path / "SUMMARY.txt").read_text()
    assert text == "PASS  flaky\n"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"flaky": {"reproduced": True}}


def test_summaries_require_manifest():
    with pytest.raises(TypeError):
        CampaignResult(outcomes=[])


def test_summary_lists_checks_in_the_artifacts_order(tmp_path):
    # The sealed manifest sorts object keys; the summary must still list
    # an artifact's checks in the order the artifact made them, fresh
    # and resumed alike.
    class Artifact:
        checks = {"zeta": True, "alpha": False}
        passed = False

    runner = CampaignRunner(manifest_path=tmp_path / "manifest.json")
    for expected in ("done", "skipped"):
        result = runner.run([("art", Artifact)])
        assert [o.status for o in result.outcomes] == [expected]
        write_campaign_summaries(tmp_path, result)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["art"]) == ["zeta", "alpha"]
