"""Tests for the one-shot reproduction runner and the histogram view."""

import pytest

from repro.experiments.runner import run_all
from repro.sim.export import render_histogram


class TestRunAll:
    @pytest.fixture(scope="class")
    def run(self):
        return run_all(num_requests=120, tightness_repeats=10)

    def test_all_artifacts_produced(self, run):
        names = {artifact.name for artifact in run.artifacts}
        assert "section-5.1-constants" in names
        assert "figure-7" in names
        for sub in ("8a", "8b", "8c", "8d"):
            assert f"figure-{sub}" in names
        assert "section-4.1-unbounded" in names
        assert "bound-tightness" in names
        assert "partial-sharing-isolation" in names

    def test_all_checks_pass(self, run):
        failing = {
            artifact.name: artifact.checks
            for artifact in run.artifacts
            if not artifact.passed
        }
        assert not failing, failing


class TestRenderHistogram:
    def test_basic_bars(self):
        text = render_histogram([40, 60, 70, 220], 100, max_bar=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("#" * 10)

    def test_counts_shown(self):
        text = render_histogram([10, 20, 150], 100)
        assert "    2 " in text
        assert "    1 " in text

    def test_empty_sample(self):
        assert render_histogram([], 50) == "(no samples)"

    def test_every_bucket_has_a_bar(self):
        text = render_histogram(list(range(0, 1000, 7)), 100)
        for line in text.splitlines():
            assert line.rstrip().endswith("#")
