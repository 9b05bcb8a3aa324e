"""Tests for the configuration comparison harness."""

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.experiments.compare import compare_notations


@pytest.fixture(scope="module")
def result():
    return compare_notations(
        ["SS(2,16,4)", "NSS(2,16,4)", "P(1,16)"],
        suite="storm",
        num_requests=120,
    )


class TestCompareNotations:
    def test_one_row_per_notation(self, result):
        assert [row.notation for row in result.rows] == [
            "SS(2,16,4)",
            "NSS(2,16,4)",
            "P(1,16)",
        ]

    def test_analytical_bounds_attached(self, result):
        assert result.row("SS(2,16,4)").analytical_wcl == 5_000
        assert result.row("P(1,16)").analytical_wcl == 450

    def test_observed_within_analytical(self, result):
        for row in result.rows:
            if row.analytical_wcl is not None:
                assert row.observed_wcl <= row.analytical_wcl

    def test_headroom_property(self, result):
        row = result.row("P(1,16)")
        assert row.bound_headroom == pytest.approx(
            row.analytical_wcl / row.observed_wcl
        )

    def test_fastest_and_lowest_wcl_selectors(self, result):
        assert result.fastest().makespan == min(r.makespan for r in result.rows)
        assert result.lowest_wcl().observed_wcl == min(
            r.observed_wcl for r in result.rows
        )

    def test_sequencer_beats_best_effort_wcl_on_storm(self, result):
        assert (
            result.row("SS(2,16,4)").observed_wcl
            <= result.row("NSS(2,16,4)").observed_wcl
        )

    def test_render(self, result):
        text = result.render()
        assert "SS(2,16,4)" in text and "hit rate" in text

    def test_unknown_row_rejected(self, result):
        with pytest.raises(KeyError):
            result.row("P(2,16)")

    def test_empty_notations_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_notations([])

    def test_repeated_notations_rejected(self):
        # A repeated notation would print its row twice and merge both
        # runs' metrics into one config=<notation> series.
        with pytest.raises(ConfigurationError, match="repeated"):
            compare_notations(["SS(1,16,4)", "P(2,16)", "SS(1,16,4)"])

    def test_same_traces_across_configs(self):
        # DRAM read counts can differ (partition capacity), but the
        # workload itself must be identical: a P(2,16) system given the
        # same suite build twice produces identical results.
        first = compare_notations(["P(2,16)"], suite="fig7", num_requests=60)
        second = compare_notations(["P(2,16)"], suite="fig7", num_requests=60)
        assert first.rows[0] == second.rows[0]


class TestCompareCli:
    def test_command_runs(self, capsys):
        code = main(
            [
                "compare",
                "SS(2,16,4)",
                "P(1,16)",
                "--suite",
                "storm",
                "--requests",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fastest:" in out
        assert "lowest observed WCL:" in out
