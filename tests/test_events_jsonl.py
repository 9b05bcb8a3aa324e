"""Tests for the JSON-Lines event exporter."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs.tracing import JsonlTraceSink
from repro.sim.export import write_events_jsonl
from repro.sim.simulator import Simulator, simulate

from sim_helpers import shared_partition, small_config, write_trace_of


def two_core_run():
    config = small_config(num_cores=2)
    traces = {0: write_trace_of([0, 4]), 1: write_trace_of([1, 5])}
    return config, traces


@pytest.fixture(scope="module")
def report():
    return simulate(*two_core_run())


class TestEventsJsonl:
    def test_one_line_per_event(self, report, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(report.events)

    def test_lines_are_valid_json_with_fields(self, report, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(report, path)
        for line in path.read_text().splitlines():
            event = json.loads(line)
            assert {"cycle", "slot", "kind", "core", "block", "set", "way",
                    "detail"} <= set(event)

    def test_kinds_match_log(self, report, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(report, path)
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds == [event.kind.value for event in report.events]

    def test_empty_log_rejected(self, tmp_path):
        import dataclasses

        config = dataclasses.replace(small_config(num_cores=1), record_events=False)
        empty_report = simulate(config, {0: write_trace_of([0])})
        with pytest.raises(ReproError, match="record_events"):
            write_events_jsonl(empty_report, tmp_path / "none.jsonl")

    def test_bytes_equal_a_trace_sink_stream(self, tmp_path):
        # One event encoding: the export and a streamed trace of the
        # same run are the same file.
        config, traces = two_core_run()
        streamed = tmp_path / "streamed.jsonl"
        with JsonlTraceSink(streamed) as sink:
            report = Simulator(config, traces, event_sink=sink).run()
        exported = tmp_path / "exported.jsonl"
        write_events_jsonl(report, exported)
        assert exported.read_bytes() == streamed.read_bytes()
