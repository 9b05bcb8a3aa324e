"""Hypothesis property: arbitrary fault schedules never corrupt artifacts.

For any schedule of injected filesystem faults — any kinds, positions,
windows and site filters, under either engine — a campaign either
completes with byte-identical results or dies with a typed, actionable
error; in both cases every artifact on disk is absent or byte-complete
(identical to a clean run's copy and passing its integrity checks), and
no stale ``.tmp`` sibling survives.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sim_helpers import fast_io_context, small_config, write_trace_of

from repro.common.context import run_context
from repro.common.errors import ObservabilityError, PersistenceError
from repro.common.fileio import persist_text
from repro.obs.collect import collect_metrics
from repro.obs.exporters import write_metrics
from repro.robustness.checkpoint import AutoCheckpointPolicy
from repro.robustness.iofault import IoFaultKind, IoFaultPlan, IoFaultSpec
from repro.sim.cache import SimResultCache
from repro.sim.export import write_report_json
from repro.sim.simulator import simulate


def _workload():
    rng = random.Random(19)
    return {
        core: write_trace_of([rng.randrange(24) for _ in range(30)])
        for core in (0, 1)
    }


def _campaign(root, config, traces):
    cache = SimResultCache(root / "cache")
    policy = AutoCheckpointPolicy(root / "ckpts", every_slots=32)
    with run_context(result_cache=cache, checkpoints=policy):
        report = simulate(config, traces)
        cache._memo.clear()
        again = simulate(config, traces)
        assert again.latencies() == report.latencies()
        write_report_json(report, root / "report.json")
        write_metrics(
            collect_metrics(report, config.slot_width), root / "metrics.jsonl"
        )
        persist_text(
            root / "manifest.json",
            json.dumps({"latencies": report.latencies()}, sort_keys=True)
            + "\n",
            site="manifest",
        )
    return report.latencies()


def _snapshot(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


_REFERENCES = {}


def _reference(tmp_path_factory, engine):
    """Clean-run artifacts and latencies, computed once per engine."""
    if engine not in _REFERENCES:
        config = dataclasses.replace(small_config(), engine=engine)
        root = tmp_path_factory.mktemp(f"ref-{engine}")
        with fast_io_context():
            latencies = _campaign(root, config, _workload())
        _REFERENCES[engine] = {
            "config": config,
            "latencies": latencies,
            "files": _snapshot(root),
        }
    return _REFERENCES[engine]


_SPECS = st.builds(
    IoFaultSpec,
    kind=st.sampled_from(list(IoFaultKind)),
    nth=st.integers(min_value=1, max_value=60),
    count=st.sampled_from([1, 2, None]),
    site=st.sampled_from(
        [
            None,
            "result-cache",
            "auto-checkpoint",
            "report-export",
            "metrics-export",
            "manifest",
        ]
    ),
)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@settings(max_examples=20, deadline=None)
@given(
    specs=st.lists(_SPECS, min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_prop_any_fault_schedule_leaves_only_clean_artifacts(
    tmp_path_factory, engine, specs, seed
):
    reference = _reference(tmp_path_factory, engine)
    traces = _workload()
    root = tmp_path_factory.mktemp("case")
    completed = None
    with fast_io_context(io_hook=IoFaultPlan(specs, seed=seed)):
        try:
            completed = _campaign(root, reference["config"], traces)
        except (PersistenceError, ObservabilityError):
            pass  # loud typed failure: the allowed essential outcome

    # Degraded-but-completed runs produced the clean run's results.
    if completed is not None:
        assert completed == reference["latencies"]

    # No torn artifact, no stale .tmp, nothing the clean run lacks.
    assert not list(root.rglob("*.tmp"))
    for relpath, data in _snapshot(root).items():
        assert relpath in reference["files"], f"unexpected artifact {relpath}"
        assert data == reference["files"][relpath], (
            f"artifact {relpath} differs from the clean campaign's bytes"
        )

    # Every surviving cache entry passes its integrity sweep.
    if (root / "cache").is_dir():
        ok, removed = SimResultCache(root / "cache").verify()
        assert removed == [], "a surviving cache entry failed verification"
