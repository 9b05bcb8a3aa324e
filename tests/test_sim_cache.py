"""The content-addressed result cache: hits replay byte-identically.

The contract under test is the module's hard guarantee: a cache hit
produces the same bytes as a fresh simulation on every canonical
surface — ``report_to_dict`` JSON, metrics JSONL, requests CSV, event
lines — and a defective entry is discarded and recomputed, never
trusted.
"""

import dataclasses
import json

import pytest

from sim_helpers import small_config, write_trace_of

from repro.common.errors import ConfigurationError
from repro.obs.collect import collect_metrics
from repro.obs.exporters import metrics_to_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import (
    SimResultCache,
    active_result_cache,
    clear_result_cache,
    install_result_cache,
    load_report,
    report_state,
)
from repro.sim.codec import (
    MODEL_SCHEMA_VERSION,
    run_key,
    seal,
    trace_fingerprint,
)
from repro.sim.export import report_to_dict
from repro.sim.simulator import _simulate_uncached, simulate


@pytest.fixture(autouse=True)
def _no_leaked_policy():
    clear_result_cache()
    yield
    clear_result_cache()


def _traces(num_cores=2):
    return {
        core: write_trace_of([core * 16 + i for i in range(6)])
        for core in range(num_cores)
    }


def _counter(cache, name):
    return cache.registry.counter(f"sim_cache.{name}").value


def _canonical_surfaces(report, config):
    """Every byte surface a cached report must reproduce exactly."""
    metrics = collect_metrics(report, config.slot_width)
    return (
        json.dumps(report_to_dict(report), indent=2, sort_keys=True),
        metrics_to_jsonl(metrics),
        [str(event) for event in report.events.all()],
    )


def test_store_then_lookup_round_trips_all_bytes(tmp_path):
    config = small_config(num_cores=2, record_events=True)
    traces = _traces()
    fresh = _simulate_uncached(config, traces)
    cache = SimResultCache(tmp_path)
    cache.store(config, traces, None, fresh)

    # Disk path: forget the memo so the entry is read back and verified.
    cache._memo.clear()
    cached = cache.lookup(config, traces)
    assert cached is not None
    assert _canonical_surfaces(cached, config) == _canonical_surfaces(
        fresh, config
    )
    assert _counter(cache, "hits") == 1
    assert _counter(cache, "stores") == 1


def test_report_state_round_trip_without_events(tmp_path):
    config = small_config(num_cores=2, record_events=False)
    fresh = _simulate_uncached(config, _traces())
    rebuilt = load_report(report_state(fresh))
    assert not rebuilt.events.enabled
    assert report_to_dict(rebuilt) == report_to_dict(fresh)


def test_metrics_rows_survive_the_cache(tmp_path):
    config = small_config(num_cores=2, record_events=False)
    config = dataclasses.replace(config, record_metrics=True)
    traces = _traces()
    fresh = _simulate_uncached(config, traces)
    assert fresh.metrics is not None
    cache = SimResultCache(tmp_path)
    cache.store(config, traces, None, fresh)
    cache._memo.clear()
    cached = cache.lookup(config, traces)
    assert metrics_to_jsonl(cached.metrics) == metrics_to_jsonl(fresh.metrics)


def test_installed_cache_threads_through_simulate(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    baseline = _simulate_uncached(config, traces)
    cache = install_result_cache(tmp_path)
    assert active_result_cache() is cache
    first = simulate(config, traces)
    second = simulate(config, traces)
    for report in (first, second):
        assert _canonical_surfaces(report, config) == _canonical_surfaces(
            baseline, config
        )
    assert _counter(cache, "misses") == 1
    assert _counter(cache, "stores") == 1
    assert _counter(cache, "hits") == 1
    clear_result_cache()
    assert active_result_cache() is None


def test_event_sink_runs_bypass_the_cache(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache = install_result_cache(tmp_path)
    seen = []
    simulate(config, traces, event_sink=seen.append)
    assert seen, "the sink must have streamed events"
    assert cache.stats().entries == 0
    assert _counter(cache, "misses") == 0


def test_memo_dedups_within_process(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache = SimResultCache(tmp_path)
    cache.store(config, traces, None, _simulate_uncached(config, traces))
    # Remove the on-disk entry: the memo alone must serve the hit.
    key = run_key(config, traces)
    cache.entry_path(key).unlink()
    assert cache.lookup(config, traces) is not None
    assert _counter(cache, "hits") == 1


def test_hits_return_fresh_objects(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache = SimResultCache(tmp_path)
    cache.store(config, traces, None, _simulate_uncached(config, traces))
    one = cache.lookup(config, traces)
    two = cache.lookup(config, traces)
    assert one is not two
    assert one.requests is not two.requests
    one.requests.clear()
    assert two.requests, "mutating one hit must not leak into the next"


def test_start_cycles_enter_the_key():
    config = small_config(num_cores=2)
    traces = _traces()
    assert run_key(config, traces) != run_key(
        config, traces, {0: 100}
    )
    assert run_key(config, traces, {0: 100}) != run_key(
        config, traces, {0: 200}
    )


def test_trace_name_is_not_part_of_the_key():
    renamed = write_trace_of([1, 2, 3])
    renamed.name = "totally-different"
    assert trace_fingerprint(
        write_trace_of([1, 2, 3])
    ) == trace_fingerprint(renamed)


def test_version_mismatch_discarded_and_recomputed(tmp_path, monkeypatch):
    config = small_config(num_cores=2)
    traces = _traces()
    baseline = _simulate_uncached(config, traces)
    cache = SimResultCache(tmp_path)
    cache.store(config, traces, None, baseline)
    key = run_key(config, traces)
    path = cache.entry_path(key)

    # Rewrite the entry as if an older model build had written it: the
    # integrity digest is recomputed so only the stamp check can fire.
    payload = json.loads(path.read_text())["payload"]
    payload["model_schema_version"] = MODEL_SCHEMA_VERSION - 1
    path.write_text(seal(payload))

    cache._memo.clear()
    assert cache.lookup(config, traces) is None
    assert _counter(cache, "version_mismatch") == 1
    assert not path.exists(), "a stale entry must be deleted"

    # The recompute-and-restore loop ends byte-identical.
    install_result_cache(tmp_path, registry=cache.registry)
    recomputed = simulate(config, traces)
    assert _canonical_surfaces(recomputed, config) == _canonical_surfaces(
        baseline, config
    )


def test_gc_is_deterministic_and_counts_evictions(tmp_path):
    import os

    cache = SimResultCache(tmp_path)
    config = small_config(num_cores=2)
    sizes = {}
    for requests, mtime in ((4, 100), (6, 200), (8, 300)):
        traces = {
            core: write_trace_of(list(range(requests))) for core in range(2)
        }
        path = cache.store(
            config, traces, None, _simulate_uncached(config, traces)
        )
        os.utime(path, (mtime, mtime))
        sizes[path] = path.stat().st_size

    by_age = sorted(sizes, key=lambda p: p.stat().st_mtime)
    keep_last = sum(sizes.values()) - sizes[by_age[0]] - sizes[by_age[1]] + 1
    evicted = cache.gc(max_bytes=keep_last)
    assert evicted == by_age[:2], "oldest-first, deterministic order"
    assert _counter(cache, "evictions") == 2
    assert cache.stats().entries == 1

    # Age-based pruning with an injected clock.
    remaining = by_age[2]
    assert cache.gc(max_age_secs=50, now=400.0) == [remaining]
    assert cache.stats().entries == 0


def test_gc_requires_a_bound(tmp_path):
    with pytest.raises(ConfigurationError):
        SimResultCache(tmp_path).gc()


def test_verify_removes_defective_entries(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache = SimResultCache(tmp_path)
    good = cache.store(config, traces, None, _simulate_uncached(config, traces))
    bad = tmp_path / ("res-" + "0" * 64 + ".json")
    bad.write_text('{"integrity":"nope","payload":{}}\n')
    ok, removed = cache.verify()
    assert ok == [good]
    assert removed == [bad]
    assert not bad.exists()
    assert _counter(cache, "corruption") == 1


def test_stats_counts_entries_and_bytes(tmp_path):
    cache = SimResultCache(tmp_path)
    assert cache.stats() == type(cache.stats())(entries=0, total_bytes=0)
    config = small_config(num_cores=2)
    traces = _traces()
    path = cache.store(config, traces, None, _simulate_uncached(config, traces))
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.total_bytes == path.stat().st_size


def test_stale_tmp_swept_on_startup(tmp_path):
    orphan = tmp_path / "res-deadbeef.json.tmp"
    orphan.write_text("half a write")
    SimResultCache(tmp_path)
    assert not orphan.exists()


def test_engine_override_is_part_of_the_key(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache = install_result_cache(tmp_path)
    fast = simulate(config, traces)
    reference = simulate(config, traces, engine="reference")
    assert _counter(cache, "misses") == 2, (
        "an engine override must key (and simulate) separately"
    )
    assert report_to_dict(fast) == report_to_dict(reference)


def test_unjsonable_config_value_is_a_configuration_error():
    from repro.sim.codec import config_document

    with pytest.raises(ConfigurationError):
        config_document(object())
