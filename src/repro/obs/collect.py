"""Build the metric catalogue of one simulation run.

:func:`collect_metrics` turns a finished
:class:`~repro.sim.report.SimReport` into a
:class:`~repro.obs.metrics.MetricsRegistry` covering every subsystem:

==========================  =================================================
prefix                      series
==========================  =================================================
``sim.*``                   total slots/cycles, makespan, timed-out flag
``core.*``                  per-core request counts, private hits, observed
                            (bus) WCL, finish time, bus attempts, end-to-end
                            and bus latency histograms (slot-width buckets)
``bus.*``                   per-core slot usage (request/writeback/idle) and
                            PRB-vs-PWB arbiter contention
``llc.*``                   accesses/hits/misses/evictions, hit rate,
                            back-invalidations, blocked slots, writeback
                            traffic
``seq.*``                   per-partition sequencer registrations, grants,
                            blocks, cancellations, QLT high-water mark
``pwb.*`` / ``prb.*``       write-back / request buffer occupancy (high-water
                            gauge always; full per-slot histograms when the
                            run sampled live with ``record_metrics=True``)
``dram.*``                  read/write traffic
==========================  =================================================

The registry is derived purely from the (deterministic) report plus the
optional live samples the engine attached, so collecting in a worker
process and merging in canonical order yields bytes identical to a
serial run — the property the golden and parallel-equivalence tests
pin down.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.sim.report import SimReport


def collect_metrics(report: SimReport, slot_width: int) -> MetricsRegistry:
    """The full metric catalogue of one run.

    ``slot_width`` sets the latency histogram bucket width (one bucket
    per TDM slot of waiting), matching the unit of the analytical WCL
    bounds.
    """
    registry = MetricsRegistry()

    registry.counter("sim.slots.total").inc(report.total_slots)
    registry.counter("sim.cycles.total").inc(report.total_cycles)
    registry.gauge("sim.makespan").set(report.makespan)
    registry.gauge("sim.timed_out").set(int(report.timed_out))

    for core, core_report in sorted(report.core_reports.items()):
        registry.counter("core.requests", core=core).inc(core_report.requests)
        registry.counter("core.private_hits", core=core).inc(
            core_report.private_hits
        )
        registry.gauge("core.observed_wcl", core=core).set(
            core_report.observed_wcl
        )
        registry.gauge("core.observed_bus_wcl", core=core).set(
            core_report.observed_bus_wcl
        )
        registry.gauge("core.max_bus_attempts", core=core).set(
            core_report.max_bus_attempts
        )
        registry.gauge("core.finish_time", core=core).set(
            core_report.finish_time if core_report.finish_time is not None else -1
        )
        registry.gauge("core.starved", core=core).set(
            int(core_report.outstanding_block is not None)
        )

    # A core's latency histograms are looked up on its first request and
    # its LLC-hit counter on its first hit, not once per request; series
    # are still created at the same records, in the same order.
    latency_series: Dict[int, Tuple[Histogram, Histogram]] = {}
    hit_counters: Dict[int, Counter] = {}
    # Records are unpacked and their two latencies computed here: field
    # and property reads on a named tuple cost more than the arithmetic.
    for (
        core,
        _,
        enqueued_at,
        first_on_bus_at,
        completed_at,
        _,
        served_by_hit,
    ) in report.requests:
        histograms = latency_series.get(core)
        if histograms is None:
            histograms = latency_series[core] = (
                registry.histogram("core.latency", slot_width, core=core),
                registry.histogram("core.bus_latency", slot_width, core=core),
            )
        histograms[0].observe(completed_at - enqueued_at)
        histograms[1].observe(completed_at - first_on_bus_at)
        if served_by_hit:
            hits = hit_counters.get(core)
            if hits is None:
                hits = hit_counters[core] = registry.counter(
                    "core.llc_hits", core=core
                )
            hits.inc()

    for core, usage in sorted(report.slot_usage.items()):
        for kind, count in sorted(usage.items()):
            registry.counter("bus.slots", core=core, kind=kind).inc(count)
    for core, contended in sorted(report.arbiter_contended.items()):
        registry.counter("bus.arbiter.contended", core=core).inc(contended)

    llc = report.llc_stats
    registry.counter("llc.accesses").inc(llc.accesses)
    registry.counter("llc.hits").inc(llc.hits)
    registry.counter("llc.misses").inc(llc.misses)
    registry.counter("llc.fills").inc(llc.fills)
    registry.counter("llc.evictions").inc(llc.evictions)
    registry.counter("llc.dirty_evictions").inc(llc.dirty_evictions)
    registry.counter("llc.invalidations").inc(llc.invalidations)
    registry.counter("llc.back_invalidations").inc(report.llc_back_invalidations)
    registry.counter("llc.blocked_slots").inc(report.llc_blocked_slots)
    registry.gauge("llc.hit_rate").set(llc.hit_rate)

    for name, stats in sorted(report.sequencer_stats.items()):
        registry.counter("seq.registrations", partition=name).inc(
            stats.registrations
        )
        registry.counter("seq.completions", partition=name).inc(stats.completions)
        registry.counter("seq.cancellations", partition=name).inc(
            stats.cancellations
        )
        registry.counter("seq.head_grants", partition=name).inc(stats.head_grants)
        registry.counter("seq.blocked_not_head", partition=name).inc(
            stats.blocked_not_head
        )
        registry.gauge("seq.max_active_sets", partition=name).set(
            stats.max_active_sets
        )

    for core, occupancy in sorted(report.pwb_max_occupancy.items()):
        registry.gauge("pwb.max_occupancy", core=core).set(occupancy)

    registry.counter("dram.reads").inc(report.dram_reads)
    registry.counter("dram.writes").inc(report.dram_writes)

    if report.metrics is not None:
        registry = registry.merged(report.metrics)
    return registry
