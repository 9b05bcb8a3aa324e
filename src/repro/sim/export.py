"""Report export and latency statistics.

Experiment pipelines want machine-readable results: this module dumps a
:class:`~repro.sim.report.SimReport` to JSON (aggregate + per-core) or
CSV (one row per completed request), and provides the latency statistics
(percentiles, histogram) the paper-style WCL plots are built from.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.common.errors import ReproError
from repro.common.fileio import Durability, persist_text
from repro.common.types import CoreId, Cycle
from repro.obs.tracing import event_to_dict
from repro.sim.report import SimReport


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample."""

    count: int
    minimum: Cycle
    maximum: Cycle
    mean: float
    p50: Cycle
    p90: Cycle
    p99: Cycle

    @classmethod
    def of(cls, latencies: Sequence[Cycle]) -> "LatencyStats":
        """Compute statistics; raises on an empty sample."""
        if not latencies:
            raise ReproError("cannot summarise an empty latency sample")
        ordered = sorted(latencies)
        return cls(
            count=len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 50),
            p90=percentile(ordered, 90),
            p99=percentile(ordered, 99),
        )


def percentile(sorted_sample: Sequence[Cycle], pct: float) -> Cycle:
    """Nearest-rank percentile of an ascending-sorted sample.

    Nearest-rank is the right choice for WCL work: it always returns an
    actually observed latency, never an interpolated value that no
    request experienced.
    """
    if not sorted_sample:
        raise ReproError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ReproError(f"percentile must be in (0, 100], got {pct}")
    rank = math.ceil(pct / 100 * len(sorted_sample))
    return sorted_sample[rank - 1]


def latency_histogram(
    latencies: Sequence[Cycle], bucket_width: int
) -> Dict[int, int]:
    """Histogram of latencies with ``bucket_width``-cycle buckets.

    Keys are bucket lower bounds.  A natural width is the TDM slot
    width, which buckets requests by how many slots they waited.
    """
    if bucket_width <= 0:
        raise ReproError(f"bucket_width must be positive, got {bucket_width}")
    histogram: Dict[int, int] = {}
    for latency in latencies:
        bucket = (latency // bucket_width) * bucket_width
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))


def report_to_dict(report: SimReport) -> dict:
    """The report's aggregate results as plain JSON-ready data."""
    return {
        "total_slots": report.total_slots,
        "total_cycles": report.total_cycles,
        "timed_out": report.timed_out,
        "makespan": report.makespan,
        "observed_wcl": report.observed_wcl(),
        "observed_bus_wcl": report.observed_bus_wcl(),
        "dram_reads": report.dram_reads,
        "dram_writes": report.dram_writes,
        "llc": {
            "accesses": report.llc_stats.accesses,
            "hits": report.llc_stats.hits,
            "misses": report.llc_stats.misses,
            "hit_rate": report.llc_stats.hit_rate,
            "evictions": report.llc_stats.evictions,
            "back_invalidations": report.llc_back_invalidations,
            "blocked_slots": report.llc_blocked_slots,
        },
        "cores": {
            str(core): {
                "finish_time": core_report.finish_time,
                "requests": core_report.requests,
                "private_hits": core_report.private_hits,
                "observed_wcl": core_report.observed_wcl,
                "observed_bus_wcl": core_report.observed_bus_wcl,
                "mean_latency": core_report.mean_latency,
                "max_bus_attempts": core_report.max_bus_attempts,
                "starved": core_report.outstanding_block is not None,
            }
            for core, core_report in sorted(report.core_reports.items())
        },
    }


def write_report_json(report: SimReport, path: Union[str, Path]) -> None:
    """Write the aggregate report as JSON (requested output: ESSENTIAL)."""
    persist_text(
        Path(path),
        json.dumps(report_to_dict(report), indent=2) + "\n",
        site="report-export",
        durability=Durability.ESSENTIAL,
    )


def write_requests_csv(report: SimReport, path: Union[str, Path]) -> None:
    """Write one CSV row per completed request (requested: ESSENTIAL)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "core",
            "block",
            "enqueued_at",
            "first_on_bus_at",
            "completed_at",
            "latency",
            "bus_latency",
            "bus_attempts",
            "served_by_hit",
        ]
    )
    for record in report.requests:
        writer.writerow(
            [
                record.core,
                record.block,
                record.enqueued_at,
                record.first_on_bus_at,
                record.completed_at,
                record.latency,
                record.bus_latency,
                record.bus_attempts,
                int(record.served_by_hit),
            ]
        )
    persist_text(
        Path(path),
        buffer.getvalue(),
        site="report-export",
        durability=Durability.ESSENTIAL,
    )


def write_events_jsonl(report: SimReport, path: Union[str, Path]) -> None:
    """Write the event log as JSON Lines (one event per line).

    Requires the run to have used ``record_events=True``; raises
    :class:`ReproError` on an empty log so silent no-op exports cannot
    masquerade as traces.
    """
    if len(report.events) == 0:
        raise ReproError(
            "event log is empty; run the simulation with record_events=True"
        )
    lines = [json.dumps(event_to_dict(event)) for event in report.events]
    persist_text(
        Path(path),
        "\n".join(lines) + "\n",
        site="report-export",
        durability=Durability.ESSENTIAL,
    )


def core_latency_stats(
    report: SimReport, core: Optional[CoreId] = None
) -> LatencyStats:
    """Latency statistics for one core (or the whole system)."""
    return LatencyStats.of(report.latencies(core))


def render_histogram(
    latencies: Sequence[Cycle],
    bucket_width: int,
    max_bar: int = 50,
) -> str:
    """ASCII latency histogram (one bar per ``bucket_width`` cycles).

    >>> print(render_histogram([40, 60, 70, 220], 100, max_bar=10))
    [  0,100)     3 ##########
    [200,300)     1 ###
    """
    histogram = latency_histogram(latencies, bucket_width)
    if not histogram:
        return "(no samples)"
    peak = max(histogram.values())
    label_width = len(str(max(histogram) + bucket_width))
    lines = []
    for bucket, count in histogram.items():
        bar = "#" * max(1, round(count / peak * max_bar))
        lines.append(
            f"[{bucket:>{label_width}},{bucket + bucket_width:>{label_width}}) "
            f"{count:>5} {bar}"
        )
    return "\n".join(lines)
