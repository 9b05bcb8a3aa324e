"""Metric exporters: JSONL, CSV, Prometheus text format, ASCII table.

Every exporter consumes the registry's canonical
:meth:`~repro.obs.metrics.MetricsRegistry.rows` form, so output bytes
depend only on the registry's content — never on insertion or merge
order.  :func:`write_metrics` picks the format from the path suffix
(``.jsonl`` / ``.csv`` / ``.prom``), which is what the CLI's
``--metrics PATH`` flag uses.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Union

from repro.common.errors import ObservabilityError, PersistenceError
from repro.common.fileio import Durability, cleanup_stale_tmp, persist_text
from repro.obs.metrics import Histogram, MetricsRegistry, format_labels
from repro.sim.codec import canonical_json

#: Path suffix → exporter, the ``write_metrics`` dispatch table.
SUPPORTED_SUFFIXES = (".jsonl", ".csv", ".prom")


def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """One canonical JSON object per series (sorted keys, compact)."""
    return "".join(
        canonical_json(row) + "\n" for row in registry.rows()
    )


def metrics_to_csv(registry: MetricsRegistry) -> str:
    """Long-form CSV: one row per scalar, one row per histogram bucket.

    Columns: ``name, labels, type, field, value``.  Histograms flatten
    to a ``bucket_<lower>`` row per bucket plus ``count``/``sum``/
    ``min``/``max`` summary rows, so the file loads straight into a
    dataframe without JSON parsing.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "labels", "type", "field", "value"])
    for (name, labels), metric in registry:
        rendered = format_labels(labels)
        if isinstance(metric, Histogram):
            for bound, count in metric.sorted_buckets():
                writer.writerow(
                    [name, rendered, metric.kind, f"bucket_{bound}", count]
                )
            writer.writerow([name, rendered, metric.kind, "count", metric.count])
            writer.writerow([name, rendered, metric.kind, "sum", metric.value_sum])
            writer.writerow(
                [name, rendered, metric.kind, "min", metric.value_min]
            )
            writer.writerow(
                [name, rendered, metric.kind, "max", metric.value_max]
            )
        else:
            writer.writerow([name, rendered, metric.kind, "value", metric.value])
    return buffer.getvalue()


def _prom_name(name: str) -> str:
    """Sanitise a metric name for Prometheus (``repro_`` namespace)."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (version 0.0.4).

    Histograms emit the standard cumulative ``_bucket{le=...}`` series
    (upper bounds, ``+Inf`` last) plus ``_sum`` and ``_count``.
    """
    lines = []
    typed = set()
    for (name, labels), metric in registry:
        prom = _prom_name(name)
        if prom not in typed:
            lines.append(f"# TYPE {prom} {metric.kind}")
            typed.add(prom)
        if isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in metric.sorted_buckets():
                cumulative += count
                le = 'le="%s"' % (bound + metric.bucket_width)
                lines.append(
                    f"{prom}_bucket{_prom_labels(labels, le)} {cumulative}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{prom}_bucket{_prom_labels(labels, inf)} {metric.count}"
            )
            lines.append(f"{prom}_sum{_prom_labels(labels)} {metric.value_sum}")
            lines.append(f"{prom}_count{_prom_labels(labels)} {metric.count}")
        else:
            lines.append(f"{prom}{_prom_labels(labels)} {metric.value}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_table(registry: MetricsRegistry) -> str:
    """Human-readable summary, one aligned line per series."""
    rows = []
    for (name, labels), metric in registry:
        series = name + (
            "{" + format_labels(labels) + "}" if labels else ""
        )
        if isinstance(metric, Histogram):
            value = (
                f"count={metric.count} sum={metric.value_sum} "
                f"min={metric.value_min} max={metric.value_max} "
                f"mean={metric.mean:.1f}"
            )
        elif isinstance(metric.value, float):
            value = f"{metric.value:.4f}"
        else:
            value = str(metric.value)
        rows.append((series, metric.kind, value))
    if not rows:
        return "(no metrics)"
    name_width = max(len(series) for series, _, _ in rows)
    kind_width = max(len(kind) for _, kind, _ in rows)
    return "\n".join(
        f"{series:<{name_width}}  {kind:<{kind_width}}  {value}"
        for series, kind, value in rows
    )


_RENDERERS = {
    ".jsonl": metrics_to_jsonl,
    ".csv": metrics_to_csv,
    ".prom": metrics_to_prometheus,
}


def write_metrics(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write ``registry`` to ``path``, format chosen by suffix.

    Raises :class:`~repro.common.errors.ObservabilityError` for an
    unsupported suffix or an unwritable path (e.g. a missing parent
    directory), so the CLI can fail with a clean message instead of a
    traceback.

    The write is crash-consistent (temp sibling + fsync + atomic
    rename): a campaign killed mid-export leaves either the previous
    complete export or the new one, never a truncated file that a
    scraper would misparse.  A stale ``.tmp`` sibling orphaned by an
    earlier crash is cleaned up first.
    """
    target = Path(path)
    renderer = _RENDERERS.get(target.suffix)
    if renderer is None:
        raise ObservabilityError(
            f"unsupported metrics format {target.suffix!r} for {target}; "
            f"use one of {', '.join(SUPPORTED_SUFFIXES)}"
        )
    cleanup_stale_tmp(target)
    try:
        # A --metrics export was explicitly requested: ESSENTIAL, so a
        # transient failure is retried and a persistent one is loud.
        persist_text(
            target,
            renderer(registry),
            site="metrics-export",
            durability=Durability.ESSENTIAL,
            mkdir=False,
        )
    except (OSError, PersistenceError) as exc:
        raise ObservabilityError(
            f"cannot write metrics to {target}: {exc}"
        ) from exc
    return target
