"""A low-overhead, deterministically mergeable metrics registry.

Three instrument kinds, chosen so that every one of them merges with an
associative, commutative operation — the property the parallel sweep
layer (:mod:`repro.sim.parallel`) relies on to make ``--jobs N`` output
bit-identical to a serial run regardless of worker completion order:

* :class:`Counter` — a monotonically increasing integer; merges by sum.
* :class:`Gauge` — a last-known level (occupancy high-water marks,
  rates, configuration echoes); merges by **max**, which is the only
  associative/commutative choice that preserves the "worst observed"
  reading the WCL experiments care about.
* :class:`Histogram` — fixed-width buckets keyed by their lower bound
  (the natural width is the TDM slot width, which buckets latencies by
  how many slots a request waited); merges by element-wise bucket sum
  plus min/max/sum of the observed values.  Bucket counts are
  *conserved*: the sum over buckets always equals the number of
  observations, before and after any merge.

A series is identified by ``(name, labels)`` with labels canonicalised
to a sorted tuple of string pairs, so iteration order of the registry —
and therefore every exporter's byte output — never depends on insertion
or merge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.common.errors import ObservabilityError

#: Canonical label form: sorted ``(key, value)`` string pairs.
Labels = Tuple[Tuple[str, str], ...]

#: A series key: metric name plus canonical labels.
SeriesKey = Tuple[str, Labels]


def canonical_labels(labels: Mapping[str, object]) -> Labels:
    """Sort and stringify a label mapping (the series-identity form)."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def format_labels(labels: Labels) -> str:
    """Render canonical labels as ``k=v,k2=v2`` (empty string when none)."""
    return ",".join(f"{key}={value}" for key, value in labels)


@dataclass
class Counter:
    """A summable event count."""

    value: int = 0

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter increment must be >= 0, got {amount}"
            )
        self.value += amount

    def merged(self, other: "Counter") -> "Counter":
        """Sum of the two counts."""
        return Counter(value=self.value + other.value)


@dataclass
class Gauge:
    """A level; merges by max (the worst observed reading wins)."""

    value: Union[int, float] = 0

    kind = "gauge"

    def set(self, value: Union[int, float]) -> None:
        """Record the current level."""
        self.value = value

    def merged(self, other: "Gauge") -> "Gauge":
        """The larger of the two readings."""
        return Gauge(value=max(self.value, other.value))


@dataclass
class Histogram:
    """Fixed-width bucket histogram with conserved counts.

    ``buckets`` maps a bucket's lower bound (a multiple of
    ``bucket_width``) to its count.  ``observe`` also tracks the sum,
    min and max of the raw values so exporters can report means and
    extremes without keeping samples.
    """

    bucket_width: int
    buckets: Dict[int, int] = field(default_factory=dict)
    count: int = 0
    value_sum: int = 0
    value_min: Optional[int] = None
    value_max: Optional[int] = None

    kind = "histogram"

    def __post_init__(self) -> None:
        if self.bucket_width <= 0:
            raise ObservabilityError(
                f"bucket_width must be positive, got {self.bucket_width}"
            )

    def observe(self, value: int) -> None:
        """Record one sample."""
        bucket = (value // self.bucket_width) * self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.value_sum += value
        if self.value_min is None or value < self.value_min:
            self.value_min = value
        if self.value_max is None or value > self.value_max:
            self.value_max = value

    def observe_bucket(self, bucket_value: int, count: int) -> None:
        """Record ``count`` samples that all fall at ``bucket_value``.

        The bulk form the per-slot sampler uses: its occupancy arrays
        arrive as (value, count) pairs, not individual samples.
        """
        if count < 0:
            raise ObservabilityError(f"bucket count must be >= 0, got {count}")
        if count == 0:
            return
        bucket = (bucket_value // self.bucket_width) * self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += count
        self.value_sum += bucket_value * count
        self.value_min = (
            bucket_value
            if self.value_min is None
            else min(self.value_min, bucket_value)
        )
        self.value_max = (
            bucket_value
            if self.value_max is None
            else max(self.value_max, bucket_value)
        )

    @property
    def mean(self) -> float:
        """Mean of the observed values; 0.0 on an empty histogram."""
        return self.value_sum / self.count if self.count else 0.0

    def sorted_buckets(self) -> List[Tuple[int, int]]:
        """``(lower_bound, count)`` pairs in ascending bound order."""
        return sorted(self.buckets.items())

    def merged(self, other: "Histogram") -> "Histogram":
        """Element-wise bucket sum; widths must agree."""
        if self.bucket_width != other.bucket_width:
            raise ObservabilityError(
                f"cannot merge histograms of widths {self.bucket_width} "
                f"and {other.bucket_width}"
            )
        buckets = dict(self.buckets)
        for bound, count in other.buckets.items():
            buckets[bound] = buckets.get(bound, 0) + count
        mins = [m for m in (self.value_min, other.value_min) if m is not None]
        maxs = [m for m in (self.value_max, other.value_max) if m is not None]
        return Histogram(
            bucket_width=self.bucket_width,
            buckets=buckets,
            count=self.count + other.count,
            value_sum=self.value_sum + other.value_sum,
            value_min=min(mins) if mins else None,
            value_max=max(maxs) if maxs else None,
        )


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Holds every metric series of one run (or one merged campaign).

    The registry is the unit the sweep and campaign layers ship across
    process boundaries: it is plain picklable data, and
    :meth:`merged` / :func:`merge_all` recombine worker registries in
    canonical order so the aggregate never depends on completion order.
    """

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, Metric] = {}

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[Tuple[SeriesKey, Metric]]:
        """Series in canonical (name, labels) order."""
        return iter(sorted(self._series.items()))

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, key: SeriesKey, factory, expected: type) -> Metric:
        metric = self._series.get(key)
        if metric is None:
            metric = factory()
            self._series[key] = metric
        elif not isinstance(metric, expected):
            raise ObservabilityError(
                f"series {key[0]!r}{{{format_labels(key[1])}}} is a "
                f"{metric.kind}, not a {expected.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """The named counter, created on first use."""
        key = (name, canonical_labels(labels))
        return self._get_or_create(key, Counter, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The named gauge, created on first use."""
        key = (name, canonical_labels(labels))
        return self._get_or_create(key, Gauge, Gauge)

    def histogram(
        self, name: str, bucket_width: int, **labels: object
    ) -> Histogram:
        """The named histogram, created on first use.

        Asking for an existing series with a different ``bucket_width``
        is an error: a histogram's identity includes its bucketing.
        """
        key = (name, canonical_labels(labels))
        metric = self._get_or_create(
            key, lambda: Histogram(bucket_width=bucket_width), Histogram
        )
        if metric.bucket_width != bucket_width:
            raise ObservabilityError(
                f"histogram {name!r}{{{format_labels(key[1])}}} has bucket "
                f"width {metric.bucket_width}, not {bucket_width}"
            )
        return metric

    def get(self, name: str, **labels: object) -> Optional[Metric]:
        """Look a series up without creating it."""
        return self._series.get((name, canonical_labels(labels)))

    def names(self) -> List[str]:
        """Distinct metric names, sorted."""
        return sorted({name for name, _ in self._series})

    # ------------------------------------------------------------------
    # Merge / relabel
    # ------------------------------------------------------------------
    def merged(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry combining both operands.

        Associative and commutative: shared series combine per-kind
        (sum / max / bucket sum), disjoint series union.  Neither
        operand is mutated.
        """
        result = MetricsRegistry()
        result._series = dict(self._series)
        for key, metric in other._series.items():
            existing = result._series.get(key)
            if existing is None:
                result._series[key] = _copy_metric(metric)
            else:
                if existing.kind != metric.kind:
                    raise ObservabilityError(
                        f"cannot merge series {key[0]!r}"
                        f"{{{format_labels(key[1])}}}: "
                        f"{existing.kind} vs {metric.kind}"
                    )
                result._series[key] = existing.merged(metric)
        return result

    def relabel(self, **labels: object) -> "MetricsRegistry":
        """A copy with ``labels`` added to every series.

        Used by the sweep layers to scope each cell's metrics (e.g.
        ``config="SS(1,16,4)", range=1024``) before merging cells, so
        no two cells' series collide.  Overwriting an existing label
        key is refused — it would silently alias distinct series.
        """
        extra = canonical_labels(labels)
        result = MetricsRegistry()
        for (name, existing), metric in self._series.items():
            existing_keys = {key for key, _ in existing}
            clash = existing_keys & {key for key, _ in extra}
            if clash:
                raise ObservabilityError(
                    f"relabel would overwrite label(s) {sorted(clash)} "
                    f"on series {name!r}"
                )
            merged_labels = tuple(sorted(existing + extra))
            result._series[(name, merged_labels)] = _copy_metric(metric)
        return result

    # ------------------------------------------------------------------
    # Canonical row form (the exporters' single input shape)
    # ------------------------------------------------------------------
    def rows(self) -> List[dict]:
        """One plain dict per series, in canonical order.

        This is the comparison form the golden/property tests use: two
        registries are equivalent iff their rows are equal.
        """
        out: List[dict] = []
        for (name, labels), metric in self:
            row: dict = {
                "name": name,
                "labels": dict(labels),
                "type": metric.kind,
            }
            if isinstance(metric, Histogram):
                row.update(
                    bucket_width=metric.bucket_width,
                    buckets={str(k): v for k, v in metric.sorted_buckets()},
                    count=metric.count,
                    sum=metric.value_sum,
                    min=metric.value_min,
                    max=metric.value_max,
                )
            else:
                row["value"] = metric.value
            out.append(row)
        return out


def _copy_metric(metric: Metric) -> Metric:
    """Deep-enough copy so merge results never alias their operands."""
    if isinstance(metric, Counter):
        return Counter(value=metric.value)
    if isinstance(metric, Gauge):
        return Gauge(value=metric.value)
    return Histogram(
        bucket_width=metric.bucket_width,
        buckets=dict(metric.buckets),
        count=metric.count,
        value_sum=metric.value_sum,
        value_min=metric.value_min,
        value_max=metric.value_max,
    )


def registry_from_rows(rows: "List[dict]") -> MetricsRegistry:
    """Rebuild a registry from its canonical :meth:`MetricsRegistry.rows`.

    The exact inverse of ``rows()``: feeding the result back through
    ``rows()`` reproduces the input.  This is what lets a campaign
    manifest persist an artifact's metrics across a kill — the resumed
    run reconstructs the registry from the stored rows instead of
    re-running the artifact.
    """
    result = MetricsRegistry()
    for row in rows:
        key = (row["name"], canonical_labels(row["labels"]))
        if key in result._series:
            raise ObservabilityError(
                f"duplicate series {row['name']!r}"
                f"{{{format_labels(key[1])}}} in rows"
            )
        metric: Metric
        if row["type"] == "counter":
            metric = Counter(value=row["value"])
        elif row["type"] == "gauge":
            metric = Gauge(value=row["value"])
        elif row["type"] == "histogram":
            metric = Histogram(
                bucket_width=row["bucket_width"],
                buckets={int(bound): count for bound, count in row["buckets"].items()},
                count=row["count"],
                value_sum=row["sum"],
                value_min=row["min"],
                value_max=row["max"],
            )
        else:
            raise ObservabilityError(
                f"unknown metric type {row['type']!r} for series "
                f"{row['name']!r}"
            )
        result._series[key] = metric
    return result


def merge_all(registries: "List[MetricsRegistry]") -> MetricsRegistry:
    """Fold a list of registries into one (empty list → empty registry).

    The fold order is the caller's list order; because :meth:`merged`
    is associative and commutative, any reordering — in particular the
    completion order of a parallel sweep — yields the same rows.
    """
    result = MetricsRegistry()
    for registry in registries:
        result = result.merged(registry)
    return result
