"""repro.obs — observability: metrics registry, collectors, exporters, tracing.

The layer that explains *why* an observed WCL sits where it does: a
deterministically mergeable metrics registry
(:mod:`repro.obs.metrics`), the per-run catalogue collector
(:mod:`repro.obs.collect`), JSONL/CSV/Prometheus exporters
(:mod:`repro.obs.exporters`), the canonical structured-trace encoding
and streaming sink (:mod:`repro.obs.tracing`) and the engine's per-slot
occupancy sampler (:mod:`repro.obs.recorder`).

See ``docs/OBSERVABILITY.md`` for the metric catalogue and format
specs.
"""
