"""Per-slot occupancy sampling for the slot engine.

The end-of-run report already carries totals and high-water marks; what
it cannot show is the *distribution over time* — how full each core's
PWB sat slot by slot, whether the PRB was occupied, how many sets the
sequencer was tracking while the run struggled.  Those are exactly the
occupancy signals the delay analyses (Theorems 4.7/4.8, and the
parallelism-aware accounting in PAPERS.md) attribute interference to.

:class:`SlotSampler` is the engine's hot-path instrument, so it is
deliberately primitive: one preallocated integer array per resource,
one ``len()`` and one list-index increment per resource per slot, no
allocation, no dict hashing.  The arrays become proper
:class:`~repro.obs.metrics.Histogram` series only once, at report-build
time.  When ``SystemConfig.record_metrics`` is off the engine holds no
sampler at all — the run loop pays a single ``is not None`` test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.system import System

#: Occupancies at or above this land in the final (overflow) bin.
OCCUPANCY_CAP = 64


class SlotSampler:
    """Samples buffer and sequencer occupancy once per bus slot."""

    def __init__(self, system: "System") -> None:
        self._pwbs = sorted(system.pwbs.items())
        self._prbs = sorted(system.prbs.items())
        self._sequencers = sorted(system.sequencers.items())
        bins = OCCUPANCY_CAP + 1
        self._pwb_occ: List[List[int]] = [[0] * bins for _ in self._pwbs]
        self._prb_occ: List[List[int]] = [[0, 0] for _ in self._prbs]
        self._seq_occ: List[List[int]] = [[0] * bins for _ in self._sequencers]
        self.slots_sampled = 0

    def sample(self) -> None:
        """Record one slot's occupancies (called by the engine per slot)."""
        cap = OCCUPANCY_CAP
        for occ, (_, pwb) in zip(self._pwb_occ, self._pwbs):
            depth = len(pwb)
            occ[depth if depth < cap else cap] += 1
        for occ, (_, prb) in zip(self._prb_occ, self._prbs):
            occ[0 if prb.is_empty else 1] += 1
        for occ, (_, sequencer) in zip(self._seq_occ, self._sequencers):
            depth = len(sequencer.queues)
            occ[depth if depth < cap else cap] += 1
        self.slots_sampled += 1

    def registry(self) -> MetricsRegistry:
        """The samples as unit-width occupancy histograms."""
        registry = MetricsRegistry()
        self._fill(registry, "pwb.occupancy", "core", self._pwb_occ, self._pwbs)
        self._fill(registry, "prb.occupancy", "core", self._prb_occ, self._prbs)
        self._fill(
            registry,
            "seq.active_sets",
            "partition",
            self._seq_occ,
            self._sequencers,
        )
        return registry

    @staticmethod
    def _fill(
        registry: MetricsRegistry,
        name: str,
        label_key: str,
        arrays: List[List[int]],
        resources: List[Tuple[object, object]],
    ) -> None:
        for occ, (resource_id, _) in zip(arrays, resources):
            histogram = registry.histogram(name, 1, **{label_key: resource_id})
            for depth, count in enumerate(occ):
                histogram.observe_bucket(depth, count)
