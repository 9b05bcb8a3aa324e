"""System configuration: everything needed to build one simulated system.

Defaults reproduce the paper's evaluation platform (Section 5): four
cores, a 4-way × 16-set private L2, a 16-way × 32-set LLC, 64-byte
lines, a 1S-TDM bus.  The slot width of 50 cycles is inferred from the
paper's analytical numbers (Figure 7: the SS bound of 5000 cycles equals
``(2·3·4+1)·4·SW``, so ``SW = 50``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule, one_slot_tdm
from repro.common.errors import ConfigurationError
from repro.common.validation import require, require_non_negative, require_positive
from repro.cpu.private_stack import PrivateStackConfig
from repro.llc.partition import PartitionMap, PartitionSpec
from repro.mem.dram import DRAM_FETCH_LATENCY

#: Slot width implied by the paper's Figure 7 analytical WCLs.
PAPER_SLOT_WIDTH = 50

#: The paper's LLC geometry (Section 5).
PAPER_LLC_SETS = 32
PAPER_LLC_WAYS = 16
PAPER_LINE_SIZE = 64


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated platform.

    Parameters
    ----------
    partitions:
        The LLC carving; every core in ``range(num_cores)`` must belong
        to exactly one partition.
    schedule:
        Explicit TDM schedule.  When ``None``, a 1S-TDM schedule over
        ``num_cores`` cores in core order is built (the paper's
        ``{c_ua, c_2, ..., c_N}``); ``one_slot_tdm(num_cores,
        slot_width, order)`` gives another order.  Passing a non-1S-TDM
        schedule is allowed — that is how the Section 4.1 unbounded
        scenario is demonstrated — but shared partitions then lose their
        WCL bound.
    llc_hit_latency / llc_miss_latency:
        Cycles from slot start to the response for an LLC hit / for a
        miss that allocates and fetches from DRAM.  Both must fit in a
        slot: the model (and the analysis) require the LLC to respond
        within the requester's slot.
    max_slots:
        Safety stop; a simulation exceeding it reports ``timed_out``
        instead of hanging (used to *detect* starvation).
    """

    num_cores: int = 4
    partitions: Sequence[PartitionSpec] = ()
    slot_width: int = PAPER_SLOT_WIDTH
    schedule: Optional[TdmSchedule] = None
    line_size: int = PAPER_LINE_SIZE
    llc_sets: int = PAPER_LLC_SETS
    llc_ways: int = PAPER_LLC_WAYS
    llc_policy: str = "lru"
    llc_hit_latency: int = 20
    llc_miss_latency: int = 45
    stack: PrivateStackConfig = field(default_factory=PrivateStackConfig)
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN
    seed: int = 1
    max_slots: int = 2_000_000
    record_events: bool = False
    #: Checked mode: install the per-slot invariant monitor
    #: (:mod:`repro.robustness.invariants`) on the engine, so model
    #: invariants — inclusivity, one outstanding request per core,
    #: PENDING_EVICT accounting, sequencer FIFO consistency, observed
    #: latency within the analytical WCL — are verified after *every*
    #: slot instead of only once after the run.  Off by default: the
    #: per-slot checks cost wall clock (see
    #: ``benchmarks/test_bench_checked_overhead.py``), and the post-run
    #: inclusivity check still always runs.
    checked: bool = False
    #: Metrics mode: install the per-slot occupancy sampler
    #: (:mod:`repro.obs.recorder`) on the engine, so the report carries
    #: PWB/PRB occupancy and sequencer QLT-depth histograms over time
    #: in addition to the always-on counters.  Off by default: the
    #: sampler touches every buffer once per slot (see
    #: ``benchmarks/test_bench_metrics_overhead.py`` for the ≤ 15%
    #: budget); disabled runs pay a single ``is None`` test per slot.
    record_metrics: bool = False
    #: Whether a dirty victim owned by the *requesting* core is written
    #: back within the same slot (the requester already holds the bus,
    #: so the victim data can ride along with its request).  True makes
    #: the private-partition critical path match the paper's analytical
    #: ``(2N+1)·SW`` (450 cycles in Figure 7).  False routes
    #: self-evictions through the PWB like any other write-back, which
    #: reproduces the Figure 8 regime where strict partitions pay an
    #: extra write-back round trip per conflict miss.
    self_writeback_in_slot: bool = True
    #: Which slot-engine execution strategy to use.  ``"fast"`` (the
    #: default) enables the idle-slot fast-forward path: stretches of
    #: bus slots in which no core can produce a transaction are skipped
    #: analytically instead of being ticked one by one, with reports,
    #: ``slot_usage`` and all counters bit-identical to the reference
    #: loop (see ``docs/MODEL.md``).  ``"reference"`` always ticks every
    #: slot.  The fast engine silently falls back to the reference loop
    #: whenever exactness cannot be guaranteed cheaply: recorded/streamed
    #: events, per-slot samplers (``record_metrics``), any pre/post-slot
    #: hook (fault injection, ``checked`` invariant monitors) or a
    #: ``random`` replacement policy (its shared RNG stream cannot be
    #: kept in lock-step with the prediction clone).
    engine: str = "fast"

    def __post_init__(self) -> None:
        require_positive(self.num_cores, "num_cores", ConfigurationError)
        require_positive(self.slot_width, "slot_width", ConfigurationError)
        require_positive(self.line_size, "line_size", ConfigurationError)
        require_positive(self.llc_sets, "llc_sets", ConfigurationError)
        require_positive(self.llc_ways, "llc_ways", ConfigurationError)
        require_positive(self.llc_hit_latency, "llc_hit_latency", ConfigurationError)
        require_positive(self.llc_miss_latency, "llc_miss_latency", ConfigurationError)
        require_non_negative(self.seed, "seed", ConfigurationError)
        require_positive(self.max_slots, "max_slots", ConfigurationError)
        # The checks below run once per config built, which a fuzz case
        # does three times: each message is formatted only on failure.
        if self.engine not in ("fast", "reference"):
            raise ConfigurationError(
                f"engine must be 'fast' or 'reference', got {self.engine!r}"
            )
        if self.llc_hit_latency > self.slot_width:
            raise ConfigurationError(
                f"llc_hit_latency ({self.llc_hit_latency}) must fit in a slot "
                f"({self.slot_width}): the LLC responds within the requester's slot"
            )
        if self.llc_miss_latency > self.slot_width:
            raise ConfigurationError(
                f"llc_miss_latency ({self.llc_miss_latency}) must fit in a slot "
                f"({self.slot_width}): the LLC responds within the requester's slot"
            )
        if DRAM_FETCH_LATENCY > self.llc_miss_latency:
            raise ConfigurationError(
                f"llc_miss_latency ({self.llc_miss_latency}) must cover the DRAM "
                f"fetch ({DRAM_FETCH_LATENCY})"
            )
        require(
            bool(self.partitions),
            "SystemConfig needs at least one partition",
            ConfigurationError,
        )
        # Validate the carving and core coverage eagerly, and keep both
        # validated objects as non-field memo slots (the
        # TdmSchedule._positions idiom): fields() skips them, so
        # equality, repr and run keys see only the declared fields.
        partition_map = PartitionMap(list(self.partitions), self.llc_sets, self.llc_ways)
        expected = set(range(self.num_cores))
        if set(partition_map.cores) != expected:
            raise ConfigurationError(
                f"partitions must cover exactly cores {sorted(expected)}, "
                f"got {sorted(partition_map.cores)}"
            )
        if self.schedule is not None:
            schedule = self.schedule
        else:
            schedule = one_slot_tdm(self.num_cores, self.slot_width)
        if set(schedule.cores) != expected:
            raise ConfigurationError(
                f"schedule must cover exactly cores {sorted(expected)}, "
                f"got {sorted(schedule.cores)}"
            )
        if schedule.slot_width != self.slot_width:
            raise ConfigurationError(
                f"schedule slot width {schedule.slot_width} != config slot_width "
                f"{self.slot_width}"
            )
        object.__setattr__(self, "_partition_map", partition_map)
        object.__setattr__(self, "_schedule", schedule)

    def build_partition_map(self) -> PartitionMap:
        """The validated LLC carving, built once by ``__post_init__``.

        Every call returns the same :class:`PartitionMap`, so a
        :class:`~repro.sim.system.System`, the oracle and
        :func:`~repro.analysis.verification.derive_core_bounds` share one
        object instead of re-validating the carving.  Nothing mutates a
        partition map after construction.  ``dataclasses.replace``
        builds a new config and so validates its carving afresh.
        """
        return self._partition_map

    def build_schedule(self) -> TdmSchedule:
        """The validated TDM schedule the bus will follow.

        ``schedule`` when given, otherwise the 1S-TDM schedule over
        ``num_cores`` in core order; built and checked once by
        ``__post_init__``, and the same object on every call.
        """
        return self._schedule

    @property
    def period_cycles(self) -> int:
        """Cycles per TDM period."""
        return self.build_schedule().period_cycles

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        schedule = self.build_schedule()
        parts = ", ".join(
            f"{p.name}({p.num_sets}x{p.num_ways}w, cores={list(p.cores)}"
            f"{', SS' if p.sequencer else ''})"
            for p in self.partitions
        )
        return (
            f"{self.num_cores} cores, LLC {self.llc_sets}x{self.llc_ways}w "
            f"{self.line_size}B lines, SW={self.slot_width}, "
            f"schedule={list(schedule.slot_owners)} "
            f"({'1S-TDM' if schedule.is_one_slot else 'general TDM'}), "
            f"partitions: {parts}"
        )
