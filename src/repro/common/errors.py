"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  The subclasses partition failures by
the subsystem that detected them, which keeps error handling in the
experiment harnesses explicit about what went wrong.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A system, workload or experiment configuration is invalid."""


class GeometryError(ConfigurationError):
    """A cache geometry (sets / ways / line size) is malformed."""


class ScheduleError(ConfigurationError):
    """A TDM schedule is malformed or violates a required property.

    Raised, for example, when a 1S-TDM schedule (Definition 4.1 of the
    paper) is requested but the provided slot assignment gives some core
    more than one slot per period.
    """


class PartitionError(ConfigurationError):
    """An LLC partition specification is malformed or inconsistent.

    Covers overlapping partitions, partitions that exceed the physical
    LLC geometry, and cores assigned to no (or more than one) partition.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This always indicates a bug in the model (an invariant such as
    inclusivity or one-outstanding-request was violated), never a bad
    user input; bad inputs raise :class:`ConfigurationError` up front.
    """


class InvariantViolation(SimulationError):
    """A per-slot model invariant failed while the engine was running.

    Raised by the :mod:`repro.robustness.invariants` monitor (checked
    mode).  Unlike a bare :class:`SimulationError`, the violation names
    the invariant and carries the slot, core and set where it tripped,
    so a failing run points at the exact state transition that broke
    the model the WCL theorems rely on.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        slot: "int | None" = None,
        core: "int | None" = None,
        set_index: "int | None" = None,
    ) -> None:
        self.invariant = invariant
        self.slot = slot
        self.core = core
        self.set_index = set_index
        context = []
        if slot is not None:
            context.append(f"slot {slot}")
        if core is not None:
            context.append(f"core {core}")
        if set_index is not None:
            context.append(f"set {set_index}")
        where = f" at {', '.join(context)}" if context else ""
        super().__init__(f"invariant '{invariant}' violated{where}: {message}")


class CampaignError(ReproError):
    """A sweep/reproduction campaign could not be run or resumed.

    Covers malformed run manifests and misconfigured campaign runners;
    individual task failures do *not* raise this — they are quarantined
    in the run manifest so the campaign can continue.
    """


class TaskTimeoutError(CampaignError):
    """A campaign task exceeded its wall-clock budget and was aborted."""


class PersistenceError(ReproError):
    """An ESSENTIAL artifact could not be persisted after bounded retries.

    Raised by :func:`repro.common.fileio.persist_text` when a write that
    the user explicitly requested (campaign manifest, figure/report
    output, ``--metrics`` export, a ``run_resumable`` checkpoint file) keeps
    failing after the retry budget is exhausted.  Deliberately *not* an
    :class:`OSError` subclass: the persistence layer already performed
    its own bounded retries, so campaign-level transient-retry machinery
    must not retry it again — it propagates to the CLI, which reports
    the offending path and exits nonzero.

    BEST-EFFORT artifacts (result-cache entries, auto-checkpoints) never
    raise this; they degrade through a per-store circuit breaker and the
    run continues with correct results.
    """


class CheckpointError(ReproError):
    """A simulation checkpoint cannot be written, read or applied.

    Covers corrupted or truncated checkpoint files (integrity-hash
    mismatch), version skew (the :class:`FormatVersionError` subclass),
    run-identity mismatches (restoring against a different
    configuration, traces or start cycles), and simulator states that
    cannot be checkpointed at all (caller-supplied oracle callbacks,
    foreign engine hooks, attached event sinks).
    """


class FormatVersionError(CheckpointError):
    """A stored document was written under another format or model version.

    Raised by :func:`repro.sim.codec.unseal` for a malformed or
    mismatched ``version`` stamp and by the result cache for a
    mismatched model-schema stamp.  Unlike its parent it means the bytes
    are intact but stale, so callers can count it apart from corruption.
    """


class TraceError(ReproError):
    """A memory trace is malformed or cannot be parsed."""


class FuzzError(ReproError):
    """A fuzz campaign, shrink run or repro artifact is unusable.

    Covers oracle checks requested on runs recorded without events,
    shrinking a case that does not actually fail, and repro artifacts
    that are malformed or carry an unsupported schema version.
    """


class ObservabilityError(ReproError):
    """A metrics/tracing request is malformed or cannot be served.

    Covers mismatched merges (histograms of different bucket widths,
    a counter merged into a gauge), relabeling that would alias two
    series, and exporter paths with an unsupported format suffix.
    """


class AnalysisError(ReproError):
    """A worst-case latency analysis was asked an unanswerable question.

    For example, requesting a finite WCL bound for a non-1S-TDM schedule
    where the paper proves the latency is unbounded (Section 4.1).
    """
