"""The simulator facade: build a system, run it, return the report.

This is the one-call entry point most users (and all experiment
harnesses) go through::

    from repro import SystemConfig, simulate
    report = simulate(config, traces)
    print(report.observed_wcl())
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.common.context import current_run_context
from repro.common.types import CoreId, Cycle
from repro.sim.config import SystemConfig
from repro.sim.engine import SlotEngine
from repro.sim.events import SimEvent
from repro.sim.report import SimReport
from repro.sim.system import System
from repro.workloads.trace import MemoryTrace


class Simulator:
    """Owns one built system and its engine.

    Use this class directly when you need access to the wired components
    (for scripted scenario tests or invariant checks); use
    :func:`simulate` for the common build-run-report path.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Mapping[CoreId, MemoryTrace],
        start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
        event_sink: Optional[Callable[[SimEvent], None]] = None,
    ) -> None:
        self.config = config
        # Kept for the run identity a checkpoint is keyed and guarded by.
        self.traces = traces
        self.start_cycles = start_cycles
        self.system = System(config, traces, start_cycles)
        self.engine = SlotEngine(self.system)
        if event_sink is not None:
            self.engine.attach_event_sink(event_sink)
        self.monitor = None
        if config.checked:
            # Imported lazily: repro.robustness imports the sim layer.
            from repro.robustness.invariants import InvariantMonitor

            self.monitor = InvariantMonitor.install_checked(self.engine)

    def run(self) -> SimReport:
        """Run to completion (or the slot cap) and return the report."""
        report = self.engine.run()
        # Post-run sanity: the model must leave the hierarchy coherent.
        self.system.check_inclusivity()
        return report

    def checkpoint(self, path):
        """Write a crash-consistent checkpoint of the current state.

        See :mod:`repro.robustness.checkpoint` for the format and the
        guarantees.  Returns the written path.
        """
        # Imported lazily: repro.robustness imports the sim layer.
        from repro.robustness.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    @classmethod
    def restore(
        cls,
        path,
        config: SystemConfig,
        traces: Mapping[CoreId, MemoryTrace],
        start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
    ) -> "Simulator":
        """Rebuild a simulator and load a checkpoint into it.

        ``config``, ``traces`` and ``start_cycles`` must match the ones
        the checkpoint was written under (verified by run identity); the
        run then continues bit-identically to one that was never
        interrupted.
        """
        from repro.robustness.checkpoint import (
            load_checkpoint,
            restore_simulator,
        )

        payload = load_checkpoint(path)
        sim = cls(config, traces, start_cycles)
        restore_simulator(sim, payload)
        return sim


def simulate(
    config: SystemConfig,
    traces: Mapping[CoreId, MemoryTrace],
    start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
    event_sink: Optional[Callable[[SimEvent], None]] = None,
) -> SimReport:
    """Build the system described by ``config``, replay ``traces``.

    ``start_cycles`` optionally delays a core's first access — used by
    scripted scenarios that need a precise initial cache state (e.g. the
    Section 4.1 witness fills the set before the victim's request).
    ``event_sink`` streams every engine event as it happens (see
    :class:`repro.obs.tracing.JsonlTraceSink`), independent of
    ``record_events``.  ``config.engine`` picks the slot engine.

    When the run context carries a result cache
    (``run_context(result_cache=...)``, the CLI's ``--cache DIR``),
    the call first looks up its canonical fingerprint
    — full config, traces, engine, model version — and a hit returns
    the stored report without simulating, byte-identical to a fresh
    run (reports, metrics exports, figures; see
    ``docs/PERFORMANCE.md``).  A miss simulates as usual and stores the
    finished report.  When the run context carries an auto-checkpoint
    policy (``run_context(checkpoints=...)``, the CLI's
    ``--checkpoint-dir``), the simulation saves a checkpoint every
    ``policy.every_slots`` slots and resumes from one left by a killed
    run; fork-pool workers inherit both, which is how campaign tasks
    cache and checkpoint transparently.

    A run with a streaming ``event_sink`` bypasses both: the sink's side
    effects happen during the run, so they can neither be replayed from
    a stored result nor rewound to a checkpoint.
    """
    if event_sink is not None:
        return Simulator(config, traces, start_cycles, event_sink).run()
    cache = current_run_context().result_cache
    if cache is None:
        return _simulate_uncached(config, traces, start_cycles)
    cached = cache.lookup(config, traces, start_cycles)
    if cached is not None:
        return cached
    report = _simulate_uncached(config, traces, start_cycles)
    cache.store(config, traces, start_cycles, report)
    return report


def _simulate_uncached(
    config: SystemConfig,
    traces: Mapping[CoreId, MemoryTrace],
    start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
) -> SimReport:
    """The build-run-report path of :func:`simulate`, cache-free."""
    policy = current_run_context().checkpoints
    if policy is None:
        return Simulator(config, traces, start_cycles).run()
    from repro.common.fileio import Durability
    from repro.robustness.checkpoint import default_checkpoint_path, run_resumable

    # Auto-checkpoints are an accelerator the run can live without:
    # save them BEST-EFFORT so a full scratch directory degrades the
    # store instead of killing the run.
    return run_resumable(
        config,
        traces,
        path=default_checkpoint_path(policy.directory, config, traces, start_cycles),
        every_slots=policy.every_slots,
        start_cycles=start_cycles,
        durability=Durability.BEST_EFFORT,
        site="auto-checkpoint",
    )
