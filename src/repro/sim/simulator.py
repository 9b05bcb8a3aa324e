"""The simulator facade: build a system, run it, return the report.

This is the one-call entry point most users (and all experiment
harnesses) go through::

    from repro import SystemConfig, simulate
    report = simulate(config, traces)
    print(report.observed_wcl())
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional

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
        engine: Optional[str] = None,
    ) -> None:
        if engine is not None and engine != config.engine:
            config = dataclasses.replace(config, engine=engine)
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

    def checkpoint(self, path, registry=None):
        """Write a crash-consistent checkpoint of the current state.

        See :mod:`repro.robustness.checkpoint` for the format and the
        guarantees.  Returns the written path.
        """
        # Imported lazily: repro.robustness imports the sim layer.
        from repro.robustness.checkpoint import save_checkpoint

        return save_checkpoint(self, path, registry=registry)

    @classmethod
    def restore(
        cls,
        path,
        config: SystemConfig,
        traces: Mapping[CoreId, MemoryTrace],
        start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
        event_sink: Optional[Callable[[SimEvent], None]] = None,
        engine: Optional[str] = None,
        registry=None,
    ) -> "Simulator":
        """Rebuild a simulator and load a checkpoint into it.

        ``config``, ``traces`` and ``start_cycles`` must match the ones
        the checkpoint was written under (verified by run identity); the
        run then continues bit-identically to one that was never
        interrupted.
        A run that traced events to disk must pass an ``event_sink``
        reopened from the checkpoint's recorded sink state (see
        :meth:`repro.obs.tracing.JsonlTraceSink.reopen`).
        """
        from repro.robustness.checkpoint import (
            load_checkpoint,
            restore_simulator,
        )

        payload = load_checkpoint(path, registry=registry)
        sim = cls(config, traces, start_cycles, event_sink, engine)
        restore_simulator(sim, payload)
        return sim


def simulate(
    config: SystemConfig,
    traces: Mapping[CoreId, MemoryTrace],
    start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
    event_sink: Optional[Callable[[SimEvent], None]] = None,
    engine: Optional[str] = None,
    checkpoint_path=None,
    checkpoint_every_slots: Optional[int] = None,
    checkpoint_every_secs: Optional[float] = None,
) -> SimReport:
    """Build the system described by ``config``, replay ``traces``.

    ``start_cycles`` optionally delays a core's first access — used by
    scripted scenarios that need a precise initial cache state (e.g. the
    Section 4.1 witness fills the set before the victim's request).
    ``event_sink`` streams every engine event as it happens (see
    :class:`repro.obs.tracing.JsonlTraceSink`), independent of
    ``record_events``.  ``engine`` overrides ``config.engine`` for this
    run only (``"fast"`` or ``"reference"``) — the CLI's ``--engine``
    flag lands here.

    Passing ``checkpoint_path`` (plus an interval) runs resumably: the
    simulation periodically writes a crash-consistent checkpoint and, if
    the file already exists, resumes from it instead of starting over —
    with a byte-identical final report.  When no explicit checkpoint
    arguments are given, a process-wide auto-checkpoint policy installed
    via :func:`repro.robustness.checkpoint.install_auto_checkpoints`
    (e.g. by the CLI's ``--checkpoint-dir``) applies; fork-pool workers
    inherit it, which is how campaign tasks checkpoint transparently.

    When a process-wide result cache is installed
    (:func:`repro.sim.cache.install_result_cache`, the CLI's
    ``--cache DIR``), the call first looks up its canonical fingerprint
    — full config, traces, engine, model version — and a hit returns
    the stored report without simulating, byte-identical to a fresh
    run (reports, metrics exports, figures; see
    ``docs/PERFORMANCE.md``).  A miss simulates as usual and stores the
    finished report.  Runs with a streaming ``event_sink`` bypass the
    cache: the sink's side effects happen during the run and cannot be
    replayed from a stored result.
    """
    from repro.sim.cache import active_result_cache

    cache = active_result_cache()
    if cache is not None and event_sink is None:
        cached_config = config
        if engine is not None and engine != config.engine:
            cached_config = dataclasses.replace(config, engine=engine)
        cached = cache.lookup(cached_config, traces, start_cycles)
        if cached is not None:
            return cached
        report = _simulate_uncached(
            config,
            traces,
            start_cycles,
            event_sink,
            engine,
            checkpoint_path,
            checkpoint_every_slots,
            checkpoint_every_secs,
        )
        cache.store(cached_config, traces, start_cycles, report)
        return report
    return _simulate_uncached(
        config,
        traces,
        start_cycles,
        event_sink,
        engine,
        checkpoint_path,
        checkpoint_every_slots,
        checkpoint_every_secs,
    )


def _simulate_uncached(
    config: SystemConfig,
    traces: Mapping[CoreId, MemoryTrace],
    start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
    event_sink: Optional[Callable[[SimEvent], None]] = None,
    engine: Optional[str] = None,
    checkpoint_path=None,
    checkpoint_every_slots: Optional[int] = None,
    checkpoint_every_secs: Optional[float] = None,
) -> SimReport:
    """The build-run-report path of :func:`simulate`, cache-free."""
    if checkpoint_path is None and checkpoint_every_slots is None:
        from repro.robustness.checkpoint import auto_checkpoint_policy

        policy = auto_checkpoint_policy()
        if policy is not None:
            from repro.robustness.checkpoint import (
                default_checkpoint_path,
                run_resumable,
            )

            from repro.common.fileio import Durability

            run_config = config
            if engine is not None and engine != config.engine:
                run_config = dataclasses.replace(config, engine=engine)
            # Policy-driven auto-checkpoints are an accelerator the run
            # can live without: save them BEST-EFFORT so a full scratch
            # directory degrades the store instead of killing the run.
            return run_resumable(
                config,
                traces,
                path=default_checkpoint_path(
                    policy.directory, run_config, traces, start_cycles
                ),
                every_slots=policy.every_slots,
                every_secs=policy.every_secs,
                start_cycles=start_cycles,
                event_sink=event_sink,
                engine=engine,
                durability=Durability.BEST_EFFORT,
                site="auto-checkpoint",
            )
    if checkpoint_path is None and (
        checkpoint_every_slots is not None or checkpoint_every_secs is not None
    ):
        from repro.common.errors import ConfigurationError

        raise ConfigurationError(
            "a checkpoint interval was given without checkpoint_path; "
            "pass checkpoint_path or install an auto-checkpoint policy"
        )
    if checkpoint_path is not None:
        from repro.robustness.checkpoint import run_resumable

        return run_resumable(
            config,
            traces,
            path=checkpoint_path,
            every_slots=checkpoint_every_slots,
            every_secs=checkpoint_every_secs,
            start_cycles=start_cycles,
            event_sink=event_sink,
            engine=engine,
        )
    return Simulator(config, traces, start_cycles, event_sink, engine).run()
