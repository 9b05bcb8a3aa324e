"""Robustness layer: invariant monitoring, fault injection, crash tolerance.

Three pieces, one goal — trust the numbers the simulator reports:

* :mod:`repro.robustness.invariants` — a per-slot runtime monitor that
  checks model invariants (inclusivity, TDM slot accounting, sequencer
  FIFO discipline, analytical latency bounds, …) while a simulation
  runs; enabled with ``SystemConfig(checked=True)``.
* :mod:`repro.robustness.faults` — deterministic fault injection that
  *proves* the monitor fires: every fault class maps to an invariant
  that catches it.
* :mod:`repro.robustness.iofault` — deterministic *filesystem* fault
  injection (ENOSPC, EIO, short writes, fsync/rename failure, read
  corruption, …) through the instrumented I/O seam of
  :mod:`repro.common.fileio`, proving every persistence layer's
  durability-class response (retry / loud failure / circuit-breaker
  degradation).
* :mod:`repro.robustness.runner` — a crash-tolerant campaign runner
  (timeouts, bounded retry, quarantine, manifest-based resume) wrapping
  the experiment suite and seed sweeps.
* :mod:`repro.robustness.oracle` — a differential oracle: a dumb,
  independently-written replay of the event stream that re-derives
  slot ownership, LLC contents, sequencer FIFO order and per-request
  latencies, plus the analytical Theorem 4.7/4.8 bound check.
* :mod:`repro.robustness.fuzz` — seeded, boundary-biased chaos-fuzz
  campaigns over the (config × workload × schedule) space, judged by
  the oracle and driven through the campaign runner.
* :mod:`repro.robustness.shrink` — a delta-debugging minimizer that
  reduces any failing fuzz case to a self-contained JSON repro
  artifact (``repro-llc repro FILE`` replays it).
"""
