"""The slot-accurate trace-driven simulator.

This package reproduces the paper's "in-house trace simulator that
simulates the cache subsystem of a four-core system" (Section 5),
generalised to any core count, geometry and partition map.  Time
advances in TDM bus slots; private-cache execution is folded between
slot boundaries.
"""

from repro.sim.cache import SimResultCache
from repro.sim.codec import run_identity, run_key
from repro.sim.config import SystemConfig
from repro.sim.events import EventKind, SimEvent, EventLog
from repro.sim.parallel import (
    PoolResult,
    TaskPool,
    effective_jobs,
    parallel_available,
    run_parallel,
)
from repro.sim.report import CoreReport, RequestRecord, SimReport
from repro.sim.simulator import Simulator, simulate
from repro.sim.sweeps import SweepResult, compare_configs, sweep_seeds

__all__ = [
    "SimResultCache",
    "run_identity",
    "run_key",
    "SystemConfig",
    "EventKind",
    "SimEvent",
    "EventLog",
    "CoreReport",
    "RequestRecord",
    "SimReport",
    "Simulator",
    "simulate",
    "SweepResult",
    "compare_configs",
    "sweep_seeds",
    "PoolResult",
    "TaskPool",
    "effective_jobs",
    "parallel_available",
    "run_parallel",
]
