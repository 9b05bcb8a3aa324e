"""Chaos-fuzz campaigns over the (config × workload × schedule) space.

A fuzz **case** is a fully-serialised scenario: a small system
configuration, per-core traces, and optionally one deterministic
engine fault (:mod:`repro.robustness.faults`).  The generator is seeded
and biased toward the boundary regions where the paper's analysis is
most fragile — 1-set partitions, tiny associativity, ``m = M``
crossovers (private capacity vs partition capacity), ``n = 1``
degenerate sharing, permuted 1S-TDM orders, all-write conflict storms
that keep the PRB/PWB at full occupancy.

Every case runs with event recording on and is judged by the
differential oracle (:mod:`repro.robustness.oracle`).  Campaigns go
through the crash-tolerant :class:`~repro.robustness.runner.CampaignRunner`,
so fuzzing inherits per-case timeouts, quarantine, manifest resume and
``--jobs`` parallelism; the report is rebuilt from the manifest and is
therefore bit-identical for any job count and across resumes.

Dimensions intentionally **pinned** (the analytical bounds assume
them): round-robin PRB/PWB arbitration, in-slot self write-backs, an
unlimited sequencer QLT, hit/miss latencies that fit the slot.  Chaos
mode injects only slot-level faults (dropped / duplicated grants),
which fire deterministically and are always oracle-visible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.bus.schedule import one_slot_tdm
from repro.common.errors import FuzzError, ReproError
from repro.common.fileio import Durability, persist_text
from repro.common.types import CoreId
from repro.cpu.private_stack import PrivateStackConfig
from repro.llc.partition import PartitionSpec
from repro.robustness.faults import FaultKind, FaultPlan, install_fault_plan
from repro.robustness.oracle import OracleReport, check_run
from repro.robustness.runner import CampaignRunner, RetryPolicy, Task
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.trace import MemoryTrace, TraceRecord

#: Schema version of serialised fuzz cases (repro artifacts embed it).
FUZZ_CASE_VERSION = 1

#: Cache line size used by every generated case.
FUZZ_LINE_SIZE = 64

#: Slot cap of generated cases: generous enough that no analytically
#: bounded case can legitimately hit it (a timeout under finite bounds
#: is an oracle violation, so this must never clip a healthy run).
FUZZ_MAX_SLOTS = 100_000

#: Chaos faults are restricted to the slot-level kinds: they fire
#: unconditionally (no LLC-state precondition) and are always visible
#: to the oracle's slot accounting.
CHAOS_FAULT_KINDS = (FaultKind.DUPLICATED_SLOT, FaultKind.DROPPED_SLOT)


# ----------------------------------------------------------------------
# Case description (fully JSON-serialisable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One self-contained scenario: config + traces + optional fault."""

    case_id: str
    seed: int
    #: JSON description of the :class:`SystemConfig` (see
    #: :func:`config_from_dict`).
    config: Dict[str, Any]
    #: Per-core trace lines in the text format of
    #: :mod:`repro.workloads.trace`.
    traces: Dict[CoreId, Tuple[str, ...]]
    #: Optional fault: ``{"kind", "slot", "core", "set_index", "block"}``.
    fault: Optional[Dict[str, Any]] = None

    @property
    def total_requests(self) -> int:
        """Trace records across all cores."""
        return sum(len(lines) for lines in self.traces.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (trace keys stringified for JSON object keys)."""
        return {
            "case_version": FUZZ_CASE_VERSION,
            "case_id": self.case_id,
            "seed": self.seed,
            "config": self.config,
            "traces": {
                str(core): list(lines)
                for core, lines in sorted(self.traces.items())
            },
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        """Parse the JSON form back (inverse of :meth:`to_dict`)."""
        version = data.get("case_version")
        if version != FUZZ_CASE_VERSION:
            raise FuzzError(
                f"fuzz case has version {version!r}; this build reads "
                f"version {FUZZ_CASE_VERSION}"
            )
        try:
            return cls(
                case_id=str(data["case_id"]),
                seed=int(data["seed"]),
                config=dict(data["config"]),
                traces={
                    int(core): tuple(lines)
                    for core, lines in data["traces"].items()
                },
                fault=data.get("fault"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FuzzError(f"malformed fuzz case: {exc}") from exc


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Build the :class:`SystemConfig` a case dict describes.

    Events are always recorded — the oracle replays them.
    """
    partitions = [
        PartitionSpec(
            name=part["name"],
            sets=list(part["sets"]),
            way_range=(part["way_range"][0], part["way_range"][1]),
            cores=list(part["cores"]),
            sequencer=bool(part.get("sequencer", False)),
        )
        for part in data["partitions"]
    ]
    order = data.get("schedule_order")
    return SystemConfig(
        num_cores=data["num_cores"],
        partitions=partitions,
        slot_width=data["slot_width"],
        schedule=(
            None
            if order is None
            else one_slot_tdm(data["num_cores"], data["slot_width"], order)
        ),
        line_size=FUZZ_LINE_SIZE,
        llc_sets=data["llc_sets"],
        llc_ways=data["llc_ways"],
        stack=PrivateStackConfig(
            l1_sets=0,
            l2_sets=data["l2_sets"],
            l2_ways=data["l2_ways"],
        ),
        max_slots=data.get("max_slots", FUZZ_MAX_SLOTS),
        record_events=True,
    )


def traces_from_case(case: FuzzCase) -> Dict[CoreId, MemoryTrace]:
    """Materialise the case's per-core traces."""
    return {
        core: MemoryTrace(
            [TraceRecord.from_line(line) for line in lines],
            name=f"{case.case_id}-core{core}",
        )
        for core, lines in case.traces.items()
    }


# ----------------------------------------------------------------------
# Boundary-biased generation
# ----------------------------------------------------------------------
def _partition_geometry(rng: random.Random) -> Tuple[int, int]:
    """(sets, ways) with heavy bias toward the 1-set boundary."""
    sets = rng.choice([1, 1, 1, 2, 4])
    ways = rng.choice([1, 1, 2, 4])
    return sets, ways


def _generate_partitions(
    rng: random.Random, num_cores: int
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Carve partitions on disjoint set rows; returns (parts, S, W)."""
    if num_cores == 1:
        topology = "private"
    elif num_cores >= 3 and rng.random() < 0.25:
        topology = "mixed"
    else:
        topology = rng.choice(["shared", "shared", "shared", "private"])
    parts: List[Dict[str, Any]] = []
    next_row = 0
    max_ways = 1

    def add(name: str, cores: List[int], sequencer: bool) -> None:
        nonlocal next_row, max_ways
        sets, ways = _partition_geometry(rng)
        parts.append(
            {
                "name": name,
                "sets": list(range(next_row, next_row + sets)),
                "way_range": [0, ways],
                "cores": cores,
                "sequencer": sequencer,
            }
        )
        next_row += sets
        max_ways = max(max_ways, ways)

    if topology == "private":
        for core in range(num_cores):
            add(f"core{core}", [core], False)
    elif topology == "shared":
        add("shared", list(range(num_cores)), rng.random() < 0.5)
    else:  # mixed: one shared group plus private leftovers
        group = rng.randint(2, num_cores - 1)
        add("shared", list(range(group)), rng.random() < 0.5)
        for core in range(group, num_cores):
            add(f"core{core}", [core], False)
    return parts, next_row, max_ways


def _generate_trace(
    rng: random.Random, core: CoreId, slot_width: int
) -> Tuple[str, ...]:
    """One core's line-aligned stream over a tiny disjoint footprint."""
    length = rng.choice([0, 1, 2, 3, 4, 6, 8, 8, 12, 16, 20, 24])
    if length == 0:
        return ()
    footprint = rng.choice([1, 1, 2, 3, 4, 6, 8])
    write_bias = rng.choice([1.0, 1.0, 0.8, 0.5])
    thinky = rng.random() < 0.15
    base_block = 1 + core * 4096  # disjoint across cores (Section 5)
    records = []
    for _ in range(length):
        block = base_block + rng.randrange(footprint)
        access = "W" if rng.random() < write_bias else "R"
        think = rng.randint(0, 2 * slot_width) if thinky else 0
        line = f"{access} {block * FUZZ_LINE_SIZE:#x}"
        records.append(f"{line} +{think}" if think else line)
    return tuple(records)


def generate_case(
    rng: random.Random, index: int, fault_rate: float = 0.0
) -> FuzzCase:
    """Draw one boundary-biased case from ``rng``.

    The case's config is built (and therefore eagerly validated) before
    returning, so the generator can never hand the campaign an invalid
    scenario — a failing case always means the *engine* disagreed with
    the oracle, not that the generator drew garbage.
    """
    num_cores = rng.choice([1, 2, 2, 3, 4, 4])
    slot_width = rng.choice([45, 50, 50, 64])
    parts, llc_sets, llc_ways = _generate_partitions(rng, num_cores)
    order: Optional[List[int]] = None
    if num_cores > 1 and rng.random() < 0.3:
        order = list(range(num_cores))
        rng.shuffle(order)
    config_dict: Dict[str, Any] = {
        "num_cores": num_cores,
        "slot_width": slot_width,
        "llc_sets": llc_sets,
        "llc_ways": llc_ways,
        "l2_sets": rng.choice([1, 2, 4]),
        "l2_ways": rng.choice([1, 2]),
        "schedule_order": order,
        "max_slots": FUZZ_MAX_SLOTS,
        "partitions": parts,
    }
    traces = {
        core: _generate_trace(rng, core, slot_width)
        for core in range(num_cores)
    }
    fault: Optional[Dict[str, Any]] = None
    if fault_rate > 0 and rng.random() < fault_rate:
        kind = rng.choice(CHAOS_FAULT_KINDS)
        fault = {
            "kind": kind.value,
            "slot": rng.randint(0, 6),
            "core": None,
            "set_index": None,
            "block": None,
        }
    config_from_dict(config_dict)  # eager validation
    return FuzzCase(
        case_id=f"case-{index:05d}",
        seed=index,
        config=config_dict,
        traces=traces,
        fault=fault,
    )


# ----------------------------------------------------------------------
# Case execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCaseResult:
    """Verdict of one executed case (JSON-able, crosses process pools)."""

    case_id: str
    passed: bool
    #: ``None`` when passed; ``"oracle:<checks>"`` or ``"error:<type>"``.
    signature: Optional[str]
    violations: Tuple[Dict[str, Any], ...]
    error: Optional[str]
    error_type: Optional[str]
    fault: Optional[Dict[str, Any]]
    fault_fired: bool
    total_requests: int
    completed_requests: int
    total_slots: int

    def to_payload(self) -> Dict[str, Any]:
        """Manifest payload: everything the campaign report needs."""
        return {
            "case_id": self.case_id,
            "passed": self.passed,
            "signature": self.signature,
            "violations": list(self.violations),
            "error": self.error,
            "error_type": self.error_type,
            "fault": self.fault,
            "fault_fired": self.fault_fired,
            "total_requests": self.total_requests,
            "completed_requests": self.completed_requests,
            "total_slots": self.total_slots,
        }


def failure_signature(
    error_type: Optional[str], oracle_report: Optional[OracleReport]
) -> Optional[str]:
    """Canonical failure label used for shrinking equivalence."""
    if error_type is not None:
        return f"error:{error_type}"
    if oracle_report is not None and not oracle_report.passed:
        return "oracle:" + "+".join(oracle_report.checks_failed())
    return None


def run_fuzz_case(case: FuzzCase) -> FuzzCaseResult:
    """Execute one case and judge it with the differential oracle.

    Engine model errors (:class:`~repro.common.errors.ReproError`) are
    themselves a failure verdict — a fuzz case must never crash the
    harness, only fail it.
    """
    config = config_from_dict(case.config)
    traces = traces_from_case(case)
    sim = Simulator(config, traces)
    injector = None
    if case.fault is not None:
        plan = FaultPlan.single(
            kind=FaultKind(case.fault["kind"]),
            slot=case.fault["slot"],
            core=case.fault.get("core"),
            set_index=case.fault.get("set_index"),
            block=case.fault.get("block"),
        )
        injector = install_fault_plan(sim.engine, plan)
    error = error_type = None
    oracle_report: Optional[OracleReport] = None
    completed = 0
    total_slots = 0
    try:
        report = sim.run()
    except ReproError as exc:
        error, error_type = str(exc), type(exc).__name__
    else:
        completed = len(report.requests)
        total_slots = report.total_slots
        # A clean (fault-free) case is re-runnable, which arms the
        # oracle's engine-differential check: every fuzz campaign then
        # exercises the fast engine against the reference loop.
        oracle_report = check_run(
            report, config, traces=traces if case.fault is None else None
        )
    signature = failure_signature(error_type, oracle_report)
    return FuzzCaseResult(
        case_id=case.case_id,
        passed=signature is None,
        signature=signature,
        violations=tuple(
            v.to_dict() for v in (oracle_report.violations if oracle_report else [])
        ),
        error=error,
        error_type=error_type,
        fault=case.fault,
        fault_fired=injector is not None and not injector.unfired(),
        total_requests=case.total_requests,
        completed_requests=completed,
        total_slots=total_slots,
    )


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Deterministic outcome of one fuzz campaign.

    Built exclusively from manifest payloads (never from in-process
    timing), so a resumed campaign and any ``--jobs`` value produce the
    identical report.
    """

    budget: int
    seed: int
    fault_rate: float
    #: One payload per case, in case-id order.
    cases: List[Dict[str, Any]] = field(default_factory=list)
    #: Repro artifacts written for clean-case failures (relative names).
    artifacts: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """Failing cases with *no* injected fault — real findings."""
        return [
            c for c in self.cases if not c.get("passed") and not c.get("fault")
        ]

    @property
    def chaos_detected(self) -> int:
        """Injected faults that fired and were caught."""
        return sum(
            1
            for c in self.cases
            if c.get("fault") and c.get("fault_fired") and not c.get("passed")
        )

    @property
    def chaos_missed(self) -> List[str]:
        """Case ids whose injected fault fired yet went undetected."""
        return [
            c["case_id"]
            for c in self.cases
            if c.get("fault") and c.get("fault_fired") and c.get("passed")
        ]

    @property
    def chaos_unfired(self) -> int:
        """Injected faults whose slot the run never reached."""
        return sum(
            1
            for c in self.cases
            if c.get("fault") and not c.get("fault_fired")
        )

    @property
    def ok(self) -> bool:
        """No clean-case failure and no missed chaos fault."""
        return not self.failures and not self.chaos_missed

    def to_dict(self) -> Dict[str, Any]:
        """JSON form, stable for byte-level comparisons."""
        return {
            "fuzz_report_version": 1,
            "budget": self.budget,
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "summary": {
                "cases": len(self.cases),
                "failures": len(self.failures),
                "chaos_detected": self.chaos_detected,
                "chaos_missed": list(self.chaos_missed),
                "chaos_unfired": self.chaos_unfired,
                "ok": self.ok,
            },
            "artifacts": list(self.artifacts),
            "cases": list(self.cases),
        }

    def summary_lines(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"fuzz: {len(self.cases)} case(s), seed {self.seed}, "
            f"{len(self.failures)} failure(s)"
        ]
        if self.fault_rate > 0:
            lines.append(
                f"chaos: {self.chaos_detected} detected, "
                f"{len(self.chaos_missed)} missed, "
                f"{self.chaos_unfired} unfired"
            )
        for case in self.failures:
            lines.append(f"FAIL {case['case_id']}: {case['signature']}")
        for case_id in self.chaos_missed:
            lines.append(f"MISSED {case_id}: injected fault went undetected")
        for artifact in self.artifacts:
            lines.append(f"repro artifact: {artifact}")
        return "\n".join(lines)


def _fuzz_payload(result: Any) -> Optional[Dict[str, Any]]:
    """Manifest payload extractor for fuzz tasks."""
    if isinstance(result, FuzzCaseResult):
        return result.to_payload()
    return None


def generate_cases(
    budget: int, seed: int, fault_rate: float = 0.0
) -> List[FuzzCase]:
    """The deterministic case list of a ``(budget, seed)`` campaign."""
    if budget < 1:
        raise FuzzError(f"fuzz budget must be >= 1, got {budget}")
    if not 0 <= fault_rate <= 1:
        raise FuzzError(f"fault rate must be in [0, 1], got {fault_rate}")
    rng = random.Random(seed)
    return [generate_case(rng, index, fault_rate) for index in range(budget)]


def record_fuzz_metrics(registry: Any, report: FuzzReport) -> None:
    """Fill ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`)
    from ``report``."""
    for case in report.cases:
        status = "passed" if case.get("passed") else "failed"
        registry.counter("fuzz_cases_total", status=status).inc()
        if case.get("fault"):
            if not case.get("fault_fired"):
                result = "unfired"
            elif case.get("passed"):
                result = "missed"
            else:
                result = "detected"
            registry.counter("fuzz_chaos_total", result=result).inc()
        for violation in case.get("violations") or []:
            registry.counter(
                "fuzz_violations_total", check=violation.get("check")
            ).inc()


def run_fuzz(
    budget: int,
    seed: int = 0,
    out_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    fault_rate: float = 0.0,
    resume: bool = True,
    timeout: Optional[float] = None,
    shrink_failures: bool = True,
    max_shrink_evaluations: int = 300,
    progress: Optional[Callable[[str], None]] = None,
    registry: Optional[Any] = None,
) -> FuzzReport:
    """Run one fuzz campaign and return its deterministic report.

    With ``out_dir`` set, the campaign checkpoints to
    ``<out>/fuzz-manifest.json`` (resumable via ``resume=True``; use a
    fresh directory per ``(budget, seed, fault_rate)`` triple), writes
    the report to ``<out>/fuzz-report.json``, and — when
    ``shrink_failures`` is on — shrinks every clean-case failure to a
    minimal ``repro-<case>.json`` artifact replayable with
    ``repro-llc repro``.

    ``timeout`` runs each case in a worker the parent kills when it
    overruns (see :class:`repro.sim.parallel.TaskPool`); ``registry``
    receives only :func:`record_fuzz_metrics`, whatever ``jobs`` is.
    """
    cases = generate_cases(budget, seed, fault_rate)
    target = Path(out_dir) if out_dir is not None else None
    manifest_path = None
    if target is not None:
        target.mkdir(parents=True, exist_ok=True)
        manifest_path = target / "fuzz-manifest.json"
    runner = CampaignRunner(
        manifest_path=manifest_path,
        timeout=timeout,
        retry=RetryPolicy(max_attempts=1),
        payload_of=_fuzz_payload,
        jobs=jobs,
    )
    tasks: List[Task] = [
        (case.case_id, (lambda case=case: run_fuzz_case(case)))
        for case in cases
    ]
    campaign = runner.run(tasks, resume=resume, progress=progress)

    report = FuzzReport(budget=budget, seed=seed, fault_rate=fault_rate)
    for case in cases:
        entry = campaign.manifest.tasks[case.case_id]
        if entry.get("status") == "done" and entry.get("payload"):
            report.cases.append(entry["payload"])
        else:
            report.cases.append(
                {
                    "case_id": case.case_id,
                    "passed": False,
                    "signature": f"quarantined:{entry.get('error_type')}",
                    "violations": [],
                    "error": entry.get("error"),
                    "error_type": entry.get("error_type"),
                    "fault": case.fault,
                    "fault_fired": False,
                    "total_requests": case.total_requests,
                    "completed_requests": 0,
                    "total_slots": 0,
                }
            )

    if shrink_failures and target is not None and report.failures:
        from repro.robustness.shrink import shrink_case, write_artifact

        by_id = {case.case_id: case for case in cases}
        for failing in report.failures:
            case = by_id[failing["case_id"]]
            if failing["signature"].startswith("quarantined:"):
                continue  # harness-level failure; nothing to replay
            shrunk = shrink_case(
                case,
                signature=failing["signature"],
                max_evaluations=max_shrink_evaluations,
            )
            name = f"repro-{case.case_id}.json"
            write_artifact(target / name, shrunk)
            report.artifacts.append(name)
            if progress is not None:
                progress(
                    f"{case.case_id}: shrunk "
                    f"{shrunk.original_requests} -> "
                    f"{shrunk.minimized_requests} request(s) ({name})"
                )

    if registry is not None:
        record_fuzz_metrics(registry, report)
    if target is not None:
        persist_text(
            target / "fuzz-report.json",
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            site="fuzz-report",
            durability=Durability.ESSENTIAL,
        )
    return report
