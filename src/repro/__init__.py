"""repro — predictable sharing of last-level cache partitions.

A faithful Python reproduction of *"Predictable Sharing of Last-level
Cache Partitions for Multi-core Safety-critical Systems"* (Wu & Patel,
DAC 2022): the slot-accurate trace simulator of the paper's evaluation
platform, the worst-case latency analysis of Section 4 (Theorems 4.7
and 4.8), and the set sequencer of Section 4.5.

Quick start::

    from repro import (
        PartitionKind, SystemConfig, simulate,
        fig7_system, SyntheticWorkloadConfig, generate_disjoint_workload,
    )

    config = fig7_system(PartitionKind.SS)
    workload = SyntheticWorkloadConfig(num_requests=500, address_range_size=4096)
    traces = generate_disjoint_workload(workload, range(config.num_cores))
    report = simulate(config, traces)
    print("observed WCL:", report.observed_wcl(), "cycles")
"""

from repro.analysis.admission import (
    AdmissionPlan,
    PlatformSpec,
    TaskSpec,
    TaskVerdict,
    plan_admission,
)
from repro.analysis.distance import DistanceTracker, line_distance, tracker_from_events
from repro.analysis.interference import (
    RequestBreakdown,
    decompose_report,
    summarize,
    worst_request,
)
from repro.analysis.sensitivity import (
    SensitivityPoint,
    sweep_partition_lines,
    sweep_sharers,
    sweep_ways,
)
from repro.analysis.unbounded import StarvationWitnessResult, starvation_witness
from repro.analysis.verification import (
    BoundViolation,
    CoreBound,
    assert_bounds,
    derive_core_bounds,
    verify_bounds,
)
from repro.analysis.wcet import (
    TaskProfile,
    WcetBound,
    hybrid_wcet_bound,
    profile_task,
    sharing_cost_factor,
    static_wcet_bound,
)
from repro.analysis.wcl import (
    NssBreakdown,
    SharedPartitionParams,
    analytical_wcl_cycles,
    interference_factor,
    wcl_nss_breakdown,
    wcl_nss_cycles,
    wcl_nss_slots,
    wcl_private_cycles,
    wcl_private_slots,
    wcl_reduction_factor,
    wcl_ss_cycles,
    wcl_ss_slots,
)
from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule, distance, one_slot_tdm
from repro.common.context import RunContext, current_run_context, run_context
from repro.common.errors import (
    AnalysisError,
    CampaignError,
    CheckpointError,
    ConfigurationError,
    FormatVersionError,
    GeometryError,
    InvariantViolation,
    PartitionError,
    ObservabilityError,
    ReproError,
    ResourceExceededError,
    ScheduleError,
    SimulationError,
    TaskHungError,
    TaskTimeoutError,
    TraceError,
)
from repro.common.types import AccessType, EntryState, TransactionKind
from repro.cpu.private_stack import PrivateStackConfig
from repro.experiments.configs import (
    PAPER_CORE_CAPACITY_LINES,
    build_system_for_notation,
    fig7_system,
    fig8_system,
)
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.llc.coloring import (
    ColorGeometry,
    ColoredAllocator,
    colored_allocator_for_partition,
    colors_of_partition,
    is_colorable,
)
from repro.llc.partition import (
    PartitionKind,
    PartitionMap,
    PartitionNotation,
    PartitionSpec,
)
from repro.mem.address import AddressGeometry, AddressRange
from repro.obs.collect import collect_metrics
from repro.obs.exporters import write_metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_all,
    registry_from_rows,
)
from repro.obs.tracing import JsonlTraceSink, trace_digest
from repro.robustness.checkpoint import (
    AutoCheckpointPolicy,
    default_checkpoint_path,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
)
from repro.robustness.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    install_fault_plan,
)
from repro.robustness.fuzz import (
    FuzzCase,
    FuzzCaseResult,
    FuzzReport,
    generate_cases,
    run_fuzz,
    run_fuzz_case,
)
from repro.robustness.invariants import InvariantMonitor, standard_invariants
from repro.robustness.oracle import OracleReport, OracleViolation, check_run
from repro.robustness.runner import (
    CampaignResult,
    CampaignRunner,
    RetryPolicy,
    RobustSweepResult,
    RunManifest,
    TaskOutcome,
    campaign_metrics,
    run_all_robust,
    sweep_seeds_robust,
)
from repro.robustness.shrink import (
    ReplayResult,
    ShrinkResult,
    load_artifact,
    replay_artifact,
    shrink_case,
    write_artifact,
)
from repro.sim.cache import SimResultCache
from repro.sim.codec import run_identity, run_key
from repro.sim.config import (
    PAPER_LINE_SIZE,
    PAPER_LLC_SETS,
    PAPER_LLC_WAYS,
    PAPER_SLOT_WIDTH,
    SystemConfig,
)
from repro.sim.export import (
    LatencyStats,
    core_latency_stats,
    latency_histogram,
    percentile,
    render_histogram,
    report_to_dict,
    write_events_jsonl,
    write_report_json,
    write_requests_csv,
)
from repro.sim.parallel import (
    PoolResult,
    TaskPool,
    effective_jobs,
    parallel_available,
    run_parallel,
)
from repro.sim.report import CoreReport, RequestRecord, SimReport
from repro.sim.simulator import Simulator, simulate
from repro.sim.sweeps import SweepResult, compare_configs, run_seed, sweep_seeds
from repro.sim.timeline import render_timeline
from repro.workloads.adversarial import conflict_storm_traces, pingpong_traces
from repro.workloads.phased import (
    Phase,
    PhaseKind,
    PhasedWorkloadConfig,
    control_task_config,
    generate_phased_trace,
    generate_phased_workload,
)
from repro.workloads.suites import SuiteSpec, get_suite, register_suite, suite_names
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_core_trace,
    generate_disjoint_workload,
)
from repro.workloads.trace import MemoryTrace, TraceRecord, read_trace, write_trace

__version__ = "1.1.0"

__all__ = [
    # analysis
    "AdmissionPlan",
    "PlatformSpec",
    "TaskSpec",
    "TaskVerdict",
    "plan_admission",
    "RequestBreakdown",
    "decompose_report",
    "summarize",
    "worst_request",
    "DistanceTracker",
    "line_distance",
    "tracker_from_events",
    "SensitivityPoint",
    "sweep_partition_lines",
    "sweep_sharers",
    "sweep_ways",
    "StarvationWitnessResult",
    "starvation_witness",
    "BoundViolation",
    "CoreBound",
    "assert_bounds",
    "derive_core_bounds",
    "verify_bounds",
    "TaskProfile",
    "WcetBound",
    "hybrid_wcet_bound",
    "profile_task",
    "sharing_cost_factor",
    "static_wcet_bound",
    "NssBreakdown",
    "SharedPartitionParams",
    "analytical_wcl_cycles",
    "interference_factor",
    "wcl_nss_breakdown",
    "wcl_nss_cycles",
    "wcl_nss_slots",
    "wcl_private_cycles",
    "wcl_private_slots",
    "wcl_reduction_factor",
    "wcl_ss_cycles",
    "wcl_ss_slots",
    # bus
    "ArbitrationPolicy",
    "TdmSchedule",
    "distance",
    "one_slot_tdm",
    # errors
    "AnalysisError",
    "CampaignError",
    "CheckpointError",
    "ConfigurationError",
    "FormatVersionError",
    "GeometryError",
    "InvariantViolation",
    "ObservabilityError",
    "PartitionError",
    "ReproError",
    "ResourceExceededError",
    "ScheduleError",
    "SimulationError",
    "TaskHungError",
    "TaskTimeoutError",
    "TraceError",
    # types
    "AccessType",
    "EntryState",
    "TransactionKind",
    # observability
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "collect_metrics",
    "merge_all",
    "registry_from_rows",
    "trace_digest",
    "write_metrics",
    # components
    "PrivateStackConfig",
    "PartitionKind",
    "PartitionMap",
    "PartitionNotation",
    "PartitionSpec",
    "ColorGeometry",
    "ColoredAllocator",
    "colored_allocator_for_partition",
    "colors_of_partition",
    "is_colorable",
    "AddressGeometry",
    "AddressRange",
    # simulation
    "SystemConfig",
    "CoreReport",
    "RequestRecord",
    "SimReport",
    "SimResultCache",
    "run_identity",
    "run_key",
    "Simulator",
    "simulate",
    "render_timeline",
    "SweepResult",
    "compare_configs",
    "run_seed",
    "sweep_seeds",
    # parallel execution
    "PoolResult",
    "TaskPool",
    "effective_jobs",
    "parallel_available",
    "run_parallel",
    # robustness
    "InvariantMonitor",
    "standard_invariants",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "install_fault_plan",
    "CampaignResult",
    "CampaignRunner",
    "RetryPolicy",
    "RunContext",
    "current_run_context",
    "run_context",
    "RobustSweepResult",
    "RunManifest",
    "TaskOutcome",
    "campaign_metrics",
    "run_all_robust",
    "sweep_seeds_robust",
    "AutoCheckpointPolicy",
    "default_checkpoint_path",
    "load_checkpoint",
    "run_resumable",
    "save_checkpoint",
    "OracleReport",
    "OracleViolation",
    "check_run",
    "FuzzCase",
    "FuzzCaseResult",
    "FuzzReport",
    "generate_cases",
    "run_fuzz",
    "run_fuzz_case",
    "ReplayResult",
    "ShrinkResult",
    "load_artifact",
    "replay_artifact",
    "shrink_case",
    "write_artifact",
    "LatencyStats",
    "core_latency_stats",
    "latency_histogram",
    "percentile",
    "render_histogram",
    "report_to_dict",
    "write_events_jsonl",
    "write_report_json",
    "write_requests_csv",
    "PAPER_LINE_SIZE",
    "PAPER_LLC_SETS",
    "PAPER_LLC_WAYS",
    "PAPER_SLOT_WIDTH",
    "PAPER_CORE_CAPACITY_LINES",
    # experiments
    "build_system_for_notation",
    "fig7_system",
    "fig8_system",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    # workloads
    "Phase",
    "PhaseKind",
    "PhasedWorkloadConfig",
    "control_task_config",
    "generate_phased_trace",
    "generate_phased_workload",
    "SuiteSpec",
    "get_suite",
    "register_suite",
    "suite_names",
    "conflict_storm_traces",
    "pingpong_traces",
    "SyntheticWorkloadConfig",
    "generate_core_trace",
    "generate_disjoint_workload",
    "MemoryTrace",
    "TraceRecord",
    "read_trace",
    "write_trace",
    "__version__",
]
