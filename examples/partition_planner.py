#!/usr/bin/env python3
"""Automatic partition planning with admission control.

Feeds a six-task automotive-style taskset into the admission planner
(:func:`repro.analysis.admission.plan_admission`), which decides who
gets a private partition and who shares a sequencer-ordered one (the
paper's Section 6 vision, as an algorithm).  The resulting layout is then validated by
simulation, and the task-level WCET mathematics
(:mod:`repro.analysis.wcet`) quantifies what sharing costs each task.

Run:  python examples/partition_planner.py
"""

from repro.analysis.admission import PlatformSpec, TaskSpec, plan_admission
from repro.analysis.wcet import (
    TaskProfile,
    hybrid_wcet_bound,
    sharing_cost_factor,
)
from repro.experiments.tables import render_table
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_core_trace,
)

PLATFORM = PlatformSpec(num_cores=6, llc_sets=32, llc_ways=16, slot_width=50)

TASKS = [
    TaskSpec("brake-control", 0, latency_budget_cycles=700,
             footprint_bytes=2048, criticality="ASIL-D", allow_sharing=False),
    TaskSpec("steering", 1, latency_budget_cycles=700,
             footprint_bytes=2048, criticality="ASIL-D", allow_sharing=False),
    TaskSpec("sensor-fusion", 2, latency_budget_cycles=7000,
             footprint_bytes=16384, criticality="ASIL-B"),
    TaskSpec("navigation", 3, latency_budget_cycles=20000,
             footprint_bytes=24576, criticality="QM"),
    TaskSpec("media", 4, latency_budget_cycles=20000,
             footprint_bytes=16384, criticality="QM"),
    TaskSpec("diagnostics", 5, latency_budget_cycles=20000,
             footprint_bytes=8192, criticality="QM"),
]


def show_plan(plan) -> None:
    rows = []
    for task in TASKS:
        verdict = plan.verdicts[task.name]
        rows.append(
            [
                task.name,
                task.criticality,
                verdict.partition_name,
                task.latency_budget_cycles,
                verdict.bound_cycles,
                "yes" if verdict.admitted else "NO",
            ]
        )
    print(
        render_table(
            ["task", "crit", "partition", "budget", "WCL bound", "admitted"],
            rows,
            title="Admission plan",
        )
    )
    print(
        f"\nLLC utilisation: {plan.sets_used}/{plan.platform.llc_sets} set rows "
        f"({plan.utilization():.0%}); feasible: {plan.feasible}\n"
    )


def validate_by_simulation(plan) -> None:
    config = SystemConfig(
        num_cores=PLATFORM.num_cores,
        partitions=plan.partitions,
        llc_sets=PLATFORM.llc_sets,
        llc_ways=PLATFORM.llc_ways,
        slot_width=PLATFORM.slot_width,
    )
    traces = {}
    for task in TASKS:
        workload = SyntheticWorkloadConfig(
            num_requests=250,
            address_range_size=task.footprint_bytes,
            write_fraction=0.6,
            seed=11,
            range_stride=1 << 20,
        )
        traces[task.core] = generate_core_trace(workload, task.core)
    report = simulate(config, traces)

    rows = []
    for task in TASKS:
        verdict = plan.verdicts[task.name]
        observed = report.observed_wcl(task.core)
        rows.append(
            [
                task.name,
                observed,
                verdict.bound_cycles,
                "yes" if observed <= verdict.bound_cycles else "VIOLATED",
            ]
        )
    print(
        render_table(
            ["task", "observed WCL", "analytical bound", "within"],
            rows,
            title="Simulation check of the plan",
        )
    )


def show_sharing_cost() -> None:
    profile = TaskProfile(accesses=10_000, llc_accesses=900)
    rows = []
    for sharers in (2, 3, 4):
        factor = sharing_cost_factor(
            profile, sharers, total_cores=PLATFORM.num_cores,
            slot_width=PLATFORM.slot_width,
        )
        rows.append([sharers, f"{factor:.2f}x"])
    private = hybrid_wcet_bound(profile, 650)  # (2N+1)*SW for N=6
    print(
        render_table(
            ["sharers", "WCET bound growth vs private"],
            rows,
            title="\nTask-level cost of sharing (9% LLC-access-rate task)",
        )
    )
    print(
        f"(private-partition hybrid WCET bound for this task: "
        f"{private.total_cycles} cycles)"
    )


if __name__ == "__main__":
    plan = plan_admission(TASKS, PLATFORM)
    show_plan(plan)
    validate_by_simulation(plan)
    show_sharing_cost()
