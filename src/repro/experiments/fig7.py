"""Figure 7: observed WCL of SS, NSS and P versus the analytical bounds.

Section 5.1: all configurations use a one-set partition to force as many
conflicts as possible; the observed WCL of every configuration must sit
under its analytical bound (5000 cycles for SS, 979 250 for NSS, 450
for P at the paper's parameters), with NSS observing a higher WCL than
SS because distance can increase (Observation 3).

The non-steered rows run through :func:`repro.sim.simulator.simulate`
and therefore honour an installed result cache (the CLI's ``--cache``);
the adversarially *steered* rows drive the :class:`Simulator` directly
and are always recomputed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

from repro.analysis.verification import derive_core_bounds
from repro.experiments.configs import fig7_system
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionKind, PartitionNotation
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.sim.sweeps import GridCell, run_grid
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

#: Byte ranges swept on the x-axis ("across all address ranges").
DEFAULT_ADDRESS_RANGES: Tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class Fig7Row:
    """One (configuration, address range) cell of Figure 7."""

    config: str
    address_range: int
    observed_wcl: int
    analytical_wcl: int
    #: Whether the run hit the slot cap before every trace finished.
    timed_out: bool = False
    #: Whether the run stopped with cores still holding an uncompleted
    #: request (the starvation signature).
    starved: bool = False

    @property
    def complete(self) -> bool:
        """Whether the underlying run finished and can carry evidence."""
        return not (self.timed_out or self.starved)

    @property
    def within_bound(self) -> bool:
        """Whether the observation respects the analytical bound.

        A broken run (timed out / starved cores) reports an observed
        WCL over only the requests that completed — a fully wedged run
        reports 0 — so it must FAIL the bound check rather than pass it
        vacuously.
        """
        return self.complete and self.observed_wcl <= self.analytical_wcl


@dataclass
class Fig7Result:
    """All rows of the Figure 7 reproduction."""

    rows: List[Fig7Row]
    #: Merged per-cell metrics (``run_fig7(with_metrics=True)`` only),
    #: every series labelled ``config=<notation>, range=<bytes>``.
    metrics: Optional["MetricsRegistry"] = None

    def for_config(self, config: str) -> List[Fig7Row]:
        """Rows of one configuration, by address range."""
        return [row for row in self.rows if row.config == config]

    def max_observed(self, config: str) -> int:
        """The configuration's observed WCL across all ranges."""
        return max((row.observed_wcl for row in self.for_config(config)), default=0)

    def all_within_bounds(self) -> bool:
        """The paper's headline check: every observation under its bound.

        False when any run is broken (timed out / starved) — such a row
        carries no WCL evidence and must not pass vacuously.
        """
        return all(row.within_bound for row in self.rows)

    def all_complete(self) -> bool:
        """Whether every cell's simulation ran to completion."""
        return all(row.complete for row in self.rows)

    def render(self) -> str:
        """The figure as a text table."""
        return render_table(
            headers=["config", "range(B)", "observed WCL", "analytical WCL", "ok"],
            rows=[
                [
                    row.config,
                    row.address_range,
                    row.observed_wcl,
                    row.analytical_wcl,
                    "yes"
                    if row.within_bound
                    else ("BROKEN" if not row.complete else "VIOLATED"),
                ]
                for row in self.rows
            ],
            title="Figure 7: observed vs analytical WCL (cycles)",
        )


#: The three Figure 7 configurations, in the paper's notation.
FIG7_CONFIGS: Tuple[str, ...] = ("SS(1,16,4)", "NSS(1,16,4)", "P(1,16)")


def run_fig7(
    address_ranges: Sequence[int] = DEFAULT_ADDRESS_RANGES,
    num_requests: int = 400,
    seed: int = 2022,
    adversarial: bool = False,
    checked: bool = False,
    jobs: int = 1,
    with_metrics: bool = False,
    engine: Optional[str] = None,
) -> Fig7Result:
    """Run the full Figure 7 sweep.

    Every configuration replays the *same* per-core address streams for
    a given range (Section 5: "a core issues the same memory addresses
    across different partitioned configurations"), guaranteed here
    because the workload seed never includes the configuration.

    With ``adversarial=True`` the shared configurations run with the
    max-distance oracle replacement and write-back-first arbitration
    (the tightness experiment's steering).  Under symmetric LRU storms
    the global LRU victim is almost always the requester's own line, so
    the unsteered sweep under-exercises cross-core interference;
    steering restores the paper's "NSS higher than SS across all
    address ranges" separation per range.

    With ``checked=True`` every simulation runs under the per-slot
    invariant monitor (:mod:`repro.robustness.invariants`) — slower,
    but any model-state corruption aborts the run with an
    :class:`~repro.common.errors.InvariantViolation` instead of
    polluting the figure.

    The configuration × address-range grid runs through
    :func:`repro.sim.sweeps.run_grid`, so ``jobs > 1`` gives the same
    rows and metrics as a serial run; with ``with_metrics=True`` each
    cell's series are labelled ``config``/``range``.  Every bound comes
    from :func:`repro.analysis.verification.derive_core_bounds`.

    ``engine`` overrides :attr:`SystemConfig.engine` for every cell
    (``"fast"`` or ``"reference"``); the fast engine's idle-slot
    jumps are report-identical, so the figure is the same either way.
    """
    cells: List[GridCell] = []
    for notation_text in FIG7_CONFIGS:
        notation = PartitionNotation.parse(notation_text)
        steer = adversarial and notation.kind is not PartitionKind.P
        config = (
            _adversarial_system(notation) if steer else fig7_system(notation.kind)
        )
        config = dataclasses.replace(
            config, checked=checked, engine=engine or config.engine
        )
        # Every core of a Figure 7 platform has the same bound.
        bound = derive_core_bounds(config)[0].finite_cycles()
        for address_range in address_ranges:
            cells.append(
                GridCell(
                    config,
                    partial(_run_one, config, address_range, num_requests, seed, steer),
                    partial(_row, notation_text, address_range, bound),
                    {"config": notation_text, "range": address_range},
                )
            )
    rows, metrics = run_grid(cells, jobs, with_metrics)
    return Fig7Result(rows=rows, metrics=metrics)


def _row(config: str, address_range: int, bound: int, report: SimReport) -> Fig7Row:
    return Fig7Row(
        config=config,
        address_range=address_range,
        observed_wcl=report.observed_wcl(),
        analytical_wcl=bound,
        timed_out=report.timed_out,
        starved=bool(report.starved_cores()),
    )


def _adversarial_system(notation: PartitionNotation):
    from repro.bus.arbiter import ArbitrationPolicy
    from repro.experiments.configs import build_system_for_notation

    config = build_system_for_notation(
        str(notation), num_cores=4, llc_policy="oracle"
    )
    return dataclasses.replace(
        config, arbitration=ArbitrationPolicy.WRITEBACK_FIRST
    )


def _run_one(
    config,
    address_range: int,
    num_requests: int,
    seed: int,
    steer: bool = False,
) -> SimReport:
    from repro.sim.simulator import Simulator

    workload = SyntheticWorkloadConfig(
        num_requests=num_requests,
        address_range_size=address_range,
        line_size=config.line_size,
        write_fraction=1.0,
        seed=seed,
    )
    traces = generate_disjoint_workload(workload, list(range(config.num_cores)))
    if not steer:
        return simulate(config, traces)
    from repro.experiments.tightness import install_adversarial_replacement

    sim = Simulator(config, traces)
    install_adversarial_replacement(sim)
    return sim.run()
