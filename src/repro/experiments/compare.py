"""Side-by-side configuration comparison on a common workload.

The question every deployment study asks: *for my workload, what do I
give up (WCL) and gain (throughput, capacity) by moving between
P / NSS / SS?*  This module runs one named workload suite across a list
of partition notations — same traces everywhere, per Section 5's
methodology — and reports execution time, observed and analytical WCL,
and LLC behaviour in one table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

from repro.analysis.verification import derive_core_bounds
from repro.common.errors import ConfigurationError
from repro.common.validation import require
from repro.experiments.configs import build_system_for_notation
from repro.experiments.tables import render_table
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.sim.sweeps import GridCell, run_grid
from repro.workloads.suites import get_suite


@dataclass(frozen=True)
class CompareRow:
    """One configuration's results on the common workload."""

    notation: str
    makespan: int
    observed_wcl: int
    analytical_wcl: Optional[int]
    llc_hit_rate: float
    dram_reads: int
    dram_writes: int

    @property
    def bound_headroom(self) -> Optional[float]:
        """Analytical / observed WCL; ``None`` when unbounded or unused."""
        if self.analytical_wcl is None or self.observed_wcl == 0:
            return None
        return self.analytical_wcl / self.observed_wcl


@dataclass
class CompareResult:
    """All configurations on the same workload."""

    suite: str
    rows: List[CompareRow]
    #: Merged per-notation metrics (``with_metrics=True`` only), every
    #: series labelled ``config=<notation>``.
    metrics: Optional["MetricsRegistry"] = None

    def row(self, notation: str) -> CompareRow:
        """Look one configuration up."""
        for candidate in self.rows:
            if candidate.notation == notation:
                return candidate
        raise KeyError(notation)

    def fastest(self) -> CompareRow:
        """The configuration with the smallest makespan."""
        return min(self.rows, key=lambda row: row.makespan)

    def lowest_wcl(self) -> CompareRow:
        """The configuration with the smallest observed WCL."""
        return min(self.rows, key=lambda row: row.observed_wcl)

    def render(self) -> str:
        """The comparison as a text table."""
        return render_table(
            [
                "config",
                "makespan",
                "observed WCL",
                "analytical WCL",
                "hit rate",
                "DRAM R/W",
            ],
            [
                [
                    row.notation,
                    row.makespan,
                    row.observed_wcl,
                    row.analytical_wcl if row.analytical_wcl is not None else "∞",
                    f"{row.llc_hit_rate:.2f}",
                    f"{row.dram_reads}/{row.dram_writes}",
                ]
                for row in self.rows
            ],
            title=f"Configuration comparison on suite {self.suite!r}",
        )


def compare_notations(
    notations: Sequence[str],
    suite: str = "fig7",
    num_cores: int = 4,
    num_requests: int = 300,
    address_range: int = 4096,
    seed: int = 2022,
    jobs: int = 1,
    with_metrics: bool = False,
    engine: Optional[str] = None,
) -> CompareResult:
    """Run every notation against the same suite-built traces.

    The notations are the cells of one :func:`repro.sim.sweeps.run_grid`,
    so rows come back in the caller's notation order and ``jobs > 1``
    gives the same rows and metrics as a serial run; with
    ``with_metrics=True`` each notation's series are labelled
    ``config=<notation>``.  ``engine`` overrides
    :attr:`SystemConfig.engine` for every notation's run.  Repeated
    notations are refused: they would print one row twice and merge
    both runs' metrics into one series.
    """
    require(bool(notations), "need at least one notation", ConfigurationError)
    repeated = sorted(n for n, count in Counter(notations).items() if count > 1)
    require(
        not repeated,
        f"notations must be distinct; repeated: {repeated}",
        ConfigurationError,
    )
    traces = get_suite(suite).build(
        num_cores=num_cores,
        num_requests=num_requests,
        address_range=address_range,
        seed=seed,
    )
    cells: List[GridCell] = []
    for notation in notations:
        config = build_system_for_notation(notation, num_cores=num_cores)
        config = replace(config, engine=engine or config.engine)
        bounds = derive_core_bounds(config)
        finite = [b.cycles for b in bounds.values() if b.cycles is not None]
        bound = max(finite) if len(finite) == len(bounds) else None
        cells.append(
            GridCell(
                config,
                partial(simulate, config, traces),
                partial(_row, notation, bound),
                {"config": notation},
            )
        )
    rows, metrics = run_grid(cells, jobs, with_metrics)
    return CompareResult(suite=suite, rows=rows, metrics=metrics)


def _row(notation: str, bound: Optional[int], report: SimReport) -> CompareRow:
    return CompareRow(
        notation=notation,
        makespan=report.makespan,
        observed_wcl=report.observed_wcl(),
        analytical_wcl=bound,
        llc_hit_rate=report.llc_stats.hit_rate,
        dram_reads=report.dram_reads,
        dram_writes=report.dram_writes,
    )
