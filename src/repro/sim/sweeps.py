"""Seed sweeps: distributional results instead of single-run numbers.

A single seed gives one sample of observed WCL / execution time; the
WCL experiments in particular care about the *maximum over runs*.  This
module runs the same configuration across many workload seeds and
aggregates — the standard methodology step between "we simulated once"
and a reportable number.

Every run goes through :func:`repro.sim.simulator.simulate`, so the
run context's result cache (``run_context(result_cache=...)``, the
CLI's ``--cache DIR``) applies per seed: re-running a sweep with
unchanged configs and seeds replays the stored reports byte-identically
instead of simulating.

A seed sweep is one grid of independent runs; :func:`run_grid` is the
runner of every such grid (Figures 7 and 8, notation comparisons and
seed sweeps).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
from repro.common.types import CoreId, Cycle
from repro.common.validation import require
from repro.sim.config import SystemConfig
from repro.sim.parallel import run_parallel
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace

#: Builds one seed's per-core traces.
TraceFactory = Callable[[int], Mapping[CoreId, MemoryTrace]]


class GridCell(NamedTuple):
    """One independent simulation of a grid run by :func:`run_grid`."""

    #: The simulated configuration; its slot width sets the width of
    #: the cell's latency histogram buckets.
    config: SystemConfig
    #: Runs the cell's simulation.
    run: Callable[[], SimReport]
    #: What the caller keeps of the report (a row, a makespan, ...).
    summarize: Callable[[SimReport], Any]
    #: Labels scoping every series of the cell's metrics.
    labels: Mapping[str, object]


def run_grid(
    cells: Sequence[GridCell], jobs: int, with_metrics: bool
) -> Tuple[List[Any], Optional["MetricsRegistry"]]:
    """Run independent cells; return their summaries and merged metrics.

    The cells are one task list for
    :func:`repro.sim.parallel.run_parallel`, which runs them inline or,
    with ``jobs > 1``, in worker processes.  Each cell is reduced where
    it ran: its report becomes ``summarize(report)`` and, with
    ``with_metrics=True``, a registry relabelled with the cell's labels,
    so no report crosses a process boundary.  Summaries come back and
    registries merge in cell order, so the result is byte-identical at
    every ``jobs``.  Tasks are named by cell position, so no two cells
    can collide in the pool whatever their labels.
    """

    def reduce(cell: GridCell) -> Tuple[Any, Optional["MetricsRegistry"]]:
        report = cell.run()
        if not with_metrics:
            return cell.summarize(report), None
        from repro.obs.collect import collect_metrics

        registry = collect_metrics(report, cell.config.slot_width)
        return cell.summarize(report), registry.relabel(**cell.labels)

    outcomes = run_parallel(
        [
            (f"cell-{index}", partial(reduce, cell))
            for index, cell in enumerate(cells)
        ],
        jobs,
    )
    metrics = None
    if with_metrics:
        from repro.obs.metrics import merge_all

        metrics = merge_all([registry for _, registry in outcomes])
    return [summary for summary, _ in outcomes], metrics


@dataclass(frozen=True)
class SweepResult:
    """Aggregates over one configuration's seed sweep."""

    seeds: tuple
    observed_wcls: tuple
    makespans: tuple
    #: Merged per-seed metrics (``sweep_seeds(with_metrics=True)``
    #: only), every series labelled ``seed=<seed>``.  Excluded from
    #: equality: two sweeps are "the same sweep" by their aggregates.
    metrics: Optional["MetricsRegistry"] = field(default=None, compare=False)

    @property
    def max_observed_wcl(self) -> Cycle:
        """The reportable observed WCL: the max across seeds."""
        return max(self.observed_wcls)

    @property
    def mean_makespan(self) -> float:
        """Average execution time across seeds."""
        return sum(self.makespans) / len(self.makespans)

    @property
    def wcl_spread(self) -> Cycle:
        """Max minus min observed WCL (seed sensitivity)."""
        return max(self.observed_wcls) - min(self.observed_wcls)


def require_complete_run(report: SimReport, context: str = "run") -> None:
    """Fail loudly when a report cannot carry WCL evidence.

    A run that hit the slot cap (``timed_out``) or stopped with starved
    cores reports an ``observed_wcl`` computed over the requests that
    *did* complete — ``max(..., default=0)`` — so a fully wedged run
    reports WCL 0 and would vacuously "pass" any analytical bound.
    Every sweep/bound check must reject such reports instead of
    treating them as evidence.
    """
    starved = report.starved_cores()
    if report.timed_out or starved:
        raise SimulationError(
            f"{context} did not complete (timed_out={report.timed_out}, "
            f"starved_cores={starved}); its observed WCL of "
            f"{report.observed_wcl()} cycles covers only the requests "
            "that finished and cannot be checked against a bound"
        )


def run_seed(
    config: SystemConfig,
    trace_factory: TraceFactory,
    seed: int,
    check: Optional[Callable[[SimReport], None]] = None,
    allow_incomplete: bool = False,
) -> SimReport:
    """Run one seed of a sweep; the unit of work sweep runners schedule.

    ``check`` (e.g. a bound assertion) runs on the report before it is
    returned; its exception propagates with the offending seed attached.
    A crash-tolerant sweep hands ``(f"seed-{seed}", partial(run_seed,
    ...))`` tasks to :class:`repro.robustness.runner.CampaignRunner`.

    A timed-out or starved run raises :class:`SimulationError` (before
    ``check`` sees it) unless ``allow_incomplete=True``: an incomplete
    run's observed WCL covers only the requests that finished, so
    letting it flow into bound checks would pass them vacuously.
    """
    report = simulate(config, trace_factory(seed))
    if not allow_incomplete:
        require_complete_run(report, context=f"seed {seed}")
    if check is not None:
        try:
            check(report)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc
    return report


def sweep_seeds(
    config: SystemConfig,
    trace_factory: TraceFactory,
    seeds: Sequence[int],
    check: Optional[Callable[[SimReport], None]] = None,
    jobs: int = 1,
    with_metrics: bool = False,
) -> SweepResult:
    """Run ``config`` once per seed; optionally verify each report.

    The seeds are the cells of one :func:`run_grid`, so the result is
    byte-identical at every ``jobs``; with ``with_metrics=True`` each
    seed's series are labelled ``seed=<seed>``.  Repeated seeds are
    refused: they would run the same simulation twice and merge its
    metrics into one series.
    """
    require(bool(seeds), "sweep needs at least one seed", ConfigurationError)
    repeated = sorted(seed for seed, n in Counter(seeds).items() if n > 1)
    require(
        not repeated,
        f"sweep seeds must be distinct; repeated: {repeated}",
        ConfigurationError,
    )
    summaries, metrics = run_grid(
        [
            GridCell(
                config,
                partial(run_seed, config, trace_factory, seed, check),
                lambda report: (report.observed_wcl(), report.makespan),
                {"seed": seed},
            )
            for seed in seeds
        ],
        jobs,
        with_metrics,
    )
    observed_wcls, makespans = zip(*summaries)
    return SweepResult(tuple(seeds), observed_wcls, makespans, metrics)
