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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
)

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
from repro.common.types import CoreId, Cycle
from repro.common.validation import require
from repro.sim.config import SystemConfig
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace

#: Builds one seed's per-core traces.
TraceFactory = Callable[[int], Mapping[CoreId, MemoryTrace]]


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

    @classmethod
    def from_reports(
        cls,
        seeds: Sequence[int],
        reports: Sequence[SimReport],
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "SweepResult":
        """Aggregate one report per seed, in seed order."""
        return cls(
            seeds=tuple(seeds),
            observed_wcls=tuple(report.observed_wcl() for report in reports),
            makespans=tuple(report.makespan for report in reports),
            metrics=metrics,
        )

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
    The crash-tolerant sweep (:func:`repro.robustness.runner.sweep_seeds_robust`)
    wraps exactly this function per task.

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

    The seeds are one task each for
    :func:`repro.sim.parallel.run_parallel`, which runs them inline or,
    with ``jobs > 1``, in worker processes; results are aggregated in
    canonical seed order, so the returned :class:`SweepResult` is
    bit-identical either way.  With ``with_metrics=True`` each seed's
    report is distilled into a ``seed``-labelled registry and merged in
    seed order into ``result.metrics`` — the same canonical-order merge,
    so parallel metrics equal serial metrics byte for byte.
    """
    from repro.sim.parallel import run_parallel

    require(bool(seeds), "sweep needs at least one seed", ConfigurationError)
    reports = run_parallel(
        [
            (
                f"seed-{seed}",
                lambda seed=seed: run_seed(config, trace_factory, seed, check),
            )
            for seed in seeds
        ],
        jobs,
    )
    metrics = None
    if with_metrics:
        from repro.obs.collect import collect_metrics
        from repro.obs.metrics import merge_all

        metrics = merge_all(
            [
                collect_metrics(report, config.slot_width).relabel(seed=seed)
                for seed, report in zip(seeds, reports)
            ]
        )
    return SweepResult.from_reports(seeds, reports, metrics)


def compare_configs(
    configs: Mapping[str, SystemConfig],
    trace_factory: TraceFactory,
    seeds: Sequence[int],
    jobs: int = 1,
) -> Dict[str, SweepResult]:
    """Sweep several configurations over the *same* seeded workloads.

    The factory receives only the seed, so every configuration replays
    identical traces — the paper's "same memory addresses across
    different partitioned configurations" requirement, now across a
    whole distribution.

    The whole configuration × seed grid is one task list for
    :func:`repro.sim.parallel.run_parallel` (inline, or on worker
    processes with ``jobs > 1``), re-aggregated per configuration in
    canonical (insertion, seed) order — identical either way.
    """
    from repro.sim.parallel import run_parallel

    require(bool(seeds), "sweep needs at least one seed", ConfigurationError)
    names = list(configs)
    reports = run_parallel(
        [
            (
                f"{name}/seed-{seed}",
                lambda name=name, seed=seed: run_seed(
                    configs[name], trace_factory, seed
                ),
            )
            for name in names
            for seed in seeds
        ],
        jobs,
    )
    width = len(seeds)
    return {
        name: SweepResult.from_reports(
            seeds, reports[i * width : (i + 1) * width]
        )
        for i, name in enumerate(names)
    }
