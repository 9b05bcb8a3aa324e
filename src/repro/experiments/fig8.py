"""Figure 8: execution time at fixed total partition capacity.

Section 5.2 fixes a total LLC capacity (4096 B or 8192 B), sweeps the
address range, and compares three ways of using that capacity: all
cores sharing it with the set sequencer (SS), sharing best-effort
(NSS), or splitting it into equal private partitions (P).

Paper shape to reproduce:

* range ≤ partition size → all three configurations tie (the working
  set fits everywhere);
* range > partition → SS wins; the paper reports average speedups of
  1.34× (2-core/4096 B), 2.13× (2-core/8192 B), 1.10× (4-core/4096 B)
  and 1.02× (4-core/8192 B).

Workload interpretation.  The paper says only "random addresses within
various address ranges" with disjoint per-core ranges.  A fully
symmetric reading (every core sweeps the same range) makes sharing
capacity-neutral by construction — each core's fair share equals its
private partition — and no configuration can win, which contradicts the
published curves.  The mechanism the paper's introduction motivates
sharing with is *under-utilization*: a strict partition wastes capacity
a core does not use while starving one that needs more.  We therefore
grade the demands: core ``i`` draws from a range of ``max(range >> i,
1024)`` bytes.  Core 0 reproduces the x-axis; the lighter co-runners
leave shareable headroom, exactly the deployments Section 1 argues for.

Each grid point runs through :func:`repro.sim.simulator.simulate`, so
an installed result cache (the CLI's ``--cache``) replays previously
computed points byte-identically instead of simulating them again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

from repro.common.types import CoreId
from repro.experiments.configs import fig8_system
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionKind
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.sim.sweeps import GridCell, run_grid
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_core_trace,
)
from repro.workloads.trace import MemoryTrace

#: Smallest per-core footprint in the graded workload.
MIN_CORE_RANGE = 1024

#: Byte ranges swept per sub-figure.
DEFAULT_ADDRESS_RANGES: Tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)

#: The four sub-figures: (cores, total partition capacity in bytes).
SUBFIGURES: Dict[str, Tuple[int, int]] = {
    "8a": (2, 4096),
    "8b": (2, 8192),
    "8c": (4, 4096),
    "8d": (4, 8192),
}


@dataclass(frozen=True)
class Fig8Row:
    """Execution times of the three configurations at one range."""

    subfigure: str
    num_cores: int
    capacity_bytes: int
    address_range: int
    ss_cycles: int
    nss_cycles: int
    p_cycles: int

    @property
    def ss_speedup_vs_p(self) -> float:
        """How much faster SS finishes than the private split."""
        return self.p_cycles / self.ss_cycles if self.ss_cycles else 0.0

    @property
    def ss_speedup_vs_nss(self) -> float:
        """How much faster SS finishes than the best-effort sharing."""
        return self.nss_cycles / self.ss_cycles if self.ss_cycles else 0.0


@dataclass
class Fig8Result:
    """One sub-figure's sweep."""

    subfigure: str
    num_cores: int
    capacity_bytes: int
    rows: List[Fig8Row]
    #: Merged per-cell metrics (``run_fig8(with_metrics=True)`` only),
    #: every series labelled ``config``/``range``/``subfigure``.
    metrics: Optional["MetricsRegistry"] = None

    @property
    def per_core_private_bytes(self) -> int:
        """Capacity each core gets under the P split."""
        return self.capacity_bytes // self.num_cores

    def average_speedup_vs_p(self) -> float:
        """Geometric-free average of SS-vs-P speedups (the paper's metric)."""
        speedups = [row.ss_speedup_vs_p for row in self.rows]
        return sum(speedups) / len(speedups) if speedups else 0.0

    def average_speedup_vs_nss(self) -> float:
        """Average SS-vs-NSS speedup across the sweep."""
        speedups = [row.ss_speedup_vs_nss for row in self.rows]
        return sum(speedups) / len(speedups) if speedups else 0.0

    def rows_with_fit(self) -> List[Fig8Row]:
        """Rows whose range fits the per-core private partition."""
        return [
            row
            for row in self.rows
            if row.address_range <= self.per_core_private_bytes
        ]

    def rows_exceeding(self) -> List[Fig8Row]:
        """Rows whose range exceeds the per-core private partition."""
        return [
            row
            for row in self.rows
            if row.address_range > self.per_core_private_bytes
        ]

    def render(self) -> str:
        """The sub-figure as a text table."""
        return render_table(
            headers=[
                "range(B)",
                "SS cycles",
                "NSS cycles",
                "P cycles",
                "SSvP",
                "SSvNSS",
            ],
            rows=[
                [
                    row.address_range,
                    row.ss_cycles,
                    row.nss_cycles,
                    row.p_cycles,
                    f"{row.ss_speedup_vs_p:.2f}x",
                    f"{row.ss_speedup_vs_nss:.2f}x",
                ]
                for row in self.rows
            ],
            title=(
                f"Figure {self.subfigure}: {self.num_cores}-core, "
                f"{self.capacity_bytes}B partition — execution time"
            ),
        )


def graded_workload(
    num_cores: int,
    address_range: int,
    num_requests: int,
    seed: int,
) -> Dict[CoreId, MemoryTrace]:
    """The graded Figure 8 workload: core ``i`` sweeps ``range >> i``.

    Per-core ranges stay disjoint (stride twice the largest range) and,
    as in Section 5, a core's address stream depends only on its seed
    and range — never on the partition configuration under test.
    """
    stride = 2 * address_range
    traces: Dict[CoreId, MemoryTrace] = {}
    for core in range(num_cores):
        core_range = max(address_range >> core, MIN_CORE_RANGE)
        workload = SyntheticWorkloadConfig(
            num_requests=num_requests,
            address_range_size=core_range,
            write_fraction=1.0,
            seed=seed,
            range_stride=stride,
        )
        traces[core] = generate_core_trace(workload, core)
    return traces


#: Canonical configuration order within one Figure 8 cell.
_FIG8_KINDS = (PartitionKind.SS, PartitionKind.NSS, PartitionKind.P)


def _run_cell(config, address_range: int, num_requests: int, seed: int) -> SimReport:
    """One (range, configuration) cell on its graded workload.

    Traces are rebuilt from the seed inside the cell, so a cell is
    self-contained (parallel workers need no shared state) yet replays
    byte-identical addresses — the workload depends only on seed and
    range, never on the configuration.
    """
    traces = graded_workload(config.num_cores, address_range, num_requests, seed)
    return simulate(config, traces)


def run_fig8(
    subfigure: str,
    address_ranges: Sequence[int] = DEFAULT_ADDRESS_RANGES,
    num_requests: int = 2000,
    seed: int = 2022,
    jobs: int = 1,
    with_metrics: bool = False,
    engine: Optional[str] = None,
) -> Fig8Result:
    """Run one sub-figure (``"8a"`` .. ``"8d"``).

    The range × configuration grid runs through
    :func:`repro.sim.sweeps.run_grid`, so ``jobs > 1`` gives the same
    rows and metrics as a serial run; with ``with_metrics=True`` each
    cell's series are labelled ``config``/``range``/``subfigure``.
    ``engine`` overrides :attr:`SystemConfig.engine` per cell
    (``"fast"``/``"reference"``); the figures are bit-identical under
    either engine.
    """
    if subfigure not in SUBFIGURES:
        raise KeyError(
            f"unknown sub-figure {subfigure!r}; choose from {sorted(SUBFIGURES)}"
        )
    num_cores, capacity = SUBFIGURES[subfigure]
    cells: List[GridCell] = []
    for address_range in address_ranges:
        for kind in _FIG8_KINDS:
            config = fig8_system(kind, num_cores, capacity, seed=seed)
            config = replace(config, engine=engine or config.engine)
            cells.append(
                GridCell(
                    config,
                    partial(_run_cell, config, address_range, num_requests, seed),
                    attrgetter("makespan"),
                    dict(config=kind.name, range=address_range, subfigure=subfigure),
                )
            )
    makespans, metrics = run_grid(cells, jobs, with_metrics)
    kinds = len(_FIG8_KINDS)
    rows = [
        Fig8Row(
            subfigure,
            num_cores,
            capacity,
            address_range,
            # ss_cycles, nss_cycles, p_cycles: the _FIG8_KINDS order.
            *makespans[kinds * index : kinds * (index + 1)],
        )
        for index, address_range in enumerate(address_ranges)
    ]
    return Fig8Result(
        subfigure=subfigure,
        num_cores=num_cores,
        capacity_bytes=capacity,
        rows=rows,
        metrics=metrics,
    )
