"""Every experiment's bound is the one its configuration derives.

Figure 7, Figure 8, the tightness probe and the isolation experiment
take their analytical WCL from
:func:`repro.analysis.verification.derive_core_bounds`; wherever the
configuration has a partition notation, that bound must equal the
closed form :func:`repro.analysis.wcl.analytical_wcl_cycles` gives the
notation.
"""

import dataclasses

import pytest

from repro.analysis.verification import CoreBound, derive_core_bounds
from repro.analysis.wcl import analytical_wcl_cycles
from repro.bus.schedule import TdmSchedule
from repro.common.errors import AnalysisError
from repro.experiments.configs import (
    PAPER_CORE_CAPACITY_LINES,
    build_system_for_notation,
    fig8_system,
)
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import SUBFIGURES
from repro.experiments.isolation import run_isolation
from repro.experiments.tightness import run_tightness
from repro.llc.partition import PartitionKind, PartitionNotation

#: Section 5.1's printed Figure 7 bounds.
FIG7_PAPER_BOUNDS = {"SS(1,16,4)": 5_000, "NSS(1,16,4)": 979_250, "P(1,16)": 450}


def closed_form(notation: str, total_cores: int = 4) -> int:
    return analytical_wcl_cycles(
        PartitionNotation.parse(notation),
        total_cores=total_cores,
        slot_width=50,
        core_capacity_lines=PAPER_CORE_CAPACITY_LINES,
    )


@pytest.mark.parametrize("adversarial", [False, True])
def test_fig7_bounds_are_the_paper_constants(adversarial):
    result = run_fig7(address_ranges=(1024,), num_requests=5, adversarial=adversarial)
    bounds = {row.config: row.analytical_wcl for row in result.rows}
    assert bounds == FIG7_PAPER_BOUNDS
    for notation, bound in bounds.items():
        assert bound == closed_form(notation)


def fig8_notation(kind: PartitionKind, num_cores: int, capacity: int) -> str:
    sets = capacity // 64 // 16
    if kind is PartitionKind.P:
        return f"P({sets // num_cores},16)"
    return f"{kind.name}({sets},16,{num_cores})"


@pytest.mark.parametrize("subfigure", sorted(SUBFIGURES))
@pytest.mark.parametrize("kind", list(PartitionKind), ids=lambda kind: kind.name)
def test_fig8_bounds_match_the_notation(subfigure, kind):
    num_cores, capacity = SUBFIGURES[subfigure]
    config = fig8_system(kind, num_cores, capacity)
    notation = fig8_notation(kind, num_cores, capacity)
    # The notation names exactly the layout Figure 8 runs.
    assert (
        config.partitions
        == build_system_for_notation(notation, num_cores=num_cores).partitions
    )
    expected = closed_form(notation, total_cores=num_cores)
    bounds = derive_core_bounds(config)
    assert [bound.finite_cycles() for bound in bounds.values()] == [
        expected
    ] * num_cores


def test_tightness_bounds_match_the_notation():
    result = run_tightness(repeats=1)
    for row in result.rows:
        assert row.bound == closed_form(row.config)


def test_isolation_bounds_match_the_equivalent_notations():
    # Cores 0-1 share 2 sets × 16 ways with the sequencer; cores 2 and 3
    # each own a private partition of 4 sets.
    result = run_isolation()
    assert result.shared_bound == closed_form("SS(2,16,2)")
    assert result.private_bound == closed_form("P(4,16)")


def test_an_unbounded_core_is_refused_where_a_finite_bound_is_required():
    config = build_system_for_notation("SS(1,16,4)", num_cores=4)
    # Core 0 owns two slots of the period: the schedule is not 1S-TDM.
    config = dataclasses.replace(
        config, schedule=TdmSchedule((0, 0, 1, 2, 3), 50)
    )
    bound = derive_core_bounds(config)[0]
    assert bound == CoreBound(0, "shared", "unbounded", None)
    with pytest.raises(AnalysisError, match="no finite WCL bound"):
        bound.finite_cycles()
