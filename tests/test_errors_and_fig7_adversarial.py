"""Error-hierarchy checks and the adversarial Figure 7 variant."""

import pytest

from repro.common.errors import (
    AnalysisError,
    CampaignError,
    ConfigurationError,
    GeometryError,
    InvariantViolation,
    PartitionError,
    ReproError,
    ScheduleError,
    SimulationError,
    TaskTimeoutError,
    TraceError,
)
from repro.experiments.fig7 import run_fig7


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            ConfigurationError,
            GeometryError,
            ScheduleError,
            PartitionError,
            SimulationError,
            InvariantViolation,
            TraceError,
            AnalysisError,
            CampaignError,
            TaskTimeoutError,
        ],
    )
    def test_everything_derives_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    @pytest.mark.parametrize(
        "error", [GeometryError, ScheduleError, PartitionError]
    )
    def test_configuration_refinements(self, error):
        assert issubclass(error, ConfigurationError)

    def test_simulation_error_is_not_configuration(self):
        # Internal invariant failures must be distinguishable from bad
        # user input.
        assert not issubclass(SimulationError, ConfigurationError)

    def test_catching_the_base_class_catches_everything(self):
        from repro.llc.partition import PartitionNotation

        with pytest.raises(ReproError):
            PartitionNotation.parse("garbage")

    def test_invariant_violation_is_a_simulation_error(self):
        # Checked mode reports model corruption through the same
        # channel the engine's own guards use.
        assert issubclass(InvariantViolation, SimulationError)

    def test_task_timeout_is_a_campaign_error(self):
        assert issubclass(TaskTimeoutError, CampaignError)
        assert not issubclass(CampaignError, SimulationError)

    def test_invariant_violation_carries_context(self):
        violation = InvariantViolation(
            "inclusivity", "stale copy", slot=12, core=2, set_index=0
        )
        assert violation.invariant == "inclusivity"
        assert violation.slot == 12
        assert violation.core == 2
        assert violation.set_index == 0
        assert "slot 12" in str(violation)


class TestFig7Adversarial:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(
            address_ranges=(1024, 4096), num_requests=150, adversarial=True
        )

    def test_still_within_bounds(self, result):
        assert result.all_within_bounds()

    def test_nss_exceeds_ss_at_every_range(self, result):
        ss = {r.address_range: r.observed_wcl for r in result.for_config("SS(1,16,4)")}
        for row in result.for_config("NSS(1,16,4)"):
            assert row.observed_wcl > ss[row.address_range]

    def test_private_partition_untouched_by_steering(self, result):
        for row in result.for_config("P(1,16)"):
            assert row.observed_wcl <= 450

    def test_cli_flag(self, capsys):
        from repro.cli import main

        assert main(["fig7", "--requests", "60", "--adversarial"]) == 0
        assert "Figure 7" in capsys.readouterr().out
