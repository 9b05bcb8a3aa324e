"""Unit tests for the distance tracker and the bounds' sensitivity to
the sharer count, the way count and the partition size."""

from dataclasses import replace

import pytest

from repro.analysis.distance import DistanceTracker, line_distance
from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_nss_cycles,
    wcl_reduction_factor,
    wcl_ss_cycles,
)
from repro.bus.schedule import TdmSchedule, one_slot_tdm
from repro.common.errors import AnalysisError


def base_params():
    return SharedPartitionParams(
        total_cores=4,
        sharers=4,
        ways=16,
        partition_lines=32,
        core_capacity_lines=64,
        slot_width=50,
    )


class TestLineDistance:
    def test_unowned_line_has_no_distance(self):
        assert line_distance(one_slot_tdm(4, 50), None, 0) is None

    def test_matches_schedule_distance(self):
        schedule = one_slot_tdm(4, 50)
        assert line_distance(schedule, 3, 0) == 1
        assert line_distance(schedule, 1, 0) == 3


class TestDistanceTracker:
    def make_tracker(self):
        return DistanceTracker(schedule=one_slot_tdm(4, 50), observer=0)

    def test_records_trajectory(self):
        tracker = self.make_tracker()
        tracker.record(0, block=5, owner=2)
        tracker.record(100, block=5, owner=3)
        assert tracker.trajectory(5) == [2, 1]

    def test_observation1_non_increasing(self):
        # Figure 3: owner goes c3 -> c4 -> freed; distance 2 -> 1 -> None.
        tracker = self.make_tracker()
        tracker.record(0, 5, owner=2)
        tracker.record(100, 5, owner=3)
        tracker.record(200, 5, owner=None)
        assert tracker.is_non_increasing(5)
        assert tracker.increases(5) == 0

    def test_observation3_increase_detected(self):
        # Figure 4: after c_ua's write-back the owner jumps from c4
        # (distance 1) to c2 (distance 3... here owner index 1).
        tracker = self.make_tracker()
        tracker.record(0, 5, owner=3)   # distance 1
        tracker.record(100, 5, owner=1)  # distance 3 — increased
        assert not tracker.is_non_increasing(5)
        assert tracker.increases(5) == 1

    def test_gap_resets_comparison(self):
        # Freed then re-occupied by a farther owner is legal: the
        # comparison must not span the None gap.
        tracker = self.make_tracker()
        tracker.record(0, 5, owner=3)       # distance 1
        tracker.record(100, 5, owner=None)  # freed
        tracker.record(200, 5, owner=1)     # distance 3 after the gap
        assert tracker.is_non_increasing(5)

    def test_unknown_block_is_trivially_monotone(self):
        assert self.make_tracker().is_non_increasing(99)

    def test_requires_one_slot_schedule(self):
        with pytest.raises(Exception):
            DistanceTracker(schedule=TdmSchedule((0, 1, 1), 50), observer=0)

    def test_observer_must_be_scheduled(self):
        with pytest.raises(AnalysisError):
            DistanceTracker(schedule=one_slot_tdm(2, 50), observer=5)


def vary(parameter, value):
    """``base_params()`` with n, w or M set to ``value``.

    More sharers than cores raise the core count; a new way count keeps
    the set count, as a way-partitioned LLC does.
    """
    base = base_params()
    if parameter == "sharers":
        return replace(base, sharers=value, total_cores=max(base.total_cores, value))
    if parameter == "ways":
        sets = base.partition_lines // base.ways
        return replace(base, ways=value, partition_lines=sets * value)
    return replace(base, partition_lines=value)


SWEEPS = {
    "sharers": (2, 3, 4),
    "ways": (2, 4, 8, 16),
    "partition_lines": (16, 32, 64),
}


class TestBoundSensitivity:
    @pytest.mark.parametrize("parameter", ["sharers", "ways", "partition_lines"])
    def test_nss_grows(self, parameter):
        nss = [wcl_nss_cycles(vary(parameter, value)) for value in SWEEPS[parameter]]
        assert nss == sorted(nss) and nss[0] < nss[-1]

    @pytest.mark.parametrize("parameter", ["ways", "partition_lines"])
    def test_ss_flat(self, parameter):
        # Theorem 4.8 depends on neither the way count nor the partition size.
        ss = {wcl_ss_cycles(vary(parameter, value)) for value in SWEEPS[parameter]}
        assert len(ss) == 1

    @pytest.mark.parametrize("partition_lines", SWEEPS["partition_lines"])
    def test_reduction_is_nss_over_ss(self, partition_lines):
        params = vary("partition_lines", partition_lines)
        assert wcl_reduction_factor(params) == pytest.approx(
            wcl_nss_cycles(params) / wcl_ss_cycles(params)
        )
