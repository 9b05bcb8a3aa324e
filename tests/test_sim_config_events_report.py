"""Unit tests for SystemConfig validation, the event log and reports."""

import pytest

from repro.bus.schedule import TdmSchedule, one_slot_tdm
from repro.common.errors import ConfigurationError
from repro.llc.partition import PartitionSpec
from repro.sim.config import PAPER_SLOT_WIDTH, SystemConfig
from repro.sim.events import EventKind, EventLog, SimEvent

from sim_helpers import private_partitions, shared_partition, small_config


class TestSystemConfig:
    def test_default_schedule_is_one_slot(self):
        config = small_config(num_cores=3)
        schedule = config.build_schedule()
        assert schedule.is_one_slot
        assert schedule.num_cores == 3

    def test_explicit_schedule_used(self):
        schedule = TdmSchedule((0, 1, 1), 50)
        config = small_config(num_cores=2, schedule=schedule)
        assert config.build_schedule() is schedule

    def test_schedule_order_permutes(self):
        config = SystemConfig(
            num_cores=2,
            partitions=[shared_partition(2)],
            llc_sets=4,
            llc_ways=4,
            schedule=one_slot_tdm(2, PAPER_SLOT_WIDTH, (1, 0)),
        )
        assert config.build_schedule().slot_owners == (1, 0)

    def test_partition_must_cover_all_cores(self):
        with pytest.raises(ConfigurationError, match="cover"):
            SystemConfig(
                num_cores=3,
                partitions=[shared_partition(2)],
                llc_sets=4,
                llc_ways=4,
            )

    def test_hit_latency_must_fit_slot(self):
        with pytest.raises(ConfigurationError, match="fit in a slot"):
            small_config(slot_width=10)

    def test_miss_latency_must_cover_dram(self):
        with pytest.raises(ConfigurationError, match="DRAM"):
            SystemConfig(
                num_cores=2,
                partitions=[shared_partition(2)],
                llc_sets=4,
                llc_ways=4,
                llc_miss_latency=20,
                llc_hit_latency=10,
            )

    def test_schedule_core_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_cores=2,
                partitions=[shared_partition(2)],
                llc_sets=4,
                llc_ways=4,
                schedule=TdmSchedule((0, 1, 2), 50),
            )

    def test_schedule_slot_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_cores=2,
                partitions=[shared_partition(2)],
                llc_sets=4,
                llc_ways=4,
                slot_width=40,
                schedule=TdmSchedule((0, 1), 50),
            )

    def test_empty_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_cores=1, partitions=[])

    def test_paper_slot_width_constant(self):
        assert PAPER_SLOT_WIDTH == 50

    def test_describe_mentions_key_facts(self):
        text = small_config(num_cores=2, sequencer=True).describe()
        assert "2 cores" in text
        assert "1S-TDM" in text
        assert "SS" in text

    def test_period_cycles(self):
        assert small_config(num_cores=4, slot_width=50).period_cycles == 200


class TestEventLog:
    def test_append_and_query(self):
        log = EventLog()
        log.append(SimEvent(0, 0, EventKind.SLOT_IDLE, core=1))
        log.append(SimEvent(50, 1, EventKind.REQ_BROADCAST, core=0, block=4))
        assert len(log) == 2
        assert len(log.of_kind(EventKind.SLOT_IDLE)) == 1
        assert len(log.for_core(0)) == 1
        assert log.counts()[EventKind.REQ_BROADCAST] == 1

    def test_disabled_log_drops_events(self):
        log = EventLog(enabled=False)
        log.append(SimEvent(0, 0, EventKind.SLOT_IDLE))
        assert len(log) == 0

    def test_render_includes_fields(self):
        log = EventLog()
        log.append(SimEvent(50, 1, EventKind.LLC_HIT, core=2, block=0x40, set_index=3))
        text = log.render()
        assert "llc-hit" in text
        assert "core=2" in text
        assert "set=3" in text

    def test_render_limit(self):
        log = EventLog()
        for i in range(5):
            log.append(SimEvent(i, 0, EventKind.SLOT_IDLE))
        assert len(log.render(limit=2).splitlines()) == 2
