"""Unit tests for the DRAM behind the LLC."""

from repro.mem.dram import DRAM_FETCH_LATENCY, Dram
from repro.sim.config import SystemConfig


class TestDramConfig:
    def test_defaults(self):
        # The DRAM's one timing value: the fetch an LLC miss must cover.
        assert DRAM_FETCH_LATENCY == 30
        assert SystemConfig.llc_miss_latency >= DRAM_FETCH_LATENCY


class TestDram:
    def test_counts_traffic(self):
        dram = Dram()
        dram.fetch()
        dram.fetch()
        dram.write_back()
        assert dram.reads == 2
        assert dram.writes == 1
