"""The DRAM behind the LLC: a read/write traffic counter.

The paper's system model (Section 3) places the DRAM directly behind the
LLC; the LLC↔DRAM interface does **not** use the TDM bus, so DRAM
traffic never competes with L2↔LLC transactions.  The analysis counts
latency purely in bus slots, which requires an LLC miss's line fetch to
complete within the requesting core's slot:
:class:`~repro.sim.config.SystemConfig` refuses an ``llc_miss_latency``
below :data:`DRAM_FETCH_LATENCY`.  No DRAM timing reaches a report, so
the model keeps only the traffic the report exports.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cycles to read one line from DRAM; an LLC miss must cover them.
DRAM_FETCH_LATENCY = 30


@dataclass
class Dram:
    """The DRAM behind the LLC, counting line reads and write-backs."""

    reads: int = 0
    writes: int = 0

    def fetch(self) -> None:
        """Count one line fetch."""
        self.reads += 1

    def write_back(self) -> None:
        """Count one line write-back."""
        self.writes += 1
