"""System builder: instantiates every hardware component of a config.

A :class:`System` is the wired-up platform — cores with private stacks,
PRB/PWB buffers and arbiters, the partitioned LLC, per-partition set
sequencers, and the DRAM — ready for the slot engine to drive.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

from repro.bus.arbiter import PrbPwbArbiter
from repro.bus.buffers import PendingRequestBuffer, PendingWritebackBuffer
from repro.common.errors import ConfigurationError
from repro.common.types import CoreId
from repro.cpu.core import TraceDrivenCore
from repro.cpu.private_stack import PrivateStack
from repro.llc.llc import PartitionedLlc
from repro.mem.dram import Dram
from repro.sequencer.set_sequencer import SetSequencer
from repro.sim.config import SystemConfig
from repro.workloads.trace import MemoryTrace


class System:
    """All hardware components of one simulated platform."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Mapping[CoreId, MemoryTrace],
        start_cycles: Optional[Mapping[CoreId, int]] = None,
    ) -> None:
        unknown = set(traces) - set(range(config.num_cores))
        if unknown:
            raise ConfigurationError(
                f"traces given for cores {sorted(unknown)} but the system has "
                f"cores 0..{config.num_cores - 1}"
            )
        start_cycles = dict(start_cycles or {})
        unknown_starts = set(start_cycles) - set(range(config.num_cores))
        if unknown_starts:
            raise ConfigurationError(
                f"start_cycles given for unknown cores {sorted(unknown_starts)}"
            )
        self.config = config
        self.schedule = config.build_schedule()
        self.partition_map = config.build_partition_map()
        # The single shared replacement-policy RNG stream.  Every
        # RandomPolicy instance (LLC and private stacks) aliases this
        # object, so restoring its state once at the System level
        # restores them all — which is what makes "random" policies
        # checkpointable (see repro.robustness.checkpoint).
        self.rng = rng = random.Random(config.seed)
        self.llc = PartitionedLlc(
            num_sets=config.llc_sets,
            num_ways=config.llc_ways,
            partition_map=self.partition_map,
            policy=config.llc_policy,
            rng=rng,
        )
        self.dram = Dram()
        self.stacks: Dict[CoreId, PrivateStack] = {}
        self.cores: Dict[CoreId, TraceDrivenCore] = {}
        self.prbs: Dict[CoreId, PendingRequestBuffer] = {}
        self.pwbs: Dict[CoreId, PendingWritebackBuffer] = {}
        self.arbiters: Dict[CoreId, PrbPwbArbiter] = {}
        for core_id in range(config.num_cores):
            stack = PrivateStack(core_id, config.stack, rng)
            trace = traces.get(core_id, MemoryTrace(name=f"empty-core{core_id}"))
            self.stacks[core_id] = stack
            self.cores[core_id] = TraceDrivenCore(
                core_id,
                stack,
                trace,
                config.line_size,
                start_cycle=start_cycles.get(core_id, 0),
            )
            self.prbs[core_id] = PendingRequestBuffer(core_id)
            self.pwbs[core_id] = PendingWritebackBuffer(core_id)
            self.arbiters[core_id] = PrbPwbArbiter(config.arbitration)
        # One sequencer per partition that asks for one.  Single-core
        # partitions never contend, so a sequencer there would be inert;
        # we honour the flag anyway to keep configs explicit.
        self.sequencers: Dict[str, SetSequencer] = {
            partition.name: SetSequencer(config.llc_sets)
            for partition in self.partition_map.partitions
            if partition.sequencer
        }

    def sequencer_for(self, core: CoreId) -> Optional[SetSequencer]:
        """The sequencer ordering ``core``'s partition, if any."""
        partition = self.partition_map.partition_of(core)
        return self.sequencers.get(partition.name)

    def check_inclusivity(self) -> None:
        """Invariant: every privately cached block is VALID in the LLC.

        Called by tests and (optionally) by the engine in paranoid mode.
        Raises :class:`~repro.common.errors.SimulationError` on
        violation.
        """
        from repro.common.errors import SimulationError

        self.llc.validate()
        valid_blocks = set(self.llc.resident_blocks())
        for core_id, stack in self.stacks.items():
            stack.check_l1_inclusion()
            pwb_blocks = set(self.pwbs[core_id].blocks())
            for block in stack.resident_blocks():
                if block not in valid_blocks and block not in pwb_blocks:
                    raise SimulationError(
                        f"inclusivity violated: core {core_id} caches block "
                        f"{block:#x} which is not VALID in the LLC"
                    )
