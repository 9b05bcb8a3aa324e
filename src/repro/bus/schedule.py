"""TDM bus schedules and the paper's distance metric.

A TDM schedule is a repeating sequence of equally sized slots, each
owned by one core.  The paper distinguishes:

* a **general TDM schedule**, where a core may own several slots per
  period — Section 4.1 shows this makes the WCL of a shared partition
  *unbounded*;
* a **1S-TDM schedule** (Definition 4.1), with exactly one slot per core
  per period, which restores a finite bound.

The *distance* ``d_{c_j}^{c_i}`` (Definition 4.2) is the number of slots
from the start of ``c_i``'s slot to the start of ``c_j``'s **next**
slot; under 1S-TDM it lies in ``[1, N]`` (Corollary 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.common.errors import ScheduleError
from repro.common.types import CoreId, Cycle, SlotIndex
from repro.common.validation import require_positive


@dataclass(frozen=True)
class TdmSchedule:
    """A repeating TDM slot assignment.

    Parameters
    ----------
    slot_owners:
        Owner of each slot within one period, in slot order.  For
        example ``(0, 1, 2, 3)`` is the paper's 1S-TDM schedule
        ``{c_ua, c_2, c_3, c_4}``, and ``(0, 1, 1)`` gives core 1 two
        slots per period (a schedule under which Section 4.1's
        unbounded scenario is possible).
    slot_width:
        Slot length ``SW`` in cycles.
    """

    slot_owners: Tuple[CoreId, ...]
    slot_width: int

    def __init__(self, slot_owners: Sequence[CoreId], slot_width: int) -> None:
        owners = tuple(slot_owners)
        if not owners:
            raise ScheduleError("a TDM schedule needs at least one slot")
        for owner in owners:
            if not isinstance(owner, int) or isinstance(owner, bool) or owner < 0:
                raise ScheduleError(f"slot owner must be a core id >= 0, got {owner!r}")
        require_positive(slot_width, "slot_width", ScheduleError)
        object.__setattr__(self, "slot_owners", owners)
        object.__setattr__(self, "slot_width", slot_width)
        # Memoised slots_of results: next_slot_of sits on the engine's
        # fast-forward path, where rebuilding the position tuple per
        # call would dominate the candidate computation.
        object.__setattr__(self, "_positions", {})
        # 1S-TDM (Definition 4.1) means no core owns two slots per
        # period.  Fixed at construction: the tightness adversary's
        # distance() calls re-check it on every victim choice.
        object.__setattr__(self, "_one_slot", len(set(owners)) == len(owners))

    @classmethod
    def parse(cls, text: str, slot_width: int) -> "TdmSchedule":
        """Parse a comma-separated owner list, e.g. ``"0,1,1"``.

        The textual form used by CLI flags and config files.

        >>> TdmSchedule.parse("0,1,1", 50).slots_of(1)
        (1, 2)
        """
        tokens = [token.strip() for token in text.split(",") if token.strip()]
        if not tokens:
            raise ScheduleError(f"empty TDM schedule string: {text!r}")
        try:
            owners = [int(token) for token in tokens]
        except ValueError:
            raise ScheduleError(
                f"TDM schedule must be comma-separated core ids, got {text!r}"
            ) from None
        return cls(owners, slot_width)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def period_slots(self) -> int:
        """Slots per period."""
        return len(self.slot_owners)

    @property
    def period_cycles(self) -> Cycle:
        """Cycles per period."""
        return self.period_slots * self.slot_width

    @property
    def cores(self) -> Tuple[CoreId, ...]:
        """Distinct cores with at least one slot, ascending."""
        return tuple(sorted(set(self.slot_owners)))

    @property
    def num_cores(self) -> int:
        """Number of distinct cores in the schedule."""
        return len(set(self.slot_owners))

    def slots_of(self, core: CoreId) -> Tuple[int, ...]:
        """Positions (within a period) of ``core``'s slots."""
        cached = self._positions.get(core)
        if cached is None:
            cached = tuple(
                i for i, owner in enumerate(self.slot_owners) if owner == core
            )
            self._positions[core] = cached
        return cached

    @property
    def is_one_slot(self) -> bool:
        """Whether this is a 1S-TDM schedule (Definition 4.1)."""
        return self._one_slot

    def require_one_slot(self) -> None:
        """Raise :class:`ScheduleError` unless this is 1S-TDM."""
        if not self.is_one_slot:
            offenders = [
                core for core in self.cores if len(self.slots_of(core)) != 1
            ]
            raise ScheduleError(
                "schedule is not 1S-TDM (Definition 4.1): cores "
                f"{offenders} own more than one slot per period; the WCL "
                "of a shared partition is unbounded under such a schedule "
                "(Section 4.1)"
            )

    # ------------------------------------------------------------------
    # Time arithmetic
    # ------------------------------------------------------------------
    def owner_of_slot(self, slot: SlotIndex) -> CoreId:
        """Core owning absolute slot number ``slot``."""
        if slot < 0:
            raise ScheduleError(f"slot index must be non-negative, got {slot}")
        return self.slot_owners[slot % self.period_slots]

    def slot_start(self, slot: SlotIndex) -> Cycle:
        """First cycle of absolute slot ``slot``."""
        if slot < 0:
            raise ScheduleError(f"slot index must be non-negative, got {slot}")
        return slot * self.slot_width

    def slot_end(self, slot: SlotIndex) -> Cycle:
        """One past the last cycle of absolute slot ``slot``."""
        if slot < 0:
            raise ScheduleError(
                f"slot_end: slot index must be non-negative, got {slot}"
            )
        return self.slot_start(slot) + self.slot_width

    def slot_of_cycle(self, cycle: Cycle) -> SlotIndex:
        """Absolute slot containing ``cycle``."""
        if cycle < 0:
            raise ScheduleError(f"cycle must be non-negative, got {cycle}")
        return cycle // self.slot_width

    def next_slot_of(self, core: CoreId, from_slot: SlotIndex) -> SlotIndex:
        """First absolute slot >= ``from_slot`` owned by ``core``."""
        positions = self.slots_of(core)
        if not positions:
            raise ScheduleError(f"core {core} owns no slot in the schedule")
        period = self.period_slots
        base = (from_slot // period) * period
        phase = from_slot % period
        for position in positions:
            if position >= phase:
                return base + position
        return base + period + positions[0]

    def next_slot_start(self, core: CoreId, from_cycle: Cycle) -> Cycle:
        """Start cycle of the first slot of ``core`` starting >= ``from_cycle``.

        A request that becomes ready exactly at a slot boundary can use
        that slot; one that becomes ready mid-slot waits for the next.

        ``from_cycle`` must be non-negative: simulation time starts at
        cycle 0, and Python's floor division would otherwise round a
        negative cycle *down* to a negative candidate slot — either a
        wrong (too early) answer or a confusing "slot index must be
        non-negative" error surfacing from ``slot_start``.

        >>> one_slot_tdm(2, 50).next_slot_start(1, 50)
        50
        >>> one_slot_tdm(2, 50).next_slot_start(1, 51)
        150
        """
        if from_cycle < 0:
            raise ScheduleError(
                f"next_slot_start: from_cycle must be non-negative, got {from_cycle}"
            )
        first_candidate = (from_cycle + self.slot_width - 1) // self.slot_width
        return self.slot_start(self.next_slot_of(core, first_candidate))


def one_slot_tdm(
    num_cores: int,
    slot_width: int,
    order: Optional[Sequence[CoreId]] = None,
) -> TdmSchedule:
    """Build a 1S-TDM schedule (Definition 4.1) over ``num_cores`` cores.

    ``order`` permutes the slot order; by default core ``i`` owns slot
    ``i``, reproducing the paper's ``{c_ua, c_2, ..., c_N}`` layout with
    the core under analysis first.
    """
    require_positive(num_cores, "num_cores", ScheduleError)
    if order is None:
        owners: Sequence[CoreId] = tuple(range(num_cores))
    else:
        owners = tuple(order)
        if sorted(owners) != list(range(num_cores)):
            raise ScheduleError(
                f"order must be a permutation of 0..{num_cores - 1}, got {list(owners)}"
            )
    return TdmSchedule(owners, slot_width)


def distance(schedule: TdmSchedule, from_core: CoreId, to_core: CoreId) -> int:
    """Distance ``d_{to}^{from}`` under a 1S-TDM schedule (Definition 4.2).

    Slots from the start of ``from_core``'s slot to the start of
    ``to_core``'s next slot.  ``distance(s, c, c) == N``: a core's next
    own slot is a full period away.  Satisfies Corollary 4.3:
    ``1 <= d <= N``.
    """
    schedule.require_one_slot()
    positions_from = schedule.slots_of(from_core)
    positions_to = schedule.slots_of(to_core)
    if not positions_from:
        raise ScheduleError(f"core {from_core} not in schedule")
    if not positions_to:
        raise ScheduleError(f"core {to_core} not in schedule")
    span = (positions_to[0] - positions_from[0]) % schedule.period_slots
    return span if span > 0 else schedule.period_slots
