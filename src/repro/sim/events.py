"""Structured simulation events.

When a simulation runs with ``record_events=True``, the engine appends
one :class:`SimEvent` per observable action.  The event log is how the
paper's step-by-step figures (Figures 2, 3 and 4) are encoded as
integration tests: a scripted scenario runs and the test asserts the
exact slot-by-slot sequence of evictions, write-backs and responses.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.common.types import BlockAddress, CoreId, Cycle, SlotIndex


class EventKind(enum.Enum):
    """The observable actions of the slot engine."""

    SLOT_IDLE = "slot-idle"
    REQ_BROADCAST = "req-broadcast"
    LLC_HIT = "llc-hit"
    LLC_ALLOC = "llc-alloc"
    EVICT_START = "evict-start"
    BACK_INVALIDATE = "back-invalidate"
    ENTRY_FREED = "entry-freed"
    WB_SENT = "wb-sent"
    RESPONSE = "response"
    SEQ_REGISTER = "seq-register"
    SEQ_BLOCKED = "seq-blocked"
    BLOCKED_FULL = "blocked-full"
    CORE_DONE = "core-done"


class SimEvent(NamedTuple):
    """One engine action, time-stamped by cycle and bus slot.

    A :class:`~typing.NamedTuple` rather than a frozen dataclass: a
    recorded run builds one event per action, and a tuple is built for
    well under half the cost of a frozen dataclass's eight
    ``object.__setattr__`` calls.  It stays immutable, hashable and
    equal by value (a plain tuple of the same eight values compares
    equal too).  Field order is the positional order of
    :func:`repro.sim.codec.event_states`.
    """

    cycle: Cycle
    slot: SlotIndex
    kind: EventKind
    core: Optional[CoreId] = None
    block: Optional[BlockAddress] = None
    set_index: Optional[int] = None
    way: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [f"[c{self.cycle:>7} s{self.slot:>5}] {self.kind.value}"]
        if self.core is not None:
            parts.append(f"core={self.core}")
        if self.block is not None:
            parts.append(f"block={self.block:#x}")
        if self.set_index is not None:
            parts.append(f"set={self.set_index}")
        if self.way is not None:
            parts.append(f"way={self.way}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventLog:
    """Append-only event container with query helpers for tests.

    Besides in-memory recording (``enabled``), the log supports
    streaming **sinks**: callables receiving every appended event as it
    happens (:class:`repro.obs.tracing.JsonlTraceSink` is the standard
    one).  Sinks fire even when in-memory recording is disabled, which
    is how long campaigns trace to disk without the ``O(events)``
    memory footprint.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[SimEvent] = []
        self._sinks: List[Callable[[SimEvent], None]] = []
        self._bind_append()

    def _bind_append(self) -> None:
        """Make an enabled, sink-free log's ``append`` the list's own.

        The engine appends once per action; binding the list method on
        the instance skips a Python frame per event.  The binding holds
        the list object, so the log never rebinds ``_events`` — see
        :meth:`restore`.
        """
        self.__dict__.pop("append", None)
        if self.enabled and not self._sinks:
            self.append = self._events.append  # type: ignore[method-assign]

    def __getstate__(self) -> Dict[str, object]:
        # deepcopy treats a bound builtin method as atomic, so a copy
        # would keep appending to the original list: rebind on the copy.
        state = self.__dict__.copy()
        state.pop("append", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._bind_append()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    @property
    def active(self) -> bool:
        """Whether appended events go anywhere (storage or a sink)."""
        return self.enabled or bool(self._sinks)

    def attach_sink(self, sink: Callable[[SimEvent], None]) -> None:
        """Stream every future event to ``sink`` (storage unaffected)."""
        self._sinks.append(sink)
        self._bind_append()

    def restore(self, events: Iterable[SimEvent]) -> None:
        """Replace the recorded events in place (checkpoint restore,
        cached-report rebuild), keeping a bound ``append`` live."""
        self._events[:] = events

    def append(self, event: SimEvent) -> None:
        """Record an event (no-op when disabled and no sink attached)."""
        if self.enabled:
            self._events.append(event)
        for sink in self._sinks:
            sink(event)

    def all(self) -> List[SimEvent]:
        """All recorded events, in order."""
        return list(self._events)

    def of_kind(self, kind: EventKind) -> List[SimEvent]:
        """Events of one kind, in order."""
        return [event for event in self._events if event.kind is kind]

    def for_core(self, core: CoreId) -> List[SimEvent]:
        """Events attributed to one core, in order."""
        return [event for event in self._events if event.core == core]

    def counts(self) -> Dict[EventKind, int]:
        """Histogram of event kinds."""
        histogram: Dict[EventKind, int] = {}
        for event in self._events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable dump (first ``limit`` events)."""
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(str(event) for event in events)
