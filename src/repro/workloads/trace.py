"""Memory traces: the input format of the trace-driven simulator.

A trace is an ordered list of :class:`TraceRecord` (byte address +
access type + optional compute gap).  The on-disk format is one record
per line::

    # comment
    R 0x1a40
    W 0x1a80 +120
    I 0x0400

The optional ``+N`` suffix is the number of cycles the core computes
*before* issuing the access — how CPU-bound phases between memory
operations are expressed.  The format is trivially diffable and
versionable — the property that lets the paper replay "the same memory
addresses across different partitioned configurations" (Section 5).
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Union,
    overload,
)

from repro.common.errors import TraceError
from repro.common.fileio import Durability, persist_text
from repro.common.types import AccessType, Address


_DECIMAL_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# Bound once: every record is built through it, and a module global
# reads faster than the attribute lookup.
_tuple_new = tuple.__new__


class _TraceFields(NamedTuple):
    address: Address
    access: AccessType = AccessType.READ
    compute_cycles: int = 0


class TraceRecord(_TraceFields):
    """One memory access of a core's task.

    ``compute_cycles`` is the think time the core spends *before*
    issuing this access (0 for back-to-back memory operations).

    An immutable named tuple: trace generation and parsing build one per
    access.  It is hashable and equal by value (a plain tuple of the
    same three values compares equal too); ``_replace`` re-validates.
    """

    __slots__ = ()

    def __new__(
        cls,
        address: Address,
        access: AccessType = AccessType.READ,
        compute_cycles: int = 0,
    ) -> "TraceRecord":
        if address < 0 or compute_cycles < 0:
            if address < 0:
                raise TraceError(
                    f"trace address must be non-negative, got {address}"
                )
            raise TraceError(
                f"compute_cycles must be non-negative, got {compute_cycles}"
            )
        return _tuple_new(cls, (address, access, compute_cycles))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "TraceRecord":
        # Routed through __new__, so _replace cannot skip the checks.
        return cls(*iterable)

    def to_line(self) -> str:
        """Serialise to the one-line text form."""
        base = f"{self.access.value} {self.address:#x}"
        if self.compute_cycles:
            return f"{base} +{self.compute_cycles}"
        return base

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse the one-line text form.

        The address is ASCII decimal digits or ``0x`` followed by ASCII
        hex digits, and the optional gap is ``+`` followed by ASCII
        decimal digits: ``int`` alone would also take a sign, ``_``
        separators, ``0o``/``0b`` prefixes and non-ASCII digits.
        """
        parts = line.split()
        if len(parts) not in (2, 3):
            raise TraceError(f"malformed trace line: {line!r}")
        type_token, address_token = parts[0], parts[1]
        try:
            access = AccessType.from_token(type_token)
        except ValueError as exc:
            raise TraceError(str(exc)) from None
        if address_token[:2] == "0x":
            digits, allowed = address_token[2:], _HEX_DIGITS
        else:
            digits, allowed = address_token, _DECIMAL_DIGITS
        if not digits or not allowed.issuperset(digits):
            raise TraceError(f"malformed address in trace line: {line!r}")
        try:
            address = int(address_token, 0)
        except ValueError:
            raise TraceError(f"malformed address in trace line: {line!r}") from None
        compute_cycles = 0
        if len(parts) == 3:
            gap_token = parts[2]
            if not gap_token.startswith("+"):
                raise TraceError(
                    f"compute gap must look like +N in trace line: {line!r}"
                )
            digits = gap_token[1:]
            if not (digits.isascii() and digits.isdigit()):
                raise TraceError(f"malformed compute gap in trace line: {line!r}")
            compute_cycles = int(digits)
        return cls(address, access, compute_cycles)


class MemoryTrace(Sequence[TraceRecord]):
    """An immutable ordered sequence of trace records."""

    def __init__(self, records: Iterable[TraceRecord] = (), name: str = "") -> None:
        self._records: List[TraceRecord] = list(records)
        self.name = name

    def __len__(self) -> int:
        return len(self._records)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "MemoryTrace": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceRecord, "MemoryTrace"]:
        if isinstance(index, slice):
            return MemoryTrace(self._records[index], name=self.name)
        return self._records[index]

    @property
    def records(self) -> List[TraceRecord]:
        """The record list itself, not a copy (the core's replay loop
        indexes it directly); callers must not mutate it."""
        return self._records

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<MemoryTrace{label} len={len(self)}>"

    def addresses(self) -> List[Address]:
        """All byte addresses, in order."""
        return [record.address for record in self._records]

    def write_fraction(self) -> float:
        """Fraction of records that are writes (0.0 for an empty trace)."""
        if not self._records:
            return 0.0
        writes = sum(1 for record in self._records if record.access.is_write)
        return writes / len(self._records)

    def footprint_blocks(self, line_size: int) -> int:
        """Number of distinct cache lines the trace touches."""
        return len({record.address // line_size for record in self._records})


def write_trace(trace: MemoryTrace, path: Union[str, Path]) -> None:
    """Write a trace to disk in the text format."""
    target = Path(path)
    lines = [f"# trace {trace.name or target.stem}: {len(trace)} records"]
    lines.extend(record.to_line() for record in trace)
    persist_text(
        target,
        "\n".join(lines) + "\n",
        site="workload-trace",
        durability=Durability.ESSENTIAL,
    )


def read_trace(path: Union[str, Path], name: str = "") -> MemoryTrace:
    """Read a trace from disk, skipping blank lines and ``#`` comments."""
    source = Path(path)
    records: List[TraceRecord] = []
    for lineno, raw in enumerate(source.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(TraceRecord.from_line(line))
        except TraceError as exc:
            raise TraceError(f"{source}:{lineno}: {exc}") from None
    return MemoryTrace(records, name=name or source.stem)
