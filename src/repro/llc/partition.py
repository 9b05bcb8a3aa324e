"""LLC partition specifications.

A partition is a rectangular region of the physical LLC: a list of
physical set indices crossed with a contiguous way range.  A core's
block addresses *fold* onto the partition's sets (``block mod s``), so a
partition with fewer sets behaves exactly like a smaller cache — this is
what makes the paper's ``P(s, w)`` versus ``SS/NSS(s, w, n)``
comparisons at fixed total capacity meaningful (Section 5.2).

The paper's configuration notation (Section 5, "Notation") is parsed by
:class:`PartitionNotation`:

* ``SS(s,w,n)`` — one partition of ``s`` sets × ``w`` ways shared by
  ``n`` cores, with the set sequencer;
* ``NSS(s,w,n)`` — the same, arbitrated best-effort (no sequencer);
* ``P(s,w)`` — a distinct ``s`` × ``w`` partition per core.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.common.errors import PartitionError
from repro.common.types import BlockAddress, CoreId
from repro.common.validation import require, require_positive


@dataclass(frozen=True)
class PartitionSpec:
    """One LLC partition: physical placement plus its sharer set.

    Parameters
    ----------
    name:
        Identifier used in reports (for example ``"shared"`` or
        ``"core2"``).
    sets:
        Physical set indices belonging to the partition, in fold order:
        a block folds to ``sets[block % len(sets)]``.
    way_range:
        Half-open physical way interval ``[lo, hi)``.
    cores:
        Cores allowed to allocate in this partition.
    sequencer:
        Whether the set sequencer orders misses in this partition
        (``SS``) or contention is resolved best-effort (``NSS``).
        Irrelevant when a single core owns the partition.
    """

    name: str
    sets: Tuple[int, ...]
    way_range: Tuple[int, int]
    cores: Tuple[CoreId, ...]
    sequencer: bool = False

    def __init__(
        self,
        name: str,
        sets: Sequence[int],
        way_range: Tuple[int, int],
        cores: Sequence[CoreId],
        sequencer: bool = False,
    ) -> None:
        sets_tuple = tuple(sets)
        cores_tuple = tuple(cores)
        require(bool(name), "partition name must be non-empty", PartitionError)
        require(bool(sets_tuple), f"partition {name!r} has no sets", PartitionError)
        require(
            len(set(sets_tuple)) == len(sets_tuple),
            f"partition {name!r} lists a set twice: {sets_tuple}",
            PartitionError,
        )
        require(
            all(s >= 0 for s in sets_tuple),
            f"partition {name!r} has a negative set index",
            PartitionError,
        )
        lo, hi = way_range
        require(
            0 <= lo < hi,
            f"partition {name!r} way range must satisfy 0 <= lo < hi, got [{lo}, {hi})",
            PartitionError,
        )
        require(bool(cores_tuple), f"partition {name!r} has no cores", PartitionError)
        require(
            len(set(cores_tuple)) == len(cores_tuple),
            f"partition {name!r} lists a core twice: {cores_tuple}",
            PartitionError,
        )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sets", sets_tuple)
        object.__setattr__(self, "way_range", (lo, hi))
        object.__setattr__(self, "cores", cores_tuple)
        object.__setattr__(self, "sequencer", sequencer)

    @property
    def num_sets(self) -> int:
        """Partition set count ``s``."""
        return len(self.sets)

    @property
    def num_ways(self) -> int:
        """Partition associativity ``w``."""
        return self.way_range[1] - self.way_range[0]

    @property
    def num_cores(self) -> int:
        """Number of sharers ``n``."""
        return len(self.cores)

    @property
    def is_shared(self) -> bool:
        """Whether more than one core allocates here."""
        return len(self.cores) > 1

    @property
    def capacity_lines(self) -> int:
        """Total lines the partition can hold (``M`` in Theorem 4.7)."""
        return self.num_sets * self.num_ways

    def capacity_bytes(self, line_size: int) -> int:
        """Partition capacity in bytes."""
        return self.capacity_lines * line_size

    def fold_set(self, block: BlockAddress) -> int:
        """Physical set a block folds onto within this partition."""
        sets = self.sets
        return sets[block % len(sets)]

    def ways(self) -> range:
        """Physical way indices of the partition."""
        return range(self.way_range[0], self.way_range[1])

    def cells(self) -> Iterable[Tuple[int, int]]:
        """All ``(physical set, physical way)`` cells of the partition."""
        for set_index in self.sets:
            for way in self.ways():
                yield (set_index, way)


class PartitionMap:
    """The complete carving of one LLC into disjoint partitions.

    Validates, against a physical geometry, that partitions fit, do not
    overlap, and that every core belongs to exactly one partition.
    """

    def __init__(
        self,
        partitions: Sequence[PartitionSpec],
        num_sets: int,
        num_ways: int,
    ) -> None:
        require_positive(num_sets, "num_sets", PartitionError)
        require_positive(num_ways, "num_ways", PartitionError)
        require(bool(partitions), "partition map must be non-empty", PartitionError)
        names = [p.name for p in partitions]
        require(
            len(set(names)) == len(names),
            f"duplicate partition names: {names}",
            PartitionError,
        )
        seen_cells: Dict[Tuple[int, int], str] = {}
        by_core: Dict[CoreId, PartitionSpec] = {}
        # Every check below runs per partition, cell or core, so each
        # message is formatted only once its check has failed.
        for part in partitions:
            if max(part.sets) >= num_sets:
                raise PartitionError(
                    f"partition {part.name!r} references set {max(part.sets)} "
                    f"but the LLC has only {num_sets} sets"
                )
            if part.way_range[1] > num_ways:
                raise PartitionError(
                    f"partition {part.name!r} references way "
                    f"{part.way_range[1] - 1} but the LLC has only {num_ways} ways"
                )
            for cell in part.cells():
                other = seen_cells.get(cell)
                if other is not None:
                    raise PartitionError(
                        f"partitions {other!r} and {part.name!r} overlap at "
                        f"(set {cell[0]}, way {cell[1]})"
                    )
                seen_cells[cell] = part.name
            for core in part.cores:
                if core in by_core:
                    raise PartitionError(
                        f"core {core} assigned to both {by_core[core].name!r} "
                        f"and {part.name!r}"
                    )
                by_core[core] = part
        self.partitions: Tuple[PartitionSpec, ...] = tuple(partitions)
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._by_core = by_core

    @property
    def cores(self) -> Tuple[CoreId, ...]:
        """All cores with a partition, ascending."""
        return tuple(sorted(self._by_core))

    def partition_of(self, core: CoreId) -> PartitionSpec:
        """The partition ``core`` allocates into."""
        part = self._by_core.get(core)
        if part is None:
            raise PartitionError(f"core {core} has no LLC partition")
        return part

    def has_core(self, core: CoreId) -> bool:
        """Whether ``core`` is mapped to some partition."""
        return core in self._by_core

    def utilized_lines(self) -> int:
        """Total LLC lines covered by some partition."""
        return sum(p.capacity_lines for p in self.partitions)


class PartitionKind(enum.Enum):
    """The three configuration families of the paper's evaluation."""

    SS = "SS"
    NSS = "NSS"
    P = "P"


_NOTATION_RE = re.compile(
    r"^\s*(SS|NSS|P)\s*\(\s*(\d+)\s*,\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class PartitionNotation:
    """Parsed form of the paper's ``SS(s,w,n)`` / ``NSS(s,w,n)`` / ``P(s,w)``."""

    kind: PartitionKind
    sets: int
    ways: int
    cores: int = 1

    @classmethod
    def parse(cls, text: str) -> "PartitionNotation":
        """Parse the Section 5 notation.

        >>> PartitionNotation.parse("SS(1,16,4)")
        PartitionNotation(kind=<PartitionKind.SS: 'SS'>, sets=1, ways=16, cores=4)
        """
        match = _NOTATION_RE.match(text)
        if not match:
            raise PartitionError(
                f"cannot parse partition notation {text!r}; expected "
                "SS(s,w,n), NSS(s,w,n) or P(s,w)"
            )
        kind_text, s_text, w_text, n_text = match.groups()
        kind = PartitionKind[kind_text.upper()]
        sets = int(s_text)
        ways = int(w_text)
        require_positive(sets, "sets", PartitionError)
        require_positive(ways, "ways", PartitionError)
        if kind is PartitionKind.P:
            require(
                n_text is None,
                f"P(s,w) takes two arguments, got {text!r}",
                PartitionError,
            )
            return cls(kind=kind, sets=sets, ways=ways, cores=1)
        require(
            n_text is not None,
            f"{kind.value}(s,w,n) needs a core count, got {text!r}",
            PartitionError,
        )
        cores = int(n_text)  # type: ignore[arg-type]
        require_positive(cores, "cores", PartitionError)
        return cls(kind=kind, sets=sets, ways=ways, cores=cores)

    @property
    def sequencer(self) -> bool:
        """Whether this notation enables the set sequencer."""
        return self.kind is PartitionKind.SS

    def __str__(self) -> str:
        if self.kind is PartitionKind.P:
            return f"P({self.sets},{self.ways})"
        return f"{self.kind.value}({self.sets},{self.ways},{self.cores})"
