"""Cache line records.

A :class:`CacheLine` is the mutable per-way record a private cache
stores.  :class:`EvictedLine` is the immutable result handed back when a
fill displaces a line; it carries exactly what the next level (or the
write-back buffer) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.types import BlockAddress


@dataclass(slots=True)
class CacheLine:
    """One resident line in a private cache way.

    Attributes
    ----------
    block:
        The block (line) address stored in this way.
    dirty:
        Whether the line has been written since it was filled; a dirty
        line must be written back when evicted.
    """

    block: BlockAddress
    dirty: bool = False


class EvictedLine(NamedTuple):
    """A line displaced from a cache, as reported to the caller.

    ``dirty`` determines whether the eviction produces a write-back
    transaction (dirty) or a silent drop (clean).  A named tuple: every
    fill of a full set and every invalidation builds one.
    """

    block: BlockAddress
    dirty: bool
