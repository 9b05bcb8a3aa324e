"""Replacement policies.

The paper's analysis is deliberately *replacement-policy agnostic*: it
assumes "a replacement policy that can select any of the cache lines"
(Section 4.3) so that the WCL bound holds for LRU, random, PLRU and
anything else.  To honour that, the simulator treats the policy as a
pluggable strategy and ships the common hardware policies plus an
:class:`OraclePolicy` whose victim choice is delegated to a callback —
the hook the adversarial worst-case workloads use to steer the LLC
toward the analytical critical instance.

Each policy instance manages **one set**.  The cache tells the policy
about accesses, fills and invalidations by way index, and asks it for a
victim among a restricted candidate list (the LLC restricts candidates
to the requesting core's partition ways, excluding entries that are
``FREE`` or already ``PENDING_EVICT``).
"""

from __future__ import annotations

import copy
import random
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.intmath import is_power_of_two
from repro.common.validation import require_positive


class ReplacementPolicy:
    """Interface for per-set replacement state.

    Subclasses must implement :meth:`victim`; the notification hooks
    default to no-ops so stateless policies stay trivial.
    """

    def __init__(self, ways: int) -> None:
        self.ways = require_positive(ways, "ways")

    def on_access(self, way: int) -> None:
        """A hit touched ``way``."""

    def on_fill(self, way: int) -> None:
        """A new line was installed into ``way``."""

    def on_invalidate(self, way: int) -> None:
        """The line in ``way`` was invalidated."""

    def victim(self, candidates: Sequence[int]) -> int:
        """Pick the way to evict among ``candidates`` (non-empty)."""
        raise NotImplementedError

    def clone(self) -> "ReplacementPolicy":
        """An independent copy with identical decision state.

        Used by the fast-forward engine's next-miss prediction, which
        replays a core's trace against a throwaway copy of its private
        stack.  Subclasses override this with cheap field copies; the
        deep-copy fallback keeps custom policies correct.
        """
        return copy.deepcopy(self)

    def _check_candidates(self, candidates: Sequence[int]) -> None:
        if not candidates:
            raise ValueError("victim() called with no candidates")
        # One builtin range test per victim call; the Python loop runs
        # only to name the first offending way.
        if min(candidates) < 0 or max(candidates) >= self.ways:
            for way in candidates:
                if not 0 <= way < self.ways:
                    raise ValueError(
                        f"candidate way {way} out of range 0..{self.ways - 1}"
                    )


class LruPolicy(ReplacementPolicy):
    """Least-recently-used, tracked with a per-way timestamp."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0
        self._last_use = [0] * ways

    def on_access(self, way: int) -> None:
        self._clock += 1
        self._last_use[way] = self._clock

    # A fill is a use, exactly like a hit.
    on_fill = on_access

    def on_invalidate(self, way: int) -> None:
        self._last_use[way] = 0

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        return min(candidates, key=self._last_use.__getitem__)

    def clone(self) -> "LruPolicy":
        dup = type(self)(self.ways)
        dup._clock = self._clock
        dup._last_use = self._last_use.copy()
        return dup


class MruPolicy(LruPolicy):
    """Most-recently-used; useful as a pathological ablation point.

    LRU's recency state, hooks and clone; only the victim differs.
    """

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        return max(candidates, key=self._last_use.__getitem__)


class NmruPolicy(ReplacementPolicy):
    """Not-most-recently-used: any candidate except the MRU way.

    Falls back to the MRU way itself when it is the only candidate.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._mru: Optional[int] = None

    def on_access(self, way: int) -> None:
        self._mru = way

    def on_fill(self, way: int) -> None:
        self._mru = way

    def on_invalidate(self, way: int) -> None:
        if self._mru == way:
            self._mru = None

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        for way in candidates:
            if way != self._mru:
                return way
        return candidates[0]

    def clone(self) -> "NmruPolicy":
        dup = NmruPolicy(self.ways)
        dup._mru = self._mru
        return dup


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out, by fill order."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0
        self._filled_at = [0] * ways

    def on_fill(self, way: int) -> None:
        self._clock += 1
        self._filled_at[way] = self._clock

    def on_invalidate(self, way: int) -> None:
        self._filled_at[way] = 0

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        return min(candidates, key=self._filled_at.__getitem__)

    def clone(self) -> "FifoPolicy":
        dup = FifoPolicy(self.ways)
        dup._clock = self._clock
        dup._filled_at = self._filled_at.copy()
        return dup


class RoundRobinPolicy(ReplacementPolicy):
    """Rotating victim pointer, as in many embedded cores."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._pointer = 0

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        allowed = set(candidates)
        for step in range(self.ways):
            way = (self._pointer + step) % self.ways
            if way in allowed:
                self._pointer = (way + 1) % self.ways
                return way
        raise AssertionError("unreachable: candidates validated non-empty")

    def clone(self) -> "RoundRobinPolicy":
        dup = RoundRobinPolicy(self.ways)
        dup._pointer = self._pointer
        return dup


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, from a seeded stream for reproducibility."""

    def __init__(self, ways: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(ways)
        self._rng = rng or random.Random(0)

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        return self._rng.choice(list(candidates))

    def clone(self) -> "RandomPolicy":
        # The copy gets a forked RNG at the same state.  Note a clone's
        # draws do NOT advance the original (shared) stream — which is
        # exactly why the fast-forward engine refuses to predict under a
        # "random" policy rather than relying on this method.
        dup = RandomPolicy(self.ways, random.Random())
        dup._rng.setstate(self._rng.getstate())
        return dup


class PlruTreePolicy(ReplacementPolicy):
    """Binary tree pseudo-LRU; requires a power-of-two way count.

    The tree holds ``ways - 1`` direction bits.  Accesses flip the bits
    along the path away from the touched way; the victim walk follows
    the bits.  When the walk lands on a way outside the candidate list
    (the LLC may have masked it out), the policy deterministically falls
    back to the first candidate in tree-walk preference order.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if not is_power_of_two(ways):
            raise ConfigurationError(f"PLRU requires power-of-two ways, got {ways}")
        self._bits = [0] * max(ways - 1, 1)

    def _touch(self, way: int) -> None:
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                self._bits[node] = 1  # point away: next victim on right
                node = 2 * node + 1
                high = mid
            else:
                self._bits[node] = 0
                node = 2 * node + 2
                low = mid

    def on_access(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def _walk(self) -> list[int]:
        """All ways ordered by tree preference (victim first)."""
        order: list[int] = []

        def descend(node: int, low: int, high: int) -> None:
            if high - low == 1:
                order.append(low)
                return
            mid = (low + high) // 2
            right = (2 * node + 2, mid, high)
            left = (2 * node + 1, low, mid)
            halves = [right, left] if self._bits[node] == 1 else [left, right]
            for child, child_low, child_high in halves:
                descend(child, child_low, child_high)

        descend(0, 0, self.ways)
        return order

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        allowed = set(candidates)
        for way in self._walk():
            if way in allowed:
                return way
        raise AssertionError("unreachable: candidates validated non-empty")

    def clone(self) -> "PlruTreePolicy":
        dup = PlruTreePolicy(self.ways)
        dup._bits = self._bits.copy()
        return dup


class OraclePolicy(ReplacementPolicy):
    """Victim selection delegated to a caller-supplied chooser.

    The chooser receives the candidate way list and the set index (when
    provided via :meth:`bind_set`) and returns the victim way.  This is
    the hook adversarial workloads use to reproduce the paper's
    "replacement policy that can select any of the cache lines"
    (Section 4.3) and drive the system to the critical instance.
    """

    def __init__(
        self,
        ways: int,
        chooser: Optional[Callable[[Sequence[int], Optional[int]], int]] = None,
    ) -> None:
        super().__init__(ways)
        self._chooser = chooser
        self._set_index: Optional[int] = None

    def bind_set(self, set_index: int) -> None:
        """Tell the policy which set it manages (for chooser context)."""
        self._set_index = set_index

    def set_chooser(
        self, chooser: Callable[[Sequence[int], Optional[int]], int]
    ) -> None:
        """Install or replace the victim chooser."""
        self._chooser = chooser

    def victim(self, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        if self._chooser is None:
            return candidates[0]
        way = self._chooser(candidates, self._set_index)
        if way not in candidates:
            raise ValueError(
                f"oracle chooser returned way {way}, not in candidates {list(candidates)}"
            )
        return way

    def clone(self) -> "OraclePolicy":
        # The chooser callback is shared, not copied: it belongs to the
        # experiment.  A stateful chooser therefore sees a clone's extra
        # calls, which is why the fast-forward engine refuses to predict
        # through an "oracle" private stack.
        dup = OraclePolicy(self.ways, self._chooser)
        dup._set_index = self._set_index
        return dup


_FACTORIES = {
    "lru": LruPolicy,
    "mru": MruPolicy,
    "nmru": NmruPolicy,
    "fifo": FifoPolicy,
    "round-robin": RoundRobinPolicy,
    "random": RandomPolicy,
    "plru": PlruTreePolicy,
    "oracle": OraclePolicy,
}

#: Names accepted by :func:`make_policy`.
POLICY_NAMES = tuple(sorted(_FACTORIES))


def make_policy(
    name: str,
    ways: int,
    rng: Optional[random.Random] = None,
) -> ReplacementPolicy:
    """Build a replacement policy for one set by name.

    ``rng`` is threaded into :class:`RandomPolicy` so every set in a
    cache shares a single seeded stream; other policies ignore it.
    """
    key = name.lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {', '.join(POLICY_NAMES)}"
        )
    if factory is RandomPolicy:
        return RandomPolicy(ways, rng)
    return factory(ways)
