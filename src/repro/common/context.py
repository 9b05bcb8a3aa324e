"""One run context: the run-time wiring every layer reads.

A run is more than its :class:`~repro.sim.config.SystemConfig`: the
CLI and the campaign runner also decide whether simulations consult a
result cache, write auto-checkpoints, see an I/O fault plan, and where
``io.*`` counters and circuit breakers live.  That state is one frozen
:class:`RunContext`.

:func:`run_context` installs a changed copy of the current context for
the duration of a ``with`` block and restores the previous one on exit,
also when an exception escapes, so scopes nest: a campaign that turns
on a cache leaves its caller's context exactly as it found it.  A
nested scope shares the enclosing ``io`` state (counters and breakers)
unless it passes a fresh ``io=IoState()``, which only a whole CLI
invocation and the test suite do.

The current context is a plain module global, not a context variable:
fork-pool workers inherit it through the forked address space, so a
cache or fault plan installed before a parallel campaign governs the
workers too.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.validation import require

if TYPE_CHECKING:
    from repro.common.fileio import CircuitBreaker, IoFaultHook
    from repro.obs.metrics import MetricsRegistry
    from repro.robustness.checkpoint import AutoCheckpointPolicy
    from repro.sim.cache import SimResultCache


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures."""

    #: Total attempts per task (1 = no retry).
    max_attempts: int = 3
    #: Seconds slept before the first retry.
    backoff_base: float = 0.25
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require(
            self.max_attempts >= 1,
            f"max_attempts must be >= 1, got {self.max_attempts}",
            ConfigurationError,
        )
        require(
            self.backoff_base >= 0,
            f"backoff_base must be >= 0, got {self.backoff_base}",
            ConfigurationError,
        )
        require(
            self.backoff_factor >= 1,
            f"backoff_factor must be >= 1, got {self.backoff_factor}",
            ConfigurationError,
        )

    def delay(self, attempt: int) -> float:
        """Seconds to back off after failed attempt number ``attempt``."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


class IoState:
    """The ``io.*`` counters and per-site circuit breakers of one run."""

    def __init__(self) -> None:
        self.breakers: Dict[str, "CircuitBreaker"] = {}
        self._metrics: Optional["MetricsRegistry"] = None

    @property
    def metrics(self) -> "MetricsRegistry":
        """The registry holding the ``io.*`` counters (created on use)."""
        if self._metrics is None:
            from repro.obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    def take_metrics(self) -> Optional["MetricsRegistry"]:
        """Hand over the counters counted so far and start afresh."""
        metrics, self._metrics = self._metrics, None
        return metrics

    def add_metrics(self, other: "MetricsRegistry") -> None:
        """Merge a fork-pool worker's ``io.*`` counters into this run's."""
        self._metrics = self.metrics.merged(other)


@dataclass(frozen=True)
class RunContext:
    """Everything a run installs around its simulations and writes.

    ``result_cache``: consulted by every plain ``simulate()`` call.
    ``checkpoints``: the auto-checkpoint policy ``simulate()`` applies
    to every run without an event sink.  ``io_hook``: the
    I/O fault hook the seam consults before every operation.
    ``io``: the ``io.*`` counters and circuit breakers.
    """

    result_cache: Optional["SimResultCache"] = None
    checkpoints: Optional["AutoCheckpointPolicy"] = None
    io_hook: Optional["IoFaultHook"] = None
    io: IoState = field(default_factory=IoState)


_CURRENT = RunContext()


def current_run_context() -> RunContext:
    """The context the innermost :func:`run_context` scope installed."""
    return _CURRENT


@contextlib.contextmanager
def run_context(**changes) -> Iterator[RunContext]:
    """Install the current context with ``changes`` applied, then restore it.

    ``changes`` name :class:`RunContext` fields; the block sees
    ``dataclasses.replace(current, **changes)``, which is also what the
    ``with`` statement binds.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = dataclasses.replace(previous, **changes)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


def store_changes(
    cache_dir: Optional[Union[str, Path]] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
) -> Dict[str, Any]:
    """The :func:`run_context` changes that open a run's stores.

    A :class:`~repro.sim.cache.SimResultCache` in ``cache_dir`` and an
    :class:`~repro.robustness.checkpoint.AutoCheckpointPolicy` into
    ``checkpoint_dir`` saving every ``checkpoint_every`` slots (the
    default interval for ``None``); a store without a directory is left
    out.  Every setting is checked before the cache creates its
    directory, so a refused run leaves nothing behind; an interval
    without a checkpoint directory is refused.
    """
    changes: Dict[str, Any] = {}
    if checkpoint_dir:
        from repro.robustness.checkpoint import AutoCheckpointPolicy

        changes["checkpoints"] = AutoCheckpointPolicy.for_directory(
            checkpoint_dir, checkpoint_every
        )
    else:
        require(
            checkpoint_every is None,
            "a checkpoint interval (--checkpoint-every) needs a "
            "checkpoint_dir (--checkpoint-dir) to write to",
            ConfigurationError,
        )
    if cache_dir:
        from repro.sim.cache import SimResultCache

        changes["result_cache"] = SimResultCache(cache_dir)
    return changes
