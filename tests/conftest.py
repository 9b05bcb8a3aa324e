"""Pytest fixtures for the test suite (builders live in sim_helpers)."""

import pytest

from sim_helpers import fast_io_context, small_config
from repro.common.context import current_run_context
from repro.sim.config import SystemConfig


@pytest.fixture(autouse=True)
def _run_context_is_restored():
    """Fail any test that ends on a different run context than it began."""
    before = current_run_context()
    yield
    assert current_run_context() is before, (
        "the test leaked run-context state; scope it with run_context(...)"
    )


@pytest.fixture
def fast_io():
    """Fresh ``io.*`` counters and breakers, no ESSENTIAL retry backoff."""
    with fast_io_context() as context:
        yield context


@pytest.fixture
def two_core_shared() -> SystemConfig:
    """2 cores sharing one 4-way single-set partition, events on."""
    return small_config(num_cores=2)


@pytest.fixture
def four_core_shared_ss() -> SystemConfig:
    """4 cores sharing one 4-way single-set partition with sequencer."""
    return small_config(num_cores=4, sequencer=True)
