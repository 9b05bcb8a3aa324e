"""Serial ≡ parallel metrics equivalence, down to exporter bytes.

The acceptance criterion for the observability layer: running any
experiment with ``--jobs N`` must produce metrics (and therefore
exported files) bit-identical to the serial run.  These tests exercise
the real fan-out paths — seed sweeps (parent-side collection) and the
figure grids (worker-side collection) — and compare at the strictest
level available: the rendered exporter bytes.
"""

import pytest

from sim_helpers import small_config

from repro.experiments.compare import compare_notations
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.obs.exporters import (
    metrics_to_csv,
    metrics_to_jsonl,
    metrics_to_prometheus,
)
from repro.sim.parallel import parallel_available
from repro.sim.sweeps import sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)

CONFIG = small_config(num_cores=2)
SEEDS = [1, 2, 3, 4]


def trace_factory(seed):
    workload = SyntheticWorkloadConfig(
        num_requests=20, address_range_size=512, seed=seed
    )
    return generate_disjoint_workload(workload, [0, 1])


def all_renderings(registry):
    return (
        metrics_to_jsonl(registry),
        metrics_to_csv(registry),
        metrics_to_prometheus(registry),
    )


def assert_scoped_by(registry, labels):
    """Every series carries its cell's labels, so none collided in the merge."""
    for (_, series_labels), _ in registry:
        assert labels <= dict(series_labels).keys()


def test_sweep_metrics_parallel_is_bit_identical():
    serial = sweep_seeds(CONFIG, trace_factory, SEEDS, jobs=1, with_metrics=True)
    parallel = sweep_seeds(
        CONFIG, trace_factory, SEEDS, jobs=3, with_metrics=True
    )
    assert all_renderings(parallel.metrics) == all_renderings(serial.metrics)
    # Seed labels scope every series, so nothing collided in the merge.
    assert parallel.metrics.get("sim.slots.total", seed=1) is not None
    assert_scoped_by(parallel.metrics, {"seed"})


def test_fig7_metrics_parallel_is_bit_identical():
    kwargs = dict(address_ranges=(1024, 2048), num_requests=30, with_metrics=True)
    serial = run_fig7(jobs=1, **kwargs)
    parallel = run_fig7(jobs=3, **kwargs)
    assert all_renderings(parallel.metrics) == all_renderings(serial.metrics)
    assert_scoped_by(parallel.metrics, {"config", "range"})


def test_fig7_steered_metrics_parallel_is_bit_identical():
    kwargs = dict(
        address_ranges=(1024, 2048),
        num_requests=30,
        adversarial=True,
        with_metrics=True,
    )
    serial = run_fig7(jobs=1, **kwargs)
    parallel = run_fig7(jobs=3, **kwargs)
    assert all_renderings(parallel.metrics) == all_renderings(serial.metrics)
    assert_scoped_by(parallel.metrics, {"config", "range"})


def test_fig8_metrics_parallel_is_bit_identical():
    kwargs = dict(address_ranges=(512, 1024), num_requests=40, with_metrics=True)
    serial = run_fig8("8a", jobs=1, **kwargs)
    parallel = run_fig8("8a", jobs=3, **kwargs)
    assert all_renderings(parallel.metrics) == all_renderings(serial.metrics)
    # Worker-side collection labels by subfigure/config/range.
    assert any(
        dict(labels).get("subfigure") == "8a"
        for (_, labels), _ in parallel.metrics
    )
    assert_scoped_by(parallel.metrics, {"config", "range", "subfigure"})


def test_compare_metrics_parallel_is_bit_identical():
    notations = ["SS(1,16,4)", "P(1,16)"]
    serial = compare_notations(notations, num_requests=30, jobs=1, with_metrics=True)
    parallel = compare_notations(
        notations, num_requests=30, jobs=2, with_metrics=True
    )
    assert all_renderings(parallel.metrics) == all_renderings(serial.metrics)
    assert_scoped_by(parallel.metrics, {"config"})


def test_metrics_off_by_default():
    result = run_fig7(address_ranges=(1024,), num_requests=20)
    assert result.metrics is None
