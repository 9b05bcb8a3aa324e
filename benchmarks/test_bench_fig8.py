"""Benchmarks E2–E5: Figures 8a–8d — execution time at fixed capacity.

Each benchmark regenerates one sub-figure: execution time of SS, NSS and
P at a fixed total partition capacity across address ranges.
Reproduction criteria (the paper's shape): exact three-way ties while
the range fits the per-core private partition; SS at least as fast as P
beyond it, with the paper reporting average speedups of 1.34× / 2.13× /
1.10× / 1.02×.
"""

import pytest

from repro.experiments.fig8 import run_fig8

from bench_common import emit


def make_runner(subfigure):
    def run():
        return run_fig8(subfigure, num_requests=500)

    return run


def check_shape(result):
    for row in result.rows_with_fit():
        assert row.ss_cycles == row.nss_cycles == row.p_cycles, (
            "configurations must tie while the range fits the private "
            f"partition (range {row.address_range})"
        )
    exceeding = result.rows_exceeding()
    assert exceeding, "the sweep must cross the partition size"
    for row in exceeding:
        assert row.ss_speedup_vs_p >= 1.0, (
            f"SS must not lose to P beyond the partition size "
            f"(range {row.address_range}: {row.ss_speedup_vs_p:.2f}x)"
        )
    assert result.average_speedup_vs_p() > 1.0


@pytest.mark.parametrize(
    "subfigure",
    [
        pytest.param(
            "8a",
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "SS loses slightly to P at 16384 B: SS/P = 0.981, 0.993 "
                    "and 0.989 at 300, 500 and 1000 requests, so it is a "
                    "model property, not warm-up noise"
                ),
            ),
        ),
        "8b",
        "8c",
        "8d",
    ],
)
def test_fig8_execution_time(benchmark, subfigure):
    result = benchmark.pedantic(make_runner(subfigure), iterations=1, rounds=1)
    emit(result.render())
    emit(
        f"average SS speedup vs P:   {result.average_speedup_vs_p():.2f}x\n"
        f"average SS speedup vs NSS: {result.average_speedup_vs_nss():.2f}x"
    )
    check_shape(result)
