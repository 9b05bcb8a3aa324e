"""Call budget of the request path: Python calls per completed request.

One fast-engine ``simulate()`` of ``SS(4,16,4)`` (the paper's Theorem
4.8 worst case: four sharers, one set-sequenced partition) is profiled
under :mod:`cProfile`, and the calls to functions defined under
``src/repro`` are divided by the completed requests.  Builtins are not
counted, so CPython versions agree closely.

Measured on this run (1,050 completed requests):

* before the request-slot cuts: 155,120 calls (147.7 per request) on
  CPython 3.10 and 3.11, 154,074 (146.7) on 3.12;
* after them: 115,434 (109.9) on CPython 3.10 and 3.11, 114,388
  (108.9) on 3.12;
* after the flat set sequencer and the eviction-path cuts: 97,895
  (93.2) on CPython 3.10 and 3.11, 96,850 (92.2) on 3.12.

The budget is the larger latest value plus 5%.  A change that puts plumbing
back on the per-slot path (a property where an attribute did, a helper
hop, a second buffer scan) fails here before it shows in a benchmark.
"""

import cProfile
import pstats
from pathlib import Path

import repro
from repro.experiments.configs import build_system_for_notation
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

#: ``src/repro`` calls per completed request: 93.2 measured, plus 5%.
BUDGET_PER_REQUEST = 97.9

PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)


def test_request_path_stays_within_its_call_budget():
    config = build_system_for_notation("SS(4,16,4)", num_cores=4)
    assert config.engine == "fast"
    workload = SyntheticWorkloadConfig(
        num_requests=300, address_range_size=8192, write_fraction=1.0, seed=2022
    )
    traces = generate_disjoint_workload(workload, range(4))
    profile = cProfile.Profile()
    profile.enable()
    try:
        report = simulate(config, traces)
    finally:
        profile.disable()
    requests = len(report.requests)
    assert requests == 1050  # the divisor the measured counts used
    calls = sum(
        stats[1]
        for (filename, _, _), stats in pstats.Stats(profile).stats.items()
        if str(Path(filename).resolve()).startswith(PACKAGE_DIR)
    )
    per_request = calls / requests
    assert per_request <= BUDGET_PER_REQUEST, (
        f"{calls} src/repro calls for {requests} completed requests: "
        f"{per_request:.1f} per request, budget {BUDGET_PER_REQUEST}"
    )
