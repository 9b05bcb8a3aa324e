"""Call budget of the request path: Python calls per completed request.

One fast-engine ``simulate()`` of ``SS(4,16,4)`` (the paper's Theorem
4.8 worst case: four sharers, one set-sequenced partition) is profiled
under :mod:`cProfile`, and the calls to Python functions defined under
``src/repro`` *or generated from source text* (``<string>``: the
``__init__`` of a dataclass, the ``__new__`` of a named tuple) are
divided by the completed requests.  The calls are read per code object
from ``cProfile.Profile.getstats()``: :mod:`pstats` keys functions by
``(file, line, name)``, which folds every generated constructor into
one ``('<string>', 2, '__init__')`` row.  Builtins are not counted, so
CPython versions agree closely.

Measured on this run (1,050 completed requests), ``src/repro`` calls
only:

* before the request-slot cuts: 155,120 calls (147.7 per request) on
  CPython 3.10 and 3.11, 154,074 (146.7) on 3.12;
* after them: 115,434 (109.9) on CPython 3.10 and 3.11, 114,388
  (108.9) on 3.12;
* after the flat set sequencer and the eviction-path cuts: 97,895
  (93.2) on CPython 3.10 and 3.11, 96,850 (92.2) on 3.12.

With generated constructors counted too (CPython 3.11):

* frozen-dataclass records: 106,637 calls (101.6 per request: 97,895
  ``src/repro`` + 8,742 generated);
* named-tuple records: 103,451 calls (98.5 per request: 94,713
  ``src/repro`` + 8,738 generated).

The budget is the latest value plus 5%.  A change that puts plumbing
back on the per-slot path (a property where an attribute did, a helper
hop, a second buffer scan, a dataclass where a tuple did) fails here
before it shows in a benchmark.  Separately, no frozen dataclass may be
built during the run at all: its generated ``__init__`` pays one
``object.__setattr__`` per field, several times a named tuple's cost.
"""

import cProfile
import dataclasses
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import repro
from repro.experiments.configs import build_system_for_notation
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

#: Calls per completed request, ``src/repro`` plus generated: 98.5
#: measured, plus 5%.
BUDGET_PER_REQUEST = 103.4

PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)

#: The file name CPython gives code compiled from a string, which is how
#: dataclasses and named tuples build their constructors.
GENERATED = "<string>"


def _frozen_dataclass_inits():
    """``__init__`` code object -> class, for every frozen dataclass
    defined in a ``repro`` module."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    inits = {}
    for module in modules:
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                inits[value.__init__.__code__] = value.__qualname__
    return inits


def _profiled_run():
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
    return requests, profile.getstats()


def test_request_path_stays_within_its_call_budget():
    requests, entries = _profiled_run()
    in_package = {}
    package = generated = 0
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin
            continue
        filename = code.co_filename
        if filename == GENERATED:
            generated += entry.callcount
            continue
        if filename not in in_package:
            in_package[filename] = str(Path(filename).resolve()).startswith(
                PACKAGE_DIR
            )
        if in_package[filename]:
            package += entry.callcount
    calls = package + generated
    per_request = calls / requests
    assert per_request <= BUDGET_PER_REQUEST, (
        f"{calls} calls ({package} src/repro, {generated} generated) for "
        f"{requests} completed requests: {per_request:.1f} per request, "
        f"budget {BUDGET_PER_REQUEST}"
    )


def test_no_frozen_dataclass_is_built_during_the_run():
    inits = _frozen_dataclass_inits()
    # The walk found the package's frozen configuration records.
    assert "SystemConfig" in inits.values()
    _, entries = _profiled_run()
    built = Counter()
    for entry in entries:
        name = inits.get(entry.code)
        if name is not None:
            built[name] += entry.callcount
    assert not built, f"frozen dataclasses built per run: {dict(built)}"
