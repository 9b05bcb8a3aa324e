#!/usr/bin/env python3
"""The committed benchmark of the repro simulator: host time, end to end.

Run from the repository root (no install needed; ``src/`` is put on the
path)::

    python3 perf/trajectory.py                         # every workload
    python3 perf/trajectory.py --workload dense-ss --seed 2022 --seconds 15
    python3 perf/trajectory.py --workload paper-all --traced
    python3 perf/trajectory.py --scale smoke --out smoke.json

Each workload runs in its own process.  An untraced run (``--trace 0``,
the default) times whole units of work for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``; a traced run
(``--trace 1`` or ``--traced``) reports its per-layer metrics instead,
measured from outside the program (see ``layers.py``).  Every unit's
outputs are checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``perf/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import hashlib
import importlib
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Default seeds of the workloads whose inputs ``--seed`` changes; their
#: output digests at these seeds are committed in digests.json.
DEFAULT_SEED = {"dense-ss": 2022, "sparse-think": 2022, "fuzz-oracle": 0}

#: Iterations of the reference loop, and the time it takes on the host
#: speed that reported times are scaled to (see ``timed``).
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.025

#: Fewest units a run times, whatever ``--seconds`` says, per scale.
MIN_UNITS = {"full": 3, "smoke": 1}
#: Fresh-process set-ups whose median enters ``setup_s``, per scale.
SETUP_PROBES = {"full": 3, "smoke": 1}


def _import_repro() -> None:
    """Put this checkout's ``src/`` first on the path and import repro."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perf: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perf: repro resolved to {repro.__file__}, not {SRC}")


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def _registry_work(registry) -> tuple:
    """``(simulated slots, completed LLC requests)`` of a metrics registry."""
    slots = requests = 0
    for row in registry.rows():
        if row["name"] == "sim.slots.total":
            slots += row["value"]
        elif row["name"] == "core.requests":
            requests += row["value"]
    return slots, requests


def worker_count() -> int:
    """Workers a parallel workload may use: at most the CPUs available."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(2, available))


@dataclass
class UnitOutcome:
    """The checked outputs of one unit of work."""

    digest: str
    attempted: int
    failures: List[str]
    slots: int
    llc_requests: int
    #: Sub-phase host times the unit measured itself (seconds).
    details: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One fixed set of inputs and the unit of work run on them."""

    #: The repro modules the unit of work calls into.
    MODULES: tuple = ()

    def prepare(self, seed: int, scale: str, work_dir: Path) -> None:
        """Import, configure and generate the inputs (the set-up)."""
        self.seed, self.scale, self.work_dir = seed, scale, work_dir
        for module in self.MODULES:
            importlib.import_module(module)

    def warm_up(self) -> None:
        """One small unit, so that lazy set-up finishes before timing."""

    def run(self) -> Any:
        """The timed unit of work; returns its raw outputs."""
        raise NotImplementedError

    def check(self, raw: Any) -> UnitOutcome:
        """Check a unit's outputs (untimed) and release its files."""
        raise NotImplementedError


class SyntheticRun(Workload):
    """``simulate()`` of SS(4,16,4): 4 cores, 8 KiB each, all writes."""

    NOTATION = "SS(4,16,4)"
    REQUESTS = {"full": 2000, "smoke": 100}
    WARM_UP_REQUESTS = 100

    def __init__(self, max_think_cycles: int) -> None:
        self.max_think_cycles = max_think_cycles

    def _traces(self, num_requests: int):
        from repro.workloads import synthetic

        workload = synthetic.SyntheticWorkloadConfig(
            num_requests=num_requests,
            address_range_size=8192,
            write_fraction=1.0,
            seed=self.seed,
            max_think_cycles=self.max_think_cycles,
        )
        return synthetic.generate_disjoint_workload(workload, range(4))

    def prepare(self, seed, scale, work_dir):
        super().prepare(seed, scale, work_dir)
        from repro.analysis.wcl import analytical_wcl_cycles
        from repro.experiments import configs
        from repro.llc.partition import PartitionNotation

        self.config = configs.build_system_for_notation(self.NOTATION, num_cores=4)
        self.bound = analytical_wcl_cycles(
            PartitionNotation.parse(self.NOTATION),
            total_cores=4,
            slot_width=self.config.slot_width,
            core_capacity_lines=configs.PAPER_CORE_CAPACITY_LINES,
        )
        self.traces = self._traces(self.REQUESTS[scale])

    def warm_up(self):
        from repro.sim import simulator

        simulator.simulate(self.config, self._traces(self.WARM_UP_REQUESTS))

    def run(self):
        from repro.sim import simulator

        return simulator.simulate(self.config, self.traces)

    def check(self, report):
        from repro.sim.export import report_to_dict

        failures = []
        if report.timed_out:
            failures.append("simulation timed out")
        if report.starved_cores():
            failures.append(f"starved cores {report.starved_cores()}")
        if report.observed_wcl() > self.bound:
            failures.append(
                f"observed WCL {report.observed_wcl()} above the bound {self.bound}"
            )
        exported = json.dumps(report_to_dict(report), sort_keys=True).encode()
        return UnitOutcome(
            digest=_sha256(exported),
            attempted=1,
            failures=failures,
            slots=report.total_slots,
            llc_requests=len(report.requests),
        )


class PaperAll(Workload):
    """``run_all`` serial, no cache: every paper artifact."""

    MODULES = ("repro.experiments.runner", "repro.obs.exporters")
    #: (requests per core, tightness repeats); smoke stays large enough
    #: for every artifact check to hold.
    SIZES = {"full": (300, 25), "smoke": (70, 1)}
    WARM_UP_SIZE = (20, 1)

    def _run_all(self, size):
        from repro.experiments import runner

        requests, repeats = size
        return runner.run_all(
            num_requests=requests, tightness_repeats=repeats, with_metrics=True
        )

    def warm_up(self):
        self._run_all(self.WARM_UP_SIZE)

    def run(self):
        return self._run_all(self.SIZES[self.scale])

    def check(self, result):
        from repro.obs.exporters import metrics_to_jsonl

        failures = [
            f"{artifact.name}: check failed: "
            + ", ".join(name for name, ok in artifact.checks.items() if not ok)
            for artifact in result.artifacts
            if not artifact.passed
        ]
        registry = result.merged_metrics()
        parts = []
        for artifact in result.artifacts:
            parts += [
                artifact.name.encode(),
                artifact.table.encode(),
                json.dumps(artifact.checks, sort_keys=True).encode(),
            ]
        parts.append(metrics_to_jsonl(registry).encode())
        slots, requests = _registry_work(registry)
        return UnitOutcome(
            digest=_sha256(*parts),
            attempted=len(result.artifacts),
            failures=failures,
            slots=slots,
            llc_requests=requests,
        )


class CampaignCached(Workload):
    """``run_all_robust`` with a fresh result cache: cold, then warm."""

    MODULES = ("repro.robustness.runner", "repro.obs.exporters")
    SIZES = PaperAll.SIZES
    WARM_UP_SIZE = PaperAll.WARM_UP_SIZE
    CHECKPOINT_EVERY_SLOTS = 1024

    def _campaign(self, base: Path, phase: str, size):
        from repro.robustness import runner

        requests, repeats = size
        return runner.run_all_robust(
            out_dir=base / phase,
            num_requests=requests,
            tightness_repeats=repeats,
            jobs=worker_count(),
            with_metrics=True,
            cache_dir=base / "cache",
            checkpoint_dir=base / "checkpoints",
            checkpoint_every=self.CHECKPOINT_EVERY_SLOTS,
        )

    @staticmethod
    def _cache_entries(directory: Path) -> Dict[str, tuple]:
        return {
            path.name: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in sorted(directory.glob("*"))
        }

    def _cold_and_warm(self, size):
        base = Path(tempfile.mkdtemp(dir=self.work_dir))
        start = time.perf_counter()
        cold = self._campaign(base, "cold", size)
        cold_s = time.perf_counter() - start
        entries = self._cache_entries(base / "cache")
        start = time.perf_counter()
        warm = self._campaign(base, "warm", size)
        warm_s = time.perf_counter() - start
        return base, cold, warm, entries, cold_s, warm_s

    def warm_up(self):
        shutil.rmtree(self._cold_and_warm(self.WARM_UP_SIZE)[0])

    def run(self):
        return self._cold_and_warm(self.SIZES[self.scale])

    @staticmethod
    def _output_bytes(directory: Path, result) -> List[bytes]:
        from repro.obs.exporters import metrics_to_jsonl
        from repro.robustness.runner import campaign_metrics

        tables = sorted(directory.glob("*.txt"))
        return (
            [(directory / "summary.json").read_bytes()]
            + [metrics_to_jsonl(campaign_metrics(result)).encode()]
            + [path.name.encode() + b"\0" + path.read_bytes() for path in tables]
        )

    def check(self, raw):
        from repro.robustness.runner import campaign_metrics

        base, cold, warm, entries, cold_s, warm_s = raw
        failures = []
        for phase, result in (("cold", cold), ("warm", warm)):
            failures += [
                f"{phase}: task {outcome.name} quarantined: {outcome.error}"
                for outcome in result.quarantined
            ]
            failures += [
                f"{phase}: artifact {name} failed its checks"
                for name, entry in result.manifest.tasks.items()
                if entry.get("status") == "done"
                and not (entry.get("payload") or {}).get("passed")
            ]
        cold_bytes = self._output_bytes(base / "cold", cold)
        if self._output_bytes(base / "warm", warm) != cold_bytes:
            failures.append("warm outputs differ from cold outputs")
        if self._cache_entries(base / "cache") != entries:
            failures.append("the warm run missed the result cache")
        slots, requests = _registry_work(campaign_metrics(cold))
        shutil.rmtree(base)
        return UnitOutcome(
            digest=_sha256(*cold_bytes),
            attempted=len(cold.outcomes) + len(warm.outcomes),
            failures=failures,
            # The warm run delivers the same simulated work from the cache.
            slots=2 * slots,
            llc_requests=2 * requests,
            details={"campaign.cold_s": cold_s, "campaign.warm_s": warm_s},
        )


class FuzzOracle(Workload):
    """``run_fuzz`` serial into a fresh directory."""

    MODULES = ("repro.robustness.fuzz",)
    BUDGET = {"full": 600, "smoke": 20}
    WARM_UP_BUDGET = 20

    def _fuzz(self, budget: int):
        from repro.robustness import fuzz

        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        return out, fuzz.run_fuzz(budget=budget, seed=self.seed, out_dir=out, jobs=1)

    def warm_up(self):
        shutil.rmtree(self._fuzz(self.WARM_UP_BUDGET)[0])

    def run(self):
        return self._fuzz(self.BUDGET[self.scale])

    def check(self, raw):
        out, report = raw
        failures = [f"{case['case_id']}: {case['signature']}" for case in report.failures]
        digest = _sha256((out / "fuzz-report.json").read_bytes())
        shutil.rmtree(out)
        return UnitOutcome(
            digest=digest,
            attempted=len(report.cases),
            failures=failures,
            slots=sum(case["total_slots"] for case in report.cases),
            llc_requests=sum(case["completed_requests"] for case in report.cases),
        )


WORKLOADS = {
    "dense-ss": lambda: SyntheticRun(max_think_cycles=0),
    "sparse-think": lambda: SyntheticRun(max_think_cycles=20_000),
    "paper-all": PaperAll,
    "campaign-cached": CampaignCached,
    "fuzz-oracle": FuzzOracle,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations attempted and failed across a run, with unit digests."""

    committed: Optional[str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)

    def record(self, outcome: UnitOutcome) -> None:
        self.attempted += outcome.attempted + 1  # + the digest check
        self.failures += outcome.failures
        expected = self.committed if self.committed is not None else (
            self.digests[0] if self.digests else outcome.digest
        )
        if outcome.digest != expected:
            self.failures.append(
                f"output digest {outcome.digest[:16]} differs from {expected[:16]}"
            )
        self.digests.append(outcome.digest)


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def timed(call: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(result, seconds, scaled seconds)`` of one call.

    A shared host's speed drifts by up to 1.9x within minutes, and the
    reference loop, timed right before and right after the call, drifts
    with it.  Scaled seconds are what the call takes where the loop takes
    ``REFERENCE_S``; they stay steady while raw seconds swing.
    """
    before = reference_s()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    after = reference_s()
    return result, seconds, seconds * REFERENCE_S * 2 / (before + after)


def set_up(workload: Workload, args: argparse.Namespace, work_dir: Path) -> None:
    """Everything before the first timed unit: imports, inputs, warm-up."""
    workload.prepare(args.seed, args.scale, work_dir)
    if args.scale != "smoke":
        workload.warm_up()


def setup_probe_s(args: argparse.Namespace) -> float:
    """Median scaled time of fresh processes that only set up (``set_up``)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--probe-setup",
    ]
    probe = functools.partial(
        subprocess.run, command, check=True, stdout=subprocess.DEVNULL, timeout=120
    )
    return statistics.median(timed(probe)[2] for _ in range(SETUP_PROBES[args.scale]))


def measure_untraced(workload: Workload, ledger: Ledger, args) -> Dict[str, Any]:
    """Time units for ``--seconds``; report medians of their scaled times."""
    raw_walls: List[float] = []
    walls: List[float] = []
    outcomes: List[UnitOutcome] = []
    start = time.perf_counter()
    while len(walls) < MIN_UNITS[args.scale] or time.perf_counter() - start < args.seconds:
        raw, seconds, scaled = timed(workload.run)
        raw_walls.append(seconds)
        walls.append(scaled)
        outcome = workload.check(raw)
        ledger.record(outcome)
        outcomes.append(outcome)
    metrics = {
        "wall_s": statistics.median(walls),
        "slots_per_s": statistics.median(o.slots / w for o, w in zip(outcomes, walls)),
        "llc_requests_per_s": statistics.median(
            o.llc_requests / w for o, w in zip(outcomes, walls)
        ),
    }
    details = {
        key: statistics.median(
            o.details[key] * w / r for o, w, r in zip(outcomes, walls, raw_walls)
        )
        for key in outcomes[0].details
    }
    samples = {"wall_s": walls, "raw_wall_s": raw_walls}
    return {"metrics": metrics, "details": details, "samples": samples}


def measure_traced(workload: Workload, ledger: Ledger, args, tracer, setup_generate_s):
    """Alternate untraced and traced units, then profile one unit.

    The pairs take half of ``--seconds`` (at least one pair); the profiled
    unit, two to three times slower than a plain one, takes the rest.
    """
    from layers import profile_counts

    plain: List[float] = []
    traced: List[float] = []
    plain_details: List[Dict[str, float]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds / 2:
        raw, seconds, scaled = timed(workload.run)
        plain.append(scaled)
        outcome = workload.check(raw)
        ledger.record(outcome)
        plain_details.append({k: v * scaled / seconds for k, v in outcome.details.items()})

        tracer.install()
        try:
            raw, _, scaled = timed(workload.run)
            traced.append(scaled)
        finally:
            tracer.uninstall()
            tracer.merge_workers()
        ledger.record(workload.check(raw))

    units = len(traced)
    spans = {
        "seconds": {k: v / units for k, v in tracer.seconds.items()},
        "calls": {k: v / units for k, v in tracer.calls.items()},
        "counters": {k: v / units for k, v in tracer.counters.items()},
        "io_ops": {k: v / units for k, v in tracer.io_ops.items()},
        "samples": {k: list(v) for k, v in tracer.samples.items()},
        "missing": list(tracer.missing),
    }
    tracer.reset()

    profiler = cProfile.Profile()
    tracer.install()
    tracer.profiler = profiler
    try:
        profiler.enable()
        try:
            raw = workload.run()
        finally:
            profiler.disable()
    finally:
        tracer.profiler = None
        tracer.uninstall()
        tracer.merge_workers()
        tracer.reset()
    ledger.record(workload.check(raw))
    stats = pstats.Stats(profiler)
    for path in tracer.worker_profiles():
        stats.add(str(path))
        path.unlink()

    metrics = layer_metrics(
        spans,
        profile_counts(stats),
        setup_generate_s=setup_generate_s,
        overhead_ratio=statistics.median(t / p for t, p in zip(traced, plain)),
        plain_details=plain_details,
    )
    samples = {"plain_wall_s": plain, "traced_wall_s": traced}
    return {"metrics": metrics, "details": {}, "samples": samples}


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile: of 600 samples, 12 lie beyond p98."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(spans, counts, *, setup_generate_s, overhead_ratio, plain_details):
    """The per-layer metrics of one traced run, per unit of work.

    A metric of a layer whose entry point no longer exists is ``None``.
    """
    seconds, calls, counters = spans["seconds"], spans["calls"], spans["counters"]
    missing = set(spans["missing"])

    def layer(name, counter=""):
        """``(seconds, calls, counter)`` of one layer; ``None`` when missing."""
        if name in missing:
            return None, None, None
        return seconds.get(name, 0.0), calls.get(name, 0.0), counters.get(counter, 0.0)

    def ratio(numerator, denominator):
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    build_s, builds, _ = layer("system.build")
    advance_s, _, slots = layer("engine.advance", "engine.slots")
    lookup_s, lookups, hits = layer("result_cache.lookup", "result_cache.hits")
    store_s, stores, stored_bytes = layer("result_cache.store", "result_cache.stored_bytes")
    save_s, saves, saved_bytes = layer("checkpoint.save", "checkpoint.bytes")
    manifest_s, manifests, manifest_bytes = layer("manifest.save", "manifest.bytes")
    pool_s, _, busy_s = layer("pool.run", "pool.task_busy_s")
    steps = counts["engine.reference_steps"]
    skipped = None if slots is None or steps is None else slots - steps
    case_ms = [s * 1000.0 for s in spans["samples"].get("fuzz.case", [])]
    metrics: Dict[str, Optional[float]] = {
        "workloads.generate_s": setup_generate_s + seconds.get("workloads.generate", 0.0),
        "system.build_s": build_s,
        "system.builds": builds,
        "engine.advance_s": advance_s,
        "engine.slots": slots,
        "engine.reference_steps": steps,
        "engine.ff_attempts": counts["engine.ff_attempts"],
        "engine.slots_skipped": skipped,
        "engine.skip_ratio": ratio(skipped, slots),
        "engine.prediction_clones": counts["engine.prediction_clones"],
        "llc.is_free_per_step": counts["llc.is_free_per_step"],
        "llc.partition_of_per_step": counts["llc.partition_of_per_step"],
        "report.build_s": layer("report.build")[0],
        "obs.collect_s": layer("obs.collect")[0],
        "result_cache.lookup_s": lookup_s,
        "result_cache.lookups": lookups,
        "result_cache.hit_ratio": ratio(hits, lookups),
        "result_cache.store_s": store_s,
        "result_cache.stores": stores,
        "result_cache.stored_bytes": stored_bytes,
        "checkpoint.save_s": save_s,
        "checkpoint.saves": saves,
        "checkpoint.bytes": saved_bytes,
        "manifest.save_s": manifest_s,
        "manifest.saves": manifests,
        "manifest.bytes": manifest_bytes,
        "fileio.write_s": layer("fileio.write")[0],
        "oracle.check_s": layer("oracle.check")[0],
        "pool.run_s": pool_s,
        "pool.task_busy_s": busy_s,
        "pool.utilization": ratio(busy_s, counters.get("pool.capacity_s", 0.0)),
        "fuzz.case_p50_ms": statistics.median(case_ms) if case_ms else 0.0,
        "fuzz.case_p98_ms": _percentile(case_ms, 0.98) if case_ms else 0.0,
        "fuzz.case_samples": len(case_ms),
        "campaign.cold_s": statistics.median(
            d.get("campaign.cold_s", 0.0) for d in plain_details
        ),
        "campaign.warm_s": statistics.median(
            d.get("campaign.warm_s", 0.0) for d in plain_details
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    for group in ("engine", "llc", "cache", "cpu", "bus", "sequencer"):
        metrics[f"{group}.self_share"] = counts[f"{group}.self_share"]
    from repro.common.fileio import IO_OPS

    for op in IO_OPS:
        metrics[f"fileio.ops.{op}"] = spans["io_ops"].get(op, 0.0)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def committed_digest(args) -> Optional[str]:
    """The committed output digest this run must reproduce, if any."""
    if args.workload in DEFAULT_SEED and args.seed != DEFAULT_SEED[args.workload]:
        return None
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return digests.get(args.scale, {}).get(args.workload)


def run_workload(args) -> Dict[str, Any]:
    """One workload in this process: set-up, measurement, checks."""
    _import_repro()
    spec = load_spec()
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload]()
    ledger = Ledger(committed=committed_digest(args))
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root()))
    try:
        setup_s = setup_probe_s(args)
        tracer = None
        setup_generate_s = 0.0
        if traced:
            from layers import Tracer

            tracer = Tracer(work_dir)
            tracer.install()
        try:
            workload.prepare(args.seed, args.scale, work_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
                setup_generate_s = tracer.seconds.get("workloads.generate", 0.0)
                tracer.reset()
        if args.scale != "smoke":
            workload.warm_up()
        if traced:
            result = measure_traced(workload, ledger, args, tracer, setup_generate_s)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            result = measure_untraced(workload, ledger, args)
            result["metrics"]["setup_s"] = setup_s
            result["metrics"]["peak_rss_mb"] = peak_rss_mb()
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    computed = result["metrics"]
    if set(computed) != set(names):
        raise SystemExit(
            "perf: computed metrics do not match BENCHMARK.json: "
            f"extra {sorted(set(computed) - set(names))}, "
            f"absent {sorted(set(names) - set(computed))}"
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": int(traced),
        "seconds": args.seconds,
        "units": len(ledger.digests),
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures[:20],
        "digest": ledger.digests[0],
        "metrics": {name: {"value": computed[name], "unit": units[name]} for name in names},
        "details": result["details"],
        "samples": result["samples"],
        "nproc": worker_count(),
    }


def work_root() -> Path:
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    return root


def _format(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def print_result(doc: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    mode = "traced" if doc["trace"] else "untraced"
    print(
        f"{doc['workload']}: {mode}, seed {doc['seed']}, scale {doc['scale']}, "
        f"{doc['units']} unit(s); {doc['failed']}/{doc['attempted']} operations failed"
    )
    for name, metric in doc["metrics"].items():
        print(f"  {name:28s} {_format(metric['value']):>14s} {metric['unit']}")
    for name, value in doc["details"].items():
        print(f"  {name:28s} {_format(value):>14s} (detail)")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    last = {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last), flush=True)


def run_all_workloads(args) -> int:
    """Each workload in its own process, one after the other."""
    docs = {}
    for name in WORKLOADS:
        with tempfile.NamedTemporaryFile(suffix=".json", dir=work_root()) as out:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--out", out.name,
            ]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(completed.stdout.splitlines(True)[:-1]))
            if completed.returncode != 0:
                return completed.returncode
            docs[name] = json.loads(Path(out.name).read_text(encoding="utf-8"))
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": docs}, indent=2) + "\n")
    summary = {
        "correct": all(doc["correct"] for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "workloads": {name: doc["metrics"] for name, doc in docs.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, help="workload seed (default: the committed one)")
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1: report the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, one unit, for tests")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all_workloads(args)
    if args.seed is None:
        args.seed = DEFAULT_SEED.get(args.workload, 0)
    if args.probe_setup:
        _import_repro()
        with tempfile.TemporaryDirectory(dir=work_root()) as work_dir:
            set_up(WORKLOADS[args.workload](), args, Path(work_dir))
        return 0
    doc = run_workload(args)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print_result(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
