"""Outside-in per-layer tracing for the traced benchmark run.

Nothing under ``src/`` changes.  :class:`Tracer` replaces public functions
and methods of the ``repro`` modules *where they are looked up* (the
defining module, every loaded ``repro.*`` module that imported the same
object by name, and class attributes for methods), times every call, and
keeps per-layer totals in memory.  Fork-pool workers inherit the wrappers;
each worker task appends its own totals to a per-PID JSONL file that the
parent merges when the unit ends.

:func:`profile_counts` turns a cProfile run of the same unit into call
counts of the hot model functions and self-time shares per model package.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pkgutil
import pstats
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counters derived from a call's arguments and result: ``(args, result,
#: state) -> {counter: amount}``; ``state`` is what ``before(args)`` gave.
After = Callable[[tuple, Any, Any], Dict[str, float]]


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


def _slot_cursor(args):
    return args[0]._slot


@dataclass(frozen=True)
class Target:
    """One public entry point wrapped as one layer's span."""

    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"``.
    attr: str
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[After] = None
    #: Keep every call's duration, for percentiles.
    keep_samples: bool = False


#: The layer boundaries a traced run measures.  Each layer reports
#: ``<layer>_s`` (inclusive seconds) and a call count; ``after`` adds the
#: layer's work counters.
TARGETS: Tuple[Target, ...] = (
    Target("workloads.generate", "repro.workloads.synthetic", "generate_disjoint_workload"),
    Target("workloads.generate", "repro.robustness.fuzz", "generate_cases"),
    Target("system.build", "repro.sim.system", "System.__init__"),
    Target(
        "engine.advance",
        "repro.sim.engine",
        "SlotEngine.advance",
        before=_slot_cursor,
        after=lambda args, result, start: {"engine.slots": args[0]._slot - start},
    ),
    Target("report.build", "repro.sim.report", "build_report"),
    Target("obs.collect", "repro.obs.collect", "collect_metrics"),
    Target(
        "result_cache.lookup",
        "repro.sim.cache",
        "SimResultCache.lookup",
        after=lambda args, result, _: {"result_cache.hits": int(result is not None)},
    ),
    Target(
        "result_cache.store",
        "repro.sim.cache",
        "SimResultCache.store",
        after=lambda args, result, _: {"result_cache.stored_bytes": _file_size(result)},
    ),
    Target(
        "checkpoint.save",
        "repro.robustness.checkpoint",
        "save_checkpoint",
        after=lambda args, result, _: {"checkpoint.bytes": _file_size(result)},
    ),
    Target(
        "manifest.save",
        "repro.robustness.runner",
        "RunManifest.save",
        after=lambda args, result, _: {"manifest.bytes": _file_size(args[0].path)},
    ),
    Target("fileio.write", "repro.common.fileio", "atomic_write_text"),
    Target("oracle.check", "repro.robustness.oracle", "check_run"),
    Target("fuzz.case", "repro.robustness.fuzz", "run_fuzz_case", keep_samples=True),
)

#: The pool's dispatch entry point; wrapped specially so that worker-side
#: spans, I/O operations and profiles reach the parent.
POOL_TARGET = Target("pool.run", "repro.sim.parallel", "TaskPool.run")

#: Hot model functions whose cProfile call counts the traced run reports:
#: metric -> (module, qualified name, per-step normalised).
PROFILED_CALLS: Dict[str, Tuple[str, str, bool]] = {
    "engine.reference_steps": ("repro.sim.engine", "SlotEngine._do_slot", False),
    "engine.ff_attempts": ("repro.sim.engine", "SlotEngine._try_fast_forward", False),
    "engine.prediction_clones": (
        "repro.cpu.private_stack",
        "PrivateStack.clone_for_prediction",
        False,
    ),
    "llc.is_free_per_step": ("repro.llc.llc", "LlcEntry.is_free", True),
    "llc.partition_of_per_step": ("repro.llc.llc", "PartitionedLlc.partition_of", True),
}

#: cProfile self time is grouped by the source file's place in the package.
SELF_SHARE_GROUPS: Dict[str, str] = {
    "engine": os.path.join("repro", "sim", "engine.py"),
    "llc": os.path.join("repro", "llc", ""),
    "cache": os.path.join("repro", "cache", ""),
    "cpu": os.path.join("repro", "cpu", ""),
    "bus": os.path.join("repro", "bus", ""),
    "sequencer": os.path.join("repro", "sequencer", ""),
}


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """``(owner, name, original)``; raises AttributeError when gone."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        original = owner.__dict__[name] if name in owner.__dict__ else getattr(owner, name)
    else:
        original = getattr(owner, name)
    return owner, name, original


def _raw_function(obj: Any) -> Any:
    """The plain function behind a property or a function."""
    return obj.fget if isinstance(obj, property) else obj


class Tracer:
    """Installs the layer wrappers and accumulates their spans."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.parent_pid = os.getpid()
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.io_ops: Counter = Counter()
        self.samples: Dict[str, List[float]] = {}
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._recorder: Any = None
        self._recorder_ctx: Any = None
        #: The profiler of the current profile pass, if any; workers
        #: stop their inherited copy and profile their own task.
        self.profiler: Optional[cProfile.Profile] = None

    # -- accounting -------------------------------------------------------
    def add(self, layer: str, seconds: float, counters: Optional[Dict[str, float]] = None) -> None:
        self.seconds[layer] += seconds
        self.calls[layer] += 1
        if counters:
            self.counters.update(counters)

    def reset(self) -> None:
        for totals in (self.seconds, self.calls, self.counters, self.io_ops, self.samples):
            totals.clear()

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Wrap every target; record targets that no longer exist.

        Every ``repro`` module is imported first: a module imported while
        the wrappers are in place would keep a wrapper that
        :meth:`uninstall` cannot see.
        """
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        self.missing = []
        for target in TARGETS + (POOL_TARGET,):
            try:
                owner, name, original = _resolve(target.module, target.attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.layer)
                continue
            if target is POOL_TARGET:
                wrapper = self._pool_wrapper(original)
            else:
                wrapper = self._span_wrapper(target, original)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
            else:
                # A module function: patch it in every loaded repro
                # module that looks it up under the same name.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        getattr(module, name, None) is original
                    ):
                        self._patch(module, name, original, wrapper)
        from repro.robustness.iofault import record_io_operations

        self._recorder_ctx = record_io_operations()
        self._recorder = self._recorder_ctx.__enter__()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
        if self._recorder_ctx is not None:
            self.io_ops.update(op.op for op in self._recorder.operations)
            self._recorder_ctx.__exit__(None, None, None)
            self._recorder_ctx = self._recorder = None

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, target: Target, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = target.before(args) if target.before is not None else None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.add(target.layer, time.perf_counter() - start)
                raise
            elapsed = time.perf_counter() - start
            counters = target.after(args, result, state) if target.after else None
            tracer.add(target.layer, elapsed, counters)
            if target.keep_samples:
                tracer.samples.setdefault(target.layer, []).append(elapsed)
            return result

        return wrapper

    def _pool_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def run(pool, tasks, *args, **kwargs):
            wrapped = [(name, tracer._worker_task(thunk)) for name, thunk in tasks]
            start = time.perf_counter()
            try:
                return original(pool, wrapped, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.add("pool.run", elapsed, {"pool.capacity_s": elapsed * pool.jobs})

        return run

    def _worker_task(self, thunk: Callable[[], Any]) -> Callable[[], Any]:
        tracer = self

        def task():
            if os.getpid() == tracer.parent_pid:
                start = time.perf_counter()
                try:
                    return thunk()
                finally:
                    tracer.counters["pool.task_busy_s"] += time.perf_counter() - start
            # A forked worker: start from empty totals (the parent's were
            # copied by fork) and ship this task's totals when it ends.
            tracer.reset()
            ops_before = len(tracer._recorder) if tracer._recorder is not None else 0
            profiler = None
            if tracer.profiler is not None:
                tracer.profiler.disable()
                profiler = cProfile.Profile()
                profiler.enable()
            start = time.perf_counter()
            try:
                return thunk()
            finally:
                busy = time.perf_counter() - start
                if profiler is not None:
                    profiler.disable()
                    profiler.dump_stats(
                        str(tracer.work_dir / f"prof-{os.getpid()}-{time.monotonic_ns()}.out")
                    )
                tracer.counters["pool.task_busy_s"] += busy
                if tracer._recorder is not None:
                    tracer.io_ops.update(
                        op.op for op in tracer._recorder.operations[ops_before:]
                    )
                tracer._dump_worker()

        return task

    def _dump_worker(self) -> None:
        record = {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "io_ops": dict(self.io_ops),
            "samples": self.samples,
        }
        path = self.work_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def merge_workers(self) -> None:
        """Fold every worker's span file into the parent's totals."""
        for path in sorted(self.work_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.seconds.update(record["seconds"])
                self.calls.update(record["calls"])
                self.counters.update(record["counters"])
                self.io_ops.update(record["io_ops"])
                for layer, durations in record["samples"].items():
                    self.samples.setdefault(layer, []).extend(durations)
            path.unlink()

    def worker_profiles(self) -> List[Path]:
        return sorted(self.work_dir.glob("prof-*.out"))


def _code_key(module: str, qualname: str) -> Optional[Tuple[str, int, str]]:
    """The pstats key ``(file, first line, name)`` of one function.

    ``None`` when the function no longer exists.
    """
    try:
        _, _, obj = _resolve(module, qualname)
    except (ImportError, AttributeError, KeyError):
        return None
    code = _raw_function(obj).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_counts(stats: pstats.Stats) -> Dict[str, Optional[float]]:
    """Call counts and self-time shares from one profiled unit.

    A function that no longer exists is reported as ``None`` (missing),
    never as 0.
    """
    table = stats.stats  # type: ignore[attr-defined]
    calls: Dict[str, Optional[int]] = {}
    for metric, (module, qualname, _) in PROFILED_CALLS.items():
        key = _code_key(module, qualname)
        calls[metric] = None if key is None else table.get(key, (0, 0))[1]
    steps = calls["engine.reference_steps"]
    out: Dict[str, Optional[float]] = {}
    for metric, (_, _, per_step) in PROFILED_CALLS.items():
        count = calls[metric]
        if per_step and count is not None:
            out[metric] = None if steps is None else (count / steps if steps else 0.0)
        else:
            out[metric] = count
    total = sum(entry[2] for entry in table.values())
    for group, fragment in SELF_SHARE_GROUPS.items():
        own = sum(
            entry[2] for (filename, _, _), entry in table.items() if fragment in filename
        )
        out[f"{group}.self_share"] = own / total if total else 0.0
    return out
