"""Command-line interface: ``python -m repro`` or ``repro-llc``.

Subcommands
-----------
``fig7``
    Reproduce Figure 7 (observed vs analytical WCL for SS/NSS/P).
``fig8``
    Reproduce one Figure 8 sub-figure (execution time at fixed total
    partition capacity).
``bounds``
    Print the analytical WCL bounds for a configuration notation.
``unbounded``
    Run the Section 4.1 starvation witness.
``simulate``
    Run one configuration notation against a named workload suite and
    print (optionally export) the report.
``stats``
    Run one configuration and print its full metrics catalogue
    (optionally exporting metrics and a JSONL event trace).
``workload``
    Materialise a named workload suite to trace files on disk.
``timeline``
    Run a short simulation and render the ASCII slot timeline.
``tightness``
    Probe how close adversarial steering gets to the bounds.
``all``
    Regenerate every artifact through the crash-tolerant campaign
    runner (per-task timeouts, retry, quarantine, manifest resume);
    exits non-zero if any artifact fails or is quarantined.
``fuzz``
    Run a seeded chaos-fuzz campaign: boundary-biased random scenarios
    cross-checked by the differential oracle, with failing cases
    shrunk to minimal repro artifacts; exits non-zero on any finding.
``repro``
    Replay a repro artifact deterministically and report whether the
    recorded failure still reproduces.
``cache``
    Inspect a content-addressed result cache directory: ``stats``,
    ``verify`` (discard corrupt or stale entries) and ``gc``
    (``--max-bytes`` / ``--max-age`` pruning).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.unbounded import starvation_witness
from repro.analysis.wcl import analytical_wcl_cycles
from repro.experiments.configs import PAPER_CORE_CAPACITY_LINES
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import SUBFIGURES, run_fig8
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionNotation
from repro.sim.config import PAPER_SLOT_WIDTH


def _export_metrics(registry, path: str) -> None:
    """Write ``registry`` to ``path`` (suffix picks the format).

    A bad path or an unsupported suffix raises
    :class:`~repro.common.errors.ObservabilityError`, which :func:`main`
    turns into one ``error:`` line and exit 2.
    """
    from repro.obs.exporters import write_metrics

    write_metrics(registry, path)
    print(f"metrics written to {path}")


def _io_fault_spec(text: str):
    """argparse type for ``--io-fault`` (usage errors exit 2 cleanly)."""
    from repro.common.errors import ConfigurationError
    from repro.robustness.iofault import IoFaultSpec

    try:
        return IoFaultSpec.parse(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _run_context_changes(args: argparse.Namespace) -> dict:
    """The run context one invocation installs around its command.

    Fresh I/O seam state (closed breakers, zeroed ``io.*`` counters),
    the ``--io-fault`` plan (if any) as the I/O fault hook, the
    ``--cache DIR`` result cache (vetoed by ``--no-cache``) and the
    ``--checkpoint-dir`` auto-checkpoint policy
    (:func:`~repro.common.context.store_changes`).  Fork-pool workers
    inherit the context, so ``--jobs`` runs see the same cache, policy
    and plan.
    """
    from repro.common.context import IoState, store_changes

    changes = store_changes(
        None if getattr(args, "no_cache", False) else getattr(args, "cache", None),
        getattr(args, "checkpoint_dir", None),
        getattr(args, "checkpoint_every", None),
    )
    changes.update(io=IoState(), io_hook=None)
    specs = getattr(args, "io_fault", None)
    if specs:
        from repro.robustness.iofault import IoFaultPlan

        changes["io_hook"] = IoFaultPlan(specs, seed=args.io_fault_seed)
    return changes


def _suite_traces(args: argparse.Namespace, seed: Optional[int] = None):
    """The traces of the command's ``--suite`` (``--seed`` unless
    ``seed`` is given)."""
    from repro.workloads.suites import get_suite

    return get_suite(args.suite).build(
        num_cores=args.cores,
        num_requests=args.requests,
        address_range=args.range,
        seed=args.seed if seed is None else seed,
    )


def _notation_config(args: argparse.Namespace, **overrides):
    """The command's notation on ``--cores`` cores, with each truthy
    ``overrides`` field set."""
    import dataclasses

    from repro.experiments.configs import build_system_for_notation

    config = build_system_for_notation(args.notation, num_cores=args.cores)
    overrides = {name: value for name, value in overrides.items() if value}
    return dataclasses.replace(config, **overrides) if overrides else config


def _print_cache_summary(cache, directory: str) -> None:
    """One stderr line of the invocation's result-cache counters.

    Serial counters only: worker-process hits stay in the workers; the
    shared directory is the cross-process contract.
    """
    counters = {
        name: 0 for name in ("hits", "misses", "stores", "evictions", "corruption")
    }
    for (name, _labels), metric in cache.registry:
        short = name.removeprefix("sim_cache.")
        if short in counters:
            counters[short] = metric.value
    print(
        "cache: "
        + ", ".join(f"{value} {name}" for name, value in counters.items())
        + f" ({directory})",
        file=sys.stderr,
    )


def _cmd_fig7(args: argparse.Namespace) -> int:
    result = run_fig7(
        num_requests=args.requests,
        seed=args.seed,
        adversarial=args.adversarial,
        checked=args.checked,
        jobs=args.jobs,
        with_metrics=bool(args.metrics),
        engine=args.engine,
    )
    print(result.render())
    if args.metrics:
        _export_metrics(result.metrics, args.metrics)
    if not result.all_complete():
        print(
            "ERROR: a simulation timed out or starved; its rows carry "
            "no WCL evidence",
            file=sys.stderr,
        )
        return 1
    if not result.all_within_bounds():
        print("ERROR: an observed WCL exceeded its analytical bound", file=sys.stderr)
        return 1
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    result = run_fig8(
        args.subfigure,
        num_requests=args.requests,
        seed=args.seed,
        jobs=args.jobs,
        with_metrics=bool(args.metrics),
        engine=args.engine,
    )
    print(result.render())
    print(
        f"\naverage SS speedup vs P:   {result.average_speedup_vs_p():.2f}x"
        f"\naverage SS speedup vs NSS: {result.average_speedup_vs_nss():.2f}x"
    )
    if args.metrics:
        _export_metrics(result.metrics, args.metrics)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    notation = PartitionNotation.parse(args.notation)
    cycles = analytical_wcl_cycles(
        notation,
        total_cores=args.cores,
        slot_width=args.slot_width,
        core_capacity_lines=args.capacity_lines,
    )
    print(
        render_table(
            headers=["notation", "N", "SW", "WCL (cycles)", "WCL (slots)"],
            rows=[[str(notation), args.cores, args.slot_width, cycles,
                   cycles // args.slot_width]],
            title="Analytical worst-case latency",
        )
    )
    return 0


def _cmd_unbounded(args: argparse.Namespace) -> int:
    result = starvation_witness(
        stream_lengths=tuple(args.lengths), ways=args.ways
    )
    rows = [
        [length, multi, one]
        for length, multi, one in zip(
            result.stream_lengths,
            result.multi_slot_latencies,
            result.one_slot_latencies,
        )
    ]
    print(
        render_table(
            headers=["interferer stream", "multi-slot TDM latency", "1S-TDM latency"],
            rows=rows,
            title="Section 4.1 witness: victim latency (cycles)",
        )
    )
    print(
        f"\nmulti-slot latency grows with the stream: {result.multi_slot_growth}"
        f"\n1S-TDM latency bounded by Theorem 4.7 "
        f"({result.one_slot_bound_cycles} cycles): {result.one_slot_bounded}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.sim.export import (
        core_latency_stats,
        write_report_json,
        write_requests_csv,
    )
    from repro.sim.simulator import simulate

    config = _notation_config(args, checked=args.checked, engine=args.engine)
    if args.seeds:
        conflicting = [
            flag for flag, value in (("--json", args.json), ("--csv", args.csv))
            if value
        ]
        if conflicting:
            raise ConfigurationError(
                f"{', '.join(conflicting)} cannot be combined with "
                "--seeds: a sweep has no single report to export "
                "(--metrics aggregates across seeds and is allowed)"
            )
        return _simulate_sweep(args, config)
    report = simulate(config, _suite_traces(args))
    rows = []
    for core in range(args.cores):
        core_report = report.core_reports[core]
        rows.append(
            [
                f"core {core}",
                core_report.requests,
                core_report.observed_wcl,
                f"{core_report.mean_latency:.0f}",
                core_report.finish_time,
            ]
        )
    print(
        render_table(
            ["core", "LLC requests", "observed WCL", "mean latency", "finish"],
            rows,
            title=f"{args.notation} on suite {args.suite!r}",
        )
    )
    if report.requests:
        stats = core_latency_stats(report)
        print(
            f"\nlatency p50/p90/p99/max: {stats.p50}/{stats.p90}/"
            f"{stats.p99}/{stats.maximum} cycles over {stats.count} requests"
        )
    if args.json:
        write_report_json(report, args.json)
        print(f"report written to {args.json}")
    if args.csv:
        write_requests_csv(report, args.csv)
        print(f"per-request CSV written to {args.csv}")
    if args.metrics:
        from repro.obs.collect import collect_metrics

        _export_metrics(
            collect_metrics(report, config.slot_width), args.metrics
        )
    if report.timed_out:
        print("WARNING: simulation hit the slot cap", file=sys.stderr)
        return 1
    return 0


def _simulate_sweep(args: argparse.Namespace, config) -> int:
    """``simulate --seeds ...``: a distributional sweep of one notation."""
    from repro.sim.sweeps import sweep_seeds

    result = sweep_seeds(
        config,
        lambda seed: _suite_traces(args, seed),
        seeds=args.seeds,
        jobs=args.jobs,
        with_metrics=bool(args.metrics),
    )
    print(
        render_table(
            headers=["seed", "observed WCL", "makespan"],
            rows=[
                [seed, wcl, makespan]
                for seed, wcl, makespan in zip(
                    result.seeds, result.observed_wcls, result.makespans
                )
            ],
            title=f"{args.notation} on suite {args.suite!r} "
            f"({len(result.seeds)} seeds)",
        )
    )
    print(
        f"\nmax observed WCL: {result.max_observed_wcl} cycles"
        f"\nmean makespan:    {result.mean_makespan:.0f} cycles"
        f"\nWCL spread:       {result.wcl_spread} cycles"
    )
    if args.metrics:
        _export_metrics(result.metrics, args.metrics)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.workloads.suites import get_suite, suite_names
    from repro.workloads.trace import write_trace

    if args.list:
        for name in suite_names():
            print(f"{name:10} {get_suite(name).description}")
        return 0
    traces = _suite_traces(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for core, trace in sorted(traces.items()):
        path = out_dir / f"{args.suite}-core{core}.trace"
        write_trace(trace, path)
        print(f"wrote {len(trace)} records to {path}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.sim.simulator import Simulator
    from repro.sim.timeline import render_timeline

    sim = Simulator(_notation_config(args, record_events=True), _suite_traces(args))
    report = sim.run()
    print(
        render_timeline(
            report.events,
            sim.system.schedule,
            num_cores=args.cores,
            start_slot=args.start_slot,
            num_slots=args.slots,
        )
    )
    return 0


def _cmd_tightness(args: argparse.Namespace) -> int:
    from repro.experiments.tightness import run_tightness

    result = run_tightness(repeats=args.repeats)
    print(result.render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.collect import collect_metrics
    from repro.obs.exporters import render_metrics_table
    from repro.obs.tracing import JsonlTraceSink
    from repro.sim.simulator import simulate

    config = _notation_config(args, record_metrics=args.record_metrics)
    traces = _suite_traces(args)
    sink = JsonlTraceSink(args.trace) if args.trace else None
    try:
        report = simulate(config, traces, event_sink=sink)
    finally:
        if sink is not None:
            sink.close()
    registry = collect_metrics(report, config.slot_width)
    print(render_metrics_table(registry))
    if args.trace:
        print(f"\n{sink.emitted} events traced to {args.trace}")
    if args.metrics:
        _export_metrics(registry, args.metrics)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import compare_notations

    result = compare_notations(
        args.notations,
        suite=args.suite,
        num_cores=args.cores,
        num_requests=args.requests,
        address_range=args.range,
        seed=args.seed,
        jobs=args.jobs,
        with_metrics=bool(args.metrics),
        engine=args.engine,
    )
    print(result.render())
    print(
        f"\nfastest: {result.fastest().notation}; "
        f"lowest observed WCL: {result.lowest_wcl().notation}"
    )
    if args.metrics:
        _export_metrics(result.metrics, args.metrics)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.robustness.runner import (
        RetryPolicy,
        campaign_metrics,
        run_all_robust,
    )

    result = run_all_robust(
        out_dir=args.out,
        num_requests=args.requests,
        timeout=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries),
        resume=args.resume,
        jobs=args.jobs,
        progress=print,
        with_metrics=bool(args.metrics),
        engine=args.engine,
    )
    print("\n" + result.summary())
    print(f"\nartifacts written to {args.out}/")
    if args.metrics:
        from repro.common.fileio import io_metrics

        registry = campaign_metrics(result)
        if io_metrics().rows():
            # Degradation counters (io.fault.*, io.degraded.*) ride
            # along in the requested export; a clean run has no io.*
            # rows, so the bytes of undegraded runs are unchanged.
            registry = registry.merged(io_metrics())
        _export_metrics(registry, args.metrics)
    if result.quarantined:
        names = ", ".join(outcome.name for outcome in result.quarantined)
        print(f"ERROR: quarantined tasks: {names}", file=sys.stderr)
    # Non-zero when any artifact failed its checks OR any task was
    # quarantined — a green exit means the full suite reproduced.
    return 0 if result.all_ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.robustness.fuzz import run_fuzz

    registry = MetricsRegistry() if args.metrics else None
    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        out_dir=args.out,
        jobs=args.jobs,
        fault_rate=args.chaos,
        resume=args.resume,
        timeout=args.timeout,
        shrink_failures=args.shrink,
        progress=print if args.verbose else None,
        registry=registry,
    )
    print(report.summary_lines())
    if args.out:
        print(f"report written to {args.out}/fuzz-report.json")
    if args.metrics:
        _export_metrics(registry, args.metrics)
    return 0 if report.ok else 1


def _cmd_repro(args: argparse.Namespace) -> int:
    from repro.robustness.shrink import replay_artifact

    replay = replay_artifact(args.artifact)
    case = replay.case
    summary = (
        f"case {case.case_id}: {case.total_requests} request(s), "
        f"{case.config['num_cores']} core(s)"
    )
    if case.fault:
        summary += f", injected {case.fault['kind']} at slot {case.fault['slot']}"
    print(summary)
    print(f"expected signature: {replay.expected_signature}")
    print(f"observed signature: {replay.result.signature or '(case passed)'}")
    for violation in replay.result.violations[:10]:
        print(f"  {violation['check']}: {violation['detail']}")
    if replay.reproduced:
        print("REPRODUCED")
        return 0
    print("NOT REPRODUCED: the failure no longer matches", file=sys.stderr)
    return 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.common.errors import ConfigurationError
    from repro.sim.cache import SimResultCache

    # Inspecting a cache never creates one: a mistyped directory would
    # otherwise read as an empty, healthy cache.
    if not Path(args.dir).is_dir():
        raise ConfigurationError(f"no cache directory at {args.dir}")
    cache = SimResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"entries:     {stats.entries}")
        print(f"total bytes: {stats.total_bytes}")
        return 0
    if args.action == "verify":
        ok, removed = cache.verify()
        print(
            f"{len(ok)} entry(ies) ok, "
            f"{len(removed)} defective entry(ies) removed"
        )
        return 1 if removed else 0
    evicted = cache.gc(max_bytes=args.max_bytes, max_age_secs=args.max_age)
    stats = cache.stats()
    print(
        f"{len(evicted)} entry(ies) evicted; "
        f"{stats.entries} entry(ies), {stats.total_bytes} bytes remain"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-llc",
        description="Predictable sharing of LLC partitions (DAC 2022) — "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def parse_jobs(text: str) -> int:
        from repro.common.errors import ConfigurationError
        from repro.sim.parallel import effective_jobs

        try:
            return effective_jobs(int(text))
        except (ValueError, ConfigurationError) as exc:
            raise argparse.ArgumentTypeError(str(exc))

    def add_jobs_arg(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--jobs",
            type=parse_jobs,
            default=1,
            help="worker processes for independent simulations (default: "
            "1, serial; 0 = one per CPU); results are merged "
            "deterministically, so any value yields identical output",
        )

    def add_engine_arg(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--engine",
            choices=["fast", "reference"],
            default=None,
            help="slot engine: 'fast' skips provably idle slot stretches "
            "in O(cores), 'reference' ticks every slot; reports, metrics "
            "and figures are bit-identical under either (default: the "
            "config's engine, normally 'fast')",
        )

    def add_checkpoint_dir_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--checkpoint-dir",
            metavar="DIR",
            default=None,
            help="checkpoint every simulation this command runs into DIR "
            "(one file per configuration+workload, inherited by --jobs "
            "workers); a killed run resumed with the same flags produces "
            "byte-identical artifacts",
        )
        sub_parser.add_argument(
            "--checkpoint-every",
            type=int,
            metavar="SLOTS",
            default=None,
            help="checkpoint interval in TDM slots (default: 16384)",
        )

    def add_cache_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache",
            metavar="DIR",
            default=None,
            help="content-addressed result cache: look every simulation "
            "up by canonical fingerprint (config + traces + engine + "
            "model version) in DIR and store misses there; cached runs "
            "produce byte-identical reports, metrics and figures "
            "(inherited by --jobs workers; see 'repro-llc cache' for "
            "stats/verify/gc)",
        )
        sub_parser.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache for this invocation (always simulate)",
        )

    def add_metrics_arg(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--metrics",
            metavar="PATH",
            help="export the run's metrics here; the suffix picks the "
            "format (.jsonl, .csv or .prom — Prometheus text format); "
            "output is byte-identical for any --jobs value",
        )

    def add_io_fault_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--io-fault",
            metavar="SPEC",
            action="append",
            type=_io_fault_spec,
            default=None,
            help="inject a deterministic filesystem fault at the Nth "
            "matching I/O operation, e.g. 'enospc@3', "
            "'eio@1x*,site=result-cache', 'corrupt-read@1,path=res-*' "
            "(repeatable; grammar in docs/ROBUSTNESS.md); ESSENTIAL "
            "artifacts retry then fail loudly, BEST-EFFORT stores "
            "degrade through a circuit breaker and the run continues",
        )
        sub_parser.add_argument(
            "--io-fault-seed",
            type=int,
            default=0,
            metavar="N",
            help="seed for randomized fault payloads (read corruption)",
        )

    def add_run_args(sub_parser: argparse.ArgumentParser) -> None:
        """The flags every figure and campaign command shares."""
        add_jobs_arg(sub_parser)
        add_metrics_arg(sub_parser)
        add_engine_arg(sub_parser)
        add_checkpoint_dir_args(sub_parser)
        add_cache_args(sub_parser)
        add_io_fault_args(sub_parser)

    fig7 = sub.add_parser("fig7", help="reproduce Figure 7 (WCL)")
    fig7.add_argument("--requests", type=int, default=400)
    fig7.add_argument("--seed", type=int, default=2022)
    add_run_args(fig7)
    fig7.add_argument(
        "--adversarial",
        action="store_true",
        help="steer replacement/arbitration toward the worst case "
        "(separates NSS from SS at every range)",
    )
    fig7.add_argument(
        "--checked",
        action="store_true",
        help="run under the per-slot invariant monitor (slower; aborts "
        "on model-state corruption)",
    )
    fig7.set_defaults(func=_cmd_fig7)

    fig8 = sub.add_parser("fig8", help="reproduce a Figure 8 sub-figure")
    fig8.add_argument("subfigure", choices=sorted(SUBFIGURES))
    fig8.add_argument("--requests", type=int, default=2000)
    fig8.add_argument("--seed", type=int, default=2022)
    add_run_args(fig8)
    fig8.set_defaults(func=_cmd_fig8)

    bounds = sub.add_parser("bounds", help="print analytical WCL bounds")
    bounds.add_argument("notation", help="e.g. SS(1,16,4), NSS(2,16,4), P(1,16)")
    bounds.add_argument("--cores", type=int, default=4)
    bounds.add_argument("--slot-width", type=int, default=PAPER_SLOT_WIDTH)
    bounds.add_argument(
        "--capacity-lines", type=int, default=PAPER_CORE_CAPACITY_LINES
    )
    bounds.set_defaults(func=_cmd_bounds)

    unbounded = sub.add_parser(
        "unbounded", help="run the Section 4.1 starvation witness"
    )
    unbounded.add_argument(
        "--lengths", type=int, nargs="+", default=[50, 100, 200]
    )
    unbounded.add_argument("--ways", type=int, default=4)
    unbounded.set_defaults(func=_cmd_unbounded)

    def add_workload_args(
        sub_parser: argparse.ArgumentParser, requests_default: int = 300
    ) -> None:
        sub_parser.add_argument("--cores", type=int, default=4)
        sub_parser.add_argument(
            "--requests",
            type=int,
            default=requests_default,
            help=f"LLC requests per core (default: {requests_default})",
        )
        sub_parser.add_argument("--range", type=int, default=4096)
        sub_parser.add_argument("--seed", type=int, default=2022)

    simulate_cmd = sub.add_parser(
        "simulate", help="run a notation against a workload suite"
    )
    simulate_cmd.add_argument("notation", help="e.g. SS(1,16,4)")
    simulate_cmd.add_argument("--suite", default="fig7")
    add_workload_args(simulate_cmd)
    simulate_cmd.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        help="sweep these workload seeds instead of a single --seed run "
        "and report the WCL/makespan distribution (conflicts with "
        "--json/--csv, which export a single run's report; --metrics "
        "aggregates across seeds and is allowed)",
    )
    add_jobs_arg(simulate_cmd)
    add_metrics_arg(simulate_cmd)
    add_engine_arg(simulate_cmd)
    add_cache_args(simulate_cmd)
    add_io_fault_args(simulate_cmd)
    simulate_cmd.add_argument("--json", help="write the aggregate report here")
    simulate_cmd.add_argument("--csv", help="write per-request records here")
    simulate_cmd.add_argument(
        "--checked",
        action="store_true",
        help="run under the per-slot invariant monitor",
    )
    simulate_cmd.set_defaults(func=_cmd_simulate)

    stats_cmd = sub.add_parser(
        "stats",
        help="run a notation and print its full metrics catalogue",
    )
    stats_cmd.add_argument("notation", nargs="?", default="SS(1,16,4)")
    stats_cmd.add_argument("--suite", default="fig7")
    add_workload_args(stats_cmd)
    add_metrics_arg(stats_cmd)
    stats_cmd.add_argument(
        "--record-metrics",
        action="store_true",
        help="also run the per-slot occupancy sampler (PWB/PRB "
        "occupancy and sequencer QLT-depth histograms over time)",
    )
    stats_cmd.add_argument(
        "--trace",
        metavar="PATH",
        help="stream every engine event to PATH as JSON lines while "
        "the simulation runs (O(1) memory, any run length)",
    )
    add_io_fault_args(stats_cmd)
    stats_cmd.set_defaults(func=_cmd_stats)

    workload_cmd = sub.add_parser(
        "workload", help="dump a named workload suite to trace files"
    )
    workload_cmd.add_argument("suite", nargs="?", default="fig7")
    workload_cmd.add_argument("--list", action="store_true", help="list suites")
    add_workload_args(workload_cmd)
    workload_cmd.add_argument("--out", default="traces")
    workload_cmd.set_defaults(func=_cmd_workload)

    timeline_cmd = sub.add_parser(
        "timeline", help="render an ASCII slot timeline of a short run"
    )
    timeline_cmd.add_argument("notation", nargs="?", default="SS(1,16,4)")
    timeline_cmd.add_argument("--suite", default="storm")
    # The timeline renders per-slot detail, so it defaults to a much
    # shorter run than the other workload commands; registering the
    # default on the argument itself keeps --help truthful (a bare
    # set_defaults() after add_workload_args silently diverged).
    add_workload_args(timeline_cmd, requests_default=60)
    timeline_cmd.add_argument("--start-slot", type=int, default=0)
    timeline_cmd.add_argument("--slots", type=int, default=80)
    timeline_cmd.set_defaults(func=_cmd_timeline)

    tightness_cmd = sub.add_parser(
        "tightness", help="probe bound tightness with adversarial steering"
    )
    tightness_cmd.add_argument("--repeats", type=int, default=40)
    tightness_cmd.set_defaults(func=_cmd_tightness)

    all_cmd = sub.add_parser(
        "all", help="regenerate every artifact into a results directory"
    )
    all_cmd.add_argument("--out", default="results")
    all_cmd.add_argument("--requests", type=int, default=300)
    all_cmd.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="skip artifacts a previous (interrupted) run already "
        "completed, per the manifest in --out (--no-resume starts over)",
    )
    all_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-artifact wall-clock budget in seconds, at any --jobs "
        "(an overrunning artifact's worker is killed; it is quarantined)",
    )
    all_cmd.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per artifact for transient (host-level) failures",
    )
    add_run_args(all_cmd)
    all_cmd.set_defaults(func=_cmd_all)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="chaos-fuzz random scenarios against the differential oracle",
    )
    fuzz_cmd.add_argument(
        "--budget",
        type=int,
        default=200,
        help="number of generated cases (default: 200)",
    )
    fuzz_cmd.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; (budget, seed) fixes the exact case list",
    )
    fuzz_cmd.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write fuzz-report.json, the resume manifest and any repro "
        "artifacts here (use a fresh directory per budget/seed)",
    )
    fuzz_cmd.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="RATE",
        help="inject a deterministic engine fault into this fraction of "
        "cases; every fault that fires must be caught by the oracle "
        "(a missed fault fails the campaign)",
    )
    fuzz_cmd.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="skip cases a previous (interrupted) campaign in --out "
        "already ran, per its manifest (--no-resume starts over)",
    )
    fuzz_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-case wall-clock budget in seconds, at any --jobs (an "
        "overrunning case's worker is killed; it counts as a failure)",
    )
    fuzz_cmd.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug each failing case down to a minimal "
        "repro-<case>.json artifact in --out",
    )
    fuzz_cmd.add_argument(
        "--verbose",
        action="store_true",
        help="print per-case progress while the campaign runs",
    )
    add_jobs_arg(fuzz_cmd)
    add_metrics_arg(fuzz_cmd)
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    repro_cmd = sub.add_parser(
        "repro", help="replay a minimized repro artifact deterministically"
    )
    repro_cmd.add_argument(
        "artifact", help="a repro-*.json file written by 'fuzz'"
    )
    repro_cmd.set_defaults(func=_cmd_repro)

    compare_cmd = sub.add_parser(
        "compare", help="compare partition configurations on one workload"
    )
    compare_cmd.add_argument(
        "notations", nargs="+", help="e.g. SS(2,16,4) NSS(2,16,4) P(1,16)"
    )
    compare_cmd.add_argument("--suite", default="fig7")
    add_workload_args(compare_cmd)
    add_run_args(compare_cmd)
    compare_cmd.set_defaults(func=_cmd_compare)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or prune a result cache directory"
    )
    cache_cmd.add_argument(
        "action",
        choices=("stats", "verify", "gc"),
        help="stats: entry/byte counts; verify: check every entry and "
        "remove defective ones (exit 1 if any removed); gc: prune by "
        "size and/or age",
    )
    cache_cmd.add_argument("dir", help="cache directory (as given to --cache)")
    cache_cmd.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: evict oldest entries until the cache fits this size",
    )
    cache_cmd.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECS",
        help="gc: evict entries not touched for this many seconds",
    )
    cache_cmd.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Each invocation runs its command in one run context built from the
    parsed flags (:func:`_run_context_changes`) — so requested exports
    and summaries are inside the ``--io-fault`` window too — and maps a
    :class:`~repro.common.errors.PersistenceError` (an ESSENTIAL
    artifact that could not be written after bounded retries) to a
    clean one-line error and exit code 1.  Every other
    :class:`~repro.common.errors.ReproError` is an unusable input — an
    out-of-range flag value, a malformed metrics or trace request, or a
    corrupt or foreign manifest, checkpoint or repro artifact — and is
    one ``error:`` line and the usage-error exit code 2.  A
    :class:`~repro.common.errors.SimulationError` is a model fault and
    keeps its traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.common.context import run_context
    from repro.common.errors import PersistenceError, ReproError, SimulationError

    changes: dict = {"io_hook": None}
    try:
        changes = _run_context_changes(args)
        with run_context(**changes):
            try:
                return args.func(args)
            finally:
                if "result_cache" in changes:
                    _print_cache_summary(changes["result_cache"], args.cache)
    except PersistenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError:
        # A model fault, never a bad input: keep the traceback.
        raise
    except ReproError as exc:
        # e.g. an out-of-range flag, a trace sink that failed mid-run,
        # an unwritable metrics export or a corrupt manifest: loud
        # failure with the offending value or path, usage-error exit
        # code.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        plan = changes["io_hook"]
        if plan is not None:
            print(
                f"io-fault: {plan.fired_count} fault(s) injected over "
                f"{plan.operations} seam operation(s)",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
