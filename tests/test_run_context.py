"""The run context: scopes nest, restore on exit and reach fork workers.

Every piece of run-time wiring (result cache, auto-checkpoint policy,
I/O fault hook, ESSENTIAL retry schedule, ``io.*`` state) lives in one
:class:`~repro.common.context.RunContext`.  These tests pin that
scopes nest: an inner scope never clears what an enclosing scope
installed, an exception restores the previous context, and fork-pool
workers see the context they were forked under.
"""

import json

import pytest

from sim_helpers import small_config, write_trace_of

from repro.cli import main
from repro.common.context import (
    IoState,
    current_run_context,
    run_context,
)
from repro.common.fileio import atomic_write_text, count_io, io_metrics
from repro.robustness.checkpoint import AutoCheckpointPolicy
from repro.robustness.iofault import IoFaultPlan, IoFaultSpec, record_io_operations
from repro.robustness.runner import run_all_robust
from repro.sim.cache import SimResultCache
from repro.sim.parallel import TaskPool, parallel_available
from repro.sim.simulator import simulate


class ProbeArtifact:
    """A stand-in ``run_all`` artifact that records the context it ran in."""

    def __init__(self, name):
        context = current_run_context()
        self.name = name
        self.table = "probe"
        self.checks = {"ok": True}
        self.passed = True
        self.seen = (context.result_cache, context.checkpoints)


def _probe_steps(seen, simulate_once=False):
    def steps(num_requests=300, tightness_repeats=25, **kwargs):
        def build():
            if simulate_once:
                traces = {core: write_trace_of([core, core + 8]) for core in (0, 1)}
                simulate(small_config(), traces)
            artifact = ProbeArtifact("probe")
            seen.append(artifact.seen)
            return artifact

        return [("probe", build)]

    return steps


def test_run_all_robust_keeps_the_callers_cache_and_policy(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_mod

    seen = []
    monkeypatch.setattr(runner_mod, "artifact_steps", _probe_steps(seen))
    outer_cache = SimResultCache(tmp_path / "outer-cache")
    outer_policy = AutoCheckpointPolicy(tmp_path / "outer-ckpts", every_slots=64)
    with run_context(result_cache=outer_cache, checkpoints=outer_policy):
        run_all_robust(
            cache_dir=tmp_path / "inner-cache",
            checkpoint_dir=tmp_path / "inner-ckpts",
        )
        assert current_run_context().result_cache is outer_cache
        assert current_run_context().checkpoints is outer_policy
    [(inner_cache, inner_policy)] = seen
    assert inner_cache.directory == tmp_path / "inner-cache"
    assert inner_policy.directory == tmp_path / "inner-ckpts"


def test_fault_plan_scope_inside_recording_keeps_recording(tmp_path):
    plan = IoFaultPlan([IoFaultSpec.parse("eio@1,site=elsewhere")])
    with record_io_operations() as recorder:
        atomic_write_text(tmp_path / "a", "x", site="manifest")
        with run_context(io_hook=plan):
            atomic_write_text(tmp_path / "b", "x", site="manifest")
        assert current_run_context().io_hook is recorder
        atomic_write_text(tmp_path / "c", "x", site="manifest")
    # Five seam operations per write: the plan saw the middle write,
    # the recorder the writes before and after it.
    assert plan.operations == 5
    assert len(recorder) == 10
    written = {op.path.name for op in recorder.operations if op.op != "fsync-dir"}
    assert written == {"a.tmp", "a", "c.tmp", "c"}
    assert current_run_context().io_hook is None


def test_scope_exited_by_an_exception_restores_the_previous_context(tmp_path):
    before = current_run_context()
    with pytest.raises(RuntimeError):
        with run_context(result_cache=SimResultCache(tmp_path)):
            raise RuntimeError("escapes the scope")
    assert current_run_context() is before


def test_nested_scope_shares_io_state_unless_given_a_fresh_one():
    with run_context(io=IoState()) as outer:
        with run_context(io_hook=None) as inner:
            count_io("io.test")
        assert inner.io is outer.io
        with run_context(io=IoState()):
            count_io("io.test")
        assert io_metrics().counter("io.test").value == 1


@pytest.mark.skipif(not parallel_available(), reason="needs fork")
def test_fork_pool_tasks_see_the_parents_context(tmp_path):
    cache = SimResultCache(tmp_path / "cache")
    policy = AutoCheckpointPolicy(tmp_path / "ckpts", every_slots=64)
    plan = IoFaultPlan([IoFaultSpec.parse("enospc@1x*,site=auto-checkpoint")])

    def probe():
        context = current_run_context()
        return (
            str(context.result_cache.directory),
            str(context.checkpoints.directory),
            context.checkpoints.every_slots,
            [spec.describe() for spec in context.io_hook.specs],
        )

    with run_context(result_cache=cache, checkpoints=policy, io_hook=plan):
        results = TaskPool(jobs=2).run([("a", probe), ("b", probe)])
    expected = (
        str(tmp_path / "cache"),
        str(tmp_path / "ckpts"),
        64,
        ["enospc@1x*,site=auto-checkpoint"],
    )
    assert [result.value for result in results] == [expected, expected]


def test_cli_all_counts_io_across_the_campaign_scope(tmp_path, monkeypatch, capsys):
    """``all`` carries ``--cache``/``--checkpoint-dir`` in the context
    (not as forwarded arguments) and its ``io.*`` counters survive the
    campaign's inner scope into the ``--metrics`` export."""
    import repro.experiments.runner as runner_mod

    built = []
    for_directory = AutoCheckpointPolicy.for_directory

    def spy(directory, every_slots=None):
        built.append(for_directory(directory, every_slots))
        return built[-1]

    monkeypatch.setattr(AutoCheckpointPolicy, "for_directory", staticmethod(spy))
    seen = []
    monkeypatch.setattr(
        runner_mod, "artifact_steps", _probe_steps(seen, simulate_once=True)
    )
    metrics = tmp_path / "m.jsonl"
    code = main(
        [
            "all",
            "--out", str(tmp_path / "out"),
            "--cache", str(tmp_path / "cache"),
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--io-fault", "enospc@1x*,site=result-cache",
            "--metrics", str(metrics),
        ]
    )
    err = capsys.readouterr().err
    assert code == 0
    [(cache, policy)] = seen
    assert cache.directory == tmp_path / "cache"
    # main() builds the one policy; the campaign runs in its context.
    assert [policy] == built
    assert policy is built[0]
    assert policy == for_directory(tmp_path / "ckpts")
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    degraded = [row for row in rows if row["name"] == "io.degraded.result-cache"]
    assert [row["value"] for row in degraded] == [1]
    assert err.index("cache: 0 hits, 1 misses, 0 stores") < err.index("io-fault:")


def test_cli_cache_summary_precedes_the_error_line(tmp_path, capsys):
    """stderr keeps its order: ``cache:``, then ``error:``, then ``io-fault:``."""
    code = main(
        [
            "simulate",
            "SS(1,16,4)",
            "--requests", "30",
            "--cache", str(tmp_path / "cache"),
            "--json", str(tmp_path / "report.json"),
            "--io-fault", "enospc@1x*,site=report-export",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.index("cache: ") < err.index("error: ") < err.index("io-fault:")
