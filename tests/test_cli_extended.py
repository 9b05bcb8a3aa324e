"""Tests for the extended CLI subcommands."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.robustness.runner import RunManifest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSimulateCommand:
    def test_basic_run(self, capsys):
        assert main(["simulate", "SS(1,16,4)", "--suite", "storm",
                     "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "SS(1,16,4)" in out
        assert "latency p50/p90/p99/max" in out

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([
            "simulate", "P(1,16)", "--suite", "fig7",
            "--requests", "40", "--json", str(target),
        ]) == 0
        data = json.loads(target.read_text())
        assert data["makespan"] > 0
        assert "cores" in data

    def test_csv_export(self, tmp_path):
        target = tmp_path / "requests.csv"
        assert main([
            "simulate", "P(1,16)", "--suite", "fig7",
            "--requests", "40", "--csv", str(target),
        ]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("core,block")
        assert len(lines) > 1

    def test_different_suites(self, capsys):
        for suite in ("readonly", "mixed", "pingpong"):
            assert main([
                "simulate", "SS(1,16,4)", "--suite", suite, "--requests", "40",
            ]) == 0


class TestWorkloadCommand:
    def test_list(self, capsys):
        assert main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "storm" in out

    def test_dump_traces(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main([
            "workload", "fig7", "--cores", "2", "--requests", "30",
            "--out", str(out_dir),
        ]) == 0
        files = sorted(out_dir.glob("*.trace"))
        assert len(files) == 2
        from repro.workloads.trace import read_trace

        trace = read_trace(files[0])
        assert len(trace) == 30

    def test_dumped_traces_replayable(self, tmp_path):
        out_dir = tmp_path / "traces"
        main(["workload", "storm", "--cores", "2", "--requests", "24",
              "--out", str(out_dir)])
        from repro.sim.simulator import simulate
        from repro.workloads.trace import read_trace
        from sim_helpers import shared_partition, small_config

        traces = {
            core: read_trace(out_dir / f"storm-core{core}.trace")
            for core in (0, 1)
        }
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=4)],
            llc_sets=1,
            llc_ways=4,
        )
        report = simulate(config, traces)
        assert not report.timed_out


class TestTimelineCommand:
    def test_renders(self, capsys):
        assert main([
            "timeline", "SS(1,16,2)", "--cores", "2", "--slots", "30",
            "--requests", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "core  0" in out
        assert "legend:" in out


class TestTightnessCommand:
    def test_runs(self, capsys):
        assert main(["tightness", "--repeats", "8"]) == 0
        out = capsys.readouterr().out
        assert "Bound tightness" in out


class TestAllCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["all", "--out", str(out_dir), "--requests", "100"])
        assert (out_dir / "SUMMARY.txt").exists()
        assert (out_dir / "figure-7.txt").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "figure-7" in summary
        assert code in (0, 1)  # shape checks may be noisy at tiny sizes

    def test_corrupt_manifest_exits_2_without_traceback(self, tmp_path):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        path = out_dir / "manifest.json"
        manifest = RunManifest(path)
        manifest.record("figure-7", {"status": "done", "payload": None})
        manifest.save()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--out", str(out_dir),
             "--requests", "60"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: run manifest {path} ")


class TestUsageErrors:
    """An out-of-range flag value is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--timeout", "0", "--out", "{tmp}/out"],
            ["all", "--retries", "0", "--out", "{tmp}/out"],
            ["fuzz", "--timeout", "-1", "--budget", "1"],
            ["fig7", "--requests", "0"],
            ["fig7", "--checkpoint-dir", "{tmp}/ckpts", "--checkpoint-every", "0"],
            # An interval without a place to write is refused by every
            # command, not silently ignored.
            ["fig7", "--requests", "5", "--checkpoint-every", "0"],
            ["fig8", "8a", "--requests", "5", "--checkpoint-every", "64"],
            ["compare", "SS(1,16,4)", "--requests", "5",
             "--checkpoint-every", "64"],
            ["all", "--out", "{tmp}/out", "--checkpoint-every", "64"],
            # A negative gc limit used to empty the cache.
            ["cache", "gc", "{tmp}", "--max-bytes", "-1"],
            ["cache", "gc", "{tmp}", "--max-age", "-1"],
            ["cache", "gc", "{tmp}"],
            # A plain ReproError and an AnalysisError are input errors too.
            ["timeline", "--slots", "0"],
            ["bounds", "SS(1,16,4)", "--cores", "0"],
            ["bounds", "SS(1,16,4)", "--slot-width", "0"],
            # Out-of-range values the library refuses.
            ["unbounded", "--lengths", "-1"],
            ["fuzz", "--budget", "1", "--chaos", "2"],
            ["fuzz", "--budget", "1", "--chaos", "-1"],
            ["simulate", "SS(1,16,4)", "--seeds", "1", "2",
             "--json", "{tmp}/report.json"],
            # Repeated sweep seeds are refused at every --jobs.
            ["simulate", "SS(1,16,4)", "--seeds", "1", "1",
             "--requests", "20", "--jobs", "1"],
            ["simulate", "SS(1,16,4)", "--seeds", "1", "1",
             "--requests", "20", "--jobs", "2"],
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "repro"]
            + [arg.format(tmp=tmp_path) for arg in argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (tmp_path / "ckpt").exists()
        # A refused campaign leaves no empty results directory behind.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "SS(1,16,4)", "--checkpoint", "{tmp}/ckpt"],
            ["simulate", "SS(1,16,4)", "--checkpoint-every", "64"],
            ["stats", "--checkpoint", "{tmp}/ckpt"],
            ["stats", "--checkpoint-every", "64"],
        ],
    )
    def test_removed_checkpoint_flags_exit_2(self, tmp_path, capsys, argv):
        # A single run is checkpointed only through --checkpoint-dir.
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()


class TestCacheCommand:
    @pytest.mark.parametrize("action", ["stats", "verify", "gc"])
    def test_missing_directory_is_refused_and_not_created(
        self, tmp_path, capsys, action
    ):
        missing = tmp_path / "typo" / "cache"
        assert main(["cache", action, str(missing), "--max-bytes", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: no cache directory at {missing}\n"
        assert not (tmp_path / "typo").exists()

    def test_run_commands_still_create_the_cache_directory(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "new" / "cache"
        assert main([
            "simulate", "P(1,16)", "--requests", "20",
            "--cache", str(directory),
        ]) == 0
        assert any(directory.glob("res-*.json"))
        assert main(["cache", "verify", str(directory)]) == 0
        assert "1 entry(ies) ok" in capsys.readouterr().out
