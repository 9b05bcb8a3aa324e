#!/usr/bin/env python3
"""Record one trajectory point: medians of repeated runs plus a machine stamp.

    python3 perf/record.py --runs 5 --out perf/points/<commit>.json [--keep DIR]

Runs every workload ``--runs`` times untraced at its default seed and once
traced, one process at a time, and writes the medians and quartiles of the
end-to-end metrics, the traced run's per-layer metrics, and a stamp of the
host: CPU count and model, Python version, the git commit of the measured
code, and the time of the harness's reference loop when the point was
recorded.  ``--keep`` also saves every raw
result document, ready for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trajectory import BENCH_DIR, ROOT, load_spec, reference_s, work_root, worker_count


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine_stamp() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": worker_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "reference_s": statistics.median(reference_s() for _ in range(7)),
    }


def run_once(workload: str, trace: int, out: Path) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "trajectory.py"),
        "--workload", workload,
        "--trace", str(trace),
        "--out", str(out),
    ]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return json.loads(out.read_text(encoding="utf-8"))


def summarise(untraced: list, traced: dict, spec: dict) -> dict:
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in untraced]
        q1, _, q3 = statistics.quantiles(values, n=4)
        end_to_end[metric["name"]] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "unit": metric["unit"],
        }
    details = {}
    for name in untraced[0]["details"]:
        details[name] = statistics.median(run["details"][name] for run in untraced)
    return {
        "seed": untraced[0]["seed"],
        "runs": len(untraced),
        "attempted": sum(run["attempted"] for run in untraced + [traced]),
        "failed": sum(run["failed"] for run in untraced + [traced]),
        "end_to_end": end_to_end,
        "details": details,
        "per_layer": traced["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--keep", type=Path, help="also keep every raw result here")
    args = parser.parse_args(argv)
    spec = load_spec()
    point = {
        "machine": machine_stamp(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        raw_dir = args.keep or Path(tmp)
        raw_dir.mkdir(parents=True, exist_ok=True)
        for workload in (w["name"] for w in spec["workloads"]):
            untraced = [
                run_once(workload, 0, raw_dir / f"{workload}-{i}.json")
                for i in range(args.runs)
            ]
            traced = run_once(workload, 1, raw_dir / f"{workload}-traced.json")
            point["workloads"][workload] = summarise(untraced, traced, spec)
            print(f"{workload}: {args.runs} untraced + 1 traced run(s) recorded", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
