"""Delta-debugging minimizer: failing fuzz case -> minimal repro artifact.

Given a failing :class:`~repro.robustness.fuzz.FuzzCase`, the shrinker
greedily removes structure — whole core traces, contiguous request
chunks (classic *ddmin* halving), partition set rows, and the injected
fault's slot index — re-running the full case (simulation + oracle)
after every candidate edit and keeping the edit only when the **failure
signature** is preserved.  Signature equivalence (not mere "still
fails") stops the minimizer from sliding off one bug onto a different
one mid-shrink.

The result is written as a self-contained JSON **repro artifact**: the
minimized case, the signature it must reproduce, and the shrink
statistics.  ``repro-llc repro FILE`` (or :func:`replay_artifact`)
re-runs the case deterministically and reports whether the recorded
failure still reproduces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.common.errors import FuzzError, ReproError
from repro.common.fileio import Durability, persist_text, read_text
from repro.robustness.fuzz import FuzzCase, FuzzCaseResult, run_fuzz_case

#: Schema version of repro artifacts.
ARTIFACT_VERSION = 1

#: Default cap on candidate evaluations per shrink run.
DEFAULT_MAX_EVALUATIONS = 300


# ----------------------------------------------------------------------
# Case editing helpers (cases are frozen; every edit builds a new one)
# ----------------------------------------------------------------------
def _clone_config(config: Dict[str, Any]) -> Dict[str, Any]:
    return json.loads(json.dumps(config))


def _with_traces(
    case: FuzzCase, traces: Dict[int, Tuple[str, ...]]
) -> FuzzCase:
    return FuzzCase(
        case_id=case.case_id,
        seed=case.seed,
        config=case.config,
        traces=traces,
        fault=case.fault,
    )


def _with_partition_sets(
    case: FuzzCase, index: int, sets: Any
) -> FuzzCase:
    config = _clone_config(case.config)
    config["partitions"][index]["sets"] = list(sets)
    return FuzzCase(
        case_id=case.case_id,
        seed=case.seed,
        config=config,
        traces=case.traces,
        fault=case.fault,
    )


def _with_fault_slot(case: FuzzCase, slot: int) -> FuzzCase:
    assert case.fault is not None
    fault = dict(case.fault)
    fault["slot"] = slot
    return FuzzCase(
        case_id=case.case_id,
        seed=case.seed,
        config=case.config,
        traces=case.traces,
        fault=fault,
    )


# ----------------------------------------------------------------------
# The shrinker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink run."""

    original: FuzzCase
    minimized: FuzzCase
    #: The preserved failure signature.
    signature: str
    #: Candidate evaluations spent.
    evaluations: int
    #: The minimized case's final verdict (violations, error, ...).
    final: FuzzCaseResult

    @property
    def original_requests(self) -> int:
        """Trace records in the original case."""
        return self.original.total_requests

    @property
    def minimized_requests(self) -> int:
        """Trace records left after shrinking."""
        return self.minimized.total_requests


class _Budget:
    """Counts oracle evaluations; an exhausted budget rejects all edits."""

    def __init__(self, signature: str, max_evaluations: int) -> None:
        self.signature = signature
        self.max_evaluations = max_evaluations
        self.spent = 0

    def keeps_signature(self, candidate: FuzzCase) -> bool:
        if self.spent >= self.max_evaluations:
            return False
        self.spent += 1
        try:
            return run_fuzz_case(candidate).signature == self.signature
        except ReproError:
            # A candidate edit produced an unbuildable scenario; the
            # edit is simply rejected.
            return False


def _shrink_whole_cores(case: FuzzCase, budget: _Budget) -> Tuple[FuzzCase, bool]:
    """Try emptying each core's trace entirely (cheapest big cut)."""
    changed = False
    for core in sorted(case.traces):
        if not case.traces[core]:
            continue
        candidate = _with_traces(case, {**case.traces, core: ()})
        if budget.keeps_signature(candidate):
            case = candidate
            changed = True
    return case, changed


def _shrink_requests(case: FuzzCase, budget: _Budget) -> Tuple[FuzzCase, bool]:
    """ddmin over each core's trace: drop halving-sized chunks."""
    changed = False
    for core in sorted(case.traces):
        lines = list(case.traces[core])
        chunk = len(lines) // 2
        while chunk >= 1:
            start = 0
            while start + chunk <= len(lines):
                shorter = lines[:start] + lines[start + chunk:]
                candidate = _with_traces(
                    case, {**case.traces, core: tuple(shorter)}
                )
                if budget.keeps_signature(candidate):
                    lines = shorter
                    case = candidate
                    changed = True
                else:
                    start += chunk
            chunk //= 2
    return case, changed


def _shrink_sets(case: FuzzCase, budget: _Budget) -> Tuple[FuzzCase, bool]:
    """Halve each partition's set list while the failure persists."""
    changed = False
    for index in range(len(case.config["partitions"])):
        while len(case.config["partitions"][index]["sets"]) > 1:
            sets = case.config["partitions"][index]["sets"]
            half = len(sets) // 2
            kept = None
            for keep in (sets[:half], sets[half:]):
                candidate = _with_partition_sets(case, index, keep)
                if budget.keeps_signature(candidate):
                    kept = candidate
                    break
            if kept is None:
                break
            case = kept
            changed = True
    return case, changed


def _shrink_fault(case: FuzzCase, budget: _Budget) -> Tuple[FuzzCase, bool]:
    """Pull the injected fault toward slot 0."""
    changed = False
    while case.fault is not None and case.fault["slot"] > 0:
        candidate = _with_fault_slot(case, case.fault["slot"] // 2)
        if budget.keeps_signature(candidate):
            case = candidate
            changed = True
        else:
            break
    return case, changed


_PASSES: Tuple[Callable[[FuzzCase, _Budget], Tuple[FuzzCase, bool]], ...] = (
    _shrink_whole_cores,
    _shrink_requests,
    _shrink_sets,
    _shrink_fault,
)


def shrink_case(
    case: FuzzCase,
    signature: Optional[str] = None,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> ShrinkResult:
    """Minimize a failing case while preserving its failure signature.

    ``signature`` defaults to the case's own (one extra evaluation);
    passing a case that does not fail raises :class:`FuzzError`.  The
    passes run to a greedy fixpoint or until ``max_evaluations``
    candidate runs have been spent, whichever comes first.
    """
    if signature is None:
        signature = run_fuzz_case(case).signature
        if signature is None:
            raise FuzzError(
                f"case {case.case_id!r} does not fail; nothing to shrink"
            )
    budget = _Budget(signature, max_evaluations)
    minimized = case
    while True:
        any_change = False
        for shrink_pass in _PASSES:
            minimized, changed = shrink_pass(minimized, budget)
            any_change = any_change or changed
        if not any_change:
            break
    final = run_fuzz_case(minimized)
    if final.signature != signature:
        raise FuzzError(
            f"shrink of {case.case_id!r} lost the failure signature "
            f"({signature!r} became {final.signature!r}); "
            "the case is not deterministic"
        )
    return ShrinkResult(
        original=case,
        minimized=minimized,
        signature=signature,
        evaluations=budget.spent,
        final=final,
    )


# ----------------------------------------------------------------------
# Repro artifacts
# ----------------------------------------------------------------------
def artifact_dict(result: ShrinkResult) -> Dict[str, Any]:
    """The self-contained JSON form of a shrink result."""
    return {
        "artifact_version": ARTIFACT_VERSION,
        "case": result.minimized.to_dict(),
        "failure": {
            "signature": result.signature,
            "error": result.final.error,
            "violations": list(result.final.violations),
        },
        "shrink": {
            "original_requests": result.original_requests,
            "requests": result.minimized_requests,
            "evaluations": result.evaluations,
        },
    }


def write_artifact(path: Union[str, Path], result: ShrinkResult) -> Path:
    """Write the artifact JSON (stable layout) and return its path."""
    target = Path(path)
    persist_text(
        target,
        json.dumps(artifact_dict(result), indent=2, sort_keys=True) + "\n",
        site="repro-artifact",
        durability=Durability.ESSENTIAL,
    )
    return target


def load_artifact(path: Union[str, Path]) -> Tuple[FuzzCase, str]:
    """Load an artifact; returns (case, expected signature).

    Raises :class:`FuzzError` for unreadable, malformed or
    version-incompatible files.
    """
    target = Path(path)
    try:
        data = json.loads(read_text(target, site="repro-artifact"))
    except OSError as exc:
        raise FuzzError(f"repro artifact {target} is unreadable: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FuzzError(f"repro artifact {target} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FuzzError(f"repro artifact {target} is malformed (not an object)")
    version = data.get("artifact_version")
    if version != ARTIFACT_VERSION:
        raise FuzzError(
            f"repro artifact {target} has version {version!r}; this build "
            f"reads version {ARTIFACT_VERSION}"
        )
    try:
        case = FuzzCase.from_dict(data["case"])
        signature = data["failure"]["signature"]
    except (KeyError, TypeError) as exc:
        raise FuzzError(f"repro artifact {target} is malformed: {exc}") from exc
    if not isinstance(signature, str):
        raise FuzzError(
            f"repro artifact {target} is malformed (signature not a string)"
        )
    return case, signature


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a repro artifact."""

    case: FuzzCase
    expected_signature: str
    result: FuzzCaseResult

    @property
    def reproduced(self) -> bool:
        """Whether the replay failed with the recorded signature."""
        return self.result.signature == self.expected_signature


def replay_artifact(path: Union[str, Path]) -> ReplayResult:
    """Re-run an artifact's case and compare against its signature."""
    case, signature = load_artifact(path)
    return ReplayResult(
        case=case,
        expected_signature=signature,
        result=run_fuzz_case(case),
    )
