"""Documentation integrity: doctests run, README snippets execute.

Documentation that drifts from the code is worse than none; these tests
execute every doctest in modules that carry examples, and every
``python`` code block in README.md, so the documented API calls are
checked on each run.
"""

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro.bus.schedule
import repro.common.intmath
import repro.llc.partition
import repro.sim.export

REPO_ROOT = Path(__file__).resolve().parent.parent

MODULES_WITH_DOCTESTS = [
    repro.common.intmath,
    repro.bus.schedule,
    repro.llc.partition,
    repro.sim.export,
]


class TestDoctests:
    @pytest.mark.parametrize(
        "module", MODULES_WITH_DOCTESTS, ids=lambda m: m.__name__
    )
    def test_module_doctests_pass(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{module.__name__}: {results.failed} failed"

    def test_doctests_actually_exist(self):
        total = sum(
            doctest.testmod(module, verbose=False).attempted
            for module in MODULES_WITH_DOCTESTS
        )
        assert total >= 4, "expected documented examples to be present"


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, re.DOTALL)


class TestReadmeSnippets:
    def test_readme_has_python_snippets(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert len(python_blocks(readme)) >= 2

    def test_readme_snippets_execute(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for index, block in enumerate(python_blocks(readme)):
            namespace: dict = {}
            try:
                exec(compile(block, f"README.md:block{index}", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(f"README python block {index} failed: {exc}\n{block}")

    def test_module_docstring_quickstart_executes(self):
        import repro

        blocks = re.findall(
            r"::\n\n((?:    .*\n)+)", repro.__doc__ or "", re.MULTILINE
        )
        assert blocks, "package docstring should contain a quickstart"
        code = "\n".join(
            line[4:] for line in blocks[0].splitlines()
        )
        namespace: dict = {}
        exec(compile(code, "repro.__doc__", "exec"), namespace)


DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "API.md",
    REPO_ROOT / "docs" / "MODEL.md",
    REPO_ROOT / "docs" / "OBSERVABILITY.md",
    REPO_ROOT / "docs" / "PERFORMANCE.md",
    REPO_ROOT / "docs" / "ROBUSTNESS.md",
]


class TestCrossLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, doc):
        """Every relative markdown link in the doc set points at a file."""
        for match in re.finditer(r"\]\(([^)]+)\)", doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = (doc.parent / target.split("#")[0]).resolve()
            assert path.exists(), f"{doc.name}: broken link -> {target}"


class TestPerformanceDoc:
    """docs/PERFORMANCE.md carries the result-cache contract."""

    @property
    def text(self):
        return (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()

    def test_covers_key_derivation_invalidation_and_gc(self):
        for needle in (
            "MODEL_SCHEMA_VERSION",  # the invalidation stamp
            "length-framed",  # trace fingerprint derivation
            "repro-llc cache",  # stats / verify / gc entry points
            "--max-bytes",
            "--max-age",
            "sim_cache.hits",  # observability counters
            "byte-identical",  # the hard guarantee
            "tmp → fsync → rename",  # crash-safe write discipline
        ):
            assert needle in self.text, f"PERFORMANCE.md must cover {needle!r}"

    def test_matches_the_code_constants(self):
        from repro.sim import cache

        assert f'"{cache.RESULT_CACHE_KIND}"' in self.text
        assert str(cache.MODEL_SCHEMA_VERSION) is not None  # importable

    def test_readme_and_api_cross_link(self):
        readme = (REPO_ROOT / "README.md").read_text()
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert "docs/PERFORMANCE.md" in readme
        assert "PERFORMANCE.md" in api
        assert "repro.sim.cache" in api

    def test_named_benchmark_gate_files_exist(self):
        for path in re.findall(r"`(benchmarks/[\w./-]+)`", self.text):
            assert (REPO_ROOT / path).exists(), f"missing gate file {path}"

    def test_named_test_files_exist(self):
        for path in re.findall(r"`(tests/[\w./-]+)`", self.text):
            assert (REPO_ROOT / path).exists(), f"missing test file {path}"


class TestRobustnessIoFaultDoc:
    """docs/ROBUSTNESS.md carries the I/O durability & fault contract."""

    @property
    def text(self):
        return (REPO_ROOT / "docs" / "ROBUSTNESS.md").read_text()

    def test_covers_durability_classes_and_breaker_semantics(self):
        for needle in (
            "I/O fault tolerance & degradation policy",
            "ESSENTIAL",
            "BEST-EFFORT",
            "RetryPolicy",
            "circuit breaker",
            "PersistenceError",
            "io.degraded",
            "io.swallowed",
            "byte-identical",
        ):
            assert needle in self.text, f"ROBUSTNESS.md must cover {needle!r}"

    def test_covers_the_fault_injection_grammar(self):
        for needle in (
            "--io-fault",
            "--io-fault-seed",
            "repro.robustness.iofault",
            "enospc",
            "short-write",
            "corrupt-read",
            "site=result-cache",
        ):
            assert needle in self.text, f"ROBUSTNESS.md must cover {needle!r}"

    def test_matches_the_code_constants(self):
        from repro.common import fileio
        from repro.robustness import iofault

        assert f"`DEGRADE_AFTER` ({fileio.DEGRADE_AFTER})" in self.text
        for kind in iofault.IoFaultKind:
            assert kind.value in self.text, (
                f"ROBUSTNESS.md must list fault kind {kind.value!r}"
            )

    def test_readme_and_api_cross_link(self):
        readme = (REPO_ROOT / "README.md").read_text()
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert "--io-fault" in readme
        assert "docs/ROBUSTNESS.md" in readme
        assert "repro.robustness.iofault" in api
        assert "repro.common.fileio" in api

    def test_named_test_files_exist(self):
        for path in re.findall(r"`(tests/[\w./-]+)`", self.text):
            assert (REPO_ROOT / path).exists(), f"missing test file {path}"


def api_table_rows():
    """``(names, modules)`` of every docs/API.md table row that names
    its module(s) in backticks; the header and separator rows carry
    none."""
    text = (REPO_ROOT / "docs" / "API.md").read_text()
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)]
        if len(cells) < 4 or not cells[0] == "":
            continue
        modules = re.findall(r"`(repro[\w.]*)`", cells[2])
        if modules:
            rows.append((re.findall(r"`([^`]+)`", cells[1]), modules))
    return rows


def documented_names(entry: str):
    """The identifiers one backticked name cell spells out.

    ``simulate(config, ...)`` names ``simulate``; ``wcl_nss_cycles/_slots``
    abbreviates ``wcl_nss_cycles`` and ``wcl_nss_slots``;
    ``SimReport.slot_usage`` names an attribute path.
    """
    first, *suffixes = entry.split("(")[0].split("/")
    stem = first.rsplit("_", 1)[0]
    return [first] + [stem + suffix for suffix in suffixes]


def resolves(module_name: str, dotted: str) -> bool:
    """``dotted`` resolves in ``module_name`` and, when it names a class
    or function, that module defines it (one import path per name)."""
    module = importlib.import_module(module_name)
    head, *attributes = dotted.split(".")
    if not hasattr(module, head):
        return False
    target = getattr(module, head)
    defines = inspect.isclass(target) or inspect.isfunction(target)
    if defines and target.__module__ != module_name:
        return False
    for part in attributes:
        if hasattr(target, part):
            target = getattr(target, part)
        elif part in getattr(target, "__dataclass_fields__", {}):
            return True
        else:
            return False
    return True


class TestApiTables:
    """Every name docs/API.md lists is defined in its row's module."""

    ROWS = api_table_rows()

    def test_rows_are_found(self):
        assert len(self.ROWS) >= 80

    @pytest.mark.parametrize(
        "names, modules", ROWS, ids=[names[0] for names, _ in ROWS]
    )
    def test_names_resolve_in_their_module(self, names, modules):
        for entry in names:
            for name in documented_names(entry):
                assert any(resolves(module, name) for module in modules), (
                    f"docs/API.md lists {name!r} under {modules}, "
                    "but it does not import from there"
                )


def command_line_flags():
    """``(subcommand, flags)`` for each command in docs/API.md's
    "Command line" block; ``--resume/--no-resume`` spells two flags."""
    text = (REPO_ROOT / "docs" / "API.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.DOTALL)
    commands = []
    # Commands are separated by a spaced ``|``; the unspaced ones inside
    # ``{stats|verify|gc}`` or ``[--list|<suite>]`` are alternatives.
    for segment in re.split(r"\s\|\s", block.group(1).replace("repro-llc", "")):
        name = segment.split()[0]
        commands.append((name, re.findall(r"--[\w-]+", segment)))
    return commands


class TestCommandLineBlock:
    """Every flag docs/API.md shows is accepted by its subcommand."""

    COMMANDS = command_line_flags()

    def test_block_is_parsed(self):
        assert len(self.COMMANDS) >= 14
        assert sum(len(flags) for _, flags in self.COMMANDS) >= 40

    @pytest.mark.parametrize(
        "command, flags", COMMANDS, ids=[name for name, _ in COMMANDS]
    )
    def test_flags_exist(self, command, flags):
        import argparse

        from repro.cli import build_parser

        [subparsers] = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        accepted = subparsers.choices[command]._option_string_actions
        missing = [flag for flag in flags if flag not in accepted]
        assert not missing, f"docs/API.md shows {command} {missing}"


#: The quickstart's names: the only ones the top-level package exports.
TOP_LEVEL_NAMES = {
    "PartitionKind",
    "PartitionNotation",
    "SystemConfig",
    "SyntheticWorkloadConfig",
    "analytical_wcl_cycles",
    "fig7_system",
    "generate_disjoint_workload",
    "simulate",
    "__version__",
}


class TestOneImportPath:
    """Each public name imports from its defining module only."""

    def test_top_level_exports_only_the_quickstart_names(self):
        import repro

        assert set(repro.__all__) == TOP_LEVEL_NAMES
        assert len(repro.__all__) == len(TOP_LEVEL_NAMES)

    def test_subpackages_export_nothing_but_submodules(self):
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.ispkg:
                continue
            module = importlib.import_module(info.name)
            assert not hasattr(module, "__all__"), info.name
            strays = [
                name
                for name, value in vars(module).items()
                if not name.startswith("_") and not inspect.ismodule(value)
            ]
            assert not strays, f"{info.name} re-exports {strays}"
