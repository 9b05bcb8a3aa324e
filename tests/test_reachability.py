"""Every module under ``src/repro`` is reachable from ``repro-llc``.

The static import graph is read from the source with :mod:`ast`;
nothing is imported.  It is walked from the CLI's entry points
(``repro`` itself, ``repro.cli`` and ``python -m repro``) over every
import statement, including the lazy ones inside functions.  A module
no entry point reaches serves only tests, examples or benchmarks: it
either gains a reader on the CLI path or goes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = ("repro", "repro.cli", "repro.__main__")

#: Modules kept without a CLI reader, each with the ROADMAP item that
#: will read it.  An entry goes once its module is reached.
AWAITING_READER = {
    "repro.analysis.distance": (
        "ROADMAP item 2: Def. 4.2 lookahead of the worst-case witness search"
    ),
    "repro.analysis.interference": (
        "ROADMAP items 1 and 2: Fig. 5 decomposition of each worst witness"
    ),
}


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def imported_names(name):
    """Every dotted name an import statement in module ``name`` spells.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c``, since ``c``
    may be a submodule; names that are not modules are dropped by the
    walk.
    """
    for node in ast.walk(ast.parse(MODULES[name].read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}: relative import of {node.module}"
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def reached_modules():
    reached, pending = set(), list(ENTRY_POINTS)
    while pending:
        name = pending.pop()
        if name in reached or name not in MODULES:
            continue
        reached.add(name)
        # Importing a module first runs its package's __init__.
        pending.append(name.rpartition(".")[0])
        pending.extend(imported_names(name))
    return reached


def docstring_only(name):
    return all(
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for node in ast.parse(MODULES[name].read_text()).body
    )


def test_every_module_is_reached_from_the_cli():
    reached = reached_modules()
    unreached = sorted(
        name
        for name in MODULES
        if name not in reached
        and name not in AWAITING_READER
        and not docstring_only(name)
    )
    assert not unreached, (
        f"no repro-llc entry point imports {', '.join(unreached)}; "
        "give each a reader on the CLI path or delete it"
    )


def test_modules_awaiting_a_reader_are_not_reached_yet():
    reached = reached_modules()
    for name, reader in AWAITING_READER.items():
        assert name in MODULES, f"{name} is gone; drop it from AWAITING_READER"
        assert name not in reached, (
            f"{name} is reached now ({reader}); drop it from AWAITING_READER"
        )
