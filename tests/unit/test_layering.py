"""Package layering: the module-level imports of ``src/repro`` go one way.

The packages follow the paper's bottom-up structure, and so must their
imports.  Bottom up, the layers are:

1. the simulator: ``isa events memory network switches cluster node runtime
   core``, with the value codec (``repro.core.values``);
2. ``repro.snapshot``, which saves and restores the simulator;
3. ``repro.api``, ``repro.workloads`` and ``repro.analysis``, which build and
   measure machines (the record schema is ``repro.api.schema``);
4. the drivers ``repro.sweep``, ``repro.report`` and ``repro.fuzz``;
5. ``repro.cli`` and the top-level ``repro`` package.

The graph is built with :mod:`ast`, without importing anything.  A module's
edges are the modules each of its imports names, plus those modules' parent
packages (importing ``repro.memory.cache`` runs ``repro/memory/__init__.py``)
other than its own; ``from pkg import name`` names the submodule
``pkg.name`` when there is one, else ``pkg``.

Two tests pin it:

* the graph test: the module-level graph has no cycle and no edge up the
  table, and every import inside a function is in :data:`LAZY_IMPORTS` with
  the reason it cannot be a module-level import, and carries the
  ``# noqa: PLC0415`` marker ``ruff check`` asks for;
* the bare-package test: ``repro.core.machine`` imports with an empty
  ``repro`` package, without loading anything above the simulator.
"""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Bottom up; a module belongs to the layer of its longest listed prefix.
LAYERS = (
    ("repro.isa", "repro.events", "repro.memory", "repro.network", "repro.switches",
     "repro.cluster", "repro.node", "repro.runtime", "repro.core"),
    ("repro.snapshot",),
    ("repro.api", "repro.workloads", "repro.analysis"),
    ("repro.sweep", "repro.report", "repro.fuzz"),
    ("repro.cli", "repro"),
)

_RECORD_TYPES = "the codec's record types: their package imports the codec"

#: Every import inside a function in src/repro, as (module, imported
#: module), with the reason it is not a module-level import: it would close
#: a cycle, it points up the table, or it defers what only some runs use (one
#: CLI subcommand's subsystem, the runtime handlers, the snapshot layer of a
#: checkpointed experiment).
LAZY_IMPORTS = {
    ("repro.api.workload", "repro.workloads.factories"):
        "cycle: the built-in factories register through repro.api.workload",
    ("repro.cli", "repro.fuzz"): "CLI subcommand: repro fuzz",
    ("repro.cli", "repro.report"): "CLI subcommand: repro report",
    ("repro.cli", "repro.report.compare"): "CLI subcommand: repro report",
    ("repro.api.experiment", "repro.snapshot.checkpoint"):
        "deferred: only checkpointed runs load the snapshot layer",
    ("repro.core.machine", "repro.runtime"):
        "deferred: only machines that install a runtime compile its handlers",
    ("repro.core.machine", "repro.snapshot.format"):
        "up: the snapshot document sits above the simulator",
    ("repro.core.trace", "repro.core.trace_disk"):
        "cycle: the disk sink encodes events with repro.core.trace",
    ("repro.core.values", "repro.cluster.cluster"): _RECORD_TYPES,
    ("repro.core.values", "repro.events.records"): _RECORD_TYPES,
    ("repro.core.values", "repro.memory.guarded_pointer"): _RECORD_TYPES,
    ("repro.core.values", "repro.memory.page_table"): _RECORD_TYPES,
    ("repro.core.values", "repro.memory.requests"): _RECORD_TYPES,
    ("repro.core.values", "repro.network.gtlb"): _RECORD_TYPES,
    ("repro.core.values", "repro.network.message"): _RECORD_TYPES,
    ("repro.report.trajectory", "repro"): "up: reads repro.__version__",
    ("repro.sweep.runner", "repro.report"):
        "cycle: the report's manifest reads the runner's file names",
    ("repro.workloads.factories", "repro.fuzz.generator"):
        "up: two workloads run fuzz-generated programs",
}

#: Packages that ``repro.core.machine`` must not load.
ABOVE_THE_SIMULATOR = (
    "repro.api", "repro.sweep", "repro.report", "repro.fuzz", "repro.workloads",
    "repro.analysis",
)


def _modules():
    """Module name -> source path for every module under src/repro."""
    modules = {}
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro")):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                name = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
                modules[name[: -len(".__init__")] if name.endswith(".__init__") else name] = path
    return modules


def _ancestors(name):
    parts = name.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts))}


def _imports(tree):
    """Yield ``(statement, inside_a_function)`` for every import."""
    stack = [(tree, False)]
    while stack:
        node, lazy = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, lazy
            else:
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                stack.append((child, lazy or inner))


def _named(statement, modules):
    """The modules one import statement names."""
    if isinstance(statement, ast.Import):
        return [alias.name for alias in statement.names]
    assert statement.level == 0, "src/repro uses absolute imports"
    return [
        f"{statement.module}.{alias.name}"
        if f"{statement.module}.{alias.name}" in modules else statement.module
        for alias in statement.names
    ]


def _graph():
    """(module-level edges, lazy imports, lazy-import lines without a noqa
    marker, noqa markers on module-level imports)."""
    modules = _modules()
    edges = {name: set() for name in modules}
    lazy, unmarked, stray = set(), [], []
    for name, path in modules.items():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines()
        for statement, inside in _imports(ast.parse(source)):
            line = lines[statement.lineno - 1]
            marked = "noqa:" in line and "PLC0415" in line
            where = f"{name}:{statement.lineno}"
            if inside and not marked:
                unmarked.append(where)
            if marked and not inside:
                stray.append(where)
            for target in _named(statement, modules):
                if inside:
                    lazy.add((name, target))
                elif target.split(".")[0] == "repro":
                    reached = {target} | (_ancestors(target) - _ancestors(name))
                    edges[name] |= reached - {name}
    return edges, lazy, unmarked, stray


def _layer(name):
    best = max(
        (prefix for layer in LAYERS for prefix in layer
         if name == prefix or name.startswith(prefix + ".")),
        key=len,
    )
    return next(index for index, layer in enumerate(LAYERS) if best in layer)


def test_import_graph_is_acyclic_layered_and_lazy_only_where_listed():
    edges, lazy, unmarked, stray = _graph()
    try:
        TopologicalSorter(edges).prepare()
    except CycleError as error:
        cycle = " -> ".join(reversed(error.args[1]))
        raise AssertionError(f"module-level import cycle: {cycle}") from None
    upward = sorted(
        f"{module} -> {target}"
        for module, targets in edges.items()
        for target in targets
        if _layer(target) > _layer(module)
    )
    assert upward == [], "module-level imports up the layer table"
    assert sorted(lazy - set(LAZY_IMPORTS)) == [], "lazy imports missing from LAZY_IMPORTS"
    assert sorted(set(LAZY_IMPORTS) - lazy) == [], "LAZY_IMPORTS entries that no longer exist"
    assert unmarked == [], "function-level imports without a `noqa: PLC0415` marker"
    assert stray == [], "`noqa: PLC0415` markers on module-level imports"


def test_machine_imports_with_a_bare_package():
    script = (
        "import sys, types\n"
        "package = types.ModuleType('repro')\n"
        f"package.__path__ = [{os.path.join(SRC, 'repro')!r}]\n"
        "sys.modules['repro'] = package\n"
        "import repro.core.machine\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    loaded = completed.stdout.split()
    assert "repro.core.machine" in loaded
    above = [
        name for name in loaded
        if any(name == package or name.startswith(package + ".")
               for package in ABOVE_THE_SIMULATOR)
    ]
    assert above == [], "repro.core.machine loads modules above the simulator"
    assert "multiprocessing" not in loaded
