"""The package layers of ``repro``, pinned.

The tutorial is a stack and so is ``src/repro``: Part II's token engine
(hardware → storage → relational/search) under Part III's global
computation (crypto → wire → protocols → SSI service), with the
Perspectives applications on top. The static checks read every module's
AST — nothing is imported — and hold the tree to three rules:

* the package import graph is exactly :data:`ALLOWED`, so an edge that
  appears or disappears is a deliberate edit of that table;
* the graph of explicit ``repro`` imports between modules has no cycle;
* no ``repro`` import sits inside a function or a ``TYPE_CHECKING``
  block — the two ways a cycle can be held together without showing.

The last case imports each package alone in a fresh interpreter, which
catches the import-order failures a static graph cannot see.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = SRC / "repro"

#: The system: the token engine, the crypto and wire layers, the global
#: protocols and the SSI service (``errors`` is the shared leaf).
CORE = frozenset(
    "crypto errors globalq hardware net obs relational search service "
    "storage workloads".split()
)
#: The experiments and applications built on it: they may import the core,
#: the core never imports them.
PERIPHERY = frozenset(
    "apps bench codesign fault hierarchical keyvalue outsourced pds ppdp "
    "smc timeseries __main__".split()
)

#: Package -> the packages its modules import, bottom layer first.
ALLOWED = {
    "errors": set(),
    "obs": set(),
    "hardware": {"errors"},
    "storage": {"errors", "hardware", "obs"},
    "relational": {"errors", "hardware", "obs", "storage"},
    "search": {"errors", "hardware", "obs", "storage"},
    "workloads": {"relational"},
    "crypto": {"errors", "obs"},
    "net": {"errors", "obs"},
    "globalq": {"crypto", "errors", "net", "obs", "workloads"},
    "service": {
        "crypto", "errors", "globalq", "hardware", "net", "obs",
        "relational", "workloads",
    },
    "bench": set(),
    "codesign": {"hardware"},
    "fault": {"errors", "obs"},
    "hierarchical": {"errors", "hardware", "relational", "storage"},
    "keyvalue": {"errors", "hardware", "storage"},
    "outsourced": {"crypto", "errors"},
    "timeseries": {"errors", "hardware", "storage"},
    "smc": {"crypto", "errors", "globalq", "net"},
    "pds": {"errors", "globalq", "hardware", "search", "storage", "workloads"},
    "ppdp": {"errors", "globalq", "workloads"},
    "apps": {"crypto", "errors", "globalq", "pds", "timeseries"},
    "__main__": {"errors", "globalq", "net", "pds"},
}

#: The top-level packages (directories with an ``__init__.py``).
PACKAGES = sorted(
    path.name for path in ROOT.iterdir() if (path / "__init__.py").is_file()
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path for path in sorted(ROOT.rglob("*.py"))}


def _package(module: str) -> str:
    """``repro.globalq.parallel`` -> ``globalq``; ``repro.errors`` -> ``errors``."""
    return module.split(".")[1]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class _Imports(ast.NodeVisitor):
    """The ``repro`` modules one module imports, and where it imports them."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.targets: set[str] = set()
        self.hidden: list[tuple[int, str]] = []
        self._depth = 0

    def _function(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_If(self, node: ast.If) -> None:
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        self._depth += 1
        for child in node.body:
            self.visit(child)
        self._depth -= 1
        for child in node.orelse:
            self.visit(child)

    def _add(self, node: ast.stmt, targets: list[str]) -> None:
        targets = [t for t in targets if t == "repro" or t.startswith("repro.")]
        if targets and self._depth:
            self.hidden.append((node.lineno, targets[0]))
        self.targets.update(t for t in targets if t in MODULES)

    def visit_Import(self, node: ast.Import) -> None:
        self._add(node, [alias.name for alias in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            parts = self.module.split(".")
            if not self.is_package:
                parts.pop()
            parts = parts[: len(parts) - node.level + 1]
            base = ".".join(parts + ([node.module] if node.module else []))
        # ``from pkg import sub`` imports the submodule; any other name is
        # an attribute of ``pkg``.
        self._add(
            node,
            [
                f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES
                else base
                for alias in node.names
            ],
        )


def _scan() -> dict[str, _Imports]:
    scans = {}
    for module, path in MODULES.items():
        scan = _Imports(module, path.name == "__init__.py")
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        scans[module] = scan
    return scans


SCANS = _scan()


def _module_graph() -> dict[str, set[str]]:
    return {
        module: scan.targets - {module} for module, scan in SCANS.items()
    }


def _package_graph() -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for module, targets in _module_graph().items():
        if module == "repro":
            continue
        own = _package(module)
        graph.setdefault(own, set()).update(
            _package(target) for target in targets
            if target != "repro" and _package(target) != own
        )
    return graph


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a node list, or None when it is a DAG."""
    state: dict[str, int] = {}  # 1 = on the DFS stack, 2 = finished
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == 1:
                return stack[stack.index(succ):] + [succ]
            if succ not in state:
                found = visit(succ)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


class TestStaticLayers:
    def test_core_and_periphery_cover_every_package(self):
        assert CORE | PERIPHERY == set(ALLOWED)
        assert not CORE & PERIPHERY
        assert set(PACKAGES) | {"errors", "__main__"} == set(ALLOWED)

    def test_package_graph_is_the_declared_table(self):
        actual = _package_graph()
        for package in ALLOWED:
            actual.setdefault(package, set())
        extra = {
            (src, dst) for src, dsts in actual.items() for dst in dsts
            if dst not in ALLOWED.get(src, set())
        }
        missing = {
            (src, dst) for src, dsts in ALLOWED.items() for dst in dsts
            if dst not in actual.get(src, set())
        }
        assert not extra, f"undeclared package imports: {sorted(extra)}"
        assert not missing, f"declared but unused edges: {sorted(missing)}"

    def test_package_graph_is_acyclic(self):
        assert _find_cycle(ALLOWED) is None

    def test_core_never_imports_the_periphery(self):
        leaks = {
            (src, dst) for src, dsts in _package_graph().items()
            if src in CORE for dst in dsts if dst in PERIPHERY
        }
        assert not leaks, sorted(leaks)

    def test_module_graph_is_acyclic(self):
        cycle = _find_cycle(_module_graph())
        assert cycle is None, " -> ".join(cycle)

    def test_no_repro_import_inside_a_function_or_type_checking(self):
        hidden = [
            f"{module}:{line} imports {target}"
            for module, scan in sorted(SCANS.items())
            for line, target in scan.hidden
        ]
        assert not hidden, "\n".join(hidden)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_alone(package):
    """A fresh interpreter imports the package first, before anything else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
