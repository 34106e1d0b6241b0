"""``src/repro`` holds only code the system runs.

Every module under ``src/repro`` must be imported, directly or through
other modules, from what a user executes: the package itself, the CLI
(``python -m repro``) and the scenario module of every bench.  Reference
implementations and oracles that only tests and paper benches use live
under ``tests/reference`` and ``benchmarks/`` instead.
"""

import ast
from pathlib import Path

from repro.perf import BENCHES, _scenario

SRC = Path(__file__).parent.parent / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(name: str, path: Path, modules: set[str]) -> set[str]:
    """Every module under ``src`` that importing ``name`` executes
    directly: the targets of its import statements (at any depth, so
    lazy imports count) together with their parent packages."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    closed = set()
    for target in found:
        parts = target.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return closed & modules


def test_every_library_module_is_reached_from_an_entry_point():
    paths = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    roots = {"repro", "repro.__main__", "repro.cli"}
    roots.update(_scenario(name).__name__ for name in BENCHES)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(_imports(name, paths[name], set(paths)) - reached)
    unreached = sorted(set(paths) - reached)
    assert not unreached, (
        f"modules under src/repro that no entry point imports: {unreached}; "
        "move test-only code to tests/reference or benchmarks/"
    )
