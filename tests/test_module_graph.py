"""The package's module graph: every import at module level, and one way.

Each module of ``src/diracbox`` imports what it needs at its top, and the
top-level ``from .x import`` (or ``from . import x``) edges between the
modules form no cycle, so no module has to import inside a function to get
round one.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "diracbox"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _nested_imports(tree):
    """(line, enclosing name) of every import inside a function or class."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and owner:
                found.append((child.lineno, owner))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else owner)
            visit(child, inner)

    visit(tree, None)
    return found


def _edges(tree, names):
    """The package modules a module's top-level relative imports name."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out & names


def test_no_import_inside_a_function_or_class():
    nested = {name: found for name, tree in _modules().items()
              if (found := _nested_imports(tree))}
    assert not nested, nested


def test_module_graph_is_acyclic():
    modules = _modules()
    graph = {name: _edges(tree, set(modules))
             for name, tree in modules.items()}
    assert graph["eigsolve"] and graph["jopt"], graph   # the parse sees edges
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(
                path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
