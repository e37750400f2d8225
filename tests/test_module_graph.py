"""The package's module graph: every import at module level, and one way.

Each module of ``src/diracbox`` imports what it needs at its top, and the
top-level ``from .x import`` (or ``from . import x``) edges between the
modules form no cycle, so no module has to import inside a function to get
round one.  No function assigns a local that it never reads (names
starting with ``_`` excepted): such a local is dead code.  Every
``__all__`` entry names something its module defines, and every name the
package's ``__init__`` imports is in its module's ``__all__``, so a
deletion leaves no stale export behind.
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


def _unread_locals(tree):
    """(function, line, name) of every local a function assigns and
    nothing in the function reads, nested functions included; names
    starting with ``_`` are exempt."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def own(fn):
        """The nodes of ``fn``'s own scope, without nested scopes."""
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, functions + (ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))

    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, functions):
            continue
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for node in own(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [(fn.name, node.lineno, node.id) for node in own(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)
                  and not node.id.startswith("_") and node.id not in read]
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


def _exports(tree):
    """The entries of a module's ``__all__``, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def _top_level_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    return names


def test_every_export_is_defined_and_listed():
    modules = _modules()
    undefined = {name: sorted(set(exports) - _top_level_names(tree))
                 for name, tree in modules.items()
                 if (exports := _exports(tree)) is not None
                 and set(exports) - _top_level_names(tree)}
    assert not undefined, undefined
    unlisted = [(node.module, alias.name)
                for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if alias.name not in (_exports(modules[node.module]) or ())]
    assert not unlisted, unlisted


def test_no_import_inside_a_function_or_class():
    nested = {name: found for name, tree in _modules().items()
              if (found := _nested_imports(tree))}
    assert not nested, nested


def test_no_local_is_assigned_and_never_read():
    unread = {name: found for name, tree in _modules().items()
              if (found := _unread_locals(tree))}
    assert not unread, unread


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
