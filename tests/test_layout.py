"""Every top-level name in the package is used by the package itself.

A function, class or constant that only tests call belongs under
``tests/`` (see ``tests/oracles.py``), not in ``src/rulegen/``. The names
re-exported by ``rulegen.__all__`` and the console entry point
``cli.main`` are the public surface and exempt.
"""
import ast
import pathlib

import rulegen

SRC = pathlib.Path(rulegen.__file__).parent
EXEMPT = {("__init__.py", "__all__"), ("cli.py", "main")}


def top_level_names(tree):
    """(name, defining node) for each top-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def references(tree, skip):
    """Names and attributes read anywhere in ``tree`` outside ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_top_level_name_is_used_in_the_package():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    exempt = EXEMPT | {("__init__.py", name) for name in rulegen.__all__}
    unused = []
    for module, tree in modules.items():
        for name, node in top_level_names(tree):
            if (module, name) in exempt:
                continue
            if not any(name in references(other, node)
                       for other in modules.values()):
                unused.append(f"{module}:{name}")
    assert not unused, f"defined in src/rulegen but used only elsewhere: {unused}"
