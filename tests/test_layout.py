"""The package carries no code that only tests use.

A function, class or constant that only tests call belongs under
``tests/`` (see ``tests/oracles.py``), not in ``src/rulegen/``. The names
re-exported by ``rulegen.__all__`` and the console entry point
``cli.main`` are the public surface and exempt.

Likewise, a defaulted parameter that no caller in the package, the
benchmark (``perfbench/``) or the scripts ever sets is a knob only tests
turn; its one value belongs in the function body. ``cli.main(argv)`` is
the one exemption: the console script calls it without arguments. And a
method or property that none of them reads is one only tests call.
"""
import ast
import pathlib
from collections import Counter

import rulegen

SRC = pathlib.Path(rulegen.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {("__init__.py", "__all__"), ("cli.py", "main")}
PARAM_EXEMPT = {("cli.py", "main", "argv")}


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


def parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


def test_every_top_level_name_is_used_in_the_package():
    modules = {p.name: tree for p, tree in parse(SRC.glob("*.py")).items()}
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


def _with_class(tree):
    """(node, name of the innermost enclosing class or None) for every
    node of ``tree``."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        yield node, cls
        inner = node.name if isinstance(node, ast.ClassDef) else cls
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def functions(node, cls=None):
    """(def, class name if it is a method, else None) for every function
    and method under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            yield child, None if static else cls
        yield from functions(
            child, child.name if isinstance(child, ast.ClassDef) else None)


def defaulted_parameters(tree):
    """(call name, positional index, parameter name) for each defaulted
    parameter of every function and method. A constructor is called by
    its class name; a method's index does not count ``self``."""
    for node, cls in functions(tree):
        args = node.args
        positional = args.posonlyargs + args.args
        offset = 0 if cls is None else 1
        name = cls if cls and node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, i - offset, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, None, arg.arg


def calls(tree):
    """(called name, positional count, keyword names) of every call; a
    ``*args`` or ``**kwargs`` splat counts as setting everything, and
    ``cls(...)`` inside a class calls that class."""
    for node, cls in _with_class(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = cls if func.id == "cls" and cls else func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        npos = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            npos = float("inf")
        keywords = {kw.arg for kw in node.keywords}
        yield name, npos, keywords


def test_every_defaulted_parameter_is_set_outside_the_tests():
    callers = parse(list(SRC.glob("*.py"))
                    + list((ROOT / "perfbench").glob("*.py"))
                    + list((ROOT / "scripts").glob("*.py")))
    seen = {}
    for tree in callers.values():
        for name, npos, keywords in calls(tree):
            seen.setdefault(name, []).append((npos, keywords))
    never_set = []
    for path, tree in parse(SRC.glob("*.py")).items():
        for name, index, param in defaulted_parameters(tree):
            if (path.name, name, param) in PARAM_EXEMPT:
                continue
            if not any(param in keywords or None in keywords
                       or (index is not None and npos > index)
                       for npos, keywords in seen.get(name, ())):
                never_set.append(f"{path.name}:{name}({param})")
    assert not never_set, (
        f"defaulted parameters no caller outside tests/ sets: {never_set}")


def methods(tree):
    """(class name, def) for each method and property of every class in
    ``tree``, dunders left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (child.name.startswith("__")
                                 and child.name.endswith("__"))):
                    yield node.name, child


def imported_names(tree):
    """Names that the imports anywhere in ``tree`` bind."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def attribute_reads(node, classes, imported):
    """How often each (owner, attribute) is read under ``node``. ``C.name``
    or ``module.C.name`` with C one of ``classes`` is owned by C, an
    attribute of any other imported name by "module", and every other read,
    on an instance of a class the scan cannot tell, by None."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            value = sub.value
            base = (value.id if isinstance(value, ast.Name)
                    else value.attr if isinstance(value, ast.Attribute)
                    else None)
            if base in classes:
                owner = base
            elif isinstance(value, ast.Name) and base in imported:
                owner = "module"
            else:
                owner = None
            counts[owner, sub.attr] += 1
    return counts


def test_every_method_is_used_outside_the_tests():
    package = parse(SRC.glob("*.py"))
    classes = {node.name for tree in package.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    callers = parse(list(SRC.glob("*.py"))
                    + list((ROOT / "perfbench").glob("*.py"))
                    + list((ROOT / "scripts").glob("*.py")))
    imported = {path: imported_names(tree) for path, tree in callers.items()}
    reads = sum((attribute_reads(tree, classes, imported[path])
                 for path, tree in callers.items()), Counter())
    unused = []
    for path, tree in package.items():
        for cls, node in methods(tree):
            # a read inside the method itself, as in recursion, does not count
            own = attribute_reads(node, classes, imported[path])
            if not any(reads[owner, node.name] > own[owner, node.name]
                       for owner in (cls, None)):
                unused.append(f"{path.name}:{cls}.{node.name}")
    assert not unused, f"methods no caller outside tests/ reads: {unused}"
