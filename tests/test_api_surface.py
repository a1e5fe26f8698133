"""Every public name in qnmkit has a caller outside its own unit tests, every
private top-level function and class has a caller in qnmkit itself, every
module-level import of a qnmkit module is read, and every defaulted parameter
of a qnmkit function is set by some call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qnmkit"


def _public_definitions(tree):
    """(name, node) of each public top-level function and class of a module,
    and of each public method and property of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(tree, skip=None):
    """Names, attributes and string constants used in `tree`, outside imports
    and outside the definition node `skip`."""
    out = set()
    todo = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)   # perfbench/tracing.py binds by name
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller():
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    trees = {p: ast.parse(p.read_text()) for p in callers}
    refs = {p: _references(tree) for p, tree in trees.items()}
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(trees[path]):
            if not (any(node.name in r for p, r in refs.items() if p != path)
                    or node.name in _references(trees[path], node)):
                uncalled.append(f"{path.name}:{qualname}")
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_every_private_name_has_a_caller_in_the_package():
    # a helper that only tests call is code the tests keep alive
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    uncalled = [f"{path.name}:{node.name}"
                for path, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not any(node.name in _references(t, node)
                            for t in trees.values())]
    assert not uncalled, f"private names with no caller in qnmkit: {uncalled}"


def _imported_names(tree):
    """Names bound by the module-level imports of `tree`, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)


def test_every_module_import_is_read():
    # perfbench/tracing.py binds names by module attribute, so an import that
    # perfbench names together with its module counts as read
    bench = set().union(*(_references(ast.parse(p.read_text()))
                          for p in (ROOT / "perfbench").glob("*.py")))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = _references(tree)
        traced = f"qnmkit.{path.stem}" in bench
        unread += [f"{path.name}:{name}" for name in _imported_names(tree)
                   if name not in own and not (traced and name in bench)]
    assert not unread, f"imports never read: {unread}"


def _defaulted(func):
    """(name, position) of each defaulted parameter of a function definition;
    position is None for a keyword-only one, and a method's counts from the
    first parameter after self or cls."""
    a = func.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - skip
    for arg, dft in zip(a.kwonlyargs, a.kw_defaults):
        if dft is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether `call` sets the parameter `name` at `position`: by keyword, by
    position, or through *args or **kwargs."""
    for kw in call.keywords:
        if kw.arg is None or kw.arg == name:
            return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_defaulted_parameter_is_set():
    # a default that no call overrides is a constant with a parameter's name
    trees = [ast.parse(p.read_text())
             for tree in ("src", "scripts", "perfbench", "tests")
             for p in sorted((ROOT / tree).rglob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, position in _defaulted(node):
                if not any(_passes(c, name, position)
                           for c in calls.get(node.name, ())):
                    unset.append(f"{path.name}:{node.name}({name})")
    assert not unset, f"defaulted parameters that no call sets: {unset}"
