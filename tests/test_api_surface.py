"""Every public name in qnmkit has a caller outside its own unit tests, and
every module-level import of a qnmkit module is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qnmkit"

# The point-object forms of `symbols.hamilton_kernel`, which the flow runs on
# plain floats.  tests/test_symbols.py checks the kernel through them: against
# the symbol's closed form and its finite differences, the radial-set rate and
# the pushforward between the two charts.
KERNEL_FORMS = ("hamilton_field", "kds_classical_gradient")


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
    defined, uncalled = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(trees[path]):
            defined.add(qualname)
            if qualname in KERNEL_FORMS:
                continue
            if not (any(node.name in r for p, r in refs.items() if p != path)
                    or node.name in _references(trees[path], node)):
                uncalled.append(f"{path.name}:{qualname}")
    assert not uncalled, f"public names with no caller: {uncalled}"
    assert set(KERNEL_FORMS) <= defined


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
