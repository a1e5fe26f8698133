"""Every public name in qnmkit has a caller outside its own unit tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qnmkit"

# The paper's constructions that no pipeline stage calls yet: escape
# functions, normally hyperbolic trapping, the cutoff correspondence, the
# time-like shift c and the radial-point threshold.  Each waits for an
# acceptance criterion of its own.
PAPER_CONSTRUCTIONS = (
    "escape_scan", "mild_trap_function_check", "cutoff_correspondence_check",
    "choose_c", "CFunction", "dual_metric", "kds_full_symbol", "threshold",
)

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
            if qualname in PAPER_CONSTRUCTIONS + KERNEL_FORMS:
                continue
            if not (any(node.name in r for p, r in refs.items() if p != path)
                    or node.name in _references(trees[path], node)):
                uncalled.append(f"{path.name}:{qualname}")
    assert not uncalled, f"public names with no caller: {uncalled}"
    assert set(PAPER_CONSTRUCTIONS + KERNEL_FORMS) <= defined
