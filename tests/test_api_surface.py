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


def _public_definitions():
    """(module path, top-level node) of each public function and class."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def _references(tree, skip=None):
    """Names, attributes and string constants used in `tree`, outside imports
    and outside the top-level node `skip`."""
    out = set()
    for top in tree.body:
        if top is skip or isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)   # perfbench/tracing.py binds by name
    return out


def test_every_public_name_has_a_caller():
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    trees = {p: ast.parse(p.read_text()) for p in callers}
    refs = {p: _references(tree) for p, tree in trees.items()}
    defined, uncalled = set(), []
    for path, node in _public_definitions():
        defined.add(node.name)
        if node.name in PAPER_CONSTRUCTIONS:
            continue
        if not (any(node.name in r for p, r in refs.items() if p != path)
                or node.name in _references(trees[path], node)):
            uncalled.append(f"{path.name}:{node.name}")
    assert not uncalled, f"public names with no caller: {uncalled}"
    assert set(PAPER_CONSTRUCTIONS) <= defined
