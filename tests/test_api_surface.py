"""Every public name in qnmkit has a caller outside its own unit tests, every
private top-level function and class has a caller in qnmkit itself, every
module-level import of a qnmkit module is read, every defaulted parameter
of a qnmkit function, and every defaulted field of a public dataclass, is
given two values by its calls (or one that is not a literal): for a public
function or dataclass, by calls outside the unit tests; and every CLI knob is
given two values by the configs the pipeline writes."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

from qnmkit.cli import _SCHEMAS

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


def _references(tree, skip=None, names=True):
    """Names, attributes and string constants used in `tree`, outside imports
    and outside the definition node `skip`; without `names`, attributes and
    strings only."""
    out = set()
    todo = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            if names:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)   # perfbench/tracing.py binds by name
        todo.extend(ast.iter_child_nodes(node))
    return out


def _pipeline_files():
    """The files whose calls count for a public name: qnmkit's modules, the
    scripts, the benchmark harness and the acceptance suite."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def test_every_public_name_has_a_caller():
    # a method or property is called where it is read as an attribute (or
    # named in a string), not where a local variable shares its name
    trees = {p: ast.parse(p.read_text()) for p in _pipeline_files()}
    names = {p: _references(tree) for p, tree in trees.items()}
    attributes = {p: _references(tree, names=False) for p, tree in trees.items()}
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(trees[path]):
            member = "." in qualname
            refs = attributes if member else names
            if not (any(node.name in r for p, r in refs.items() if p != path)
                    or node.name in _references(trees[path], node, not member)):
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
    """(name, position, default) of each defaulted parameter of a function
    definition; position is None for a keyword-only one, and a method's
    counts from the first parameter after self or cls."""
    a = func.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(a.defaults)
    for i, (arg, dft) in enumerate(zip(positional[first:], a.defaults),
                                   start=first):
        yield arg.arg, i - skip, dft
    for arg, dft in zip(a.kwonlyargs, a.kw_defaults):
        if dft is not None:
            yield arg.arg, None, dft


_EXPRESSION = ("expression", None)


def _value(node, constants):
    """A key for the value an expression passes: ("literal", v) for a literal,
    or for a module-level name bound to one in its file (`constants`, name to
    value), else _EXPRESSION."""
    if isinstance(node, ast.Name) and node.id in constants:
        return ("literal", constants[node.id])
    try:
        v = ast.literal_eval(node)
    except ValueError:
        return _EXPRESSION
    return ("literal", v if isinstance(v, (int, float, complex, str, tuple))
            else repr(v))


def _literal_names(tree):
    """Module-level names of a file bound to a literal, with the literal."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            kind, v = _value(node.value, {})
            if kind == "literal":
                out[node.targets[0].id] = v
    return out


def _passed(call, name, position):
    """The expression `call` passes for the parameter `name` at `position`,
    by keyword or by position, else None; *args and **kwargs pass nothing,
    nor does a positional argument after *args."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if position is None:
        return None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if i == position:
            return arg
    return None


def _calls(paths):
    """The calls made in the files `paths`, keyed by the name called, each
    with its file's literal names."""
    calls = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        constants = _literal_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append((node, constants))
    return calls


def _is_dataclass(node):
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def _defaulted_fields(cls):
    """(name, position, default) of each defaulted field of a dataclass
    definition, the position counting every field."""
    fields = [item for item in cls.body if isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)]
    for i, item in enumerate(fields):
        if item.value is not None:
            yield item.target.id, i, item.value


def _is_set(calls, name, position, default, constants):
    """Whether the calls give the parameter two values, or one that is a
    variable or an expression; a call that omits it passes the default, one
    fixed value even where it is an expression (`constants` are the literal
    names of the defining file)."""
    fixed = _value(default, constants)
    if fixed == _EXPRESSION:
        fixed = ("default", None)
    values = set()
    for call, caller_constants in calls:
        arg = _passed(call, name, position)
        values.add(fixed if arg is None else _value(arg, caller_constants))
    return len(values) > 1 or _EXPRESSION in values


def test_every_defaulted_parameter_is_set():
    # a default that no call overrides is a constant with a parameter's name,
    # and so is a parameter that every call sets to the same literal; for a
    # public function or dataclass field only the pipeline's calls count,
    # while a private helper may have its unit test as its referee
    pipeline = _calls(_pipeline_files())
    everywhere = _calls(p for tree in ("src", "scripts", "perfbench", "tests")
                        for p in sorted((ROOT / tree).rglob("*.py")))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = _literal_names(tree)
        public = {node for _, node in _public_definitions(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defaulted = _defaulted(node)
            elif node in public and _is_dataclass(node):
                defaulted = _defaulted_fields(node)
            else:
                continue
            calls = (pipeline if node in public else everywhere).get(node.name, ())
            unset += [f"{path.name}:{node.name}({name})"
                      for name, position, default in defaulted
                      if not _is_set(calls, name, position, default, constants)]
    assert not unset, ("defaulted parameters and fields that no call sets to "
                       f"a second value: {unset}")


_VARIABLE = object()


def _workflow_configs():
    """(command, text) of each config the CI workflow writes with printf,
    matched to the next `qnmkit <command>` that reads it."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    out = []
    for m in re.finditer(r"printf '([^']*)'[^>\n]*> (\"[^\"]+\")", text):
        reader = re.compile(rf"qnmkit (\w+) --config {re.escape(m[2])}")
        command = reader.search(text, m.end())
        assert command, f"no qnmkit command reads {m[2]}"
        out.append((command[1], m[1].replace("\\n", "\n")))
    return out


def _pipeline_configs():
    """(command, {key: value}) of each config the pipeline writes: perfbench's
    operations and warm-ups, scripts/configs/<command>.cfg and the CI
    workflow's printf configs; a `%s` value reads _VARIABLE."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name,
                                       importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    ops = [op for w in workloads.WORKLOADS
           for op in workloads.operations(w) + [workloads.warmup_op(w)]]
    texts = [(op.command, op.config_text("configs")) for op in ops]
    texts += [(p.stem, p.read_text())
              for p in sorted((ROOT / "scripts" / "configs").glob("*.cfg"))]
    texts += _workflow_configs()
    for command, text in texts:
        kv = dict((k.strip(), v.strip()) for k, v in
                  (line.split("=", 1) for line in text.splitlines() if "=" in line))
        yield command, {k: _VARIABLE if v == "%s" else v for k, v in kv.items()}


def test_every_cli_knob_is_set():
    # a knob that every config leaves at, or sets to, one value is a constant
    # with a config key's name
    values = {(c, k): set() for c, schema in _SCHEMAS.items() for k in schema}
    for command, kv in _pipeline_configs():
        for k, (typ, _, _, default) in _SCHEMAS[command].items():
            v = kv.get(k, default)
            values[command, k].add(v if v is _VARIABLE else typ(v))
    unset = [f"{c}:{k}" for (c, k), vs in values.items()
             if len(vs) < 2 and _VARIABLE not in vs]
    assert not unset, f"CLI knobs the pipeline's configs give one value: {unset}"
