"""No public API without a caller.

Every public top-level function and class of `src/spikesr/*.py` must be
named somewhere other than its own definition, the package's
`__init__` re-export and the tests: in another part of `src/spikesr`,
in the benchmark harness (`perfbench/*.py`, not its frozen
`reference/` copy) or in README.md.

Below the name level, every optional parameter of a public function or
method must be passed, by position or keyword, by some call in
`src/spikesr` or `perfbench/*.py`.  A call to a class is a call to its
`__init__`; dataclass fields are not checked.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spikesr"


def _names(tree, skip=None):
    """Identifiers a tree names, leaving out the subtree `skip`."""
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
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _modules():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _harness():
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_public_definition_has_a_caller():
    modules = _modules()
    harness = set()
    for tree in _harness():
        harness |= _names(tree)
    readme = (ROOT / "README.md").read_text()
    uncalled = []
    for path, tree in modules.items():
        for node in _public_definitions(tree):
            named = node.name in harness or re.search(rf"\b{node.name}\b", readme)
            named = named or any(node.name in _names(other, skip=node)
                                 for other in modules.values())
            if not named:
                uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"public definitions nothing calls: {uncalled}"


# Optional parameters no call passes, kept on purpose.  forward's soft mode is
# the smooth reference that the finite-difference gradient check (criterion 6)
# runs against; only the tests select it.
UNPASSED_ALLOWED = {"model.forward.spike_mode"}


def _callables(module, tree):
    """(name a call uses, qualified name, function node, count of leading
    parameters no call passes: self) of each public function, public
    method and public class's __init__ in a module."""
    for node in _public_definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, f"{module}.{node.name}", node, 0
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name, f"{module}.{node.name}.{item.name}", item, 1
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield node.name, f"{module}.{node.name}", item, 1


def _passed(call, positional):
    """The parameters among `positional` (names in order) and keywords a call passes."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return set(positional) | {k.arg for k in call.keywords}
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def test_every_optional_parameter_is_passed():
    modules = _modules()
    calls = {}
    for tree in list(modules.values()) + _harness():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in modules.items():
        for name, qualified, fn, skip in _callables(path.stem, tree):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            optional = positional[len(positional) - len(args.defaults):]
            optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            passed = set().union(*(_passed(c, positional) for c in calls.get(name, [])))
            unpassed += [f"{qualified}.{p}" for p in optional
                         if p not in passed and f"{qualified}.{p}" not in UNPASSED_ALLOWED]
    assert not unpassed, f"optional parameters no call passes: {unpassed}"
