"""No public API without a caller.

Every public top-level function and class of `src/spikesr/*.py` must be
named somewhere other than its own definition, the package's
`__init__` re-export and the tests: in another part of `src/spikesr`,
in the benchmark harness (`perfbench/*.py`, not its frozen
`reference/` copy) or in README.md.
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


def test_every_public_definition_has_a_caller():
    modules = {path: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    harness = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        harness |= _names(ast.parse(path.read_text(), str(path)))
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
