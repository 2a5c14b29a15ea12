"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tangentgraph"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name and attribute read under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_helper_has_a_caller_in_src():
    # a private function or class that only tests reach is a second path
    # to keep in step with the one the library runs
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for file, tree in trees.items():
        members = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in tree.body + members:
            if (isinstance(node, DEFINITIONS) and node.name.startswith("_")
                    and not node.name.endswith("__")
                    and uses[node.name] == Counter(_names(node))[node.name]):
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert unused == []
