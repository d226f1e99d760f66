"""The package holds no code that only the tests call.

A check that only tests need lives in tests/oracles.py; anything else that
no subcommand reaches is deleted.  The guard is by name: a top-level
function or class, or a public method, must be named somewhere in
src/dmcvqkd outside its own definition (the re-exports in __init__.py do
not count).  A name shared with an unrelated attribute, such as `copy`,
can hide an unused method; it never flags a used one.
"""
import ast
from collections import Counter
from pathlib import Path

import dmcvqkd

SRC = Path(dmcvqkd.__file__).resolve().parent

# unused inside the package on purpose
ALLOWED = {
    "kernel_name",  # perfbench/run.py records it with every benchmark run
    "config_to_json",  # the resolved config of a per-run record to come
    "truncation_epsilon",  # the cutoff's failure term, for reduction.csv
    "hi",  # a layer's pair index arrays, kept beside `lo` until perfbench
    # counts pairs with cos.size (`lo` is hidden by validate's variable)
}


def _references(node) -> Counter:
    """How often each identifier is named, as a variable or an attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield item


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    named = Counter()
    for tree in trees.values():
        named.update(_references(tree))
    unused = {
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in _definitions(tree)
        if named[node.name] == _references(node)[node.name]
    }
    # every allowed name is defined and still unused, so the list stays short
    assert {entry.split(":")[1] for entry in unused} >= ALLOWED
    assert sorted(e for e in unused if e.split(":")[1] not in ALLOWED) == []
