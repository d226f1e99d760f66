"""The package holds no code that only the tests call.

A check that only tests need lives in tests/oracles.py; anything else that
no subcommand reaches is deleted.  The guard is by name: a top-level
function or class, or a public method, must be named somewhere in
src/dmcvqkd outside its own definition (the re-exports in __init__.py do
not count).  A name shared with an unrelated attribute, such as `copy`,
can hide an unused method; it never flags a used one.

A second guard covers parameters: every parameter of a function or lambda
in the package must be named in that function's own body, so an argument
that callers pass cannot be silently ignored.  `self`, `cls` and names that
start with `_` are exempt.
"""
import ast
from collections import Counter
from pathlib import Path

import dmcvqkd

SRC = Path(dmcvqkd.__file__).resolve().parent

# unused inside the package on purpose
ALLOWED = {
    "kernel_name",  # perfbench/run.py records it with every benchmark run
    # simulate draws its PE totals as one Wishart matrix; only perfbench's
    # pe-trials workload still splits rows (ROADMAP item 10 unpins it)
    "split_pe_sets",
    # batch.csv holds the rounds as drawn; perfbench's pe-trials workload
    # still symmetrizes its rows, and its traced simulate wraps the name on
    # cli
    "apply_symmetrization",
    # simulate reduces its key blocks with repetition_bits; these two are
    # the reference the tests hold it to, and perfbench's traced simulate
    # workload still wraps both names on cli
    "repetition_reconcile",
    "repetition_decode",
    # batch.csv streams from round_records and gaussian_rows; perfbench's
    # pe-trials workload still runs it and its traced simulate wraps the
    # name on cli
    "simulate_rounds",
    "config_to_json",  # the resolved config of a per-run record to come
    "truncation_epsilon",  # the cutoff's failure term, for reduction.csv
    "error",  # cli's argparse override; argparse calls it on a usage error
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


def _parameters(node):
    args = node.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a is not None]):
        if arg.arg not in ("self", "cls") and not arg.arg.startswith("_"):
            yield arg.arg


def test_every_parameter_is_named_in_its_body():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for part in body for sub in ast.walk(part)
                    if isinstance(sub, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{name}: {param}"
                       for param in _parameters(node) if param not in read]
    assert unread == []
