"""The public surface, and the definitions nothing in the package calls.

`__all__` is the API: every name in it resolves, once.  An orphan is a
function, method or class of `src/treesum/*.py` that no name, attribute or
string constant anywhere in those modules refers to, outside its own body
and `__init__.py`; each one left waits on an open ROADMAP item.
"""

from __future__ import annotations

import ast
from pathlib import Path

import treesum

SRC = Path(__file__).resolve().parents[1] / "src" / "treesum"

DROPPED = ("meager_member", "e_member", "silver_sum", "body")

# orphan -> the ROADMAP item it is kept for
KEPT_ORPHANS = {
    "oracle.exhaustive_containment": "item 10: the benchmark tracer binds it",
    "covers.strict_e_to_simple": "item 5: certify the E-basis step",
    "kseq.check_kseq_bound": "item 3: the sharper blow-up audit",
    "trees.is_subtree": "item 1: check the shape of T'",
    "covers.Certificate.vacuous_folds": "item 2: folds with no block to check",
}


def test_all_names_resolve_once():
    names = treesum.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(treesum, name), name
    for name in DROPPED:
        assert name not in names and not hasattr(treesum, name), name


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of every non-dunder function,
    method and class, nested ones included."""
    stack = [(node, module) for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{scope}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualified, node.name, node
            stack.extend((child, qualified) for child in node.body)


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every Name id, Attribute attr and string constant in the tree,
    leaving out the subtree `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def orphans() -> set[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    everywhere = {module: _references(tree) for module, tree in trees.items()}
    out = set()
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree, module):
            used = name in _references(tree, skip=node) or any(
                name in refs for other, refs in everywhere.items()
                if other != module
            )
            if not used:
                out.add(qualified)
    return out


def test_orphans_are_the_kept_ones():
    assert orphans() == set(KEPT_ORPHANS)
