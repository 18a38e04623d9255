"""Every public name of a ``zigzag3`` module is used by the program.

A name in a module's ``__all__`` counts as used when ``src/zigzag3`` uses
it outside its own definition (imports do not count), when the package's
``zigzag3.__all__`` lists it, or when the benchmark in ``perfbench/``
names it.  Every public method and property of a public class is held to
the same rule.  A name only the tests call is code to delete or to move
into the tests.
"""

import ast
import re
from pathlib import Path

import zigzag3

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zigzag3"


def module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def definition_lines(tree: ast.Module, name: str) -> range:
    """Lines of the top-level statement that defines ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return range(node.lineno, node.end_lineno + 1)
    return range(0)


def used_names(tree: ast.Module, skip: range) -> set[str]:
    """Names and attributes referenced in ``tree``, outside lines ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name in module_all(tree):
            if name in zigzag3.__all__ or re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            skip = definition_lines(tree, name)
            if not any(name in used_names(t, skip if p == path else range(0)) for p, t in trees.items()):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names only tests use: {unused}"


# ``ClusterState.scrub``, and the ``ScrubReport`` it returns, wait for a
# caller: a ``zigzag3 scrub`` command (ROADMAP item 4).
UNCALLED_METHODS = {"ClusterState.scrub"}


def public_methods(tree: ast.Module):
    """(class, method, lines) of every public method and property of the
    public classes of a module."""
    public = set(module_all(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, range(item.lineno, item.end_lineno + 1)


def attribute_lines(tree: ast.Module) -> dict[str, set[int]]:
    """The lines each attribute is referenced on; a method or property is
    only ever reached as one."""
    out: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.setdefault(node.attr, set()).add(node.lineno)
    return out


def test_every_public_method_is_used_by_the_program():
    # The same rule for the methods and properties of public classes: one
    # counts as used when the program reads it as an attribute outside its
    # own lines, or the benchmark names it.
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {path: attribute_lines(tree) for path, tree in trees.items()}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, tree in trees.items():
        for cls, name, own in public_methods(tree):
            if f"{cls}.{name}" in UNCALLED_METHODS or re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            if not any(lines.get(name, set()) - set(own if p == path else ()) for p, lines in uses.items()):
                unused.append(f"{path.stem}.{cls}.{name}")
    assert not unused, f"public methods only tests use: {unused}"
