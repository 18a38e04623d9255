"""Every public name of a ``zigzag3`` module is used by the program.

A name in a module's ``__all__`` counts as used when ``src/zigzag3`` uses
it outside its own definition (imports do not count), when the package's
``zigzag3.__all__`` lists it, or when the benchmark in ``perfbench/``
names it.  Every public method and property of a public class is held to
the same rule.  A name only the tests call is code to delete or to move
into the tests.

Uses inside the definition of a flagged name do not count either: the
check drops flagged names and runs again until nothing changes, so a name
whose only program caller is itself test-only is flagged too.

The same holds for options: every defaulted parameter of a public
function or method must be passed, by keyword or by position, by some
call in ``src/zigzag3`` or the benchmark.  A default no program call
overrides is an option with one value in use.
"""

import ast
import re
from pathlib import Path

import zigzag3

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zigzag3"

# ``brute_force_min_io(cm=)`` is a test seam: it lets the tests compare the
# row-space masks with dense ranks on coding matrices the construction
# does not use.
UNPASSED_DEFAULTS = {"verification.brute_force_min_io.cm"}


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


def public_methods(tree: ast.Module):
    """(class, method, lines) of every public method and property of the
    public classes of a module."""
    public = set(module_all(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, range(item.lineno, item.end_lineno + 1)


def reference_lines(tree: ast.Module) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """The lines each name is referenced on, as a name or an attribute, and
    the lines each attribute is referenced on; a method or property is
    only ever reached as an attribute."""
    names: dict[str, set[int]] = {}
    attributes: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.setdefault(node.id, set()).add(node.lineno)
        elif isinstance(node, ast.Attribute):
            names.setdefault(node.attr, set()).add(node.lineno)
            attributes.setdefault(node.attr, set()).add(node.lineno)
    return names, attributes


def unused_names(sources: dict[str, str], bench: str, exported=()) -> set[str]:
    """``module.name`` and ``module.Class.method`` of every public name in
    ``sources`` (module stem -> source text) that the program does not use.

    Module-level names in ``exported`` count as used, as does any name
    ``bench`` names.
    A name used only inside its own definition, or inside that of a
    flagged name, is flagged, until nothing more is.
    """
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    refs = {stem: reference_lines(tree) for stem, tree in trees.items()}
    # (label, module, name, lines it spans, 0 if any reference counts or 1
    # if only attributes do: an index into ``refs``)
    candidates = []
    for stem, tree in trees.items():
        if stem != "__init__":
            for name in module_all(tree):
                if name not in exported and not re.search(rf"\b{re.escape(name)}\b", bench):
                    candidates.append((f"{stem}.{name}", stem, name, definition_lines(tree, name), 0))
        for cls, name, own in public_methods(tree):
            if not re.search(rf"\b{re.escape(name)}\b", bench):
                candidates.append((f"{stem}.{cls}.{name}", stem, name, own, 1))
    flagged: set[str] = set()
    while True:
        dead = {stem: set() for stem in trees}
        for label, stem, _, lines, _ in candidates:
            if label in flagged:
                dead[stem].update(lines)
        newly = {
            label
            for label, home, name, lines, kind in candidates
            if label not in flagged
            and not any(
                refs[stem][kind].get(name, set()) - dead[stem] - set(lines if stem == home else ())
                for stem in trees
            )
        }
        if not newly:
            return flagged
        flagged |= newly


def program_unused() -> set[str]:
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    return unused_names(sources, bench, zigzag3.__all__)


def test_every_public_name_is_used_by_the_program():
    unused = sorted(label for label in program_unused() if label.count(".") == 1)
    assert not unused, f"public names only tests use: {unused}"


def test_every_public_method_is_used_by_the_program():
    # The same rule for the methods and properties of public classes: one
    # counts as used when the program reads it as an attribute outside its
    # own lines, or the benchmark names it.
    unused = sorted(label for label in program_unused() if label.count(".") == 2)
    assert not unused, f"public methods only tests use: {unused}"


PLANTED = '''
__all__ = ["Store", "entry", "helper", "leaf", "CONSTANT"]

CONSTANT = 3


def leaf():
    return CONSTANT


def helper():
    return leaf()


class Store:
    def dump(self):
        return self.rows()

    def rows(self):
        return self.size

    @property
    def size(self):
        return 1

    def run(self):
        return 2


def entry():
    return Store().run()
'''


def test_a_chain_of_test_only_callers_is_flagged():
    # ``helper`` and ``Store.dump`` have no caller; ``leaf`` and
    # ``Store.rows`` are called only by them, and ``CONSTANT`` and
    # ``Store.size`` only by those, two levels down.  ``entry`` is
    # exported, so ``Store`` and ``Store.run`` are used.
    want = {"mod.helper", "mod.leaf", "mod.CONSTANT", "mod.Store.dump", "mod.Store.rows", "mod.Store.size"}
    assert unused_names({"mod": PLANTED}, "", exported={"entry"}) == want
    # A name the benchmark names keeps its callees.
    assert unused_names({"mod": PLANTED}, "helper()", exported={"entry"}) == want - {
        "mod.helper", "mod.leaf", "mod.CONSTANT"
    }
    assert unused_names({"mod": PLANTED}, "dump()", exported={"entry"}) == want - {
        "mod.Store.dump", "mod.Store.rows", "mod.Store.size"
    }


def public_functions(tree: ast.Module):
    """(label, definition, leading parameters no call passes) of every
    public function of a module and every public method of its public
    classes: the attribute access passes a method's self or cls."""
    public = set(module_all(tree))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, 0 if static else 1


def defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, position in a call) of each defaulted parameter of ``fn``;
    a keyword-only one has no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter; ``*args`` and ``**kwargs``
    count as passing it."""
    if any(k.arg in (name, None) for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults(sources: dict[str, str], callers: list[str], exempt=()) -> set[str]:
    """``module.function.parameter`` (``module.Class.method.parameter``
    for a method) of every defaulted parameter of a public function or
    method in ``sources`` that no call in ``callers`` passes, except those
    in ``exempt``.  A call is matched by the name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = set()
    for stem, text in sources.items():
        for label, fn, skip in public_functions(ast.parse(text)):
            for param, position in defaulted(fn, skip):
                found = f"{stem}.{label}.{param}"
                if found not in exempt and not any(passes(c, param, position) for c in calls.get(fn.name, [])):
                    out.add(found)
    return out


def test_every_default_is_passed_by_the_program():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    unpassed = sorted(unpassed_defaults(sources, [*sources.values(), *bench], UNPASSED_DEFAULTS))
    assert not unpassed, f"defaulted parameters no program call passes: {unpassed}"


PLANTED_DEFAULTS = '''
__all__ = ["Store", "entry", "helper"]


def helper(a, b=1, *, c=2, d=3):
    return a


def _hidden(x=1):
    return x


class Store:
    def put(self, x, flag=False):
        return x

    @staticmethod
    def make(size=0):
        return Store()

    @classmethod
    def load(cls, path, mode="r"):
        return cls()


def entry():
    helper(0, 5, c=1)
    Store().put(1)
    Store.make(3)
    return Store.load("p"), _hidden()
'''


def test_a_default_no_call_passes_is_flagged():
    # ``b`` is passed by position and ``c`` by keyword; ``d``, ``flag``
    # and ``mode`` by no call.  ``make``'s position counts from ``size``,
    # ``put``'s and ``load``'s from after self and cls.  ``_hidden`` is
    # not public.
    want = {"mod.helper.d", "mod.Store.put.flag", "mod.Store.load.mode"}
    assert unpassed_defaults({"mod": PLANTED_DEFAULTS}, [PLANTED_DEFAULTS]) == want
    # A call in another caller passes ``flag``; an exempt ``mode`` is not
    # flagged; ``**kwargs`` passes every parameter.
    callers = [PLANTED_DEFAULTS, "Store().put(1, flag=True)", "helper(0, **options)"]
    assert unpassed_defaults({"mod": PLANTED_DEFAULTS}, callers, {"mod.Store.load.mode"}) == set()
