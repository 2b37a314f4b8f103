"""The package's source rules over one parse of it: each maps ``{module: parsed module}`` to its
violations, and must find none in the package and the one in ``seed``, a module added to break it.
One more rule ties the public names kept for perfbench to a parse of its tracer and selftest."""

import ast
import builtins
import sys
from pathlib import Path

import pytest

import trinities

ROOT = Path(trinities.__file__).parent
PACKAGE = {p.relative_to(ROOT).as_posix()[:-3]: ast.parse(p.read_text(), str(p)) for p in sorted(ROOT.rglob("*.py"))}
BENCH = Path(__file__).parents[1] / "perfbench"
PERFBENCH = {name: ast.parse((BENCH / f"{name}.py").read_text(), name) for name in ("tracer", "selftest")}


def walk(modules, *types):
    return [(m, node) for m, tree in modules.items() for node in ast.walk(tree) if isinstance(node, types)]


def no_assert(modules):
    """No check on a command's path is an assert, which ``python -O`` strips."""
    return [f"{m}:{node.lineno}: assert" for m, node in walk(modules, ast.Assert)]


def no_generated_records(modules):
    """No code or docstring says dataclass, which writes each class's methods as source text and execs it."""
    return [f"{m}: says dataclass" for m, tree in modules.items() if "dataclass" in ast.unparse(tree)]


def value_records(modules):
    """Only the value records define ``__eq__`` or ``__hash__``, and each of them defines both."""
    # compared by value: the tree-hugging oracle compares configurations
    allowed = {"dividing.ChordDiagram", "dividing.Configuration"}
    methods, found = {"__eq__", "__hash__"}, []
    classes = [(f"{m}.{cls.name}", cls) for m, cls in walk(modules, ast.ClassDef)]
    for name, cls in classes:
        assigned = [t for s in cls.body if isinstance(s, ast.Assign) for t in s.targets]  # such as __hash__ = None
        defined = methods & {getattr(s, "name", None) or getattr(s, "id", None) for s in cls.body + assigned}
        if name in allowed and defined != methods:
            found.append(f"{name}: compared by value but lacks {', '.join(sorted(methods - defined))}")
        elif name not in allowed and defined:
            found.append(f"{name}: defines {', '.join(sorted(defined))}")
    return found + [f"{name}: allowed, but not defined" for name in sorted(allowed - {n for n, _c in classes})]


def no_recursion(modules):
    """No depth grows with the input: no function calls itself, by name or through ``self`` or ``cls``."""
    found = []
    for m, fn in walk(modules, ast.FunctionDef, ast.AsyncFunctionDef):
        for _m, call in walk({m: fn}, ast.Call):
            on_self = isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) in ("self", "cls")
            if (call.func.attr if on_self else getattr(call.func, "id", None)) == fn.name:
                found.append(f"{m}:{call.lineno}: {fn.name} calls itself")
    return found


def no_private_reads(modules):
    """No module imports or reads another's ``_``-prefixed names."""
    found, siblings = [], set()  # (module, a name that `from . import m` binds to a sibling module)
    for m, node in walk(modules, ast.ImportFrom):
        for alias in node.names if node.level else ():
            if node.module is None:
                siblings.add((m, alias.asname or alias.name))
            elif alias.name.startswith("_"):
                found.append(f"{m}:{node.lineno}: imports {node.module}.{alias.name}")
    for m, node in walk(modules, ast.Attribute):
        if (m, getattr(node.value, "id", None)) in siblings and node.attr.startswith("_") and not node.attr.endswith("__"):
            found.append(f"{m}:{node.lineno}: reads {node.value.id}.{node.attr}")
    return found


# public names that no other package code names, kept on purpose, with the reason for each
TRACED, SELFTEST = "a perfbench tracer target", "perfbench's selftest"
ALLOWED = {
    "fkt.transpositions": TRACED,
    "trees.spanning_tree_count": TRACED,
    "dividing.enumerate_chord_diagrams": TRACED,
    "plane_graph.canonical_form": f"{SELFTEST} compares canonical forms",
    "dividing.is_tree_hugging": f"{TRACED}; oracle of the integer check",
    "dividing.euler_vector": f"{TRACED}; oracle of the builder's Euler table",
}


def public_names_used(modules):
    """Every public module-level function or class is named by other package code, bar six kept on purpose."""
    allowed = ALLOWED.keys()
    named, defined = [], {}  # (statement, the names it reads); public module.name -> its statement
    for m, stmt in ((m, stmt) for m, tree in modules.items() for stmt in tree.body):
        nodes = [node for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
        named.append((stmt, {getattr(node, "id", None) or getattr(node, "attr", None) or node.name for node in nodes}))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            defined[f"{m}.{stmt.name}"] = stmt
    used = {name for name, stmt in defined.items() if any(stmt.name in names for s, names in named if s is not stmt)}
    found = [f"{name}: allowed, but package code names it" for name in sorted(used & allowed)]
    found += [f"{name}: no other package code names it" for name in sorted(defined.keys() - used - allowed)]
    return found + [f"{name}: allowed, but not defined" for name in sorted(allowed - defined.keys())]


def error_kinds(modules):
    """Every package error is an ``InputError`` or a ``ModelFailure``, and nothing raises a built-in."""
    # the two kinds of package error; cli.main and each verify stage catch by kind
    kinds = {"InputError", "ModelFailure"}
    builtin = {n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    raised = [(m, node.lineno, getattr(getattr(node.exc, "func", node.exc), "id", None)) for m, node in walk(modules, ast.Raise)]
    found = [f"{m}:{line}: raises the built-in {name}" for m, line, name in raised if name in builtin]
    where, bases = {}, {}  # class name -> where it is defined; class name -> its base names
    for m, node in walk(modules, ast.ClassDef):
        names = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None) for b in node.bases}
        if node.name in bases:
            found.append(f"{m}:{node.lineno}: a second class named {node.name}")
        where[node.name], bases[node.name] = f"{m}:{node.lineno}", names
        if builtin & names and not (m == "limits" and node.name in kinds):
            found.append(f"{m}:{node.lineno}: {node.name} derives from the built-in {', '.join(sorted(builtin & names))}")
    ancestors = {name: set(names) for name, names in bases.items()}
    for _ in bases:  # no chain of bases is longer than the number of classes
        for above in ancestors.values():
            above |= set().union(*(ancestors.get(base, ()) for base in above))
    for name, above in sorted(ancestors.items()):
        if name not in kinds and above & builtin and len(kinds & above) != 1:
            found.append(f"{where[name]}: {name} reaches {sorted(kinds & above) or 'neither'} of {sorted(kinds)}")
    return found


def stdlib_only(modules):
    """The package imports only the standard library and itself: no dependency, nor tests/ or perfbench/."""
    allowed, found = sys.stdlib_module_names | {"trinities"}, []
    for m, node in walk(modules, ast.Import, ast.ImportFrom):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module] * (not node.level)
        found += [f"{m}:{node.lineno}: imports {name}" for name in names if name.split(".")[0] not in allowed]
    return found


def kept_for_perfbench(perfbench):
    """Each public name allowed for perfbench is one its tracer still traces or its selftest still reads."""
    (targets,) = [s.value for s in perfbench["tracer"].body if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "TARGETS"]
    traced = {f"{target.elts[0].value}.{target.elts[1].value}" for target in targets.elts}
    read = {node.attr for node in ast.walk(perfbench["selftest"]) if isinstance(node, ast.Attribute)}
    found = []
    for name, reason in sorted(ALLOWED.items()):
        if reason.startswith(TRACED) and name not in traced:
            found.append(f"{name}: allowed as a tracer target, but perfbench no longer traces it")
        elif reason.startswith(SELFTEST) and name.split(".")[1] not in read:
            found.append(f"{name}: allowed for perfbench's selftest, but the selftest no longer reads it")
    return found


SEEDS = {
    no_assert: "assert True",
    no_generated_records: "from dataclasses import dataclass",
    value_records: "class Arc:\n    def __eq__(self, other):\n        return True",
    no_recursion: "def f(n):\n    return f(n - 1)",
    no_private_reads: "from . import dividing\ndividing._x",
    public_names_used: "def unnamed():\n    pass",
    error_kinds: "raise ValueError('x')",
    stdlib_only: "from tests import oracles",
}


@pytest.mark.parametrize("rule", SEEDS, ids=lambda rule: rule.__name__)
def test_the_package_keeps_the_rule(rule):
    assert rule(PACKAGE) == []


@pytest.mark.parametrize("rule", SEEDS, ids=lambda rule: rule.__name__)
def test_the_rule_finds_its_seeded_violation(rule):
    found = set(rule({**PACKAGE, "seed": ast.parse(SEEDS[rule])})) - set(rule(PACKAGE))
    assert found and all(violation.startswith("seed") for violation in found), found


def test_perfbench_reads_every_name_kept_for_it():
    assert kept_for_perfbench(PERFBENCH) == []


def test_the_perfbench_rule_finds_its_seeded_violation():
    # a tracer that traces nothing and a selftest that reads nothing
    found = kept_for_perfbench({"tracer": ast.parse("TARGETS = ()"), "selftest": ast.parse("")})
    untraced = "allowed as a tracer target, but perfbench no longer traces it"
    assert found == [
        f"dividing.enumerate_chord_diagrams: {untraced}",
        f"dividing.euler_vector: {untraced}",
        f"dividing.is_tree_hugging: {untraced}",
        f"fkt.transpositions: {untraced}",
        "plane_graph.canonical_form: allowed for perfbench's selftest, but the selftest no longer reads it",
        f"trees.spanning_tree_count: {untraced}",
    ]
