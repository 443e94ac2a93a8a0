"""Rules on the source itself: lemma checks raise `WorkbenchError`s instead
of using `assert`, so that they still run under `python -O`; nothing dead
is left behind by a deletion."""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import ordbench
from ordbench import io, projection
from ordbench.oset import parse_set

from conftest import canon_universe, canonical_condition, o

SRC = pathlib.Path(ordbench.__file__).parent


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def _cli(flags: list[str], argv: list[str]) -> tuple[int, str, str]:
    out = subprocess.run([sys.executable, *flags, "-m", "ordbench.cli", *argv],
                         capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout, out.stderr


def test_lemma_checking_verbs_under_optimize():
    """`python -O` strips `assert`s; the lemma checks behind these verbs
    still run, so each call prints the same and exits alike."""
    u = canon_universe("w^2")
    p, p2 = canonical_condition(u, [o("w")]), canonical_condition(u, [o("w"), o("w*2")])
    index = projection.IndexSet(parse_set("{0} u [w,w^2)"))
    doc = lambda c: json.dumps(io.condition_to_json(c))
    idoc = lambda c: json.dumps(io.icondition_to_json(projection.pi(c, index)))
    for argv, code in [
        (["proj", "onto", idoc(p2)], 0),
        (["proj", "lift", doc(p), idoc(p2)], 0),
        (["cond", "find-type", doc(p), doc(p2)], 0),
        (["cond", "find-type", doc(p2), doc(p)], 2),  # NotAnExtension
    ]:
        plain = _cli([], argv)
        assert plain[0] == code, plain
        assert _cli(["-O"], argv) == plain, argv


def test_no_module_reads_the_environment():
    """No module reads `os.environ` or `os.getenv`: every switch of a call is
    an argument, so it shows in the call."""
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in n.names] if isinstance(n, ast.ImportFrom)
                     else [getattr(n, "attr", getattr(n, "id", None))])
            found += [f"{path.name}:{n.lineno} {m}" for m in names if m in reads]
    assert found == []


def test_every_error_class_is_raised_somewhere():
    """Each exception class of `errors.py`, other than the base, is
    constructed somewhere else in `src/`: an error nothing raises is dead."""
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"WorkbenchError"}
    called = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                    called.add(n.func.id if isinstance(n.func, ast.Name) else n.func.attr)
    assert sorted(declared - called) == []


def test_every_export_is_defined():
    """Each name in a module's `__all__` is an attribute of that module, and
    each public function and class a module with an `__all__` defines is in
    it: a deleted definition does not leave its export behind, and a public
    one is not left out."""
    missing, unlisted = [], []
    for path in sorted(SRC.glob("*.py")):
        name = "ordbench" if path.stem == "__init__" else f"ordbench.{path.stem}"
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", None)
        if exports is None:
            continue
        missing += [f"{name}.{n}" for n in exports if not hasattr(module, n)]
        unlisted += [f"{name}.{n.name}" for n in ast.parse(path.read_text()).body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name[0] != "_" and n.name not in exports]
    assert missing == []
    assert unlisted == []


def test_only_the_kernel_reads_ordinal_keys():
    """No module of `src/ordbench` but `ordinal.py` reads an attribute named
    `key`: the key layout is the kernel's, and the other layers ask it
    questions (order, sums, levels) instead of reading keys."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "ordinal.py":
            found += [f"{path.name}:{n.lineno}" for n in ast.walk(ast.parse(path.read_text()))
                      if isinstance(n, ast.Attribute) and n.attr == "key"]
    assert found == []


def test_only_the_set_algebra_knows_the_w_w_rule():
    """No module of `src/ordbench` but `oset.py` and `errors.py` names
    `UnsupportedRegion`: which levels a span realizes, and the refusal of a
    filtered bound at or past w^w, are the set algebra's; the kernel's level
    helpers are plain ordinal arithmetic."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("oset.py", "errors.py"):
            for n in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in n.names] if isinstance(n, ast.ImportFrom)
                         else [getattr(n, "attr", getattr(n, "id", None))])
                found += [f"{path.name}:{n.lineno}" for m in names if m == "UnsupportedRegion"]
    assert found == []


def _chained(n: ast.AST, outer: str, inner: str) -> bool:
    """Whether `n` is a call `<x>.<inner>(...).<outer>(...)`."""
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == outer and isinstance(n.func.value, ast.Call)
            and getattr(n.func.value.func, "attr", None) == inner)


def test_set_questions_are_asked_without_building_sets():
    """Outside `oset.py`, no module tests inclusion by building a
    difference (`issubset` answers that) or cuts an open interval by a
    chain of restrictions (`between` does): each builds a set to throw it
    away."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oset.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if (_chained(n, "is_empty", "difference")
                    or _chained(n, "restrict_below", "restrict_above")):
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def _unbounded_cache(decorator: ast.expr) -> bool:
    """`cache`, a bare `lru_cache`, or `lru_cache(maxsize=None)`."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache":
        return False
    if call is None:
        return True
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_no_unbounded_cache_on_a_function_with_parameters():
    """A process-wide cache keyed by arguments grows for the life of the
    process; what a value learns about itself is kept on that value."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = n.args
            if not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg):
                continue
            if any(_unbounded_cache(d) for d in n.decorator_list):
                found.append(f"{path.name}:{n.lineno} {n.name}")
    assert found == []


def test_no_record_has_a_dict_slot():
    """No class in `src/` lists `__dict__` in its `__slots__`: a value's memo
    is a `_` slot set in `__init__`, so a copy starts without it and nothing
    can be added to the value after construction."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Assign)
                    and any(getattr(t, "id", None) == "__slots__" for t in n.targets)
                    and any(isinstance(c, ast.Constant) and c.value == "__dict__"
                            for c in ast.walk(n.value))):
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def _empty_dict_slots(init: ast.FunctionDef) -> set[str]:
    """The slots an `__init__` sets to an empty `{}` with `_set`, named in
    the call or by a `for memo in (...)` loop over slot names."""
    loops = {n.target.id: [c.value for c in n.iter.elts if isinstance(c, ast.Constant)]
             for n in ast.walk(init)
             if isinstance(n, ast.For) and isinstance(n.target, ast.Name)
             and isinstance(n.iter, (ast.Tuple, ast.List))}
    slots = set()
    for n in ast.walk(init):
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_set"
                and len(n.args) == 3 and isinstance(n.args[2], ast.Dict) and not n.args[2].keys):
            slot = n.args[1]
            slots.update([slot.value] if isinstance(slot, ast.Constant) else loops.get(slot.id, ()))
    return slots


def test_every_memo_is_written_through_remember():
    """A slot that a record's `__init__` sets to an empty `{}` is a memo,
    and a memo is written only through `universe._remember`, which keeps it
    within `_MEMO_SIZE`: a store by subscript, `setdefault` or `update`
    would let it grow with every question. Lookup tables built from the
    caller's input (`_at`, `_nodes`, `_levels`, `_suc`) start from that
    input, not from `{}`, and are not memos."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    memos = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef) and n.name == "__init__":
                memos |= _empty_dict_slots(n)
    writes = []
    for name, tree in trees.items():
        for n in ast.walk(tree):
            stores = (n.targets if isinstance(n, ast.Assign)
                      else [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])
            stores = [t.value for t in stores if isinstance(t, ast.Subscript)]
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("setdefault", "update", "__setitem__")):
                stores.append(n.func.value)
            writes += [f"{name}:{n.lineno} {t.attr}" for t in stores
                       if isinstance(t, ast.Attribute) and t.attr in memos]
    assert writes == []
    # The rule sees both forms of `__init__`, and no lookup table.
    assert {"_o", "_large", "_closed", "_positions", "_chains", "_gaps"} <= memos
    assert not memos & {"_at", "_nodes", "_levels", "_suc"}


def test_every_private_helper_is_used():
    """Each undecorated private module-level function is named somewhere in
    `src/` (a call, a reference or an attribute; an import does not
    count): a helper whose last caller is deleted goes with it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    helpers = [
        (name, n)
        for name, tree in trees.items()
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name.startswith("_")
        and not n.name.startswith("__")
        and not n.decorator_list
    ]
    assert helpers
    assert [f"{name}:{n.lineno} {n.name}" for name, n in helpers if n.name not in named] == []


def _callers() -> list[pathlib.Path]:
    """The modules whose calls count as callers: the library's and the benchmark's."""
    return sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "bench").glob("*.py"))


def test_every_public_name_has_a_caller():
    """Each public module-level function and class, and each public method,
    of `src/ordbench` is named somewhere in `src/ordbench` or `bench/*.py`
    (an `ast.Name` or `ast.Attribute`; the strings of `__all__` do not
    count): what only its own tests call is deleted.

    Any attribute of the same name counts as a use, whatever its object,
    so the rule misses a method that shares its name with another class's
    (as `is_empty` did on `ExtensionType` and `OrdinalSet`) or whose only
    caller is itself test-only (as `total_length` was of that
    `is_empty`).

    There is no exception list: a name reached only by a lookup built at
    run time would look unused here, and
    `test_no_attribute_is_looked_up_by_a_built_name` refuses such lookups."""
    named = set()
    for path in _callers():
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    public = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.parse(path.read_text()).body:
            members = n.body if isinstance(n, ast.ClassDef) else []
            public += [(path.name, d) for d in [n, *members]
                       if isinstance(d, defs) and not d.name.startswith("_")]
    assert public
    unused = [f"{name}:{d.lineno} {d.name}" for name, d in public if d.name not in named]
    assert unused == []


def _builds_a_string(x: ast.AST) -> bool:
    """An f-string, a `+` or `%`, or a `.format` call."""
    return (isinstance(x, ast.JoinedStr)
            or isinstance(x, ast.BinOp) and isinstance(x.op, (ast.Add, ast.Mod))
            or isinstance(x, ast.Call) and getattr(x.func, "attr", None) == "format")


def test_no_attribute_is_looked_up_by_a_built_name():
    """No `getattr` or `hasattr` in `src/` builds its name argument from an
    f-string, a `+` or `%`, or `.format`. A callee reached only through a
    built name is named nowhere, so the caller rule above would take it for
    dead code; each call names its callee instead."""
    built = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("getattr", "hasattr")
                    and len(n.args) > 1 and any(map(_builds_a_string, ast.walk(n.args[1])))):
                built.append(f"{path.name}:{n.lineno}")
    assert built == []


def _passed(paths) -> dict[str, set]:
    """Per callee name, the positions and keywords its calls in `paths`
    pass; None for a call that spreads `*args` or `**kwargs` (the keyword
    of a `**kwargs` is None)."""
    passed: dict[str, set] = {}
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                got = passed.setdefault(getattr(n.func, "id", getattr(n.func, "attr", None)), set())
                got.update(range(len(n.args)), (k.arg for k in n.keywords))
                if any(isinstance(a, ast.Starred) for a in n.args):
                    got.add(None)
    return passed


def _unpassed_defaults(paths) -> list[str]:
    """The defaulted parameters of `src/`'s public functions, public methods
    and `__init__`s that no call in `paths` passes."""
    passed = _passed(paths)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.parse(path.read_text()).body:
            # (callee name, definition, leading parameters a call does not pass)
            if isinstance(n, ast.FunctionDef):
                defs = [(n.name, n, 0)]
            elif isinstance(n, ast.ClassDef):
                defs = [(n.name if d.name == "__init__" else d.name, d,
                         0 if any(getattr(x, "id", None) == "staticmethod"
                                  for x in d.decorator_list) else 1)
                        for d in n.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for callee, d, skip in defs:
                if d.name.startswith("_") and d.name != "__init__":
                    continue
                a = d.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                defaulted = [(i - skip, p) for i, p in enumerate(positional) if i >= first]
                defaulted += [(None, p) for p, v in zip(a.kwonlyargs, a.kw_defaults)
                              if v is not None]
                got = passed.get(callee, set())
                found += [f"{path.name}:{d.lineno} {d.name}({p.arg}=)"
                          for i, p in defaulted if not got & {None, i, p.arg}]
    return found


def test_every_default_is_passed_somewhere():
    """Each parameter with a default, of a public function, a public method
    or an `__init__` of `src/ordbench`, is passed by position or by keyword
    by some call in `src/ordbench` or `bench/*.py`: a default that no caller
    overrides is a parameter only tests use, and goes. Callees are matched
    by name, as above (a class's name is its `__init__`'s), and a call
    that spreads `*args` or `**kwargs` passes every parameter."""
    assert _unpassed_defaults(_callers()) == []
    # With no callers to read, the rule sees the defaults it checks.
    assert any(f.endswith(" extend(shrink=)") for f in _unpassed_defaults([]))


def test_every_cli_kind_is_used():
    """Each argument kind of `cli.KINDS` is named by a verb spec or by a
    string literal passed to `Report.decode`: a kind whose last user is
    deleted goes with it."""
    from ordbench import cli

    named = {s.partition(":")[2].rstrip("!") for v in cli.VERBS.values() for s in v.args.split()}
    for n in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "decode" and n.args:
            # The kind may be chosen by an expression; each literal in it counts.
            named |= {c.value for c in ast.walk(n.args[0]) if isinstance(c, ast.Constant)}
    assert sorted(set(cli.KINDS) - named) == []

