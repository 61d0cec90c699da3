"""Every call frees what it built when it returns.

A nested function that calls itself, or a sibling nested function,
holds itself through its closure cell: a reference cycle, which only
the cyclic garbage collector frees.  The static guard refuses such a
function in ``src/mizthf`` unless its enclosing function deletes the
name in a ``finally``, and refuses any use of ``gc`` there (tuning the
collector is a process-wide setting, not a library's).  The dynamic
guard runs the library with the collector off and asserts that
``gc.collect()`` then finds nothing, naming the functions whose frames
or closures it would have freed.
"""

from __future__ import annotations

import ast
import gc
import random
import types
from pathlib import Path

import pytest

from generators import (
    planted_problem, random_closed_prop, random_statement, rich_signature,
)
from mizthf import hol
from mizthf.hol import (
    All, App, Const, Eq, Imp, IND, Lam, Meta, PROP, Var, alpha_eq, fn,
    foralls, show_term, type_of,
)
from mizthf.mizar import SourceError, well_formed
from mizthf.parser import parse_statement
from mizthf.patterns import (
    DisagreementPair, NoMatch, NotAPattern, OccursEscape,
    ShapeMismatch, Substitution, pattern_match,
    recover_scheme_instantiation, subst_metas,
)
from mizthf.printer import print_statement
from mizthf.thf import assemble_problem, emit_thf
from mizthf.thfcheck import check_thf
from mizthf.translate import translate_statement

PACKAGE = Path(__file__).parent.parent / "src" / "mizthf"
SOURCES = sorted(PACKAGE.glob("*.py"))

i, o = IND, PROP


# --------------------------------------------------------------- static

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _nested(fn_node: ast.AST) -> dict[str, ast.AST]:
    """The functions ``fn_node`` defines in its own body, by name (a
    lambda counts when assigned to a plain name)."""
    out: dict[str, ast.AST] = {}
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
            continue
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
            continue
        if isinstance(node, (ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _deleted_in_finally(fn_node: ast.AST) -> set[str]:
    return {target.id
            for node in ast.walk(fn_node) if isinstance(node, ast.Try)
            for stmt in node.finalbody if isinstance(stmt, ast.Delete)
            for target in stmt.targets if isinstance(target, ast.Name)}


def self_holding_closures(tree: ast.AST) -> list[str]:
    """``line: outer.inner names ...`` for each nested function that
    names itself or a sibling its enclosing function does not delete in
    a ``finally``."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCTIONS):
            continue
        nested = _nested(outer)
        held = nested.keys() - _deleted_in_finally(outer)
        for name, inner in nested.items():
            named = {n.id for n in ast.walk(inner)
                     if isinstance(n, ast.Name)} & held
            if named:
                where = getattr(outer, "name", "<lambda>")
                found.append(f"{inner.lineno}: {where}.{name} names "
                             f"{', '.join(sorted(named))}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_walk_holds_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = self_holding_closures(tree)
    assert not found, (
        f"{path.name}: a nested function that reaches itself through its "
        "closure is a reference cycle; pass its state in, hold it in a "
        "class, or delete the name in a finally: " + "; ".join(found))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_leaves_gc_alone(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert "gc" not in [m.split(".")[0] for m in modules], (
            f"{path.name}:{node.lineno} imports gc; collector settings are "
            "the process's, not the library's")


def test_static_guard_catches_what_it_should():
    caught = self_holding_closures(ast.parse(
        "def f(t):\n"
        "    def go(t):\n"
        "        return go(t)\n"
        "    return go(t)\n"
        "def g(t):\n"
        "    def a(t):\n"
        "        return b(t)\n"
        "    def b(t):\n"
        "        return t\n"
        "    return a(t)\n"))
    assert caught == ["2: f.go names go", "6: g.a names b"]
    assert not self_holding_closures(ast.parse(
        "def f(t):\n"
        "    def go(t):\n"
        "        return go(t)\n"
        "    try:\n"
        "        return go(t)\n"
        "    finally:\n"
        "        del go\n"
        "def g(t):\n"
        "    def wrap(s):\n"
        "        return s\n"
        "    return wrap(t)\n"))


# -------------------------------------------------------------- dynamic


def _owner(obj: object) -> str | None:
    if isinstance(obj, types.FunctionType):
        return f"{obj.__module__}.{obj.__qualname__}"
    if isinstance(obj, types.FrameType):
        return f"frame of {obj.f_code.co_qualname}"
    return None


def assert_frees_everything(run) -> None:
    """``run()`` (once to warm caches, once measured) leaves nothing
    that only the cyclic collector could free."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        owners = sorted({_owner(obj) for obj in gc.garbage} - {None})
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    gc.collect()
    assert found == 0, (f"{found} objects left in reference cycles, held by "
                        f"{owners or kinds}")


@pytest.fixture(scope="module")
def statements(corpus_sig, corpus_files):
    """Corpus texts with their signature, then 200 generated ones."""
    rng = random.Random(18)
    sig = rich_signature()
    out = [(p.read_text(encoding="utf-8"), corpus_sig) for p in corpus_files]
    out += [(print_statement(random_statement(rng)), sig) for _ in range(200)]
    return out


def test_pipeline_frees_everything(statements):
    def run():
        for text, sig in statements:
            stmt = parse_statement(text, sig)
            assert well_formed(stmt, sig) == []
            term = translate_statement(stmt, sig)
            text = emit_thf(assemble_problem(term, [("a1", term)], sig))
            assert check_thf(text) == []

    assert_frees_everything(run)


@pytest.fixture(scope="module")
def planted():
    rng = random.Random(18)
    return [planted_problem(rng) for _ in range(200)]


def test_matcher_frees_everything(planted):
    def run():
        for pattern, ground, solution in planted:
            sigma = pattern_match([DisagreementPair((), pattern, ground)])
            assert alpha_eq(sigma.apply(pattern), ground)

    assert_frees_everything(run)


def test_recover_frees_everything(planted):
    rng = random.Random(18)
    schemes = []
    for pattern, ground, solution in planted:
        metas = sorted(solution, key=lambda m: m.name)
        closed = subst_metas(pattern, {m: Var(m.name, m.type) for m in metas})
        scheme = foralls([(m.name, m.type) for m in metas],
                         Imp(random_closed_prop(rng, fuel=2), closed))
        schemes.append((scheme, ground, len(metas)))

    def run():
        for scheme, ground, k in schemes:
            found = recover_scheme_instantiation(scheme, ground, k)
            assert len(found.side_conditions) == 1

    assert_frees_everything(run)


c1, c2 = Const("c1", i), Const("c2", i)
p1 = Const("p1", fn(i, o))
P = Meta("P", fn(i, o))
x, y = Var("x", i), Var("y", i)


FAILING_CALLS = {
    NotAPattern: lambda: pattern_match(
        [DisagreementPair((), App(P, c1), App(p1, c1))]),
    OccursEscape: lambda: pattern_match([DisagreementPair(
        (), All("x", i, All("y", i, App(P, x))),
        All("x", i, All("y", i, Eq(x, y, i))))]),
    NoMatch: lambda: pattern_match(
        [DisagreementPair((), Eq(c1, c1, i), Eq(c2, c1, i))]),
    ShapeMismatch: lambda: recover_scheme_instantiation(
        All("x", i, App(p1, x)), Eq(c1, c2, i), 1),
    hol.IllTyped: lambda: type_of(App(p1, Lam("x", i, x)), {"p1": p1.type}),
    hol.UnboundName: lambda: type_of(App(p1, c1), {"p1": p1.type}),
    SourceError: lambda: parse_statement("statement : c1 = ",
                                         rich_signature()),
}


@pytest.mark.parametrize("kind", FAILING_CALLS, ids=lambda k: k.__name__)
def test_errors_free_everything(kind):
    call = FAILING_CALLS[kind]

    def run():
        try:
            call()
        except kind as e:
            assert str(e)
        else:
            raise AssertionError(f"expected {kind.__name__}")

    assert_frees_everything(run)


def test_helpers_free_everything():
    value = Lam("x", i, Eq(x, c1, i))
    term = All("y", i, App(P, y))

    def run():
        assert check_thf("thf(a, conjecture, c = ).\n")
        assert show_term(term) and alpha_eq(term, term)
        sigma = Substitution({P: value})
        assert show_term(sigma.apply(term))
        try:
            Substitution({P: c1})
        except hol.HolTypeError:
            pass
        else:
            raise AssertionError("Substitution took an ill-typed value")

    assert_frees_everything(run)
