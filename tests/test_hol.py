"""Core term language: typing, substitution, normalization, alpha."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mizthf import hol
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, FnType, Iff, IllTyped, Imp, IND, Lam,
    Meta, Not, Or, PROP, TOP, Top, UnboundName, Var, ambient_context,
    alpha_eq, apps, arg_types, beta_normalize, fn, free_vars, fresh_name,
    lams, result_type, spine, subst_var, type_of,
)
from mizthf.mizar import Signature
from mizthf.patterns import strip_outer_quantifiers, subst_metas
from mizthf.thf import assemble_problem
from mizthf.translate import translate_statement

from generators import (
    CAPTURE_NAMES, CAPTURE_TYPES, random_capture_term, random_closed_prop,
    random_statement, random_term, random_type, rich_signature,
)

x, y, z = Var("x", IND), Var("y", IND), Var("z", IND)
p = Var("p", fn(IND, PROP))
c = Const("c", IND)
f = Const("f", fn(IND, IND))


def test_fn_builder_right_associates():
    t = fn(IND, IND, PROP)
    assert t == FnType(IND, FnType(IND, PROP))
    assert arg_types(t) == (IND, IND)
    assert result_type(t) == PROP
    assert fn(PROP) == PROP


def test_type_rendering():
    assert str(fn(IND, PROP)) == "ι→o"
    assert str(fn(fn(IND, PROP), IND)) == "(ι→o)→ι"


def test_spine_flattens_applications():
    t = apps(f, x)
    assert spine(t) == (f, [x])
    assert spine(apps(Const("g", fn(IND, IND, IND)), x, y))[1] == [x, y]
    assert spine(c) == (c, [])


def test_typing_basics():
    ctx = {"x": IND, "f": fn(IND, IND), "p": fn(IND, PROP)}
    assert type_of(App(f, x), ctx) == IND
    assert type_of(App(p, App(f, x)), ctx) == PROP
    assert type_of(Lam("v", IND, App(p, Var("v", IND))), ctx) == fn(IND, PROP)
    assert type_of(TOP, {}) == PROP
    assert type_of(All("v", IND, TOP), {}) == PROP


def test_typing_rejects_bad_terms():
    ctx = {"x": IND, "f": fn(IND, IND)}
    with pytest.raises(IllTyped):
        type_of(App(x, x), ctx)
    with pytest.raises(IllTyped):
        type_of(App(f, TOP), ctx)
    with pytest.raises(UnboundName):
        type_of(Var("ghost", IND), {})
    with pytest.raises(UnboundName):
        type_of(Const("ghost", IND), {})
    with pytest.raises(IllTyped):
        # annotation disagrees with the context
        type_of(Var("x", PROP), ctx)
    with pytest.raises(IllTyped):
        type_of(Eq(x, TOP, IND), ctx)
    with pytest.raises(IllTyped):
        type_of(And(TOP, x), ctx)


@pytest.mark.parametrize("term, location", [
    (All("x", IND, Imp(App(p, x), And(TOP, App(p, App(f, Var("x", PROP)))))),
     "root.body.rhs.rhs.arg.arg:x"),
    (Lam("x", IND, Eq(App(f, x), App(App(f, x), c), IND)), "root.body.rhs"),
    (Ex("y", IND, Not(Or(TOP, Eq(y, TOP, IND)))), "root.body.arg.rhs.rhs"),
    (All("x", IND, Iff(TOP, Lam("y", IND, TOP))), "root.body.rhs"),
    (And(TOP, Not(App(p, Const("c", PROP)))), "root.rhs.arg.arg:c"),
    (Eq(Lam("x", IND, App(p, x)), Lam("x", IND, Not(App(f, x))),
        fn(IND, PROP)), "root.rhs.body.arg"),
    (App(Lam("x", IND, App(p, x)), TOP), "root.arg"),
    (Imp(Ex("x", IND, App(p, x)), All("x", IND, App(f, x))), "root.rhs.body"),
])
def test_ill_typed_locations(term, location):
    with pytest.raises(IllTyped) as exc:
        type_of(term, {"p": fn(IND, PROP), "f": fn(IND, IND), "c": IND})
    assert exc.value.location == location
    assert str(exc.value).startswith(f"at {location}: expected ")


def test_ambient_context_collects_annotations():
    t = And(App(p, x), Eq(c, c, IND))
    ctx = ambient_context(t)
    assert ctx == {"p": fn(IND, PROP), "x": IND, "c": IND}
    with pytest.raises(IllTyped):
        ambient_context(And(App(p, x), Eq(Var("x", PROP), TOP, PROP)))


def test_constants_lists_the_constant_subterms_in_preorder():
    """``constants`` reads the one collecting walk, which recurses per
    binder; it lists what a plain preorder walk meets, repeats included."""
    rng = random.Random(23)
    sig = rich_signature()
    env = {"x": IND, "y": IND, "z": fn(IND, PROP)}
    terms = [translate_statement(random_statement(rng), sig)
             for _ in range(1000)]
    terms += [random_capture_term(rng, PROP, env, 5, (M,))
              for _ in range(1000)]
    terms += [random_closed_prop(rng) for _ in range(500)]
    for t in terms:
        assert hol.constants(t) == [
            s for s in hol.subterms(t) if type(s) is Const]


def test_a_conflict_is_reported_where_the_walk_first_meets_it():
    """``b`` and then ``a`` both conflict: ``b`` is reported, its two
    annotations in the order the walk met them."""
    b, a = Const("b", IND), Const("a", IND)
    t = And(Eq(b, a, IND), Eq(Const("b", PROP), Const("a", PROP), PROP))
    with pytest.raises(IllTyped) as claimed:
        hol.claim_constants({}, hol.constants(t))
    with pytest.raises(IllTyped) as assembled:
        assemble_problem(TOP, [("ax", t)], Signature())
    for e in (claimed.value, assembled.value):
        assert (e.location, e.expected, e.found) == ("b", IND, PROP)
    with pytest.raises(IllTyped, match="^at x: expected ι, found o$"):
        ambient_context(And(App(p, x), Eq(Var("x", PROP), TOP, PROP)))


def test_ambient_context_walks_each_term_once(monkeypatch):
    walk, walked = hol._free_and_constants, []

    def counted(t, bound, free, found):
        if not bound:  # a binder's body is walked with its variable bound
            walked.append(t)
        return walk(t, bound, free, found)

    monkeypatch.setattr(hol, "_free_and_constants", counted)
    monkeypatch.setattr(hol, "free_vars", None)
    terms = [All("x", IND, App(p, x)), And(App(p, y), Eq(c, c, IND)),
             Lam("z", IND, App(f, App(f, z)))]
    assert ambient_context(*terms) == {"p": fn(IND, PROP), "y": IND,
                                       "c": IND, "f": fn(IND, IND)}
    assert walked == terms


def test_free_vars_and_binding():
    t = All("x", IND, App(p, x))
    assert free_vars(t) == frozenset({("p", fn(IND, PROP))})
    assert free_vars(App(p, x)) == frozenset(
        {("p", fn(IND, PROP)), ("x", IND)})
    assert free_vars(c) == frozenset()


def test_fresh_name_skips_taken():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1"}) == "x2"


def test_subst_var_replaces_free_occurrences():
    t = App(p, x)
    assert subst_var(t, "x", c) == App(p, c)
    assert subst_var(All("x", IND, App(p, x)), "x", c) == \
        All("x", IND, App(p, x))


def test_subst_var_avoids_capture():
    # [y := x] in (lam x. y) must rename the binder
    t = Lam("x", IND, y)
    out = subst_var(t, "y", x)
    assert isinstance(out, Lam)
    assert out.var != "x"
    assert out.body == x
    assert alpha_eq(out, Lam("w", IND, x))


def test_beta_normalize_simple_redex():
    redex = App(Lam("v", IND, App(f, Var("v", IND))), c)
    assert beta_normalize(redex) == App(f, c)


def test_beta_normalize_under_binders():
    t = All("x", IND, App(Lam("v", IND, App(p, Var("v", IND))), x))
    assert beta_normalize(t) == All("x", IND, App(p, x))


def test_beta_normalize_does_not_eta_contract():
    t = Lam("v", IND, App(f, Var("v", IND)))
    assert beta_normalize(t) == t


def test_beta_normalize_nested_redexes():
    # (lam g. g c) (lam v. f v)  -->  f c
    g = Var("g", fn(IND, IND))
    t = App(Lam("g", fn(IND, IND), App(g, c)),
            Lam("v", IND, App(f, Var("v", IND))))
    assert beta_normalize(t) == App(f, c)


def test_alpha_eq_renames_binders():
    assert alpha_eq(Lam("a", IND, Var("a", IND)),
                    Lam("b", IND, Var("b", IND)))
    assert alpha_eq(All("a", IND, Ex("b", IND, Eq(Var("a", IND),
                                                  Var("b", IND), IND))),
                    All("b", IND, Ex("a", IND, Eq(Var("b", IND),
                                                  Var("a", IND), IND))))


def test_alpha_eq_distinguishes_structure():
    assert not alpha_eq(Lam("a", IND, Var("a", IND)),
                        Lam("a", PROP, Var("a", PROP)))
    assert not alpha_eq(x, y)
    assert not alpha_eq(And(TOP, TOP), Or(TOP, TOP))
    assert not alpha_eq(Lam("a", IND, x), Lam("a", IND, y))
    # bound against free occurrence of the same spelling
    assert not alpha_eq(Lam("x", IND, x), Lam("y", IND, x))


def test_alpha_eq_free_vars_by_name_and_type():
    assert alpha_eq(App(p, x), App(p, x))
    assert not alpha_eq(App(p, x), App(p, y))


def test_show_term_sugar():
    member = Const("r2_hidden", fn(IND, IND, PROP))
    assert hol.show_term(apps(member, x, y)) == "x ∈ y"
    assert hol.show_term(Meta("M", IND)) == "?M"
    assert hol.show_term(Imp(TOP, Not(TOP))) == "⊤ → ¬⊤"



# Pins for show_term: propositional atoms, a binary function, membership.
pa, pb, pd = Var("a", PROP), Var("b", PROP), Var("d", PROP)
g2 = Const("g", fn(IND, IND, IND))
px = App(p, x)
x_in_y = apps(Const("r2_hidden", fn(IND, IND, PROP)), x, y)


@pytest.mark.parametrize("t,shown", [
    # one term per constructor
    (x, "x"), (c, "c"), (Meta("M", IND), "?M"), (TOP, "⊤"), (px, "p x"),
    (Lam("x", IND, px), "λx:ι. p x"), (All("x", IND, px), "∀x:ι. p x"),
    (Ex("x", IND, px), "∃x:ι. p x"), (Eq(x, y, IND), "x = y"),
    (Not(pa), "¬a"), (And(pa, pb), "a ∧ b"), (Or(pa, pb), "a ∨ b"),
    (Imp(pa, pb), "a → b"), (Iff(pa, pb), "a ↔ b"),
    # membership sugar
    (x_in_y, "x ∈ y"), (Not(x_in_y), "¬x ∈ y"), (App(p, x_in_y), "p (x ∈ y)"),
    (apps(Const("r2_hidden", fn(IND, IND, PROP)), App(f, x), y), "f x ∈ y"),
    # adjacent levels, each in both operand positions
    (Iff(Iff(pa, pb), pd), "(a ↔ b) ↔ d"), (Iff(pa, Iff(pb, pd)), "a ↔ b ↔ d"),
    (Iff(Imp(pa, pb), pd), "a → b ↔ d"), (Iff(pa, Imp(pb, pd)), "a ↔ b → d"),
    (Imp(Iff(pa, pb), pd), "(a ↔ b) → d"),
    (Imp(pa, Iff(pb, pd)), "a → (b ↔ d)"),
    (Imp(Or(pa, pb), pd), "a ∨ b → d"), (Imp(pa, Or(pb, pd)), "a → b ∨ d"),
    (Or(Imp(pa, pb), pd), "(a → b) ∨ d"), (Or(pa, Imp(pb, pd)), "a ∨ (b → d)"),
    (Or(And(pa, pb), pd), "a ∧ b ∨ d"), (Or(pa, And(pb, pd)), "a ∨ b ∧ d"),
    (And(Or(pa, pb), pd), "(a ∨ b) ∧ d"), (And(pa, Or(pb, pd)), "a ∧ (b ∨ d)"),
    (And(Not(pa), pb), "¬a ∧ b"), (And(pa, Not(pb)), "a ∧ ¬b"),
    (Not(Not(pa)), "¬¬a"), (Not(Eq(x, y, IND)), "¬x = y"),
    (Eq(App(f, x), App(f, y), IND), "f x = f y"),
    (App(p, Eq(x, y, IND)), "p (x = y)"),
    (apps(g2, x, y), "g x y"), (App(f, App(f, x)), "f (f x)"),
    (apps(g2, x, App(f, y)), "g x (f y)"),
    (App(Lam("x", IND, px), y), "(λx:ι. p x) y"),
    # not over a connective
    (Not(And(pa, pb)), "¬(a ∧ b)"), (Not(Iff(pa, pb)), "¬(a ↔ b)"),
    # binders under a connective, under not, beside =, and inside a body
    (And(All("x", IND, px), pa), "(∀x:ι. p x) ∧ a"),
    (And(pa, All("x", IND, px)), "a ∧ (∀x:ι. p x)"),
    (Or(Ex("x", IND, px), Lam("x", IND, pa)), "(∃x:ι. p x) ∨ (λx:ι. a)"),
    (Not(All("x", IND, px)), "¬(∀x:ι. p x)"),
    (Eq(Lam("x", IND, x), Lam("y", IND, y), fn(IND, IND)),
     "(λx:ι. x) = (λy:ι. y)"),
    (All("x", IND, Imp(px, Ex("y", IND, And(App(p, y), pa)))),
     "∀x:ι. p x → (∃y:ι. p y ∧ a)"),
])
def test_show_term_pins(t, shown):
    assert hol.show_term(t) == shown


def test_show_term_rejects_a_term_it_cannot_print():
    for t in (_Foreign(), type("SubAnd", (And,), {})(pa, pb),
              type("SubLam", (Lam,), {})("x", IND, px)):
        with pytest.raises(TypeError, match="unexpected term"):
            hol.show_term(And(pa, t))


# ------------------------------------------------------------ properties


@st.composite
def closed_props(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_closed_prop(random.Random(seed), fuel=5)


@given(closed_props())
@settings(max_examples=150, deadline=None)
def test_subject_reduction(t):
    ctx = ambient_context(t)
    assert type_of(t, ctx) == PROP
    nf = beta_normalize(t)
    assert type_of(nf, ctx) == PROP


@given(closed_props())
@settings(max_examples=150, deadline=None)
def test_normalize_idempotent_and_alpha_stable(t):
    nf = beta_normalize(t)
    assert beta_normalize(nf) == nf
    assert alpha_eq(t if _is_normal(t) else nf, nf)


def _is_normal(t):
    for s in hol.subterms(t):
        if isinstance(s, App) and isinstance(s.fn, Lam):
            return False
    return True


@given(closed_props(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_alpha_eq_survives_consistent_renaming(t, seed):
    renamed = _rename_binders(t, random.Random(seed))
    assert alpha_eq(t, renamed)
    assert alpha_eq(renamed, t)


def _rename_binders(t, rng):
    if isinstance(t, hol.BINDERS):
        fresh = fresh_name(f"r{rng.randrange(10)}",
                           hol.free_names(t.body) | {t.var})
        b2 = subst_var(t.body, t.var, Var(fresh, t.var_type))
        return type(t)(fresh, t.var_type, _rename_binders(b2, rng))
    return hol.map_children(t, lambda s: _rename_binders(s, rng))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_terms_type_check_before_and_after_subst(seed):
    rng = random.Random(seed)
    pool = {}
    ty = random_type(rng, 2)
    body = random_term(rng, ty, [("h", IND)], pool, 4)
    repl = random_term(rng, IND, [], pool, 3)
    out = subst_var(body, "h", repl)
    ctx = ambient_context(out) if free_vars(out) or hol.constants(out) \
        else {}
    assert type_of(out, ctx) == ty


def test_builders():
    assert lams([("a", IND), ("b", PROP)], TOP) == \
        Lam("a", IND, Lam("b", PROP, TOP))
    assert hol.foralls([("a", IND)], TOP) == All("a", IND, TOP)
    assert hol.exists([("a", IND)], TOP) == Ex("a", IND, TOP)
    assert hol.imps([TOP, TOP], Not(TOP)) == Imp(TOP, Imp(TOP, Not(TOP)))
    assert hol.ands([TOP, Not(TOP), TOP]) == And(TOP, And(Not(TOP), TOP))
    assert apps(f, c) == App(f, c)


# ------------------------------------------------------------- traversal

ONE_OF_EACH = [
    x, c, Meta("M", IND), TOP, App(f, c), Lam("x", IND, App(f, x)),
    All("x", IND, Eq(x, c, IND)), Ex("y", IND, Not(TOP)), Eq(c, x, IND),
    Not(Eq(c, c, IND)), And(TOP, Not(TOP)), Or(Not(TOP), TOP),
    Imp(TOP, Eq(c, c, IND)), Iff(Eq(c, c, IND), TOP),
]


def _constructors() -> set[type]:
    """The leaf subclasses of ``hol.Term`` defined in ``hol``; a shape
    such as ``hol.Binary`` has subclasses there, so it is not one."""
    out, stack = set(), [hol.Term]
    while stack:
        subs = [s for s in stack.pop().__subclasses__()
                if s.__module__ == hol.__name__]
        out.update(s for s in subs if not any(
            k.__module__ == hol.__name__ for k in s.__subclasses__()))
        stack += subs
    return out


def test_children_and_map_children_cover_every_constructor():
    constructors = _constructors()
    assert {type(t) for t in ONE_OF_EACH} == constructors
    for t in ONE_OF_EACH:
        subs = {fl.name: getattr(t, fl.name) for fl in dataclasses.fields(t)
                if isinstance(getattr(t, fl.name), hol.Term)}
        assert hol.children(t) == tuple(subs.values())
        assert hol.map_children(t, Not) == dataclasses.replace(
            t, **{k: Not(v) for k, v in subs.items()})
    with pytest.raises(TypeError, match="unexpected term"):
        hol.children(_Foreign())
    with pytest.raises(TypeError, match="unexpected term"):
        hol.map_children(_Foreign(), lambda s: s)


class _Foreign(hol.Term):
    __slots__ = ()


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_a_constructor_subclass_is_foreign(t):
    """The walks dispatch on a term's exact class, so a subclass of a
    constructor is a foreign term to them."""
    sub = type(f"Sub{type(t).__name__}", (type(t),), {})
    u = sub(*[getattr(t, fl.name) for fl in dataclasses.fields(t)])
    assert isinstance(u, type(t))
    with pytest.raises(TypeError, match="unexpected term"):
        hol.children(u)
    with pytest.raises(TypeError, match="unexpected term"):
        hol.map_children(u, lambda s: s)
    with pytest.raises(TypeError, match="unexpected term"):
        hol.constants(And(TOP, u))
    ctx = ambient_context(t)
    hol.type_of(t, ctx)
    with pytest.raises(TypeError, match="unexpected term"):
        hol.type_of(u, ctx)


# Each shared shape: its constructors, fields for one of each, the
# field names with their declared types, and the repr after the name.
SHAPES = [
    (hol.Named, (Var, Const, Meta), ("x", IND),
     [("name", "str"), ("type", "Type")], "(name='x', type=IndType())"),
    (hol.Binder, (Lam, All, Ex), ("x", IND, TOP),
     [("var", "str"), ("var_type", "Type"), ("body", "Term")],
     "(var='x', var_type=IndType(), body=Top())"),
    (hol.Binary, (And, Or, Imp, Iff), (TOP, TOP),
     [("lhs", "Term"), ("rhs", "Term")], "(lhs=Top(), rhs=Top())"),
]


@pytest.mark.parametrize("shape, siblings, args, fields, text", SHAPES,
                         ids=[shape.__name__ for shape, *_ in SHAPES])
def test_siblings_of_one_shape_stay_distinct(shape, siblings, args, fields,
                                             text):
    terms = [cls(*args) for cls in siblings]
    assert len(set(terms)) == len(terms)
    for cls, t in zip(siblings, terms):
        assert t == cls(*args) and hash(t) == hash(args)
        assert repr(t) == cls.__name__ + text
        assert cls.__match_args__ == tuple(name for name, _ in fields)
        assert [(fl.name, fl.type) for fl in dataclasses.fields(t)] == fields
    bare = shape(*args)
    for walk in (hol.children, lambda t: hol.map_children(t, lambda s: s),
                 lambda t: type_of(t, {"x": IND})):
        with pytest.raises(TypeError, match="unexpected term"):
            walk(bare)


def test_each_term_shape_is_declared_once():
    """No two term dataclasses in ``hol`` declare the same field list,
    and a subclass of one declares no field: a new constructor with a
    known layout subclasses that shape instead of restating it."""
    tree = ast.parse(Path(hol.__file__).read_text(encoding="utf-8"))
    layouts: dict[tuple[str, ...], str] = {}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef)
                and issubclass(getattr(hol, node.name), hol.Term)):
            continue
        fields = tuple(s.target.id for s in node.body
                       if isinstance(s, ast.AnnAssign))
        if not any("dataclass" in ast.unparse(d)
                   for d in node.decorator_list):
            assert not fields, f"{node.name} declares {fields}"
            continue
        assert fields not in layouts, (
            f"{node.name} restates the fields of {layouts.get(fields)}")
        layouts[fields] = node.name


@pytest.mark.parametrize("walk", [
    beta_normalize,
    lambda t: subst_var(t, "x", c),
    free_vars,
    lambda t: subst_metas(t, {Meta("M", IND): c}),
])
def test_walks_reject_a_foreign_term(walk):
    with pytest.raises(TypeError, match="unexpected term"):
        walk(And(TOP, _Foreign()))


def test_map_children_returns_the_term_when_nothing_changes():
    rng = random.Random(11)
    for _ in range(100):
        t = random_closed_prop(rng)
        assert list(hol.subterms(t)) == [t] + [
            s for k in hol.children(t) for s in hol.subterms(k)]
        for s in hol.subterms(t):
            assert hol.map_children(s, lambda k: k) is s


def test_has_metas_agrees_with_metas():
    def plant(s):
        return Meta("M", s.type) if type(s) is Const else hol.map_children(
            s, plant)

    assert hol.has_metas(Meta("M", IND))
    assert hol.has_metas(And(TOP, Not(Meta("M", PROP))))
    rng = random.Random(12)
    seen = set()
    for _ in range(200):
        t = random_closed_prop(rng)
        for u in (t, plant(t)):
            assert hol.has_metas(u) == bool(hol.metas(u))
            seen.add(hol.has_metas(u))
    assert seen == {False, True}


# -------------------------------------------------------- substitution


M, N = Meta("M", IND), Meta("N", IND)


def test_substitute_drops_a_shadowed_key_and_keeps_the_other():
    t = And(All("x", IND, Eq(x, y, IND)), Eq(x, y, IND))
    assert hol.substitute(t, {"x": M, "y": N}) == (
        And(All("x", IND, Eq(x, N, IND)), Eq(M, N, IND)))
    scheme = All("x", IND, All("y", IND, t))
    metas, matrix = strip_outer_quantifiers(scheme, 2)
    assert metas == [Meta("x", IND), Meta("y", IND)]
    assert matrix == And(All("x", IND, Eq(x, metas[1], IND)),
                         Eq(metas[0], metas[1], IND))


def test_substitute_renames_under_a_variable_and_a_meta_key():
    # [y := x, ?M := c] in (λx. f y = ?M): the binder x is renamed
    t = Lam("x", IND, Eq(App(f, y), M, IND))
    out = hol.substitute(t, {"y": x, M: c})
    assert out == Lam("x1", IND, Eq(App(f, x), c, IND))
    # a metavariable key's value is taken as closed: nothing is renamed
    assert hol.substitute(t, {M: x}) == Lam("x", IND, Eq(App(f, y), x, IND))


def test_substitute_returns_a_term_under_a_binder_shadowing_every_key():
    redex = App(Lam("z", IND, App(p, Var("z", IND))), x)
    t = And(All("x", IND, redex), TOP)
    assert hol.substitute(t, {"x": M}) is t
    assert hol.substitute(t, {}) is t


def test_subst_var_returns_the_term_itself_when_nothing_changes():
    rng = random.Random(20)
    for _ in range(100):
        t = random_capture_term(rng, PROP, {"x": IND}, 4)
        assert subst_var(t, "h", c) is t
    shadowed = All("y", IND, Eq(y, x, IND))
    assert subst_var(shadowed, "y", c) is shadowed


def test_subst_var_leaves_a_shadowing_binder_unwalked(monkeypatch):
    t = All("x", IND, And(random_closed_prop(random.Random(1), 6),
                          Eq(x, c, IND)))
    walked = []
    map_children = hol.map_children
    monkeypatch.setattr(hol, "map_children", lambda s, g: (
        walked.append(s) or map_children(s, g)))
    assert subst_var(t, "x", c) is t
    assert walked == []


def test_beta_normalize_with_a_mapping_is_the_normal_form_of_its_instance():
    """One walk gives what substituting and then normalizing gives, bound
    names included, for closed values under ``str`` and ``Meta`` keys."""
    rng = random.Random(2022)
    env = {"x": IND, "y": IND, "h": IND, "z": fn(IND, PROP)}
    P = Meta("P", fn(IND, PROP))
    keys = [*env, M, P]
    for _ in range(20_000):
        t = random_capture_term(rng, PROP, env, 4, (M, P))
        mapping = {}
        for key in rng.sample(keys, rng.randint(1, 3)):
            ty = env[key] if type(key) is str else key.type
            mapping[key] = (N if ty == IND and rng.random() < 0.2 else
                            random_capture_term(rng, ty, {}, 2))
        want = beta_normalize(hol.substitute(t, mapping))
        got = hol._normal_instance(t, mapping)
        assert got == want and hol.show_term(got) == hol.show_term(want)
    # a redex takes its argument unnormalized, free ``x`` and all, so the
    # binder ``x`` is renamed
    v = Var("v", IND)
    t = App(Lam("v", IND, Lam("x", IND, v)), App(Lam("w", IND, y), x))
    assert hol._normal_instance(t, {"y": c}) == Lam("x1", IND, c)


def substitution_cases(seed, n):
    """``(kind, function, args)`` for ``n`` seeded rounds of
    ``subst_var``, ``beta_normalize``, ``subst_metas`` and
    ``strip_outer_quantifiers`` on terms whose binders shadow each other
    and the free variables of what is substituted."""
    rng = random.Random(seed)
    env = {"x": IND, "y": IND, "h": IND, "z": fn(IND, PROP)}
    P = Meta("P", fn(IND, PROP))
    cases = []
    for _ in range(n):
        name = rng.choice(["h", "h", "x", "y"])
        t = random_capture_term(rng, PROP, env, 5)
        repl = rng.choice([Var(v, ty) for v, ty in env.items()
                           if ty == env[name]] + [
            random_capture_term(rng, env[name], env, 2)])
        cases += [("subst_var", subst_var, (t, name, repl)),
                  ("beta", beta_normalize, (App(Lam(name, env[name], t),
                                                repl),))]
        opened = random_capture_term(rng, PROP, env, 5, (M, P))
        values = {m: random_capture_term(rng, m.type, rng.choice([{}, env]),
                                         2) for m in (M, P)}
        cases.append(("subst_metas", subst_metas, (opened, values)))
        binders = [(rng.choice(CAPTURE_NAMES), rng.choice(CAPTURE_TYPES))
                   for _ in range(rng.randint(0, 3))]
        body = random_capture_term(rng, PROP, {**env, **dict(binders)}, 4)
        cases.append(("strip", strip_outer_quantifiers,
                      (hol.foralls(binders, body),
                       rng.randint(0, len(binders)))))
    return cases


def _shown(got):
    if isinstance(got, tuple):
        metas, matrix = got
        return f"{[(m.name, str(m.type)) for m in metas]} {matrix}"
    return hol.show_term(got)


# SHA-256 of the ``show_term`` lines of ``substitution_cases(2020, 500)``,
# recorded with three separate substitution walks, so bound-name choices
# stay byte for byte.
SUBSTITUTION_DIGEST = (
    "b3bf7c8a5eb0c2ff61561c8b4aab5cdb0a94070db387581b62a31e23919767ac")


def test_substitution_golden():
    lines = [f"{kind} {_shown(function(*args))}"
             for kind, function, args in substitution_cases(2020, 500)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SUBSTITUTION_DIGEST
