"""Compilation of statements into higher-order terms.

Expected terms are written out longhand so the tests pin the rows of
the translation rather than echo the implementation.
"""

from __future__ import annotations

import random

import pytest

from mizthf import Signature, alpha_eq, parse_statement, translate_statement
from mizthf import hol
from mizthf.declarations import EPS, EPS_TYPE, member
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, Iff, Imp, IND, Lam, Not, PROP, TOP, Var,
    ambient_context, apps, fn, type_of,
)
from mizthf.translate import TranslationError, translate_statement as _ts

from generators import random_statement, rich_signature

SIG = rich_signature()

i, o = IND, PROP
c1 = Const("c1", i)
c2 = Const("c2", i)
f1 = Const("f1", fn(i, i))
p1 = Const("p1", fn(i, o))
subset = Const("m1_subset_1", fn(i, i, o))
empty = Const("v1_empty", fn(i, o))
eps = Const(EPS, EPS_TYPE)


def tr(src: str) -> hol.Term:
    return translate_statement(parse_statement(src, SIG), SIG)


def test_translation_is_closed_and_boolean():
    t = tr("statement : for x being set holds x in c1 or p1(x)")
    assert hol.free_vars(t) == frozenset()
    assert type_of(t, ambient_context(t)) == o


def test_equality_and_membership():
    assert tr("statement : c1 = c2") == Eq(c1, c2, i)
    assert tr("statement : c1 in c2") == member(c1, c2)


def test_set_type_guard_vanishes():
    t = tr("statement : for x being set holds x = x")
    x = Var("x", i)
    assert t == All("x", i, Eq(x, x, i))
    t = tr("statement : ex x being set st x = x")
    assert t == Ex("x", i, Eq(x, x, i))


def test_mode_guard_is_an_implication_or_conjunction():
    x = Var("x", i)
    t = tr("statement : for x being Element of c1 holds x = x")
    assert t == All("x", i, Imp(apps(subset, x, c1), Eq(x, x, i)))
    t = tr("statement : ex x being Element of c1 st x = x")
    assert t == Ex("x", i, And(apps(subset, x, c1), Eq(x, x, i)))


def test_attribute_guards_keep_their_shape():
    x = Var("x", i)
    # positive attribute over set: the top right conjunct stays
    t = tr("statement : for x being v1_empty set holds x = x")
    assert t == All("x", i, Imp(And(App(empty, x), TOP), Eq(x, x, i)))
    t = tr("statement : for x being non v1_empty set holds x = x")
    assert t == All("x", i,
                    Imp(And(Not(App(empty, x)), TOP), Eq(x, x, i)))
    # attribute stacked on a mode
    t = tr("statement : for x being v1_empty Element of c1 holds x = x")
    assert t == All("x", i, Imp(
        And(App(empty, x), apps(subset, x, c1)), Eq(x, x, i)))


def test_choice_translates_to_eps():
    t = tr("statement : the Element of c1 = c2")
    cls = Lam("x", i, apps(subset, Var("x", i), c1))
    assert t == Eq(App(eps, cls), c2, i)
    t = tr("statement : the set = c2")
    assert t == Eq(App(eps, Lam("x", i, TOP)), c2, i)


def test_choice_body_avoids_capture():
    # the bound x of the quantifier must not collide with the class
    # subject variable
    t = tr("statement : for x being set holds the Element of x = x")
    assert isinstance(t, All)
    eq = t.body
    cls = eq.lhs.arg
    assert isinstance(cls, Lam)
    assert cls.var != "x"
    assert cls.body == apps(subset, Var(cls.var, i), Var("x", i))


def test_fraenkel_translates_to_replsep():
    t = tr("statement : c2 in { f1(u) where u is Element of c1 : p1(u) }")
    rs = Const("replSep_1", fn(fn(i, o), fn(i, i), fn(i, o), i))
    u = Var("u", i)
    expected = member(c2, apps(
        rs,
        Lam("x", i, apps(subset, Var("x", i), c1)),
        Lam("u", i, App(f1, u)),
        Lam("u", i, App(p1, u))))
    assert alpha_eq(t, expected)


def test_fraenkel_classes_abstract_over_earlier_binders():
    t = tr("statement : c2 in { f2(u, v) where u is set, "
           "v is Element of u : u = v }")
    rs_ty = fn(fn(i, o), fn(i, i, o), fn(i, i, i), fn(i, i, o), i)
    rs = Const("replSep_2", rs_ty)
    f2 = Const("f2", fn(i, i, i))
    u, v = Var("u", i), Var("v", i)
    expected = member(c2, apps(
        rs,
        Lam("x", i, TOP),
        Lam("u", i, Lam("x", i, apps(subset, Var("x", i), u))),
        Lam("u", i, Lam("v", i, apps(f2, u, v))),
        Lam("u", i, Lam("v", i, Eq(u, v, i)))))
    assert alpha_eq(t, expected)


def test_fraenkel_guard_sees_binders():
    t = tr("statement : c1 in { u where u is set : u in c2 }")
    rs = Const("replSep_1", fn(fn(i, o), fn(i, i), fn(i, o), i))
    u = Var("u", i)
    expected = member(c1, apps(
        rs, Lam("x", i, TOP), Lam("u", i, u),
        Lam("u", i, member(u, c2))))
    assert alpha_eq(t, expected)


def test_obj_decl_prefix_guards():
    t = tr("scheme S { A() -> set } : A = A")
    a = Var("A", i)
    assert t == All("A", i, Eq(a, a, i))
    t = tr("scheme S { A() -> Element of c1 } : A = A")
    assert t == All("A", i, Imp(apps(subset, a, c1), Eq(a, a, i)))


def test_pred_decl_prefix_is_bare():
    t = tr("scheme S { P[set] } : P[c1]")
    P = Var("P", fn(i, o))
    assert t == All("P", fn(i, o), App(P, c1))
    t = tr("scheme S { Q[] } : Q[]")
    assert t == All("Q", o, Var("Q", o))


def test_fun_decl_prefix_typing_guard():
    t = tr("scheme S { F(set) -> Element of c1 } : F(c2) = c2")
    F = Var("F", fn(i, i))
    x1 = Var("x1", i)
    typing = All("x1", i, apps(subset, App(F, x1), c1))
    assert t == All("F", fn(i, i), Imp(typing, Eq(App(F, c2), c2, i)))

    t = tr("scheme S { F(Element of c1, set) -> set } : F(c1, c2) = c2")
    F2 = Var("F", fn(i, i, i))
    x2 = Var("x2", i)
    typing = All("x1", i, Imp(
        apps(subset, x1, c1), All("x2", i, TOP)))
    assert t == All("F", fn(i, i, i), Imp(
        typing, Eq(apps(F2, c1, c2), c2, i)))


def test_separation_scheme_anchor():
    t = tr("scheme Separation { A() -> set, P[set] } : "
           "ex X being set st for x being set holds "
           "(x in X iff (x in A & P[x]))")
    A, X, x = Var("A", i), Var("X", i), Var("x", i)
    P = Var("P", fn(i, o))
    expected = All("A", i, All("P", fn(i, o), Ex("X", i, All("x", i, Iff(
        member(x, X), And(member(x, A), App(P, x)))))))
    assert alpha_eq(t, expected)


def test_replacement_scheme_anchor():
    t = tr("scheme Replacement { A() -> set, R[set, set] } : "
           "(for x, y, z being set holds (R[x, y] & R[x, z] "
           "implies y = z)) implies ex X being set st "
           "for x being set holds (x in X iff "
           "ex y being set st (y in A & R[y, x]))")
    A, X = Var("A", i), Var("X", i)
    R = Var("R", fn(i, i, o))
    x, y, z = Var("x", i), Var("y", i), Var("z", i)
    functional = All("x", i, All("y", i, All("z", i, Imp(
        And(apps(R, x, y), apps(R, x, z)), Eq(y, z, i)))))
    image = Ex("X", i, All("x", i, Iff(
        member(x, X), Ex("y", i, And(member(y, A), apps(R, y, x))))))
    expected = All("A", i, All("R", fn(i, i, o), Imp(functional, image)))
    assert alpha_eq(t, expected)


def test_fraenkel_arity_limit():
    binders = ", ".join(f"u{k} is set" for k in range(1, 8))
    body = "f2(u1, u2)"
    src = f"statement : c1 in {{ {body} where {binders} : u1 = u2 }}"
    with pytest.raises(TranslationError):
        tr(src)
    # a raised limit admits the same statement
    stmt = parse_statement(src, SIG)
    t = _ts(stmt, SIG, max_arity=7)
    assert "replSep_7" in {c.name for c in hol.constants(t)}


def test_unknown_constant_is_a_translation_error():
    from mizthf.mizar import MEq, MStatement, ObjConst
    stmt = MStatement((), MEq(ObjConst("ghost"), ObjConst("c1")))
    with pytest.raises(TranslationError):
        translate_statement(stmt, SIG)


def test_generated_statements_translate_closed_and_boolean():
    rng = random.Random(424242)
    for _ in range(2000):
        stmt = random_statement(rng)
        t = translate_statement(stmt, SIG)
        assert hol.free_vars(t) == frozenset()
        assert type_of(t, ambient_context(t)) == o
        assert hol.metas(t) == set()


def _refuse(*args, **kwargs):
    raise AssertionError("translation built a redex or substituted")


def test_translation_builds_no_redex(monkeypatch, corpus_sig, corpus_files):
    corpus = [parse_statement(p.read_text(), corpus_sig)
              for p in corpus_files]
    rng = random.Random(7)
    generated = [random_statement(rng) for _ in range(2000)]
    for name in ("beta_normalize", "subst_var", "free_names"):
        monkeypatch.setattr(hol, name, _refuse)
    for stmt in corpus:
        translate_statement(stmt, corpus_sig)
    for stmt in generated:
        translate_statement(stmt, SIG)


def test_fresh_names_avoid_signature_and_prefix_names(corpus_sig):
    sig = Signature()
    sig.declare("x", "obj")
    t = translate_statement(parse_statement("statement : the set = x", sig),
                            sig)
    assert t == Eq(App(eps, Lam("x1", i, TOP)), Const("x", i), i)

    F = Var("F", fn(i, i))
    x1 = Var("x1", i)
    t = tr("scheme S { x1() -> set, F(set) -> set } : F(x1) = x1")
    assert t == All("x1", i, All("F", fn(i, i), Imp(
        All("x11", i, TOP), Eq(App(F, x1), x1, i))))

    # each typing binder avoids the ones chosen before it: x1 is taken,
    # so the first is x11, and the eleventh then moves on to x111
    args = ", ".join(["set"] * 11)
    t = translate_statement(parse_statement(
        f"scheme S {{ x1() -> set, F({args}) -> Element of x1 }} : c1 = c1",
        corpus_sig), corpus_sig)
    typing, names = t.body.body.lhs, []
    while isinstance(typing, All):
        names.append(typing.var)
        typing = typing.body
    assert names == ["x11", *(f"x{k}" for k in range(2, 11)), "x111"]
    F11 = Var("F", fn(*[i] * 11, i))
    assert typing == apps(subset, apps(F11, *(Var(n, i) for n in names)), x1)
