"""The fixed constant family: choice, membership, sethood, replSep.

The expected formulas below are transcribed by hand as explicit term
constructions, then compared with alpha_eq against the generated ones,
so a generator bug cannot hide behind its own output.
"""

from __future__ import annotations

import pytest

from mizthf import Signature, base_declarations, hol
from mizthf.declarations import (
    EPS, EPS_TYPE, InvalidArity, MEMBER, MEMBER_TYPE, SETHOOD,
    SETHOOD_TYPE, choice, class_type, gen_replSep_axioms, gen_replSep_decl,
    member, replsep_name, replsep_type, sethood_of,
)
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, Imp, IND, Lam, PROP, Var, alpha_eq,
    ambient_context, apps, fn, type_of,
)

i, o = IND, PROP


def test_fixed_types():
    assert EPS_TYPE == fn(fn(i, o), i)
    assert MEMBER_TYPE == fn(i, i, o)
    assert SETHOOD_TYPE == fn(fn(i, o), o)
    assert class_type(1) == fn(i, o)
    assert class_type(3) == fn(i, i, i, o)
    assert replsep_type(1) == fn(fn(i, o), fn(i, i), fn(i, o), i)
    assert replsep_type(2) == fn(
        fn(i, o), fn(i, i, o), fn(i, i, i), fn(i, i, o), i)
    assert replsep_name(4) == "replSep_4"


def test_helper_builders():
    x, y = Var("x", i), Var("y", i)
    assert member(x, y) == apps(Const(MEMBER, MEMBER_TYPE), x, y)
    cls = Lam("v", i, member(Var("v", i), y))
    assert choice(cls) == App(Const(EPS, EPS_TYPE), cls)
    assert sethood_of(cls) == App(Const(SETHOOD, SETHOOD_TYPE), cls)


def test_membership_name_is_spelled_once():
    # show_term's "∈" sugar and the emitted declaration read one name
    assert MEMBER is hol.MEMBER
    assert hol.show_term(member(Var("x", i), Var("y", i))) == "x ∈ y"


def _decl_map(sig=None):
    return {d.name: d for d in base_declarations(sig)}


def test_choice_axiom_matches_transcription():
    decls = _decl_map()
    eps = decls[EPS]
    assert eps.type == EPS_TYPE
    (name, ax), = eps.axioms
    assert name == "epsax"
    p, x = Var("p", fn(i, o)), Var("x", i)
    expected = All("p", fn(i, o), All("x", i, Imp(
        App(p, x), App(p, App(Const(EPS, EPS_TYPE), p)))))
    assert alpha_eq(ax, expected)


def test_sethood_definition_matches_transcription():
    decls = _decl_map()
    sh = decls[SETHOOD]
    p, x, y = Var("p", fn(i, o)), Var("x", i), Var("y", i)
    expected = Lam("p", fn(i, o), Ex("y", i, All("x", i, Imp(
        App(p, x), member(x, y)))))
    assert alpha_eq(sh.definition, expected)
    assert sh.axioms == ()


def test_member_has_no_axioms():
    decls = _decl_map()
    assert decls[MEMBER].type == MEMBER_TYPE
    assert decls[MEMBER].definition is None
    assert decls[MEMBER].axioms == ()


def test_replsep_1_axioms_match_transcription():
    (iname, intro), (ename, elim) = gen_replSep_axioms(1)
    assert (iname, ename) == ("replSepI_1", "replSepE_1")

    A1 = Var("A1", fn(i, o))
    f = Var("f", fn(i, i))
    P = Var("P", fn(i, o))
    x1, y = Var("x1", i), Var("y", i)
    rs = Const("replSep_1", replsep_type(1))

    expected_intro = All("A1", fn(i, o), All("f", fn(i, i), All(
        "P", fn(i, o), All("x1", i, Imp(
            sethood_of(A1), Imp(App(A1, x1), Imp(
                App(P, x1),
                member(App(f, x1), apps(rs, A1, f, P)))))))))
    assert alpha_eq(intro, expected_intro)

    expected_elim = All("A1", fn(i, o), All("f", fn(i, i), All(
        "P", fn(i, o), All("y", i, Imp(
            member(y, apps(rs, A1, f, P)),
            Ex("x1", i, And(App(A1, x1), And(
                App(P, x1), Eq(y, App(f, x1), i)))))))))
    assert alpha_eq(elim, expected_elim)


def test_replsep_2_axioms_match_transcription():
    (_, intro), (_, elim) = gen_replSep_axioms(2)

    A1 = Var("A1", fn(i, o))
    A2 = Var("A2", fn(i, i, o))
    f = Var("f", fn(i, i, i))
    P = Var("P", fn(i, i, o))
    x1, x2, y = Var("x1", i), Var("x2", i), Var("y", i)
    rs = Const("replSep_2", replsep_type(2))

    # the second sethood hypothesis rebinds x1, shadowing the outer one
    sethood_hyp2 = All("x1", i, Imp(App(A1, x1),
                                    sethood_of(App(A2, x1))))
    expected_intro = All("A1", fn(i, o), All("A2", fn(i, i, o), All(
        "f", fn(i, i, i), All("P", fn(i, i, o), All("x1", i, All(
            "x2", i, Imp(sethood_of(A1), Imp(sethood_hyp2, Imp(
                App(A1, x1), Imp(apps(A2, x1, x2), Imp(
                    apps(P, x1, x2),
                    member(apps(f, x1, x2),
                           apps(rs, A1, A2, f, P)))))))))))))
    assert alpha_eq(intro, expected_intro)

    expected_elim = All("A1", fn(i, o), All("A2", fn(i, i, o), All(
        "f", fn(i, i, i), All("P", fn(i, i, o), All("y", i, Imp(
            member(y, apps(rs, A1, A2, f, P)),
            Ex("x1", i, Ex("x2", i, And(App(A1, x1), And(
                apps(A2, x1, x2), And(apps(P, x1, x2), Eq(
                    y, apps(f, x1, x2), i))))))))))))
    assert alpha_eq(elim, expected_elim)


@pytest.mark.parametrize("n", range(1, 7))
def test_replsep_family_is_well_typed(n):
    decl = gen_replSep_decl(n)
    assert decl.name == f"replSep_{n}"
    assert decl.type == replsep_type(n)
    for name, ax in gen_replSep_axioms(n):
        assert name in (f"replSepI_{n}", f"replSepE_{n}")
        assert type_of(ax, ambient_context(ax)) == o


def test_replsep_rejects_bad_arity():
    with pytest.raises(InvalidArity):
        gen_replSep_decl(0)
    with pytest.raises(InvalidArity):
        gen_replSep_axioms(-1)


def test_elementof_mode_axioms():
    sig = Signature()
    sig.declare("m1_subset_1", "mode", 2)
    sig.tag_elementof("m1_subset_1")
    decls = _decl_map(sig)
    mode = decls["m1_subset_1"]
    mode_c = Const("m1_subset_1", fn(i, i, o))
    by_name = dict(mode.axioms)

    A, B, x = Var("A", i), Var("B", i), Var("x", i)
    expected_nonempty = All("A", i, Ex("B", i, apps(mode_c, B, A)))
    assert alpha_eq(by_name["m1_subset_1_nonempty"], expected_nonempty)
    expected_sethood = All("A", i, sethood_of(
        Lam("x", i, apps(mode_c, x, A))))
    assert alpha_eq(by_name["m1_subset_1_sethood"], expected_sethood)


def test_untagged_signature_adds_nothing():
    sig = Signature()
    sig.declare("m", "mode", 2)
    assert set(_decl_map(sig)) == set(_decl_map())


def test_all_base_declarations_type_check():
    sig = Signature()
    sig.declare("m1_subset_1", "mode", 2)
    sig.tag_elementof("m1_subset_1")
    ctx = {d.name: d.type for d in base_declarations(sig)}
    for d in base_declarations(sig):
        if d.definition is not None:
            assert type_of(d.definition, ctx) == d.type
        for _, ax in d.axioms:
            assert type_of(ax, ctx) == o


# ------------------------------------------------- cached support material


def test_base_declarations_follow_a_later_elementof_tag():
    sig = Signature()
    sig.declare("m1_subset_1", "mode", 2)
    assert "m1_subset_1" not in _decl_map(sig)
    sig.tag_elementof("m1_subset_1")
    mode = _decl_map(sig)["m1_subset_1"]
    assert [name for name, _ in mode.axioms] == [
        "m1_subset_1_nonempty", "m1_subset_1_sethood"]


def test_base_declarations_return_a_fresh_list():
    first = base_declarations()
    names = [d.name for d in first]
    first.clear()
    first.append(gen_replSep_decl(1))
    assert [d.name for d in base_declarations()] == names


def test_replsep_material_is_built_once():
    assert gen_replSep_axioms(2) is gen_replSep_axioms(2)
    assert gen_replSep_decl(2) is gen_replSep_decl(2)
    assert gen_replSep_decl(2).axioms is gen_replSep_axioms(2)
