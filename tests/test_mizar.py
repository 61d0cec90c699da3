"""Signature bookkeeping and the well-formedness pass."""

from __future__ import annotations

import random

import pytest

from mizthf import (
    Signature, SourceError, parse_statement, print_statement, well_formed,
)
from mizthf.hol import IND, PROP, fn
from mizthf.mizar import (
    ATTR, FUNC, MAX_SIG_ARITY, MODE, OBJ, PRED, Attr, DuplicateName, ExBeing, ForBeing, Fraenkel,
    FunConstApp, FunDecl, FunVarApp, KindMismatch, MAnd, MEq, MIn, MNot,
    MStatement, Mode, NonAttr, ObjConst, ObjDecl, ObjVar, PredConstApp,
    PredDecl, PredVarApp, SET, SigEntry, The, UnknownName,
)

from generators import RICH_NAMES, random_statement, rich_signature


def test_signature_declares_and_looks_up():
    sig = Signature()
    sig.declare("c", "obj")
    sig.declare("f", "func", 2)
    sig.declare("p", "pred", 0)
    sig.declare("m", "mode", 1)
    sig.declare("a", "attr")
    assert sig.lookup("c").hol_type() == IND
    assert sig.lookup("f").hol_type() == fn(IND, IND, IND)
    assert sig.lookup("p").hol_type() == PROP
    assert sig.lookup("m").hol_type() == fn(IND, PROP)
    assert sig.lookup("a").hol_type() == fn(IND, PROP)
    assert "f" in sig
    assert sig.lookup("nope") is None


@pytest.mark.parametrize("kind", [OBJ, FUNC, PRED, MODE, ATTR])
def test_hol_type_is_one_object_per_kind_and_arity(kind):
    result = IND if kind in (OBJ, FUNC) else PROP
    for arity in [0] if kind == OBJ else range(5):
        shared = SigEntry(kind, arity).hol_type()
        assert SigEntry(kind, arity).hol_type() is shared
        assert shared == fn(*([IND] * arity), result)


def test_membership_is_not_a_signature_entry():
    sig = Signature()
    sig.declare("c", "obj")
    assert sig.lookup("in") is None
    with pytest.raises(DuplicateName):
        sig.declare("in", "pred", 2)
    c = ObjConst("c")
    assert well_formed(MStatement((), MIn(c, c)), sig) == []
    diags = well_formed(MStatement((), PredConstApp("in", (c, c))), sig)
    assert [d.code for d in diags] == ["unknown-name"]


def test_signature_rejects_bad_declarations():
    sig = Signature()
    sig.declare("c", "obj")
    with pytest.raises(DuplicateName):
        sig.declare("c", "func", 1)
    with pytest.raises(ValueError):
        sig.declare("f", "func", 0)
    with pytest.raises(ValueError):
        sig.declare("m", "mode", 0)
    with pytest.raises(ValueError):
        sig.declare("w", "widget", 1)
    # the kind is judged before any arity default or requirement
    with pytest.raises(ValueError, match="unknown signature kind 'bogus'"):
        sig.declare("x", "bogus")
    for reserved in ("eps", "r2_hidden", "sethood", "replSep_1",
                     "replSep_99"):
        with pytest.raises(ValueError):
            sig.declare(reserved, "obj")


def test_signature_arity_bound():
    sig = Signature()
    for kind in ("func", "pred", "mode"):
        sig.declare(kind, kind, MAX_SIG_ARITY)
        with pytest.raises(ValueError, match="above the limit of 255"):
            sig.declare(kind + "2", kind, MAX_SIG_ARITY + 1)
    assert sig.lookup("pred").arity == MAX_SIG_ARITY


def test_elementof_tagging():
    sig = Signature()
    sig.declare("m", "mode", 2)
    sig.declare("w", "mode", 3)
    sig.declare("c", "obj")
    with pytest.raises(UnknownName):
        sig.tag_elementof("nope")
    with pytest.raises(KindMismatch):
        sig.tag_elementof("w")
    with pytest.raises(KindMismatch):
        sig.tag_elementof("c")
    sig.tag_elementof("m")
    assert sig.elementof == "m"


def _codes(stmt, sig):
    return [d.code for d in well_formed(stmt, sig)]


def test_well_formed_accepts_good_statement():
    sig = rich_signature()
    stmt = MStatement(
        (ObjDecl("A", SET), PredDecl("P", (SET,))),
        ExBeing("x", Mode("m1_subset_1", (ObjVar("A"),)),
                MNot(PredVarApp("P", (ObjVar("x"),)))))
    assert well_formed(stmt, sig) == []


def test_well_formed_flags_unknown_names():
    sig = rich_signature()
    stmt = MStatement((), MIn(ObjConst("ghost"), ObjConst("c1")))
    assert _codes(stmt, sig) == ["unknown-name"]
    stmt = MStatement((), PredConstApp("qqq", ()))
    assert _codes(stmt, sig) == ["unknown-name"]
    stmt = MStatement((), ForBeing("x", Mode("mmm", ()), MEq(
        ObjVar("x"), ObjVar("x"))))
    assert _codes(stmt, sig) == ["unknown-name"]


def test_well_formed_flags_kind_and_arity():
    sig = rich_signature()
    # function used as object
    stmt = MStatement((), MEq(ObjConst("f1"), ObjConst("c1")))
    assert _codes(stmt, sig) == ["kind-mismatch"]
    # wrong argument count
    stmt = MStatement((), PredConstApp("p2", (ObjConst("c1"),)))
    assert _codes(stmt, sig) == ["arity-mismatch"]
    stmt = MStatement((), MIn(FunConstApp("f1", ()), ObjConst("c1")))
    assert _codes(stmt, sig) == ["arity-mismatch"]
    # mode with the subject counted: m1_subset_1/2 takes one type arg
    stmt = MStatement((), ForBeing("x", Mode("m1_subset_1", ()),
                                   PredConstApp("p0", ())))
    assert _codes(stmt, sig) == ["arity-mismatch"]
    # attribute over a non-unary base is impossible; attr as pred is fine
    stmt = MStatement((), PredConstApp("v1_empty", (ObjConst("c1"),)))
    assert well_formed(stmt, sig) == []


def test_well_formed_scopes_prefix_and_binders():
    sig = rich_signature()
    # prefix names must be distinct
    stmt = MStatement((ObjDecl("A", SET), ObjDecl("A", SET)),
                      MEq(ObjVar("A"), ObjVar("A")))
    assert "duplicate-decl" in _codes(stmt, sig)
    # quantifier may shadow a prefix variable
    stmt = MStatement((ObjDecl("A", SET),),
                      ForBeing("A", SET, MEq(ObjVar("A"), ObjVar("A"))))
    assert well_formed(stmt, sig) == []
    # out-of-scope variable
    stmt = MStatement((), MEq(ObjVar("x"), ObjVar("x")))
    assert "unknown-name" in _codes(stmt, sig)
    # predicate variable used as object
    stmt = MStatement((PredDecl("P", ()),),
                      MEq(ObjVar("P"), ObjConst("c1")))
    assert "kind-mismatch" in _codes(stmt, sig)


def test_well_formed_checks_fraenkel_binders():
    sig = rich_signature()
    good = MStatement((), MIn(
        Fraenkel((("u", SET), ("v", Mode("m1_subset_1", (ObjVar("u"),)))),
                 FunConstApp("f2", (ObjVar("u"), ObjVar("v"))),
                 MEq(ObjVar("u"), ObjVar("v"))),
        ObjConst("c1")))
    assert well_formed(good, sig) == []
    dup = MStatement((), MIn(
        Fraenkel((("u", SET), ("u", SET)), ObjVar("u"),
                 MEq(ObjVar("u"), ObjVar("u"))),
        ObjConst("c1")))
    assert "duplicate-binder" in _codes(dup, sig)
    empty = MStatement((), MIn(
        Fraenkel((), ObjConst("c1"), PredConstApp("p0", ())),
        ObjConst("c1")))
    assert "empty-binders" in _codes(empty, sig)
    # the second binder's type cannot see a later binder
    bad_scope = MStatement((), MIn(
        Fraenkel((("u", Mode("m1_subset_1", (ObjVar("v"),))), ("v", SET)),
                 ObjVar("u"), MEq(ObjVar("u"), ObjVar("u"))),
        ObjConst("c1")))
    assert "unknown-name" in _codes(bad_scope, sig)


def test_well_formed_checks_fundecl_shapes():
    sig = rich_signature()
    no_args = MStatement((FunDecl("F", (), SET),),
                         MEq(FunVarApp("F", ()), ObjConst("c1")))
    assert "empty-binders" in _codes(no_args, sig) or \
        "arity-mismatch" in _codes(no_args, sig) or \
        "bad-node" in _codes(no_args, sig)
    wrong_use = MStatement(
        (FunDecl("F", (SET,), SET),),
        MEq(FunVarApp("F", (ObjConst("c1"), ObjConst("c2"))),
            ObjConst("c1")))
    assert "arity-mismatch" in _codes(wrong_use, sig)


def test_well_formed_locates_errors():
    sig = rich_signature()
    stmt = MStatement((), MIn(ObjConst("c1"), ObjConst("ghost")))
    diags = well_formed(stmt, sig)
    assert len(diags) == 1
    assert "body" in diags[0].where
    assert diags[0].where == "body.rhs"


def test_well_formed_paths_of_nested_nodes():
    sig = rich_signature()
    stmt = MStatement(
        (FunDecl("F", (Mode("ghost_mode", ()),
                       Mode("m1_subset_1", (ObjConst("ghost"),))), SET),),
        MAnd(
            MIn(Fraenkel(
                (("u", Mode("nomode", ())),
                 ("u", Attr("v1_empty",
                            Mode("m1_subset_1", (ObjVar("w"),))))),
                FunConstApp("f1", (FunConstApp(
                    "f2", (ObjVar("u"), ObjConst("ghost"))),)),
                PredConstApp("nopred", (ObjVar("u"),))),
                ObjConst("c1")),
            MEq(ObjConst("c1"), ObjConst("ghost2"))))
    assert [(d.code, d.where) for d in well_formed(stmt, sig)] == [
        ("unknown-name", "prefix[0].args[0]"),
        ("unknown-name", "prefix[0].args[1].args[0]"),
        ("unknown-name", "body.lhs.lhs.binders[0]"),
        ("duplicate-binder", "body.lhs.lhs.binders[1]"),
        ("unknown-name", "body.lhs.lhs.binders[1].base.args[0]"),
        ("unknown-name", "body.lhs.lhs.body.args[0].args[1]"),
        ("unknown-name", "body.lhs.lhs.guard"),
        ("unknown-name", "body.rhs.rhs"),
    ]


def test_attr_and_the_types():
    sig = rich_signature()
    stmt = MStatement((), MEq(
        The(Attr("v1_empty", SET)),
        The(NonAttr("v1_empty", Mode("m1_subset_1", (ObjConst("c1"),))))))
    assert well_formed(stmt, sig) == []
    stmt = MStatement((), MEq(The(Attr("p1", SET)), ObjConst("c1")))
    assert _codes(stmt, sig) == ["kind-mismatch"]


def test_generated_statements_are_well_formed():
    sig = rich_signature()
    rng = random.Random(20260816)
    for _ in range(300):
        stmt = random_statement(rng)
        assert well_formed(stmt, sig) == []


_c1 = ObjConst("c1")
_p0 = PredConstApp("p0", ())
_A = ObjDecl("A", SET)
_P = PredDecl("P", (SET,))
_F = FunDecl("F", (SET,), SET)


def _for_x(mtype):
    return ForBeing("x", mtype, _p0)


# One AST per branch of well_formed, as (prefix, body, diagnostics), each
# diagnostic as (code, message, where).
_DIAGNOSTIC_CASES = [
    ((), _for_x(Mode("nomode", ())),
     [('unknown-name', "unknown mode 'nomode'", 'body.type')]),
    ((_A,), _for_x(Mode("A", ())),
     [('kind-mismatch', "'A' is not a mode", 'body.type')]),
    ((), _for_x(Mode("p1", ())),
     [('kind-mismatch', "'p1' is not a mode", 'body.type')]),
    ((), _for_x(Mode("m1_subset_1", ())),
     [('arity-mismatch', "mode 'm1_subset_1' takes 1 argument(s), got 0",
       'body.type')]),
    ((ObjDecl("m1_subset_1", SET),), _for_x(Mode("m1_subset_1", (_c1,))),
     []),
    ((), _for_x(Attr("noattr", SET)),
     [('unknown-name', "unknown attribute 'noattr'", 'body.type')]),
    ((_A,), _for_x(Attr("A", SET)),
     [('kind-mismatch', "'A' is not an attribute", 'body.type')]),
    ((_A,), _for_x(NonAttr("A", SET)),
     [('kind-mismatch', "'A' is not an attribute", 'body.type')]),
    ((), _for_x(Attr("p1", SET)),
     [('kind-mismatch', "'p1' is not an attribute", 'body.type')]),
    ((), MEq(ObjVar("x"), _c1),
     [('unknown-name', "object variable 'x' is not in scope",
       'body.lhs')]),
    ((_P,), MEq(ObjVar("P"), _c1),
     [('kind-mismatch', "'P' is not an object variable", 'body.lhs')]),
    ((), MEq(ObjConst("ghost"), _c1),
     [('unknown-name', "unknown constant 'ghost'", 'body.lhs')]),
    ((_A,), MEq(ObjConst("A"), _c1),
     [('unknown-name', "unknown constant 'A'", 'body.lhs')]),
    ((), MEq(ObjConst("f1"), _c1),
     [('kind-mismatch', "'f1' is not an object constant", 'body.lhs')]),
    ((), MEq(FunVarApp("G", (_c1,)), _c1),
     [('unknown-name', "function variable 'G' is not in scope",
       'body.lhs')]),
    ((_A,), MEq(FunVarApp("A", (_c1,)), _c1),
     [('kind-mismatch', "'A' is not a function variable", 'body.lhs')]),
    ((_F,), MEq(FunVarApp("F", (_c1, _c1)), _c1),
     [('arity-mismatch', "'F' takes 1 argument(s), got 2", 'body.lhs')]),
    ((_F,), MEq(FunVarApp("F", ()), _c1),
     [('arity-mismatch', "'F' takes 1 argument(s), got 0", 'body.lhs'),
      ('arity-mismatch', "function application 'F' needs arguments",
       'body.lhs')]),
    ((FunDecl("F", (), SET),), MEq(FunVarApp("F", ()), _c1),
     [('arity-mismatch',
       "function variable 'F' needs at least one argument type", 'prefix[0]'),
      ('arity-mismatch', "function application 'F' needs arguments",
       'body.lhs')]),
    ((), MEq(FunConstApp("g", (_c1,)), _c1),
     [('unknown-name', "unknown function 'g'", 'body.lhs')]),
    ((), MEq(FunConstApp("c1", (_c1,)), _c1),
     [('kind-mismatch', "'c1' is not a function constant", 'body.lhs')]),
    ((), MEq(FunConstApp("f2", (_c1,)), _c1),
     [('arity-mismatch', "'f2' takes 2 argument(s), got 1", 'body.lhs')]),
    ((), MEq(FunConstApp("f1", ()), _c1),
     [('arity-mismatch', "'f1' takes 1 argument(s), got 0", 'body.lhs')]),
    ((), PredVarApp("Q", (_c1,)),
     [('unknown-name', "predicate variable 'Q' is not in scope",
       'body')]),
    ((_A,), PredVarApp("A", ()),
     [('kind-mismatch', "'A' is not a predicate variable", 'body')]),
    ((_P,), PredVarApp("P", ()),
     [('arity-mismatch', "'P' takes 1 argument(s), got 0", 'body')]),
    ((), PredConstApp("nopred", ()),
     [('unknown-name', "unknown predicate 'nopred'", 'body')]),
    ((), PredConstApp("c1", ()),
     [('kind-mismatch', "'c1' is not a predicate", 'body')]),
    ((), PredConstApp("p2", (_c1,)),
     [('arity-mismatch', "'p2' takes 2 argument(s), got 1", 'body')]),
    ((), PredConstApp("v1_empty", (_c1,)),
     []),
    ((), PredConstApp("m1_subset_1", (_c1,)),
     [('arity-mismatch', "'m1_subset_1' takes 2 argument(s), got 1",
       'body')]),
    ((_P,), PredConstApp("P", (_c1,)),
     [('unknown-name', "unknown predicate 'P'", 'body')]),
    ((), MEq(The(_c1), _c1),
     [('bad-node', "not an MType: ObjConst(name='c1')",
       'body.lhs.type')]),
    ((), MEq(SET, _c1),
     [('bad-node', 'not an MTerm: SetType()', 'body.lhs')]),
    ((), MNot(_c1),
     [('bad-node', "not an MProp: ObjConst(name='c1')", 'body.arg')]),
    ((SET,), _p0,
     [('bad-node', 'not a declaration: SetType()', 'prefix[0]')]),
    ((), MIn(Fraenkel((), _c1, _p0), _c1),
     [('empty-binders', 'comprehension needs at least one binder',
       'body.lhs')]),
    ((), MIn(Fraenkel((("u", SET), ("u", SET)), ObjVar("u"), _p0), _c1),
     [('duplicate-binder', "binder 'u' repeated",
       'body.lhs.binders[1]')]),
    ((_A, _A), _p0,
     [('duplicate-decl', "'A' declared twice in prefix",
       'prefix[1]')]),
    ((PredDecl("A", ()), _A), _p0,
     [('duplicate-decl', "'A' declared twice in prefix",
       'prefix[1]')]),
]


@pytest.mark.parametrize("prefix, body, expected", _DIAGNOSTIC_CASES)
def test_well_formed_diagnostic_details(prefix, body, expected):
    diags = well_formed(MStatement(prefix, body), rich_signature())
    assert [(d.code, d.message, d.where) for d in diags] == expected


def _shadow_diagnostics(s):
    return [(d.code, d.message, d.where)
            for d in well_formed(s, rich_signature())]


def test_well_formed_refuses_a_constant_under_a_bound_name():
    # prints as `for c1 being set holds c1 = c2`, which reads ObjVar("c1")
    under_binder = MStatement((), ForBeing(
        "c1", SET, MEq(ObjConst("c1"), ObjConst("c2"))))
    assert _shadow_diagnostics(under_binder) == [
        ("shadowed-name", "constant 'c1' is shadowed by a bound name",
         "body.body.lhs")]
    assert parse_statement(print_statement(under_binder),
                           rich_signature()) != under_binder
    # prints as `p1(p1)` under `p1() -> set`, which the parser refuses
    under_prefix = MStatement((ObjDecl("p1", SET),),
                              PredConstApp("p1", (ObjVar("p1"),)))
    assert _shadow_diagnostics(under_prefix) == [
        ("shadowed-name", "predicate 'p1' is shadowed by a bound name",
         "body")]
    with pytest.raises(KindMismatch):
        parse_statement(print_statement(under_prefix), rich_signature())
    under_fraenkel = MStatement((), MIn(_c1, Fraenkel(
        (("f1", SET),), FunConstApp("f1", (_c1,)), _p0)))
    assert _shadow_diagnostics(under_fraenkel) == [
        ("shadowed-name", "function 'f1' is shadowed by a bound name",
         "body.rhs.body")]
    # a type's name still comes from the signature under a bound name
    assert _shadow_diagnostics(MStatement(
        (ObjDecl("v1_empty", SET),), _for_x(Attr("v1_empty", SET)))) == []


def test_signature_names_bound_over_generated_statements():
    """Mutants that bind a signature name over a generated statement: a
    well-formed one parses back from its print, an ill-formed one never
    does, as ``test_parser_and_well_formed_agree`` states for the rest."""
    sig = rich_signature()
    rng = random.Random(2026)
    outcomes = {"shadowed": 0, "parsed back": 0}
    for _ in range(1500):
        s = random_statement(rng)
        name = rng.choice(RICH_NAMES)
        mutant = (MStatement((ObjDecl(name, SET),) + s.prefix, s.body)
                  if rng.random() < 0.5
                  else MStatement(s.prefix, ForBeing(name, SET, s.body)))
        codes = [d.code for d in well_formed(mutant, sig)]
        assert set(codes) <= {"shadowed-name"}, codes
        try:
            back = parse_statement(print_statement(mutant), sig)
        except SourceError:
            back = None
        assert (back == mutant) == (codes == []), print_statement(mutant)
        outcomes["shadowed" if codes else "parsed back"] += 1
    assert min(outcomes.values()) > 300, outcomes
