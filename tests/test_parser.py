"""Concrete syntax: tokenizing, parsing, error positions, round trips."""

from __future__ import annotations

import random

import pytest

from mizthf import Signature, parse_signature, parse_statement, well_formed
from mizthf.mizar import (
    ArityMismatch, Attr, DuplicateName, ExBeing, ForBeing, Fraenkel,
    FunConstApp, FunDecl, KindMismatch, MAnd, MEq, MIff, MImp, MIn, MNot,
    MOr, MStatement, Mode, NonAttr, ObjConst, ObjDecl, ObjVar, ParseError,
    MAX_SIG_ARITY, PredConstApp, PredDecl, PredVarApp, SET, SourceError,
    The, UnknownName,
)
from mizthf import parser
from mizthf.parser import tokenize
from mizthf.printer import print_statement
from mizthf.thf import assemble_problem, emit_thf
from mizthf.thfcheck import check_thf
from mizthf.translate import translate_statement

from generators import fuzz_source, random_statement, rich_signature


def test_parse_signature_roundtrip():
    sig = parse_signature("""
        # a comment
        obj  c            # trailing comment
        func union/2
        pred disjoint/2
        mode m1_subset_1/2
        attr v1_xboole_0
        elementof m1_subset_1
    """)
    assert sig.lookup("c").kind == "obj"
    assert sig.lookup("union").arity == 2
    assert sig.lookup("disjoint").kind == "pred"
    assert sig.lookup("m1_subset_1").kind == "mode"
    assert sig.lookup("v1_xboole_0").kind == "attr"
    assert sig.elementof == "m1_subset_1"


@pytest.mark.parametrize("line,error", [
    ("obj", ParseError),
    ("obj a b", ParseError),
    ("func f", ParseError),
    ("func f/x", ParseError),
    ("widget w", ParseError),
    ("obj set", ParseError),
    ("obj 1x", ParseError),
    ("mode m/0", ParseError),
    ("elementof nope", UnknownName),
    ("obj c\nobj c", DuplicateName),
    ("pred in/2", ParseError),  # "in" is a keyword before it is a name
    ("obj ²x", ParseError),  # "²" is a word character but no word start
    ("func ١/1", ParseError),
    ("func f/256", ParseError),  # above MAX_SIG_ARITY
    ("pred p/100000000", ParseError),
    pytest.param("func f/" + "9" * 5000, ParseError,  # more than int() reads
                 id="func f/9*5000"),
])
def test_parse_signature_errors(line, error):
    with pytest.raises(error) as info:
        parse_signature(line)
    assert info.value.line is not None


def test_signature_names_follow_the_word_rule():
    names = ["é", "x²", "_1", "x١"]
    sig = parse_signature("".join(f"obj {n}\n" for n in names))
    assert all(sig.lookup(n).kind == "obj" for n in names)


def test_signature_error_positions():
    with pytest.raises(ParseError) as info:
        parse_signature("obj c\nfunc bad/x\n")
    assert (info.value.line, info.value.col) == (2, 6)


def test_signature_name_position_after_an_indented_directive():
    # the name is searched for after the directive, not at its length
    with pytest.raises(DuplicateName) as info:
        parse_signature("obj t\n  attr t\n")
    assert (info.value.line, info.value.col) == (2, 8)


@pytest.mark.parametrize("line", ["func f/\u0663", "pred p/\u00b2"])
def test_signature_arity_is_ascii_digits(line):
    # "\u0663" is ARABIC-INDIC DIGIT THREE, "\u00b2" SUPERSCRIPT TWO
    with pytest.raises(ParseError) as info:
        parse_signature(f"obj c\n{line}\n")
    directive = line.split()[0]
    assert (info.value.message, info.value.line, info.value.col) == (
        f"expected '{directive} NAME/ARITY'", 2, len(directive) + 2)


@pytest.mark.parametrize("line", [
    "func f/256", "pred p/0256", "mode m/100000000",
    pytest.param("func f/" + "9" * 5000, id="func f/9*5000"),
])
def test_signature_arity_bound_is_positioned(line):
    assert MAX_SIG_ARITY == 255
    with pytest.raises(ParseError) as info:
        parse_signature(f"obj c\n{line}\n")
    assert (info.value.message, info.value.line, info.value.col) == (
        "arity is above the limit of 255", 2, len(line.split()[0]) + 2)


def test_signature_arity_bound_is_inclusive():
    sig = parse_signature("func f/255\npred p/000255\nmode m/255\n")
    assert [sig.lookup(n).arity for n in "fpm"] == [255] * 3


@pytest.mark.parametrize("text,tokens", [
    # a trailing comment leaves eof where the comment starts
    ("c1 = c1 # trailing", [("name", "c1", 1, 1), ("sym", "=", 1, 4),
                            ("name", "c1", 1, 6), ("eof", "", 1, 9)]),
    ("a\n  # c", [("name", "a", 1, 1), ("eof", "", 2, 3)]),
    ("é_x2 = y", [("name", "é_x2", 1, 1), ("sym", "=", 1, 6),
                  ("name", "y", 1, 8), ("eof", "", 1, 9)]),
    ("x² -> of", [("name", "x²", 1, 1), ("sym", "->", 1, 4),
                  ("kw", "of", 1, 7), ("eof", "", 1, 9)]),
    ("a\t\rb ", [("name", "a", 1, 1), ("name", "b", 1, 4),
                 ("eof", "", 1, 6)]),
])
def test_tokenize_positions(text, tokens):
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(text)] == tokens


@pytest.mark.parametrize("text,char,col", [
    ("a ²", "²", 3),
    ("b ١", "١", 3),
    ("x١ -> -", "-", 7),
    ("a - b", "-", 3),
    ("a\x0bb", "\x0b", 2),  # only space, tab and \r are whitespace
    ("a\xa0b", "\xa0", 2),
])
def test_tokenize_stray_characters(text, char, col):
    with pytest.raises(ParseError) as info:
        tokenize(text)
    assert info.value.message == f"stray character {char!r}"
    assert (info.value.line, info.value.col) == (1, col)


SIG = rich_signature()


def parse(text: str) -> MStatement:
    stmt = parse_statement(text, SIG)
    assert well_formed(stmt, SIG) == []
    return stmt


def test_parse_bare_statement():
    assert parse("statement : c1 = c2") == MStatement(
        (), MEq(ObjConst("c1"), ObjConst("c2")))


def test_parse_scheme_header():
    stmt = parse("scheme Sep { A() -> set, P[set] } : A = A")
    assert stmt.name == "Sep"
    assert stmt.prefix == (ObjDecl("A", SET), PredDecl("P", (SET,)))
    stmt = parse("scheme Empty { } : c1 = c1")
    assert stmt.prefix == ()
    stmt = parse(
        "scheme F2 { F(set, Element of c1) -> m1_subset_1(c2) } : "
        "F(c1, the Element of c1) in c2")
    assert stmt.prefix == (FunDecl(
        "F", (SET, Mode("m1_subset_1", (ObjConst("c1"),))),
        Mode("m1_subset_1", (ObjConst("c2"),))),)


def test_connective_precedence_and_associativity():
    stmt = parse("statement : p0 or p0 & p0 implies p0 iff p0")
    assert stmt.body == MIff(
        MImp(MOr(PredConstApp("p0"), MAnd(PredConstApp("p0"),
                                          PredConstApp("p0"))),
             PredConstApp("p0")),
        PredConstApp("p0"))
    stmt = parse("statement : p0 implies p0 implies p0")
    assert stmt.body == MImp(PredConstApp("p0"),
                             MImp(PredConstApp("p0"), PredConstApp("p0")))
    stmt = parse("statement : not p0 & p0")
    assert stmt.body == MAnd(MNot(PredConstApp("p0")), PredConstApp("p0"))


def test_quantifiers_take_maximal_scope():
    stmt = parse("statement : for x being set holds x = x & p0")
    assert stmt.body == ForBeing(
        "x", SET, MAnd(MEq(ObjVar("x"), ObjVar("x")), PredConstApp("p0")))
    stmt = parse("statement : p0 or ex y being set st y in c1")
    assert stmt.body == MOr(
        PredConstApp("p0"), ExBeing("y", SET, MIn(ObjVar("y"),
                                                  ObjConst("c1"))))


def test_quantifier_chains_and_shared_types():
    stmt = parse("statement : for x, y being set holds x = y")
    assert stmt.body == ForBeing("x", SET, ForBeing(
        "y", SET, MEq(ObjVar("x"), ObjVar("y"))))
    stmt = parse("statement : for x being set ex y being Element of x "
                 "st y in x")
    assert stmt.body == ForBeing("x", SET, ExBeing(
        "y", Mode("m1_subset_1", (ObjVar("x"),)),
        MIn(ObjVar("y"), ObjVar("x"))))


def test_types_parse():
    stmt = parse("statement : the non v1_empty set = "
                 "the v1_empty Element of c1")
    assert stmt.body == MEq(
        The(NonAttr("v1_empty", SET)),
        The(Attr("v1_empty", Mode("m1_subset_1", (ObjConst("c1"),)))))


def test_element_of_requires_tag():
    sig = Signature()
    sig.declare("c", "obj")
    with pytest.raises(ParseError):
        parse_statement("statement : the Element of c = c", sig)


def test_fraenkel_term():
    stmt = parse("statement : c1 in { f2(u, v) where u is set, "
                 "v is Element of u : u in v }")
    frk = stmt.body.rhs
    assert isinstance(frk, Fraenkel)
    assert frk.binders == (("u", SET),
                           ("v", Mode("m1_subset_1", (ObjVar("u"),))))
    assert frk.body == FunConstApp("f2", (ObjVar("u"), ObjVar("v")))
    assert frk.guard == MIn(ObjVar("u"), ObjVar("v"))


def test_fraenkel_body_must_reach_where():
    with pytest.raises(ParseError):
        parse_statement("statement : c1 in { f1(u) extra where u is set "
                        ": u = u }", SIG)


def test_pred_brackets_and_parens():
    stmt = parse("scheme S { P[set] } : P[c1] & p1(c1) & v1_empty(c1) "
                 "& m1_subset_1(c1, c2) & c1 in c2")
    needle = stmt.body
    assert needle.lhs == PredVarApp("P", (ObjConst("c1"),))


@pytest.mark.parametrize("src,error", [
    ("statement : ghost = c1", UnknownName),
    ("statement : f1 = c1", ArityMismatch),  # a missing argument list
    ("statement : p1 = c1", KindMismatch),
    ("statement : c1(c2) = c1", KindMismatch),
    ("statement : f1(c1, c2) = c1", ArityMismatch),
    ("statement : p1[c1, c2]", ArityMismatch),
    ("statement : for x being m1_subset_1 holds x = x", ArityMismatch),
    ("scheme S { A() -> set, A() -> set } : A = A", DuplicateName),
    ("scheme S { P[set] } : P = c1", KindMismatch),
    ("statement : the ghost = c1", UnknownName),
    ("statement : c1 in { u where u is set, u is set : u = u }",
     DuplicateName),
    ("statement : c1 ? c2", ParseError),
    ("statement : c1 =", ParseError),
    ("statement :", ParseError),
    ("statement : (c1 = c1", ParseError),
    ("scheme : c1 = c1", ParseError),
    ("statement : c1 = c1 extra", ParseError),
    ("statement : for x being set , y being set holds x = y", ParseError),
])
def test_parse_errors(src, error):
    with pytest.raises(error):
        parse_statement(src, SIG)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_statement("statement :\n  c1 ~ c2", SIG)
    assert (info.value.line, info.value.col) == (2, 6)
    with pytest.raises(UnknownName) as info:
        parse_statement("statement : c1 = nope", SIG)
    assert info.value.line == 1


# (source, error class, message, line, col) for each raise site of the
# parser, recorded from the Token-list parser this one replaced.
DEEP = "statement : " + "(" * 300 + "c1 = c1" + ")" * 300


@pytest.mark.parametrize("src,error,message,line,col", [
    ("statement c1 = c1", ParseError, "expected ':', got 'c1'", 1, 11),
    ("statement : (c1 = c1", ParseError, "expected ')', got ''", 1, 21),
    ("scheme S { A() -> set : c1 = c1", ParseError,
     "expected '}', got ':'", 1, 23),
    ("scheme : c1 = c1", ParseError, "expected a scheme name, got ':'", 1, 8),
    ("c1 = c1", ParseError, "expected 'scheme' or 'statement'", 1, 1),
    ("statement : c1 = c1 extra", ParseError,
     "unexpected 'extra' after statement", 1, 21),
    ("scheme S { A -> set } : c1 = c1", ParseError,
     "expected '(' or '[' in declaration", 1, 14),
    ("statement : for x being ( holds x = x", ParseError,
     "expected a type, got '('", 1, 25),
    ("statement : ) = c1", ParseError, "expected a term, got ')'", 1, 13),
    ("statement :", ParseError, "expected a term, got ''", 1, 12),
    ("statement : c1 c2", ParseError, "expected '=' or 'in', got 'c2'",
     1, 16),
    (DEEP, ParseError, "nesting too deep", 1, 113),
    ("statement : c1 in { f1(c1) }", ParseError,
     "comprehension without 'where'", 1, 19),
    ("statement : c1 in { f1(u) extra where u is set : u = u }",
     ParseError, "expected 'where', got 'extra'", 1, 27),
    ("statement : ghost = c1", UnknownName, "unknown name 'ghost'", 1, 13),
    ("statement : the ghost = c1", UnknownName, "unknown name 'ghost'",
     1, 17),
    ("statement : the non ghost set = c1", UnknownName,
     "unknown name 'ghost'", 1, 21),
    ("statement : p1 = c1", KindMismatch, "'p1' is not usable in a term",
     1, 13),
    ("statement : c1(c2) = c1", KindMismatch, "'c1' is not a function",
     1, 13),
    ("scheme S { A() -> set } : A(c1) = A", KindMismatch,
     "'A' is not a function variable", 1, 27),
    ("scheme S { P[set] } : P = c1", KindMismatch,
     "'P' is not usable in a term", 1, 23),
    ("statement : the c1 = c1", KindMismatch,
     "'c1' is not a mode or attribute", 1, 17),
    ("statement : the non p1 set = c1", KindMismatch,
     "'p1' is not an attribute", 1, 21),
    ("statement : c1[c2]", KindMismatch, "'c1' is not a predicate", 1, 13),
    ("statement : f1 = c1", ArityMismatch,
     "'f1' takes 1 argument(s), got 0", 1, 13),
    ("statement : f2(c1) = c1", ArityMismatch,
     "'f2' takes 2 argument(s), got 1", 1, 13),
    ("statement : p1[c1, c2]", ArityMismatch,
     "'p1' takes 1 argument(s), got 2", 1, 13),
    ("statement : for x being m1_subset_1 holds x = x", ArityMismatch,
     "'m1_subset_1' takes 1 argument(s), got 0", 1, 25),
    ("scheme S { A() -> set, A() -> set } : A = A", DuplicateName,
     "duplicate declaration of 'A'", 1, 24),
    ("statement : c1 in { u where u is set, u is set : u = u }",
     DuplicateName, "duplicate declaration of 'u'", 1, 39),
    # a type's name comes from the signature; a bound one is no type
    ("scheme S { A() -> set } : for x being A holds p1[x]", KindMismatch,
     "'A' is not a mode or attribute", 1, 39),
    # later lines, after tabs, carriage returns and comments
    ("statement :\n  c1 ~ c2", ParseError, "stray character '~'", 2, 6),
    ("statement :\n\tc1 = # note\n\r ghost", UnknownName,
     "unknown name 'ghost'", 3, 3),
    ("# head\nstatement : c1 =\r\n\t\tc2 c1", ParseError,
     "unexpected 'c1' after statement", 3, 6),
    ("statement : c1 = c1 # trailing\n  extra", ParseError,
     "unexpected 'extra' after statement", 2, 3),
    ("scheme S {\n  A() -> set,\n  A() -> set } : A = A", DuplicateName,
     "duplicate declaration of 'A'", 3, 3),
    # a stray is refused before the grammar runs
    ("statement : c1 ? c2", ParseError, "stray character '?'", 1, 16),
    ("statement : ( ²x", ParseError, "stray character '²'", 1, 15),
    ("c1 = c1 ?", ParseError, "stray character '?'", 1, 9),
    # ... also where the grammar would bind it as a name
    ("scheme S { ²() -> set } : ² = ²", ParseError,
     "stray character '²'", 1, 12),
])
def test_parse_error_details(src, error, message, line, col):
    with pytest.raises(SourceError) as info:
        parse_statement(src, SIG)
    got = info.value
    assert (type(got), got.message, got.line, got.col) == (
        error, message, line, col)


FOUND_25 = ("scheme S { m1_subset_1() -> set } : "
            "for x being m1_subset_1(m1_subset_1) holds p1(x)")


def test_type_names_come_from_the_signature():
    """A prefix variable named like a mode leaves the mode usable as a
    type; in the mode's argument, the name is the variable."""
    got = parse_statement(FOUND_25, SIG)
    assert got == MStatement(
        (ObjDecl("m1_subset_1", SET),),
        ForBeing("x", Mode("m1_subset_1", (ObjVar("m1_subset_1"),)),
                 PredConstApp("p1", (ObjVar("x"),))), "S")
    assert well_formed(got, SIG) == []
    term = translate_statement(got, SIG)
    assert check_thf(emit_thf(assemble_problem(term, [], SIG))) == []


def test_element_of_error_details():
    sig = Signature()
    sig.declare("c", "obj")
    with pytest.raises(ParseError) as info:
        parse_statement("statement : the Element of c = c", sig)
    assert (info.value.message, info.value.line, info.value.col) == (
        "no mode is tagged 'elementof' in the signature", 1, 17)


LEXEMES = [
    "c1", "x", "_y", "é", "x²", "²x", "١a", "statement", "in", "not",
    "where", *"-> { } ( ) [ ] , : = &".split(), "-", "?",
    " ", "\t", "\r", "\n", "# note\n", "# note",
]


def test_parse_statement_lexes_what_tokenize_lexes(monkeypatch):
    """The texts the grammar gets are tokenize's texts, and a stray
    raises the same error either way."""
    lexed: list[list[str]] = []

    class Recording(parser._Parser):
        def __init__(self, source, toks, sig):
            lexed.append(toks[:-1])  # without the padding eof
            super().__init__(source, toks, sig)

    monkeypatch.setattr(parser, "_Parser", Recording)
    rng = random.Random(4242)
    sources = [""] + ["".join(rng.choice(LEXEMES)
                              for _ in range(rng.randint(1, 12)))
                      for _ in range(2000)]
    for src in sources:
        lexed.clear()
        try:
            want = [t.text for t in tokenize(src)]
        except ParseError as e:
            with pytest.raises(ParseError) as info:
                parse_statement(src, SIG)
            assert (info.value.message, info.value.line, info.value.col) \
                == (e.message, e.line, e.col), src
            assert lexed == [], src
            continue
        try:
            parse_statement(src, SIG)
        except SourceError:
            pass
        assert lexed == [want], src
    for line in ("obj ²x", "obj 1x", "func ١/1"):
        with pytest.raises(ParseError):
            parse_signature(line)


def _no_positions(text):
    raise AssertionError("tokenize called on the success path")


def test_parse_needs_no_positions(monkeypatch, corpus_sig, corpus_files):
    corpus = [p.read_text() for p in corpus_files]
    rng = random.Random(31)
    generated = [print_statement(random_statement(rng)) for _ in range(400)]
    monkeypatch.setattr(parser, "tokenize", _no_positions)
    assert len(corpus) == 12
    for text in corpus:
        parse_statement(text, corpus_sig)
    for text in generated:
        parse_statement(text, SIG)


def test_error_positions_are_token_starts():
    corpus = [
        "statement : c1 = c1",
        "scheme S { A() -> set } : A in c1",
        "statement : c1 in { f1(u) where u is set : p1(u) }",
        "statement :\n  for x being Element of c1 holds\n\tx in c2 # c",
    ]
    rng = random.Random(1234)
    for _ in range(3000):
        src = fuzz_source(rng, corpus)
        try:
            parse_statement(src, SIG)
        except SourceError as e:
            if e.line is None:
                continue
            try:
                starts = {(t.line, t.col) for t in tokenize(src)}
            except ParseError as stray:
                assert (e.message, e.line, e.col) == (
                    stray.message, stray.line, stray.col), src
                continue
            assert (e.line, e.col) in starts, src


def test_deep_nesting_is_a_parse_error():
    src = "statement : " + "(" * 300 + "c1 = c1" + ")" * 300
    with pytest.raises(ParseError):
        parse_statement(src, SIG)


def test_long_not_chains_parse_iteratively():
    stmt = parse_statement("statement : " + "not " * 5000 + "p0", SIG)
    depth = 0
    body = stmt.body
    while isinstance(body, MNot):
        depth += 1
        body = body.arg
    assert depth == 5000
    assert body == PredConstApp("p0")


def test_printer_roundtrip_on_generated_statements():
    rng = random.Random(816)
    for _ in range(400):
        stmt = random_statement(rng)
        printed = print_statement(stmt)
        again = parse_statement(printed, SIG)
        assert again == stmt, printed


def test_fuzz_smoke():
    corpus = [
        "statement : c1 = c1",
        "scheme S { A() -> set } : A in c1",
        "statement : c1 in { f1(u) where u is set : p1(u) }",
    ]
    rng = random.Random(99)
    for _ in range(3000):
        src = fuzz_source(rng, corpus)
        try:
            parse_statement(src, SIG)
        except SourceError:
            pass
        except RecursionError:
            pytest.fail(f"recursion blowup on {src!r}")
