"""Problem assembly, THF0 emission, and the re-parsing checker."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from mizthf import (
    Signature, assemble_problem, check_thf, emit_thf, parse_statement,
    translate_statement,
)
from mizthf import hol, thf, thfcheck
from mizthf.declarations import Declaration, member
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, Iff, IllTyped, Imp, IND, Lam, Not, Or,
    PROP, TOP, Var, apps, fn,
)
from mizthf.thf import (
    CACHE_SIZE, MangleTable, Problem, UndeclaredConstant, render_type,
)
from mizthf.thfcheck import (
    MAX_DEPTH, MEMO_LINES, _kind, _lex, _positions, _texts,
)

from generators import random_statement, rich_signature

i, o = IND, PROP


def small_sig() -> Signature:
    sig = Signature()
    sig.declare("c", "obj")
    sig.declare("m1_subset_1", "mode", 2)
    sig.tag_elementof("m1_subset_1")
    sig.declare("p", "pred", 1)
    sig.declare("f", "func", 1)
    return sig


def clear_emit_caches() -> None:
    thf._support_lines.clear()
    thf._mangle.cache_clear()
    thf.render_type.cache_clear()


def clear_check_memo() -> None:
    thfcheck._memo.clear()
    thfcheck._seen.clear()


def emit(src: str, sig: Signature | None = None,
         axioms: list | None = None) -> str:
    sig = sig or small_sig()
    conj = translate_statement(parse_statement(src, sig), sig)
    ax_terms = []
    for name, ax_src in axioms or []:
        ax_terms.append(
            (name, translate_statement(parse_statement(ax_src, sig), sig)))
    return emit_thf(assemble_problem(conj, ax_terms, sig))


def test_minimal_problem_is_three_exact_lines():
    assert emit("statement : c = c") == (
        "thf(r2_hidden_tp, type, r2_hidden: $i > $i > $o).\n"
        "thf(c_tp, type, c: $i).\n"
        "thf(goal, conjecture, c = c).\n")


def test_choice_problem_bytes():
    assert emit("statement : m1_subset_1(the Element of c, c)") == (
        "thf(r2_hidden_tp, type, r2_hidden: $i > $i > $o).\n"
        "thf(eps_tp, type, eps: ($i > $o) > $i).\n"
        "thf(c_tp, type, c: $i).\n"
        "thf(m1_subset_1_tp, type, m1_subset_1: $i > $i > $o).\n"
        "thf(epsax, axiom, ! [P: $i > $o, X: $i] : "
        "((P @ X) => (P @ (eps @ P)))).\n"
        "thf(m1_subset_1_nonempty, axiom, ! [A: $i] : ? [B: $i] : "
        "(m1_subset_1 @ B @ A)).\n"
        "thf(goal, conjecture, (m1_subset_1 @ "
        "(eps @ (^ [X: $i] : (m1_subset_1 @ X @ c))) @ c)).\n")


def test_demand_membership_always_eps_only_on_choice():
    text = emit("statement : c = c")
    assert "r2_hidden" in text
    assert "eps" not in text
    assert "sethood" not in text
    text = emit("statement : the set = c")
    assert "thf(eps_tp, type, eps: ($i > $o) > $i)." in text
    assert "thf(epsax, axiom," in text
    assert "sethood" not in text


def test_demand_fraenkel_brings_sethood_and_axioms():
    text = emit("statement : c in { f(u) where u is set : p(u) }")
    assert "thf(sethood_tp, type, sethood: ($i > $o) > $o)." in text
    assert "thf(sethood_def, definition, sethood = " in text
    assert "thf(replSep_1_tp, type, replSep_1: "
    assert "thf(replSepI_1, axiom," in text
    assert "thf(replSepE_1, axiom," in text
    assert "replSep_2" not in text
    assert "eps" not in text


def test_demand_elementof_axioms_follow_the_mode():
    sig = small_sig()
    # mode occurs, no comprehension: nonempty only
    text = emit("statement : m1_subset_1(c, c)", sig)
    assert "m1_subset_1_nonempty" in text
    assert "m1_subset_1_sethood" not in text
    assert "sethood" not in text
    # mode plus comprehension: both axioms
    text = emit("statement : c in { u where u is Element of c : p(u) }",
                sig)
    assert "m1_subset_1_nonempty" in text
    assert "m1_subset_1_sethood" in text
    # no mode at all: neither, even with a comprehension present
    text = emit("statement : c in { u where u is set : p(u) }", sig)
    assert "m1_subset_1" not in text


def test_untagged_mode_gets_no_axioms():
    sig = Signature()
    sig.declare("c", "obj")
    sig.declare("m1_subset_1", "mode", 2)
    text = emit("statement : m1_subset_1(c, c)", sig)
    assert "thf(m1_subset_1_tp, type, m1_subset_1: $i > $i > $o)." in text
    assert "nonempty" not in text


def test_user_constants_come_sorted_after_base():
    sig = Signature()
    for name in ("zz", "aa", "mm"):
        sig.declare(name, "obj")
    conj = And(Eq(Const("zz", i), Const("aa", i), i),
               Eq(Const("mm", i), Const("mm", i), i))
    text = emit_thf(assemble_problem(conj, [], sig))
    lines = [l for l in text.splitlines() if ", type," in l]
    names = [l.split(",")[0][4:] for l in lines]
    assert names == ["r2_hidden_tp", "aa_tp", "mm_tp", "zz_tp"]


def test_axioms_follow_declaration_axioms_and_conjecture_is_last():
    sig = small_sig()
    text = emit("statement : the set = c", sig,
                axioms=[("fact", "statement : p(c)")])
    lines = text.splitlines()
    assert lines[-1].startswith("thf(goal, conjecture,")
    assert lines[-2] == "thf(fact, axiom, (p @ c))."
    epsax_at = next(n for n, l in enumerate(lines)
                    if l.startswith("thf(epsax"))
    assert epsax_at < len(lines) - 2


def test_undeclared_constant_is_rejected():
    sig = small_sig()
    with pytest.raises(UndeclaredConstant):
        assemble_problem(Eq(Const("ghost", i), Const("c", i), i), [], sig)


def test_conflicting_annotations_are_rejected():
    sig = small_sig()
    with pytest.raises(IllTyped):
        assemble_problem(Eq(Const("c", o), Const("c", o), o), [], sig)
    with pytest.raises(IllTyped):
        assemble_problem(
            And(Eq(Const("c", i), Const("c", i), i),
                App(Const("c", fn(i, o)), Const("c", i))), [], sig)


def test_render_type_parenthesizes_domains():
    assert render_type(i) == "$i"
    assert render_type(o) == "$o"
    assert render_type(fn(i, i, o)) == "$i > $i > $o"
    assert render_type(fn(fn(i, o), i)) == "($i > $o) > $i"
    assert render_type(fn(fn(fn(i, i), o), i)) == "(($i > $i) > $o) > $i"


def test_mangle_table_is_bijective_and_deterministic():
    t = MangleTable()
    assert t.get("c") == "c"
    assert t.get("Weird") == "weird"
    assert t.get("weird") == "weird_2"
    assert t.get("Weird") == "weird"
    assert t.get("3abc") == "c3abc"
    assert t.get("a-b") == "a_b"
    values = [t.get(s) for s in ("c", "Weird", "weird", "3abc", "a-b")]
    assert len(set(values)) == len(values)


def test_emitted_words_are_ascii():
    """Non-ASCII letters and digits are word characters in the source
    but not in TPTP, so emission maps each to ``_``."""
    sig = Signature()
    for name in ("café", "c1", "x²", "x١"):
        sig.declare(name, "obj")
    sig.declare("ñp", "pred", 1)
    text = emit("statement : for ñ being set holds ñ = c1 & ñp(café) "
                "& x² = x١", sig)
    assert text.isascii()
    assert check_thf(text) == []
    assert "thf(caf__tp, type, caf_: $i)." in text
    assert "thf(c_p_tp, type, c_p: $i > $o)." in text
    assert "! [X_: $i] : ((X_ = c1) & ((c_p @ caf_) & (x_ = x__2)))" in text


def test_emission_renames_shadowed_binders():
    conj = All("x", i, All("x", i, Eq(Var("x", i), Var("x", i), i)))
    sig = Signature()
    text = emit_thf(assemble_problem(conj, [], sig))
    assert "! [X: $i, X_2: $i] : (X_2 = X_2)" in text
    assert check_thf(text) == []


def test_emission_merges_binder_runs():
    conj = All("x", i, All("y", i, Ex("z", i, Eq(Var("x", i),
                                                 Var("y", i), i))))
    text = emit_thf(assemble_problem(conj, [], Signature()))
    assert "! [X: $i, Y: $i] : ? [Z: $i] : (X = Y)" in text


_A, _B = Const("a", o), Const("b", o)
_C, _D = Const("c", i), Const("d", i)
_F, _P, _X = Const("f", fn(i, i, o)), Const("p", fn(i, o)), Var("x", i)


@pytest.mark.parametrize("term, text", [
    (Not(_A), "~ a"),
    (And(_A, _B), "a & b"),
    (Or(_A, _B), "a | b"),
    (Imp(_A, _B), "a => b"),
    (Iff(_A, _B), "a <=> b"),
    (Eq(_C, _D, i), "c = d"),
    (apps(_F, _C, _D), "(f @ c @ d)"),
    (All("x", i, App(_P, _X)), "! [X: $i] : (p @ X)"),
    (Ex("x", i, App(_P, _X)), "? [X: $i] : (p @ X)"),
    (Lam("x", i, apps(_F, _X, _C)), "^ [X: $i] : (f @ X @ c)"),
    (TOP, "$true"),
    (Not(Imp(_A, _B)), "~ (a => b)"),
    (Imp(Not(_A), And(_B, _A)), "~ a => (b & a)"),
])
def test_render_formula_text_per_constructor(term, text):
    """Each constructor's exact THF text, with operands that show their
    order; the checker alone passes an emitter that drops a ``~`` or
    swaps the sides of ``=>``."""
    assert thf.render_formula(term, MangleTable()) == text


def test_emission_is_deterministic(corpus_sig, corpus_files):
    for path in corpus_files:
        stmt = parse_statement(path.read_text(), corpus_sig)
        conj = translate_statement(stmt, corpus_sig)
        prob = assemble_problem(conj, [], corpus_sig)
        first = emit_thf(prob)
        prob2 = assemble_problem(conj, [], corpus_sig)
        assert emit_thf(prob2) == first


def test_corpus_emissions_check_clean(corpus_sig, corpus_files):
    for path in corpus_files:
        stmt = parse_statement(path.read_text(), corpus_sig)
        conj = translate_statement(stmt, corpus_sig)
        text = emit_thf(assemble_problem(conj, [], corpus_sig))
        assert check_thf(text) == [], path.name


# ------------------------------------------------------------- checker


GOOD = """thf(c_tp, type, c: $i).
thf(p_tp, type, p: $i > $o).
thf(goal, conjecture, (p @ c)).
"""


def test_check_thf_accepts_the_subset():
    assert check_thf(GOOD) == []
    assert check_thf("% only a comment\n") == []
    assert check_thf("thf(a, axiom, $true).") == []


@pytest.mark.parametrize("text,code", [
    ("thf(c_tp, type, c: $i).\nthf(c_tp, type, c: $o).", "duplicate"),
    ("thf(c_tp, type, c: $i).\nthf(d_tp, type, c: $o).", "duplicate"),
    ("thf(goal, conjecture, (p @ c)).", "undeclared"),
    ("thf(goal, conjecture, X = X).", "unbound"),
    ("thf(c_tp, type, c: $i).\nthf(goal, conjecture, c).", "ill-typed"),
    ("thf(c_tp, type, c: $i).\nthf(goal, conjecture, (c @ c)).",
     "ill-typed"),
    ("thf(c_tp, type, c: $i).\nthf(goal, conjecture, c = $true).",
     "ill-typed"),
    ("thf(goal, guess, $true).", "role"),
    ("thf(goal, conjecture, $true)", "syntax"),
    ("thf(goal, conjecture, ($true & $true | $true)).", "syntax"),
    ("thf(goal, conjecture, $true # $true).", "syntax"),
    ("thf(Goal, conjecture, $true).", "syntax"),
    ("thf(goal, conjecture, ! [x: $i] : $true).", "syntax"),
    ("thf(c_tp, type, c: $j).", "syntax"),
])
def test_check_thf_rejects(text, code):
    diags = check_thf(text)
    assert diags, text
    assert diags[0].code == code


def test_check_thf_reports_positions():
    diags = check_thf("thf(goal, conjecture,\n  (p @ c)).")
    assert diags[0].where.startswith("2:")


def test_check_thf_counts_conjectures():
    text = ("thf(a, conjecture, $true).\n"
            "thf(b, conjecture, $true).\n")
    assert any(d.code == "conjectures" for d in check_thf(text))


def test_check_thf_is_order_insensitive():
    flipped = ("thf(goal, conjecture, (p @ c)).\n"
               "thf(c_tp, type, c: $i).\n"
               "thf(p_tp, type, p: $i > $o).\n")
    assert check_thf(flipped) == []


@pytest.mark.parametrize("text,diags", [
    # the fault ends unit a: the goal is the next unit, not "c"
    ("thf(c_tp, type, c: $i).\nthf(a, axiom, (~ $o . c)).\n"
     "thf(goal, conjecture, c).\n",
     ["2:18: expected a formula, found '$o' [syntax]",
      "3:5: conjecture 'goal' has type ι, wanted o [ill-typed]"]),
    # unit b, which unit a's fault runs into, is still checked
    ("thf(c_tp, type, c: $i).\nthf(a, axiom, ($true).\n"
     "thf(b, axiom, ~ c).\nthf(goal, conjecture, $true).\n",
     ["2:22: expected ')', found '.' [syntax]",
      "3:17: expected o, found ι [ill-typed]"]),
])
def test_check_thf_reports_a_formula_fault_once_per_unit(text, diags):
    for _ in range(3):  # met once, memoized, memoized lines reused
        assert [str(d) for d in check_thf(text)] == diags


def test_check_thf_handles_equality_types():
    text = ("thf(f_tp, type, f: $i > $i).\n"
            "thf(goal, conjecture, f = f).\n")
    assert check_thf(text) == []
    text = ("thf(f_tp, type, f: $i > $i).\n"
            "thf(c_tp, type, c: $i).\n"
            "thf(goal, conjecture, f = c).\n")
    assert any(d.code == "ill-typed" for d in check_thf(text))


@pytest.mark.parametrize("text,tokens", [
    # a trailing comment leaves eof where the comment starts
    ("$i % c", [("dollar", "$i", 1, 1), ("eof", "", 1, 4)]),
    ("a\r\n\tb\x0bc\xa0d", [("word", "a", 1, 1), ("word", "b", 2, 2),
                             ("word", "c", 2, 4), ("word", "d", 2, 6),
                             ("eof", "", 2, 7)]),
    ("p <=> q => r = s", [("word", "p", 1, 1), ("sym", "<=>", 1, 3),
                          ("word", "q", 1, 7), ("sym", "=>", 1, 9),
                          ("word", "r", 1, 12), ("sym", "=", 1, 14),
                          ("word", "s", 1, 16), ("eof", "", 1, 17)]),
    ("$ $true", [("dollar", "$", 1, 1), ("dollar", "$true", 1, 3),
                 ("eof", "", 1, 8)]),
    # TPTP words are ASCII: each other character is a token of its own
    ("é²", [("stray", "é", 1, 1), ("stray", "²", 1, 2), ("eof", "", 1, 3)]),
    # a digit cannot start a word: the token is a number, not a stray
    ("2x a2 ٢", [("number", "2x", 1, 1), ("word", "a2", 1, 4),
                 ("stray", "٢", 1, 7), ("eof", "", 1, 8)]),
])
def test_check_thf_tokens(text, tokens):
    toks = _texts(text)
    for _ in range(3):  # met once, memoized, memoized lines reused
        assert _lex(text)[0] == toks
    where = _positions(text, set(range(len(toks))))
    assert [(_kind(tok), tok, *where[k])
            for k, tok in enumerate(toks)] == tokens


@pytest.mark.parametrize("text,where,char", [
    ("a < b", "1:3", "<"),
    ("²", "1:1", "²"),
    ("x ١", "1:3", "١"),
    ("A-B", "1:2", "-"),
    # TPTP words are ASCII, so a constant named café is refused
    ("thf(café_tp, type, café: $i).\nthf(goal, conjecture, café = café).\n",
     "1:8", "é"),
])
def test_check_thf_stray_characters(text, where, char):
    assert [str(d) for d in check_thf(text)] == [
        f"{where}: stray character {char!r} [syntax]"]


@pytest.mark.parametrize("text,diag", [
    ("thf(a_tp, type, 2x: $i).\n",
     "1:17: constant name must be a lower word [syntax]"),
    ("thf(a_tp, type, a: $i).\nthf(g, conjecture, a = 2).\n",
     "2:24: expected a formula, found '2' [syntax]"),
    ("thf(2x, axiom, $true).\n",
     "1:5: formula name must be a lower word [syntax]"),
])
def test_check_thf_numbers_meet_the_grammar(text, diag):
    """A token that starts with a digit is refused where the grammar
    meets it, as a whole token."""
    for _ in range(3):  # met once, memoized, memoized lines reused
        assert [str(d) for d in check_thf(text)] == [diag]


# ------------------------------------------------------- nesting and fuzz

DECLS = ("thf(c_tp, type, c: $i).\n"
         "thf(f_tp, type, f: $i > $i).\n"
         "thf(p_tp, type, p: $i > $o).\n")
GOAL = "thf(goal, conjecture, "


def nest(construct: str, n: int) -> tuple[str, str]:
    """A problem that nests ``n`` levels, the innermost of them made of
    ``construct``, and the ``line:col`` of the n-th level's token."""
    if construct == "(":
        return DECLS + GOAL + "(" * n + "$true" + ")" * n + ").", f"4:{22 + n}"
    if construct == "~":
        return DECLS + GOAL + "~ " * n + "$true).", f"4:{21 + 2 * n}"
    if construct == "!":
        binders = ", ".join(f"X{k:04}: $i" for k in range(n))
        return DECLS + GOAL + f"! [{binders}] : $true).", f"4:{15 + 11 * n}"
    if construct == "&":
        return (DECLS + GOAL + " & ".join(["$true"] * (n + 1)) + ").",
                f"4:{21 + 8 * n}")
    if construct == "@":  # 100 arguments inside n - 100 parentheses
        k = n - 100
        return (DECLS + "thf(g_tp, type, g: " + "$i > " * 100 + "$o).\n"
                + GOAL + "(" * k + "g" + " @ c" * 100 + ")" * k + ")."), \
            f"5:{321 + n}"
    assert construct == ">"
    return "thf(g_tp, type, g: " + "$i > " * n + "$o).", f"1:{18 + 5 * n}"


@pytest.mark.parametrize("construct", ["(", "~", "!", "&", "@", ">"])
def test_check_thf_nesting_limit(construct):
    limit = sys.getrecursionlimit()
    text, _ = nest(construct, MAX_DEPTH)
    assert check_thf(text) == []
    text, where = nest(construct, MAX_DEPTH + 1)
    assert [str(d) for d in check_thf(text)] == [
        f"{where}: nesting deeper than {MAX_DEPTH} levels [too-deep]"]
    assert sys.getrecursionlimit() == limit


def test_check_thf_chain_costs_one_level_a_link():
    # the emitter's right-nested chain: each link's operand is a "(",
    # on the link's level; the innermost "(c = c)" opens one more
    def chain(links: int) -> str:
        return (DECLS + GOAL + "(c = c) & (" * links + "(c = c)"
                + ")" * links + ").")
    assert check_thf(chain(MAX_DEPTH - 1)) == []
    diags = check_thf(chain(MAX_DEPTH))
    assert [(d.code, d.where) for d in diags] == [
        ("too-deep", f"4:{22 + 11 * MAX_DEPTH + 1}")]


def test_check_thf_deep_checks_in_threads():
    # each check needs the recursion limit raised until it returns
    text, _ = nest("(", MAX_DEPTH)
    limit, interval = sys.getrecursionlimit(), sys.getswitchinterval()
    results: list[object] = []
    # and checks that share the memo agree with checks that start cold
    rng = random.Random(5)
    sig = rich_signature()
    emitted = [emit_thf(assemble_problem(
        translate_statement(random_statement(rng), sig), [], sig))
        for _ in range(4)]
    emitted += [t.replace("r2_hidden: $i > $i > $o", "r2_hidden: $i > $o > $o")
                for t in emitted]
    cold = {}
    for t in emitted:
        clear_check_memo()
        cold[t] = check_thf(t)
    shared: list[bool] = []

    def work() -> None:
        for _ in range(10):
            try:
                results.append(check_thf(text))
            except RecursionError as e:
                results.append(e)
            shared.extend(check_thf(t) == cold[t] for t in emitted)

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[]] * 60
    assert shared == [True] * 60 * len(emitted)
    assert any(cold.values())
    assert sys.getrecursionlimit() == limit


def test_check_thf_limit_counts_mixed_nesting():
    half = MAX_DEPTH // 2
    body = "~ (" * half + "$true" + ")" * half
    assert check_thf(DECLS + GOAL + body + ").") == []
    diags = check_thf(DECLS + GOAL + "! [X: $i] : " + body + ").")
    assert [d.code for d in diags] == ["too-deep"]


@pytest.mark.parametrize("formula,where,message", [
    ("(c @ c)", "4:26", "ι is not a function type"),
    ("(p @ $true)", "4:28", "expected ι, found o"),
    ("c = $true", "4:27", "expected ι, found o"),
    ("~ c", "4:25", "expected o, found ι"),
    ("c & $true", "4:23", "expected o, found ι"),
    ("! [X: $i] : X", "4:35", "expected o, found ι"),
    ("c", "4:5", "conjecture 'goal' has type ι, wanted o"),
    # the type error comes first in token order, the missing ")" later
    ("~ c $true", "4:25", "expected o, found ι"),
])
def test_check_thf_ill_typed_positions(formula, where, message):
    assert [str(d) for d in check_thf(DECLS + GOAL + formula + ").")] == [
        f"{where}: {message} [ill-typed]"]


def test_check_thf_widest_type_from_a_deep_caller():
    # a constant's MAX_DEPTH arrows under a "^" of MAX_DEPTH - 1 bound
    # variables, compared (and printed) at "="
    def lam(body: str) -> str:
        binders = ", ".join(f"X{k:04}: $i" for k in range(MAX_DEPTH - 1))
        return f"(^ [{binders}] : {body})"

    def problem(d_result: str) -> str:
        return ("thf(c_tp, type, c: " + "$i > " * MAX_DEPTH + "$o).\n"
                "thf(d_tp, type, d: " + "$i > " * MAX_DEPTH + d_result
                + ").\n" + GOAL + lam("c") + " = " + lam("d") + ").")

    def at_depth(n: int, text: str) -> list:
        return at_depth(n - 1, text) if n else check_thf(text)

    assert at_depth(500, problem("$o")) == []
    assert [d.code for d in at_depth(500, problem("$i"))] == ["ill-typed"]


def _where_is_inside(where: str, text: str) -> bool:
    line, col = map(int, where.split(":"))
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1


EDGE = list("abXY_$%()[]:,.>@~&|!?^=<- \t\n") + [
    "²", "١", "é", "\x0b", "\xa0", "\r", "=>", "<=>", "$i", "$o", "$true",
    "thf(", "type", "axiom", "conjecture"]


def test_check_thf_never_raises():
    rng = random.Random(2024)
    sig = rich_signature()
    problems = [emit_thf(assemble_problem(
        translate_statement(random_statement(rng), sig), [], sig))
        for _ in range(20)]
    texts = problems * 2  # the memo takes a line met twice
    for _ in range(1200):  # one to four character edits
        chars = list(rng.choice(problems))
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(chars) + 1)
            if rng.random() < 0.5 and at < len(chars):
                del chars[at]
            else:
                chars.insert(at, rng.choice(EDGE))
        texts.append("".join(chars))
    for _ in range(700):
        texts.append("".join(rng.choice(EDGE)
                             for _ in range(rng.randint(0, 80))))
    for _ in range(100):
        opener = rng.choice(["(", "~ ", "! [X: $i] : ", "(c = ", "p @ "])
        n = rng.choice([MAX_DEPTH, MAX_DEPTH + 1, 2 * MAX_DEPTH, 5000])
        texts.append(DECLS + GOAL + opener * n + "c" + ")" * n + ").")
    warm = [check_thf(text) for text in texts]
    assert all(_lex(text)[0] == _texts(text) for text in texts)
    for text, diags in zip(texts, warm):
        assert isinstance(diags, list)
        for d in diags:
            assert not d.where or _where_is_inside(d.where, text), (d, text)
        clear_check_memo()
        assert check_thf(text) == diags, text


# ------------------------------------------------------ per-process caches


def test_check_memo_rechecks_a_unit_under_changed_declarations():
    unit = "thf(ax, axiom, (f @ c1))."
    rest = ("thf(f_tp, type, f: $i > $o).\n" + unit + "\n"
            "thf(goal, conjecture, $true).")
    clean = "thf(c1_tp, type, c1: $i).\n" + rest
    swapped = "thf(c1_tp, type, c1: $o).\n" + rest
    clear_check_memo()
    for _ in range(3):
        assert check_thf(clean) == []
    assert thfcheck._memo[unit].verdict is not None
    warm = check_thf(swapped)
    clear_check_memo()
    assert warm == check_thf(swapped)
    assert [d.code for d in warm] == ["ill-typed"]


def test_support_lines_follow_the_problem_mangling():
    # M1 sorts first and takes the word m1, so the Element-of axioms
    # name m1_2 in the first problem and m1 in the second
    sig = Signature()
    sig.declare("c1", "obj")
    sig.declare("M1", "mode", 2)
    sig.declare("m1", "mode", 2)
    sig.tag_elementof("m1")
    both = emit("statement : M1(c1, c1) & m1(c1, c1)", sig)
    one = emit("statement : m1(c1, c1)", sig)
    assert "(m1_2 @ B @ A)" in both and "(m1 @ B @ A)" in one
    sources = ["M1(c1, c1) & m1(c1, c1)", "m1(c1, c1)",
               "c1 in {x where x is Element of c1 : m1(x, c1)}",
               "M1(c1, c1) & c1 in {x where x is Element of c1 : M1(x, c1)}"]
    warm = [emit("statement : " + sources[k % 4], sig) for k in range(12)]
    for k, text in enumerate(warm):
        clear_emit_caches()
        assert emit("statement : " + sources[k % 4], sig) == text


def test_caches_stay_within_their_caps():
    clear_check_memo()
    for k in range(MEMO_LINES + 50):
        text = f"thf(a{k}, axiom, $true).\nthf(goal, conjecture, $true)."
        check_thf(text)
        check_thf(text)
        assert len(thfcheck._memo) <= MEMO_LINES
        assert len(thfcheck._seen) <= MEMO_LINES
    assert "thf(a%d, axiom, $true)." % (MEMO_LINES + 49) in thfcheck._memo
    c = Const("c", o)
    for k in range(CACHE_SIZE + 50):
        ax = Not(Not(c)) if k % 2 else Imp(c, c)
        decl = Declaration("c", o, axioms=((f"ax{k}", ax),))
        text = emit_thf(Problem((decl,), (), ("goal", TOP)))
        assert f"thf(ax{k}, axiom, " in text
        assert len(thf._support_lines) <= CACHE_SIZE
        assert all(len(lines) <= CACHE_SIZE
                   for _, _, lines in thf._support_lines.values())
    for fn_ in (thf._mangle, thf.render_type):
        assert fn_.cache_info().maxsize == CACHE_SIZE
