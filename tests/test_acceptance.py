"""Acceptance gate.

One test per criterion, each printing a single PASS or FAIL line (run
with ``pytest -v`` to see the per-criterion verdicts as test results,
or ``-s`` for the printed lines).  Expected terms are transcribed by
hand, never read back from the code under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import fields, is_dataclass

from generators import (
    fuzz_source, mutate_statement, planted_problem, random_statement,
    rich_signature,
)
from mizthf import hol
from mizthf.declarations import (
    family_declarations, gen_replSep_axioms, gen_replSep_decl, member,
    replsep_type, sethood_of,
)
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, Iff, Imp, IND, Lam, PROP, Var, alpha_eq,
    ambient_context, apps, fn, lams, type_of,
)
from mizthf.mizar import Fraenkel, PredDecl, SourceError, The, well_formed
from mizthf.parser import parse_signature, parse_statement
from mizthf.printer import print_statement
from mizthf.patterns import (
    DisagreementPair, pattern_match, recover_scheme_instantiation,
)
from mizthf.thf import assemble_problem, emit_thf
from mizthf.thfcheck import check_thf
from mizthf.translate import translate_statement

i, o = IND, PROP


def verdict(n: int, label: str, ok: bool, detail: str = "") -> None:
    word = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {n} [{label}]: {word}{tail}")
    assert ok, f"criterion {n} [{label}]: {word}{tail}"


def load(corpus_files, stem: str):
    return next(p for p in corpus_files if p.stem == stem)


def translated(path, sig):
    return translate_statement(parse_statement(path.read_text(), sig), sig)


def test_criterion_1_golden_translations(corpus_sig, corpus_files):
    start = time.perf_counter()
    got_sep = translated(load(corpus_files, "separation"), corpus_sig)
    sep_time = time.perf_counter() - start

    A, X, x = Var("A", i), Var("X", i), Var("x", i)
    P = Var("P", fn(i, o))
    want_sep = All("A", i, All("P", fn(i, o), Ex("X", i, All("x", i, Iff(
        member(x, X), And(member(x, A), App(P, x)))))))

    start = time.perf_counter()
    got_repl = translated(load(corpus_files, "replacement"), corpus_sig)
    repl_time = time.perf_counter() - start

    R = Var("R", fn(i, i, o))
    y, z = Var("y", i), Var("z", i)
    functional = All("x", i, All("y", i, All("z", i, Imp(
        And(apps(R, x, y), apps(R, x, z)), Eq(y, z, i)))))
    want_repl = All("A", i, All("R", fn(i, i, o), Imp(
        functional,
        Ex("X", i, All("x", i, Iff(
            member(x, X),
            Ex("y", i, And(member(y, A), apps(R, y, x)))))))))

    ok = (alpha_eq(got_sep, want_sep) and alpha_eq(got_repl, want_repl)
          and sep_time < 1.0 and repl_time < 1.0)
    verdict(1, "golden translations", ok,
            f"separation {sep_time * 1000:.0f} ms, "
            f"replacement {repl_time * 1000:.0f} ms")


def test_criterion_2_canonical_constant_family():
    base = {d.name: d for d in family_declarations()}
    (_, epsax), = base["eps"].axioms
    p, x = Var("p", fn(i, o)), Var("x", i)
    want_epsax = All("p", fn(i, o), All("x", i, Imp(
        App(p, x), App(p, App(Const("eps", fn(fn(i, o), i)), p)))))

    sethood_decl = base["sethood"]
    want_sethood = Lam("p", fn(i, o), Ex("y", i, All("x", i, Imp(
        App(p, x), member(x, Var("y", i))))))

    types_ok = (
        gen_replSep_decl(1).type == fn(fn(i, o), fn(i, i), fn(i, o), i)
        and gen_replSep_decl(2).type == fn(
            fn(i, o), fn(i, i, o), fn(i, i, i), fn(i, i, o), i))

    A1, f1v = Var("A1", fn(i, o)), Var("f", fn(i, i))
    P1 = Var("P", fn(i, o))
    x1 = Var("x1", i)
    rs1 = Const("replSep_1", replsep_type(1))
    (_, intro1), (_, elim1) = gen_replSep_axioms(1)
    want_intro1 = All("A1", fn(i, o), All("f", fn(i, i), All(
        "P", fn(i, o), All("x1", i, Imp(
            sethood_of(A1), Imp(App(A1, x1), Imp(
                App(P1, x1),
                member(App(f1v, x1), apps(rs1, A1, f1v, P1)))))))))
    want_elim1 = All("A1", fn(i, o), All("f", fn(i, i), All(
        "P", fn(i, o), All("y", i, Imp(
            member(Var("y", i), apps(rs1, A1, f1v, P1)),
            Ex("x1", i, And(App(A1, x1), And(
                App(P1, x1),
                Eq(Var("y", i), App(f1v, x1), i)))))))))

    A2 = Var("A2", fn(i, i, o))
    f2v = Var("f", fn(i, i, i))
    P2 = Var("P", fn(i, i, o))
    x2 = Var("x2", i)
    rs2 = Const("replSep_2", replsep_type(2))
    (_, intro2), _ = gen_replSep_axioms(2)
    # the second sethood hypothesis rebinds x1 under its own quantifier
    hyp2 = All("x1", i, Imp(App(A1, x1), sethood_of(App(A2, x1))))
    want_intro2 = All("A1", fn(i, o), All("A2", fn(i, i, o), All(
        "f", fn(i, i, i), All("P", fn(i, i, o), All("x1", i, All(
            "x2", i, Imp(sethood_of(A1), Imp(hyp2, Imp(
                App(A1, x1), Imp(apps(A2, x1, x2), Imp(
                    apps(P2, x1, x2),
                    member(apps(f2v, x1, x2),
                           apps(rs2, A1, A2, f2v, P2)))))))))))))

    ok = (alpha_eq(epsax, want_epsax)
          and alpha_eq(sethood_decl.definition, want_sethood)
          and types_ok
          and alpha_eq(intro1, want_intro1)
          and alpha_eq(elim1, want_elim1)
          and alpha_eq(intro2, want_intro2))
    verdict(2, "canonical constant family", ok)


def test_criterion_3_arity_scaling():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        decl = gen_replSep_decl(n)
        ok = ok and decl.type == replsep_type(n)
        for _, ax in gen_replSep_axioms(n):
            ok = ok and type_of(ax, ambient_context(ax)) == o
    elapsed = time.perf_counter() - start
    verdict(3, "arity scaling", ok and elapsed < 1.0,
            f"n = 1..6 in {elapsed * 1000:.0f} ms")


def test_criterion_4_matcher_reproduction(corpus_sig, corpus_files):
    scheme = translated(load(corpus_files, "replacement"), corpus_sig)
    inst = translated(load(corpus_files, "repl_instance"), corpus_sig)
    got = recover_scheme_instantiation(scheme, inst, 2)
    c1 = Const("c1", i)
    p1 = Const("p1", fn(i, o))
    sub = {m.name: v for m, v in got.substitution.items()}
    want_R = lams([("y", i), ("x", i)],
                  And(Eq(Var("y", i), Var("x", i), i),
                      App(p1, Var("x", i))))
    repl_ok = (set(sub) == {"A", "R"} and sub["A"] == c1
               and alpha_eq(sub["R"], want_R)
               and got.side_conditions == ())

    # the same pair posed at the conclusion only: the functionality
    # hypothesis must come back as an instantiated side condition
    conclusion = translate_statement(parse_statement(
        "statement : ex X being set st for x being set holds\n"
        "  (x in X iff ex y being set st (y in c1 & (y = x & p1(x))))",
        corpus_sig), corpus_sig)
    tail = recover_scheme_instantiation(scheme, conclusion, 2)
    sub2 = {m.name: v for m, v in tail.substitution.items()}
    x, y, z = Var("x", i), Var("y", i), Var("z", i)
    inst_r = lambda a, b: And(Eq(a, b, i), App(p1, b))
    want_side = All("x", i, All("y", i, All("z", i, Imp(
        And(inst_r(x, y), inst_r(x, z)), Eq(y, z, i)))))
    repl_ok = (repl_ok and sub2["A"] == c1
               and alpha_eq(sub2["R"], want_R)
               and len(tail.side_conditions) == 1
               and alpha_eq(tail.side_conditions[0], want_side))

    scheme = translated(load(corpus_files, "subset_ex"), corpus_sig)
    inst = translated(load(corpus_files, "subset_inst"), corpus_sig)
    got = recover_scheme_instantiation(scheme, inst, 2)
    sub = {m.name: v for m, v in got.substitution.items()}
    # the matcher answers in spine-expanded form, so Q comes back as
    # the one-step expansion of the bare predicate constant
    subset_ok = (set(sub) == {"Q", "X"} and sub["X"] == c1
                 and alpha_eq(sub["Q"], Lam("x", i, App(p1, Var("x", i))))
                 and hol.beta_normalize(App(sub["Q"], c1)) == App(p1, c1)
                 and got.side_conditions == ())

    verdict(4, "matcher reproduction", repl_ok and subset_ok,
            "replacement at A := c1, R := [y, x](y = x & p1(x)); "
            "subset at Q := p1 (expanded), X := c1")


def test_criterion_5_type_soundness_and_fuzz(corpus_files):
    start = time.perf_counter()
    rng = random.Random(20260816)
    sig = rich_signature()
    translated_count = 0
    for _ in range(10_000):
        stmt = random_statement(rng)
        term = translate_statement(stmt, sig)
        assert hol.free_vars(term) == set()
        assert hol.metas(term) == set()
        assert type_of(term, ambient_context(term)) == PROP
        translated_count += 1

    corpus_texts = [p.read_text() for p in corpus_files]
    fuzzed = 0
    for _ in range(100_000):
        source = fuzz_source(rng, corpus_texts)
        try:
            parse_statement(source, sig)
        except SourceError:
            pass
        fuzzed += 1
    elapsed = time.perf_counter() - start
    verdict(5, "type soundness and fuzz",
            translated_count == 10_000 and fuzzed == 100_000
            and elapsed < 120.0,
            f"{translated_count} statements, {fuzzed} fuzz inputs, "
            f"{elapsed:.1f} s")


def test_criterion_6_thf_self_parse(corpus_sig, corpus_files):
    texts = {}
    clean = True
    for path in corpus_files:
        conj = translated(path, corpus_sig)
        first = emit_thf(assemble_problem(conj, [], corpus_sig))
        again = emit_thf(assemble_problem(conj, [], corpus_sig))
        texts[path.stem] = first
        clean = clean and first == again and check_thf(first) == []
    joined = "".join(texts.values())
    schemes = sum(
        1 for p in corpus_files
        if parse_statement(p.read_text(), corpus_sig).prefix)
    covered = ("thf(eps_tp" in joined and "thf(replSep_1_tp" in joined
               and schemes >= 1)
    verdict(6, "THF self-parse", len(texts) >= 10 and clean and covered,
            f"{len(texts)} problems, all deterministic, zero diagnostics")


def _mentions(node, kinds) -> bool:
    if isinstance(node, kinds):
        return True
    if is_dataclass(node):
        return any(_mentions(getattr(node, f.name), kinds)
                   for f in fields(node))
    if isinstance(node, tuple):
        return any(_mentions(entry, kinds) for entry in node)
    return False


def _consumed_positions(stmt):
    """The statement parts the translation reads terms from.  A
    predicate variable's argument types are arity markers only, so a
    term buried there never reaches the output."""
    return tuple(d for d in stmt.prefix
                 if not isinstance(d, PredDecl)) + (stmt.body,)


def test_criterion_7_demand_discipline(corpus_sig, corpus_files):
    rng = random.Random(7007)
    rich = rich_signature()
    jobs = [(parse_statement(p.read_text(), corpus_sig), corpus_sig)
            for p in corpus_files]
    jobs += [(random_statement(rng), rich) for _ in range(1000)]
    checked = 0
    ok = True
    for stmt, sig in jobs:
        term = translate_statement(stmt, sig)
        text = emit_thf(assemble_problem(term, [], sig))
        seen = _consumed_positions(stmt)
        wants_choice = _mentions(seen, The)
        wants_fraenkel = _mentions(seen, Fraenkel)
        ok = ok and ("thf(eps_tp" in text) == wants_choice
        ok = ok and ("thf(epsax" in text) == wants_choice
        ok = ok and ("thf(sethood_tp" in text) == wants_fraenkel
        ok = ok and ("thf(replSep_" in text) == wants_fraenkel
        ok = ok and ("thf(replSepI_" in text) == wants_fraenkel
        checked += 1
    verdict(7, "demand discipline", ok and checked == len(jobs),
            f"{checked} problems")


def test_criterion_8_matcher_soundness():
    rng = random.Random(88)
    solved = 0
    total = 100_000
    start = time.perf_counter()
    for _ in range(total):
        pattern, ground, solution = planted_problem(rng)
        sigma = pattern_match([DisagreementPair((), pattern, ground)])
        for m, value in solution.items():
            assert alpha_eq(sigma[m], value)
        assert alpha_eq(sigma.apply(pattern), ground)
        solved += 1
    elapsed = time.perf_counter() - start
    verdict(8, "matcher soundness", solved == total,
            f"{solved}/{total} planted problems reproduced, "
            f"{elapsed:.1f} s")


def test_parser_and_well_formed_agree():
    """Beside the criteria: the parser and ``well_formed`` judge names
    alike.  (a) What ``parse_statement`` returns is well formed; (b) a
    well-formed AST parses back from its print; (c) an ill-formed one
    never does."""
    sig = rich_signature()
    rng = random.Random(20261019)
    statements = [random_statement(rng) for _ in range(3000)]
    mutants = [mutate_statement(rng, statements[i % 3000])
               for i in range(10_000)]
    outcomes = {"refused": 0, "parsed back": 0, "parsed otherwise": 0}
    for s in statements + mutants:
        text = print_statement(s)
        clean = well_formed(s, sig) == []
        try:
            got = parse_statement(text, sig)
        except SourceError:
            assert not clean, text
            outcomes["refused"] += 1
            continue
        assert well_formed(got, sig) == [], text
        assert (got == s) == clean, text
        outcomes["parsed back" if got == s else "parsed otherwise"] += 1
    # the mutants reach every outcome, not only refusals
    assert min(outcomes.values()) > 500, outcomes
