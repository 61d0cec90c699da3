"""The benchmark workloads, and the command-line corpus probe.

Each workload makes its inputs from a seeded ``random.Random``
(``generate``), runs one item through the program (``run``, one span
per call into a program module), and checks an output outside the
timed region (``check`` returns an error message or ``None``).  A
workload with ``output_text`` also has the bytes of its outputs for
the default seed pinned by a digest.
``run`` raises for an operation that ends without a result; the
benchmark counts those as failed and carries on.

Inputs come from ``tests/generators.py`` over ``rich_signature`` and
from ``corpus/``.  The program receives only the generated inputs:
source text for the emit workloads, terms for the matcher, files and
argv for the command line.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from generators import (
    planted_problem, random_closed_prop, random_statement, rich_signature,
)
from mizthf import hol
from mizthf.hol import Imp, Var, alpha_eq, beta_normalize, foralls, show_term
from mizthf.mizar import MStatement, well_formed
from mizthf.parser import parse_statement, tokenize
from mizthf.patterns import (
    DisagreementPair, Substitution, pattern_match,
    recover_scheme_instantiation, subst_metas,
)
from mizthf.printer import print_statement
from mizthf.thf import Problem, assemble_problem, emit_thf
from mizthf.thfcheck import check_thf
from mizthf.translate import translate_statement

# The README's hand-written answer for the Replacement scheme.
REPLACEMENT_PAIR = ("corpus/replacement.mst", "corpus/repl_instance.mst")
REPLACEMENT_ANSWER = "A := c1\nR := λx:ι. λy:ι. x = y ∧ p1 y\n"


class Failed(Exception):
    """An operation ended without a result: a diagnostic on a
    well-formed input, or a non-zero exit of the command line."""


# ------------------------------------------------------------------ emit


@dataclass(frozen=True)
class Sources:
    texts: tuple[str, ...]          # conjecture first, then premises
    asts: tuple[MStatement, ...]    # what the generator built


@dataclass
class Emitted:
    statements: list[MStatement]
    terms: list[hol.Term]
    problem: Problem
    text: str
    diagnostics: list


class EmitSingle:
    """One statement per problem: fixed support material dominates."""

    name = "emit_single"
    statements = 1
    round_size = 50
    reference_size = 200
    tail_percentile = 99.0

    def __init__(self, root: Path, expected: dict) -> None:
        self.sig = rich_signature()

    def generate(self, rng, n: int) -> list[Sources]:
        items = []
        for _ in range(n):
            asts = tuple(random_statement(rng) for _ in range(self.statements))
            items.append(Sources(tuple(map(print_statement, asts)), asts))
        return items

    def fingerprint(self, item: Sources) -> str:
        return "\n".join(item.texts)

    def run(self, item: Sources, tracer) -> Emitted:
        sig = self.sig
        statements, terms = [], []
        for text in item.texts:
            with tracer.span("parser"):
                stmt = parse_statement(text, sig)
            with tracer.span("mizar"):
                diags = well_formed(stmt, sig)
            if diags:
                raise Failed(f"diagnostic on a well-formed input: {diags[0]}")
            with tracer.span("translate"):
                term = translate_statement(stmt, sig)
            statements.append(stmt)
            terms.append(term)
        axioms = [(f"a{i}", t) for i, t in enumerate(terms[1:], 1)]
        with tracer.span("thf.assemble"):
            problem = assemble_problem(terms[0], axioms, sig)
        with tracer.span("thf.emit"):
            text = emit_thf(problem)
        with tracer.span("thfcheck"):
            diagnostics = check_thf(text)
        return Emitted(statements, terms, problem, text, diagnostics)

    def check(self, item: Sources, out: Emitted) -> str | None:
        if out.diagnostics:
            return f"check_thf: {out.diagnostics[0]}"
        if tuple(out.statements) != item.asts:
            return "parse_statement(print_statement(s)) != s"
        return None

    def output_text(self, out: Emitted) -> str:
        return out.text

    def counts(self, item: Sources, out: Emitted) -> dict[str, int]:
        decls = out.problem.declarations
        return {
            "parser.tokens": sum(len(tokenize(t)) for t in item.texts),
            "translate.term_nodes": sum(
                sum(1 for _ in hol.subterms(t)) for t in out.terms),
            "thf.decls": len(decls),
            "thf.support_axioms": sum(
                len(d.axioms) + (d.definition is not None) for d in decls),
            "thf.emit_bytes": len(out.text.encode("utf-8")),
        }


class EmitPremises(EmitSingle):
    """A conjecture plus 32 premises: per-byte layers dominate."""

    name = "emit_premises"
    statements = 33
    round_size = 4
    reference_size = 6
    tail_percentile = 95.0


# ----------------------------------------------------------------- match


@dataclass(frozen=True)
class Planted:
    pattern: hol.Term        # a pattern, or a closed scheme when extra is set
    ground: hol.Term
    solution: dict
    extra: hol.Term | None   # the hypothesis the conjecture lacks


@dataclass
class Matched:
    substitution: Substitution
    side_conditions: tuple[hol.Term, ...]


class MatchPlanted:
    """Planted matching problems; every other one is posed as a scheme
    with an extra hypothesis, so NoMatch -> peel -> retry runs."""

    name = "match_planted"
    round_size = 200
    reference_size = 400
    tail_percentile = 99.0

    def __init__(self, root: Path, expected: dict) -> None:
        pass

    def generate(self, rng, n: int) -> list[Planted]:
        items = []
        for i in range(n):
            pattern, ground, solution = planted_problem(rng)
            if i % 2 == 0:
                items.append(Planted(pattern, ground, solution, None))
                continue
            extra = random_closed_prop(rng, fuel=2)
            metas = sorted(solution, key=lambda m: m.name)
            closed = subst_metas(pattern,
                                 {m: Var(m.name, m.type) for m in metas})
            scheme = foralls([(m.name, m.type) for m in metas],
                             Imp(extra, closed))
            items.append(Planted(scheme, ground, solution, extra))
        return items

    def fingerprint(self, item: Planted) -> str:
        # The generator builds these terms with beta_normalize and
        # subst_metas, which may rename bound variables; only a change
        # beyond alpha-equality is drift.
        terms = [item.pattern, item.ground]
        lines = [alpha_canonical(show_term(t)) for t in terms]
        lines += [f"{m.name} := {alpha_canonical(show_term(v))}"
                  for m, v in sorted(item.solution.items(),
                                     key=lambda kv: kv[0].name)]
        return "\n".join(lines)

    def run(self, item: Planted, tracer) -> Matched:
        if item.extra is None:
            with tracer.span("patterns.match"):
                sigma = pattern_match(
                    [DisagreementPair((), item.pattern, item.ground)])
            return Matched(sigma, ())
        with tracer.span("patterns.recover"):
            found = recover_scheme_instantiation(
                item.pattern, item.ground, len(item.solution))
        return Matched(found.substitution, found.side_conditions)

    def check(self, item: Planted, out: Matched) -> str | None:
        got = dict(out.substitution.items())
        if got.keys() != item.solution.keys():
            return "solved metavariables differ from the planted ones"
        for m, value in item.solution.items():
            if not alpha_eq(got[m], value):
                return (f"?{m.name} := {show_term(got[m])}, "
                        f"planted {show_term(value)}")
        want = () if item.extra is None else (beta_normalize(item.extra),)
        if len(out.side_conditions) != len(want) or not all(
                alpha_eq(a, b) for a, b in zip(out.side_conditions, want)):
            return "side conditions differ from the added hypothesis"
        return None

    # No output_text: the solutions are checked with alpha_eq against the
    # planted ones, so the names of their bound variables may change.

    def counts(self, item: Planted, out: Matched) -> dict[str, int]:
        return {"patterns.solved": 1}


# A binder with its type, a metavariable, a name, or any one character.
_TOKEN = re.compile(r"[λ∀∃][^\W\d]\w*:[^.]*\. |\?\w+|[^\W\d]\w*|.", re.S)


def alpha_canonical(text: str) -> str:
    """``text`` printed by ``show_term`` with each bound variable
    renamed ``#k``, k the number of binders around its own: terms that
    are alpha-equal give the same text."""
    out: list[str] = []
    scopes: list[tuple[str, int]] = []     # (bound name, paren depth)
    depth = 0
    for tok in _TOKEN.findall(text):
        if tok[0] in "λ∀∃" and tok.endswith(". "):
            name, ty = tok[1:-2].split(":", 1)
            out.append(f"{tok[0]}#{len(scopes)}:{ty}. ")
            scopes.append((name, depth))
            continue
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            while scopes and scopes[-1][1] > depth:
                scopes.pop()
        level = next((k for k in reversed(range(len(scopes)))
                      if scopes[k][0] == tok), None)
        out.append(tok if level is None else f"#{level}")
    return "".join(out)


# ------------------------------------------------------------------- cli


class CliCorpus:
    """``python -m mizthf.cli`` on each corpus file and scheme pair, one
    process at a time: interpreter start and import dominate.  Traced
    runs time each invocation once (``cli.invocation_ms``)."""

    name = "cli_corpus"
    reference_size = 14

    def __init__(self, root: Path, expected: dict) -> None:
        self.root = root
        self.stdout_digests = expected.get("stdout", {})
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONIOENCODING="utf-8")
        sig = "corpus/common.sig"
        self.invocations = [
            ("emit", f"corpus/{p.name}", "--sig", sig)
            for p in sorted((root / "corpus").glob("*.mst"))]
        self.invocations += [
            ("match", *REPLACEMENT_PAIR, "--sig", sig),
            ("match", "corpus/subset_ex.mst", "corpus/subset_inst.mst",
             "--sig", sig),
        ]

    def generate(self, rng, n: int) -> list[tuple[str, ...]]:
        return self.invocations[:n]

    def fingerprint(self, item: tuple[str, ...]) -> str:
        files = [a for a in item if a.startswith("corpus/")]
        texts = [(self.root / f).read_text(encoding="utf-8") for f in files]
        return "\n".join([" ".join(item)] + texts)

    def run(self, item: tuple[str, ...], tracer) -> bytes:
        done = subprocess.run(
            [sys.executable, "-m", "mizthf.cli", *item], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=60)
        if done.returncode != 0:
            raise Failed(f"exit {done.returncode}: "
                         f"{done.stdout.decode('utf-8', 'replace')[-300:]}")
        return done.stdout

    def check(self, item: tuple[str, ...], out: bytes) -> str | None:
        key = " ".join(item)
        if sha256(out).hexdigest() != self.stdout_digests.get(key):
            return f"stdout of `mizthf {key}` differs from the recorded one"
        if item[1:3] == REPLACEMENT_PAIR \
                and out.decode("utf-8") != REPLACEMENT_ANSWER:
            return "replacement match differs from the README's answer"
        return None


WORKLOADS = {w.name: w for w in (EmitSingle, EmitPremises, MatchPlanted)}
