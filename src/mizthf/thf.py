"""Assemble and emit THF0 problem files.

A problem carries declarations (each may bring a defining equation and
named axioms), user axioms, and one conjecture.  ``assemble_problem``
includes exactly the support the formulas demand: membership is always
declared, choice comes in with its axiom iff ``eps`` occurs, and
``sethood`` plus the ``replSep_n`` operators and their axioms come in
iff a comprehension constant occurs.  The Element-of mode's sethood
axiom rides along only when sethood itself is present, keeping the
demand rule exact.

Emission is deterministic: same problem, same bytes.  Source names are
mangled to THF0 atomic words through a per-problem table (lower-case
initial, ``_N`` suffixes on collision); bound variables get upper-case
initials with suffixes against shadowing.

Every problem carries the same support material, so ``emit_thf`` keeps
the lines it rendered for declaration definitions and axioms, per
process.  A line is cached on the identity of its source (the
declaration for a definition, the term for an axiom, both built once
per process by ``declarations``), then on its formula name and on the
words the problem's table gives the formula's constants, so a problem
whose table mangles a name differently gets its own line.  ``_mangle``
and ``render_type`` are pure and cached too, so a type line costs one
format.  Each cache holds at most ``CACHE_SIZE`` entries (sources, and
lines per source); a full table of lines is cleared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache

from . import hol
from .declarations import (
    EPS, MEMBER, SETHOOD, Declaration, base_declarations, gen_replSep_decl,
)
from .hol import (
    All, And, App, Const, Eq, Ex, FnType, Iff, Imp, Lam, Meta, Not, Or,
    Top, Var,
)
from .mizar import Signature


CACHE_SIZE = 256


class UndeclaredConstant(Exception):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no declaration source for constant {name!r}")


@dataclass(frozen=True)
class Problem:
    """Declarations in dependency order, axioms, one conjecture."""

    declarations: tuple[Declaration, ...]
    axioms: tuple[tuple[str, hol.Term], ...]
    conjecture: tuple[str, hol.Term]


_REPLSEP_RE = re.compile(r"replSep_([1-9][0-9]*)$")


def assemble_problem(conjecture: hol.Term,
                     axioms: list[tuple[str, hol.Term]],
                     sig: Signature) -> Problem:
    """Build a problem around translated formulas.

    Every constant occurring in the formulas must be either part of the
    fixed family or declared in ``sig``.  Occurring constants whose
    annotation disagrees with the declaration raise ``IllTyped``.
    """
    occurring: dict[str, hol.Type] = {}
    for term in [conjecture] + [t for _, t in axioms]:
        hol.claim_constants(occurring, hol.constants(term))

    base = {d.name: d for d in base_declarations(sig)}
    arities = sorted(
        int(m.group(1)) for n in occurring
        if (m := _REPLSEP_RE.fullmatch(n)))
    fraenkel = bool(arities) or SETHOOD in occurring

    decls: list[Declaration] = [base[MEMBER]]
    if EPS in occurring:
        decls.append(base[EPS])
    if fraenkel:
        decls.append(base[SETHOOD])
    decls.extend(map(gen_replSep_decl, arities))

    handled = {d.name for d in decls}
    user: list[Declaration] = []
    for cname in sorted(occurring):
        if cname in handled:
            continue
        if cname == sig.elementof:
            decl = base[cname]
            if not fraenkel:
                # drop the sethood axiom when no comprehension demands it
                decl = replace(decl, axioms=tuple(
                    ax for ax in decl.axioms
                    if not ax[0].endswith("_sethood")))
            user.append(decl)
            continue
        entry = sig.lookup(cname)
        if entry is None:
            raise UndeclaredConstant(cname)
        user.append(Declaration(cname, entry.hol_type()))

    for decl in decls + user:
        if decl.name in occurring and occurring[decl.name] != decl.type:
            raise hol.IllTyped(decl.name, decl.type, occurring[decl.name])

    return Problem(tuple(decls + user), tuple(axioms), ("goal", conjecture))


# --------------------------------------------------------------- emission


class MangleTable:
    """Deterministic bijection from source names to THF0 atomic words."""

    def __init__(self) -> None:
        self._by_source: dict[str, str] = {}
        self._used: set[str] = set()

    def get(self, source: str) -> str:
        hit = self._by_source.get(source)
        if hit is not None:
            return hit
        out = unique_name(_mangle(source, "c"), self._used)
        self._by_source[source] = out
        return out


def unique_name(base: str, taken: set[str]) -> str:
    """``base``, else the first of ``base_2``, ``base_3``, ... not in
    ``taken``; the name returned is added to ``taken``."""
    out, n = base, 1
    while out in taken:
        n += 1
        out = f"{base}_{n}"
    taken.add(out)
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _mangle(source: str, lead: str) -> str:
    """``source`` as a THF0 word with ``lead``'s case on its initial:
    other characters than ASCII letters, digits and ``_`` become ``_``,
    and ``lead`` (``c`` for constants, ``X`` for variables) goes in
    front of an initial that is not a letter."""
    cleaned = "".join(c if c.isascii() and c.isalnum() or c == "_" else "_"
                      for c in source)
    if not cleaned or not cleaned[0].isalpha():
        cleaned = lead + cleaned
    case = str.upper if lead.isupper() else str.lower
    return case(cleaned[0]) + cleaned[1:]


@lru_cache(maxsize=CACHE_SIZE)
def render_type(t: hol.Type) -> str:
    match t:
        case hol.PropType():
            return "$o"
        case hol.IndType():
            return "$i"
        case FnType(dom, cod):
            dom_s = render_type(dom)
            if isinstance(dom, FnType):
                dom_s = f"({dom_s})"
            return f"{dom_s} > {render_type(cod)}"
    raise TypeError(f"unexpected type {t!r}")


_QUANT = {All: "!", Ex: "?", Lam: "^"}
_BINOP = {And: "&", Or: "|", Imp: "=>", Iff: "<=>"}

# contexts: "top" (whole formula), "body" (after a binder's colon),
# "operand" (inside an application or beside a binary operator)


def render_formula(t: hol.Term, consts: MangleTable) -> str:
    return _render(t, consts, {}, "top")


def _render(t: hol.Term, consts: MangleTable, env: dict[str, str],
            ctx: str) -> str:
    match t:
        case Var(n, _):
            try:
                return env[n]
            except KeyError:
                raise ValueError(f"open term: free variable {n!r}") from None
        case Const(n, _):
            return consts.get(n)
        case Meta(n, _):
            raise ValueError(f"cannot emit metavariable {n!r}")
        case Top():
            return "$true"
        case App():
            head, args = hol.spine(t)
            parts = [_render(s, consts, env, "operand") for s in [head, *args]]
            return f"({' @ '.join(parts)})"
        case All() | Ex() | Lam():
            quant = _QUANT[type(t)]
            binders = []
            active = set(env.values())
            while isinstance(t, (All, Ex, Lam)) and _QUANT[type(t)] == quant:
                v = unique_name(_mangle(t.var, "X"), active)
                binders.append((t.var, v, t.var_type))
                env = {**env, t.var: v}
                t = t.body
            decls = ", ".join(f"{v}: {render_type(ty)}"
                              for _, v, ty in binders)
            s = f"{quant} [{decls}] : {_render(t, consts, env, 'body')}"
            return f"({s})" if ctx == "operand" else s
        case Eq(l, r, _):
            s = (f"{_render(l, consts, env, 'operand')} = "
                 f"{_render(r, consts, env, 'operand')}")
            return s if ctx == "top" else f"({s})"
        case Not(a):
            return f"~ {_render(a, consts, env, 'operand')}"
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            op = _BINOP[type(t)]
            s = (f"{_render(l, consts, env, 'operand')} {op} "
                 f"{_render(r, consts, env, 'operand')}")
            return s if ctx == "top" else f"({s})"
    raise TypeError(f"unexpected term {t!r}")


# id(source) -> (source, the formula's constants in rendering order,
#                {(formula name, their words): line}); an entry holds its
# source, so no other object can take that id while the entry lives
_support_lines: dict[int, tuple[object, tuple[str, ...],
                                dict[tuple[str, ...], str]]] = {}


def _support_line(source: object, formula: hol.Term, fname: str,
                  role: str, consts: MangleTable) -> str:
    """The line for ``formula``, which ``source`` determines.  Looking up
    the constants' words in their rendering order claims them in
    ``consts`` exactly as rendering would."""
    entry = _support_lines.get(id(source))
    if entry is None:
        if len(_support_lines) >= CACHE_SIZE:
            _support_lines.clear()
        order = dict.fromkeys(c.name for c in hol.constants(formula))
        entry = _support_lines[id(source)] = (source, tuple(order), {})
    _, order, lines = entry
    key = (fname, *map(consts.get, order))
    line = lines.get(key)
    if line is None:
        if len(lines) >= CACHE_SIZE:
            lines.clear()
        line = f"thf({fname}, {role}, {render_formula(formula, consts)})."
        lines[key] = line
    return line


def emit_thf(problem: Problem) -> str:
    """The problem as THF0 text: type lines for every declaration, then
    defining equations, declaration axioms, user axioms, conjecture."""
    consts = MangleTable()
    names: set[str] = set()  # formula names need not map back to sources

    def formula_name(source: str) -> str:
        return unique_name(_mangle(source, "c"), names)

    # the conjecture claims its name first, so no other formula takes it
    cname, conj = problem.conjecture
    goal = formula_name(cname)
    lines: list[str] = []
    for decl in problem.declarations:
        fname = formula_name(f"{decl.name}_tp")
        lines.append(
            f"thf({fname}, type, {consts.get(decl.name)}: "
            f"{render_type(decl.type)}).")
    for decl in problem.declarations:
        if decl.definition is not None:
            fname = formula_name(f"{decl.name}_def")
            eq = Eq(Const(decl.name, decl.type), decl.definition, decl.type)
            lines.append(_support_line(decl, eq, fname, "definition", consts))
    for decl in problem.declarations:
        for ax_name, ax in decl.axioms:
            fname = formula_name(ax_name)
            lines.append(_support_line(ax, ax, fname, "axiom", consts))
    for ax_name, ax in problem.axioms:
        fname = formula_name(ax_name)
        lines.append(
            f"thf({fname}, axiom, {render_formula(ax, consts)}).")
    lines.append(
        f"thf({goal}, conjecture, {render_formula(conj, consts)}).")
    return "\n".join(lines) + "\n"

