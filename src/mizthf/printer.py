"""Render statement ASTs back to concrete syntax.

The output uses canonical single-space separation and the fewest
parentheses the grammar's precedence allows, so parsing it again yields
the same AST.  Quantified propositions are parenthesized whenever they
appear under a connective; the ``Element of`` sugar is not re-created
(the underlying mode application is printed instead).
"""

from __future__ import annotations

from .mizar import (
    CONNECTIVES, QUANTIFIERS,
    Attr, Fraenkel, FunConstApp, FunDecl, FunVarApp, MConnective, MEq, MIn,
    MNot, MProp, MQuantifier, MStatement, MTerm, MType, Mode, NonAttr,
    ObjConst, ObjDecl, ObjVar, PredConstApp, PredDecl, PredVarApp, SetType,
    The, VarDecl,
)

# ``not`` binds tighter than every connective of ``CONNECTIVES``.
_LEVEL_NOT = 1 + max(c.level for c in CONNECTIVES.values())


def print_statement(s: MStatement) -> str:
    """One-line concrete syntax for a statement."""
    if not s.prefix and s.name is None:
        return f"statement : {print_prop(s.body)}"
    name = s.name or "Scheme"
    decls = ", ".join(print_decl(d) for d in s.prefix)
    inner = f"{{ {decls} }}" if decls else "{ }"
    return f"scheme {name} {inner} : {print_prop(s.body)}"


def print_decl(d: VarDecl) -> str:
    match d:
        case ObjDecl(name, mt):
            return f"{name}() -> {print_type(mt)}"
        case FunDecl(name, args, result):
            inner = ", ".join(print_type(a) for a in args)
            return f"{name}({inner}) -> {print_type(result)}"
        case PredDecl(name, args):
            inner = ", ".join(print_type(a) for a in args)
            return f"{name}[{inner}]"
    raise TypeError(f"unexpected declaration {d!r}")


def print_type(t: MType) -> str:
    match t:
        case SetType():
            return "set"
        case Mode(name, ()):
            return name
        case Mode(name, args):
            inner = ", ".join(print_term(a) for a in args)
            return f"{name}({inner})"
        case Attr(name, base):
            return f"{name} {print_type(base)}"
        case NonAttr(name, base):
            return f"non {name} {print_type(base)}"
    raise TypeError(f"unexpected type {t!r}")


def print_term(t: MTerm) -> str:
    match t:
        case ObjVar(name) | ObjConst(name):
            return name
        case FunVarApp(name, args) | FunConstApp(name, args):
            inner = ", ".join(print_term(a) for a in args)
            return f"{name}({inner})"
        case The(mt):
            return f"the {print_type(mt)}"
        case Fraenkel(binders, body, guard):
            bs = ", ".join(f"{n} is {print_type(mt)}" for n, mt in binders)
            return f"{{ {print_term(body)} where {bs} : {print_prop(guard)} }}"
    raise TypeError(f"unexpected term {t!r}")


def print_prop(p: MProp, need: int = 0) -> str:
    def wrap(s: str, have: int) -> str:
        return f"({s})" if have < need else s

    match p:
        case PredVarApp(name, args):
            inner = ", ".join(print_term(a) for a in args)
            return f"{name}[{inner}]"
        case PredConstApp(name, args):
            inner = ", ".join(print_term(a) for a in args)
            return f"{name}({inner})"
        case MEq(l, r):
            return f"{print_term(l)} = {print_term(r)}"
        case MIn(l, r):
            return f"{print_term(l)} in {print_term(r)}"
        case MNot(a):
            return wrap(f"not {print_prop(a, _LEVEL_NOT)}", _LEVEL_NOT)
        case MConnective(l, r):
            c = CONNECTIVES[type(p)]
            return wrap(f"{print_prop(l, c.level + 1)} {c.word} "
                        f"{print_prop(r, c.level)}", c.level)
        case MQuantifier(v, mt, body):
            q = QUANTIFIERS[type(p)]
            return wrap(f"{q.word} {v} being {print_type(mt)} "
                        f"{q.body_word} {print_prop(body)}", 0)
    raise TypeError(f"unexpected proposition {p!r}")
