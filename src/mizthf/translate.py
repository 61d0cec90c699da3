"""Compile statements into higher-order terms.

Types become predicates over individuals, compiled straight to the
guard for a given subject: ``set`` is literal truth, a mode application
is the mode's constant applied to the subject and the mode arguments,
and attributes conjoin onto their base's guard.  Quantifiers relativize
by the bound variable's guard; guards that are literal truth are
dropped (so ``for x being set holds p`` is plain universal
quantification), and that is the only simplification performed.  A type
becomes a class (a lambda) only where a term needs one: ``the T`` and
Fraenkel binders.  No redex is ever built, so the result is beta-normal
by construction and nothing here substitutes.

The prefix compiles to outermost quantifiers: object variables like
bound variables, function variables with a typing guard relativizing
their graph, predicate variables with no guard at all.

Choice terms apply ``eps`` to the class; a comprehension with n binders
applies ``replSep_n`` to the n binder classes (each abstracted over the
earlier binders), the map, and the guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hol
from .declarations import (
    choice, member, replsep_name, replsep_type,
)
from .hol import All, And, Const, Eq, Imp, IND, Lam, PROP, TOP, Var
from .mizar import (
    BINDINGS, CONNECTIVES, QUANTIFIERS,
    Attr, Fraenkel, FunConstApp, FunDecl, FunVarApp, MConnective, MEq, MIn,
    MNot, MProp, MQuantifier, MStatement, MTerm, MType, Mode, NonAttr,
    ObjConst, ObjDecl, ObjVar, PredConstApp, PredDecl, PredVarApp, SetType,
    Signature, The,
)

# The largest comprehension binder count, unless a caller sets another.
MAX_ARITY = 6


class TranslationError(Exception):
    pass


@dataclass(frozen=True)
class TransEnv:
    """Translation-time scope: the signature, the statement variables
    currently in scope with their target types, and the comprehension
    arity limit."""

    sig: Signature
    scope: dict[str, hol.Type] = field(default_factory=dict)
    max_arity: int = MAX_ARITY

    def bind(self, name: str, ty: hol.Type) -> TransEnv:
        return TransEnv(self.sig, {**self.scope, name: ty}, self.max_arity)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is taken, so a fresh name must avoid it."""
        return name in self.scope or name in self.sig

    def const(self, name: str) -> hol.Term:
        entry = self.sig.lookup(name)
        if entry is None:
            raise TranslationError(f"unknown constant {name!r}")
        return Const(name, entry.hol_type())

    def var(self, name: str) -> hol.Term:
        ty = self.scope.get(name)
        if ty is None:
            raise TranslationError(f"variable {name!r} not in scope")
        return Var(name, ty)


def _relativize(binder, var: str, t: MType, env: TransEnv,
                body: hol.Term) -> hol.Term:
    """``binder`` (``All`` or ``Ex``) over ``var : i`` restricted to the
    type ``t``: ``∀var. guard → body`` or ``∃var. guard ∧ body``.  A
    guard that is literally ``TOP`` is dropped; this is the only place
    guards are simplified."""
    guard = translate_guard(t, env, Var(var, IND))
    if guard != TOP:
        body = (Imp if binder is All else And)(guard, body)
    return binder(var, IND, body)


def _named(node: MTerm | MProp | MType, env: TransEnv,
           *subject: hol.Term) -> hol.Term:
    """A named node: its name from the scope or the signature, as its
    ``BINDINGS`` row says, applied to ``subject`` (a type's) and then to
    the node's arguments."""
    name = node.name
    head = env.var(name) if BINDINGS[type(node)].scoped else env.const(name)
    return hol.apps(head, *subject, *(translate_term(a, env)
                                      for a in getattr(node, "args", ())))


def translate_guard(t: MType, env: TransEnv, subject: hol.Term) -> hol.Term:
    """The proposition that ``subject`` (of type ``i``) has type ``t``."""
    match t:
        case SetType():
            return TOP
        case Mode():
            return _named(t, env, subject)
        case Attr(_, base) | NonAttr(_, base):
            holds = _named(t, env, subject)
            return And(holds if type(t) is Attr else hol.Not(holds),
                       translate_guard(base, env, subject))
    raise TypeError(f"unexpected type {t!r}")


def translate_type(t: MType, env: TransEnv) -> hol.Term:
    """A type as a class: a term of type ``i -> o``.

    The lambda's bound variable is fresh for everything in scope, so it
    never captures in the embedded argument translations.
    """
    x = hol.fresh_name("x", env)
    return Lam(x, IND, translate_guard(t, env, Var(x, IND)))


def translate_term(t: MTerm, env: TransEnv) -> hol.Term:
    match t:
        case ObjVar() | ObjConst() | FunVarApp() | FunConstApp():
            return _named(t, env)
        case The(mtype):
            return choice(translate_type(mtype, env))
        case Fraenkel(binders, body, guard):
            return translate_fraenkel(binders, body, guard, env)
    raise TypeError(f"unexpected term {t!r}")


def translate_fraenkel(binders, body, guard, env: TransEnv) -> hol.Term:
    n = len(binders)
    if n < 1:
        raise TranslationError("comprehension needs at least one binder")
    if n > env.max_arity:
        raise TranslationError(
            f"comprehension with {n} binders exceeds the arity limit "
            f"{env.max_arity}; raise --max-arity to allow it")
    # binder i's class, abstracted over the earlier binders
    classes: list[hol.Term] = []
    inner = env
    for i, (name, mt) in enumerate(binders):
        cls = translate_type(mt, inner)
        classes.append(hol.lams([(b, IND) for b, _ in binders[:i]], cls))
        inner = inner.bind(name, IND)
    lam_binders = [(b, IND) for b, _ in binders]
    return hol.apps(
        Const(replsep_name(n), replsep_type(n)),
        *classes,
        hol.lams(lam_binders, translate_term(body, inner)),
        hol.lams(lam_binders, translate_prop(guard, inner)))


def translate_prop(p: MProp, env: TransEnv) -> hol.Term:
    match p:
        case PredVarApp() | PredConstApp():
            return _named(p, env)
        case MEq(l, r):
            return Eq(translate_term(l, env), translate_term(r, env), IND)
        case MIn(l, r):
            return member(translate_term(l, env), translate_term(r, env))
        case MNot(a):
            return hol.Not(translate_prop(a, env))
        case MConnective(l, r):
            return CONNECTIVES[type(p)].target(translate_prop(l, env),
                                               translate_prop(r, env))
        case MQuantifier(var, mt, body):
            return _relativize(QUANTIFIERS[type(p)].target, var, mt, env,
                               translate_prop(body, env.bind(var, IND)))
    raise TypeError(f"unexpected proposition {p!r}")


def translate_statement(s: MStatement, sig: Signature,
                        max_arity: int = MAX_ARITY) -> hol.Term:
    """The whole statement as a closed proposition, prefix outermost.

    Assumes ``s`` is well formed, as what ``parse_statement`` returns is
    (``well_formed`` checks a hand-built AST); the result is beta-normal
    and has type ``o`` under the signature's constants.
    """
    return _prefix(s, 0, TransEnv(sig, {}, max_arity))


def _prefix(s: MStatement, i: int, env: TransEnv) -> hol.Term:
    """The statement from its ``i``-th prefix declaration on."""
    if i == len(s.prefix):
        return translate_prop(s.body, env)
    decl = s.prefix[i]
    match decl:
        case ObjDecl(name, mt):
            return _relativize(All, name, mt, env,
                               _prefix(s, i + 1, env.bind(name, IND)))
        case FunDecl(name, args, result):
            fty = hol.fn(*([IND] * len(args)), IND)
            xs, local = [], env
            for k in range(1, len(args) + 1):
                xs.append(Var(hol.fresh_name(f"x{k}", local), IND))
                local = local.bind(xs[-1].name, IND)
            typing = translate_guard(result, env,
                                     hol.apps(Var(name, fty), *xs))
            for mt, x in zip(reversed(args), reversed(xs)):
                typing = _relativize(All, x.name, mt, env, typing)
            rest = _prefix(s, i + 1, env.bind(name, fty))
            return All(name, fty, Imp(typing, rest))
        case PredDecl(name, args):
            pty = hol.fn(*([IND] * len(args)), PROP)
            rest = _prefix(s, i + 1, env.bind(name, pty))
            return All(name, pty, rest)
    raise TypeError(f"unexpected declaration {decl!r}")


__all__ = [
    "MAX_ARITY", "TransEnv", "TranslationError", "translate_guard",
    "translate_type", "translate_term", "translate_prop",
    "translate_statement",
]
