"""Abstract syntax for the idealized Mizar fragment.

A statement is a prefix of scheme-variable declarations followed by a
proposition.  Types are soft: ``set``, mode applications (with the
subject argument left implicit), and attribute prefixes.  Terms include
the global choice operator ``the T`` and Fraenkel comprehensions
``{ t where x1 is T1, ... : p }``.  Quantifiers bind object variables
only; second-order generality lives exclusively in the prefix.

``Signature`` records the constant names a statement may mention.
Membership is not among them: ``in`` is a keyword of the concrete syntax
and ``MIn`` its only node, and a signature refuses to declare ``in``.

The parser, ``well_formed``, the translation and the printer read the
node rules from tables here: ``BINDINGS`` (where a named node finds its
name, which kinds it takes, how diagnostics name it; ``NODES`` reads it
backwards), and ``CONNECTIVES`` and ``QUANTIFIERS`` (words and HOL
constructor; a connective ranks as its constructor does in
``hol.OPERATORS``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple

from . import hol

# ------------------------------------------------------------ signature

OBJ = "obj"
FUNC = "func"
PRED = "pred"
MODE = "mode"
ATTR = "attr"

MEMBER = "in"  # the membership keyword, never a signature entry

# The largest arity a signature may declare: a function and a predicate
# of it emit in one statement, where about 330 exhausts the stack.
MAX_SIG_ARITY = 255

# names the translation target reserves for its own constant family
_RESERVED = re.compile(r"eps|r2_hidden|sethood|replSep_[0-9]+")


class SigEntry(NamedTuple):
    kind: str
    arity: int

    @cache  # one shared type per (kind, arity), cheap to compare
    def hol_type(self) -> hol.Type:
        # an object has arity 0; pred, mode and attr are all predicates
        result = hol.IND if self.kind in (OBJ, FUNC) else hol.PROP
        return hol.fn(*([hol.IND] * self.arity), result)


class Signature:
    """Declared constants: objects, functions, predicates, modes and
    attributes.  At most one mode may be tagged as the ``Element of``
    mode; it must be binary (subject plus one argument)."""

    def __init__(self) -> None:
        self._entries: dict[str, SigEntry] = {}
        self.elementof: str | None = None

    def declare(self, name: str, kind: str, arity: int | None = None) -> None:
        if name in self._entries or name == MEMBER:
            raise DuplicateName(name)
        if _RESERVED.fullmatch(name):
            raise ValueError(f"{name!r} is reserved for the translation "
                             "target")
        if kind not in (OBJ, FUNC, PRED, MODE, ATTR):
            raise ValueError(f"unknown signature kind {kind!r}")
        if kind == OBJ:
            arity = 0
        elif kind == ATTR:
            arity = 1
        elif arity is None:
            raise ValueError(f"{kind} declaration needs an arity")
        if kind == FUNC and arity < 1:
            raise ValueError("function constants take at least one argument")
        if kind == MODE and arity < 1:
            raise ValueError("modes have arity at least one (the subject)")
        if kind == PRED and arity < 0:
            raise ValueError("negative arity")
        if arity > MAX_SIG_ARITY:
            raise ValueError(f"arity is above the limit of {MAX_SIG_ARITY}")
        self._entries[name] = SigEntry(kind, arity)

    def tag_elementof(self, name: str) -> None:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownName(name)
        if entry.kind != MODE or entry.arity != 2:
            raise KindMismatch(name, "a binary mode")
        self.elementof = name

    def lookup(self, name: str) -> SigEntry | None:
        return self._entries.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


# --------------------------------------------------------------- errors


class SourceError(Exception):
    """A frontend error, optionally tied to a source position."""

    path: str | None = None  # set by the code that read the source file

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message)

    def at(self, line: int, col: int) -> SourceError:
        self.line = line
        self.col = col
        return self


class ParseError(SourceError):
    """Source text that does not follow the grammar."""


class UnknownName(SourceError):
    def __init__(self, name: str):
        super().__init__(f"unknown name {name!r}")


class ArityMismatch(SourceError):
    def __init__(self, name: str, expected: int, found: int):
        super().__init__(f"{name!r} takes {expected} argument(s), got {found}")


class KindMismatch(SourceError):
    def __init__(self, name: str, wanted: str):
        super().__init__(f"{name!r} is not {wanted}")


class DuplicateName(SourceError):
    def __init__(self, name: str):
        super().__init__(f"duplicate declaration of {name!r}")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        loc = f"{self.where}: " if self.where else ""
        return f"{loc}{self.message} [{self.code}]"


# ------------------------------------------------------------------ AST


class MType:
    __slots__ = ()


@dataclass(frozen=True)
class SetType(MType):
    pass


SET = SetType()


@dataclass(frozen=True)
class Mode(MType):
    """Mode application; the subject argument stays implicit, so the
    declared arity is one more than ``len(args)``."""

    name: str
    args: tuple[MTerm, ...] = ()


@dataclass(frozen=True)
class Attr(MType):
    name: str
    base: MType


@dataclass(frozen=True)
class NonAttr(MType):
    name: str
    base: MType


class MTerm:
    __slots__ = ()


@dataclass(frozen=True)
class ObjVar(MTerm):
    name: str


@dataclass(frozen=True)
class ObjConst(MTerm):
    name: str


@dataclass(frozen=True)
class FunVarApp(MTerm):
    name: str
    args: tuple[MTerm, ...]


@dataclass(frozen=True)
class FunConstApp(MTerm):
    name: str
    args: tuple[MTerm, ...]


@dataclass(frozen=True)
class The(MTerm):
    """Global choice: some fixed individual of the given type."""

    mtype: MType


@dataclass(frozen=True)
class Fraenkel(MTerm):
    """``{ body where x1 is T1, ... : guard }``.

    Binder ``xi``'s type may mention ``x1 .. x(i-1)``; body and guard see
    every binder.
    """

    binders: tuple[tuple[str, MType], ...]
    body: MTerm
    guard: MProp


class MProp:
    __slots__ = ()


@dataclass(frozen=True)
class PredVarApp(MProp):
    name: str
    args: tuple[MTerm, ...] = ()


@dataclass(frozen=True)
class PredConstApp(MProp):
    name: str
    args: tuple[MTerm, ...] = ()


@dataclass(frozen=True)
class MEq(MProp):
    lhs: MTerm
    rhs: MTerm


@dataclass(frozen=True)
class MIn(MProp):
    lhs: MTerm
    rhs: MTerm


@dataclass(frozen=True)
class MNot(MProp):
    arg: MProp


@dataclass(frozen=True)
class MConnective(MProp):
    """A binary connective; ``CONNECTIVES`` has the rest of its rule."""

    lhs: MProp
    rhs: MProp


class MAnd(MConnective):
    pass


class MOr(MConnective):
    pass


class MImp(MConnective):
    pass


class MIff(MConnective):
    pass


@dataclass(frozen=True)
class MQuantifier(MProp):
    """A quantifier over one object variable; see ``QUANTIFIERS``."""

    var: str
    mtype: MType
    body: MProp


class ForBeing(MQuantifier):
    pass


class ExBeing(MQuantifier):
    pass


class VarDecl:
    __slots__ = ()


@dataclass(frozen=True)
class ObjDecl(VarDecl):
    name: str
    mtype: MType


@dataclass(frozen=True)
class FunDecl(VarDecl):
    name: str
    args: tuple[MType, ...]
    result: MType


@dataclass(frozen=True)
class PredDecl(VarDecl):
    name: str
    args: tuple[MType, ...] = ()


@dataclass(frozen=True)
class MStatement:
    """A scheme: variable declarations in ``prefix`` scope over ``body``.

    A bare statement is the empty-prefix case.  The optional name comes
    from the surface syntax and does not affect equality.
    """

    prefix: tuple[VarDecl, ...]
    body: MProp
    name: str | None = field(default=None, compare=False)


# ---------------------------------------------------------- node rules


@dataclass(frozen=True, slots=True)
class Binding:
    """Where a named node finds its name: a ``scoped`` node in the prefix
    or a binder, any other in the signature.  The entry must have one of
    ``kinds`` and take the node's arguments plus ``subject``, the implicit
    subject of a type.  A type's name comes from the signature even
    where the same name is bound; a name that is only bound has the
    wrong kind there.  Diagnostics name the node by ``noun`` (an unknown
    name, a type's arity) and the kind it needs by ``wanted``."""

    scoped: bool
    kinds: tuple[str, ...]
    noun: str
    wanted: str
    subject: int = 0


BINDINGS: dict[type, Binding] = {
    ObjVar: Binding(True, (OBJ,), "object variable", "an object variable"),
    ObjConst: Binding(False, (OBJ,), "constant", "an object constant"),
    FunVarApp: Binding(True, (FUNC,), "function variable",
                       "a function variable"),
    FunConstApp: Binding(False, (FUNC,), "function", "a function constant"),
    PredVarApp: Binding(True, (PRED,), "predicate variable",
                        "a predicate variable"),
    # attributes and modes double as predicate constants
    PredConstApp: Binding(False, (PRED, ATTR, MODE), "predicate",
                          "a predicate"),
    Mode: Binding(False, (MODE,), "mode", "a mode", 1),
    Attr: Binding(False, (ATTR,), "attribute", "an attribute", 1),
    NonAttr: Binding(False, (ATTR,), "attribute", "an attribute", 1),
}

# The parser's reading: ``NODES[category][scoped][kind]`` is the node a
# binding makes where an MTerm, MProp or MType is expected.  Only ``non``
# makes a NonAttr.
NODES: dict[type, dict[bool, dict[str, type]]] = {
    category: {scoped: {kind: node for node, b in BINDINGS.items()
                        if node.__bases__[0] is category
                        and b.scoped == scoped and node is not NonAttr
                        for kind in b.kinds}
               for scoped in (True, False)}
    for category in (MTerm, MProp, MType)}


class Connective(NamedTuple):
    word: str
    target: type  # a key of ``hol.OPERATORS``

    @property
    def level(self) -> int:
        """The target's level: binds tighter than every lower level."""
        return hol.OPERATORS[self.target][1]


# Binary connectives, loosest first; all associate to the right.
CONNECTIVES: dict[type, Connective] = {
    MIff: Connective("iff", hol.Iff),
    MImp: Connective("implies", hol.Imp),
    MOr: Connective("or", hol.Or),
    MAnd: Connective("&", hol.And),
}


class Quantifier(NamedTuple):
    word: str
    body_word: str  # between the typed variables and the body
    target: Callable[[str, hol.Type, hol.Term], hol.Term]


QUANTIFIERS: dict[type, Quantifier] = {
    ForBeing: Quantifier("for", "holds", hol.All),
    ExBeing: Quantifier("ex", "st", hol.Ex),
}


# --------------------------------------------------------- well-formed

# (kind, arity) pairs like ``SigEntry``: (OBJ, 0), (FUNC, n) or (PRED, n)
_Scope = dict[str, tuple[str, int]]


def well_formed(s: MStatement, sig: Signature) -> list[Diagnostic]:
    """Structural validity of an AST against a signature.

    Returns one diagnostic per violation: unknown or misused names,
    arity errors, duplicate declarations and binders.  The list is empty
    exactly when every node invariant holds.  Shadowing of prefix
    variables by quantifier or Fraenkel binders is allowed, and a bound
    name shadows a signature constant (not a type), as in the parser.
    """
    check = _WellFormed(sig)
    scope: _Scope = {}
    for i, decl in enumerate(s.prefix):
        where = f"prefix[{i}]"
        match decl:
            case ObjDecl(name, mt):
                check.check_type(mt, scope, where)
                new = (OBJ, 0)
            case FunDecl(name, args, result):
                if not args:
                    check.bad("arity-mismatch",
                              f"function variable {name!r} needs at least "
                              "one argument type", where)
                for j, a in enumerate(args):
                    check.check_type(a, scope, (where, ".args", j))
                check.check_type(result, scope, (where, ".result"))
                new = (FUNC, len(args))
            case PredDecl(name, args):
                for j, a in enumerate(args):
                    check.check_type(a, scope, (where, ".args", j))
                new = (PRED, len(args))
            case _:
                check.bad("bad-node", f"not a declaration: {decl!r}", where)
                continue
        if name in scope:
            check.bad("duplicate-decl",
                      f"{name!r} declared twice in prefix", where)
        scope[name] = new
    check.check_prop(s.body, scope, "body")
    return check.out


class _WellFormed:
    """``well_formed``'s walk: the signature it checks against, and the
    diagnostics found so far."""

    __slots__ = ("sig", "out")

    def __init__(self, sig: Signature) -> None:
        self.sig = sig
        self.out: list[Diagnostic] = []

    def bad(self, code: str, message: str, where: hol._Where) -> None:
        self.out.append(Diagnostic(code, message, hol._path(where)))

    def check_name(self, node: object, name: str, args: tuple[MTerm, ...],
                   scope: _Scope, where: hol._Where) -> None:
        """``node``'s ``BINDINGS`` row on its name, then its arguments."""
        b = BINDINGS[type(node)]
        got = scope.get(name) if b.scoped else self.sig.lookup(name)
        if got is None and not (b.subject and name in scope):
            self.bad("unknown-name", f"{b.noun} {name!r} is not in scope"
                     if b.scoped else f"unknown {b.noun} {name!r}", where)
        elif got is None or got[0] not in b.kinds:
            self.bad("kind-mismatch", f"{name!r} is not {b.wanted}", where)
        elif got[1] != len(args) + b.subject:
            what = f"{b.noun} " if b.subject else ""
            self.bad("arity-mismatch", f"{what}{name!r} takes "
                     f"{got[1] - b.subject} argument(s), got {len(args)}",
                     where)
        elif name in scope and not (b.scoped or b.subject):
            self.bad("shadowed-name", f"{b.noun} {name!r} is shadowed by "
                     "a bound name", where)
        if args:
            for i, a in enumerate(args):
                self.check_term(a, scope, (where, ".args", i))

    def check_type(self, t: MType, scope: _Scope, where: hol._Where) -> None:
        match t:
            case SetType():
                pass
            case Mode(name, args):
                self.check_name(t, name, args, scope, where)
            case Attr(name, base) | NonAttr(name, base):
                self.check_name(t, name, (), scope, where)
                self.check_type(base, scope, (where, ".base"))
            case _:
                self.bad("bad-node", f"not an MType: {t!r}", where)

    def check_term(self, t: MTerm, scope: _Scope, where: hol._Where) -> None:
        match t:
            case ObjVar(name) | ObjConst(name):
                self.check_name(t, name, (), scope, where)
            case FunVarApp(name, ()):
                self.check_name(t, name, (), scope, where)
                self.bad("arity-mismatch",
                         f"function application {name!r} needs arguments",
                         where)
            case FunVarApp(name, args) | FunConstApp(name, args):
                self.check_name(t, name, args, scope, where)
            case The(mtype):
                self.check_type(mtype, scope, (where, ".type"))
            case Fraenkel(binders, body, guard):
                if not binders:
                    self.bad("empty-binders",
                             "comprehension needs at least one binder", where)
                inner = dict(scope)
                seen: set[str] = set()
                for i, (name, mt) in enumerate(binders):
                    if name in seen:
                        self.bad("duplicate-binder", f"binder {name!r} "
                                 "repeated", (where, ".binders", i))
                    seen.add(name)
                    self.check_type(mt, inner, (where, ".binders", i))
                    inner[name] = (OBJ, 0)
                self.check_term(body, inner, (where, ".body"))
                self.check_prop(guard, inner, (where, ".guard"))
            case _:
                self.bad("bad-node", f"not an MTerm: {t!r}", where)

    def check_prop(self, p: MProp, scope: _Scope, where: hol._Where) -> None:
        match p:
            case PredVarApp(name, args) | PredConstApp(name, args):
                self.check_name(p, name, args, scope, where)
            case MEq(l, r) | MIn(l, r):
                self.check_term(l, scope, (where, ".lhs"))
                self.check_term(r, scope, (where, ".rhs"))
            case MNot(a):
                self.check_prop(a, scope, (where, ".arg"))
            case MConnective(l, r):
                self.check_prop(l, scope, (where, ".lhs"))
                self.check_prop(r, scope, (where, ".rhs"))
            case MQuantifier(var, mt, body):
                self.check_type(mt, scope, (where, ".type"))
                self.check_prop(body, {**scope, var: (OBJ, 0)},
                                (where, ".body"))
            case _:
                self.bad("bad-node", f"not an MProp: {p!r}", where)
