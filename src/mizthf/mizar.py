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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import hol

# ------------------------------------------------------------ signature

OBJ = "obj"
FUNC = "func"
PRED = "pred"
MODE = "mode"
ATTR = "attr"

MEMBER = "in"  # the membership keyword, never a signature entry

# names the translation target reserves for its own constant family
_RESERVED = re.compile(r"eps|r2_hidden|sethood|replSep_[0-9]+")


@dataclass(frozen=True)
class SigEntry:
    kind: str
    arity: int

    def hol_type(self) -> hol.Type:
        if self.kind == OBJ:
            return hol.IND
        if self.kind == FUNC:
            return hol.fn(*([hol.IND] * self.arity), hol.IND)
        # pred, mode and attr are all predicates over individuals
        return hol.fn(*([hol.IND] * self.arity), hol.PROP)


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
        if kind not in (OBJ, FUNC, PRED, MODE, ATTR):
            raise ValueError(f"unknown signature kind {kind!r}")
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
    def __init__(self, message: str, line: int | None = None, col: int | None = None,
                 expected: str | None = None):
        self.expected = expected
        super().__init__(message, line, col)


class UnknownName(SourceError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown name {name!r}")


class ArityMismatch(SourceError):
    def __init__(self, name: str, expected: int, found: int):
        self.name = name
        self.expected = expected
        self.found = found
        super().__init__(f"{name!r} takes {expected} argument(s), got {found}")


class KindMismatch(SourceError):
    def __init__(self, name: str, wanted: str):
        self.name = name
        self.wanted = wanted
        super().__init__(f"{name!r} is not {wanted}")


class DuplicateName(SourceError):
    def __init__(self, name: str):
        self.name = name
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
class MAnd(MProp):
    lhs: MProp
    rhs: MProp


@dataclass(frozen=True)
class MOr(MProp):
    lhs: MProp
    rhs: MProp


@dataclass(frozen=True)
class MImp(MProp):
    lhs: MProp
    rhs: MProp


@dataclass(frozen=True)
class MIff(MProp):
    lhs: MProp
    rhs: MProp


@dataclass(frozen=True)
class ForBeing(MProp):
    var: str
    mtype: MType
    body: MProp


@dataclass(frozen=True)
class ExBeing(MProp):
    var: str
    mtype: MType
    body: MProp


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


# --------------------------------------------------------- well-formed

# scope values: (OBJ, 0) for object variables, (FUNC, n), (PRED, n)
_Scope = dict[str, tuple[str, int]]


def well_formed(s: MStatement, sig: Signature) -> list[Diagnostic]:
    """Structural validity of an AST against a signature.

    Returns one diagnostic per violation: unknown or misused names,
    arity errors, duplicate declarations and binders.  The list is empty
    exactly when every node invariant holds.  Shadowing of prefix
    variables by quantifier or Fraenkel binders is allowed.
    """
    out: list[Diagnostic] = []

    def bad(code: str, message: str, where: hol._Where) -> None:
        out.append(Diagnostic(code, message, hol._path(where)))

    def check_type(t: MType, scope: _Scope, where: hol._Where) -> None:
        match t:
            case SetType():
                pass
            case Mode(name, args):
                entry = sig.lookup(name)
                if entry is None and name not in scope:
                    bad("unknown-name", f"unknown mode {name!r}", where)
                elif entry is None or entry.kind != MODE:
                    bad("kind-mismatch", f"{name!r} is not a mode", where)
                elif entry.arity != len(args) + 1:
                    bad("arity-mismatch",
                        f"mode {name!r} takes {entry.arity - 1} argument(s), "
                        f"got {len(args)}", where)
                for i, a in enumerate(args):
                    check_term(a, scope, (where, ".args", i))
            case Attr(name, base) | NonAttr(name, base):
                entry = sig.lookup(name)
                if entry is None and name not in scope:
                    bad("unknown-name", f"unknown attribute {name!r}", where)
                elif entry is None or entry.kind != ATTR:
                    bad("kind-mismatch", f"{name!r} is not an attribute", where)
                check_type(base, scope, (where, ".base"))
            case _:
                bad("bad-node", f"not an MType: {t!r}", where)

    def check_term(t: MTerm, scope: _Scope, where: hol._Where) -> None:
        match t:
            case ObjVar(name):
                got = scope.get(name)
                if got is None:
                    bad("unknown-name",
                        f"object variable {name!r} is not in scope", where)
                elif got[0] != OBJ:
                    bad("kind-mismatch",
                        f"{name!r} is not an object variable", where)
            case ObjConst(name):
                entry = sig.lookup(name)
                if entry is None:
                    bad("unknown-name", f"unknown constant {name!r}", where)
                elif entry.kind != OBJ:
                    bad("kind-mismatch",
                        f"{name!r} is not an object constant", where)
            case FunVarApp(name, args):
                got = scope.get(name)
                if got is None:
                    bad("unknown-name",
                        f"function variable {name!r} is not in scope", where)
                elif got[0] != FUNC:
                    bad("kind-mismatch",
                        f"{name!r} is not a function variable", where)
                elif got[1] != len(args):
                    bad("arity-mismatch",
                        f"{name!r} takes {got[1]} argument(s), got {len(args)}",
                        where)
                if not args:
                    bad("arity-mismatch",
                        f"function application {name!r} needs arguments", where)
                for i, a in enumerate(args):
                    check_term(a, scope, (where, ".args", i))
            case FunConstApp(name, args):
                entry = sig.lookup(name)
                if entry is None:
                    bad("unknown-name", f"unknown function {name!r}", where)
                elif entry.kind != FUNC:
                    bad("kind-mismatch",
                        f"{name!r} is not a function constant", where)
                elif entry.arity != len(args):
                    bad("arity-mismatch",
                        f"{name!r} takes {entry.arity} argument(s), "
                        f"got {len(args)}", where)
                for i, a in enumerate(args):
                    check_term(a, scope, (where, ".args", i))
            case The(mtype):
                check_type(mtype, scope, (where, ".type"))
            case Fraenkel(binders, body, guard):
                if not binders:
                    bad("empty-binders",
                        "comprehension needs at least one binder", where)
                inner = dict(scope)
                seen: set[str] = set()
                for i, (name, mt) in enumerate(binders):
                    if name in seen:
                        bad("duplicate-binder",
                            f"binder {name!r} repeated", (where, ".binders", i))
                    seen.add(name)
                    check_type(mt, inner, (where, ".binders", i))
                    inner[name] = (OBJ, 0)
                check_term(body, inner, (where, ".body"))
                check_prop(guard, inner, (where, ".guard"))
            case _:
                bad("bad-node", f"not an MTerm: {t!r}", where)

    def check_prop(p: MProp, scope: _Scope, where: hol._Where) -> None:
        match p:
            case PredVarApp(name, args):
                got = scope.get(name)
                if got is None:
                    bad("unknown-name",
                        f"predicate variable {name!r} is not in scope", where)
                elif got[0] != PRED:
                    bad("kind-mismatch",
                        f"{name!r} is not a predicate variable", where)
                elif got[1] != len(args):
                    bad("arity-mismatch",
                        f"{name!r} takes {got[1]} argument(s), got {len(args)}",
                        where)
                for i, a in enumerate(args):
                    check_term(a, scope, (where, ".args", i))
            case PredConstApp(name, args):
                entry = sig.lookup(name)
                # attributes and modes double as predicate constants
                if entry is None:
                    bad("unknown-name", f"unknown predicate {name!r}", where)
                elif entry.kind not in (PRED, ATTR, MODE):
                    bad("kind-mismatch", f"{name!r} is not a predicate", where)
                elif entry.arity != len(args):
                    bad("arity-mismatch",
                        f"{name!r} takes {entry.arity} argument(s), "
                        f"got {len(args)}", where)
                for i, a in enumerate(args):
                    check_term(a, scope, (where, ".args", i))
            case MEq(l, r) | MIn(l, r):
                check_term(l, scope, (where, ".lhs"))
                check_term(r, scope, (where, ".rhs"))
            case MNot(a):
                check_prop(a, scope, (where, ".arg"))
            case MAnd(l, r) | MOr(l, r) | MImp(l, r) | MIff(l, r):
                check_prop(l, scope, (where, ".lhs"))
                check_prop(r, scope, (where, ".rhs"))
            case ForBeing(var, mt, body) | ExBeing(var, mt, body):
                check_type(mt, scope, (where, ".type"))
                check_prop(body, {**scope, var: (OBJ, 0)}, (where, ".body"))
            case _:
                bad("bad-node", f"not an MProp: {p!r}", where)

    scope: _Scope = {}
    for i, decl in enumerate(s.prefix):
        where = f"prefix[{i}]"
        match decl:
            case ObjDecl(name, mt):
                check_type(mt, scope, where)
                new = (OBJ, 0)
            case FunDecl(name, args, result):
                if not args:
                    bad("arity-mismatch",
                        f"function variable {name!r} needs at least one "
                        "argument type", where)
                for j, a in enumerate(args):
                    check_type(a, scope, (where, ".args", j))
                check_type(result, scope, (where, ".result"))
                new = (FUNC, len(args))
            case PredDecl(name, args):
                for j, a in enumerate(args):
                    check_type(a, scope, (where, ".args", j))
                new = (PRED, len(args))
            case _:
                bad("bad-node", f"not a declaration: {decl!r}", where)
                continue
        if name in scope:
            bad("duplicate-decl", f"{name!r} declared twice in prefix", where)
        scope[name] = new
    check_prop(s.body, scope, "body")
    return out
