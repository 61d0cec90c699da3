"""Simply typed higher-order terms.

Two base types: ``o`` (propositions) and ``i`` (individuals, i.e. sets).
Terms follow Church: binders carry the bound variable's type, and every
variable and constant occurrence is annotated.  The logical constants
(truth, equality, the connectives and quantifiers) are primitive term
formers rather than applied constants, mirroring the source grammar they
are compiled from.

Bound names carry no semantic weight.  ``alpha_eq`` compares binder
structure by de Bruijn level, ``substitute`` (behind ``subst_var`` and
``patterns.subst_metas``) replaces variables and metavariables at once,
renaming on capture, and ``beta_normalize`` gives the beta-normal form
(no eta) of a term; that of an instance under closed values comes in
one walk, the private ``_normal_instance``, from
``patterns.Substitution.apply``.

``_free_and_constants`` is the one walk that collects a term's free
variables and constants, in preorder.  Typing contexts are claimed in
that order, so a conflict is reported at the first occurrence the walk
meets, whatever the hash seed.

The 14 constructors share 7 field layouts, each declared once: ``Var``,
``Const`` and ``Meta`` are empty subclasses of ``Named``, ``Lam``,
``All`` and ``Ex`` of ``Binder``, and the connectives of ``Binary``.
Equality compares the exact class: ``And(a, b) != Or(a, b)``.

``children`` and ``map_children`` are the only code outside typing and
printing that lists the constructors, each as one table keyed on a
term's exact class (so a constructor's subclass, or a bare shape, is
foreign to them).  Every other walk, here and in ``patterns``, handles
the cases where it differs (variables, metavariables, binders) and
hands the rest to that pair, so a new constructor needs only those two
to change.

A walk holds no reference to itself: its state is passed in as
arguments or held by a small class, and ``substitute``'s ``go``, the
one nested function handed to ``map_children`` as its own callback, is
deleted in a ``finally``.  So a call leaves no reference cycle behind,
and reference counting frees what it built as soon as it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Container, Iterable, Iterator, Mapping, NoReturn


# ---------------------------------------------------------------- types


class Type:
    """Base class for simple types."""

    __slots__ = ()


@dataclass(frozen=True)
class PropType(Type):
    """The type of propositions."""

    def __str__(self) -> str:
        return "o"


@dataclass(frozen=True)
class IndType(Type):
    """The type of individuals; every set lives here."""

    def __str__(self) -> str:
        return "ι"


@dataclass(frozen=True)
class FnType(Type):
    dom: Type
    cod: Type

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, FnType) else str(self.dom)
        return f"{dom}→{self.cod}"


PROP = PropType()
IND = IndType()


def fn(*types: Type) -> Type:
    """Right-nested function type: ``fn(a, b, c)`` is ``a -> (b -> c)``."""
    if not types:
        raise ValueError("fn() needs at least one type")
    out = types[-1]
    for t in reversed(types[:-1]):
        out = FnType(t, out)
    return out


def arg_types(t: Type) -> tuple[Type, ...]:
    """The domains of a right-nested function type, outermost first."""
    out = []
    while isinstance(t, FnType):
        out.append(t.dom)
        t = t.cod
    return tuple(out)


def result_type(t: Type) -> Type:
    while isinstance(t, FnType):
        t = t.cod
    return t


# ---------------------------------------------------------------- terms


class Term:
    """Base class for terms."""

    __slots__ = ()

    def __str__(self) -> str:
        return show_term(self)


@dataclass(frozen=True)
class Named(Term):
    """The shape of ``Var``, ``Const`` and ``Meta``."""

    name: str
    type: Type


class Var(Named):
    pass


class Const(Named):
    pass


class Meta(Named):
    """A metavariable (matching hole).

    Lives in a namespace disjoint from ``Var``/``Const``: binders never
    bind it and ``subst_var`` never touches it.  Only the pattern-matching
    engine instantiates these, by ``substitute`` or ``_normal_instance``.
    """


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Binder(Term):
    """The shape of ``Lam``, ``All`` and ``Ex``."""

    var: str
    var_type: Type
    body: Term


class Lam(Binder):
    pass


class All(Binder):
    pass


class Ex(Binder):
    pass


@dataclass(frozen=True)
class Top(Term):
    """The true proposition."""


@dataclass(frozen=True)
class Eq(Term):
    """Equality at a fixed type; both sides must have type ``at_type``."""

    lhs: Term
    rhs: Term
    at_type: Type


@dataclass(frozen=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True)
class Binary(Term):
    """The shape of ``And``, ``Or``, ``Imp`` and ``Iff``."""

    lhs: Term
    rhs: Term


class And(Binary):
    pass


class Or(Binary):
    pass


class Imp(Binary):
    pass


class Iff(Binary):
    pass


TOP = Top()

# The binders, for walks that treat them alike.
BINDERS = (Lam, All, Ex)


# ------------------------------------------------------------- builders


def apps(head: Term, *args: Term) -> Term:
    out = head
    for a in args:
        out = App(out, a)
    return out


def lams(binders: list[tuple[str, Type]], body: Term) -> Term:
    for name, ty in reversed(binders):
        body = Lam(name, ty, body)
    return body


def foralls(binders: list[tuple[str, Type]], body: Term) -> Term:
    for name, ty in reversed(binders):
        body = All(name, ty, body)
    return body


def exists(binders: list[tuple[str, Type]], body: Term) -> Term:
    for name, ty in reversed(binders):
        body = Ex(name, ty, body)
    return body


def imps(hyps: list[Term], concl: Term) -> Term:
    for h in reversed(hyps):
        concl = Imp(h, concl)
    return concl


def ands(conjuncts: list[Term]) -> Term:
    """Right-nested conjunction of a nonempty list."""
    out = conjuncts[-1]
    for c in reversed(conjuncts[:-1]):
        out = And(c, out)
    return out


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested applications into head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _foreign(t: Term, *_: object) -> NoReturn:
    raise TypeError(f"unexpected term {t!r}")


# Each walk's entry for a constructor, keyed on its exact class.
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    App: attrgetter("fn", "arg"),
    Not: lambda t: (t.arg,),
    **dict.fromkeys((Var, Const, Meta, Top), lambda t: ()),
    **dict.fromkeys(BINDERS, lambda t: (t.body,)),
    **dict.fromkeys((Eq, And, Or, Imp, Iff), attrgetter("lhs", "rhs")),
}


def children(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of ``t``, left to right."""
    return _CHILDREN.get(type(t), _foreign)(t)


def _map_app(t: App, f: Callable[[Term], Term]) -> Term:
    g, a = f(t.fn), f(t.arg)
    return t if g is t.fn and a is t.arg else App(g, a)


def _map_pair(t: Term, f: Callable[[Term], Term]) -> Term:
    l, r = f(t.lhs), f(t.rhs)
    if l is t.lhs and r is t.rhs:
        return t
    return Eq(l, r, t.at_type) if type(t) is Eq else type(t)(l, r)


_MAP_CHILDREN: dict[type, Callable[[Term, Callable[[Term], Term]], Term]] = {
    App: _map_app,
    Not: lambda t, f: t if (a := f(t.arg)) is t.arg else Not(a),
    **dict.fromkeys((Var, Const, Meta, Top), lambda t, f: t),
    **dict.fromkeys(BINDERS, lambda t, f: t if (b := f(t.body)) is t.body
                    else type(t)(t.var, t.var_type, b)),
    **dict.fromkeys((Eq, And, Or, Imp, Iff), _map_pair),
}


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` rebuilt with ``f`` applied to each immediate subterm; ``t``
    itself when every subterm comes back unchanged."""
    return _MAP_CHILDREN.get(type(t), _foreign)(t, f)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms, preorder, the term itself included."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def has_metas(t: Term) -> bool:
    """Whether a metavariable occurs in ``t``; stops at the first."""
    stack = [t]
    while stack and type(t := stack.pop()) is not Meta:
        stack += children(t)
    return type(t) is Meta


def metas(t: Term) -> set[Meta]:
    return {s for s in subterms(t) if isinstance(s, Meta)}


# ------------------------------------------------------- variable logic


def free_vars(t: Term) -> frozenset[tuple[str, Type]]:
    """Free variables of ``t`` as (name, type) pairs."""
    free, _ = _free_and_constants(t, frozenset(), [], [])
    return frozenset(map(attrgetter("name", "type"), free))


def free_names(t: Term) -> frozenset[str]:
    free, _ = _free_and_constants(t, frozenset(), [], [])
    return frozenset(map(attrgetter("name"), free))


def constants(t: Term) -> list[Const]:
    """Every constant occurrence, preorder; a constant may repeat (hashing
    each one's type costs more than meeting it twice)."""
    return _free_and_constants(t, frozenset(), [], [])[1]


def _free_and_constants(t: Term, bound: frozenset[str], free: list[Var],
                        found: list[Const]) -> tuple[list[Var], list[Const]]:
    """``free`` and ``found`` with each free variable and each constant
    occurrence of ``t`` added in preorder; lists, so no type is hashed."""
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Var:
            if t.name not in bound:
                free.append(t)
        elif cls is Const:
            found.append(t)
        elif cls in BINDERS:
            # the body's walk ends before the stack's next entry, so
            # both lists stay in preorder
            _free_and_constants(t.body, bound | {t.var}, free, found)
        else:
            stack += reversed(children(t))
    return free, found


def fresh_name(base: str, avoid: Container[str]) -> str:
    """``base`` itself if unused, else the first free ``base<k>``."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(t: Term, mapping: Mapping[str | Meta, Term]) -> Term:
    """``t`` with each key of ``mapping`` replaced by its value at once:
    a ``str`` key names a free variable, a ``Meta`` key is that
    metavariable.  ``t`` itself when nothing is replaced.

    A binder named like a key drops it for its body.  A binder named
    like a free variable of a variable key's value is renamed when a
    variable key is free in its body, avoiding those free variables,
    the variable keys and the body's free names.  A metavariable key's
    value, and a value that is a metavariable, are taken as closed.
    """
    if not mapping:
        return t
    # the keys are in it too: a binder named like one shadows it instead
    capture: set[str] = set()
    for key, value in mapping.items():
        if type(key) is str:
            capture.add(key)
            if type(value) is not Meta:
                capture |= free_names(value)

    def go(t: Term) -> Term:
        cls = type(t)
        if cls is Var or cls is Meta:
            return mapping.get(t.name if cls is Var else t, t)
        if cls in BINDERS:
            v, ty, body = t.var, t.var_type, t.body
            if v in mapping:
                body = substitute(
                    body, {k: x for k, x in mapping.items() if k != v})
                return t if body is t.body else cls(v, ty, body)
            if v in capture and not (free := free_names(body)).isdisjoint(
                    k for k in mapping if type(k) is str):
                # the binder would capture a variable of a value: rename it
                v2 = fresh_name(v, capture | free)
                return cls(v2, ty, go(subst_var(body, v, Var(v2, ty))))
        return map_children(t, go)

    try:
        return go(t)
    finally:
        del go


def subst_var(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding substitution of ``repl`` for free ``name`` in ``t``."""
    return substitute(t, {name: repl})


def beta_normalize(t: Term) -> Term:
    """The beta-normal form of ``t``, normal-order (total on typed terms)."""
    return _normal_instance(t)


def _normal_instance(t: Term,
                     closed: Mapping[str | Meta, Term] = {}) -> Term:
    """The beta-normal form of ``substitute(t, closed)``, in one walk
    that reduces each redex it meets with the argument as ``substitute``
    leaves it.  The values of ``closed`` must be closed (as
    ``patterns.Substitution`` checks), so no binder is renamed for them."""
    cls = type(t)
    if cls is App:
        nf = _normal_instance(t.fn, closed)
        if isinstance(nf, Lam):
            arg = substitute(t.arg, closed)
            return _normal_instance(subst_var(nf.body, nf.var, arg))
        arg = _normal_instance(t.arg, closed)
        return t if nf is t.fn and arg is t.arg else App(nf, arg)
    if not closed:
        return map_children(t, _normal_instance)
    if cls is Var or cls is Meta:
        value = closed.get(t.name if cls is Var else t)
        return t if value is None else _normal_instance(value)
    # no closure over a local: Python 3.11 makes a cell on every call
    if cls in BINDERS and t.var in closed:
        closed = dict(closed)
        del closed[t.var]
    return map_children(t, lambda s, m=closed: _normal_instance(s, m))


def alpha_eq(s: Term, t: Term) -> bool:
    """Equality up to renaming of bound variables.

    Binders are compared by de Bruijn level: each side carries a map from
    name to the level at which it was most recently bound, so shadowing
    and differing surface names are both handled.
    """
    return _alpha_eq(s, t, {}, {}, 0)


def _alpha_eq(s: Term, t: Term, es: dict[str, int], et: dict[str, int],
              d: int) -> bool:
    if type(s) is not type(t):
        return False
    if isinstance(s, Var):
        l1, l2 = es.get(s.name), et.get(t.name)
        if l1 is None and l2 is None:
            return s == t
        return l1 == l2
    if isinstance(s, (Const, Meta)):
        return s == t
    if isinstance(s, Binder):
        return s.var_type == t.var_type and _alpha_eq(
            s.body, t.body, {**es, s.var: d}, {**et, t.var: d}, d + 1)
    if isinstance(s, Eq) and s.at_type != t.at_type:
        return False
    return all(_alpha_eq(a, b, es, et, d)
               for a, b in zip(children(s), children(t)))


# --------------------------------------------------------------- typing


TypingContext = Mapping[str, Type]


class HolTypeError(Exception):
    """Base class for typing failures."""


class IllTyped(HolTypeError):
    def __init__(self, location: str, expected: object, found: object):
        self.location = location
        self.expected = expected
        self.found = found
        super().__init__(f"at {location}: expected {expected}, found {found}")


class UnboundName(HolTypeError):
    def __init__(self, name: str):
        super().__init__(f"unbound name {name!r}")


# A node's path as its parent's path and a field, with the index in a
# tuple field; a string only at the root.  Rendered only for an error
# or a diagnostic (``type_of`` here, ``mizar.well_formed``).
_Where = str | tuple


def _path(where: _Where) -> str:
    """``(("body", ".lhs"), ".args", 0)`` as ``"body.lhs.args[0]"``."""
    parts = []
    while not isinstance(where, str):
        parts.append(where[1] if len(where) == 2
                     else f"{where[1]}[{where[2]}]")
        where = where[0]
    return where + "".join(reversed(parts))


def type_of(t: Term, ctx: TypingContext) -> Type:
    """The unique type of ``t``.

    ``ctx`` must give a type to every free variable and every constant;
    annotations on occurrences are checked against it.  Metavariables are
    trusted at their annotation (their namespace is not ``ctx``'s).  Like
    ``children``, it dispatches on a term's exact class.
    """
    return _type_of(t, ctx, {}, "root")


def _want(expected: Type, found: Type, where: _Where) -> None:
    if found != expected:
        raise IllTyped(_path(where), expected, found)


def _type_of(t: Term, ctx: TypingContext, bound: dict[str, Type],
             where: _Where) -> Type:
    cls = type(t)
    if cls is App:
        ft = _type_of(t.fn, ctx, bound, (where, ".fn"))
        at = _type_of(t.arg, ctx, bound, (where, ".arg"))
        if not isinstance(ft, FnType):
            raise IllTyped(_path(where), "a function type", ft)
        _want(ft.dom, at, (where, ".arg"))
        return ft.cod
    if cls is Var or cls is Const:
        n, ty = t.name, t.type
        declared = bound.get(n, ctx.get(n)) if cls is Var else ctx.get(n)
        if declared is None:
            raise UnboundName(n)
        if declared != ty:
            raise IllTyped(f"{_path(where)}:{n}", declared, ty)
        return ty
    if cls is And or cls is Or or cls is Imp or cls is Iff:
        _want(PROP, _type_of(t.lhs, ctx, bound, (where, ".lhs")),
              (where, ".lhs"))
        _want(PROP, _type_of(t.rhs, ctx, bound, (where, ".rhs")),
              (where, ".rhs"))
        return PROP
    if cls is Eq:
        lt = _type_of(t.lhs, ctx, bound, (where, ".lhs"))
        rt = _type_of(t.rhs, ctx, bound, (where, ".rhs"))
        _want(t.at_type, lt, (where, ".lhs"))
        _want(t.at_type, rt, (where, ".rhs"))
        return PROP
    if cls is Not:
        _want(PROP, _type_of(t.arg, ctx, bound, (where, ".arg")),
              (where, ".arg"))
        return PROP
    if cls is Lam:
        return FnType(t.var_type, _type_of(
            t.body, ctx, {**bound, t.var: t.var_type}, (where, ".body")))
    if cls is All or cls is Ex:
        body = (where, ".body")
        _want(PROP, _type_of(t.body, ctx, {**bound, t.var: t.var_type}, body),
              body)
        return PROP
    if cls is Meta:
        return t.type
    if cls is Top:
        return PROP
    _foreign(t)


def claim_constants(ctx: dict[str, Type],
                    found: Iterable[Const | Var]) -> dict[str, Type]:
    """``ctx`` with each occurrence in ``found`` added at its annotated
    type, in the order given, which is the order a walk met them.  The
    first annotation that disagrees with ``ctx`` raises ``IllTyped``."""
    for c in found:
        if (ty := ctx.setdefault(c.name, c.type)) != c.type:
            raise IllTyped(c.name, ty, c.type)
    return ctx


def ambient_context(*terms: Term) -> dict[str, Type]:
    """A typing context collecting every constant and free variable of
    the given terms at its annotated type: one walk per term, which
    claims the term's constants and then its free variables.  Conflicting
    annotations for one name raise ``IllTyped``."""
    ctx: dict[str, Type] = {}
    for t in terms:
        free, found = _free_and_constants(t, frozenset(), [], [])
        claim_constants(ctx, found)
        claim_constants(ctx, free)
    return ctx


# ------------------------------------------------------------- printing

# membership's constant, printed as "∈"; ``declarations.MEMBER`` reads it
MEMBER = "r2_hidden"

# Each binary connective's sign and precedence level, loosest first; a
# level binds tighter than every lower one, and all associate to the
# right.  ``mizar.CONNECTIVES`` reads its connectives' levels here.
OPERATORS: dict[type, tuple[str, int]] = {
    Iff: ("↔", 1), Imp: ("→", 2), Or: ("∨", 3), And: ("∧", 4),
}
BINDER_SIGNS: dict[type, str] = {Lam: "λ", All: "∀", Ex: "∃"}

# Above the connectives: not < eq (and ∈) < application < atoms.
# Binders take maximal scope.
_LEVEL_NOT = 5
_LEVEL_EQ = 6
_LEVEL_APP = 7
_LEVEL_ATOM = 8


def show_term(t: Term) -> str:
    """Debug rendering; not a stable format."""
    return _show(t, 0)


def _show(t: Term, need: int) -> str:
    match t:
        case Var(n, _) | Const(n, _):
            return n
        case Meta(n, _):
            return f"?{n}"
        case Top():
            return "⊤"
        case Not(a):
            return f"¬{_show(a, _LEVEL_NOT)}"
        case App(App(Const(name, _), l), r) if name == MEMBER:
            s = f"{_show(l, _LEVEL_APP)} ∈ {_show(r, _LEVEL_APP)}"
            have = _LEVEL_EQ
        case App(f, a):
            s = f"{_show(f, _LEVEL_APP)} {_show(a, _LEVEL_ATOM)}"
            have = _LEVEL_APP
        case Eq(l, r, _):
            s = f"{_show(l, _LEVEL_APP)} = {_show(r, _LEVEL_APP)}"
            have = _LEVEL_EQ
        case _ if type(t) in OPERATORS:
            sign, have = OPERATORS[type(t)]
            s = f"{_show(t.lhs, have + 1)} {sign} {_show(t.rhs, have)}"
        case _ if type(t) in BINDER_SIGNS:
            sign, have = BINDER_SIGNS[type(t)], 0
            s = f"{sign}{t.var}:{t.var_type}. {_show(t.body, 0)}"
        case _:
            raise TypeError(f"unexpected term {t!r}")
    return f"({s})" if have < need else s
