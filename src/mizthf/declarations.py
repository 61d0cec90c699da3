"""The fixed constant family targeted by the translation.

Membership (``r2_hidden``), global choice (``eps`` with its
characterizing axiom), ``sethood`` (a class is small enough to be a
set), and one ``replSep_n`` operator per comprehension arity, combining
replacement and separation: its arguments are n nested binder classes,
a map, and a guard.  ``replSepI_n`` needs sethood of every binder class;
``replSepE_n`` inverts membership.  Nothing is asserted when sethood
fails, so the operators are underspecified there.

Terms are immutable, so the support material is built once per process
and shared by every problem.  ``gen_replSep_decl`` and
``gen_replSep_axioms`` are cached on ``n``; the base declarations are
cached on the Element-of mode's name (``sig.elementof``), not on the
``Signature``, which ``tag_elementof`` changes in place.  These caches
have no cap: they hold one entry per arity and per mode name met.
``base_declarations`` returns a fresh list on every call.  Because the
declarations and their terms are the same objects in every problem,
``thf`` caches their rendered lines on the objects' identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import hol
from .hol import All, App, Const, Eq, Ex, Imp, IND, Lam, PROP, Var
from .mizar import Signature

EPS = "eps"
MEMBER = hol.MEMBER
SETHOOD = "sethood"

EPS_TYPE = hol.fn(hol.fn(IND, PROP), IND)
MEMBER_TYPE = hol.fn(IND, IND, PROP)
SETHOOD_TYPE = hol.fn(hol.fn(IND, PROP), PROP)


class InvalidArity(Exception):
    pass


@dataclass(frozen=True)
class Declaration:
    """A named constant, optionally with a defining equation and a set
    of named axioms about it."""

    name: str
    type: hol.Type
    definition: hol.Term | None = None
    axioms: tuple[tuple[str, hol.Term], ...] = ()


def member(lhs: hol.Term, rhs: hol.Term) -> hol.Term:
    return hol.apps(Const(MEMBER, MEMBER_TYPE), lhs, rhs)


def choice(cls: hol.Term) -> hol.Term:
    return App(Const(EPS, EPS_TYPE), cls)


def sethood_of(cls: hol.Term) -> hol.Term:
    return App(Const(SETHOOD, SETHOOD_TYPE), cls)


def replsep_name(n: int) -> str:
    return f"replSep_{n}"


def class_type(i: int) -> hol.Type:
    """Type of the i-th binder class: i individuals to a proposition."""
    return hol.fn(*([IND] * i), PROP)


def replsep_type(n: int) -> hol.Type:
    """n binder classes, a map and a guard, yielding an individual."""
    parts = [class_type(i) for i in range(1, n + 1)]
    parts.append(hol.fn(*([IND] * n), IND))  # map
    parts.append(class_type(n))              # guard
    parts.append(IND)
    return hol.fn(*parts)


@cache
def gen_replSep_decl(n: int) -> Declaration:
    """``replSep_n`` with its introduction and elimination axioms."""
    axioms = gen_replSep_axioms(n)  # raises InvalidArity before n is used
    return Declaration(replsep_name(n), replsep_type(n), axioms=axioms)


@cache
def gen_replSep_axioms(n: int) -> tuple[tuple[str, hol.Term], tuple[str, hol.Term]]:
    """The introduction and elimination axioms for ``replSep_n``.

    Introduction: if every binder class has sethood (each under the
    earlier binders), the image of guarded tuples is in the result.
    Elimination: members of the result come from guarded tuples.  Only
    the introduction direction carries sethood hypotheses.
    """
    if n < 1:
        raise InvalidArity(f"replSep needs at least one binder, got {n}")

    classes = [Var(f"A{i}", class_type(i)) for i in range(1, n + 1)]
    map_fn = Var("f", hol.fn(*([IND] * n), IND))
    guard = Var("P", class_type(n))
    xs = [Var(f"x{i}", IND) for i in range(1, n + 1)]
    result = hol.apps(Const(replsep_name(n), replsep_type(n)),
                      *classes, map_fn, guard)

    def chain(k: int) -> list[hol.Term]:
        # A1 x1, A2 x1 x2, ..., Ak x1..xk
        return [hol.apps(classes[i], *xs[: i + 1]) for i in range(k)]

    # one sethood hypothesis per class, each under the earlier binders
    sethood_hyps = []
    for i in range(n):
        hyp = hol.imps(chain(i), sethood_of(hol.apps(classes[i], *xs[:i])))
        sethood_hyps.append(hol.foralls([(x.name, IND) for x in xs[:i]], hyp))

    binders = ([(c.name, c.type) for c in classes]
               + [(map_fn.name, map_fn.type), (guard.name, guard.type)])
    intro = hol.foralls(
        binders + [(x.name, IND) for x in xs],
        hol.imps(
            sethood_hyps + chain(n) + [hol.apps(guard, *xs)],
            member(hol.apps(map_fn, *xs), result)))

    y = Var("y", IND)
    elim = hol.foralls(
        binders + [(y.name, IND)],
        Imp(member(y, result),
            hol.exists(
                [(x.name, IND) for x in xs],
                hol.ands(chain(n) + [hol.apps(guard, *xs),
                                     Eq(y, hol.apps(map_fn, *xs), IND)]))))

    return ((f"replSepI_{n}", intro), (f"replSepE_{n}", elim))


def base_declarations(sig: Signature | None = None) -> list[Declaration]:
    """Membership, choice and sethood, plus the Element-of mode (with
    its nonemptiness and sethood axioms) when ``sig`` tags one."""
    return list(_base_declarations(None if sig is None else sig.elementof))


@cache
def _base_declarations(mode: str | None) -> tuple[Declaration, ...]:
    p = Var("p", hol.fn(IND, PROP))
    x = Var("x", IND)
    y = Var("y", IND)

    epsax = hol.foralls(
        [(p.name, p.type), (x.name, IND)],
        Imp(App(p, x), App(p, choice(p))))

    sethood_body = Lam(
        p.name, p.type,
        Ex(y.name, IND, All(x.name, IND, Imp(App(p, x), member(x, y)))))

    decls = [
        Declaration(MEMBER, MEMBER_TYPE),
        Declaration(EPS, EPS_TYPE, axioms=(("epsax", epsax),)),
        Declaration(SETHOOD, SETHOOD_TYPE, definition=sethood_body),
    ]

    if mode is not None:
        mode_c = Const(mode, hol.fn(IND, IND, PROP))
        a = Var("A", IND)
        b = Var("B", IND)
        nonempty = All(a.name, IND, Ex(b.name, IND, hol.apps(mode_c, b, a)))
        sh = All(a.name, IND,
                 sethood_of(Lam(x.name, IND, hol.apps(mode_c, x, a))))
        decls.append(Declaration(
            mode, hol.fn(IND, IND, PROP),
            axioms=((f"{mode}_nonempty", nonempty), (f"{mode}_sethood", sh))))
    return tuple(decls)
