"""Higher-order pattern matching for scheme instantiation.

A pattern is a term whose metavariables are only ever applied to
spines of distinct bound variables.  Matching a pattern against a
ground term is decidable with most general unifiers, which is all the
generality scheme application needs: the scheme's outer universals
become metavariables, the conjecture is ground, and the matcher
recovers the instantiation or reports precisely why there is none.

Disagreement pairs are solved eagerly left to right.  Solving the pair
``M x1 .. xn  =?  t`` binds ``M := \\x1 .. xn. t`` provided every free
variable of ``t`` is among the spine; a leftover bound variable cannot
be abstracted and raises ``OccursEscape``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import hol
from .hol import All, Const, Eq, Imp, Meta, Var


class MatchError(Exception):
    pass


class NotAPattern(MatchError):
    """A metavariable spine is not distinct bound variables."""


class NoMatch(MatchError):
    """The pair set has no solution."""


class OccursEscape(NoMatch):
    """A bound variable outside the spine occurs in the opposite side."""

    def __init__(self, meta: str, var: str):
        self.meta = meta
        self.var = var
        super().__init__(f"bound variable {var!r} escapes the spine of "
                         f"?{meta}")


class ShapeMismatch(MatchError):
    """Scheme and conjecture disagree beyond hypothesis peeling."""


@dataclass(frozen=True)
class DisagreementPair:
    """Two terms to be made equal, well-typed under a shared context of
    bound variables (innermost last)."""

    context: tuple[tuple[str, hol.Type], ...]
    lhs: hol.Term
    rhs: hol.Term


def subst_metas(t: hol.Term, mapping: Mapping[Meta, hol.Term]) -> hol.Term:
    """Replace metavariables by their assigned terms.  Assignments must
    be closed, so no capture analysis is needed."""

    def go(t: hol.Term) -> hol.Term:
        if isinstance(t, Meta):
            return mapping.get(t, t)
        return hol.map_children(t, go)

    return go(t)


class Substitution:
    """An idempotent assignment of closed terms to metavariables."""

    def __init__(self, mapping: Mapping[Meta, hol.Term]):
        for m, value in mapping.items():
            if hol.free_vars(value):
                raise ValueError(f"assignment for ?{m.name} is not closed")
            if hol.metas(value):
                raise ValueError(f"assignment for ?{m.name} contains "
                                 "metavariables")
            found = hol.type_of(value, hol.ambient_context(value))
            if found != m.type:
                raise hol.IllTyped(f"?{m.name}", m.type, found)
        self._map = dict(mapping)

    @classmethod
    def _checked(cls, mapping: Mapping[Meta, hol.Term]) -> Substitution:
        """Wrap assignments already checked closed, ground and typed."""
        sub = cls.__new__(cls)
        sub._map = dict(mapping)
        return sub

    def apply(self, t: hol.Term) -> hol.Term:
        return hol.beta_normalize(subst_metas(t, self._map))

    def __getitem__(self, m: Meta) -> hol.Term:
        return self._map[m]

    def get(self, m: Meta) -> hol.Term | None:
        return self._map.get(m)

    def __contains__(self, m: Meta) -> bool:
        return m in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Meta]:
        return iter(sorted(self._map, key=lambda m: m.name))

    def items(self) -> list[tuple[Meta, hol.Term]]:
        return sorted(self._map.items(), key=lambda kv: kv[0].name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        if self._map.keys() != other._map.keys():
            return False
        return all(hol.alpha_eq(v, other._map[m])
                   for m, v in self._map.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"?{m.name} := {v}" for m, v in self.items())
        return f"Substitution({inner})"


def is_pattern(t: hol.Term, bound: Iterable[str] = ()) -> bool:
    """True when every metavariable occurrence is applied to distinct
    variables bound within ``t`` or listed in ``bound``."""

    def walk(t: hol.Term, bound: frozenset[str]) -> bool:
        head, args = hol.spine(t)
        if isinstance(head, Meta):
            names = {a.name for a in args if isinstance(a, Var)}
            return len(names) == len(args) and names <= bound
        if isinstance(t, hol.BINDERS):
            return walk(t.body, bound | {t.var})
        return all(walk(c, bound) for c in hol.children(t))

    return walk(t, frozenset(bound))


def pattern_match(pairs: Iterable[DisagreementPair]) -> Substitution:
    """Solve the pairs, matching pattern left sides against ground right
    sides.  Raises ``NotAPattern``, ``OccursEscape`` or ``NoMatch``."""
    sigma: dict[Meta, hol.Term] = {}

    def resolve(t: hol.Term) -> hol.Term:
        # only re-normalize when a solved metavariable heads the spine
        head, _ = hol.spine(t)
        if isinstance(head, Meta) and head in sigma:
            return hol.beta_normalize(subst_metas(t, sigma))
        return t

    def solve(ctx: dict[str, hol.Type], lhs: hol.Term,
              rhs: hol.Term) -> None:
        lhs = resolve(lhs)
        head, args = hol.spine(lhs)
        if isinstance(head, Meta):
            solve_flex(ctx, head, args, rhs)
            return
        if type(lhs) is not type(rhs):
            raise NoMatch(f"rigid heads differ: {lhs} against {rhs}")
        if isinstance(lhs, (Var, Const)):
            if lhs != rhs:
                kind = "variables" if isinstance(lhs, Var) else "constants"
                raise NoMatch(f"{kind} {lhs.name!r} and {rhs.name!r} differ")
            return
        if isinstance(lhs, hol.BINDERS):
            ty1, ty2 = lhs.var_type, rhs.var_type
            if ty1 != ty2:
                raise NoMatch(f"binder types {ty1} and {ty2} differ")
            name = lhs.var
            if name in ctx or name != rhs.var:
                name = hol.fresh_name(
                    lhs.var, set(ctx) | hol.free_names(lhs.body)
                    | hol.free_names(rhs.body))
            fresh = Var(name, ty1)
            solve({**ctx, name: ty1},
                  hol.subst_var(lhs.body, lhs.var, fresh),
                  hol.subst_var(rhs.body, rhs.var, fresh))
            return
        if isinstance(lhs, Eq) and lhs.at_type != rhs.at_type:
            raise NoMatch(f"equality types {lhs.at_type} and {rhs.at_type} "
                          "differ")
        for l, r in zip(hol.children(lhs), hol.children(rhs)):
            solve(ctx, l, r)

    def solve_flex(ctx: dict[str, hol.Type], meta: Meta,
                   args: list[hol.Term], rhs: hol.Term) -> None:
        spine_names = []
        for a in args:
            if not (isinstance(a, Var) and a.name in ctx):
                raise NotAPattern(f"?{meta.name} applied to {a}, not a "
                                  "bound variable")
            spine_names.append(a.name)
        if len(set(spine_names)) != len(spine_names):
            raise NotAPattern(f"?{meta.name} applied to repeated variables")
        for name, _ in sorted(hol.free_vars(rhs), key=lambda p: p[0]):
            if name not in spine_names:
                raise OccursEscape(meta.name, name)
        value = hol.lams([(a.name, a.type) for a in args], rhs)
        found = hol.type_of(value, hol.ambient_context(value))
        if found != meta.type:
            raise NoMatch(f"?{meta.name} wants type {meta.type}, solution "
                          f"has {found}")
        sigma[meta] = value

    for pair in pairs:
        if hol.metas(pair.rhs):
            raise ValueError("right sides must be ground")
        ctx = dict(pair.context)
        solve(ctx, hol.beta_normalize(subst_metas(pair.lhs, sigma)),
              hol.beta_normalize(pair.rhs))
    return Substitution._checked(sigma)


def strip_outer_quantifiers(formula: hol.Term,
                            k: int) -> tuple[list[Meta], hol.Term]:
    """Replace the ``k`` outermost universals by fresh metavariables
    named after the binders.  Returns the metavariables in binding
    order together with the opened matrix."""
    metas: list[Meta] = []
    used: set[str] = set()
    t = formula
    for i in range(k):
        if not isinstance(t, All):
            raise ShapeMismatch(f"wanted {k} outer universals, found {i}")
        name = hol.fresh_name(t.var, used)
        used.add(name)
        m = Meta(name, t.var_type)
        metas.append(m)
        t = hol.subst_var(t.body, t.var, m)
    return metas, t


@dataclass(frozen=True)
class SchemeMatch:
    """Recovered instantiation plus the scheme hypotheses it leaves
    open, already instantiated where the substitution reaches them."""

    substitution: Substitution
    side_conditions: tuple[hol.Term, ...]


def recover_scheme_instantiation(scheme: hol.Term, conjecture: hol.Term,
                                 k: int) -> SchemeMatch:
    """Match ``conjecture`` against ``scheme`` with its ``k`` outer
    universals opened.  When the full matrix does not match, top-level
    hypotheses are peeled off one implication at a time and returned as
    side conditions."""
    if hol.metas(conjecture):
        raise ValueError("conjecture must be ground")
    _, matrix = strip_outer_quantifiers(scheme, k)
    hypotheses: list[hol.Term] = []
    goal = hol.beta_normalize(conjecture)
    while True:
        try:
            sigma = pattern_match([DisagreementPair((), matrix, goal)])
            break
        except NoMatch as e:
            if isinstance(matrix, Imp):
                hypotheses.append(matrix.lhs)
                matrix = matrix.rhs
                continue
            raise ShapeMismatch(
                "conjecture fits no suffix of the scheme matrix") from e
    side = tuple(sigma.apply(h) for h in hypotheses)
    return SchemeMatch(sigma, side)
