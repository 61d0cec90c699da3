"""Higher-order pattern matching for scheme instantiation.

A pattern is a term whose metavariables are only ever applied to
spines of distinct bound variables.  Matching a pattern against a
ground term is decidable with most general unifiers, which is all the
generality scheme application needs: the scheme's outer universals
become metavariables, the conjecture is ground, and the matcher
recovers the instantiation or reports precisely why there is none.

Disagreement pairs are solved eagerly left to right.  Bound variables
are compared by de Bruijn level, as ``hol.alpha_eq`` compares them:
stepping under a pair of binders records the level that each side's
name now stands for, so no body is renamed or substituted.  Solving
the pair ``M x1 .. xn  =?  t`` binds ``M := \\y1 .. yn. t``, where
``yi`` is the ground side's name for the level of ``xi``, provided every
free variable of ``t`` stands for a spine level; a leftover bound
variable cannot be abstracted and raises ``OccursEscape``.

A solved metavariable met again is compared by level too.  Its solution
``\\y1 .. yn. s`` applied to bound variables ``x1 .. xn`` only renames
(Miller's pattern fragment), so ``s`` is compared with each ``yi``
standing for the level of ``xi``, and nothing is substituted or
normalized.  Any other spine, and a comparison that fails, instantiate
the occurrence instead, so a message shows the instance as it reads.
A ground side is walked once, to refuse a metavariable and to find out
whether it needs normalizing.  An instance, and a scheme's matrix with
its universals opened, is normalized in the walk that substitutes it:
``hol._normal_instance`` with the closed values as its mapping.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from . import hol
from .hol import All, App, Const, Eq, Imp, Lam, Meta, Var


class MatchError(Exception):
    """Raised with the message in parts (text, terms and types) that
    are joined only when it is read: a failed peel attempt discards
    its ``NoMatch`` unread.  So ``args`` holds those parts, not one
    string; ``str(e)`` is the whole message."""

    def __str__(self) -> str:
        return "".join(map(str, self.args))


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
    """``t`` with its metavariables replaced by their closed assignments."""
    return hol.substitute(t, mapping)


class Substitution(Mapping[Meta, hol.Term]):
    """An idempotent assignment of closed terms to metavariables, read
    in name order."""

    def __init__(self, mapping: Mapping[Meta, hol.Term]):
        for m, value in mapping.items():
            if hol.free_vars(value):
                raise ValueError(f"assignment for ?{m.name} is not closed")
            if hol.has_metas(value):
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
        """The beta-normal form of ``t``'s instance, in one walk."""
        return hol._normal_instance(t, self._map)

    def __getitem__(self, m: Meta) -> hol.Term:
        return self._map[m]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Meta]:
        return iter(sorted(self._map, key=lambda m: m.name))

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
    return _is_pattern(t, frozenset(bound))


def _is_pattern(t: hol.Term, bound: frozenset[str]) -> bool:
    head, args = hol.spine(t)
    if isinstance(head, Meta):
        names = {a.name for a in args if isinstance(a, Var)}
        return len(names) == len(args) and names <= bound
    if isinstance(t, hol.BINDERS):
        return _is_pattern(t.body, bound | {t.var})
    return all(_is_pattern(c, bound) for c in hol.children(t))


def pattern_match(pairs: Iterable[DisagreementPair]) -> Substitution:
    """Solve the pairs, matching pattern left sides against ground right
    sides.  Raises ``NotAPattern``, ``OccursEscape`` or ``NoMatch``."""
    return _match((p.context, p.lhs,
                   _ground(p.rhs, "right sides must be ground"))
                  for p in pairs)


def _ground(t: hol.Term, refusal: str) -> hol.Term:
    """The normal form of ``t``, after one walk has refused a metavariable
    (raising ``ValueError(refusal)``) and looked for a redex: a term
    with none is its own normal form."""
    redex = False
    stack = [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Meta:
            raise ValueError(refusal)
        if cls is App and type(s.fn) is Lam:
            redex = True
        stack += hol.children(s)
    return hol.beta_normalize(t) if redex else t


def _match(pairs: Iterable[tuple], normal: bool = False) -> Substitution:
    """``pattern_match`` on ``(context, lhs, rhs)`` triples whose right
    sides are already checked ground and normalized, and whose left
    sides are too when ``normal``."""
    matcher = _Matcher()
    for context, lhs, rhs in pairs:
        matcher.levels[:] = context
        names = {name: level for level, (name, _) in enumerate(context)}
        if matcher.sigma or not normal:
            lhs = hol._normal_instance(lhs, matcher.sigma)
        matcher.solve(lhs, rhs, names, names)
    return Substitution._checked(matcher.sigma)


def _instance(t: hol.Term, sigma: Mapping[Meta, hol.Term]) -> hol.Term:
    """The solver's instance step: the normal form of ``t`` under ``sigma``."""
    return hol._normal_instance(t, sigma)


class _Matcher:
    """The solver's state across its pairs: ``sigma`` holds the solved
    metavariables, and ``levels`` one entry per level, outermost first:
    the ground side's name for the level's variable and its type.  The
    ``lv`` and ``rv`` each step takes map each side's names to the level
    that binds them now."""

    __slots__ = ("sigma", "levels")

    def __init__(self) -> None:
        self.sigma: dict[Meta, hol.Term] = {}
        self.levels: list[tuple[str, hol.Type]] = []

    def solve(self, lhs: hol.Term, rhs: hol.Term, lv: dict[str, int],
              rv: dict[str, int]) -> None:
        cls = type(lhs)
        if cls is App or cls is Meta:
            head, args = hol.spine(lhs)
            if type(head) is Meta:
                value = self.sigma.get(head)
                if value is None:
                    self.solve_flex(head, args, rhs, lv, rv)
                else:
                    self.solve_solved(value, args, lhs, rhs, lv, rv)
                return
        self.rigid(lhs, rhs, lv, rv)

    def rigid(self, lhs: hol.Term, rhs: hol.Term, lv: dict[str, int],
              rv: dict[str, int]) -> None:
        """``solve`` for an ``lhs`` whose head is not a metavariable."""
        cls = type(lhs)
        if cls is not type(rhs):
            raise NoMatch("rigid heads differ: ", lhs, " against ", rhs)
        if cls is App:
            # the function part has the same head: no spine to split
            self.rigid(lhs.fn, rhs.fn, lv, rv)
            self.solve(lhs.arg, rhs.arg, lv, rv)
        elif cls is Var:
            l1, l2 = lv.get(lhs.name), rv.get(rhs.name)
            if l1 != l2 or l1 is None and lhs != rhs:
                raise NoMatch(f"variables {lhs.name!r} and {rhs.name!r} "
                              "differ")
        elif cls is Const:
            if lhs != rhs:
                raise NoMatch(f"constants {lhs.name!r} and {rhs.name!r} "
                              "differ")
        elif cls in hol.BINDERS:
            ty = lhs.var_type
            if ty != rhs.var_type:
                raise NoMatch("binder types ", ty, " and ", rhs.var_type,
                              " differ")
            levels = self.levels
            d = len(levels)
            levels.append((rhs.var, ty))
            self.solve(lhs.body, rhs.body, {**lv, lhs.var: d},
                       {**rv, rhs.var: d})
            levels.pop()
        else:
            if cls is Eq and lhs.at_type != rhs.at_type:
                raise NoMatch("equality types ", lhs.at_type, " and ",
                              rhs.at_type, " differ")
            for l, r in zip(hol.children(lhs), hol.children(rhs)):
                self.solve(l, r, lv, rv)

    def solve_solved(self, value: hol.Term, args: list[hol.Term],
                     lhs: hol.Term, rhs: hol.Term, lv: dict[str, int],
                     rv: dict[str, int]) -> None:
        """``lhs`` is ``value`` applied to ``args``.  Applied to bound
        variables, one per binder, ``value`` only renames them: its body
        is compared with each binder standing for its argument's level.
        Otherwise, or to word a failure as the instance reads, ``lhs`` is
        substituted and normalized first."""
        names: dict[str, int] = {}
        for a in args:
            level = lv.get(a.name) if type(a) is Var else None
            if level is None or type(value) is not Lam:
                break
            names[value.var] = level
            value = value.body
        else:
            if type(value) is not Lam:
                depth = len(self.levels)
                try:
                    self.rigid(value, rhs, names, rv)
                    return
                except MatchError:
                    del self.levels[depth:]
        self.solve(_instance(lhs, self.sigma), rhs, lv, rv)

    def solve_flex(self, meta: Meta, args: list[hol.Term], rhs: hol.Term,
                   lv: dict[str, int], rv: dict[str, int]) -> None:
        spine: list[int] = []
        for a in args:
            level = lv.get(a.name) if isinstance(a, Var) else None
            if level is None:
                raise NotAPattern(f"?{meta.name} applied to {a}, not a "
                                  "bound variable")
            spine.append(level)
        if len(set(spine)) != len(spine):
            raise NotAPattern(f"?{meta.name} applied to repeated variables")
        free, consts = hol._free_and_constants(rhs, frozenset(), [], [])
        for name in sorted({v.name for v in free}):
            if rv.get(name) not in spine:
                raise OccursEscape(meta.name, name)
        # Abstract each spine level under the name the ground side uses
        # for it, so ``rhs`` needs no renaming.  A level whose name is
        # shadowed there occurs in ``rhs`` under no name; it gets a name
        # no other level can reach.
        binders: list[tuple[str, hol.Type]] = []
        taken: set[str] = set()
        for level in spine:
            name, ty = self.levels[level]
            if rv.get(name) != level:
                name = hol.fresh_name(name, taken | rv.keys())
            taken.add(name)
            binders.append((name, ty))
        value = hol.lams(binders, rhs)
        ctx: dict[str, hol.Type] = {}
        hol.claim_constants(ctx, consts)
        found = hol.type_of(value, ctx)
        if found != meta.type:
            raise NoMatch(f"?{meta.name} wants type ", meta.type,
                          ", solution has ", found)
        self.sigma[meta] = value


def strip_outer_quantifiers(formula: hol.Term,
                            k: int) -> tuple[list[Meta], hol.Term]:
    """Replace the ``k`` outermost universals by fresh metavariables
    named after the binders.  Returns the metavariables in binding
    order together with the opened matrix."""
    opened, matrix = _outer_universals(formula, k)
    return [m for _, m in opened], hol.substitute(matrix, dict(opened))


def _outer_universals(formula: hol.Term,
                      k: int) -> tuple[list[tuple[str, Meta]], hol.Term]:
    """The ``k`` outermost universals' names, each with its fresh
    metavariable, in binding order, and the matrix below them."""
    opened: list[tuple[str, Meta]] = []
    for i in range(k):
        if not isinstance(formula, All):
            raise ShapeMismatch(f"wanted {k} outer universals, found {i}")
        taken = {m.name for _, m in opened}
        name, ty, formula = formula.var, formula.var_type, formula.body
        opened.append((name, Meta(hol.fresh_name(name, taken), ty)))
    return opened, formula


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
    conjecture = _ground(conjecture, "conjecture must be ground")
    opened, matrix = _outer_universals(scheme, k)
    # opened and normalized once: every suffix a peel leaves is normal too
    matrix = hol._normal_instance(matrix, dict(opened))
    hypotheses: list[hol.Term] = []
    while True:
        try:
            sigma = _match([((), matrix, conjecture)], normal=True)
            break
        except NoMatch as e:
            if not isinstance(matrix, Imp):
                raise ShapeMismatch(
                    "conjecture fits no suffix of the scheme matrix") from e
            hypotheses.append(matrix.lhs)
            matrix = matrix.rhs
    side = tuple(sigma.apply(h) for h in hypotheses)
    return SchemeMatch(sigma, side)
