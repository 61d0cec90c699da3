"""Miller pattern matching and scheme instantiation recovery."""

from __future__ import annotations

import hashlib
import random

import pytest

from generators import planted_problem, random_closed_prop
from mizthf import hol, patterns
from mizthf.declarations import member
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, IllTyped, Imp, Lam, Meta, Not, Or, Top,
    Var, IND, PROP, apps, fn, lams,
)
from mizthf.patterns import (
    DisagreementPair, MatchError, NoMatch, NotAPattern, OccursEscape,
    SchemeMatch, ShapeMismatch, Substitution, is_pattern, pattern_match,
    recover_scheme_instantiation, strip_outer_quantifiers, subst_metas,
)

i, o = IND, PROP
c1 = Const("c1", i)
c2 = Const("c2", i)
p1 = Const("p1", fn(i, o))
f1 = Const("f1", fn(i, i))


def pair(lhs, rhs, ctx=()):
    return DisagreementPair(tuple(ctx), lhs, rhs)


# ------------------------------------------------------------ patterns


def test_is_pattern_accepts_distinct_bound_spines():
    P = Meta("P", fn(i, i, o))
    assert is_pattern(Meta("A", i))
    assert is_pattern(lams([("x", i), ("y", i)],
                           apps(P, Var("x", i), Var("y", i))))
    assert is_pattern(All("x", i, Ex("y", i,
                          apps(P, Var("y", i), Var("x", i)))))
    assert is_pattern(apps(P, Var("x", i), Var("y", i)), bound=("x", "y"))
    assert is_pattern(App(p1, c1))


def test_is_pattern_rejects_bad_spines():
    P = Meta("P", fn(i, i, o))
    x = Var("x", i)
    assert not is_pattern(apps(P, x, x), bound=("x",))
    assert not is_pattern(apps(P, x, c1), bound=("x",))
    assert not is_pattern(apps(P, x, Var("y", i)), bound=("x",))
    assert not is_pattern(
        Lam("x", i, apps(P, Var("x", i), App(f1, Var("x", i)))))


def test_subst_metas_is_structural():
    A = Meta("A", i)
    t = All("x", i, Eq(Var("x", i), A, i))
    out = subst_metas(t, {A: c1})
    assert out == All("x", i, Eq(Var("x", i), c1, i))
    assert subst_metas(t, {}) == t


# ------------------------------------------------------------ matching


def test_match_zero_order():
    A = Meta("A", i)
    sigma = pattern_match([pair(Eq(A, c1, i), Eq(c2, c1, i))])
    assert sigma[A] == c2


def test_match_under_binder_is_spine_expanded():
    P = Meta("P", fn(i, o))
    lhs = All("x", i, App(P, Var("x", i)))
    rhs = All("x", i, App(p1, Var("x", i)))
    sigma = pattern_match([pair(lhs, rhs)])
    assert hol.alpha_eq(sigma[P], Lam("x", i, App(p1, Var("x", i))))
    assert sigma[P] != p1


def test_match_reorders_spines():
    R = Meta("R", fn(i, i, o))
    lhs = All("x", i, All("y", i, apps(R, Var("y", i), Var("x", i))))
    rhs = All("x", i, All("y", i, Eq(Var("x", i), App(f1, Var("y", i)), i)))
    sigma = pattern_match([pair(lhs, rhs)])
    want = lams([("y", i), ("x", i)],
                Eq(Var("x", i), App(f1, Var("y", i)), i))
    assert hol.alpha_eq(sigma[R], want)


def test_match_type_checks_each_solution_once(monkeypatch):
    typed = []
    type_of = hol.type_of
    monkeypatch.setattr(hol, "type_of",
                        lambda t, ctx: typed.append(t) or type_of(t, ctx))
    A, P = Meta("A", i), Meta("P", fn(i, o))
    lhs = And(Eq(A, c1, i), All("x", i, App(P, Var("x", i))))
    rhs = And(Eq(c2, c1, i), All("x", i, App(p1, Var("x", i))))
    sigma = pattern_match([pair(lhs, rhs)])
    assert typed == [sigma[A], sigma[P]]


def test_match_mismatched_binder_names_align():
    P = Meta("P", fn(i, o))
    lhs = Lam("x", i, App(P, Var("x", i)))
    rhs = Lam("y", i, App(p1, Var("y", i)))
    sigma = pattern_match([pair(lhs, rhs)])
    assert hol.alpha_eq(sigma[P], Lam("z", i, App(p1, Var("z", i))))


def test_match_is_consistent_across_occurrences():
    A = Meta("A", i)
    good = pattern_match([pair(And(Eq(A, A, i), Eq(A, c1, i)),
                               And(Eq(c1, c1, i), Eq(c1, c1, i)))])
    assert good[A] == c1
    with pytest.raises(NoMatch):
        pattern_match([pair(And(Eq(A, c1, i), Eq(A, c1, i)),
                            And(Eq(c1, c1, i), Eq(c2, c1, i)))])


def test_match_is_consistent_across_pairs():
    A = Meta("A", i)
    sigma = pattern_match([pair(A, c1), pair(Eq(A, A, i), Eq(c1, c1, i))])
    assert sigma[A] == c1
    with pytest.raises(NoMatch):
        pattern_match([pair(A, c1), pair(A, c2)])


def test_solved_meta_resolves_applied_occurrences():
    F = Meta("F", fn(i, i))
    value = Lam("x", i, App(f1, Var("x", i)))
    sigma = pattern_match([
        pair(Eq(F, value, fn(i, i)), Eq(value, value, fn(i, i))),
        pair(Eq(App(F, c1), c2, i), Eq(App(f1, c1), c2, i)),
    ])
    assert hol.alpha_eq(sigma[F], value)


def test_occurs_escape():
    P = Meta("P", fn(i, o))
    lhs = All("x", i, All("y", i, App(P, Var("x", i))))
    rhs = All("x", i, All("y", i, Eq(Var("x", i), Var("y", i), i)))
    with pytest.raises(OccursEscape) as exc:
        pattern_match([pair(lhs, rhs)])
    assert exc.value.meta == "P"
    assert exc.value.var == "y"
    assert isinstance(exc.value, NoMatch)


def test_not_a_pattern():
    P = Meta("P", fn(i, o))
    R = Meta("R", fn(i, i, o))
    with pytest.raises(NotAPattern):
        pattern_match([pair(App(P, c1), App(p1, c1))])
    x = Var("x", i)
    with pytest.raises(NotAPattern):
        pattern_match([pair(All("x", i, apps(R, x, x)),
                            All("x", i, Eq(x, x, i)))])
    with pytest.raises(NotAPattern):
        pattern_match([pair(All("x", i, apps(R, x, App(f1, x))),
                            All("x", i, Eq(x, x, i)))])


def test_rigid_mismatches():
    with pytest.raises(NoMatch):
        pattern_match([pair(c1, c2)])
    with pytest.raises(NoMatch):
        pattern_match([pair(Eq(c1, c1, i), And(Top(), Top()))])
    with pytest.raises(NoMatch):
        pattern_match([pair(All("x", i, Top()), All("p", fn(i, o), Top()))])
    with pytest.raises(NoMatch):
        pattern_match([pair(Not(Top()), Top())])


def test_ground_side_must_be_ground():
    A = Meta("A", i)
    with pytest.raises(ValueError):
        pattern_match([pair(A, Meta("B", i))])


def test_solution_type_guard():
    # lhs deliberately ill-typed: an IND metavariable applied to a var
    M = Meta("M", i)
    lhs = All("x", i, Eq(App(M, Var("x", i)), Var("x", i), i))
    rhs = All("x", i, Eq(App(f1, Var("x", i)), Var("x", i), i))
    with pytest.raises(NoMatch):
        pattern_match([pair(lhs, rhs)])


def test_empty_pair_list_gives_empty_substitution():
    sigma = pattern_match([])
    assert len(sigma) == 0
    assert sigma.apply(Eq(c1, c1, i)) == Eq(c1, c1, i)


# -------------------------------------------------------- substitution


def test_substitution_validates_closed():
    A = Meta("A", i)
    with pytest.raises(ValueError):
        Substitution({A: Var("x", i)})
    with pytest.raises(ValueError):
        Substitution({A: Meta("B", i)})
    with pytest.raises(IllTyped):
        Substitution({A: Top()})


def test_substitution_apply_normalizes():
    P = Meta("P", fn(i, o))
    sigma = Substitution({P: Lam("x", i, App(p1, Var("x", i)))})
    assert sigma.apply(App(P, c1)) == App(p1, c1)


def test_substitution_equality_is_alpha():
    P = Meta("P", fn(i, o))
    s1 = Substitution({P: Lam("x", i, App(p1, Var("x", i)))})
    s2 = Substitution({P: Lam("y", i, App(p1, Var("y", i)))})
    assert s1 == s2
    s3 = Substitution({P: Lam("x", i, Not(App(p1, Var("x", i))))})
    assert s1 != s3
    assert s1 != Substitution({})


def test_substitution_iteration_is_name_ordered():
    A, B = Meta("a", i), Meta("b", i)
    sigma = Substitution({B: c2, A: c1})
    assert [m.name for m, _ in sigma.items()] == ["a", "b"]
    assert A in sigma and sigma.get(Meta("z", i)) is None


# ------------------------------------------------------------ recovery


def subset_scheme():
    A = Var("A", i)
    P = Var("P", fn(i, o))
    x = Var("x", i)
    y = Var("y", i)
    return All("A", i, All("P", fn(i, o), Imp(
        All("x", i, Imp(App(P, x), member(x, A))),
        Ex("y", i, App(P, y)))))


def test_strip_outer_quantifiers():
    metas, matrix = strip_outer_quantifiers(subset_scheme(), 2)
    assert [(m.name, m.type) for m in metas] == [("A", i), ("P", fn(i, o))]
    assert hol.metas(matrix) == {metas[0], metas[1]}
    same, formula = strip_outer_quantifiers(subset_scheme(), 0)
    assert same == [] and formula == subset_scheme()


def test_strip_runs_out():
    with pytest.raises(ShapeMismatch) as exc:
        strip_outer_quantifiers(subset_scheme(), 3)
    assert "found 2" in str(exc.value)


def test_strip_shadowed_binders_get_fresh_metas():
    t = All("x", i, All("x", i, Eq(Var("x", i), Var("x", i), i)))
    metas, matrix = strip_outer_quantifiers(t, 2)
    assert [m.name for m in metas] == ["x", "x1"]
    assert matrix == Eq(metas[1], metas[1], i)


def test_recover_full_matrix():
    conjecture = Imp(
        All("x", i, Imp(App(p1, Var("x", i)), member(Var("x", i), c1))),
        Ex("y", i, App(p1, Var("y", i))))
    got = recover_scheme_instantiation(subset_scheme(), conjecture, 2)
    assert got.side_conditions == ()
    assert got.substitution == Substitution({
        Meta("A", i): c1,
        Meta("P", fn(i, o)): Lam("x", i, App(p1, Var("x", i)))})


def test_recover_peels_hypotheses():
    conjecture = Ex("y", i, App(p1, Var("y", i)))
    got = recover_scheme_instantiation(subset_scheme(), conjecture, 2)
    assert len(got.side_conditions) == 1
    side = got.side_conditions[0]
    # the peeled hypothesis keeps the unsolved area metavariable
    assert hol.metas(side) == {Meta("A", i)}
    assert hol.alpha_eq(side, All("x", i, Imp(
        App(p1, Var("x", i)), member(Var("x", i), Meta("A", i)))))
    P = Meta("P", fn(i, o))
    assert got.substitution == Substitution(
        {P: Lam("y", i, App(p1, Var("y", i)))})


def test_recover_side_conditions_are_instantiated():
    scheme = All("P", fn(i, o), Imp(App(Var("P", fn(i, o)), c2),
                                    Ex("y", i, App(Var("P", fn(i, o)),
                                                   Var("y", i)))))
    conjecture = Ex("y", i, App(p1, Var("y", i)))
    got = recover_scheme_instantiation(scheme, conjecture, 1)
    assert got.side_conditions == (App(p1, c2),)


def test_solved_heads_are_compared_without_substituting(monkeypatch):
    """A solved metavariable applied to bound variables, one per binder
    of its solution, is compared by level; only a mismatch, to word its
    message, or any other spine instantiates it."""
    P, F = Meta("P", fn(i, i, o)), Meta("F", fn(i, i))
    q = Const("q", fn(i, i, o))
    x, y = Var("x", i), Var("y", i)
    lhs = All("x", i, All("y", i, And(apps(P, x, y), apps(P, y, x))))
    rhs = All("a", i, All("b", i, And(
        apps(q, Var("a", i), Var("b", i)), apps(q, Var("b", i),
                                                Var("a", i)))))
    substituted = []
    instance = patterns._instance
    monkeypatch.setattr(patterns, "_instance", lambda t, m: (
        substituted.append(t) or instance(t, m)))
    sigma = pattern_match([pair(lhs, rhs)])
    assert substituted == []
    assert hol.alpha_eq(sigma[P], lams([("s", i), ("t", i)], apps(
        q, Var("s", i), Var("t", i))))
    # a spine that is not bound variables, or of another length
    sigma = pattern_match([pair(
        All("x", i, And(Eq(App(F, x), c1, i), Eq(App(F, c2), c1, i))),
        All("x", i, And(Eq(App(f1, x), c1, i), Eq(App(f1, c2), c1, i))))])
    assert hol.alpha_eq(sigma[F], Lam("z", i, App(f1, Var("z", i))))
    assert len(substituted) == 1
    with pytest.raises(NoMatch):
        pattern_match([pair(lhs, All("a", i, All("b", i, And(
            apps(q, Var("a", i), Var("b", i)),
            apps(q, Var("a", i), Var("b", i))))))])
    assert len(substituted) == 2


def test_ground_sides_are_checked_before_normalizing():
    """A metavariable that normalizing would erase still makes a side
    not ground; redexes on either side match as their normal forms."""
    B = Meta("B", i)
    erased = App(Lam("z", i, Top()), B)
    assert hol.beta_normalize(erased) == Top()
    with pytest.raises(ValueError, match="right sides must be ground"):
        pattern_match([pair(Top(), erased)])
    with pytest.raises(ValueError, match="conjecture must be ground"):
        recover_scheme_instantiation(subset_scheme(), And(erased, Top()), 2)
    rng = random.Random(99)
    redexes = 0
    for _ in range(200):
        pattern, ground, _ = planted_problem(rng)
        normal = pattern_match([pair(hol.beta_normalize(pattern), ground)])
        redexes += hol.beta_normalize(pattern) != pattern
        wrapped = App(Lam("z", o, Var("z", o)), ground)
        assert pattern_match([pair(pattern, ground)]) == normal
        assert pattern_match([pair(pattern, wrapped)]) == normal
        assert pattern_match([pair(App(Lam("w", o, Var("w", o)), pattern),
                                   wrapped)]) == normal
    assert redexes > 10


def test_recover_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        recover_scheme_instantiation(subset_scheme(), Eq(c1, c1, i), 2)


def test_recover_requires_ground_conjecture():
    with pytest.raises(ValueError):
        recover_scheme_instantiation(subset_scheme(), Meta("G", o), 2)


def test_recover_normalizes_a_matrix_with_a_redex():
    """A redex anywhere in the opened matrix, also under a binder that
    shadows an opened variable, is reduced before matching; the opened
    matrix that ``strip_outer_quantifiers`` returns keeps it."""
    A = Var("A", i)
    redex = App(Lam("z", i, App(p1, Var("z", i))), A)
    for matrix, conjecture in [
            (And(All("A", i, redex), App(p1, A)),
             And(All("y", i, App(p1, Var("y", i))), App(p1, c1))),
            (And(redex, Top()), And(App(p1, c1), Top()))]:
        scheme = All("A", i, matrix)
        found = recover_scheme_instantiation(scheme, conjecture, 1)
        assert found == SchemeMatch(Substitution({Meta("A", i): c1}), ())
        opened = strip_outer_quantifiers(scheme, 1)[1]
        assert opened != hol.beta_normalize(opened)


def test_recover_peels_the_normal_form_of_the_matrix():
    """A matrix that is a redex reducing to an implication is peeled like
    that implication."""
    h = Var("h", o)
    scheme = All("A", i, App(Lam("h", o, Imp(App(p1, c2), h)),
                             App(p1, Var("A", i))))
    found = recover_scheme_instantiation(scheme, App(p1, c1), 1)
    assert found == SchemeMatch(Substitution({Meta("A", i): c1}),
                                (App(p1, c2),))


# ----------------------------------------------------------- generated


def test_planted_problems_round_trip():
    rng = random.Random(4242)
    for _ in range(300):
        pattern, ground, solution = planted_problem(rng)
        assert is_pattern(pattern)
        sigma = pattern_match([pair(pattern, ground)])
        assert sigma == Substitution(solution)
        assert hol.alpha_eq(sigma.apply(pattern), ground)


def test_arbitrary_pairs_terminate():
    rng = random.Random(515151)
    outcomes = {"match": 0, "fail": 0}
    for _ in range(500):
        lhs, _, _ = planted_problem(rng)
        if rng.random() < 0.5:
            _, rhs, _ = planted_problem(rng)
        else:
            rhs = random_closed_prop(rng)
        try:
            sigma = pattern_match([pair(lhs, rhs)])
            assert hol.alpha_eq(sigma.apply(lhs), hol.beta_normalize(rhs))
            outcomes["match"] += 1
        except MatchError:
            outcomes["fail"] += 1
    assert outcomes["fail"] > 0


# ---------------------------------------------------------- level maps


def _rename_binders(t, rng, pool=("x", "y", "v")):
    """``t`` with every binder renamed to a name from ``pool`` that no
    free variable of its body uses; an outer binder of the same name is
    shadowed."""
    if isinstance(t, hol.BINDERS):
        body = _rename_binders(t.body, rng, pool)
        free = hol.free_names(body) - {t.var}
        name = rng.choice([n for n in pool if n not in free] or [t.var])
        body = hol.subst_var(body, t.var, Var(name, t.var_type))
        return type(t)(name, t.var_type, body)
    return hol.map_children(t, lambda c: _rename_binders(c, rng, pool))


def _shadows(t, bound=frozenset()):
    if isinstance(t, hol.BINDERS):
        return t.var in bound or _shadows(t.body, bound | {t.var})
    return any(_shadows(c, bound) for c in hol.children(t))


def test_renamed_ground_binders_match_alike():
    rng = random.Random(8080)
    shadowed = 0
    for _ in range(2000):
        pattern, ground, solution = planted_problem(rng)
        renamed = _rename_binders(ground, rng)
        assert hol.alpha_eq(renamed, ground)
        shadowed += _shadows(renamed)
        sigma = pattern_match([pair(pattern, renamed)])
        assert sigma == pattern_match([pair(pattern, ground)])
        assert sigma == Substitution(solution)
    assert shadowed > 100


def test_spine_name_shadowed_inside_the_matched_body():
    q = Const("q", fn(i, i, o))
    y = Var("y", i)
    P = Meta("P", fn(i, o))
    sigma = pattern_match([pair(
        All("x", i, App(P, Var("x", i))),
        All("y", i, And(App(p1, y), Ex("y", i, apps(q, y, y)))))])
    assert hol.alpha_eq(sigma[P], Lam("z", i, And(
        App(p1, Var("z", i)), Ex("y", i, apps(q, y, y)))))
    # the ground side reaches only its inner "y"; the outer level still
    # gets a binder of its own
    R = Meta("R", fn(i, i, o))
    sigma = pattern_match([pair(
        All("a", i, All("b", i, apps(R, Var("b", i), Var("a", i)))),
        All("y", i, All("y", i, App(p1, y))))])
    assert hol.alpha_eq(sigma[R], lams([("s", i), ("t", i)],
                                       App(p1, Var("s", i))))
    # there "y" is the inner level, which the spine leaves out
    with pytest.raises(OccursEscape):
        pattern_match([pair(All("a", i, All("b", i, App(P, Var("a", i)))),
                            All("y", i, All("y", i, App(p1, y))))])


def test_pair_with_a_context():
    x, y = Var("x", i), Var("y", i)
    P, A = Meta("P", fn(i, o)), Meta("A", i)
    ctx = [("x", i), ("y", i)]
    sigma = pattern_match([pair(And(App(P, x), Eq(A, y, i)),
                                And(App(p1, x), Eq(c1, y, i)), ctx)])
    assert hol.alpha_eq(sigma[P], Lam("z", i, App(p1, Var("z", i))))
    assert sigma[A] == c1
    with pytest.raises(OccursEscape) as exc:
        pattern_match([pair(App(P, x), Eq(x, y, i), ctx)])
    assert exc.value.var == "y"
    with pytest.raises(NoMatch):
        pattern_match([pair(Eq(x, c1, i), Eq(y, c1, i), ctx)])
    # a binder shadows the context entry of its name
    sigma = pattern_match([pair(All("x", i, App(P, x)),
                                All("x", i, App(p1, x)), ctx)])
    assert hol.alpha_eq(sigma[P], Lam("z", i, App(p1, Var("z", i))))
    with pytest.raises(NotAPattern):
        pattern_match([pair(App(P, Var("w", i)), App(p1, c1), ctx)])


def _refuse(*args):
    raise AssertionError("matching renamed a bound variable")


def test_matching_under_binders_never_substitutes(monkeypatch):
    rng = random.Random(31)
    problems = []
    while len(problems) < 200:
        pattern, ground, solution = planted_problem(rng)
        occurrences = [s for s in hol.subterms(pattern)
                       if isinstance(s, Meta)]
        if (len(occurrences) == len(solution)
                and hol.beta_normalize(pattern) == pattern):
            problems.append((pattern, ground, solution))
    deep = [("x", i), ("y", i), ("x", i), ("z", i)]
    R = Meta("R", fn(i, i, i, o))
    q = Const("q", fn(i, i, i, o))
    heavy = (hol.foralls(deep, Ex("w", i, apps(
                 R, Var("w", i), Var("x", i), Var("z", i)))),
             hol.foralls([("a", i), ("b", i), ("c", i), ("d", i)], Ex(
                 "e", i, apps(q, Var("c", i), Var("d", i), Var("e", i)))))
    for name in ("subst_var", "fresh_name"):
        monkeypatch.setattr(hol, name, _refuse)
    for pattern, ground, solution in problems:
        assert pattern_match([pair(pattern, ground)]) == Substitution(
            solution)
    sigma = pattern_match([pair(*heavy)])
    monkeypatch.undo()
    assert hol.alpha_eq(sigma[R], lams(
        [("e", i), ("c", i), ("d", i)],
        apps(q, Var("c", i), Var("d", i), Var("e", i))))


# ------------------------------------------------------------ messages


@pytest.mark.parametrize("pairs, text", [
    ([pair(All("x", i, And(App(Meta("P", fn(i, o)), Var("x", i)),
                           Eq(Var("x", i), c1, i))),
           All("x", i, And(App(p1, Var("x", i)),
                           Not(Eq(Var("x", i), c1, i)))))],
     "rigid heads differ: x = c1 against ¬x = c1"),
    ([pair(Eq(Meta("A", i), c1, i), Eq(c2, c2, i))],
     "constants 'c1' and 'c2' differ"),
    ([pair(All("x", i, Top()), All("x", fn(i, o), Top()))],
     "binder types ι and ι→o differ"),
    ([pair(Eq(Meta("A", i), c1, i), Eq(Top(), Top(), o))],
     "equality types ι and o differ"),
    ([pair(All("x", i, Eq(App(Meta("M", i), Var("x", i)), Var("x", i), i)),
           All("x", i, Eq(App(f1, Var("x", i)), Var("x", i), i)))],
     "?M wants type ι, solution has ι→ι"),
    ([pair(All("x", i, All("y", i, App(Meta("P", fn(i, o)),
                                       Var("x", i)))),
           All("x", i, All("y", i, Eq(Var("x", i), Var("y", i), i))))],
     "bound variable 'y' escapes the spine of ?P"),
    ([pair(All("x", i, All("y", i, Eq(Var("x", i), Var("y", i), i))),
           All("x", i, All("y", i, Eq(Var("y", i), Var("y", i), i))))],
     "variables 'x' and 'y' differ"),
    ([pair(App(Meta("P", fn(i, o)), c1), App(p1, c1))],
     "?P applied to c1, not a bound variable"),
    # each side shows its own binder names
    ([pair(All("x", i, Eq(Meta("A", i), Var("x", i), i)),
           All("y", i, Eq(c1, c1, i)))],
     "rigid heads differ: x against c1"),
    # a solved metavariable's later instance is shown as it reads, with
    # the argument's name rather than the name of the solution's binder
    ([pair(All("x", i, All("y", i, And(App(Meta("P", fn(i, o)), Var("x", i)),
                                       App(Meta("P", fn(i, o)),
                                           Var("y", i))))),
           All("x", i, All("y", i, And(App(p1, Var("x", i)),
                                       Not(App(p1, Var("y", i)))))))],
     "rigid heads differ: p1 y against ¬p1 y"),
    ([pair(All("x", i, All("y", i, And(App(Meta("P", fn(i, o)), Var("x", i)),
                                       App(Meta("P", fn(i, o)),
                                           Var("y", i))))),
           All("y", i, All("x", i, And(App(p1, Var("y", i)), Ex(
               "y", i, App(p1, Var("x", i)))))))],
     "rigid heads differ: p1 y against ∃y:ι. p1 x"),
])
def test_match_error_texts(pairs, text):
    with pytest.raises(MatchError) as exc:
        pattern_match(pairs)
    assert str(exc.value) == text


def test_no_match_text_is_rendered_only_when_read(monkeypatch):
    shown = []
    show_term = hol.show_term
    monkeypatch.setattr(hol, "show_term",
                        lambda t: shown.append(t) or show_term(t))
    lhs = And(Eq(Meta("A", i), c1, i), Eq(c1, c1, i))
    rhs = And(Eq(c2, c1, i), Not(Eq(c1, c1, i)))
    with pytest.raises(NoMatch) as exc:
        pattern_match([pair(lhs, rhs)])
    assert shown == []
    assert exc.value.args == ("rigid heads differ: ", lhs.rhs, " against ",
                              rhs.rhs)
    assert str(exc.value) == "rigid heads differ: c1 = c1 against ¬c1 = c1"
    assert shown
    shown.clear()
    got = recover_scheme_instantiation(subset_scheme(), Ex(
        "y", i, App(p1, Var("y", i))), 2)
    assert len(got.side_conditions) == 1 and shown == []


# ------------------------------------------------------------- golden


def _edited(t, old, new, every):
    """``t`` with the first (or every) occurrence of constant ``old``
    replaced by ``new``."""
    done = []

    def go(s):
        if s == old and (every or not done):
            done.append(s)
            return new
        return hol.map_children(s, go)

    return go(t)


def _scheme(pattern, solution, extra):
    """``pattern`` closed over its metavariables as outer universals,
    with ``extra`` as a hypothesis when given."""
    metas = sorted(solution, key=lambda m: m.name)
    closed = subst_metas(pattern, {m: Var(m.name, m.type) for m in metas})
    matrix = closed if extra is None else Imp(extra, closed)
    return hol.foralls([(m.name, m.type) for m in metas], matrix), len(metas)


def golden_cases(seed, n):
    """The matcher calls made of ``n`` seeded planted problems, as
    ``(kind, call)`` pairs: planted,
    cross-paired, two-pair, scheme-with-peel, strip k+1 and self-pair
    problems, ground sides and patterns holding redexes, and
    ``NotAPattern`` and ill-typed mutants."""
    rng = random.Random(seed)
    identity = Lam("z", o, Var("z", o))
    cases = []
    for _ in range(n):
        pattern, ground, solution = planted_problem(rng)
        other, other_ground, _ = planted_problem(rng)
        extra = random_closed_prop(rng, fuel=2)
        scheme, k = _scheme(pattern, solution, extra)
        metas = sorted(solution, key=lambda m: m.name)
        consts = hol.constants(ground)
        c = rng.choice(consts) if consts else c1
        every = rng.random() < 0.5
        spine_arg = rng.choice([c1, Var("x1", i)])
        unpattern = subst_metas(pattern, {
            m: App(Meta(m.name, fn(i, m.type)), spine_arg) for m in metas})
        junk = And(App(Lam("z", i, Top()), Meta("B", i)), ground)
        cases += [
            ("planted", lambda p=pattern, g=ground:
             pattern_match([pair(p, g)])),
            ("cross", lambda p=pattern, g=other_ground:
             pattern_match([pair(p, g)])),
            ("closed", lambda p=pattern, r=random_closed_prop(rng):
             pattern_match([pair(p, r)])),
            ("two-pair", lambda a=(pattern, ground), b=(other, other_ground):
             pattern_match([pair(*a), pair(*b)])),
            ("peel", lambda s=scheme, g=ground, k=k:
             recover_scheme_instantiation(s, g, k)),
            ("strip", lambda s=_scheme(pattern, solution, None)[0], g=ground,
             k=k: recover_scheme_instantiation(s, g, k + 1)),
            ("self", lambda g=ground: pattern_match([pair(g, g)])),
            ("self-meta", lambda p=pattern: pattern_match([pair(p, p)])),
            ("redex", lambda p=App(identity, pattern),
             g=App(identity, ground): pattern_match([pair(p, g)])),
            ("redex-meta", lambda p=pattern, g=junk:
             pattern_match([pair(p, g)])),
            ("redex-scheme", lambda s=scheme, g=junk, k=k:
             recover_scheme_instantiation(s, g, k)),
            ("unpattern", lambda p=unpattern, g=ground:
             pattern_match([pair(p, g)])),
            ("renamed", lambda p=pattern, g=_edited(
                ground, c, Const("c9", c.type), every):
             pattern_match([pair(p, g)])),
            ("ill-typed", lambda p=pattern, g=_edited(
                ground, c, Const(c.name, fn(i, c.type)), every):
             pattern_match([pair(p, g)])),
        ]
    return cases


def golden_outcome(call):
    """The answer of ``call`` in full, or its failure's class and text."""
    try:
        got = call()
    except (MatchError, ValueError, hol.HolTypeError) as e:
        return f"{type(e).__name__}: {e}"
    if isinstance(got, SchemeMatch):
        got, side = got.substitution, got.side_conditions
    else:
        side = ()
    return repr((list(got.items()), side))


# SHA-256 of the outcome lines of ``golden_cases(1616, 500)``, recorded
# with the matcher that substituted and normalized each solved head.
GOLDEN_DIGEST = (
    "d85b64eeb508a561e31d70a39f4c042aeff30779202459c21fa0ac9383023972")


def test_matcher_golden():
    """Answers, error classes and error texts on 7,000 seeded calls of
    every kind stay byte for byte the recorded ones."""
    lines = [f"{kind} {golden_outcome(call)}"
             for kind, call in golden_cases(1616, 500)]
    kinds = {line.split(" ", 2)[1].rstrip(":") for line in lines}
    assert {"NoMatch", "OccursEscape", "NotAPattern", "ShapeMismatch",
            "ValueError", "IllTyped"} <= kinds
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
