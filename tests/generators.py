"""Seeded random generators for the property tests.

Everything takes an explicit ``random.Random`` so a failing case
replays from its seed.  Terms come out well-typed by construction and
statements well-formed by construction; the fuzzers are the only
generators allowed to produce garbage.
"""

from __future__ import annotations

import random
import string
from dataclasses import replace

from mizthf import hol
from mizthf.hol import (
    All, And, App, Const, Eq, Ex, FnType, Iff, Imp, IND, Lam, Meta, Not,
    Or, PROP, TOP, Var, apps, fn, lams,
)
from mizthf import mizar
from mizthf.mizar import (
    Attr, ExBeing, ForBeing, Fraenkel, FunConstApp, FunDecl, FunVarApp,
    MAnd, MEq, MIff, MImp, MIn, MNot, MOr, MQuantifier, MStatement, MType,
    Mode, NonAttr, ObjConst, ObjDecl, ObjVar, PredConstApp, PredDecl,
    PredVarApp, SET, Signature, The,
)


# ------------------------------------------------------------ HOL terms


def random_type(rng: random.Random, depth: int = 2) -> hol.Type:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice([IND, PROP])
    return FnType(random_type(rng, depth - 1), random_type(rng, depth - 1))


def _const_for(ty: hol.Type, pool: dict[hol.Type, Const]) -> Const:
    hit = pool.get(ty)
    if hit is None:
        hit = Const(f"k{len(pool) + 1}", ty)
        pool[ty] = hit
    return hit


def random_term(rng: random.Random, ty: hol.Type,
                env: list[tuple[str, hol.Type]],
                pool: dict[hol.Type, Const], fuel: int) -> hol.Term:
    """A closed-over-``env`` term of type ``ty``.  Applications whose
    head is a fresh lambda show up naturally, so the output is not in
    normal form."""
    hits = [Var(n, t) for n, t in env if t == ty]
    if fuel <= 0:
        if hits and rng.random() < 0.7:
            return rng.choice(hits)
        if ty == PROP and rng.random() < 0.3:
            return TOP
        return _const_for(ty, pool)
    options = ["leaf", "app"]
    if isinstance(ty, FnType):
        options += ["lam", "lam", "lam"]
    if ty == PROP:
        options += ["not", "binary", "quant", "eq"]
    match rng.choice(options):
        case "leaf":
            return random_term(rng, ty, env, pool, 0)
        case "app":
            at = random_type(rng, 1)
            f = random_term(rng, FnType(at, ty), env, pool, fuel - 1)
            a = random_term(rng, at, env, pool, fuel - 1)
            return App(f, a)
        case "lam":
            v = f"v{len(env)}"
            body = random_term(rng, ty.cod, env + [(v, ty.dom)], pool,
                               fuel - 1)
            return Lam(v, ty.dom, body)
        case "not":
            return Not(random_term(rng, PROP, env, pool, fuel - 1))
        case "binary":
            ctor = rng.choice([And, Or, Imp, Iff])
            return ctor(random_term(rng, PROP, env, pool, fuel - 1),
                        random_term(rng, PROP, env, pool, fuel - 1))
        case "quant":
            ctor = rng.choice([All, Ex])
            v = f"v{len(env)}"
            vt = random_type(rng, 1)
            body = random_term(rng, PROP, env + [(v, vt)], pool, fuel - 1)
            return ctor(v, vt, body)
        case "eq":
            at = random_type(rng, 1)
            return Eq(random_term(rng, at, env, pool, fuel - 1),
                      random_term(rng, at, env, pool, fuel - 1), at)
    raise AssertionError


def random_closed_prop(rng: random.Random, fuel: int = 5) -> hol.Term:
    return random_term(rng, PROP, [], {}, fuel)


# Few binder names, so binders shadow each other and the free variables
# of a substituted value, and ``x1`` meets the renaming's first choice.
CAPTURE_NAMES = ("x", "y", "z", "x1")
CAPTURE_TYPES = (IND, PROP, fn(IND, IND), fn(IND, PROP))


def random_capture_term(rng: random.Random, ty: hol.Type,
                        env: dict[str, hol.Type], fuel: int,
                        metas: tuple[Meta, ...] = ()) -> hol.Term:
    """A term of type ``ty`` whose free variables come from ``env``;
    binders take names from ``CAPTURE_NAMES``, redexes are frequent and
    a leaf may be one of ``metas`` of its type."""
    if fuel <= 0 or rng.random() < 0.15:
        hits = [Var(n, t) for n, t in env.items() if t == ty]
        hits += [m for m in metas if m.type == ty]
        if hits and rng.random() < 0.8:
            return rng.choice(hits)
        return TOP if ty == PROP else Const(f"k_{ty}", ty)
    options = ["app", "redex"]
    if isinstance(ty, FnType):
        options += ["lam", "lam"]
    if ty == PROP:
        options += ["not", "binary", "quant", "eq"]

    def sub(t: hol.Type, scope: dict[str, hol.Type] = env) -> hol.Term:
        return random_capture_term(rng, t, scope, fuel - 1, metas)

    v, vt = rng.choice(CAPTURE_NAMES), rng.choice((IND, IND, PROP))
    match rng.choice(options):
        case "app":
            return App(sub(FnType(vt, ty)), sub(vt))
        case "redex":
            return App(Lam(v, vt, sub(ty, {**env, v: vt})), sub(vt))
        case "lam":
            return Lam(v, ty.dom, sub(ty.cod, {**env, v: ty.dom}))
        case "not":
            return Not(sub(PROP))
        case "binary":
            return rng.choice([And, Or, Imp, Iff])(sub(PROP), sub(PROP))
        case "quant":
            return rng.choice([All, Ex])(v, vt, sub(PROP, {**env, v: vt}))
        case "eq":
            return Eq(sub(vt), sub(vt), vt)
    raise AssertionError


# ------------------------------------------------------- Mizar sources


def rich_signature() -> Signature:
    sig = Signature()
    sig.declare("c1", "obj")
    sig.declare("c2", "obj")
    sig.declare("f1", "func", 1)
    sig.declare("f2", "func", 2)
    sig.declare("p0", "pred", 0)
    sig.declare("p1", "pred", 1)
    sig.declare("p2", "pred", 2)
    sig.declare("m1_subset_1", "mode", 2)
    sig.declare("m2_pair", "mode", 3)
    sig.declare("v1_empty", "attr")
    sig.tag_elementof("m1_subset_1")
    return sig


# The names ``rich_signature`` declares.
RICH_NAMES = ("c1", "c2", "f1", "f2", "p0", "p1", "p2", "m1_subset_1",
              "m2_pair", "v1_empty")


class _StatementGen:
    """Grows a well-formed statement over ``rich_signature``.  Scope
    maps names to (kind, arity) just like the checker's."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def mtype(self, scope: dict, fuel: int) -> mizar.MType:
        r = self.rng.random()
        if fuel <= 0 or r < 0.4:
            return SET
        if r < 0.55:
            return Mode("m1_subset_1", (self.mterm(scope, fuel - 1),))
        if r < 0.62:
            return Mode("m2_pair", (self.mterm(scope, fuel - 1),
                                    self.mterm(scope, fuel - 1)))
        base = self.mtype(scope, fuel - 1)
        if r < 0.82:
            return Attr("v1_empty", base)
        return NonAttr("v1_empty", base)

    def mterm(self, scope: dict, fuel: int) -> mizar.MTerm:
        rng = self.rng
        objs = [n for n, (k, _) in scope.items() if k == mizar.OBJ]
        if fuel <= 0:
            if objs and rng.random() < 0.6:
                return ObjVar(rng.choice(objs))
            return ObjConst(rng.choice(["c1", "c2"]))
        r = rng.random()
        if r < 0.3:
            return self.mterm(scope, 0)
        if r < 0.45:
            return FunConstApp("f1", (self.mterm(scope, fuel - 1),))
        if r < 0.55:
            return FunConstApp("f2", (self.mterm(scope, fuel - 1),
                                      self.mterm(scope, fuel - 1)))
        funs = [(n, a) for n, (k, a) in scope.items() if k == mizar.FUNC]
        if r < 0.65 and funs:
            name, arity = rng.choice(funs)
            return FunVarApp(name, tuple(
                self.mterm(scope, fuel - 1) for _ in range(arity)))
        if r < 0.8:
            return The(self.mtype(scope, fuel - 1))
        return self.fraenkel(scope, fuel)

    def fraenkel(self, scope: dict, fuel: int) -> Fraenkel:
        rng = self.rng
        binders = []
        inner = dict(scope)
        for _ in range(rng.randint(1, 3)):
            v = self.fresh("u")
            binders.append((v, self.mtype(inner, fuel - 1)))
            inner[v] = (mizar.OBJ, 0)
        return Fraenkel(tuple(binders), self.mterm(inner, fuel - 1),
                        self.mprop(inner, fuel - 1))

    def atom(self, scope: dict, fuel: int) -> mizar.MProp:
        rng = self.rng
        preds = [(n, a) for n, (k, a) in scope.items() if k == mizar.PRED]
        r = rng.random()
        if r < 0.2 and preds:
            name, arity = rng.choice(preds)
            return PredVarApp(name, tuple(
                self.mterm(scope, fuel - 1) for _ in range(arity)))
        if r < 0.45:
            name, arity = rng.choice(
                [("p0", 0), ("p1", 1), ("p2", 2), ("v1_empty", 1),
                 ("m1_subset_1", 2)])
            return PredConstApp(name, tuple(
                self.mterm(scope, fuel - 1) for _ in range(arity)))
        if r < 0.7:
            return MIn(self.mterm(scope, fuel - 1),
                       self.mterm(scope, fuel - 1))
        return MEq(self.mterm(scope, fuel - 1), self.mterm(scope, fuel - 1))

    def mprop(self, scope: dict, fuel: int) -> mizar.MProp:
        rng = self.rng
        if fuel <= 0 or rng.random() < 0.35:
            return self.atom(scope, fuel)
        r = rng.random()
        if r < 0.15:
            return MNot(self.mprop(scope, fuel - 1))
        if r < 0.55:
            ctor = rng.choice([MAnd, MOr, MImp, MIff])
            return ctor(self.mprop(scope, fuel - 1),
                        self.mprop(scope, fuel - 1))
        ctor = rng.choice([ForBeing, ExBeing])
        v = self.fresh("x")
        return ctor(v, self.mtype(scope, fuel - 1),
                    self.mprop({**scope, v: (mizar.OBJ, 0)}, fuel - 1))

    def statement(self, fuel: int = 4) -> MStatement:
        rng = self.rng
        prefix: list[mizar.VarDecl] = []
        scope: dict = {}
        for _ in range(rng.randint(0, 3)):
            r = rng.random()
            if r < 0.45:
                name = self.fresh("A")
                prefix.append(ObjDecl(name, self.mtype(scope, fuel - 2)))
                scope[name] = (mizar.OBJ, 0)
            elif r < 0.7:
                name = self.fresh("F")
                args = tuple(self.mtype(scope, fuel - 2)
                             for _ in range(rng.randint(1, 2)))
                prefix.append(FunDecl(name, args, self.mtype(scope, fuel - 2)))
                scope[name] = (mizar.FUNC, len(args))
            else:
                name = self.fresh("P")
                args = tuple(self.mtype(scope, fuel - 2)
                             for _ in range(rng.randint(0, 2)))
                prefix.append(PredDecl(name, args))
                scope[name] = (mizar.PRED, len(args))
        name = rng.choice([None, "Gen"]) if prefix else None
        return MStatement(tuple(prefix), self.mprop(scope, fuel), name)


def random_statement(rng: random.Random, fuel: int = 4) -> MStatement:
    return _StatementGen(rng).statement(fuel)


# Each named node class with its twin of the other binding side, which
# the printer writes with the other bracket (``P[x]`` against ``p(x)``).
_TWIN = {
    ObjVar: ObjConst, ObjConst: ObjVar, FunVarApp: FunConstApp,
    FunConstApp: FunVarApp, PredVarApp: PredConstApp,
    PredConstApp: PredVarApp,
}
_NAMED = (*_TWIN, Mode, Attr, NonAttr)


class _Mutator:
    """Rebuilds a statement, changing the ``target``-th named node met
    in a pre-order walk; ``seen`` counts the named nodes up to it.  The
    walk keeps the bound names in scope as ``well_formed`` does, and
    returns every subtree it did not change as it was."""

    def __init__(self, rng: random.Random, target: float):
        self.rng = rng
        self.target = target
        self.seen = 0

    def node(self, n: object, scope: tuple[str, ...]) -> object:
        if self.seen > self.target or isinstance(n, str):
            return n
        if isinstance(n, _NAMED):
            if self.seen == self.target:
                n = self.mutate(n, scope)
            self.seen += 1
        if isinstance(n, MQuantifier):
            return replace(n, mtype=self.node(n.mtype, scope),
                           body=self.node(n.body, scope + (n.var,)))
        if isinstance(n, Fraenkel):
            binders, inner = [], scope
            for name, mt in n.binders:
                binders.append((name, self.node(mt, inner)))
                inner += (name,)
            return Fraenkel(tuple(binders), self.node(n.body, inner),
                            self.node(n.guard, inner))
        changes = {}
        for name in n.__dataclass_fields__:
            value = getattr(n, name)
            if isinstance(value, tuple):
                new = tuple(self.node(v, scope) for v in value)
                changed = any(a is not b for a, b in zip(new, value))
            else:
                new = self.node(value, scope)
                changed = new is not value
            if changed:
                changes[name] = new
        return replace(n, **changes) if changes else n

    def mutate(self, n, scope: tuple[str, ...]):
        rng = self.rng
        how = rng.choice(["name", "name", "count", "twin", "bound"])
        if how == "count" and hasattr(n, "args"):
            args = list(n.args)
            if args and rng.random() < 0.5:
                del args[rng.randrange(len(args))]
            else:
                args.insert(rng.randint(0, len(args)), ObjConst("c1"))
            return replace(n, args=tuple(args))
        if how == "twin" and type(n) in _TWIN:
            return _TWIN[type(n)](**vars(n))
        if how == "bound" and isinstance(n, MType) and scope:
            return replace(n, name=rng.choice(scope))
        return replace(n, name=rng.choice(RICH_NAMES + scope))


def _rebuild(mutator: _Mutator, s: MStatement) -> MStatement:
    prefix, scope = [], ()
    for decl in s.prefix:
        prefix.append(mutator.node(decl, scope))
        scope += (decl.name,)
    return MStatement(tuple(prefix), mutator.node(s.body, scope), s.name)


def mutate_statement(rng: random.Random, s: MStatement) -> MStatement:
    """``s`` with one named node changed: its name swapped for another
    ``rich_signature`` or bound name, an argument added or dropped, its binding
    side swapped (``P[x]`` against ``p(x)``), or, for a type, its name
    swapped for a bound one.  The result may still be well formed; a
    statement with no named node comes back unchanged."""
    counter = _Mutator(rng, float("inf"))
    _rebuild(counter, s)
    if not counter.seen:
        return s
    return _rebuild(_Mutator(rng, rng.randrange(counter.seen)), s)


# ----------------------------------------------------- pattern planting


def planted_problem(rng: random.Random) -> tuple[
        hol.Term, hol.Term, dict[Meta, hol.Term]]:
    """A pattern, the ground term obtained by substituting a known
    solution, and that solution in the spine-expanded form the matcher
    returns.  Every metavariable occurs at least once."""
    pool: dict[hol.Type, Const] = {}
    n_vars = rng.randint(1, 4)
    xs = [(f"x{i}", IND) for i in range(1, n_vars + 1)]
    metas: list[tuple[Meta, hol.Term, int]] = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(0, n_vars)
        res = rng.choice([IND, PROP])
        mty = fn(*([IND] * arity), res)
        params = [(f"a{j}", IND) for j in range(1, arity + 1)]
        body = random_term(rng, res, params, pool, rng.randint(0, 3))
        value = hol.beta_normalize(lams(params, body))
        metas.append((Meta(f"M{i + 1}", mty), value, arity))

    def meta_leaf(entry=None) -> hol.Term:
        m, _, arity = entry if entry is not None else rng.choice(metas)
        spine = [Var(n, t) for n, t in rng.sample(xs, arity)]
        applied = apps(m, *spine)
        if hol.result_type(m.type) == PROP:
            return applied
        anchor = random_term(rng, IND, xs, pool, 1)
        return Eq(applied, anchor, IND)

    leaves = [meta_leaf(entry) for entry in metas]
    leaves += [meta_leaf() for _ in range(rng.randint(0, 2))]
    leaves.append(random_term(rng, PROP, xs, pool, 2))
    rng.shuffle(leaves)
    matrix = leaves[0]
    for leaf in leaves[1:]:
        matrix = rng.choice([And, Or, Imp])(leaf, matrix)
    pattern = hol.foralls(xs, matrix)
    solution = {m: value for m, value, _ in metas}
    from mizthf.patterns import subst_metas
    ground = hol.beta_normalize(subst_metas(pattern, solution))
    return pattern, ground, solution


# ---------------------------------------------------------------- fuzz

_TOKEN_SOUP = (
    "scheme statement set non the where is for being holds ex st not or "
    "implies iff in Element of c1 f1 p1 m1_subset_1 v1_empty x y "
    "{ } ( ) [ ] , : = & ->").split()


def fuzz_source(rng: random.Random, corpus: list[str]) -> str:
    r = rng.random()
    if r < 0.35:
        n = rng.randint(0, 60)
        alphabet = string.printable
        return "".join(rng.choice(alphabet) for _ in range(n))
    if r < 0.7:
        n = rng.randint(0, 40)
        return " ".join(rng.choice(_TOKEN_SOUP) for _ in range(n))
    text = rng.choice(corpus)
    if not text:
        return text
    k = rng.randint(1, 3)
    chars = list(text)
    for _ in range(k):
        i = rng.randrange(len(chars))
        if rng.random() < 0.5:
            chars[i] = rng.choice(string.printable)
        else:
            del chars[i]
            if not chars:
                break
    return "".join(chars)
