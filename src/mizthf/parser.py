"""Concrete syntax for signatures and statements.

Signature files are line oriented::

    # comment
    obj  c
    func union/2
    pred disjoint/2
    mode m1_subset_1/2
    attr v1_xboole_0
    elementof m1_subset_1

A ``mode`` arity counts the implicit subject, so ``m1_subset_1/2`` takes
one explicit argument.  ``elementof`` tags a previously declared binary
mode as the one the ``Element of T`` sugar expands to.

Statement files hold one scheme or bare statement::

    scheme Separation { A() -> set, P[set] } :
      ex X being set st for x being set holds (x in X iff x in A() & P[x])

    statement : c = c

Proposition precedence, loosest first: ``iff``, ``implies``, ``or``,
``&``, ``not``; all binary connectives associate to the right, and
quantifiers extend as far right as possible.  Predicate applications may
be written ``name[args]`` or ``name(args)``; attribute and mode
constants double as predicate constants.  Membership ``x in X`` is
written with the keyword ``in``, which no signature can declare.

``tokenize`` is one regular expression with a named group per lexeme.
``#`` starts a comment, a word starts with a letter or ``_``, and
whitespace is space, tab, carriage return and newline.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple, TypeVar

from .mizar import (
    ATTR, FUNC, MODE, OBJ, PRED,
    ArityMismatch, Attr, DuplicateName, ExBeing, ForBeing, Fraenkel,
    FunConstApp, FunDecl, FunVarApp, KindMismatch, MAnd, MEq, MIff, MImp,
    MIn, MNot, MOr, MProp, MStatement, MTerm, MType, Mode, NonAttr,
    ObjConst, ObjDecl, ObjVar, ParseError, PredConstApp, PredDecl,
    PredVarApp, SET, Signature, The, UnknownName, VarDecl,
)

KEYWORDS = frozenset(
    "scheme statement set non the where is for being holds ex st "
    "not or implies iff in Element of".split()
)

# One alternative per lexeme, tried in order.  ``\w`` also admits digits
# and numerals such as "²", so a word must pass ``_starts_word`` too.
_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<word>\w+)
  | (?P<sym>->|[{}()\[\],:=&])
  | (?P<stray>.)
""", re.VERBOSE)

_MAX_DEPTH = 200


class Token(NamedTuple):
    kind: str  # "name", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def _starts_word(c: str) -> bool:
    return c.isalpha() or c == "_"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, end = 1, 0, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "comment":  # runs up to the newline; eof stays before it
            continue
        start, end = m.span()
        if kind == "space":
            continue
        if kind == "newline":
            line += 1
            line_start = end
            continue
        word = m.group()
        if kind == "word" and _starts_word(word[0]):
            kind = "kw" if word in KEYWORDS else "name"
        elif kind != "sym":
            raise ParseError(f"stray character {word[0]!r}", line,
                             start - line_start + 1)
        toks.append(Token(kind, word, line, start - line_start + 1))
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


def parse_signature(text: str) -> Signature:
    """Parse a signature file.  Duplicate names are errors; ``in`` is a
    keyword and cannot be declared."""
    sig = Signature()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive = fields[0]
        if len(fields) != 2:
            raise ParseError(
                f"expected '{directive} NAME', got {len(fields) - 1} field(s)",
                lineno, 1)
        spec = fields[1]
        col = raw.index(spec, len(directive)) + 1
        try:
            if directive in ("obj", "attr"):
                sig.declare(_check_name(spec, lineno, col), directive)
            elif directive in ("func", "pred", "mode"):
                name, _, arity_s = spec.partition("/")
                if not arity_s or not arity_s.isdigit():
                    raise ParseError(
                        f"expected '{directive} NAME/ARITY'", lineno, col)
                sig.declare(_check_name(name, lineno, col), directive,
                            int(arity_s))
            elif directive == "elementof":
                sig.tag_elementof(_check_name(spec, lineno, col))
            else:
                raise ParseError(f"unknown directive {directive!r}", lineno, 1)
        except ValueError as e:
            raise ParseError(str(e), lineno, col) from None
        except (DuplicateName, UnknownName, KindMismatch) as e:
            raise e.at(lineno, col)
    return sig


def _check_name(name: str, line: int, col: int) -> str:
    if name in KEYWORDS:
        raise ParseError(f"{name!r} is a reserved word", line, col)
    m = _LEXEME.fullmatch(name)
    if not (m and m.lastgroup == "word" and _starts_word(name[0])):
        raise ParseError(f"invalid name {name!r}", line, col)
    return name


def parse_statement(text: str, sig: Signature) -> MStatement:
    """Parse one scheme or bare statement, resolving names against the
    scheme header and ``sig``.  Raises a ``SourceError`` subclass with a
    position on any malformed or unresolvable input."""
    return _Parser(tokenize(text), sig).statement()


# Scope values mirror well_formed's: (OBJ, 0), (FUNC, n) or (PRED, n).
_Scope = dict[str, tuple[str, int]]
_T = TypeVar("_T")

# Binary connectives, loosest first; all associate to the right.
_CONNECTIVES = (("kw", "iff", MIff), ("kw", "implies", MImp),
                ("kw", "or", MOr), ("sym", "&", MAnd))
_LEVEL = {(kind, text): level
          for level, (kind, text, _) in enumerate(_CONNECTIVES)}


class _Parser:
    def __init__(self, tokens: list[Token], sig: Signature):
        self.toks = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    # ---------------------------------------------------- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str) -> Token:
        tok = self.next()
        if tok.kind != kind or tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}",
                             tok.line, tok.col, expected=text)
        return tok

    def name_tok(self, what: str) -> Token:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected {what}, got {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def comma_list(self, item: Callable[[], _T],
                   close: str | None = None) -> list[_T]:
        """``item ("," item)*``.  With a ``close`` symbol the list may be
        empty and must end with that symbol, which is consumed."""
        items: list[_T] = []
        if close is None or not self.at("sym", close):
            items.append(item())
            while self.at("sym", ","):
                self.next()
                items.append(item())
        if close is not None:
            self.expect("sym", close)
        return items

    def __enter__(self) -> None:
        """``with self:`` around each recursive rule bounds the nesting."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError("nesting too deep", tok.line, tok.col)

    def __exit__(self, *exc) -> None:
        self.depth -= 1

    # -------------------------------------------------------- statements

    def statement(self) -> MStatement:
        tok = self.next()
        if tok.kind == "kw" and tok.text == "scheme":
            name = self.name_tok("a scheme name").text
            self.expect("sym", "{")
            scope: _Scope = {}
            prefix = self.comma_list(partial(self.decl, scope), "}")
            self.expect("sym", ":")
            body = self.prop(scope)
        elif tok.kind == "kw" and tok.text == "statement":
            name = None
            prefix = []
            self.expect("sym", ":")
            body = self.prop({})
        else:
            raise ParseError("expected 'scheme' or 'statement'",
                             tok.line, tok.col)
        tok = self.next()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after statement",
                             tok.line, tok.col)
        return MStatement(tuple(prefix), body, name)

    def decl(self, scope: _Scope) -> VarDecl:
        tok = self.name_tok("a variable name")
        name = tok.text
        if name in scope:
            raise DuplicateName(name).at(tok.line, tok.col)
        tok = self.next()
        if tok.kind != "sym" or tok.text not in ("(", "["):
            raise ParseError("expected '(' or '[' in declaration",
                             tok.line, tok.col)
        args = tuple(self.comma_list(partial(self.mtype, scope),
                                     ")" if tok.text == "(" else "]"))
        if tok.text == "[":
            scope[name] = (PRED, len(args))
            return PredDecl(name, args)
        self.expect("sym", "->")
        result = self.mtype(scope)
        if args:
            scope[name] = (FUNC, len(args))
            return FunDecl(name, args, result)
        scope[name] = (OBJ, 0)
        return ObjDecl(name, result)

    # ------------------------------------------------------------- types

    def mtype(self, scope: _Scope) -> MType:
        with self:
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "set":
                self.next()
                return SET
            if tok.kind == "kw" and tok.text == "non":
                self.next()
                attr_tok = self.name_tok("an attribute name")
                self._want_attr(attr_tok)
                return NonAttr(attr_tok.text, self.mtype(scope))
            if tok.kind == "kw" and tok.text == "Element":
                self.next()
                self.expect("kw", "of")
                if self.sig.elementof is None:
                    raise ParseError(
                        "no mode is tagged 'elementof' in the signature",
                        tok.line, tok.col)
                return Mode(self.sig.elementof, (self.term(scope),))
            if tok.kind == "name":
                entry = self.sig.lookup(tok.text)
                if tok.text in scope or entry is None:
                    self.next()
                    raise UnknownName(tok.text).at(tok.line, tok.col)
                if entry.kind == ATTR:
                    self.next()
                    return Attr(tok.text, self.mtype(scope))
                if entry.kind == MODE:
                    self.next()
                    args: list[MTerm] = []
                    if self.at("sym", "("):
                        self.next()
                        args = self.comma_list(partial(self.term, scope), ")")
                    if entry.arity != len(args) + 1:
                        raise ArityMismatch(
                            tok.text, entry.arity - 1, len(args)
                        ).at(tok.line, tok.col)
                    return Mode(tok.text, tuple(args))
                self.next()
                raise KindMismatch(tok.text, "a mode or attribute").at(
                    tok.line, tok.col)
            raise ParseError(f"expected a type, got {tok.text!r}",
                             tok.line, tok.col)

    def _want_attr(self, tok: Token) -> None:
        entry = self.sig.lookup(tok.text)
        if entry is None:
            raise UnknownName(tok.text).at(tok.line, tok.col)
        if entry.kind != ATTR:
            raise KindMismatch(tok.text, "an attribute").at(tok.line, tok.col)

    # ------------------------------------------------------------- terms

    def term(self, scope: _Scope) -> MTerm:
        with self:
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "the":
                self.next()
                return The(self.mtype(scope))
            if tok.kind == "sym" and tok.text == "{":
                return self.fraenkel(scope)
            if tok.kind == "name":
                return self.named_term(scope)
            raise ParseError(f"expected a term, got {tok.text!r}",
                             tok.line, tok.col)

    def named_term(self, scope: _Scope) -> MTerm:
        tok = self.next()
        name = tok.text
        got = scope.get(name)
        if got is not None:
            kind, arity = got
            if kind == OBJ:
                if self.at("sym", "("):
                    # the F()-style reference to an object variable
                    self.next()
                    if not self.at("sym", ")"):
                        raise KindMismatch(name, "a function variable").at(
                            tok.line, tok.col)
                    self.next()
                return ObjVar(name)
            if kind != FUNC:
                raise KindMismatch(name, "usable in a term").at(
                    tok.line, tok.col)
            app = FunVarApp
        else:
            entry = self.sig.lookup(name)
            if entry is None:
                raise UnknownName(name).at(tok.line, tok.col)
            if entry.kind == OBJ:
                if self.at("sym", "("):
                    raise KindMismatch(name, "a function").at(
                        tok.line, tok.col)
                return ObjConst(name)
            if entry.kind != FUNC:
                raise KindMismatch(name, "usable in a term").at(
                    tok.line, tok.col)
            app, arity = FunConstApp, entry.arity
        if not self.at("sym", "("):
            raise ArityMismatch(name, arity, 0).at(tok.line, tok.col)
        self.next()
        args = self.comma_list(partial(self.term, scope), ")")
        if len(args) != arity:
            raise ArityMismatch(name, arity, len(args)).at(tok.line, tok.col)
        return app(name, tuple(args))

    def fraenkel(self, scope: _Scope) -> MTerm:
        open_tok = self.expect("sym", "{")
        start = self.pos
        # The member term precedes the binders that scope over it, so
        # find our 'where', parse binders and guard first, then rewind.
        where_at = self._find_where(open_tok)
        self.pos = where_at + 1
        inner = dict(scope)
        names: list[str] = []

        def binder() -> tuple[str, MType]:
            tok = self.name_tok("a binder name")
            if tok.text in names:
                raise DuplicateName(tok.text).at(tok.line, tok.col)
            self.expect("kw", "is")
            mt = self.mtype(inner)
            names.append(tok.text)
            inner[tok.text] = (OBJ, 0)
            return tok.text, mt

        binders = self.comma_list(binder)
        self.expect("sym", ":")
        guard = self.prop(inner)
        self.expect("sym", "}")
        end = self.pos
        self.pos = start
        body = self.term(inner)
        if self.pos != where_at:
            tok = self.peek()
            raise ParseError(f"expected 'where', got {tok.text!r}",
                             tok.line, tok.col)
        self.pos = end
        return Fraenkel(tuple(binders), body, guard)

    def _find_where(self, open_tok: Token) -> int:
        depth = 0
        for i in range(self.pos, len(self.toks)):
            tok = self.toks[i]
            if tok.kind == "sym" and tok.text == "{":
                depth += 1
            elif tok.kind == "sym" and tok.text == "}":
                if depth == 0:
                    break
                depth -= 1
            elif tok.kind == "kw" and tok.text == "where" and depth == 0:
                return i
        raise ParseError("comprehension without 'where'",
                         open_tok.line, open_tok.col)

    # ------------------------------------------------------ propositions

    def prop(self, scope: _Scope) -> MProp:
        """Operands joined by the connectives of ``_CONNECTIVES``.  A
        connective waits on ``ops`` until a looser one or the end of the
        proposition closes it, so equal levels fold to the right."""
        with self:
            operands = [self.prop_not(scope)]
            ops: list[int] = []
            while True:
                level = _LEVEL.get(self.peek()[:2], -1)
                while ops and ops[-1] > level:
                    rhs = operands.pop()
                    operands[-1] = _CONNECTIVES[ops.pop()][2](
                        operands[-1], rhs)
                if level < 0:
                    return operands[0]
                self.next()
                ops.append(level)
                operands.append(self.prop_not(scope))

    def prop_not(self, scope: _Scope) -> MProp:
        count = 0
        while self.at("kw", "not"):
            self.next()
            count += 1
        p = self.prop_atom(scope)
        for _ in range(count):
            p = MNot(p)
        return p

    def prop_atom(self, scope: _Scope) -> MProp:
        with self:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "(":
                self.next()
                p = self.prop(scope)
                self.expect("sym", ")")
                return p
            if tok.kind == "kw" and tok.text in ("for", "ex"):
                return self.quantified(scope, tok.text)
            if tok.kind == "name":
                pred = self.pred_resolution(tok.text, scope)
                bracket = self.at("sym", "[", ahead=1)
                if bracket and pred is None:
                    self.next()
                    raise KindMismatch(tok.text, "a predicate").at(
                        tok.line, tok.col)
                paren = self.at("sym", "(", ahead=1)
                if pred is not None and (bracket or paren or pred[1] == 0):
                    self.next()
                    args: tuple[MTerm, ...] = ()
                    if bracket or paren:
                        close = "]" if self.next().text == "[" else ")"
                        args = tuple(self.comma_list(
                            partial(self.term, scope), close))
                    node, arity = pred
                    if len(args) != arity:
                        raise ArityMismatch(tok.text, arity, len(args)).at(
                            tok.line, tok.col)
                    return node(tok.text, args)
            return self.relational(scope)

    def quantified(self, scope: _Scope, kw: str) -> MProp:
        """One quantifier block.  Variables may share a type ("for x, y
        being set") and blocks may chain ("for x being set ex y being
        set st ..."); the body keyword is "holds" after "for" and "st"
        after "ex"."""
        with self:
            self.expect("kw", kw)
            names = self.comma_list(
                lambda: self.name_tok("a variable name").text)
            self.expect("kw", "being")
            mt = self.mtype(scope)
            inner = dict(scope)
            for name in names:
                inner[name] = (OBJ, 0)
            nxt = self.peek()
            if nxt.kind == "kw" and nxt.text in ("for", "ex"):
                body = self.quantified(inner, nxt.text)
            else:
                self.expect("kw", "holds" if kw == "for" else "st")
                body = self.prop(inner)
            ctor = ForBeing if kw == "for" else ExBeing
            for name in reversed(names):
                body = ctor(name, mt, body)
            return body

    def pred_resolution(
            self, name: str, scope: _Scope) -> tuple[type, int] | None:
        """How ``name`` would resolve as a predicate: the node it builds
        and its arity, or None if it is not predicate-like."""
        got = scope.get(name)
        if got is not None:
            return (PredVarApp, got[1]) if got[0] == PRED else None
        entry = self.sig.lookup(name)
        if entry is not None and entry.kind in (PRED, ATTR, MODE):
            return PredConstApp, entry.arity
        return None

    def relational(self, scope: _Scope) -> MProp:
        lhs = self.term(scope)
        tok = self.next()
        if tok.kind == "kw" and tok.text == "in":
            return MIn(lhs, self.term(scope))
        if tok.kind == "sym" and tok.text == "=":
            return MEq(lhs, self.term(scope))
        raise ParseError(f"expected '=' or 'in', got {tok.text!r}",
                         tok.line, tok.col)
