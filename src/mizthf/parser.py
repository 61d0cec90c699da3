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

The lexer is one regular expression: each match skips whitespace
(space, tab, carriage return and newline) and ``#`` comments that end
in a newline, then captures one token, so ``findall`` yields every token
text in one pass.  ``""`` is the end of input, at the end of the text or
where a comment on the last line starts.  A word starts with a letter or
``_``; any other token text that is neither a keyword nor a symbol is a
stray character, refused before the grammar runs.  The parser works on
the texts alone, since a token's kind follows from its text.  An error
carries a token index; only when one is raised does ``tokenize`` run the
same pattern again to find its ``line:col``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Callable, NamedTuple, TypeVar

from .mizar import (
    BINDINGS, CONNECTIVES, FUNC, MAX_SIG_ARITY, NODES, OBJ, PRED,
    QUANTIFIERS,
    ArityMismatch, Attr, DuplicateName, Fraenkel, FunDecl, KindMismatch,
    MEq, MIn, MNot, MProp, MStatement, MTerm, MType, Mode, NonAttr, ObjDecl,
    ParseError, PredDecl, SET, Signature, SourceError, The, UnknownName,
    VarDecl, _Scope,
)

KEYWORDS = frozenset(
    "scheme statement set non the where is for being holds ex st "
    "not or implies iff in Element of".split()
)
_SYMBOLS = frozenset("-> { } ( ) [ ] , : = &".split())
# Keywords, symbols and eof; once strays are refused, any other text is
# a name.
_RESERVED = KEYWORDS | _SYMBOLS | {""}

# Tried in order after the skip: a word, a symbol of ``_SYMBOLS``, eof
# where a "#" the skip leaves starts a comment with no newline after it,
# any other character (a stray), and eof at the end.  ``\w`` also admits
# digits and numerals such as "²", which cannot start a word.
_LEXEME = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*(\w+|->|[{}()\[\],:=&]|(?=#)|.|\Z)")

_MAX_DEPTH = 200


class Token(NamedTuple):
    kind: str  # "name", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def _starts_word(c: str) -> bool:
    return c.isalpha() or c == "_"


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` with their positions, up to and including
    eof.  The first stray character raises ``ParseError``."""
    toks: list[Token] = []
    line, line_start, seen = 1, 0, 0
    for m in _LEXEME.finditer(text):
        word, start = m[1], m.start(1)
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, start) + 1
        seen = start
        col = start - line_start + 1
        if not word:
            kind = "eof"
        elif word in KEYWORDS:
            kind = "kw"
        elif word in _SYMBOLS:
            kind = "sym"
        elif _starts_word(word[0]):
            kind = "name"
        else:
            raise ParseError(f"stray character {word[0]!r}", line, col)
        toks.append(Token(kind, word, line, col))
        if kind == "eof":
            break
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
        col = raw.index(spec, raw.index(directive) + len(directive)) + 1
        try:
            if directive in ("obj", "attr"):
                sig.declare(_check_name(spec, lineno, col), directive)
            elif directive in ("func", "pred", "mode"):
                name, _, arity_s = spec.partition("/")
                if not (arity_s.isascii() and arity_s.isdigit()):
                    raise ParseError(
                        f"expected '{directive} NAME/ARITY'", lineno, col)
                if len(arity_s.lstrip("0")) > len(str(MAX_SIG_ARITY)):
                    arity_s = str(MAX_SIG_ARITY + 1)  # int() reads no more
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
    if not (m and m[1] == name and _starts_word(name[:1])):
        raise ParseError(f"invalid name {name!r}", line, col)
    return name


def parse_statement(text: str, sig: Signature) -> MStatement:
    """Parse one scheme or bare statement, resolving names against the
    scheme header and ``sig``.  Raises a ``SourceError`` subclass with a
    position on any malformed or unresolvable input."""
    toks = _LEXEME.findall(text)
    del toks[toks.index("") + 1:]
    if any(not _starts_word(t[0]) for t in set(toks) - _RESERVED):
        tokenize(text)  # raises at the first stray
    toks.append("")  # a lookahead from eof reads eof
    return _Parser(text, toks, sig).statement()


_T = TypeVar("_T")

# ``CONNECTIVES`` and ``QUANTIFIERS`` by their words.
_LEVEL = {c.word: c.level for c in CONNECTIVES.values()}
_CONNECTIVE_AT = {c.level: node for node, c in CONNECTIVES.items()}
_QUANTIFIER = {q.word: (node, q.body_word) for node, q in QUANTIFIERS.items()}


class _Slot(NamedTuple):
    """Where a category of named node is parsed: the nodes a name makes
    there by whether it is bound and its kind (``NODES``; no bound name
    makes a type), the brackets that may hold its arguments, and what a
    name of no such kind is told it is not."""

    nodes: dict[bool, dict[str, type]]
    brackets: dict[str, str]
    wanted: str


_TERM = _Slot(NODES[MTerm], {"(": ")"}, "usable in a term")
_PROP = _Slot(NODES[MProp], {"(": ")", "[": "]"}, "a predicate")
_TYPE = _Slot(NODES[MType], {"(": ")"}, "a mode or attribute")
_NON = _Slot({True: {}, False: dict.fromkeys(BINDINGS[NonAttr].kinds,
                                             NonAttr)},
             {}, BINDINGS[NonAttr].wanted)  # after ``non``
_BASED = (Attr, NonAttr)  # a base type follows the name


class _Parser:
    """A parse over token texts.  ``pos`` never passes eof, and a rule
    raises at a token index; ``error`` turns it into ``line:col``."""

    def __init__(self, source: str, toks: list[str], sig: Signature):
        self.source = source
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.depth = 0

    # ---------------------------------------------------- token plumbing

    def error(self, err: SourceError, i: int) -> SourceError:
        tok = tokenize(self.source)[i]
        return err.at(tok.line, tok.col)

    def expect(self, text: str) -> None:
        got = self.toks[self.pos]
        if got != text:
            raise self.error(ParseError(f"expected {text!r}, got {got!r}"),
                             self.pos)
        self.pos += 1

    def name(self, what: str) -> str:
        text = self.toks[self.pos]
        if text in _RESERVED:
            raise self.error(ParseError(f"expected {what}, got {text!r}"),
                             self.pos)
        self.pos += 1
        return text

    def comma_list(self, item: Callable[[], _T],
                   close: str | None = None) -> list[_T]:
        """``item ("," item)*``.  With a ``close`` symbol the list may be
        empty and must end with that symbol, which is consumed."""
        items: list[_T] = []
        if close is None or self.toks[self.pos] != close:
            items.append(item())
            while self.toks[self.pos] == ",":
                self.pos += 1
                items.append(item())
        if close is not None:
            self.expect(close)
        return items

    def __enter__(self) -> None:
        """``with self:`` around each recursive rule bounds the nesting."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error(ParseError("nesting too deep"), self.pos)

    def __exit__(self, *exc) -> None:
        self.depth -= 1

    # -------------------------------------------------------- statements

    def statement(self) -> MStatement:
        kw = self.toks[0]
        self.pos = 1
        if kw == "scheme":
            name = self.name("a scheme name")
            self.expect("{")
            scope: _Scope = {}
            prefix = self.comma_list(partial(self.decl, scope), "}")
            self.expect(":")
            body = self.prop(scope)
        elif kw == "statement":
            name = None
            prefix = []
            self.expect(":")
            body = self.prop({})
        else:
            raise self.error(ParseError("expected 'scheme' or 'statement'"),
                             0)
        if self.toks[self.pos]:
            raise self.error(ParseError(
                f"unexpected {self.toks[self.pos]!r} after statement"),
                self.pos)
        return MStatement(tuple(prefix), body, name)

    def decl(self, scope: _Scope) -> VarDecl:
        at = self.pos
        name = self.name("a variable name")
        if name in scope:
            raise self.error(DuplicateName(name), at)
        bracket = self.toks[self.pos]
        if bracket not in ("(", "["):
            raise self.error(
                ParseError("expected '(' or '[' in declaration"), self.pos)
        self.pos += 1
        args = tuple(self.comma_list(partial(self.mtype, scope),
                                     ")" if bracket == "(" else "]"))
        if bracket == "[":
            scope[name] = (PRED, len(args))
            return PredDecl(name, args)
        self.expect("->")
        result = self.mtype(scope)
        if args:
            scope[name] = (FUNC, len(args))
            return FunDecl(name, args, result)
        scope[name] = (OBJ, 0)
        return ObjDecl(name, result)

    # ------------------------------------------------------------- types

    def mtype(self, scope: _Scope) -> MType:
        with self:
            at = self.pos
            text = self.toks[at]
            if text == "set":
                self.pos += 1
                return SET
            if text == "non":
                self.pos += 1
                self.name("an attribute name")
                return self.named(_NON, scope, at + 1)
            if text == "Element":
                self.pos += 1
                self.expect("of")
                if self.sig.elementof is None:
                    raise self.error(ParseError(
                        "no mode is tagged 'elementof' in the signature"), at)
                return Mode(self.sig.elementof, (self.term(scope),))
            if text not in _RESERVED:
                return self.named(_TYPE, scope, at)
            raise self.error(ParseError(f"expected a type, got {text!r}"), at)

    # ------------------------------------------------------------- terms

    def term(self, scope: _Scope) -> MTerm:
        with self:
            text = self.toks[self.pos]
            if text == "the":
                self.pos += 1
                return The(self.mtype(scope))
            if text == "{":
                return self.fraenkel(scope)
            if text not in _RESERVED:
                return self.named(_TERM, scope, self.pos)
            raise self.error(ParseError(f"expected a term, got {text!r}"),
                             self.pos)

    def named(self, slot: _Slot, scope: _Scope, at: int) -> Any:
        """The named node whose name is the token at ``at``, in
        ``slot``: the name's kind picks the node, then come the node's
        arguments or base type.  Every name in a statement is judged
        here.  In ``_PROP``, a name that makes no predicate and has no
        ``[`` after it returns ``None``, and the caller reads a term."""
        toks = self.toks
        name = toks[at]
        nodes = slot.nodes
        # a type's name comes from the signature even where it is bound
        scoped = name in scope and bool(nodes[True])
        got = scope[name] if scoped else self.sig.lookup(name)
        node = got and nodes[scoped].get(got[0])
        close = slot.brackets.get(toks[at + 1])
        if slot is _PROP and close != "]" and not (
                node and (close or not got[1])):
            return None
        if not node:
            # a bound name where the signature's is wanted, or any name
            # before a predicate's "[", has the wrong kind
            raise self.error(
                UnknownName(name) if got is None and name not in scope
                and slot is not _PROP else KindMismatch(name, slot.wanted),
                at)
        self.pos = at + 1
        if node in _BASED:
            return node(name, self.mtype(scope))
        if got[0] == OBJ:
            if close:
                # the F()-style reference to an object variable
                if not scoped or toks[at + 2] != ")":
                    raise self.error(KindMismatch(
                        name, "a function variable" if scoped
                        else "a function"), at)
                self.pos += 2
            return node(name)
        args: list[MTerm] = []
        if close:
            self.pos += 1
            args = self.comma_list(partial(self.term, scope), close)
        arity = got[1] - BINDINGS[node].subject
        if len(args) != arity:
            raise self.error(ArityMismatch(name, arity, len(args)), at)
        return node(name, tuple(args))

    def fraenkel(self, scope: _Scope) -> MTerm:
        open_at = self.pos
        self.expect("{")
        start = self.pos
        # The member term precedes the binders that scope over it, so
        # find our 'where', parse binders and guard first, then rewind.
        where_at = self._find_where(open_at)
        self.pos = where_at + 1
        inner = dict(scope)
        names: list[str] = []

        def binder() -> tuple[str, MType]:
            at = self.pos
            name = self.name("a binder name")
            if name in names:
                raise self.error(DuplicateName(name), at)
            self.expect("is")
            mt = self.mtype(inner)
            names.append(name)
            inner[name] = (OBJ, 0)
            return name, mt

        binders = self.comma_list(binder)
        self.expect(":")
        guard = self.prop(inner)
        self.expect("}")
        end = self.pos
        self.pos = start
        body = self.term(inner)
        if self.pos != where_at:
            raise self.error(ParseError(
                f"expected 'where', got {self.toks[self.pos]!r}"), self.pos)
        self.pos = end
        return Fraenkel(tuple(binders), body, guard)

    def _find_where(self, open_at: int) -> int:
        depth = 0
        for i in range(self.pos, len(self.toks)):
            text = self.toks[i]
            if text == "{":
                depth += 1
            elif text == "}":
                if depth == 0:
                    break
                depth -= 1
            elif text == "where" and depth == 0:
                return i
        raise self.error(ParseError("comprehension without 'where'"),
                         open_at)

    # ------------------------------------------------------ propositions

    def prop(self, scope: _Scope) -> MProp:
        """Operands joined by the connectives of ``CONNECTIVES``.  A
        connective waits on ``ops`` until a looser one or the end of the
        proposition closes it, so equal levels fold to the right."""
        with self:
            operands = [self.prop_not(scope)]
            ops: list[int] = []
            while True:
                level = _LEVEL.get(self.toks[self.pos], 0)
                while ops and ops[-1] > level:
                    rhs = operands.pop()
                    operands[-1] = _CONNECTIVE_AT[ops.pop()](
                        operands[-1], rhs)
                if not level:
                    return operands[0]
                self.pos += 1
                ops.append(level)
                operands.append(self.prop_not(scope))

    def prop_not(self, scope: _Scope) -> MProp:
        count = 0
        while self.toks[self.pos] == "not":
            self.pos += 1
            count += 1
        p = self.prop_atom(scope)
        for _ in range(count):
            p = MNot(p)
        return p

    def prop_atom(self, scope: _Scope) -> MProp:
        with self:
            at = self.pos
            text = self.toks[at]
            if text == "(":
                self.pos += 1
                p = self.prop(scope)
                self.expect(")")
                return p
            if text in _QUANTIFIER:
                return self.quantified(scope, text)
            # a predicate, or else the left side of "=" or "in"
            return (text not in _RESERVED and self.named(_PROP, scope, at)
                    or self.relational(scope))

    def quantified(self, scope: _Scope, kw: str) -> MProp:
        """One quantifier block, from the ``kw`` at ``pos``.  Variables
        may share a type ("for x, y being set") and blocks may chain
        ("for x being set ex y being set st ..."); the body keyword is
        "holds" after "for" and "st" after "ex"."""
        with self:
            node, body_word = _QUANTIFIER[kw]
            self.pos += 1
            names = self.comma_list(partial(self.name, "a variable name"))
            self.expect("being")
            mt = self.mtype(scope)
            inner = {**scope, **dict.fromkeys(names, (OBJ, 0))}
            nxt = self.toks[self.pos]
            if nxt in _QUANTIFIER:
                body = self.quantified(inner, nxt)
            else:
                self.expect(body_word)
                body = self.prop(inner)
            for name in reversed(names):
                body = node(name, mt, body)
            return body

    def relational(self, scope: _Scope) -> MProp:
        lhs = self.term(scope)
        op = self.toks[self.pos]
        if op in ("in", "="):
            self.pos += 1
            return (MIn if op == "in" else MEq)(lhs, self.term(scope))
        raise self.error(ParseError(f"expected '=' or 'in', got {op!r}"),
                         self.pos)
