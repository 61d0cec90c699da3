"""Re-parse emitted THF0 text and type-check it.

``check_thf`` is the emitter's safety net.  It accepts the subset the
emitter produces (type, definition, axiom, conjecture roles; ``$i``,
``$o`` and right-associated arrows; the usual connectives, ``=``, the
``!``/``?``/``^`` binders and ``@`` application) and reports anything
outside that subset or ill-typed as diagnostics.  It shares no code
with the emitter, so a bug must be made twice to slip through.

The lexer is one regular expression with a named group per lexeme;
whitespace is whatever ``str.isspace`` accepts, ``%`` starts a comment.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import hol
from .hol import (
    All, And, App, Const, Eq, Ex, FnType, Iff, Imp, IND, Lam, Not, Or,
    PROP, TOP, Var,
)
from .mizar import Diagnostic

# One alternative per lexeme, tried in order.  ``\w`` also admits digits
# and numerals such as "²", which cannot start a word.
_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<word>\w+)
  | (?P<dollar>\$\w*)
  | (?P<sym><=>|=>|[()\[\]:,.>@~&|!?^=])
  | (?P<stray>.)
""", re.VERBOSE)


class _Tok(NamedTuple):
    kind: str  # word, dollar, sym, eof
    text: str
    line: int
    col: int

    @property
    def where(self) -> str:
        return f"{self.line}:{self.col}"


class _Reject(Exception):
    """Abandon the current formula line with one diagnostic."""

    def __init__(self, code: str, message: str, where: str):
        self.diagnostic = Diagnostic(code, message, where)
        super().__init__(message)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
        col = start - line_start + 1
        if kind == "stray" or (kind == "word" and not (
                word[0].isalpha() or word[0] == "_")):
            raise _Reject("syntax", f"stray character {word[0]!r}",
                          f"{line}:{col}")
        toks.append(_Tok(kind, word, line, col))
    toks.append(_Tok("eof", "", line, end - line_start + 1))
    return toks


class _Checker:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.decls: dict[str, hol.Type] = {}
        self.formula_names: set[str] = set()
        self.conjectures = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            raise _Reject("syntax", f"expected {text!r}, found "
                          f"{tok.text or 'end of input'!r}", tok.where)
        return tok

    def skip_line(self) -> None:
        depth = 0
        while True:
            tok = self.next()
            if tok.kind == "eof":
                return
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
            elif tok.text == "." and depth <= 0:
                return

    # -------------------------------------------------------- structure

    def run(self) -> list[Diagnostic]:
        # first pass collects declarations so formula order is free
        self.pass_over(types_only=True)
        if not self.diags:
            self.pass_over(types_only=False)
        if not self.diags and self.conjectures > 1:
            self.diags.append(Diagnostic(
                "conjectures", f"{self.conjectures} conjectures in one "
                "problem", ""))
        return self.diags

    def pass_over(self, types_only: bool) -> None:
        self.pos = 0
        while self.peek().kind != "eof":
            try:
                self.line(types_only)
            except _Reject as r:
                self.diags.append(r.diagnostic)
                self.skip_line()

    def line(self, types_only: bool) -> None:
        self.expect("thf")
        self.expect("(")
        name = self.next()
        if name.kind != "word" or not name.text[0].islower():
            raise _Reject("syntax", "formula name must be a lower word",
                          name.where)
        self.expect(",")
        role = self.next()
        if role.text not in ("type", "axiom", "definition", "conjecture"):
            raise _Reject("role", f"unsupported role {role.text!r}",
                          role.where)
        self.expect(",")
        if types_only:
            if name.text in self.formula_names:
                raise _Reject("duplicate", f"formula name {name.text!r} "
                              "reused", name.where)
            self.formula_names.add(name.text)
            if role.text == "type":
                self.type_line()
            else:
                self.skip_line()
                return
        else:
            if role.text == "type":
                self.skip_line()
                return
            if role.text == "conjecture":
                self.conjectures += 1
            formula = self.formula({})
            ty = self.check_type(formula, role)
            if ty != PROP:
                raise _Reject("ill-typed", f"{role.text} {name.text!r} has "
                              f"type {ty}, wanted o", name.where)
        self.expect(")")
        self.expect(".")

    def check_type(self, formula: hol.Term, role: _Tok) -> hol.Type:
        try:
            return hol.type_of(formula, self.decls)
        except hol.HolTypeError as e:
            raise _Reject("ill-typed", str(e), role.where) from None

    def type_line(self) -> None:
        cname = self.next()
        if cname.kind != "word" or not cname.text[0].islower():
            raise _Reject("syntax", "constant name must be a lower word",
                          cname.where)
        self.expect(":")
        ty = self.type()
        if cname.text in self.decls:
            raise _Reject("duplicate", f"constant {cname.text!r} declared "
                          "twice", cname.where)
        self.decls[cname.text] = ty

    def type(self) -> hol.Type:
        parts = [self.type_atom()]
        while self.peek().text == ">":
            self.next()
            parts.append(self.type_atom())
        ty = parts[-1]
        for dom in reversed(parts[:-1]):
            ty = FnType(dom, ty)
        return ty

    def type_atom(self) -> hol.Type:
        tok = self.next()
        if tok.text == "$i":
            return IND
        if tok.text == "$o":
            return PROP
        if tok.text == "(":
            ty = self.type()
            self.expect(")")
            return ty
        raise _Reject("syntax", f"expected a type, found {tok.text!r}",
                      tok.where)

    # --------------------------------------------------------- formulas

    def formula(self, env: dict[str, hol.Type]) -> hol.Term:
        first = self.unit(env)
        op = self.peek()
        if op.text == "@":
            term = first
            while self.peek().text == "@":
                self.next()
                term = App(term, self.unit(env))
            self.no_more_ops(op)
            return term
        if op.text in ("&", "|"):
            parts = [first]
            while self.peek().text == op.text:
                self.next()
                parts.append(self.unit(env))
            self.no_more_ops(op)
            ctor = And if op.text == "&" else Or
            term = parts[-1]
            for part in reversed(parts[:-1]):
                term = ctor(part, term)
            return term
        if op.text in ("=>", "<=>", "="):
            self.next()
            second = self.unit(env)
            self.no_more_ops(op)
            if op.text == "=>":
                return Imp(first, second)
            if op.text == "<=>":
                return Iff(first, second)
            try:
                at = hol.type_of(first, {**self.decls, **env})
            except hol.HolTypeError as e:
                raise _Reject("ill-typed", str(e), op.where) from None
            return Eq(first, second, at)
        return first

    def no_more_ops(self, opened: _Tok) -> None:
        tok = self.peek()
        if tok.text in ("@", "&", "|", "=>", "<=>", "="):
            raise _Reject("syntax", f"mixed operators {opened.text!r} and "
                          f"{tok.text!r} need parentheses", tok.where)

    def unit(self, env: dict[str, hol.Type]) -> hol.Term:
        tok = self.next()
        if tok.text == "(":
            term = self.formula(env)
            self.expect(")")
            return term
        if tok.text == "~":
            return Not(self.unit(env))
        if tok.text in ("!", "?", "^"):
            return self.binder(tok.text, env)
        if tok.text == "$true":
            return TOP
        if tok.kind == "word":
            if tok.text[0].islower():
                ty = self.decls.get(tok.text)
                if ty is None:
                    raise _Reject("undeclared", f"constant {tok.text!r} has "
                                  "no type declaration", tok.where)
                return Const(tok.text, ty)
            ty = env.get(tok.text)
            if ty is None:
                raise _Reject("unbound", f"variable {tok.text!r} is not "
                              "bound here", tok.where)
            return Var(tok.text, ty)
        raise _Reject("syntax", f"expected a formula, found "
                      f"{tok.text or 'end of input'!r}", tok.where)

    def binder(self, quant: str, env: dict[str, hol.Type]) -> hol.Term:
        self.expect("[")
        binders: list[tuple[str, hol.Type]] = []
        while True:
            v = self.next()
            if v.kind != "word" or not v.text[0].isupper():
                raise _Reject("syntax", "bound variable must be an upper "
                              "word", v.where)
            self.expect(":")
            binders.append((v.text, self.type()))
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("]")
        self.expect(":")
        inner = dict(env)
        inner.update(binders)
        body = self.unit(inner)
        ctor = {"!": All, "?": Ex, "^": Lam}[quant]
        for v, ty in reversed(binders):
            body = ctor(v, ty, body)
        return body


def check_thf(text: str) -> list[Diagnostic]:
    """Diagnostics for ``text``; empty means it conforms and type-checks."""
    try:
        toks = _tokenize(text)
    except _Reject as r:
        return [r.diagnostic]
    return _Checker(toks).run()
