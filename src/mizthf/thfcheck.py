"""Re-parse emitted THF0 text and type-check it.

``check_thf`` is the emitter's safety net.  It accepts the subset the
emitter produces (type, definition, axiom, conjecture roles; ``$i``,
``$o`` and right-associated arrows; the usual connectives, ``=``, the
``!``/``?``/``^`` binders and ``@`` application) and reports anything
outside that subset or ill-typed as diagnostics.  It shares no code
with the emitter, and none of ``hol``'s typing: it types each formula
while it parses it, so a bug must be made twice to slip through.

The lexer is one regular expression: each match skips whitespace
(whatever ``str.isspace`` accepts) and ``%`` comments that end in a
newline, then captures one token, so ``findall`` yields every token text
in one pass.  ``""`` is the end of input, at the end of the text or
where a comment on the last line starts.  The checker works on those
texts alone; a token's kind follows from its text.  A rejection carries
a token index; only when a diagnostic is reported does ``_positions``
run the same pattern again to find its ``line:col``.

A check reads each unit's header once, in one scan that checks the type
lines and queues the formula units, so a formula may use a constant
declared after it.  If the scan found nothing, each queued formula is
checked within the unit the scan delimited, so a fault is reported once
per unit and the next unit is still checked from its own start.

Every former checks its typing rule where it is parsed and returns its
type, so a formula gets one pass and no term is built.  An ill-typed
diagnostic sits at the offending token: the ``@`` whose head is not a
function, the argument or right side of ``=`` of the wrong type, the
connective operand or binder body that is not of type ``o``.  A
formula line whose whole formula is not of type ``o`` is reported at
its name.

A formula or type may nest at most ``MAX_DEPTH`` levels.  A level is
one ``(``, ``~`` or bound variable, or one link of an ``&``, ``|``,
``@`` or ``>`` chain; an operand of a chain sits on its link's level,
so the emitter's right-nested ``(a) & ((b) & (...))`` costs one level
per conjunct.  The limit is a stated policy, equal to the default
recursion limit, not a stack bound: the bound variables of one binder
list cost the parse no Python frame.  Within the limit a check takes at
most ``_STACK_ROOM`` frames, and ``check_thf`` raises the recursion
limit by that much while it runs.  Deeper input gets a ``too-deep``
diagnostic at the token that crosses the limit, so a check never raises
``RecursionError``.

Problems repeat most of their lines, so the checker keeps a memo per
process, keyed on the text of a physical line: a token never spans a
newline and a comment ends at one.  A line is memoized the second time
it is met (a line met once leaves only its hash), with its token texts
and, once a formula unit that is exactly that line has been checked
clean, the unit's verdict: its name and role, the constant a type line
declares, and the declared type of every constant the formula looked
up.  A check reuses a verdict only where every recorded lookup gives
the same type in the problem at hand, and still applies the rules that
span a problem: duplicate names, the conjecture count, and stray
characters (which a line with a verdict cannot hold, since no check
starts on a text with one).  The last line, which has no newline, is
lexed afresh.  When a check finds anything, the text is checked again
with no memo, so every diagnostic comes from the same path as without
one.  The memo and the set of hashes hold at most ``MEMO_LINES``
entries each; a full one is cleared.
"""

from __future__ import annotations

import re
import sys
import threading

from . import hol
from .hol import FnType, IND, PROP
from .mizar import Diagnostic

MAX_DEPTH = 1000
# The most Python frames a check takes (CPython 3.11).  Comparing or
# printing a type takes three frames an arrow, and the longest type a
# check compares has 2 * MAX_DEPTH arrows: a constant's MAX_DEPTH under a
# "^" of MAX_DEPTH bound variables.  A "(" costs the parse two frames,
# so parentheses around a shorter comparison cost less (5 * MAX_DEPTH).
_STACK_ROOM = 6 * MAX_DEPTH + 50
# the recursion limit is per process: one check at a time changes it
_STACK_LOCK = threading.Lock()
MEMO_LINES = 256

# Tried in order after the skip.  TPTP words are ASCII letters, digits
# and "_", and a digit cannot start one: such a token is a number, which
# no rule of the checked subset takes.  Any other character, such as "é"
# or "²", is a token of its own.  A "%" the skip leaves starts a comment
# with no newline after it, so eof is there; ``\Z`` makes the pattern
# match at the end, so findall never skips text.
_WORD = "[A-Za-z0-9_]"
_SYMBOLS = r"<=>|=>|[()\[\]:,.>@~&|!?^=]"
_LEXEME = re.compile(
    rf"\s*(?:%[^\n]*\n\s*)*({_WORD}+|\${_WORD}*|{_SYMBOLS}|(?=%)|.|\Z)")
_SYMBOL = re.compile(_SYMBOLS)


def _kind(text: str) -> str:
    if not text:
        return "eof"
    first = text[0]
    if first == "$":
        return "dollar"
    if first == "_" or first.isascii() and first.isalpha():
        return "word"
    if first.isascii() and first.isdigit():
        return "number"
    return "sym" if _SYMBOL.fullmatch(text) else "stray"


def _positions(text: str, wanted: set[int]) -> dict[int, tuple[int, int]]:
    """``(line, col)`` of the tokens with the wanted indices."""
    found: dict[int, tuple[int, int]] = {}
    line, line_start, seen = 1, 0, 0
    for k, m in enumerate(_LEXEME.finditer(text)):
        if k in wanted:
            start = m.start(1)
            newlines = text.count("\n", seen, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", seen, start) + 1
            seen = start
            found[k] = (line, start - line_start + 1)
            if len(found) == len(wanted):
                break
    return found


def _texts(text: str, pos: int = 0) -> list[str]:
    """The token texts of ``text`` from ``pos`` up to eof, ``""``, which
    ends the list.  A comment on the last line is lexed past eof, so it
    is cut off."""
    toks = _LEXEME.findall(text, pos)
    del toks[toks.index("") + 1:]
    return toks


class _Line:
    """A memoized line: its token texts and, once known, its verdict
    ``(name, "type", constant, type)`` for a type line, and
    ``(name, role, constants looked up, their types)`` for a formula."""

    __slots__ = ("toks", "verdict")

    def __init__(self, toks: list[str]):
        self.toks = toks
        self.verdict: tuple | None = None


_memo: dict[str, _Line] = {}   # keyed on the line without its "\n"
_seen: set[int] = set()        # hashes of lines met once


def _lex(text: str) -> tuple[list[str], dict[int, _Line], list[str]]:
    """``_texts(text)``; the memoized lines by the index of their first
    token; and the tokens outside lines with a verdict, the only ones
    that may be stray.  Lines not memoized are lexed in runs, one
    ``findall`` a run.  A run ending in "\n" lexes to its tokens and two
    eofs: the match that takes the newline, then the empty match at the
    end."""
    toks: list[str] = []
    known: dict[int, _Line] = {}
    unchecked: list[str] = []
    run = start = 0  # where the pending run and the current line start
    for line in text.split("\n")[:-1]:
        end = start + len(line) + 1
        memo = _memo.get(line)
        if memo is None:
            if hash(line) not in _seen:
                if len(_seen) >= MEMO_LINES:
                    _seen.clear()
                _seen.add(hash(line))
                start = end
                continue
            if len(_memo) >= MEMO_LINES:
                _memo.clear()
            memo = _memo[line] = _Line(_LEXEME.findall(text, start, end)[:-2])
        if run < start:
            part = _LEXEME.findall(text, run, start)[:-2]
            toks += part
            unchecked += part
        if memo.toks:
            known[len(toks)] = memo
            toks += memo.toks
            if memo.verdict is None:
                unchecked += memo.toks
        run = start = end
    tail = _texts(text, run)
    return toks + tail, known, unchecked + tail


class _Reject(Exception):
    """Abandon the current formula line with one diagnostic at the token
    with index ``at``."""

    def __init__(self, code: str, message: str, at: int):
        self.code, self.message, self.at = code, message, at
        super().__init__(message)


def _too_deep(at: int) -> _Reject:
    return _Reject("too-deep", f"nesting deeper than {MAX_DEPTH} levels", at)


def _want(expected: hol.Type, found: hol.Type, at: int) -> None:
    if found != expected:
        raise _Reject("ill-typed", f"expected {expected}, found {found}", at)


class _Checker:
    """Checks a list of token texts; ``""`` is eof.  Each method that
    rejects a token notes ``self.pos`` before taking it: that is the
    token's index, eof included, since ``next`` never moves past eof."""

    def __init__(self, toks: list[str], known: dict[int, _Line]):
        self.toks = toks
        self.known = known
        self.pos = 0
        self.found: list[tuple[str, str, int | None]] = []
        self.decls: dict[str, hol.Type] = {}
        self.formula_names: set[str] = set()

    def next(self) -> str:
        tok = self.toks[self.pos]
        if tok:
            self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        at = self.pos
        tok = self.toks[at]
        if tok != text:
            self.next()
            raise _Reject("syntax", f"expected {text!r}, found "
                          f"{tok or 'end of input'!r}", at)
        self.pos = at + 1

    def skip_line(self) -> None:
        """Move past the next "." outside parentheses, or to eof."""
        toks, depth, start = self.toks, 0, self.pos
        while True:
            try:
                end = toks.index(".", start)
            except ValueError:
                self.pos = len(toks) - 1  # eof, the final ""
                return
            part = toks[start:end]
            depth += part.count("(") - part.count(")")
            start = end + 1
            if depth <= 0:
                self.pos = start
                return

    # -------------------------------------------------------- structure

    def run(self) -> list[tuple[str, str, int | None]]:
        queued: list[tuple[int, _Line | None]] = []
        while self.toks[self.pos]:
            start = self.pos
            memo = self.known.get(start)
            if memo and memo.verdict and self.declare(memo.verdict):
                self.pos += len(memo.toks)
                if memo.verdict[1] != "type":
                    queued.append((start, memo))
                continue
            try:
                if self.header() != "type":
                    queued.append((start, memo))
                    self.skip_line()
                    continue
                cname, ty = self.type_line()
                self.expect(")")
                self.expect(".")
            except _Reject as r:
                self.found.append((r.code, r.message, r.at))
                self.skip_line()
                continue
            if memo and self.pos == start + len(memo.toks):
                memo.verdict = (self.toks[start + 2], "type", cname, ty)
        if not self.found:
            for start, memo in queued:
                try:
                    self.body(start, memo)
                except _Reject as r:
                    self.found.append((r.code, r.message, r.at))
        goals = sum(self.toks[s + 4] == "conjecture" for s, _ in queued)
        if not self.found and goals > 1:
            self.found.append(("conjectures", f"{goals} conjectures in one "
                               "problem", None))
        return self.found

    def declare(self, verdict: tuple) -> bool:
        """Claim a clean unit's name and declaration, if they are free."""
        name, role, cname, ty = verdict
        if name in self.formula_names or (
                role == "type" and cname in self.decls):
            return False
        self.formula_names.add(name)
        if role == "type":
            self.decls[cname] = ty
        return True

    def header(self) -> str:
        """Read ``thf(name, role,``, claim the name and return the role."""
        self.expect("thf")
        self.expect("(")
        name_at = self.pos
        name = self.next()
        if not name[:1].islower():
            raise _Reject("syntax", "formula name must be a lower word",
                          name_at)
        self.expect(",")
        role_at = self.pos
        role = self.next()
        if role not in ("type", "axiom", "definition", "conjecture"):
            raise _Reject("role", f"unsupported role {role!r}", role_at)
        self.expect(",")
        if name in self.formula_names:
            raise _Reject("duplicate", f"formula name {name!r} reused",
                          name_at)
        self.formula_names.add(name)
        return role

    def body(self, start: int, memo: _Line | None) -> None:
        """Check the formula of the unit at ``start`` after its six-token
        header, or take its verdict if every lookup agrees here."""
        name, role = self.toks[start + 2], self.toks[start + 4]
        verdict = memo and memo.verdict
        if verdict and tuple(map(self.decls.get, verdict[2])) == verdict[3]:
            return
        self.pos = start + 6
        ty = self.formula({}, 0)
        if ty != PROP:
            raise _Reject("ill-typed", f"{role} {name!r} has type {ty}, "
                          "wanted o", start + 2)
        self.expect(")")
        self.expect(".")
        if memo and self.pos == start + len(memo.toks):
            # every lower word of a clean formula is a declared constant
            used = {t: self.decls[t] for t in self.toks[start + 6:self.pos - 2]
                    if t[:1].islower()}
            memo.verdict = (name, role, tuple(used), tuple(used.values()))

    def type_line(self) -> tuple[str, hol.Type]:
        at = self.pos
        cname = self.next()
        if not cname[:1].islower():
            raise _Reject("syntax", "constant name must be a lower word",
                          at)
        self.expect(":")
        ty = self.type(0)
        if cname in self.decls:
            raise _Reject("duplicate", f"constant {cname!r} declared "
                          "twice", at)
        self.decls[cname] = ty
        return cname, ty

    def type(self, depth: int) -> hol.Type:
        parts = [self.type_atom(depth)]
        while self.toks[self.pos] == ">":
            level = depth + len(parts)
            if level > MAX_DEPTH:
                raise _too_deep(self.pos)
            self.next()
            # an operand's "(" opens its link's level, not another
            parts.append(self.type_atom(level - 1))
        ty = parts[-1]
        for dom in reversed(parts[:-1]):
            ty = FnType(dom, ty)
        return ty

    def type_atom(self, depth: int) -> hol.Type:
        at = self.pos
        tok = self.next()
        if tok == "$i":
            return IND
        if tok == "$o":
            return PROP
        if tok == "(":
            if depth >= MAX_DEPTH:
                raise _too_deep(at)
            ty = self.type(depth + 1)
            self.expect(")")
            return ty
        raise _Reject("syntax", f"expected a type, found {tok!r}", at)

    # --------------------------------------------------------- formulas

    def formula(self, env: dict[str, hol.Type], depth: int) -> hol.Type:
        start = self.pos
        ty = self.unit(env, depth)
        op = self.toks[self.pos]
        if op in ("@", "&", "|"):
            if op != "@":
                _want(PROP, ty, start)
            level = depth
            while self.toks[self.pos] == op:
                at = self.pos
                level += 1
                if level > MAX_DEPTH:
                    raise _too_deep(at)
                self.pos = at + 1
                wanted = PROP
                if op == "@":
                    if not isinstance(ty, FnType):
                        raise _Reject("ill-typed", f"{ty} is not a function "
                                      "type", at)
                    wanted, ty = ty.dom, ty.cod
                # an operand's "(", "~" or first bound variable opens its
                # link's level, not another
                _want(wanted, self.unit(env, level - 1), at + 1)
            self.no_more_ops(op)
            return ty
        if op in ("=>", "<=>", "="):
            if op != "=":
                _want(PROP, ty, start)
            self.next()
            at = self.pos
            _want(ty if op == "=" else PROP, self.unit(env, depth), at)
            self.no_more_ops(op)
            return PROP
        return ty

    def no_more_ops(self, opened: str) -> None:
        tok = self.toks[self.pos]
        if tok in ("@", "&", "|", "=>", "<=>", "="):
            raise _Reject("syntax", f"mixed operators {opened!r} and "
                          f"{tok!r} need parentheses", self.pos)

    def unit(self, env: dict[str, hol.Type], depth: int) -> hol.Type:
        at = self.pos
        tok = self.toks[at]
        if tok:  # self.next(), inlined on the hottest path
            self.pos = at + 1
        if tok == "(":
            if depth >= MAX_DEPTH:
                raise _too_deep(at)
            ty = self.formula(env, depth + 1)
            self.expect(")")
            return ty
        if tok == "~":
            if depth >= MAX_DEPTH:
                raise _too_deep(at)
            _want(PROP, self.unit(env, depth + 1), at + 1)
            return PROP
        if tok in ("!", "?", "^"):
            return self.binder(tok, env, depth)
        if tok == "$true":
            return PROP
        if _kind(tok) == "word":
            if tok[0].islower():
                ty = self.decls.get(tok)
                if ty is None:
                    raise _Reject("undeclared", f"constant {tok!r} has "
                                  "no type declaration", at)
                return ty
            ty = env.get(tok)
            if ty is None:
                raise _Reject("unbound", f"variable {tok!r} is not "
                              "bound here", at)
            return ty
        raise _Reject("syntax", f"expected a formula, found "
                      f"{tok or 'end of input'!r}", at)

    def binder(self, quant: str, env: dict[str, hol.Type],
               depth: int) -> hol.Type:
        self.expect("[")
        inner = dict(env)
        doms: list[hol.Type] = []
        while True:
            at = self.pos
            v = self.next()
            if not v[:1].isupper():
                raise _Reject("syntax", "bound variable must be an upper "
                              "word", at)
            if depth >= MAX_DEPTH:
                raise _too_deep(at)
            depth += 1
            self.expect(":")
            doms.append(self.type(depth))
            inner[v] = doms[-1]
            if self.toks[self.pos] == ",":
                self.next()
                continue
            break
        self.expect("]")
        self.expect(":")
        at = self.pos
        body = self.unit(inner, depth)
        if quant != "^":
            _want(PROP, body, at)
            return PROP
        for dom in reversed(doms):
            body = FnType(dom, body)
        return body


def _check(toks: list[str], known: dict[int, _Line], unchecked: list[str]
           ) -> list[tuple[str, str, int | None]]:
    """The rejections in ``toks``, from the stray characters among
    ``unchecked`` or else from a ``_Checker``."""
    strays = [tok for tok in set(unchecked) if _kind(tok) == "stray"]
    if strays:
        at = min(map(toks.index, strays))
        return [("syntax", f"stray character {toks[at][0]!r}", at)]
    with _STACK_LOCK:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + _STACK_ROOM)
        try:
            return _Checker(toks, known).run()
        finally:
            sys.setrecursionlimit(limit)


def check_thf(text: str) -> list[Diagnostic]:
    """Diagnostics for ``text``; empty means it conforms and type-checks."""
    toks, known, unchecked = _lex(text)
    found = _check(toks, known, unchecked)
    if not found:
        return []
    if known:
        found = _check(toks, {}, toks)
    where = _positions(text, {at for _, _, at in found if at is not None})
    return [Diagnostic(code, message,
                       "" if at is None else "%d:%d" % where[at])
            for code, message, at in found]
