"""Concrete syntax: lexer, module and query parsers, and formatters.

Grammar (also shipped in the README):

    module   ::= header? unknowns? clause*
    header   ::= "module" NAME "."
    unknowns ::= "unknown" VAR ("," VAR)* "."
    clause   ::= prefix* atom (":-" goal)? "."
    prefix   ::= ("all" | "all*") VAR ("," VAR)* ":"
    goal     ::= atom | goal "," goal | "(" goal ")"
               | ("some" | "some*") VAR ":" goal
    atom     ::= NAME | NAME "(" term ("," term)* ")"
    term     ::= VAR | "_" | INT | "*" | NAME | NAME "(" term ("," term)* ")"

Identifiers starting lowercase are constants/functors/predicates, starting
uppercase are variables.  ``%`` starts a line comment.  ``?`` is reserved
(don't-know constants print as ``?k<N>`` but cannot be written in source).
``some``/``all`` binders scope to the end of the enclosing group.  A ``*``
argument is only legal in facts, where loading turns it into a fresh
don't-know constant.

The lexer is one regular expression, ``_TOKEN``, that splits the text into
token strings, each token's kind following from its text.  A second pass of
it (``_scan``) finds lines and columns when an issue is reported, and reads
a text with a match that is not one token (only malformed text has one).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterator, Optional

from .terms import Compound, Const, Star, Term, Unknown, Var, fold_term, fresh_var, subterms
from .syntax import Atom, Clause, Conj, Exists, Fact, Forall, Goal, Rule, binders

RESERVED_WORDS = {"module", "unknown", "some", "all", "some*", "all*"}


@dataclass(frozen=True)
class ParseIssue:
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    """Raised with the full list of issues found in the input; loading
    raises it too, for Skolemization and well-formedness issues."""

    def __init__(self, issues: list[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class SourceModule:
    """A parsed module, before Skolemization and variable closure.

    ``clause_starts`` holds the index of each raw clause's first token in
    ``text``; ``source_spans`` finds their lines and columns.
    """

    name: str
    unknown_decls: tuple[str, ...]
    raw_clauses: tuple[Clause, ...]
    text: str = field(repr=False)
    clause_starts: tuple[int, ...] = field(repr=False)

    @property
    def source_spans(self) -> tuple[tuple[int, int], ...]:
        """The line and column of each raw clause, found by a scan of the text."""
        places = _places(self.text)[1]
        return tuple(places[at] for at in self.clause_starts)


# Whitespace, then a comment or one token: a run of word characters (those of
# str.isalnum, and "_") with any star right after it, ":-", or any other
# character.  The group is empty only at the end of the text, the end-of-input
# token.  Comments are tokens, dropped later: a repeated group would keep
# matcher state per repeat.  ``_pieces`` splits a match that is not one token.
_TOKEN = re.compile(r"[ \t\r\n]*(%[^\n]*|\w+\*?|:-|.)?")

_KINDS = {"": "eof", ":-": "turnstile", "(": "lparen", ")": "rparen", ",": "comma", ".": "period",
          ":": "colon", "*": "star", "_": "anon", "some*": "lower", "all*": "lower"}


def _kind(text: str) -> Optional[str]:
    """The kind of the token with this text; None if the text is no token."""
    kind = _KINDS.get(text)
    if kind or text[-1] == "*":
        return kind
    if text[0].isalpha():
        return "upper" if text[0].isupper() else "lower"
    return "int" if text.isdigit() else None


def _pieces(text: str) -> list[str]:
    """The tokens and strays of a match that is not one token: a run of
    digits is a number, a letter or "_" starts a word to the end of the
    run, any other character is a stray, and a star joins only the words
    ``some`` and ``all``."""
    run, star = (text[:-1], ["*"]) if text[-1] == "*" else (text, [])
    start = next((i for i, c in enumerate(run) if c.isalpha() or c == "_"), len(run))
    pieces: list[str] = []
    for digits, chars in groupby(run[:start], str.isdigit):
        pieces.extend(["".join(chars)] if digits else chars)
    word = run[start:]
    if star and word in ("some", "all"):
        word, star = word + "*", []
    return pieces + ([word] if word else []) + star


def _lex(text: str) -> tuple[list[str], list[str], bool]:
    """The texts and kinds of the tokens, ending in ``""``, ``"eof"``, and
    whether the text has no strays.  Strays are left out, so the parser
    can go on to report later problems in the same input."""
    texts = _TOKEN.findall(text)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()  # after trailing whitespace, the end matches again, empty
    if "%" in text:
        texts = [t for t in texts if t[:1] != "%"]
    kinds = {t: _kind(t) for t in set(texts)}
    if None not in kinds.values():
        return texts, list(map(kinds.__getitem__, texts)), True
    scanned = [(piece, kind) for _, _, piece, kind in _scan(text)]
    texts, kinds = map(list, zip(*[(piece, kind) for piece, kind in scanned if kind]))
    return texts, kinds, len(texts) == len(scanned)


def _scan(text: str) -> Iterator[tuple[int, int, str, Optional[str]]]:
    """``_lex``'s reading of the text with places: each token and stray as
    ``(line, col, text, kind)``, kind None for a stray.  A column counts
    from the start of its line, which only a newline in whitespace moves."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        lexeme = m.group(1) or ""
        at = m.end() - len(lexeme)
        if "\n" in m.group():
            line += text.count("\n", m.start(), at)
            line_start = text.rfind("\n", m.start(), at) + 1
        if lexeme[:1] == "%":
            continue
        kind = _kind(lexeme)
        for piece in [lexeme] if kind else _pieces(lexeme):
            yield line, at - line_start + 1, piece, kind or _kind(piece)
            at += len(piece)
        if not lexeme:
            return  # the end of the text


def _places(text: str) -> tuple[list[ParseIssue], list[tuple[int, int]]]:
    """The issues of the text's strays, and the line and column of each token."""
    strays, places = [], []
    for line, col, piece, kind in _scan(text):
        if kind:
            places.append((line, col))
        elif piece == "?":
            strays.append(ParseIssue("reserved token '?' (don't-know constants cannot be "
                                     "written in source)", line, col))
        else:
            what = "invalid identifier" if piece[0] == "_" else "unexpected character"
            strays.append(ParseIssue(f"{what} {piece!r}", line, col))
    return strays, places


def _report(text: str, errors: list[tuple[int, str]]) -> ParseError:
    """The error for the text's strays, then for each (token index, message)."""
    strays, places = _places(text)
    return ParseError(strays + [ParseIssue(message, *places[at]) for at, message in errors])


class _Syntax(Exception):
    """A syntax error, as the index of the token it is at and a message."""


class _Parser:
    def __init__(self, texts: list[str], kinds: list[str]):
        self.texts = texts
        self.kinds = kinds
        self.pos = 0
        # provisional per-input variable table: one Var per name
        self.var_table: dict[str, Var] = {}

    def peek(self) -> str:
        """The next token's kind."""
        return self.kinds[self.pos]

    def take(self) -> str:
        """The next token's text, stepping past it unless it ends the input."""
        text = self.texts[self.pos]
        if text:
            self.pos += 1
        return text

    def expect(self, kind: str, what: str) -> str:
        if self.kinds[self.pos] != kind:
            self.fail(f"expected {what}, found {self.texts[self.pos] or 'end of input'!r}")
        return self.take()

    def fail(self, message: str, at: Optional[int] = None) -> None:
        raise _Syntax(self.pos if at is None else at, message)

    def var_for(self, name: str) -> Var:
        v = self.var_table.get(name)
        if v is None:
            v = fresh_var(name)
            self.var_table[name] = v
        return v

    # -- terms ------------------------------------------------------------

    def parse_term(self, allow_star: bool) -> Term:
        kind = self.peek()
        if kind == "upper":
            return self.var_for(self.take())
        if kind == "anon":
            self.take()
            return fresh_var("_")
        if kind == "int":
            return Const(self.take())
        if kind == "star":
            if not allow_star:
                self.fail("placeholder '*' is only allowed in fact arguments")
            self.take()
            return Star()
        text = self.texts[self.pos]
        if kind == "lower":
            if text in RESERVED_WORDS:
                self.fail(f"reserved word {text!r} cannot be used as a term")
            self.take()
            args = self.parse_args(allow_star)
            return Compound(text, args) if args else Const(text)
        self.fail(f"expected a term, found {text or 'end of input'!r}")

    def parse_atom(self, allow_star: bool) -> Atom:
        text = self.texts[self.pos]
        if self.peek() != "lower":
            self.fail(f"expected a predicate name, found {text or 'end of input'!r}")
        if text in RESERVED_WORDS:
            self.fail(f"reserved word {text!r} cannot be used as a predicate")
        self.take()
        return Atom(text, self.parse_args(allow_star))

    def parse_args(self, allow_star: bool) -> tuple[Term, ...]:
        """The parenthesized argument list after a name; () when none follows."""
        if self.peek() != "lparen":
            return ()
        self.take()
        args = [self.parse_term(allow_star)]
        while self.peek() == "comma":
            self.take()
            args.append(self.parse_term(allow_star))
        self.expect("rparen", "')'")
        return tuple(args)

    # -- goals ------------------------------------------------------------

    def parse_goal_group(self) -> Goal:
        """A comma-separated group; binders swallow the rest of the group,
        each opening a group of its own in a loop, closed at the end."""
        items: list[Goal] = []
        opened: list[tuple[list[Goal], str, bool]] = []
        while True:
            text = self.texts[self.pos]
            if text in ("some", "some*"):
                self.take()
                name = self.expect("upper", "a variable after the binder")
                self.expect("colon", "':'")
                opened.append((items, name, text == "some*"))
                items = []
                continue
            if text in ("all", "all*"):
                self.fail("universal binders are not allowed in goals")
            if self.peek() == "lparen":
                self.take()
                items.append(self.parse_goal_group())
                self.expect("rparen", "')'")
            else:
                items.append(self.parse_atom(allow_star=False))
            if self.peek() == "comma":
                self.take()
                continue
            break
        goal = items.pop()
        while True:
            for item in reversed(items):
                goal = Conj(item, goal)
            if not opened:
                return goal
            items, name, noisy = opened.pop()
            goal = Exists(self.var_for(name), goal, noisy)

    # -- clauses ----------------------------------------------------------

    def parse_clause(self) -> Clause:
        prefixes: list[tuple[Var, bool]] = []
        while self.texts[self.pos] in ("all", "all*"):
            noisy = self.take() == "all*"
            names = [self.expect("upper", "a variable after the prefix")]
            while self.peek() == "comma":
                self.take()
                names.append(self.expect("upper", "a variable"))
            self.expect("colon", "':'")
            prefixes.extend((self.var_for(name), noisy) for name in names)
        head = self.parse_atom(allow_star=True)
        clause: Clause
        if self.peek() == "turnstile":
            if any(type(t) is Star for arg in head.args for t in subterms(arg)):
                self.fail("placeholder '*' is only allowed in fact arguments")
            self.take()
            body = self.parse_goal_group()
            clause = Rule(head, body)
        else:
            clause = Fact(head)
        self.expect("period", "'.' at end of clause")
        for var, noisy in reversed(prefixes):
            clause = Forall(var, clause, noisy)
        return clause


def parse_module(text: str, default_name: str = "main") -> SourceModule:
    """Parse module source into raw clauses.

    A malformed clause is reported and parsing resumes after the next
    period, so one pass collects every error in the input.
    """
    texts, kinds, clean = _lex(text)
    parser = _Parser(texts, kinds)
    name = default_name
    had_header = False
    unknown_decls: list[str] = []
    clauses: list[Clause] = []
    starts: list[int] = []
    errors: list[tuple[int, str]] = []

    while parser.peek() != "eof":
        at = parser.pos
        try:
            if texts[at] == "module" and kinds[at + 1] == "lower":
                parser.take()
                header_name = parser.take()
                parser.expect("period", "'.' after the module header")
                if had_header:
                    parser.fail("duplicate module header", at)
                if clauses or unknown_decls:
                    parser.fail("module header must come first", at)
                name = header_name
                had_header = True
                continue
            if texts[at] == "unknown":
                parser.take()
                decls = [parser.pos]
                parser.expect("upper", "a name after 'unknown'")
                while parser.peek() == "comma":
                    parser.take()
                    decls.append(parser.pos)
                    parser.expect("upper", "a name")
                parser.expect("period", "'.' after the unknown declaration")
                if clauses:
                    parser.fail("unknown declaration must precede clauses", at)
                for decl in decls:
                    if texts[decl] in unknown_decls:
                        parser.fail(f"duplicate unknown name {texts[decl]}", decl)
                    unknown_decls.append(texts[decl])
                continue
            # each clause resolves names in its own scope
            parser.var_table = {}
            clauses.append(parser.parse_clause())
            starts.append(at)
        except _Syntax as err:
            errors.append(err.args)
            while parser.take() not in (".", ""):  # resume after the next period
                pass
    if errors or not clean:
        raise _report(text, errors)
    return SourceModule(name, tuple(unknown_decls), tuple(clauses), text, tuple(starts))


def _parse(text: str, rule: Callable[[_Parser], object], what: str):
    """Parse all of ``text`` by ``rule``; strays stop it before parsing."""
    texts, kinds, clean = _lex(text)
    if not clean:
        raise _report(text, [])
    parser = _Parser(texts, kinds)
    try:
        out = rule(parser)
        if what == "query" and parser.peek() == "period":
            parser.take()  # a query's period is optional
        if parser.peek() != "eof":
            parser.fail(f"unexpected input after the {what}")
    except _Syntax as err:
        raise _report(text, [err.args]) from None
    return out


def parse_query(text: str) -> Goal:
    """Parse a query; the trailing period is optional."""
    return _parse(text, _Parser.parse_goal_group, "query")


def parse_term(text: str) -> Term:
    return _parse(text, lambda parser: parser.parse_term(allow_star=False), "term")


# ---------------------------------------------------------------------------
# Formatting.  parse(format(x)) == x for everything the grammar can write.


def format_term(term: Term, var_text: Optional[Callable[[Var], str]] = None) -> str:
    """The text of a term; ``var_text``, when given, prints each variable."""
    if type(term) is Var or type(term) is Const:
        return var_text(term) if var_text and type(term) is Var else term.name
    if type(term) is Unknown:
        return f"?k{term.id}"
    if type(term) is Compound:
        # format_term formats the leaves, which are not compound
        return fold_term(term, lambda t: format_term(t, var_text), compound_text)
    if type(term) is Star:
        return "*"
    raise TypeError(f"not a term: {term!r}")


def compound_text(functor: str, args: tuple[str, ...]) -> str:
    return f"{functor}({', '.join(args)})"


def format_atom(a: Atom, var_text: Optional[Callable[[Var], str]] = None) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({', '.join([format_term(t, var_text) for t in a.args])})"


def format_goal(goal: Goal, var_text: Optional[Callable[[Var], str]] = None) -> str:
    if type(goal) is Atom:
        return format_atom(goal, var_text)
    # a binder chain and a rule body's Conj spine are loops: length costs no stack
    chain, goal = binders(goal) if type(goal) is Exists else ((), goal)
    parts = [f"{'some*' if b.noisy else 'some'} {b.var.name} : " for b in chain] if chain else []
    if type(goal) is Conj:
        conjuncts = []
        while type(goal) is Conj:
            left = format_goal(goal.left, var_text)
            conjuncts.append(f"({left})" if type(goal.left) in (Conj, Exists) else left)
            goal = goal.right
        conjuncts.append(format_goal(goal, var_text))
        parts.append(", ".join(conjuncts))
    elif isinstance(goal, Atom):
        parts.append(format_atom(goal, var_text))
    else:
        raise TypeError(f"not a goal: {goal!r}")
    return "".join(parts)


def format_clause(clause: Clause, var_text: Optional[Callable[[Var], str]] = None) -> str:
    chain, clause = binders(clause) if type(clause) is Forall else ((), clause)
    parts = [f"{'all*' if b.noisy else 'all'} {b.var.name} : " for b in chain]
    if type(clause) is Fact:
        parts.append(format_atom(clause.head, var_text))
    elif type(clause) is Rule:
        head, body = format_atom(clause.head, var_text), format_goal(clause.body, var_text)
        parts.append(f"{head} :- {body}")
    else:
        raise TypeError(f"not a clause: {clause!r}")
    return "".join(parts)
