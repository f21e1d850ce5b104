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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .terms import Compound, Const, Star, Term, Unknown, Var, fold_term, fresh_var, subterms
from .syntax import Atom, Clause, Conj, Exists, Fact, Forall, Goal, Rule

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

    ``source_spans`` holds the line and column of each raw clause.
    """

    name: str
    unknown_decls: tuple[str, ...]
    raw_clauses: tuple[Clause, ...]
    source_spans: tuple[tuple[int, int], ...]


@dataclass
class _Token:
    kind: str  # lower upper anon int star lparen rparen comma period colon turnstile eof
    text: str
    line: int
    col: int


_PUNCTUATION = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ".": "period",
    ":": "colon",
    "*": "star",
}


def _lex(text: str) -> tuple[list[_Token], list[ParseIssue]]:
    """Tokenize, collecting lexical issues instead of stopping at the first.

    Offending characters are skipped so the parser can keep reporting
    later problems in the same input.  A column is the offset from the
    start of the current line, which only a newline in whitespace moves.
    """
    tokens: list[_Token] = []
    issues: list[ParseIssue] = []
    line, line_start, i, n = 1, 0, 0, len(text)
    while i < n:
        ch = text[i]
        col = i - line_start + 1
        j = i + 1  # the end of this lexeme
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                line_start = j
        elif ch == "%":
            j = text.find("\n", i)
            if j < 0:
                j = n
        elif ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "_":
                tokens.append(_Token("anon", word, line, col))
            elif word[0] == "_":
                issues.append(ParseIssue(f"invalid identifier {word!r}", line, col))
            elif word[0].isupper():
                tokens.append(_Token("upper", word, line, col))
            else:
                # some* / all* lex as single words when the star is adjacent
                if word in ("some", "all") and j < n and text[j] == "*":
                    word += "*"
                    j += 1
                tokens.append(_Token("lower", word, line, col))
        elif text.startswith(":-", i):
            j += 1
            tokens.append(_Token("turnstile", ":-", line, col))
        elif ch in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[ch], ch, line, col))
        elif ch == "?":
            issues.append(
                ParseIssue("reserved token '?' (don't-know constants cannot be "
                           "written in source)", line, col)
            )
        else:
            issues.append(ParseIssue(f"unexpected character {ch!r}", line, col))
        i = j
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens, issues


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # provisional per-input variable table: one Var per name
        self.var_table: dict[str, Var] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.take()

    def fail(self, message: str, tok: Optional[_Token] = None) -> None:
        tok = tok or self.peek()
        raise ParseError([ParseIssue(message, tok.line, tok.col)])

    def var_for(self, name: str) -> Var:
        v = self.var_table.get(name)
        if v is None:
            v = fresh_var(name)
            self.var_table[name] = v
        return v

    # -- terms ------------------------------------------------------------

    def parse_term(self, allow_star: bool) -> Term:
        tok = self.peek()
        if tok.kind == "upper":
            self.take()
            return self.var_for(tok.text)
        if tok.kind == "anon":
            self.take()
            return fresh_var("_")
        if tok.kind == "int":
            self.take()
            return Const(tok.text)
        if tok.kind == "star":
            if not allow_star:
                self.fail("placeholder '*' is only allowed in fact arguments")
            self.take()
            return Star()
        if tok.kind == "lower":
            if tok.text in RESERVED_WORDS:
                self.fail(f"reserved word {tok.text!r} cannot be used as a term")
            self.take()
            args = self.parse_args(allow_star)
            return Compound(tok.text, args) if args else Const(tok.text)
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def parse_atom(self, allow_star: bool) -> Atom:
        tok = self.peek()
        if tok.kind != "lower":
            self.fail(f"expected a predicate name, found {tok.text or 'end of input'!r}")
        if tok.text in RESERVED_WORDS:
            self.fail(f"reserved word {tok.text!r} cannot be used as a predicate")
        self.take()
        return Atom(tok.text, self.parse_args(allow_star))

    def parse_args(self, allow_star: bool) -> tuple[Term, ...]:
        """The parenthesized argument list after a name; () when none follows."""
        if self.peek().kind != "lparen":
            return ()
        self.take()
        args = [self.parse_term(allow_star)]
        while self.peek().kind == "comma":
            self.take()
            args.append(self.parse_term(allow_star))
        self.expect("rparen", "')'")
        return tuple(args)

    # -- goals ------------------------------------------------------------

    def parse_goal_group(self) -> Goal:
        """A comma-separated group; binders swallow the rest of the group."""
        items: list[Goal] = []
        while True:
            tok = self.peek()
            if tok.kind == "lower" and tok.text in ("some", "some*"):
                noisy = tok.text == "some*"
                self.take()
                var_tok = self.expect("upper", "a variable after the binder")
                self.expect("colon", "':'")
                body = self.parse_goal_group()
                items.append(Exists(self.var_for(var_tok.text), body, noisy))
                break
            if tok.kind == "lower" and tok.text in ("all", "all*"):
                self.fail("universal binders are not allowed in goals")
            if tok.kind == "lparen":
                self.take()
                items.append(self.parse_goal_group())
                self.expect("rparen", "')'")
            else:
                items.append(self.parse_atom(allow_star=False))
            if self.peek().kind == "comma":
                self.take()
                continue
            break
        goal = items[-1]
        for item in reversed(items[:-1]):
            goal = Conj(item, goal)
        return goal

    # -- clauses ----------------------------------------------------------

    def parse_clause(self) -> Clause:
        prefixes: list[tuple[Var, bool]] = []
        while self.peek().text in ("all", "all*"):
            noisy = self.take().text == "all*"
            names = [self.expect("upper", "a variable after the prefix")]
            while self.peek().kind == "comma":
                self.take()
                names.append(self.expect("upper", "a variable"))
            self.expect("colon", "':'")
            prefixes.extend((self.var_for(t.text), noisy) for t in names)
        head = self.parse_atom(allow_star=True)
        clause: Clause
        if self.peek().kind == "turnstile":
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
    tokens, issues = _lex(text)
    parser = _Parser(tokens)
    name = default_name
    had_header = False
    unknown_decls: list[str] = []
    clauses: list[Clause] = []
    spans: list[tuple[int, int]] = []

    def skip_to_next_clause() -> None:
        while parser.peek().kind not in ("period", "eof"):
            parser.take()
        if parser.peek().kind == "period":
            parser.take()

    while parser.peek().kind != "eof":
        tok = parser.peek()
        try:
            if tok.text == "module" and parser.tokens[parser.pos + 1].kind == "lower":
                parser.take()
                name_tok = parser.take()
                parser.expect("period", "'.' after the module header")
                if had_header:
                    parser.fail("duplicate module header", tok)
                if clauses or unknown_decls:
                    parser.fail("module header must come first", tok)
                name = name_tok.text
                had_header = True
                continue
            if tok.kind == "lower" and tok.text == "unknown":
                parser.take()
                decl_toks = [parser.expect("upper", "a name after 'unknown'")]
                while parser.peek().kind == "comma":
                    parser.take()
                    decl_toks.append(parser.expect("upper", "a name"))
                parser.expect("period", "'.' after the unknown declaration")
                if clauses:
                    parser.fail("unknown declaration must precede clauses", tok)
                for t in decl_toks:
                    if t.text in unknown_decls:
                        parser.fail(f"duplicate unknown name {t.text}", t)
                    unknown_decls.append(t.text)
                continue
            # each clause resolves names in its own scope
            parser.var_table = {}
            clauses.append(parser.parse_clause())
            spans.append((tok.line, tok.col))
        except ParseError as err:
            issues.extend(err.issues)
            skip_to_next_clause()
    if issues:
        raise ParseError(issues)
    return SourceModule(
        name=name,
        unknown_decls=tuple(unknown_decls),
        raw_clauses=tuple(clauses),
        source_spans=tuple(spans),
    )


def parse_query(text: str) -> Goal:
    """Parse a query; the trailing period is optional."""
    tokens, issues = _lex(text)
    if issues:
        raise ParseError(issues)
    parser = _Parser(tokens)
    goal = parser.parse_goal_group()
    if parser.peek().kind == "period":
        parser.take()
    if parser.peek().kind != "eof":
        parser.fail("unexpected input after the query")
    return goal


def parse_term(text: str) -> Term:
    tokens, issues = _lex(text)
    if issues:
        raise ParseError(issues)
    parser = _Parser(tokens)
    term = parser.parse_term(allow_star=False)
    if parser.peek().kind != "eof":
        parser.fail("unexpected input after the term")
    return term


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
    parts = []
    while type(goal) is Exists:
        parts.append(f"{'some*' if goal.noisy else 'some'} {goal.var.name} : ")
        goal = goal.body
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
    parts = []
    while type(clause) is Forall:
        parts.append(f"{'all*' if clause.noisy else 'all'} {clause.var.name} : ")
        clause = clause.inner
    if type(clause) is Fact:
        parts.append(format_atom(clause.head, var_text))
    elif type(clause) is Rule:
        head, body = format_atom(clause.head, var_text), format_goal(clause.body, var_text)
        parts.append(f"{head} :- {body}")
    else:
        raise TypeError(f"not a clause: {clause!r}")
    return "".join(parts)
