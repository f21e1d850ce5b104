"""Concrete syntax: parsing, error reporting, and round-tripping."""

import ast
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prologtheta.terms import Compound, Const, Star, Var
from prologtheta.syntax import Atom, Conj, Exists, Fact, Forall, Rule
from prologtheta.fuzz import random_case
from prologtheta.parser import (
    ParseError,
    ParseIssue,
    _lex,
    _places,
    format_clause,
    format_goal,
    format_term,
    parse_module,
    parse_query,
    parse_term,
)

EMP = """\
module emp.
unknown X, Y.
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""


def test_parse_emp_module():
    m = parse_module(EMP)
    assert m.name == "emp"
    assert m.unknown_decls == ("X", "Y")
    assert len(m.raw_clauses) == 5
    assert len(m.source_spans) == 5
    assert all(isinstance(c, Fact) for c in m.raw_clauses)


def test_empty_module_after_header():
    m = parse_module("module nothing.")
    assert m.name == "nothing"
    assert m.raw_clauses == ()


def test_header_is_optional():
    m = parse_module("p(a).")
    assert m.name == "main"
    assert len(m.raw_clauses) == 1


def test_star_argument_in_fact():
    m = parse_module("phone(sue, *).")
    fact = m.raw_clauses[0]
    assert isinstance(fact.head.args[1], Star)


def test_star_rejected_outside_facts():
    with pytest.raises(ParseError, match="fact"):
        parse_module("p(*) :- q(a).")
    with pytest.raises(ParseError, match="fact"):
        parse_query("p(*)")


def test_comments_are_stripped():
    m = parse_module("% a comment line\np(a). % trailing\n% done\n")
    assert len(m.raw_clauses) == 1


def test_query_nested_binders():
    g = parse_query("some X : some* Y : phone(tom, X, Y)")
    assert isinstance(g, Exists) and not g.noisy
    assert isinstance(g.body, Exists) and g.body.noisy
    assert isinstance(g.body.body, Atom)


def test_binder_scopes_to_end_of_group():
    g = parse_query("p(a), some X : q(X), r(X)")
    assert isinstance(g, Conj)
    assert isinstance(g.right, Exists)
    assert isinstance(g.right.body, Conj)


def test_parenthesized_group_limits_binder_scope():
    g = parse_query("(some X : q(X)), r(a)")
    assert isinstance(g, Conj)
    assert isinstance(g.left, Exists)
    assert isinstance(g.right, Atom)


def test_query_with_anonymous_and_free_vars():
    g = parse_query("phone(tom, _, Y)")
    assert isinstance(g, Atom)
    anon, named = g.args[1], g.args[2]
    assert isinstance(anon, Var) and anon.name == "_"
    assert isinstance(named, Var) and named.name == "Y"


def test_each_underscore_is_distinct():
    g = parse_query("p(_, _)")
    assert g.args[0] != g.args[1]


def test_malformed_argument_list_is_an_error():
    with pytest.raises(ParseError):
        parse_query("p(,)")


def test_reserved_unknown_token():
    with pytest.raises(ParseError, match="reserved token"):
        parse_module("p(?k1).")


def test_reserved_words_cannot_name_predicates():
    with pytest.raises(ParseError, match="reserved word"):
        parse_query("p(some)")


def test_prefix_clause_shapes():
    m = parse_module("all X, Y : p(X, Y).\nall* Z : q(Z) :- p(Z, Z).")
    first, second = m.raw_clauses
    assert isinstance(first, Forall) and not first.noisy
    assert isinstance(first.inner, Forall)
    assert isinstance(second, Forall) and second.noisy
    assert isinstance(second.inner, Rule)


def test_duplicate_header_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_module("module a.\nmodule b.\np(a).")


def test_duplicate_unknown_name_rejected():
    with pytest.raises(ParseError, match="duplicate unknown"):
        parse_module("unknown X, X.\np(a).")


def test_error_recovery_reports_every_bad_clause():
    bad = "p(a.\nq(b).\nr(].\ns(c)."
    with pytest.raises(ParseError) as exc:
        parse_module(bad)
    assert len(exc.value.issues) >= 2
    # positions point at real lines
    assert {i.line for i in exc.value.issues} >= {1}


def test_error_positions_are_line_and_column():
    try:
        parse_query("p(a), q(")
    except ParseError as err:
        issue = err.issues[0]
        assert issue.line == 1 and issue.col >= 8
    else:
        pytest.fail("expected a parse error")


# pieces of module text; the non-ASCII ones are letters, decimal digits
# (\u0663), digits that are not decimal (\u00b2) and numerics that are
# neither (\u00bd, \u2177), which the lexer tells apart
_LEXEMES = [
    "p", "phone", "X", "Yz", "_", "_x", "42", "7", "\u00b2", "\u00bd", "\u00e9t\u00e9",
    "\u2177", "\u0663", "\u00c9", "?", "*", "some*", "all", "(", ")", ",", ".", ":", ":-",
    " ", "\t", "\r", "\n", "\r\n", "% note *?\n", "%", "\x0b", "\u00a0",
]


def _points_at(lines, line, col, text):
    return lines[line - 1][col - 1:col - 1 + len(text)] == text


def _reference_lex(text):
    """The character-by-character lexer the regular expression replaced,
    kept as a reference: tokens as ``(kind, text, line, col)``, and issues.
    """
    tokens, issues = [], []
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
            tokens.append(("int", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "_":
                tokens.append(("anon", word, line, col))
            elif word[0] == "_":
                issues.append(ParseIssue(f"invalid identifier {word!r}", line, col))
            elif word[0].isupper():
                tokens.append(("upper", word, line, col))
            else:
                # some* / all* lex as single words when the star is adjacent
                if word in ("some", "all") and j < n and text[j] == "*":
                    word += "*"
                    j += 1
                tokens.append(("lower", word, line, col))
        elif text.startswith(":-", i):
            j += 1
            tokens.append(("turnstile", ":-", line, col))
        elif ch in "(),.:*":
            kind = {"(": "lparen", ")": "rparen", ",": "comma", ".": "period", ":": "colon",
                    "*": "star"}[ch]
            tokens.append((kind, ch, line, col))
        elif ch == "?":
            issues.append(
                ParseIssue("reserved token '?' (don't-know constants cannot be "
                           "written in source)", line, col)
            )
        else:
            issues.append(ParseIssue(f"unexpected character {ch!r}", line, col))
        i = j
    tokens.append(("eof", "", line, n - line_start + 1))
    return tokens, issues


def _tokens_and_issues(text):
    """The lexer's tokens with the places found for them, in the reference's
    form, and its issues; the texts and kinds of one pass equal the other's."""
    texts, kinds, clean = _lex(text)
    issues, places = _places(text)
    assert len(places) == len(texts) and clean == (not issues)
    return [(k, t, *place) for k, t, place in zip(kinds, texts, places)], issues


@given(st.lists(st.sampled_from(_LEXEMES), max_size=40))
@settings(max_examples=300, deadline=None)
def test_every_token_and_lexical_issue_points_at_its_text(lexemes):
    text = "".join(lexemes)
    lines = text.split("\n")
    tokens, issues = _tokens_and_issues(text)
    *tokens, (_, _, *eof) = tokens
    for kind, token, line, col in tokens:
        assert _points_at(lines, line, col, token), (kind, token, line, col)
    assert tuple(eof) == (len(lines), len(lines[-1]) + 1)
    for issue in issues:
        # each message quotes the offending text: an identifier or a character
        quoted = re.search(r"'(.*?)'", issue.message).group(1)
        assert _points_at(lines, issue.line, issue.col, ast.literal_eval(f"'{quoted}'")), issue


@given(st.lists(st.sampled_from(_LEXEMES), max_size=40))
@settings(max_examples=500, deadline=None)
def test_the_lexer_reads_any_text_as_the_reference_does(lexemes):
    text = "".join(lexemes)
    assert _tokens_and_issues(text) == _reference_lex(text)


@pytest.mark.parametrize("text", [
    "p(a). % no newline after this comment",
    "%", "p %", "p(a).\n%x", "\n\n  % two lines down",
    "42abc", "_x", "handsome*", "some*X", "all* X", "some *", "x*", "4some*", "4_some*",
    "\u00e9t\u00e9(\u00c9t\u00e9)", "\u00b2\u00bd3", "x\u00b2\u00bd", "\u00bd*", "?k1", "a\x0bb",
    "p :- q.", ":", ":-:-", "",
])
def test_the_lexer_reads_edge_texts_as_the_reference_does(text):
    assert _tokens_and_issues(text) == _reference_lex(text)


def test_the_lexer_reads_the_fuzz_cases_as_the_reference_does():
    for seed in range(600):
        case = random_case(random.Random(seed))
        for text in (case.program_text, case.query_text):
            assert _tokens_and_issues(text) == _reference_lex(text), (seed, text)


def test_long_runs_of_whitespace_and_comments_lex_in_little_memory():
    # a repeated group in the token pattern would keep matcher state for each
    # character skipped, over 100 MB for a million spaces; comments are matched
    # as tokens, so 100,000 of them cost a list of that length, 0.8 MB
    for text, limit in ((" " * 1_000_000 + "p.", 100_000), ("%\n" * 100_000 + "p.", 2_000_000)):
        tracemalloc.start()
        try:
            assert _lex(text)[0] == ["p", ".", ""]
            assert tracemalloc.get_traced_memory()[1] < limit
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# Round-tripping.

_tnames = st.sampled_from(["tom", "cs", "f", "g", "a"])
_tvars = st.sampled_from(["X", "Y", "Zed"])
_source_terms = st.recursive(
    st.one_of(
        _tnames.map(Const),
        st.sampled_from(["0", "7", "4450"]).map(Const),
        _tvars.map(lambda n: Var(n, 0)),
    ),
    lambda kids: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        st.sampled_from(["f", "g", "phone"]),
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@given(_source_terms)
@settings(max_examples=200, deadline=None)
def test_term_round_trip(term):
    text = format_term(term)
    assert format_term(parse_term(text)) == text


def test_clause_round_trip_on_source_corpus():
    texts = [
        "phone(tom, cs, 4450)",
        "p(a) :- q(a), r(b)",
        "all X : p(X) :- q(X)",
        "all* X : all Y : p(X, Y) :- q(X), r(Y)",
        "p(_, _)",
        "p(f(g(a), X))",
        "p :- q, r",
    ]
    for text in texts:
        parsed = parse_module(text + ".").raw_clauses[0]
        assert format_clause(parsed) == text


def test_a_flat_body_of_ten_thousand_atoms_round_trips():
    text = "p :- " + ", ".join(f"q(c{i})" for i in range(10_000))
    rule = parse_module(text + ".").raw_clauses[0]
    assert format_clause(rule) == text
    again = parse_module(format_clause(rule) + ".").raw_clauses[0]

    def spine(goal):
        # the body's conjuncts, compared one by one: == on the whole chain
        # would recurse once per conjunct
        conjuncts = []
        while isinstance(goal, Conj):
            conjuncts.append(goal.left)
            goal = goal.right
        return conjuncts + [goal]

    assert again.head == rule.head and spine(again.body) == spine(rule.body)
    assert len(spine(rule.body)) == 10_000


def test_a_query_of_five_thousand_written_binders_parses_and_round_trips():
    # the parser reads a chain of written binders in a loop, so its length costs no stack
    args = ", ".join(f"X{i}" for i in range(5_000))
    text = "".join(f"some* X{i} : " for i in range(5_000)) + f"p({args})"
    goal = parse_query(text)
    assert format_goal(goal) == text
    assert format_goal(parse_query(format_goal(goal))) == text
    binders = 0
    while isinstance(goal, Exists):
        assert goal.noisy and goal.var.name == f"X{binders}"
        binders, goal = binders + 1, goal.body
    assert binders == 5_000 and goal.args[4_999] is not goal.args[0]


def test_goal_round_trip_on_source_corpus():
    texts = [
        "phone(tom, _, Y)",
        "some X : some* Y : phone(tom, X, Y)",
        "(some X : q(X)), r(a)",
        "p(a), q(b), r(c)",
        "p",
    ]
    for text in texts:
        assert format_goal(parse_query(text)) == text


def test_unknowns_format_reserved():
    from prologtheta.terms import Unknown

    assert format_term(Unknown(3)) == "?k3"
