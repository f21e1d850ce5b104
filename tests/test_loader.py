"""Skolemization of don't-know constants and the load pipeline."""

import re
from dataclasses import replace

import pytest

from prologtheta.terms import Unknown
from prologtheta.syntax import Conj, Fact, Forall, Rule, atom
from prologtheta.parser import ParseError, format_clause, parse_module
from prologtheta.loader import Program, combine, load, load_path, skolemize

EMP = """\
module emp.
unknown X, Y.
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""


def test_declared_unknowns_are_shared_and_distinct():
    prog = load(EMP)
    assert prog.name == "emp"
    assert len(prog.clauses) == 5
    by_person = {c.head.args[0].name: c.head.args[1] for c in prog.clauses}
    assert isinstance(by_person["sue"], Unknown)
    assert by_person["sue"] == by_person["john"]
    assert isinstance(by_person["tim"], Unknown)
    assert by_person["tim"] != by_person["sue"]
    assert set(prog.unknown_table) == {"X", "Y"}
    assert prog.unknown_table["X"] == by_person["sue"]
    assert prog.unknown_table["Y"] == by_person["tim"]


def test_unknowns_render_in_reserved_syntax():
    prog = load(EMP)
    shown = [format_clause(c) for c in prog.clauses]
    assert shown[2] == "phone(sue, ?k1)"
    assert shown[3] == "phone(john, ?k1)"
    assert shown[4] == "phone(tim, ?k2)"


def test_module_without_unknowns_only_closes_variables():
    prog = load("p(a).\nq(X) :- p(X).\n")
    assert prog.unknown_table == {}
    assert isinstance(prog.clauses[0], Fact)
    assert isinstance(prog.clauses[1], Forall)


def test_each_star_is_its_own_unknown():
    prog = load("phone(sue, *).\nphone(john, *).\n")
    a = prog.clauses[0].head.args[1]
    b = prog.clauses[1].head.args[1]
    assert isinstance(a, Unknown) and isinstance(b, Unknown)
    assert a != b
    assert prog.unknown_table == {}  # stars are anonymous, not declared


def test_declared_name_colliding_with_explicit_binder_is_ambiguous():
    with pytest.raises(ParseError, match="ambiguous unknown scope"):
        load("unknown X.\nall X : p(X) :- q(X).\n")
    with pytest.raises(ParseError, match="ambiguous unknown scope"):
        load("unknown X.\np(Y) :- some X : q(X, Y).\n")


def test_a_clause_rejected_as_ambiguous_draws_no_unknown():
    with pytest.raises(ParseError) as exc:
        load("unknown K.\nall K : p(K, *, f(*)).\nq(*).\n")
    assert str(exc.value) == "2:1: ambiguous unknown scope: K"
    # K drew ?k1 and q's star ?k2; the rejected fact's stars drew nothing
    prog = load("r(*).\nr(*).\n")
    assert [format_clause(c) for c in prog.clauses] == ["r(?k3)", "r(?k4)"]


def test_reserved_unknown_literal_is_rejected():
    with pytest.raises(ParseError, match="reserved token"):
        load("phone(sue, ?k1).")


def test_declared_unknown_usable_in_rules():
    prog = load("unknown K.\nowner(K).\nboss(X) :- owner(X).\n")
    assert isinstance(prog.clauses[0].head.args[0], Unknown)


def _alpha_signature(prog: Program) -> list:
    # renumber unknowns by first occurrence so two loads compare equal
    mapping = {}

    def canon(match):
        key = match.group(0)
        mapping.setdefault(key, f"?u{len(mapping) + 1}")
        return mapping[key]

    return [re.sub(r"\?k\d+", canon, format_clause(c)) for c in prog.clauses]


def test_loading_twice_is_alpha_equivalent():
    first = load(EMP)
    second = load(EMP)
    assert _alpha_signature(first) == _alpha_signature(second)


def test_unknown_ids_are_disjoint_across_loads():
    first = load(EMP)
    second = load(EMP)
    ids_first = {u.id for u in first.unknown_table.values()}
    ids_second = {u.id for u in second.unknown_table.values()}
    assert not (ids_first & ids_second)


def test_arity_conflict_is_a_load_error():
    with pytest.raises(ParseError, match="arity"):
        load("p(a).\np(a, b).\n")


def test_load_error_aggregates_issue_positions():
    try:
        load("p(a.\nq(b.\n")
    except ParseError as err:
        assert len(err.issues) == 2
        assert [i.line for i in err.issues] == [1, 2]
    else:
        pytest.fail("expected ParseError")


def test_load_path_uses_file_stem(tmp_path):
    f = tmp_path / "facts.plt"
    f.write_text("p(a).\n", encoding="utf-8")
    prog = load_path(f)
    assert prog.name == "facts"
    assert len(prog.clauses) == 1
    missing = tmp_path / "nope.plt"
    with pytest.raises(ParseError, match="cannot read"):
        load_path(missing)


def test_skolemize_is_exposed_directly():
    module = parse_module("unknown X.\np(X).\n")
    prog = skolemize(module)
    assert isinstance(prog.clauses[0].head.args[0], Unknown)


def test_combine_concatenates_in_load_order():
    first = load("p(a).", name="one")
    second = load("q(b).\nq(c).", name="two")
    merged = combine([first, second])
    assert [c.head.pred for c in merged.clauses] == ["p", "q", "q"]


def test_combine_rejects_cross_module_arity_conflicts():
    first = load("p(a).", name="one")
    second = load("p(a, b).", name="two")
    with pytest.raises(ParseError, match="arity"):
        combine([first, second])


CLASH = ("p(a).", "p(a, b).\nq :- p(c, d).\nr(X) :- p(X, X), p(X, a).\n")


def test_combine_reports_a_cross_module_clash_once_per_predicate_and_module():
    first, second = load(CLASH[0], name="a"), load(CLASH[1], name="b")
    with pytest.raises(ParseError) as err:
        combine([first, second, load("s :- p(b, c).\nt(X) :- p(X, X).", name="c")])
    assert [str(issue) for issue in err.value.issues] == [
        "in module b: predicate p used with arity 2 after arity 1",
        "in module c: predicate p used with arity 2 after arity 1",
    ]


def test_combine_merges_the_modules_arity_tables_without_a_fold(monkeypatch):
    import prologtheta.loader as loader
    from prologtheta.syntax import wellformed

    modules = [load("p(a).\nq(X) :- p(X), r(X).", name="one"), load("r(b).", name="two"),
               load("s(X, Y) :- q(X), t(Y).\nt(c).\np(b).", name="three")]
    folded = {}
    for clause in (clause for module in modules for clause in module.clauses):
        assert wellformed(clause, arities=folded) == []
    checked = []
    monkeypatch.setattr(loader, "wellformed", lambda *a, **k: checked.append(a) or [])
    merged = combine(modules)
    assert checked == []
    assert list(merged.arity_table.items()) == list(folded.items())
    assert list(folded) == ["p", "q", "r", "s", "t"]


@pytest.mark.parametrize("raw, message", [
    (Rule(atom("p"), Fact(atom("q"))), "universal/clause construct not allowed in a goal"),
    (Conj(atom("p"), atom("q")), "not a clause node: Conj("),
], ids=["fact-in-body", "conj-as-clause"])
def test_a_misplaced_node_in_a_module_is_a_parse_error_at_its_clause(raw, message):
    module = parse_module("p.\nr :- s.\n")
    module = replace(module, raw_clauses=(module.raw_clauses[0], raw))
    with pytest.raises(ParseError) as err:
        skolemize(module)
    (issue,) = err.value.issues
    assert (issue.line, issue.col) == (2, 1) and issue.message.startswith(message)


def test_combined_unknowns_stay_module_scoped():
    first = load("unknown K.\np(K).", name="one")
    second = load("unknown K.\nq(K).", name="two")
    merged = combine([first, second])
    unknowns = list(merged.unknown_table.values())
    assert len(unknowns) == 2 and unknowns[0] != unknowns[1]


def test_unknown_numbering_follows_declarations_then_stars_in_text_order():
    prog = load(
        "unknown K.\n"
        "p(f(*, g(*, K)), *).\n"
        "all X : q(X, h(*, K), *).\n"
        "r(K) :- p(f(K, _), _).\n"
        "s(*, k(*)).\n"
    )
    assert [format_clause(c) + "." for c in prog.clauses] == [
        "p(f(?k2, g(?k3, ?k1)), ?k4).",
        "all X : q(X, h(?k5, ?k1), ?k6).",
        "all _ : all _ : r(?k1) :- p(f(?k1, _), _).",
        "s(?k7, k(?k8)).",
    ]


def test_a_fact_of_five_thousand_variables_loads_answers_and_round_trips():
    # its clause is a chain of 5,000 universals, walked in loops
    from prologtheta import SolveConfig, desugar_query_vars, parse_query, solve

    prog = load("p(" + ", ".join(f"X{i}" for i in range(5000)) + ").")
    goal = desugar_query_vars(parse_query("p(" + ", ".join(["a"] * 5000) + ")"))
    assert solve(prog, goal, SolveConfig(trace_enabled=False)).next_solution().answer == ()
    text = format_clause(prog.clauses[0])
    assert text.startswith("all X0 : all X1 : ")
    assert format_clause(parse_module(text + ".").raw_clauses[0]) == text
