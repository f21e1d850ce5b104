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


def _count_folds(monkeypatch) -> list:
    """Record the node of every outermost ``syntax._fold`` call from now on."""
    import prologtheta.syntax as syntax

    inner, depth, tops = syntax._fold, [], []

    def counted(node, *rest):
        if not depth:
            tops.append(node)
        depth.append(node)
        try:
            return inner(node, *rest)
        finally:
            depth.pop()

    monkeypatch.setattr(syntax, "_fold", counted)
    return tops


def test_combine_merges_the_modules_arity_tables_without_a_fold(monkeypatch):
    from prologtheta.syntax import wellformed

    modules = [load("p(a).\nq(X) :- p(X), r(X).", name="one"), load("r(b).", name="two"),
               load("s(X, Y) :- q(X), t(Y).\nt(c).\np(b).", name="three")]
    folded = {}
    for clause in (clause for module in modules for clause in module.clauses):
        assert wellformed(clause, arities=folded) == []
    folds = _count_folds(monkeypatch)
    merged = combine(modules)
    assert folds == []
    assert list(merged.arity_table.items()) == list(folded.items())
    assert list(folded) == ["p", "q", "r", "s", "t"]


def test_loading_folds_each_clause_once_and_never_calls_wellformed(monkeypatch):
    import prologtheta.loader as loader
    import prologtheta.syntax as syntax

    assert not hasattr(loader, "wellformed") and not hasattr(syntax, "_FreeVars")
    module = parse_module("unknown K.\np(K, *).\nq(X) :- p(X, _), some Y : r(Y).\n"
                          "all Z : r(Z).\ns :- q(a), r(b).\n")
    checked = []
    monkeypatch.setattr(syntax, "wellformed", lambda *a, **k: checked.append(a) or [])
    folds = _count_folds(monkeypatch)
    prog = skolemize(module)
    assert checked == []
    assert len(folds) == 4 and all(a is b for a, b in zip(folds, module.raw_clauses))
    assert prog.arity_table == {"p": 2, "q": 1, "r": 1, "s": 0}


# each text's ParseError, pinned byte for byte
LOAD_ERRORS = [
    ("p(a).\nq :- p(a, b), r(c), r(c, d), p(e, f, g).\n",
     "2:1: predicate p used with arity 2 after arity 1; "
     "2:1: predicate r used with arity 2 after arity 1; "
     "2:1: predicate p used with arity 3 after arity 1"),
    # the rejected clause enters no arity, so p(b) is p's first use
    ("unknown K.\nall K : p(K, a).\np(b).\n", "2:1: ambiguous unknown scope: K"),
    ("unknown K.\np(a).\nall K : p(K, a, b) :- q(K), q.\nq(c).\n",
     "3:1: ambiguous unknown scope: K"),
    ("unknown K.\np(a).\np(b) :- some K : q(K, K).\np(c, d).\n",
     "3:1: ambiguous unknown scope: K; 4:1: predicate p used with arity 2 after arity 1"),
]


@pytest.mark.parametrize("text, message", LOAD_ERRORS,
                         ids=["two-arity-clashes", "scope-only", "scope-and-arity", "scope-then-arity"])
def test_load_errors_keep_their_exact_text(text, message):
    with pytest.raises(ParseError) as err:
        load(text)
    assert str(err.value) == message


def test_a_counter_reset_between_parsing_and_loading_changes_no_answer_or_proof():
    from prologtheta import (SolveConfig, desugar_query_vars, format_proof, parse_query,
                             reset_fresh_counters, solve)

    text = ("all* X : all Y : p(X, Y) :- q(X), r(Y, Z).\nq(a).\nq(b).\n"
            "all* W : r(W, f(W)) :- some* V : s(V, W).\ns(c, a).\ns(d, b).\n")

    def run(reset: bool) -> list:
        reset_fresh_counters()
        module = parse_module(text)
        if reset:
            reset_fresh_counters()
        prog = skolemize(module)
        goal = desugar_query_vars(parse_query("p(A, B)"))
        return [(sol.answer, format_proof(sol.trace, sol.answer))
                for sol in solve(prog, goal, SolveConfig(max_solutions=None))]

    kept = run(reset=False)
    assert len(kept) == 4 and run(reset=True) == kept


def test_combine_keys_every_modules_unknown():
    progs = [load("unknown K.\np(K).", name="m") for _ in range(4)]
    merged = combine(progs)
    assert list(merged.unknown_table) == ["K", "m.K", "m.K#3", "m.K#4"]
    assert list(merged.unknown_table.values()) == [p.unknown_table["K"] for p in progs]


@pytest.mark.parametrize("raw, message", [
    (Rule(atom("p"), Fact(atom("q"))), "universal/clause construct not allowed in a goal"),
    (Conj(atom("p"), atom("q")),
     "not a clause node: Conj(left=Atom(pred='p', args=()), right=Atom(pred='q', args=()))"),
], ids=["fact-in-body", "conj-as-clause"])
def test_a_misplaced_node_in_a_module_is_a_parse_error_at_its_clause(raw, message):
    module = parse_module("p.\nr :- s.\n")
    module = replace(module, raw_clauses=(module.raw_clauses[0], raw))
    with pytest.raises(ParseError) as err:
        skolemize(module)
    (issue,) = err.value.issues
    assert (issue.line, issue.col) == (2, 1) and str(err.value) == f"2:1: {message}"


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
