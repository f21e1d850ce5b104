"""Desugaring of free/anonymous variables and well-formedness checking."""

from prologtheta.terms import Const, Var, fresh_var
from prologtheta.syntax import (
    Atom,
    Exists,
    Fact,
    Forall,
    Rule,
    atom,
    desugar_clause_vars,
    desugar_query_vars,
    silent_twin,
    wellformed,
)
from prologtheta.parser import format_goal, parse_module, parse_query


def clause(text):
    return parse_module(text).raw_clauses[0]


def quantifiers(node):
    out = []
    while isinstance(node, (Forall, Exists)):
        out.append((type(node).__name__, node.var.name, node.noisy))
        node = node.inner if isinstance(node, Forall) else node.body
    return out, node


def test_free_clause_variable_closes_silently():
    c = desugar_clause_vars(clause("p(X) :- q(X)."))
    binders, core = quantifiers(c)
    assert binders == [("Forall", "X", False)]
    assert isinstance(core, Rule)
    assert core.head.args[0] == core.body.args[0]  # same closed variable


def test_each_anonymous_occurrence_is_a_distinct_silent_universal():
    c = desugar_clause_vars(clause("p(_, _)."))
    binders, core = quantifiers(c)
    assert [b[0] for b in binders] == ["Forall", "Forall"]
    assert all(not noisy for _, _, noisy in binders)
    v1, v2 = core.head.args
    assert v1 != v2
    assert (binders[0][1], binders[1][1]) == ("_", "_")


def test_explicit_noisy_prefix_is_preserved():
    c = desugar_clause_vars(clause("all* X : p(X) :- q(X)."))
    binders, core = quantifiers(c)
    assert binders == [("Forall", "X", True)]
    assert isinstance(core, Rule)


def test_mixed_prefix_and_free_vars():
    c = desugar_clause_vars(clause("all* X : p(X, Y) :- q(X, Y)."))
    binders, _ = quantifiers(c)
    # the free Y closes silently outside the explicit prefix
    assert binders == [("Forall", "Y", False), ("Forall", "X", True)]


def test_query_anonymous_then_free_var():
    g = desugar_query_vars(parse_query("phone(tom, _, Y)"))
    binders, core = quantifiers(g)
    assert binders == [("Exists", "_", False), ("Exists", "Y", True)]
    assert isinstance(core, Atom)


def test_query_explicit_binders_preserved():
    g = desugar_query_vars(parse_query("some X : some* Y : phone(tom, X, Y)"))
    binders, _ = quantifiers(g)
    assert binders == [("Exists", "X", False), ("Exists", "Y", True)]


def test_query_without_free_vars_is_unchanged():
    raw = parse_query("p(a)")
    assert desugar_query_vars(raw) == raw


def test_desugaring_is_idempotent():
    for text in [
        "p(X) :- q(X).",
        "p(_, _).",
        "all* X : p(X) :- q(X, Y).",
        "p(a).",
    ]:
        once = desugar_clause_vars(clause(text))
        assert desugar_clause_vars(once) == once
    for qtext in ["phone(tom, _, Y)", "some X : p(X), q(X)", "p(a)"]:
        once = desugar_query_vars(parse_query(qtext))
        assert desugar_query_vars(once) == once


def test_same_name_shadowing_is_resolved():
    g = desugar_query_vars(parse_query("some X : p(X), some X : q(X)"))
    assert wellformed(g) == []
    outer = g
    assert isinstance(outer, Exists)
    inner = outer.body.right
    assert isinstance(inner, Exists)
    assert inner.var != outer.var  # nested binders got distinct variables
    assert outer.body.left.args[0] == outer.var
    assert inner.body.args[0] == inner.var


def test_quantifier_count_matches_free_names_plus_underscores():
    cases = [
        ("p(X, Y) :- q(X).", 2, 0),
        ("p(_, _, X).", 1, 2),
        ("p(a).", 0, 0),
        ("all X : p(X, _).", 0, 1),  # X already bound, one free underscore
    ]
    for text, free_names, underscores in cases:
        raw = clause(text)
        raw_binders = len(quantifiers(raw)[0])
        closed_binders = len(quantifiers(desugar_clause_vars(raw))[0])
        assert closed_binders - raw_binders == free_names + underscores


def test_desugared_asts_pass_wellformed():
    texts = [
        "p(X) :- q(X), r(X, Y).",
        "all* V : p(V) :- q(V).",
        "p(_, _).",
    ]
    for text in texts:
        assert wellformed(desugar_clause_vars(clause(text))) == []
    assert wellformed(desugar_query_vars(parse_query("p(X), some Y : q(X, Y)"))) == []


def test_wellformed_accepts_closed_clause():
    v = fresh_var("X")
    c = Forall(v, Fact(atom("p", v)), noisy=False)
    assert wellformed(c) == []


def test_wellformed_reports_unbound_variable():
    errs = wellformed(Fact(atom("p", Var("X", 12345))))
    assert any("unbound variable X" in e for e in errs)


def test_wellformed_rejects_existential_inside_clause():
    v = fresh_var("X")
    bad = Forall(v, Exists(v, atom("p", v), noisy=False), noisy=False)
    errs = wellformed(bad)
    assert any("existential" in e for e in errs)


def test_wellformed_accepts_unknowns():
    # don't-know constants cannot be written in source; loading makes them
    from prologtheta.terms import Unknown

    assert wellformed(Fact(atom("p", Unknown(1)))) == []


def test_a_query_of_five_thousand_free_variables_is_closed_and_formatted():
    # closing it nests 5,000 existentials, which every pass walks in a loop
    names = [f"Y{i}" for i in range(5000)]
    goal = desugar_query_vars(parse_query("p(" + ", ".join(names) + ")"))
    assert wellformed(goal) == []
    assert format_goal(goal) == "".join(f"some* {n} : " for n in names) + (
        "p(" + ", ".join(names) + ")")


def test_wellformed_rejects_arity_conflicts_across_table():
    table = {}
    assert wellformed(Fact(atom("p", Const("a"))), arities=table) == []
    errs = wellformed(Fact(atom("p", Const("a"), Const("b"))), arities=table)
    assert any("arity" in e for e in errs)


def test_silent_twin_strips_noise_everywhere():
    g = desugar_query_vars(parse_query("some* X : p(X), some* Y : q(Y)"))
    twin = silent_twin(g)
    binders, _ = quantifiers(twin)
    assert all(not noisy for _, _, noisy in binders)
    c = desugar_clause_vars(clause("all* X : p(X) :- q(X)."))
    tbinders, _ = quantifiers(silent_twin(c))
    assert all(not noisy for _, _, noisy in tbinders)
