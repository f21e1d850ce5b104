"""Proof search: recorded steps, answer assembly, and search behaviour."""

import random

import pytest

from prologtheta.terms import Const, Var, is_ground, reset_fresh_counters
from prologtheta.syntax import Atom, Conj, Exists, Forall, desugar_query_vars
from prologtheta.parser import format_goal, format_term, parse_query
from prologtheta.loader import Program, load
from prologtheta.engine import (
    EngineError,
    ProofSearch,
    SolveConfig,
    format_proof,
    solve,
)

ALL = SolveConfig(max_solutions=None)


def ask(program_text, query_text, config=ALL, name="main"):
    prog = load(program_text, name=name)
    goal = desugar_query_vars(parse_query(query_text))
    return prog, goal, solve(prog, goal, config)


def answers(session):
    return [[(n, format_term(t)) for n, t in sol.answer] for sol in session]


def validate_trace(program, goal, trace):
    """Structural replay checks on a trace; an empty list means it passes."""
    problems = []
    if not trace.steps:
        return ["empty trace"]
    root = trace.steps[-1]
    if root.kind != "pv":
        problems.append("root step is not a goal-reduction step")
    if not (isinstance(root.focus, Program) and root.focus is program):
        problems.append("root step does not carry the program")
    if root.goal != goal:
        problems.append("root step does not carry the original goal")
    for i, step in enumerate(trace.steps, 1):
        if step.index != i:
            problems.append(f"step {i} has index {step.index}")
        noisy_site = (
            step.kind == "pv"
            and isinstance(step.goal, Exists)
            and step.goal.noisy
        ) or (
            step.kind == "bc"
            and isinstance(step.focus, Forall)
            and step.focus.noisy
        )
        if noisy_site and step.theta is None:
            problems.append(f"step {i} should record a binding")
        if not noisy_site and step.theta is not None:
            problems.append(f"step {i} records a binding it should not")
    return problems


# ---------------------------------------------------------------------------
# The phone-book example.


def test_phone_example_answer_and_trace_shape():
    prog, goal, session = ask(
        "phone(tom, cs, 4450).", "some X : some* Y : phone(tom, X, Y)", name="phone"
    )
    sols = list(session)
    assert len(sols) == 1
    sol = sols[0]
    assert [(n, format_term(t)) for n, t in sol.answer] == [("Y", "4450")]

    steps = sol.trace.steps
    assert [s.kind for s in steps] == ["bc", "pv", "pv", "pv"]
    assert [s.index for s in steps] == [1, 2, 3, 4]
    # leaf: the fact matches the fully instantiated atom
    assert steps[0].focus == prog.clauses[0]
    assert format_goal(steps[0].goal) == "phone(tom, cs, 4450)"
    assert steps[0].theta is None
    # goal reduction of the atom
    assert format_goal(steps[1].goal) == "phone(tom, cs, 4450)"
    # the noisy binder records its witness, one step below the root
    assert format_goal(steps[2].goal) == "some* Y : phone(tom, cs, Y)"
    assert steps[2].theta == ("Y", Const("4450"))
    # root: original goal, nothing recorded
    assert steps[3].goal == goal
    assert steps[3].theta is None
    assert validate_trace(prog, goal, sol.trace) == []


def test_phone_example_all_silent_records_nothing():
    _, _, session = ask("phone(tom, cs, 4450).", "some X : some Y : phone(tom, X, Y)")
    sols = list(session)
    assert len(sols) == 1
    assert sols[0].answer == ()


def test_anonymous_variable_query_matches_rewritten_form():
    _, _, session = ask("phone(tom, cs, 4450).", "phone(tom, _, Y)", name="phone")
    sols = list(session)
    assert len(sols) == 1
    assert [(n, format_term(t)) for n, t in sols[0].answer] == [("Y", "4450")]
    assert [s.kind for s in sols[0].trace.steps] == ["bc", "pv", "pv", "pv"]


# ---------------------------------------------------------------------------
# Don't-know constants.

EMP = """\
module emp.
unknown X, Y.
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""


def test_shared_unknown_answers_and_finite_failure():
    prog = load(EMP)
    shared = prog.unknown_table["X"]
    goal = desugar_query_vars(parse_query("phone(sue, N), phone(john, N)"))
    sols = list(solve(prog, goal, ALL))
    assert len(sols) == 1
    assert sols[0].answer == (("N", shared),)

    goal2 = desugar_query_vars(parse_query("phone(sue, N), phone(tim, N)"))
    session = solve(prog, goal2, ALL)
    assert list(session) == []
    assert not session.incomplete  # finite failure, not a clipped search


def test_trace_line_shows_unknown():
    prog = load(EMP)
    goal = desugar_query_vars(parse_query("some* N : phone(sue, N), phone(john, N)"))
    sol = solve(prog, goal, ALL).next_solution()
    text = format_proof(sol.trace, sol.answer)
    assert "<N, ?k1>" in text
    assert text.endswith("answer: {N = ?k1}")


def test_independent_stars_do_not_join():
    _, _, session = ask("phone(sue, *).\nphone(john, *).", "phone(sue, N), phone(john, N)")
    assert list(session) == []


# ---------------------------------------------------------------------------
# Rule behaviour.


def test_rule_bodies_run_against_the_whole_program():
    _, _, session = ask("p :- q.\nq.", "p")
    assert len(list(session)) == 1


def test_conjunction_proves_left_then_right():
    prog, goal, session = ask("a.\nb.", "a, b")
    sol = next(iter(session))
    atom_goals = [s.goal.pred for s in sol.trace.steps if isinstance(s.goal, Atom)]
    assert atom_goals == ["a", "a", "b", "b"]  # bc+pv for a, then for b
    conj_steps = [s for s in sol.trace.steps if isinstance(s.goal, Conj)]
    assert len(conj_steps) == 1 and conj_steps[0].theta is None


def test_noisy_universal_records_instantiation():
    prog, goal, session = ask("all* X : p(X) :- q(X).\nq(a).", "p(a)")
    sols = list(session)
    assert len(sols) == 1
    assert sols[0].answer == (("X", Const("a")),)
    recorded = [s for s in sols[0].trace.steps if s.theta is not None]
    assert len(recorded) == 1
    assert recorded[0].kind == "bc"
    assert isinstance(recorded[0].focus, Forall) and recorded[0].focus.noisy
    assert validate_trace(prog, goal, sols[0].trace) == []


def test_silent_universal_records_nothing():
    _, _, session = ask("all X : p(X) :- q(X).\nq(a).", "p(a)")
    sols = list(session)
    assert len(sols) == 1
    assert sols[0].answer == ()


def test_clause_renaming_keeps_uses_independent():
    _, _, session = ask("all X : p(X).", "p(a), p(b)")
    assert len(list(session)) == 1


def test_solutions_follow_clause_order():
    _, _, session = ask("p(a).\np(b).", "some* X : p(X)")
    assert answers(session) == [[("X", "a")], [("X", "b")]]


def test_max_solutions_default_is_one():
    prog = load("p(a).\np(b).")
    goal = desugar_query_vars(parse_query("some* X : p(X)"))
    sols = list(solve(prog, goal))  # default config
    assert answers(iter(sols)) == [[("X", "a")]]


def test_next_solution_api():
    _, _, session = ask("p(a).", "p(a)")
    assert session.next_solution() is not None
    assert session.next_solution() is None


# ---------------------------------------------------------------------------
# Groundness of noisy witnesses.


def test_strict_mode_rejects_nonground_witness():
    _, _, session = ask("all X : p(X).", "some* Y : p(Y)", SolveConfig(max_solutions=None))
    assert list(session) == []
    assert not session.incomplete


def test_lenient_mode_flags_residual_variable():
    config = SolveConfig(groundness_mode="lenient", max_solutions=None)
    _, _, session = ask("all X : p(X).", "some* Y : p(Y)", config)
    sols = list(session)
    assert len(sols) == 1
    assert any(not is_ground(term) for _, term in sols[0].answer)
    (name, term), = sols[0].answer
    assert name == "Y" and isinstance(term, Var)


def test_silent_witness_may_stay_open_even_in_strict_mode():
    _, _, session = ask("all X : p(X).", "some Y : p(Y)", SolveConfig(max_solutions=None))
    sols = list(session)
    assert len(sols) == 1 and sols[0].answer == ()


def test_strict_solutions_are_the_ground_lenient_ones():
    from prologtheta.fuzz import random_case

    rng = random.Random(5)
    for _ in range(40):
        case = random_case(rng)
        prog = load(case.program_text, name="fuzz")
        goal = desugar_query_vars(parse_query(case.query_text))
        strict = solve(prog, goal, SolveConfig(max_solutions=None, max_depth=64))
        lenient = solve(
            prog, goal,
            SolveConfig(groundness_mode="lenient", max_solutions=None, max_depth=64),
        )
        strict_set = {sol.answer for sol in strict}
        lenient_ground = {
            sol.answer
            for sol in lenient
            if all(is_ground(t) for _, t in sol.answer)
        }
        assert strict_set == lenient_ground


# ---------------------------------------------------------------------------
# Depth limiting.


def test_depth_limit_is_reported_as_incomplete():
    _, _, session = ask("p :- p.", "p", SolveConfig(max_solutions=None, max_depth=30))
    assert list(session) == []
    assert session.incomplete


def test_clipped_search_can_still_find_solutions():
    _, _, session = ask("p :- p.\np.", "p", SolveConfig(max_solutions=None, max_depth=30))
    assert len(list(session)) >= 1
    assert session.incomplete


# ---------------------------------------------------------------------------
# Clause indexing.

INDEXED_MODULES = [
    # a constant next to a compound of the same name
    ("k(f).\nk(f(a)).\nk(g(b)).\nk(f(c)).\n", ["k(f)", "k(f(X))", "k(X)", "k(h)", "k(g(b))"]),
    # an Unknown key reached through a bound variable
    ("unknown K.\nr(K).\np(K, one).\np(a, two).\n", ["r(X), p(X, Y)", "p(a, Y)", "p(X, Y)"]),
    # integer literals
    ("n(1, a).\nn(2, b).\nn(10, c).\nn(1, d).\n", ["n(1, X)", "n(10, X)", "n(3, X)", "n(X, Y)"]),
    # naive reverse: nil and cons heads, called with bound and unbound lists
    ("app(nil, L, L).\napp(cons(H, T), L, cons(H, R)) :- app(T, L, R).\n"
     "nrev(nil, nil).\nnrev(cons(H, T), R) :- nrev(T, RT), app(RT, cons(H, nil), R).\n",
     ["nrev(cons(a, cons(b, cons(c, nil))), R)", "app(X, Y, cons(a, cons(b, nil)))",
      "app(cons(a, nil), X, Y)"]),
    # a zero-arity predicate
    ("y.\nz :- y.\nz.\nw(a) :- z.\n", ["z", "w(X)"]),
    # variable heads, one noisy, interleaved with keyed ones
    ("q(a, 1).\nall X : q(X, 2).\nq(b, 3).\nq(a, 4).\nall* Y : q(Y, 5).\n",
     ["q(a, N)", "q(b, N)", "q(c, N)", "q(X, N)"]),
    # a clause of another predicate reaches past the depth limit
    ("p(a).\nall X : all Y : all Z : q(X, Y, Z).\np(b).\n", ["p(X)", "p(b)", "p(c)"]),
    # keyed clauses interleaved with variable-headed ones, both merged at lookup
    ("".join(f"w(k{i % 3}, {i}).\nall X : w(X, v{i}).\n" for i in range(6)),
     ["w(k1, N)", "w(k5, N)", "w(X, N)", "w(X, v2), w(k2, X)"]),
]


def index_entries(program):
    return sum(
        len(table.every) + len(table.wild) + sum(map(len, table.by_key.values()))
        for table in program.index.values()
    )


def every_clause(search, goal):
    """The unindexed scan: every program clause in order, with its reach."""
    entries, reach = [], 0
    for clause in search.program.clauses:
        inner, layers = clause, 0
        while isinstance(inner, Forall):
            inner, layers = inner.inner, layers + 1
        reach = max(reach, 1 + layers)
        entries.append((clause, reach))
    assert search.program.reach == reach
    return entries


def test_indexed_search_matches_the_scan_of_every_clause(monkeypatch):
    from prologtheta.cli import solution_json
    from prologtheta.fuzz import random_case

    def outcomes(prog, goal, config):
        session = solve(prog, goal, config)
        seen = [
            (solution_json(sol, "success"), format_proof(sol.trace, sol.answer),
             session.incomplete)
            for sol in session
        ]
        return seen, session.incomplete

    rng = random.Random(5)
    cases = [(c.program_text, [c.query_text]) for c in (random_case(rng) for _ in range(40))]
    sessions = incomplete = 0
    for text, queries in cases + INDEXED_MODULES:
        prog = load(text, name="m")
        assert index_entries(prog) <= 2 * len(prog.clauses)
        for query in queries:
            goal = desugar_query_vars(parse_query(query))
            for mode in ("strict", "lenient"):
                for occurs_check in (True, False):
                    for max_depth in (None, 3, 5, 8):
                        for max_solutions in (None, 1, 2):
                            config = SolveConfig(mode, max_depth, max_solutions, occurs_check)
                            indexed = outcomes(prog, goal, config)
                            with monkeypatch.context() as m:
                                m.setattr(ProofSearch, "candidates", every_clause)
                                assert outcomes(prog, goal, config) == indexed
                            sessions += 1
                            incomplete += indexed[1]
    assert incomplete > sessions // 10


def test_indexing_keeps_textual_order_across_variable_heads():
    _, _, session = ask("q(a, 1).\nall X : q(X, 2).\nq(b, 3).\nq(a, 4).\n", "q(a, N)")
    assert answers(session) == [[("N", "1")], [("N", "2")], [("N", "4")]]


# ---------------------------------------------------------------------------
# Answer assembly and display.


def test_answer_lists_witnesses_in_step_order():
    prog, goal, session = ask(
        "p(a).\nq(b).", "some* X : p(X), some* Y : q(Y)"
    )
    sol = next(iter(session))
    # inner binder's step comes first in the step order
    assert [n for n, _ in sol.answer] == ["Y", "X"]


def test_repeated_noisy_names_are_disambiguated_in_display():
    _, _, session = ask("p(a).\nq(b).", "some* X : p(X), some* X : q(X)")
    sol = next(iter(session))
    assert [n for n, _ in sol.answer] == ["X", "X"]
    text = format_proof(sol.trace, sol.answer)
    assert "answer: {X = b, X#2 = a}" in text


def test_answer_matches_nonnil_theta_steps(monkeypatch):
    from prologtheta.fuzz import random_case

    def all_solutions(case, **settings):
        # the same fresh-variable ids on every run, so answers compare equal
        reset_fresh_counters()
        prog = load(case.program_text, name="fuzz")
        goal = desugar_query_vars(parse_query(case.query_text))
        config = SolveConfig(max_solutions=None, max_depth=64, **settings)
        return prog, goal, list(solve(prog, goal, config))

    def untraced_never_snapshots(self):
        raise AssertionError("snapshot called with the trace disabled")

    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        case = random_case(rng)
        for mode in ("strict", "lenient"):
            for occurs_check in (True, False):
                settings = dict(groundness_mode=mode, occurs_check=occurs_check)
                prog, goal, sols = all_solutions(case, **settings)
                for sol in sols:
                    checked += 1
                    recorded = [s.theta for s in sol.trace.steps if s.theta is not None]
                    assert list(sol.answer) == recorded
                    assert validate_trace(prog, goal, sol.trace) == []
                with monkeypatch.context() as m:
                    m.setattr(ProofSearch, "snapshot", untraced_never_snapshots)
                    _, _, untraced = all_solutions(case, trace_enabled=False, **settings)
                assert [sol.answer for sol in untraced] == [sol.answer for sol in sols]
                assert all(sol.trace is None for sol in untraced)
    assert checked > 100


def test_cyclic_witness_answer_matches_its_recorded_binding():
    config = SolveConfig(groundness_mode="lenient", occurs_check=False)
    _, _, session = ask("all X : loop(X, f(X)).", "some* Y : loop(Y, Y)", config)
    sol = session.next_solution()
    (theta,) = [s.theta for s in sol.trace.steps if s.theta is not None]
    assert format_term(theta[1]) == "f(Y)"
    assert sol.answer == (theta,)


def test_empty_conjunction_free_single_fact_proof_has_two_lines():
    _, _, session = ask("p.", "p")
    sol = next(iter(session))
    text = format_proof(sol.trace, sol.answer)
    lines = text.splitlines()
    assert len(lines) == 3  # bc, pv, answer
    assert lines[0].startswith("1. bc(")
    assert lines[1].startswith("2. pv(")
    assert lines[2] == "answer: {}"


# ---------------------------------------------------------------------------
# Config knobs and entry contract.


def test_occurs_check_flag_controls_cyclic_matches():
    text = "all X : loop(X, f(X))."
    _, _, strict = ask(text, "some Y : loop(Y, Y)")
    assert list(strict) == []
    _, _, loose = ask(text, "some Y : loop(Y, Y)",
                      SolveConfig(max_solutions=None, occurs_check=False))
    assert len(list(loose)) == 1


def test_trace_can_be_disabled():
    _, _, session = ask("p(a).", "some* X : p(X)",
                        SolveConfig(max_solutions=None, trace_enabled=False))
    sol = next(iter(session))
    assert sol.trace is None
    assert sol.answer == (("X", Const("a")),)


def test_unclosed_goal_is_rejected():
    prog = load("p(a).")
    with pytest.raises(EngineError, match="unbound"):
        solve(prog, parse_query("p(X)"), ALL)  # not desugared


def test_query_arity_mismatch_is_rejected():
    prog = load("p(a).")
    goal = desugar_query_vars(parse_query("p(a, b)"))
    with pytest.raises(EngineError, match="arity"):
        solve(prog, goal, ALL)


def test_queries_leave_the_program_arity_table_alone():
    prog = load("p(a).\nq(X) :- p(X).")
    assert prog.arity_table == {"p": 1, "q": 1}
    assert answers(solve(prog, desugar_query_vars(parse_query("r(a, b)")), ALL)) == []
    assert prog.arity_table == {"p": 1, "q": 1}
    # r/2 from the query before is forgotten, so r/1 is no conflict
    assert answers(solve(prog, desugar_query_vars(parse_query("r(a)")), ALL)) == []
    with pytest.raises(EngineError, match="arity"):
        solve(prog, desugar_query_vars(parse_query("p(a, b)")), ALL)
    assert prog.arity_table == {"p": 1, "q": 1}


def test_determinism_of_solutions_and_traces():
    def run():
        reset_fresh_counters()
        prog = load(EMP)
        goal = desugar_query_vars(parse_query("some* N : phone(sue, N), phone(john, N)"))
        return [
            (answers(iter([sol])), format_proof(sol.trace, sol.answer))
            for sol in solve(prog, goal, ALL)
        ]

    assert run() == run()
