"""Proof search: recorded steps, answer assembly, and search behaviour."""

import json
import random
import sys
from dataclasses import replace

import pytest

from prologtheta.terms import Compound, Const, Var, is_ground, reset_fresh_counters
from prologtheta.syntax import (
    Atom,
    Conj,
    Fact,
    Forall,
    Rule,
    binders,
    desugar_query_vars,
    map_terms,
)
from prologtheta.parser import format_clause, format_goal, format_term, parse_query
from prologtheta.loader import load
from prologtheta.cli import solution_json
from prologtheta.engine import (
    EngineError,
    ProofSearch,
    SolveConfig,
    format_proof,
    solve,
    step_texts,
)

ALL = SolveConfig(max_solutions=None)


def ask(program_text, query_text, config=ALL, name="main"):
    prog = load(program_text, name=name)
    goal = desugar_query_vars(parse_query(query_text))
    return prog, goal, solve(prog, goal, config)


def answers(session):
    return [[(n, format_term(t)) for n, t in sol.answer] for sol in session]


def validate_trace(program, goal, trace):
    """Structural replay checks on a trace as it is printed; an empty list
    means it passes."""
    steps = list(step_texts(trace))
    if not steps:
        return ["empty trace"]
    problems = []
    _, kind, root_goal, focus, _, _ = steps[-1]
    if kind != "pv":
        problems.append("root step is not a goal-reduction step")
    if focus != program.name:
        problems.append("root step does not carry the program")
    if root_goal is not goal:
        problems.append("root step does not carry the original goal")
    for i, (index, kind, _, focus, text, theta) in enumerate(steps, 1):
        if index != i:
            problems.append(f"step {i} has index {index}")
        # a noisy binder's layer, or a noisy universal's
        noisy_site = text.startswith("some* ") if kind == "pv" else focus.startswith("all* ")
        if noisy_site and theta is None:
            problems.append(f"step {i} should record a binding")
        if not noisy_site and theta is not None:
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

    steps = list(step_texts(sol.trace))
    assert [step[:2] for step in steps] == [(1, "bc"), (2, "pv"), (3, "pv"), (4, "pv")]
    # leaf: the fact matches the fully instantiated atom
    assert steps[0][3:] == (format_clause(prog.clauses[0]), "phone(tom, cs, 4450)", None)
    # goal reduction of the atom
    assert steps[1][3:] == ("phone", "phone(tom, cs, 4450)", None)
    # the noisy binder records its witness, one step below the root
    assert steps[2][4:] == ("some* Y : phone(tom, cs, Y)", ("Y", "4450"))
    # root: original goal, nothing recorded
    assert steps[3][2] is goal
    assert steps[3][5] is None
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
    assert [step[1] for step in step_texts(sols[0].trace)] == ["bc", "pv", "pv", "pv"]


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
    steps = list(step_texts(sol.trace))
    atom_goals = [goal.pred for _, _, goal, *_ in steps if isinstance(goal, Atom)]
    assert atom_goals == ["a", "a", "b", "b"]  # bc+pv for a, then for b
    conj_steps = [step for step in steps if isinstance(step[2], Conj)]
    assert len(conj_steps) == 1 and conj_steps[0][5] is None


def test_noisy_universal_records_instantiation():
    prog, goal, session = ask("all* X : p(X) :- q(X).\nq(a).", "p(a)")
    sols = list(session)
    assert len(sols) == 1
    assert sols[0].answer == (("X", Const("a")),)
    recorded = [step for step in step_texts(sols[0].trace) if step[5] is not None]
    assert len(recorded) == 1
    _, kind, _, focus, _, theta = recorded[0]
    assert (kind, focus, theta) == ("bc", "all* X : p(X) :- q(X)", ("X", "a"))
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


def test_an_unknown_groundness_mode_is_rejected():
    # any mode but "strict" would run lenient: some* Y : p(Y) on p(X). would answer a free Y
    for mode in ("Strict", "", "loose"):
        with pytest.raises(ValueError, match="groundness_mode"):
            SolveConfig(groundness_mode=mode)


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


def closure(nodes):
    """The transitive closure ``path/2`` of a line of ``nodes`` nodes."""
    return "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(nodes - 1)) + (
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    )


def test_a_deeper_limit_only_adds_answers():
    """The answers at depth limit d are a subsequence of those at d + 1 and
    of the unlimited ones, and a session not reported incomplete has
    exactly the unlimited answers."""
    from prologtheta.fuzz import random_case

    def outcome(prog, goal, config):
        session = solve(prog, goal, config)
        found = [tuple((n, format_term(t)) for n, t in sol.answer) for sol in session]
        return found, session.incomplete

    def is_subsequence(short, long):
        rest = iter(long)
        return all(item in rest for item in short)

    rng = random.Random(7)
    cases = [(c.program_text, [c.query_text]) for c in (random_case(rng) for _ in range(300))]
    # answered in full from limit 5 on
    cases.append((closure(4), ["path(n0, Y)", "path(X, n3)", "path(X, Y)"]))
    cut = 0
    for text, queries in cases:
        prog = load(text, name="m")
        for query in queries:
            goal = desugar_query_vars(parse_query(query))
            for mode in ("strict", "lenient"):
                for occurs_check in (True, False):
                    unlimited = SolveConfig(mode, None, None, occurs_check)
                    full, clipped = outcome(prog, goal, unlimited)
                    assert not clipped
                    shallower = []
                    for max_depth in range(1, 7):
                        config = SolveConfig(mode, max_depth, None, occurs_check)
                        found, clipped = outcome(prog, goal, config)
                        assert is_subsequence(shallower, found)
                        assert is_subsequence(found, full)
                        assert clipped or found == full
                        shallower = found
                        cut += clipped
    assert cut > 150


# ---------------------------------------------------------------------------
# Clause indexing.

PATH = closure(6)

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
    # a clause of another predicate with universals, which cost no depth
    ("p(a).\nall X : all Y : all Z : q(X, Y, Z).\np(b).\n", ["p(X)", "p(b)", "p(c)"]),
    # a recursive closure, which the depth limit cuts
    (PATH, ["path(n0, Y)", "path(X, n5)", "path(X, Y)", "path(n1, n4)", "path(n3, X)",
            "path(n0, n5)", "path(X, n2)", "path(n5, X)"]),
    # keyed clauses interleaved with variable-headed ones, both merged at lookup
    ("".join(f"w(k{i % 3}, {i}).\nall X : w(X, v{i}).\n" for i in range(6)),
     ["w(k1, N)", "w(k5, N)", "w(X, N)", "w(X, v2), w(k2, X)"]),
]


def index_entries(program):
    return sum(
        len(every) + len(wild) + sum(map(len, by_key.values()))
        for every, by_key, wild in program.index.values()
    )


def every_clause(search, goal):
    """The unindexed scan: every entry of the index, in textual order, whose
    clause's head has the goal's predicate."""
    pairs = sorted(pair for every, _, _ in search.program.index.values() for pair in every)
    assert [i for i, _ in pairs] == list(range(len(search.program.clauses)))
    return [(i, entry) for i, entry in pairs if entry.template[1].head.pred == goal.pred]


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
        for query in queries:
            goal = desugar_query_vars(parse_query(query))
            for mode in ("strict", "lenient"):
                for occurs_check in (True, False):
                    for max_depth in (None, 1, 2):
                        for max_solutions in (None, 1, 2):
                            config = SolveConfig(mode, max_depth, max_solutions, occurs_check)
                            indexed = outcomes(prog, goal, config)
                            with monkeypatch.context() as m:
                                m.setattr(ProofSearch, "candidates", every_clause)
                                assert outcomes(prog, goal, config) == indexed
                            sessions += 1
                            incomplete += indexed[1]
        assert index_entries(prog) <= 2 * len(prog.clauses)
    assert incomplete > sessions // 10


def test_indexing_keeps_textual_order_across_variable_heads():
    _, _, session = ask("q(a, 1).\nall X : q(X, 2).\nq(b, 3).\nq(a, 4).\n", "q(a, N)")
    assert answers(session) == [[("N", "1")], [("N", "2")], [("N", "4")]]


def test_a_program_is_indexed_once_at_its_first_search():
    prog = load(PATH, name="m")
    assert prog.index == {}
    goal = desugar_query_vars(parse_query("path(n0, Y)"))
    first = solve(prog, goal, ALL)
    tables = dict(prog.index)
    assert sorted(tables) == ["edge", "path"]
    second = solve(prog, goal, ALL)  # shares the program, and finds its index built
    assert all(prog.index[pred] is table for pred, table in tables.items())
    assert answers(first) == answers(second) != []


def test_each_clause_s_chain_is_walked_once_per_program(monkeypatch):
    # the index walks each chain once, and a clause's first try compiles
    # the (layers, core) its entry holds: no session walks a clause again
    import prologtheta.engine as engine

    prog = load("all* X : p(X) :- q(X, Y), some Z : q(Z, X).\nq(a, b).\nq(b, a).\n" + PATH,
                name="m")
    walked, walk = [], engine.binders
    monkeypatch.setattr(engine, "binders", lambda node: walked.append(node) or walk(node))
    for config in (ALL, SolveConfig(max_solutions=None, trace_enabled=False)):
        for query in ("p(W)", "path(n0, Y)", "path(X, n3)"):
            sols = list(solve(prog, desugar_query_vars(parse_query(query)), config))
            assert sols and all(format_proof(sol.trace, sol.answer) for sol in sols if sol.trace)
    clauses = [node for node in walked if isinstance(node, (Fact, Rule, Forall))]
    assert len(clauses) == len(prog.clauses) == 10
    assert all(walked is clause for walked, clause in zip(clauses, prog.clauses))


@pytest.mark.parametrize("text, query, offered", [
    # a key with only its own clauses, and a predicate of variable heads only
    pytest.param(INDEXED_MODULES[3][0], "app(cons(a, nil), X, Y)", 1, id="own"),
    pytest.param(PATH, "path(n0, Y)", 2, id="wild"),
])
def test_candidates_are_lists_the_index_stores(text, query, offered):
    prog = load(text, name="m")
    goal = parse_query(query)  # an atom, its free variables left open
    search = ProofSearch(prog, ALL)
    first = search.candidates(goal)
    assert len(first) == offered
    assert search.candidates(goal) is first
    assert ProofSearch(prog, ALL).candidates(goal) is first


def test_a_deep_copy_of_a_searched_program_answers_as_it_does():
    # the copy's clauses are new objects: its index entries hold them, and
    # the code compiled from them, so no entry reads the original's clauses
    import copy
    import gc

    prog = load(INDEXED_MODULES[3][0] + PATH, name="m")
    goals = [desugar_query_vars(parse_query(query))
             for query in INDEXED_MODULES[3][1] + ["path(n0, Y)", "path(X, n3)"]]

    def outcomes(program):
        return [(solution_json(sol, "success"), format_proof(sol.trace, sol.answer))
                for goal in goals for sol in solve(program, goal, ALL)]

    before = outcomes(prog)
    copied = copy.deepcopy(prog)
    del prog
    gc.collect()
    entries = [pair for every, _, _ in copied.index.values() for pair in every]
    assert sorted(i for i, _ in entries) == list(range(len(copied.clauses)))
    for i, entry in entries:
        layers, core = entry.template
        assert (layers[0] if layers else core) is copied.clauses[i]
        assert entry.code is None or entry.code.template is entry.template
    assert outcomes(copied) == before


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
                    recorded = [theta for *_, theta in step_texts(sol.trace) if theta]
                    assert [(n, format_term(t)) for n, t in sol.answer] == recorded
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
    (theta,) = [theta for *_, theta in step_texts(sol.trace) if theta]
    assert theta == ("Y", "f(Y)")
    assert [(n, format_term(t)) for n, t in sol.answer] == [theta]


def reference_texts(trace):
    """The steps of a trace as ``step_texts`` gives them, each printed on its
    own: its terms resolved through the recursive resolver with a per-branch
    cycle guard, then formatted.  ``step_texts`` prints each node and each
    binding chain once, so this is what it must equal."""
    bindings = trace.bindings

    def resolve(term, path=frozenset()):
        if isinstance(term, Var):
            bound = bindings.get(term.id)
            if bound is None or term.id in path:
                return term
            return resolve(bound, path | {term.id})
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(resolve(a, path) for a in term.args))
        return term

    def printed(node, renaming, fmt):  # a layer's outer binders renamed to their witnesses
        return fmt(node, lambda v: format_term(resolve(renaming.get(v.id, v))))

    def clause_layer(focus):  # a clause try's (code, depth, witnesses), from its template
        code, depth, witnesses = focus
        layers, core = code.template
        renaming = {layer.var.id: w for layer, w in zip(layers[:depth], witnesses)}
        return layers[depth] if depth < len(layers) else core, renaming

    def goal_layer(goal):  # a pv step's goal, or a layer of a query's chain
        return goal.parts() if hasattr(goal, "parts") else (goal, {})

    return [
        (i, kind, goal,
         focus.name if kind == "pv" else printed(*clause_layer(focus), format_clause),
         printed(*goal_layer(goal), format_goal),
         theta and (theta[0], format_term(resolve(theta[1]))))
        for i, (kind, focus, goal, theta) in enumerate(trace.raw_steps, 1)
    ]


CYCLES = [
    # X = f(Y) and Y = g(X): resolved from X, Y shows as g(X), alone as g(f(Y))
    ("p(A, A).", "some* X : some* Y : p(X, f(Y)), p(Y, g(X))",
     ["<Y, g(f(Y))>", "<X, f(g(X))>"]),
    # the same cycle made inside a rule: C's binding enters it at the rule's
    # renamed X, so C prints that variable where the cycle is cut
    ("eq(X, X).\nq(X, Y) :- eq(X, f(Y)), eq(Y, g(X)).",
     "some* A : some* B : some* C : q(A, B), eq(C, B)",
     ["<C, g(f(g(X)))>", "<B, g(f(B))>", "<A, f(g(A))>"]),
]


@pytest.mark.parametrize("program, query, thetas", CYCLES)
def test_snapshot_resolves_a_cycle_from_where_each_step_enters_it(program, query, thetas):
    # with the occurs check off a cyclic variable's form depends on where
    # resolution entered the cycle, so one cut must not be reused
    config = SolveConfig(groundness_mode="lenient", occurs_check=False)
    _, _, session = ask(program, query, config)
    sol = session.next_solution()
    assert [f"<{theta[0]}, {theta[1]}>" for *_, theta in step_texts(sol.trace) if theta] == thetas
    assert list(step_texts(sol.trace)) == reference_texts(sol.trace)


def test_snapshot_matches_the_reference_over_many_searches():
    from prologtheta.fuzz import random_case

    checked = 0
    for seed in range(150):
        case = random_case(random.Random(seed))
        for occurs_check in (True, False):
            prog = load(case.program_text)
            goal = desugar_query_vars(parse_query(case.query_text))
            config = SolveConfig(groundness_mode="lenient", occurs_check=occurs_check)
            search = solve(prog, goal, config).search
            for _ in search.prove(goal):
                trace = search.snapshot()
                assert list(step_texts(trace)) == reference_texts(trace)
                checked += 1
    assert checked > 100


def test_steps_share_their_resolved_nodes():
    # a step's raw goal is the node its search proved: a call's bc and pv
    # steps hold one atom, and a conjunction holds its conjuncts' goals
    _, _, session = ask("phone(tom, cs, 4450).", "some X : some* Y : phone(tom, X, Y)")
    steps = list(step_texts(session.next_solution().trace))
    assert steps[0][2] is steps[1][2]
    prog, _, session = ask(PATH, "path(n0, Y)")
    clauses = {format_clause(c) for c in prog.clauses}
    for sol in session:
        steps = list(step_texts(sol.trace))
        seen = set()
        for i, (_, kind, goal, focus, _, _) in enumerate(steps):
            if kind == "bc":
                # a call's bc steps, innermost layer first, come just before
                # its pv step, all on one goal; the last is the program's clause
                pv = next(s for s in steps[i:] if s[1] == "pv")
                assert goal is pv[2]
                if steps[i + 1] is pv:
                    assert focus in clauses
            if isinstance(goal, Conj):  # its conjuncts are earlier steps' goals
                assert id(goal.left) in seen and id(goal.right) in seen
            seen.add(id(goal))


def test_nat_gives_its_first_thousand_answers_untraced():
    # the thousandth answer is nested 999 deep, past Python's stack for a
    # resolver that recursed per term level
    _, _, session = ask("nat(z).\nnat(s(X)) :- nat(X).", "nat(X)",
                        SolveConfig(max_solutions=1000, trace_enabled=False))
    sols = list(session)
    assert len(sols) == 1000 and not session.incomplete
    for depth, sol in enumerate(sols):
        ((name, term),) = sol.answer
        for _ in range(depth):
            assert term.functor == "s"
            (term,) = term.args
        assert name == "X" and term == Const("z")


def test_a_trace_prints_a_deep_binding_chain_in_loops():
    # T is bound to s(T1), T1 to s(T2), ... 400 links deep: printing walks
    # the links and the terms in loops, not in one Python frame each
    program = "".join(f"e({i}, {i + 1}).\n" for i in range(400)) + (
        "last(400).\nbuild(N, z) :- last(N).\nbuild(N, s(T)) :- e(N, M), build(M, T).\n")
    _, _, session = ask(program, "build(0, T)")
    sol = session.next_solution()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        text = format_proof(sol.trace, sol.answer)
        doc = json.dumps(solution_json(sol, "success"))
    finally:
        sys.setrecursionlimit(limit)
    assert (len(text), len(doc)) == (2_610_386, 2_770_767)
    assert text.endswith("answer: {T = " + "s(" * 400 + "z" + ")" * 400 + "}")


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


def test_solutions_found_counts_a_solution_as_it_is_returned():
    _, _, session = ask("q(a).\nq(b).", "q(X)")
    counts = []
    while session.next_solution() is not None:
        counts.append(session.solutions_found)
    assert counts == [1, 2] and session.solutions_found == 2


def test_unclosed_goal_is_rejected():
    prog = load("p(a).")
    with pytest.raises(EngineError, match="unbound"):
        solve(prog, parse_query("p(X)"), ALL)  # not desugared


def test_a_clause_node_as_the_goal_is_rejected():
    # a Fact would pass a check that takes it for a clause, then fail the search
    with pytest.raises(EngineError, match="not a goal node: Fact"):
        solve(load("p."), Fact(Atom("p", ())), ALL).next_solution()


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


# ---------------------------------------------------------------------------
# Clause renaming and head unification.

RENAMED = (
    "all X : all* Y : all Z : r(X, Z) :- q(X, Y), s(Y, Z).\n"
    "q(a, b).\nq(a, c).\ns(b, d).\ns(c, e).\n"
)
# each Forall layer shows its clause with only the outer binders renamed;
# the second answer backtracks into q(X, Y), so Y is rebound under the
# same clause try
RENAMED_PROOFS = [
    "1. bc(q(a, b), m, q(a, b), nil)\n"
    "2. pv(m, q(a, b), nil)\n"
    "3. bc(s(b, d), m, s(b, d), nil)\n"
    "4. pv(m, s(b, d), nil)\n"
    "5. pv(m, (q(a, b), s(b, d)), nil)\n"
    "6. bc(r(a, d) :- q(a, b), s(b, d), m, r(a, d), nil)\n"
    "7. bc(all Z : r(a, Z) :- q(a, b), s(b, Z), m, r(a, d), nil)\n"
    "8. bc(all* Y : all Z : r(a, Z) :- q(a, Y), s(Y, Z), m, r(a, d), <Y, b>)\n"
    "9. bc(all X : all* Y : all Z : r(X, Z) :- q(X, Y), s(Y, Z), m, r(a, d), nil)\n"
    "10. pv(m, r(a, d), nil)\n"
    "11. pv(m, some* W : r(a, W), <W, d>)\n"
    "answer: {Y = b, W = d}",
    "1. bc(q(a, c), m, q(a, c), nil)\n"
    "2. pv(m, q(a, c), nil)\n"
    "3. bc(s(c, e), m, s(c, e), nil)\n"
    "4. pv(m, s(c, e), nil)\n"
    "5. pv(m, (q(a, c), s(c, e)), nil)\n"
    "6. bc(r(a, e) :- q(a, c), s(c, e), m, r(a, e), nil)\n"
    "7. bc(all Z : r(a, Z) :- q(a, c), s(c, Z), m, r(a, e), nil)\n"
    "8. bc(all* Y : all Z : r(a, Z) :- q(a, Y), s(Y, Z), m, r(a, e), <Y, c>)\n"
    "9. bc(all X : all* Y : all Z : r(X, Z) :- q(X, Y), s(Y, Z), m, r(a, e), nil)\n"
    "10. pv(m, r(a, e), nil)\n"
    "11. pv(m, some* W : r(a, W), <W, e>)\n"
    "answer: {Y = c, W = e}",
]


def _json_step(index, kind, clause, goal, theta=None):
    return {"index": index, "kind": kind, "clause": clause, "goal": goal,
            "theta": None if theta is None else {"var": theta[0], "term": theta[1]}}


def _renamed_json(y, z):
    return {
        "answers": [{"var": "Y", "term": y}, {"var": "W", "term": z}],
        "trace": [
            _json_step(1, "bc", f"q(a, {y})", f"q(a, {y})"),
            _json_step(2, "pv", "m", f"q(a, {y})"),
            _json_step(3, "bc", f"s({y}, {z})", f"s({y}, {z})"),
            _json_step(4, "pv", "m", f"s({y}, {z})"),
            _json_step(5, "pv", "m", f"q(a, {y}), s({y}, {z})"),
            _json_step(6, "bc", f"r(a, {z}) :- q(a, {y}), s({y}, {z})", f"r(a, {z})"),
            _json_step(7, "bc", f"all Z : r(a, Z) :- q(a, {y}), s({y}, Z)", f"r(a, {z})"),
            _json_step(8, "bc", "all* Y : all Z : r(a, Z) :- q(a, Y), s(Y, Z)",
                       f"r(a, {z})", ("Y", y)),
            _json_step(9, "bc", "all X : all* Y : all Z : r(X, Z) :- q(X, Y), s(Y, Z)",
                       f"r(a, {z})"),
            _json_step(10, "pv", "m", f"r(a, {z})"),
            _json_step(11, "pv", "m", "some* W : r(a, W)", ("W", z)),
        ],
        "status": "success",
    }


def test_forall_layers_show_only_the_outer_binders_renamed():
    _, _, session = ask(RENAMED, "r(a, W)", name="m")
    sols = list(session)
    assert [format_proof(sol.trace, sol.answer) for sol in sols] == RENAMED_PROOFS
    assert [solution_json(sol, "success") for sol in sols] == [
        _renamed_json("b", "d"), _renamed_json("c", "e")]


def test_a_universal_met_inside_a_bound_head_subterm_keeps_the_occurs_check():
    # Y is bound to f(X) first, so the second X must not bind to g(Y) unchecked
    lenient = SolveConfig(max_solutions=None, groundness_mode="lenient")
    _, _, checked = ask("p(f(X), X).", "p(Y, g(Y))", lenient)
    assert answers(checked) == []
    _, _, unchecked = ask("p(f(X), X).", "p(Y, g(Y))", replace(lenient, occurs_check=False))
    assert answers(unchecked) == [[("Y", "f(g(Y))")]]



# ---------------------------------------------------------------------------
# Compiled clause tries and lean recording.


def _compiled(text, index=0):
    from prologtheta.engine import _compile

    return _compile(binders(load(text).clauses[index]))


def test_a_repeated_head_variable_is_a_first_op_then_a_repeat_op():
    match, _ = _compiled("p(X, X).").sources
    assert "    w[0] = walk_shallow(x0, b) if oc else _linked(c[0], x0, b, t)\n" in match
    assert "    if not (unify_into(w[0], x1, b, t, oc)): return False\n" in match
    assert answers(ask("p(X, X).", "p(a, a)")[2]) == [[]]
    assert answers(ask("p(X, X).", "p(a, b)")[2]) == []
    assert answers(ask("p(X, X).", "p(Y, b)")[2]) == [[("Y", "b")]]
    lenient = SolveConfig(max_solutions=None, groundness_mode="lenient")
    assert answers(ask("p(X, X).", "p(Y, Z)", lenient)[2]) == [[("Z", "Z"), ("Y", "Z")]]


def test_a_slot_free_head_subterm_is_bound_as_it_is_not_copied():
    prog = load("p(f(a)).\nall X : q(g(X, f(a))).")
    fact, rule = prog.clauses
    bound = []
    for goal in [Atom("p", (Var("Y", -1),))] * 2 + [
            Atom("q", (Compound("g", (Const("b"), Var("Z", -2))),))] * 2:
        search = ProofSearch(prog, SolveConfig(trace_enabled=False))
        next(search.prove(goal))
        bound.append(search.bindings[-1] if goal.pred == "p" else search.bindings[-2])
    assert bound[0] is bound[1] is fact.head.args[0]  # the clause's own object
    # one under a compound with slots too: it is passed in as a constant
    assert bound[2] is bound[3] is rule.inner.head.args[0].args[1]
    (_, entry), = prog.index["q"][0]
    assert entry.code.head == ["g", "X", bound[2]]


def test_a_compound_over_a_repeated_head_variable_keeps_the_occurs_check():
    match, _ = _compiled("p(X, f(X)).").sources
    assert "    if s1 and oc and (occurs(x1.id, w[0], b)): return False\n" in match
    lenient = SolveConfig(max_solutions=None, groundness_mode="lenient")
    for trace_enabled in (True, False):
        config = replace(lenient, trace_enabled=trace_enabled)
        assert answers(ask("p(X, f(X)).", "p(A, A)", config)[2]) == []
        unchecked = replace(config, occurs_check=False)
        assert answers(ask("p(X, f(X)).", "p(A, A)", unchecked)[2]) == [[("A", "f(A)")]]


def test_a_compound_built_over_a_slot_met_first_needs_no_occurs_check():
    # R is met first in f(R), unbound when V is bound to f(R), so that bind
    # needs no check; R's repeat op checks that R occurs in no g(V)
    match, _ = _compiled("p(f(R), R).").sources
    assert "occurs(" not in match
    lenient = SolveConfig(max_solutions=None, groundness_mode="lenient")
    for trace_enabled in (True, False):
        config = replace(lenient, trace_enabled=trace_enabled)
        assert answers(ask("p(f(R), R).", "p(V, g(V))", config)[2]) == []
        unchecked = replace(config, occurs_check=False)
        assert answers(ask("p(f(R), R).", "p(V, g(V))", unchecked)[2]) == [[("V", "f(g(V))")]]


APP = "app(nil, L, L).\napp(cons(H, T), L, cons(H, R)) :- app(T, L, R).\n"

# What a try of app/3's recursive clause runs: c holds the constants (the
# functor cons at ops 0 and 4 of the head and the names of the slots met
# first, the predicate app at op 0 of the body and the names of T, L and R)
# and w the witnesses of H, T, L and R.  cons(H, T) is matched, its H and T
# taking the goal's terms, or built over fresh H and T where the goal has a
# variable; L takes its term; cons(H, R) is matched, or built over a fresh R
# and checked for occurrence through H, met again in it.  With the occurs
# check off, a slot that takes a term takes a fresh variable bound to it.
APP_MATCH = """def f(a, w, b, t, oc, c):
    if len(a) != 3: return False
    (x0, x1, x2,) = a
    s0 = type(x0 := walk_shallow(x0, b)) is Var
    if not s0 and (type(x0) is not Compound or x0.functor != c[0] or len(x0.args) != 2): \
return False
    if not s0: (x0_0, x0_1,) = x0.args
    w[0] = fresh_var(c[1]) if s0 else walk_shallow(x0_0, b) if oc else _linked(c[1], x0_0, b, t)
    w[1] = fresh_var(c[2]) if s0 else walk_shallow(x0_1, b) if oc else _linked(c[2], x0_1, b, t)
    if s0: v0 = Compound(c[0], (w[0], w[1],))
    if s0: b[x0.id] = v0; t.append(x0.id)
    w[2] = walk_shallow(x1, b) if oc else _linked(c[3], x1, b, t)
    s4 = type(x2 := walk_shallow(x2, b)) is Var
    if not s4 and (type(x2) is not Compound or x2.functor != c[4] or len(x2.args) != 2): \
return False
    if not s4: (x4_0, x4_1,) = x2.args
    if not (s4 or unify_into(w[0], x4_0, b, t, oc)): return False
    w[3] = fresh_var(c[6]) if s4 else walk_shallow(x4_1, b) if oc else _linked(c[6], x4_1, b, t)
    if s4 and oc and (occurs(x2.id, w[0], b)): return False
    if s4: v4 = Compound(c[4], (w[0], w[3],))
    if s4: b[x2.id] = v4; t.append(x2.id)
    return True
"""
APP_BUILD = """def f(w, c):
    v0 = Atom(c[0], (w[1], w[2], w[3],))
    return v0
"""


def test_the_generated_code_of_app_3s_recursive_clause_is_pinned():
    code = _compiled(APP, 1)
    assert code.sources == (APP_MATCH, APP_BUILD)
    assert code.names == ("H", "T", "L", "R")
    assert code.head == ["cons", "H", "T", "L", "cons", None, "R"]
    assert code.body == ["app", "T", "L", "R"]
    assert code.fresh == ()


def test_clauses_of_one_shape_share_their_functions_and_no_name_is_in_the_source():
    import re
    from prologtheta.engine import _compile

    names = ["alpha", "beta", "fun", "kay", "ell", "gamma", "delta", "gun", "em", "en"]
    prog = load("alpha(fun(X), kay) :- beta(X, ell), some Z : beta(Z, X).\n"
                "gamma(gun(Y), em) :- delta(Y, en), some W : delta(W, Y).\n")
    first, second = (_compile(binders(clause)) for clause in prog.clauses)
    assert first.match is second.match and first.build is second.build
    assert first.sources == second.sources
    assert not re.search(r"\b(%s)\b" % "|".join(names + ["Z", "W", "X", "Y"]),
                         "".join(first.sources))


def _nrev30():
    prog = load(APP + "nrev(nil, nil).\n"
                "nrev(cons(H, T), R) :- nrev(T, RT), app(RT, cons(H, nil), R).\n")
    listed = "nil"
    for i in range(30):
        listed = f"cons(e{i}, {listed})"
    return prog, desugar_query_vars(parse_query(f"nrev({listed}, R)"))


def test_nrev30_makes_496_clause_tries_per_query(monkeypatch):
    # Warren's count of logical inferences: first-argument indexing makes
    # every call deterministic, so each try is an inference
    import prologtheta.engine as engine

    prog, goal = _nrev30()
    tries, backchain = [], engine.ProofSearch.backchain
    monkeypatch.setattr(engine.ProofSearch, "backchain",
                        lambda self, *args: tries.append(1) or backchain(self, *args))
    for trace_enabled in (True, False, True):
        tries.clear()
        (sol,) = solve(prog, goal, SolveConfig(trace_enabled=trace_enabled))
        assert format_term(sol.answer[0][1]).count("cons(") == 30
        assert len(tries) == 496


def test_nrev30_makes_a_fresh_variable_only_where_a_head_builds_or_a_body_has_its_own(
        monkeypatch):
    # A universal the head matches takes the goal's term.  Of the 496 tries,
    # app/3's 435 recursive ones each build cons(H, R) over a fresh R, as the
    # goal's third argument is the caller's unbound variable; nrev/2's 30
    # recursive ones each make RT, which only the body has; the 31 tries of
    # the two facts make none.  With the query's witness for R: 435 + 30 + 1.
    import prologtheta.engine as engine

    prog, goal = _nrev30()
    made, fresh_var = [], engine.fresh_var
    monkeypatch.setattr(engine, "fresh_var", lambda name: made.append(name) or fresh_var(name))
    for trace_enabled in (True, False):
        made.clear()
        (sol,) = solve(prog, goal, SolveConfig(trace_enabled=trace_enabled))
        assert format_term(sol.answer[0][1]).count("cons(") == 30
        assert len(made) == 466
        assert sorted(set(made)) == ["R", "RT"] and made.count("RT") == 30


def test_a_program_clause_is_formatted_once_per_program(monkeypatch):
    import prologtheta.engine as engine

    prog = load("edge(a, b).\nedge(b, c).\nedge(c, d).\n"
                "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n", name="m")
    shown, format_clause = [], engine.format_clause
    monkeypatch.setattr(engine, "format_clause",
                        lambda clause, *rest: shown.append(clause) or format_clause(clause, *rest))
    for query, count in (("path(a, W)", 3), ("path(b, W)", 2)):
        sols = list(solve(prog, desugar_query_vars(parse_query(query)), ALL))
        assert len([format_proof(sol.trace, sol.answer) for sol in sols]) == count
    clauses = [clause for clause in shown if any(clause is c for c in prog.clauses)]
    assert len(clauses) == len({id(clause) for clause in clauses}) == 5


def test_each_clause_layer_is_formatted_once_per_program(monkeypatch):
    import prologtheta.engine as engine

    prog = load(closure(40), name="line")
    calls, format_clause = [], engine.format_clause
    monkeypatch.setattr(engine, "format_clause",
                        lambda clause, *rest: calls.append(clause) or format_clause(clause, *rest))
    for k in range(40):
        sols = list(solve(prog, desugar_query_vars(parse_query(f"path(n{k}, Y)")), ALL))
        assert len([json.dumps(solution_json(sol, "success")) for sol in sols]) == 39 - k
    # 41 clauses, and the 2 + 3 layers inside the rules' universals
    assert len(calls) == 46


def test_a_clause_layer_is_cached_only_once_its_marks_are_slots():
    # every session of a program reads a clause's cached texts, so one
    # stored half made would print a slot number in place of a witness
    class Whole(dict):
        def __setitem__(self, depth, pieces):
            assert all(type(p) is int for p in pieces[1::2]), pieces
            super().__setitem__(depth, pieces)

    prog = load("all* X : p(X) :- q(X).\nq(b).", name="m")
    goal = desugar_query_vars(parse_query("p(b)"))
    list(solve(prog, goal, SolveConfig(trace_enabled=False)))  # compiles, prints nothing
    for every, _, _ in prog.index.values():
        for _, entry in every:
            entry.code.shown = Whole()
    sol = solve(prog, goal, SolveConfig()).next_solution()
    assert "bc(p(b) :- q(b), m, p(b), nil)" in format_proof(sol.trace, sol.answer)


def test_a_clause_layer_prints_its_inner_binders_by_name():
    # after a reset, a fresh witness may reuse the id of the binder Y, which prints by name
    prog = load("p(X) :- q(X, Y).\nq(a, b).\n")
    reset_fresh_counters()
    (sol,) = solve(prog, desugar_query_vars(parse_query("p(Z)")))
    assert "4. bc(all Y : p(a) :- q(a, Y), main, p(a), nil)" in format_proof(sol.trace, sol.answer)


# t's head takes a, ?k1 (through go's N, bound by phone(sue, N)), f(U) and
# the bare U of go's body-only universals as its witnesses, not variables
# bound to them; the noisy B and C record those terms as their thetas
READ = ("unknown K.\nphone(sue, K).\nc(a).\n"
        "all A : all* B : all* C : all D : t(A, B, C, D) :- c(A), phone(sue, B).\n"
        "all U : all V : all N : go :- phone(sue, N), t(a, N, f(U), V).\n")
READ_STEPS = [
    ("bc", "phone(sue, ?k1)", "phone(sue, ?k1)", None),
    ("pv", "m", "phone(sue, ?k1)", None),
    ("bc", "c(a)", "c(a)", None),
    ("pv", "m", "c(a)", None),
    ("bc", "phone(sue, ?k1)", "phone(sue, ?k1)", None),
    ("pv", "m", "phone(sue, ?k1)", None),
    ("pv", "m", "c(a), phone(sue, ?k1)", None),
    ("bc", "t(a, ?k1, f(U), V) :- c(a), phone(sue, ?k1)", "t(a, ?k1, f(U), V)", None),
    ("bc", "all D : t(a, ?k1, f(U), D) :- c(a), phone(sue, ?k1)", "t(a, ?k1, f(U), V)", None),
    ("bc", "all* C : all D : t(a, ?k1, C, D) :- c(a), phone(sue, ?k1)", "t(a, ?k1, f(U), V)",
     ("C", "f(U)")),
    ("bc", "all* B : all* C : all D : t(a, B, C, D) :- c(a), phone(sue, B)", "t(a, ?k1, f(U), V)",
     ("B", "?k1")),
    ("bc", "all A : all* B : all* C : all D : t(A, B, C, D) :- c(A), phone(sue, B)",
     "t(a, ?k1, f(U), V)", None),
    ("pv", "m", "t(a, ?k1, f(U), V)", None),
    ("pv", "m", "phone(sue, ?k1), t(a, ?k1, f(U), V)", None),
    ("bc", "go :- phone(sue, ?k1), t(a, ?k1, f(U), V)", "go", None),
    ("bc", "all N : go :- phone(sue, N), t(a, N, f(U), V)", "go", None),
    ("bc", "all V : all N : go :- phone(sue, N), t(a, N, f(U), V)", "go", None),
    ("bc", "all U : all V : all N : go :- phone(sue, N), t(a, N, f(U), V)", "go", None),
    ("pv", "m", "go", None),
]
READ_PROOF = """\
1. bc(phone(sue, ?k1), m, phone(sue, ?k1), nil)
2. pv(m, phone(sue, ?k1), nil)
3. bc(c(a), m, c(a), nil)
4. pv(m, c(a), nil)
5. bc(phone(sue, ?k1), m, phone(sue, ?k1), nil)
6. pv(m, phone(sue, ?k1), nil)
7. pv(m, (c(a), phone(sue, ?k1)), nil)
8. bc(t(a, ?k1, f(U), V) :- c(a), phone(sue, ?k1), m, t(a, ?k1, f(U), V), nil)
9. bc(all D : t(a, ?k1, f(U), D) :- c(a), phone(sue, ?k1), m, t(a, ?k1, f(U), V), nil)
10. bc(all* C : all D : t(a, ?k1, C, D) :- c(a), phone(sue, ?k1), m, t(a, ?k1, f(U), V), <C, f(U)>)
11. bc(all* B : all* C : all D : t(a, B, C, D) :- c(a), phone(sue, B), m, t(a, ?k1, f(U), V), \
<B, ?k1>)
12. bc(all A : all* B : all* C : all D : t(A, B, C, D) :- c(A), phone(sue, B), m, \
t(a, ?k1, f(U), V), nil)
13. pv(m, t(a, ?k1, f(U), V), nil)
14. pv(m, (phone(sue, ?k1), t(a, ?k1, f(U), V)), nil)
15. bc(go :- phone(sue, ?k1), t(a, ?k1, f(U), V), m, go, nil)
16. bc(all N : go :- phone(sue, N), t(a, N, f(U), V), m, go, nil)
17. bc(all V : all N : go :- phone(sue, N), t(a, N, f(U), V), m, go, nil)
18. bc(all U : all V : all N : go :- phone(sue, N), t(a, N, f(U), V), m, go, nil)
19. pv(m, go, nil)
answer: {C = f(U), B = ?k1}"""


def test_a_clause_layer_prints_the_goal_terms_its_head_took():
    # after a reset, ?k1 and go's fresh U share the id 1, and U is printed
    # (step 8) before ?k1 is printed as a witness (steps 9-12): a text kept
    # by variable id must not be read for a witness that is no variable
    reset_fresh_counters()
    prog = load(READ, name="m")
    reset_fresh_counters()
    lenient = SolveConfig(groundness_mode="lenient")
    (sol,) = solve(prog, desugar_query_vars(parse_query("go")), lenient)
    _, _, witnesses = sol.trace.raw_steps[-3][1]  # the bc step of t's outermost layer
    assert prog.unknown_table["K"].id == witnesses[0].id == 1
    assert format_proof(sol.trace, sol.answer) == READ_PROOF
    assert solution_json(sol, "success") == {
        "answers": [{"var": "C", "term": "f(U)"}, {"var": "B", "term": "?k1"}],
        "trace": [_json_step(i, *step) for i, step in enumerate(READ_STEPS, 1)],
        "status": "success",
    }


RESET_PROGRAM = "phone(sue, 4450).\nt(a, N, f(U), V) :- phone(sue, N), c(U), c(V).\nc(b).\n"
RESET_QUERY = "some U : some V : some* N : phone(sue, N), t(a, N, f(U), V)"


@pytest.mark.parametrize("trace", [False, True])
def test_a_counter_reset_between_parsing_and_solving_changes_nothing(trace):
    # after the second reset, the variables the search draws would take the
    # ids 1-3 of the query's binders U, V and N, which bindings and trace
    # texts are keyed by, unless solving reserves the goal's ids first
    def run(reset):
        reset_fresh_counters()
        prog = load(RESET_PROGRAM)
        reset_fresh_counters()
        goal = desugar_query_vars(parse_query(RESET_QUERY))
        if reset:
            reset_fresh_counters()
        config = SolveConfig(max_solutions=None, trace_enabled=trace)
        return [(s.answer, format_proof(s.trace, s.answer) if trace else None)
                for s in solve(prog, goal, config)]

    assert run(reset=True) == run(reset=False)
    assert [answer for answer, _ in run(reset=True)] == [(("N", Const("4450")),)]


def test_a_query_of_five_thousand_written_binders_answers_untraced():
    consts = ", ".join(f"c{i}" for i in range(5_000))
    args = ", ".join(f"X{i}" for i in range(5_000))
    query = "".join(f"some* X{i} : " for i in range(5_000)) + f"p({args})"
    _, _, session = ask(f"p({consts}).", query, SolveConfig(trace_enabled=False))
    (sol,) = session
    # answers come innermost binder first, as the trace records them bottom-up
    assert sol.answer == tuple((f"X{i}", Const(f"c{i}")) for i in reversed(range(5_000)))


def test_a_compound_head_argument_rejects_another_functor_or_arity():
    for query, want in (("p(a, g(b))", []), ("p(a, f(b, c))", []), ("p(a, f(b))", [[]])):
        assert answers(ask("p(a, f(X)).", query)[2]) == want, query


def test_an_untraced_search_records_only_the_noisy_thetas():
    _, goal, session = ask(RENAMED, "some X : r(a, W), q(X, b)", replace(ALL, trace_enabled=False))
    search = session.search
    for want in (["Y", "W"], ["Y", "W"]):
        session.next_solution()
        assert [name for name, _ in search.steps] == want
    assert answers(ask(RENAMED, "some X : r(a, W), q(X, b)")[2]) == answers(
        ask(RENAMED, "some X : r(a, W), q(X, b)", replace(ALL, trace_enabled=False))[2])


def test_an_untraced_pending_call_holds_at_most_a_quarter_kilobyte():
    import tracemalloc

    prog = load("p(X) :- p(X).")
    goal = desugar_query_vars(parse_query("p(a)"))
    tracemalloc.start()
    try:
        session = solve(prog, goal, SolveConfig(max_depth=20_000, trace_enabled=False))
        assert list(session) == [] and session.incomplete
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20_000 * 250  # 5 MB; about 19 MB when every step was recorded


def test_a_traced_binder_chain_is_renamed_once(monkeypatch):
    import prologtheta.engine as engine

    renamed = []

    def counted_map_terms(node, f):
        renamed.append(node)
        return map_terms(node, f)

    monkeypatch.setattr(engine, "map_terms", counted_map_terms)
    prog = load("p(" + ", ".join(f"c{i}" for i in range(300)) + ").")
    goal = desugar_query_vars(parse_query("p(" + ", ".join(f"Y{i}" for i in range(300)) + ")"))
    search = ProofSearch(prog, SolveConfig())
    next(search.prove(goal))
    assert len(renamed) == 1  # the chain's body, once for all 300 binders
    # each binder keeps its pv step, innermost first, its outer binders renamed
    pv = [step for step in step_texts(search.snapshot()) if step[4].startswith("some")]
    assert [step[5][0] for step in pv] == [f"Y{i}" for i in range(299, -1, -1)]
    assert pv[-1][2] is goal
    assert pv[-2][4].startswith("some* Y1 : some* Y2 : ")
    assert pv[-2][4].endswith(": p(c0, Y1, Y2, " + ", ".join(f"Y{i}" for i in range(3, 300)) + ")")
