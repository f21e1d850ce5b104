"""The brute-force reference prover and its agreement with the engine."""

import pytest

from prologtheta.terms import Const
from prologtheta.syntax import desugar_query_vars
from prologtheta.parser import format_term, parse_query
from prologtheta.loader import load
from prologtheta.engine import SolveConfig, solve
from prologtheta.oracle import OracleOverflow, herbrand_universe, oracle_solve

PHONE = "phone(tom, cs, 4450)."
EMP = """\
module emp.
unknown X, Y.
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""
# a goal with no terms, for universes of the program alone
NO_CONSTANTS = parse_query("q")


def shown(universe):
    return sorted(format_term(t) for t in universe)


def test_universe_of_phone_program():
    uni = herbrand_universe(load(PHONE), 0, NO_CONSTANTS)
    assert shown(uni) == ["4450", "cs", "tom"]


def test_universe_of_emp_program_includes_unknowns():
    uni = herbrand_universe(load(EMP), 0, NO_CONSTANTS)
    assert shown(uni) == sorted(
        ["tom", "pete", "sue", "john", "tim", "434433", "200312", "?k1", "?k2"]
    )


def test_universe_of_constant_free_program_is_empty():
    uni = herbrand_universe(load("all X : p(X)."), 0, NO_CONSTANTS)
    assert uni == ()


def test_universe_grows_with_depth_bound():
    prog = load("p(f(a)).")
    assert shown(herbrand_universe(prog, 0, NO_CONSTANTS)) == ["a"]
    assert shown(herbrand_universe(prog, 1, NO_CONSTANTS)) == ["a", "f(a)"]
    assert shown(herbrand_universe(prog, 2, NO_CONSTANTS)) == ["a", "f(a)", "f(f(a))"]


def test_oracle_finds_the_phone_answer():
    prog = load(PHONE)
    goal = desugar_query_vars(parse_query("some X : some* Y : phone(tom, X, Y)"))
    result = oracle_solve(prog, goal, herbrand_universe(prog, 0, goal))
    assert result == frozenset({(("Y", Const("4450")),)})


def test_oracle_shared_and_distinct_unknowns():
    prog = load(EMP)
    uni = herbrand_universe(prog, 0, NO_CONSTANTS)
    shared = desugar_query_vars(parse_query("some* N : phone(sue, N), phone(john, N)"))
    assert oracle_solve(prog, shared, uni) == frozenset(
        {(("N", prog.unknown_table["X"]),)}
    )
    mixed = desugar_query_vars(parse_query("some* N : phone(sue, N), phone(tim, N)"))
    assert oracle_solve(prog, mixed, uni) == frozenset()


def test_oracle_unsatisfiable_atom_is_empty():
    prog = load(PHONE)
    goal = desugar_query_vars(parse_query("phone(bob, cs, 4450)"))
    assert oracle_solve(prog, goal, herbrand_universe(prog, 0, goal)) == frozenset()


def test_oracle_enumerates_silent_choices_for_derivability():
    # a silent existential still needs a ground witness from the universe
    prog = load("p(a).\nq(b).")
    goal = desugar_query_vars(parse_query("some X : p(X)"))
    assert oracle_solve(prog, goal, herbrand_universe(prog, 0, goal)) == frozenset({()})


def test_oracle_records_noisy_universals_from_program_clauses():
    prog = load("all* X : p(X) :- q(X).\nq(a).")
    goal = desugar_query_vars(parse_query("p(a)"))
    assert oracle_solve(prog, goal, herbrand_universe(prog, 0, goal)) == frozenset(
        {(("X", Const("a")),)}
    )


def test_monotonicity_in_depth_and_universe():
    prog = load(EMP)
    goal = desugar_query_vars(parse_query("some* N : phone(sue, N)"))
    uni = herbrand_universe(prog, 0, goal)
    shallow = oracle_solve(prog, goal, uni, depth_bound=6)
    deep = oracle_solve(prog, goal, uni, depth_bound=32)
    assert shallow <= deep

    smaller = uni[:4]
    assert oracle_solve(prog, goal, smaller) <= oracle_solve(prog, goal, uni)


def test_work_limit_raises_overflow():
    prog = load(EMP)
    goal = desugar_query_vars(parse_query("some* N : phone(sue, N), phone(john, N)"))
    with pytest.raises(OracleOverflow):
        oracle_solve(prog, goal, herbrand_universe(prog, 0, goal), work_limit=5)


def test_engine_and_oracle_agree_on_the_worked_examples():
    cases = [
        (PHONE, "some X : some* Y : phone(tom, X, Y)"),
        (PHONE, "phone(tom, _, Y)"),
        (EMP, "some* N : phone(sue, N), phone(john, N)"),
        (EMP, "some* N : phone(sue, N), phone(tim, N)"),
        (EMP, "some* W : phone(W, 434433)"),
        (EMP, "phone(sue, N), phone(john, N)"),
    ]
    for text, query in cases:
        prog = load(text)
        goal = desugar_query_vars(parse_query(query))
        engine = frozenset(
            sol.answer for sol in solve(prog, goal, SolveConfig(max_solutions=None))
        )
        oracle = oracle_solve(prog, goal, herbrand_universe(prog, 0, goal))
        assert engine == oracle, (text, query)
