"""Differential checking: generator determinism and harness sanity."""

import random

import pytest

import prologtheta.fuzz as fuzz
from prologtheta.fuzz import (
    FuzzCase,
    check_case,
    differential_check,
    erasure_outcomes,
    fuzz_run,
    random_case,
)
from prologtheta.loader import load
from prologtheta.parser import parse_query
from prologtheta.syntax import desugar_query_vars


def test_known_cases_match():
    case = FuzzCase("p(a).\np(b).\n", "some* X : p(X)")
    report = check_case(case)
    assert report.matched
    assert len(report.engine_answers) == 2


def test_generator_is_deterministic_per_seed():
    first = [random_case(random.Random(99)) for _ in range(10)]
    second = [random_case(random.Random(99)) for _ in range(10)]
    assert first == second


def test_generated_cases_parse_and_load():
    rng = random.Random(3)
    for _ in range(50):
        case = random_case(rng)
        prog = load(case.program_text, name="fuzz")
        assert prog.clauses
        desugar_query_vars(parse_query(case.query_text))


def test_fuzz_run_matches_on_sample():
    for i, case, report in fuzz_run(60, seed=17):
        assert report.matched, f"case {i}:\n{case}\n{report.detail}"


def test_broken_engine_is_caught(monkeypatch):
    """Harness sanity: a solver that drops answers must produce MISMATCH."""

    class _EmptySession:
        incomplete = False

        def __iter__(self):
            return iter(())

    real_solve = fuzz.solve
    monkeypatch.setattr(fuzz, "solve", lambda *a, **k: _EmptySession())
    case = FuzzCase("p(a).\n", "some* X : p(X)")
    report = check_case(case)
    assert report.status == "mismatch"
    assert "missing from engine" in report.detail
    monkeypatch.setattr(fuzz, "solve", real_solve)
    assert check_case(case).matched


def test_uncertifiable_search_is_reported_incomplete():
    prog = load("p :- p.", name="loop")
    goal = desugar_query_vars(parse_query("p"))
    report = differential_check(prog, goal, max_depth=16)
    assert report.status == "incomplete"


@pytest.mark.parametrize("edges, max_depth", [(6, 64), (6, 8), (20, 64)])
def test_recursion_the_engine_completes_matches_the_oracle(edges, max_depth):
    # the oracle counts nested calls as the engine does, so it finds every
    # derivation of a search that was not cut
    text = "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(edges)) + (
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    )
    goal = desugar_query_vars(parse_query("path(n0, Y)"))
    report = differential_check(load(text, name="line"), goal, max_depth=max_depth)
    assert report.status == "match", report.detail
    assert len(report.engine_answers) == edges


def test_erasure_outcomes_agree_on_sample():
    rng = random.Random(23)
    for _ in range(80):
        case = random_case(rng)
        noisy, silent = erasure_outcomes(case)
        assert noisy == silent, str(case)


def test_erasure_preserves_the_whole_derivation_count():
    # the twin walks the same search tree, so derivations match one to one
    rng = random.Random(29)
    for _ in range(40):
        case = random_case(rng)
        noisy_n, silent_n = erasure_outcomes(case, count_solutions=True)
        assert noisy_n == silent_n, str(case)
