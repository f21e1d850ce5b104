"""Differential checking: generator determinism and harness sanity."""

import random
import re

import pytest

import prologtheta.fuzz as fuzz
from prologtheta.fuzz import (
    FuzzCase,
    check_case,
    differential_check,
    erasure_outcomes,
    fuzz_run,
    load_case,
    random_case,
)
from prologtheta.cli import main
from prologtheta.loader import load
from prologtheta.parser import parse_query
from prologtheta.syntax import Atom, Conj, Exists, desugar_query_vars


NAT = "nat(z).\nnat(s(X)) :- nat(X).\n"
FREE_1000 = f"p({', '.join(f'Y{i}' for i in range(1000))})"


@pytest.mark.parametrize(
    "program, query, universe_depth, status, answers",
    [
        ("p(a).\np(b).\n", "some* X : p(X)", 0, "match", 2),
        # a term that only the query has, whether a clause head fixes it or
        # a body variable takes it, and a head-fixed term deeper than the
        # universe: the oracle derives them as the engine does
        ("p(X).\n", "p(a)", 0, "match", 1),
        ("q(Y, Y).\nr(W).\np(Y) :- q(Y, Z), r(Z).\n", "p(c)", 0, "match", 1),
        (NAT, "nat(s(s(s(z))))", 1, "match", 1),
        # strict mode drops the answer X = Y, which the oracle grounds with
        # each universe term: the sets differ although neither is wrong
        ("p(Y).\nq(b).\n", "some* X : p(X)", 0, "incomplete", 0),
        ("p(Y).\n", "p(a), some* X : p(X)", 0, "incomplete", 0),
        # a query of 1,000 free variables: the oracle walks its binders in a
        # loop, so only the size of the universe decides
        (f"p({', '.join(['a'] * 1000)}).\n", FREE_1000, 0, "match", 1),
        (f"p({', '.join(f'c{i}' for i in range(1000))}).\n", FREE_1000, 0, "overflow", 1),
    ],
    ids=["two-facts", "query-constant", "query-constant-in-body", "head-fixed-compound",
         "unground-witness", "unground-witness-beside-query-constant",
         "free-1000-one-constant", "free-1000-constants"],
)
def test_known_cases_match(program, query, universe_depth, status, answers):
    report = check_case(FuzzCase(program, query), universe_depth=universe_depth)
    assert report.status == status, report.detail
    assert len(report.engine_answers) == answers


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
        assert report.status == "match", f"case {i}:\n{case}\n{report.detail}"


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
    assert check_case(case).status == "match"


def test_check_reads_strict_answers_off_one_lenient_search(monkeypatch):
    # strict mode's answers are the lenient search's ground ones, so the
    # dropped answer X = X is found with no second search
    calls = []
    real_solve = fuzz.solve
    monkeypatch.setattr(fuzz, "solve", lambda *a: calls.append(a) or real_solve(*a))
    report = check_case(FuzzCase("p(X).\n", "p(a), some* X : p(X)"))
    assert report.status == "incomplete"
    assert report.detail == "strict mode dropped a non-ground answer; cannot certify"
    assert len(calls) == 1


def test_broken_twin_is_caught(monkeypatch, capsys):
    """Campaign sanity: a silent twin that loses derivations must produce
    MISMATCH, exit 1."""
    real_twin = fuzz.silent_twin

    def lossy_twin(node):
        twin = real_twin(node)
        return Conj(twin, Atom("absent", ())) if isinstance(node, (Atom, Conj, Exists)) else twin

    monkeypatch.setattr(fuzz, "silent_twin", lossy_twin)
    assert main(["check", "--fuzz", "500", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("MISMATCH (case ") and lines[0].endswith("/500, seed 1)")
    assert re.fullmatch(r"erasure: [1-9]\d* derivations, 0 for the all-silent twin", lines[-1])


def test_uncertifiable_search_is_reported_incomplete():
    prog = load("p :- p.", name="loop")
    goal = desugar_query_vars(parse_query("p"))
    report = differential_check(prog, goal, max_depth=16)
    assert report.status == "incomplete"
    # answers nested 500 deep are compared as text, which costs no stack
    goal = desugar_query_vars(parse_query("nat(X)"))
    report = differential_check(load(NAT), goal, max_depth=500, universe_depth=2)
    assert report.status == "incomplete"
    assert len(report.engine_answers) == 500


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


def test_check_collects_every_derivation(tmp_path, capsys):
    # m has 4**7 derivations, so X = b first comes at derivation 16,385
    mod = tmp_path / "many.plt"
    mod.write_text("d. d. d. d.\nm :- d, d, d, d, d, d, d.\ns(a). s(b).\np(X) :- s(X), m.\n",
                   encoding="utf-8")
    assert main(["check", "--module", str(mod), "--query", "some* X : p(X)"]) == 0
    assert capsys.readouterr().out == "MATCH\n"


def test_erasure_outcomes_agree_on_sample():
    rng = random.Random(23)
    for _ in range(80):
        case = random_case(rng)
        noisy_n, silent_n = erasure_outcomes(*load_case(case))
        assert noisy_n == silent_n, str(case)


def test_erasure_preserves_the_whole_derivation_count():
    # the twin walks the same search tree, so derivations match one to one
    rng = random.Random(29)
    for _ in range(40):
        case = random_case(rng)
        noisy_n, silent_n = erasure_outcomes(*load_case(case))
        assert noisy_n == silent_n, str(case)
