"""Byte identity of answers and traces, pinned as one SHA-256 digest.

Every solution of every case below is rendered the way the CLI renders it:
its JSON document (answers and trace), its text proof, and whether the
search was cut so far.  A refactor of the search, unification, renaming,
resolution or printing must leave every one of those bytes, and their
order, unchanged.  Re-pin ``GOLDEN`` only for an intended output change,
and say which in the change log.
"""

import hashlib
import json
import random
from dataclasses import replace

from prologtheta import (
    SolveConfig,
    desugar_query_vars,
    format_proof,
    format_term,
    load,
    parse_query,
    reset_fresh_counters,
    solve,
)
from prologtheta.cli import solution_json
from prologtheta.fuzz import random_case

GOLDEN = "eb18db61759fe8851ec0beb3f6cee444a74ecb999398790690c7118ea8016701"

NREV = """
app(nil, L, L).
app(c(H, T), L, c(H, R)) :- app(T, L, R).
nrev(nil, nil).
nrev(c(H, T), R) :- nrev(T, RT), app(RT, c(H, nil), R).
"""
NAT = "nat(z).\nnat(s(X)) :- nat(X).\n"
PATH = """
edge(a, b). edge(b, c). edge(c, d). edge(b, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""
FLAT = "big :- " + ", ".join(["q(a)"] * 50) + ".\nq(a).\n"


def _list(n: int) -> str:
    text = "nil"
    for i in reversed(range(n)):
        text = f"c({i}, {text})"
    return text


# (program, query, max_solutions); each runs strict/lenient x occurs check on/off
HAND_WRITTEN = [
    (NREV, f"nrev({_list(8)}, R)", None),
    (NREV, "app(X, Y, c(1, c(2, c(3, nil))))", None),
    (NAT, "nat(X)", 25),
    (NAT, "nat(s(s(z)))", None),
    (PATH, "path(a, Y)", None),
    (PATH, "some* Y : path(X, Y)", None),
    # both orders of the p(A, A) cycle: cyclic bindings with the check off
    ("p(X, f(X)).\n", "p(A, A)", None),
    ("p(f(X), X).\n", "p(A, A)", None),
    ("e(1, 2). e(2, 3). e(3, 4).\nall* X, Y, Z : r(X, Z) :- e(X, Y), e(Y, Z).\n",
     "r(A, B)", None),
    ("e(1, 2). e(2, 3).\nq(X) :- some* Y : e(X, Y).\nall* W : s(W) :- some Y : e(Y, W).\n",
     "q(A), s(B)", None),
    ("unknown K, L.\nu(K, a). u(*, b). u(L, *).\nv(X) :- u(X, a).\n", "u(X, Y)", None),
    ("unknown K.\nu(K, a). u(*, b).\nv(X) :- u(X, a).\n", "v(X), u(X, Y)", None),
    (FLAT, "big", None),
    # lenient residual variables: which variable binds to which shows here
    ("p(A, A).\n", "p(X, Y)", None),
    ("q(A, B, f(A, B)).\n", "q(X, Y, Z)", None),
]


def _render(program_text: str, query_text: str, config: SolveConfig):
    """Yield the bytes of each solution, then whether the search was cut."""
    reset_fresh_counters()
    program = load(program_text, name="m")
    session = solve(program, desugar_query_vars(parse_query(query_text)), config)
    for sol in session:
        yield json.dumps(solution_json(sol, "success"))
        yield format_proof(sol.trace, sol.answer)
        yield str(session.incomplete)
    yield f"end {session.incomplete}"


def _cases():
    modes = [(g, oc) for g in ("strict", "lenient") for oc in (True, False)]
    for seed in range(600):
        case = random_case(random.Random(seed))
        for groundness, occurs_check in modes:
            for max_solutions in (None, 1):
                for max_depth in (None, 2):
                    config = SolveConfig(groundness, max_depth, max_solutions, occurs_check)
                    yield case.program_text, case.query_text, config
    for program_text, query_text, max_solutions in HAND_WRITTEN:
        for groundness, occurs_check in modes:
            config = SolveConfig(groundness, None, max_solutions, occurs_check)
            yield program_text, query_text, config


def golden_digest() -> str:
    digest = hashlib.sha256()
    for program_text, query_text, config in _cases():
        digest.update(f"\0case {query_text} {config}\0".encode())
        for text in _render(program_text, query_text, config):
            digest.update(text.encode() + b"\0")
    return digest.hexdigest()


def test_answers_and_traces_are_byte_identical_to_the_pinned_digest():
    assert golden_digest() == GOLDEN


def _answers(program_text: str, query_text: str, config: SolveConfig):
    reset_fresh_counters()
    session = solve(load(program_text, name="m"),
                    desugar_query_vars(parse_query(query_text)), config)
    texts = [[(name, format_term(term)) for name, term in sol.answer] for sol in session]
    return texts, session.incomplete


def test_untraced_answers_equal_the_traced_ones():
    # an untraced search records only the noisy thetas, and takes a chain
    # of binders at once: its answers, their order and whether it was cut
    # must not change
    cases = 0
    for program_text, query_text, config in _cases():
        traced = _answers(program_text, query_text, config)
        untraced = _answers(program_text, query_text, replace(config, trace_enabled=False))
        assert untraced == traced, (program_text, query_text, config)
        cases += 1
    assert cases == 9_660


def _printed(program_text: str, query_text: str, config: SolveConfig, collect_first: bool):
    """Each solution's JSON and text proof, printed as it arrives or only
    after the search has run to its end."""
    reset_fresh_counters()
    session = solve(load(program_text, name="m"),
                    desugar_query_vars(parse_query(query_text)), config)
    sols = list(session) if collect_first else session
    return [(json.dumps(solution_json(sol, "success")), format_proof(sol.trace, sol.answer))
            for sol in sols]


def test_a_trace_prints_the_same_bytes_after_its_search_has_moved_on():
    # a trace keeps the steps and bindings of its own solution: one that
    # read the live search would print the bindings of a later solution
    for program_text, query_text, config in [
        (PATH, "path(a, Y)", SolveConfig(max_solutions=None)),
        # a cyclic binding, made with the occurs check off
        ("p(A, A).", "some* X : some* Y : p(X, f(Y)), p(Y, g(X))",
         SolveConfig("lenient", None, None, occurs_check=False)),
    ]:
        on_arrival = _printed(program_text, query_text, config, collect_first=False)
        assert _printed(program_text, query_text, config, collect_first=True) == on_arrival
        assert on_arrival
