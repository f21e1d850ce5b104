"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a PASS line when it holds.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import subprocess
import sys
import time

from prologtheta.terms import Compound, Const, Unknown, Var, is_ground
from prologtheta.syntax import desugar_query_vars
from prologtheta.parser import format_term, parse_query, parse_term
from prologtheta.loader import load
from prologtheta.engine import SolveConfig, solve
from prologtheta.fuzz import fuzz_run, random_case

ALL = SolveConfig(max_solutions=None)

EMP = """\
module emp.
unknown X, Y.
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_phone_golden():
    started = time.monotonic()
    prog = load("phone(tom, cs, 4450).", name="phone")
    goal = desugar_query_vars(parse_query("some X : some* Y : phone(tom, X, Y)"))
    sols = list(solve(prog, goal, ALL))

    assert len(sols) == 1
    sol = sols[0]
    assert [(n, format_term(t)) for n, t in sol.answer] == [("Y", "4450")]
    assert all(n != "X" for n, _ in sol.answer)

    steps = sol.trace.steps
    assert [s.kind for s in steps] == ["bc", "pv", "pv", "pv"]
    assert steps[0].focus == prog.clauses[0]  # step 1: backchain leaf
    assert steps[3].goal == goal  # step 4: the full query
    assert steps[3].theta is None
    assert steps[2].theta == ("Y", Const("4450"))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"golden phone query, 4-step trace, {elapsed:.3f}s")


def test_criterion_2_emp_module():
    started = time.monotonic()
    prog = load(EMP)
    args = {c.head.args[0].name: c.head.args[1] for c in prog.clauses}
    assert isinstance(args["sue"], Unknown)
    assert args["sue"] == args["john"]
    assert isinstance(args["tim"], Unknown) and args["tim"] != args["sue"]

    shared = desugar_query_vars(parse_query("phone(sue, N), phone(john, N)"))
    sols = list(solve(prog, shared, ALL))
    assert len(sols) == 1
    assert sols[0].answer == (("N", args["sue"]),)

    mixed = desugar_query_vars(parse_query("phone(sue, N), phone(tim, N)"))
    session = solve(prog, mixed, ALL)
    assert list(session) == []
    assert not session.incomplete
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(2, f"shared unknown joins, distinct unknowns fail, {elapsed:.3f}s")


def test_criterion_3_erasure_property(erasure_counts):
    total = 220
    rng = random.Random(1234)
    agreed = 0
    for _ in range(total):
        case = random_case(rng)
        noisy_n, silent_n = erasure_counts(case)
        assert noisy_n == silent_n, f"erasure broke on:\n{case}"
        agreed += 1
    assert agreed == total
    _report(3, f"silent-twin rewriting preserved the derivation count on {agreed}/{total} programs")


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    total = 120
    for i, case, report in fuzz_run(total, seed=2024):
        assert report.status == "match", f"case {i} diverged:\n{case}\n{report.detail}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, f"engine == oracle on {total}/{total} cases in {elapsed:.2f}s")


def test_criterion_5_groundness_rule():
    prog = load("all X : p(X).")
    goal = desugar_query_vars(parse_query("some* Y : p(Y)"))

    strict = list(solve(prog, goal, ALL))
    assert strict == []

    lenient_cfg = SolveConfig(groundness_mode="lenient", max_solutions=None)
    lenient = list(solve(prog, goal, lenient_cfg))
    assert len(lenient) == 1
    assert any(not is_ground(term) for _, term in lenient[0].answer)
    (name, term), = lenient[0].answer
    assert name == "Y" and isinstance(term, Var)
    _report(5, "non-ground noisy witness: 0 strict solutions, 1 flagged lenient")


def test_criterion_6_noisy_universal_recording():
    prog = load("all* X : p(X) :- q(X).\nq(a).")
    goal = desugar_query_vars(parse_query("p(a)"))
    sols = list(solve(prog, goal, ALL))
    assert len(sols) == 1
    assert sols[0].answer == (("X", Const("a")),)
    recorded = [s for s in sols[0].trace.steps if s.theta is not None]
    assert len(recorded) == 1
    assert recorded[0].theta == ("X", Const("a"))
    _report(6, "noisy universal recorded <X, a> in exactly one step")


def _run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "prologtheta.cli", *args], capture_output=True, env=env
    )


def test_criterion_7_determinism_and_round_trip(tmp_path, cli_env):
    mod = tmp_path / "phone.plt"
    mod.write_text("module phone.\nphone(tom, cs, 4450).\n", encoding="utf-8")
    batch = ["--module", str(mod), "--query",
             "some X : some* Y : phone(tom, X, Y)", "--all", "--trace"]
    first, second = _run_cli(batch, cli_env), _run_cli(batch, cli_env)
    assert first.returncode == second.returncode == 0, (first.stderr + second.stderr).decode()
    assert first.stdout == second.stdout

    fuzzed = ["check", "--fuzz", "30", "--seed", "9"]
    first, second = _run_cli(fuzzed, cli_env), _run_cli(fuzzed, cli_env)
    assert first.returncode == second.returncode == 0, (first.stderr + second.stderr).decode()
    assert first.stdout == second.stdout

    corpus = _term_corpus(50)
    assert len(corpus) == 50
    for term in corpus:
        text = format_term(term)
        assert format_term(parse_term(text)) == text
    _report(7, "byte-identical reruns; parse/format identity on 50 terms")


def _term_corpus(count):
    rng = random.Random(7)
    consts = ["tom", "cs", "a", "b", "4450", "0"]
    variables = ["X", "Y", "Zed"]
    functors = ["f", "g", "phone"]

    def build(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            return Const(rng.choice(consts))
        if roll < 0.6:
            return Var(rng.choice(variables), 0)
        return Compound(
            rng.choice(functors),
            tuple(build(depth - 1) for _ in range(rng.randint(1, 3))),
        )

    return [build(3) for _ in range(count)]
