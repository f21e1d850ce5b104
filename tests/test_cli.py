"""Batch output, exit codes, JSON schema, and the REPL loop."""

import io
import json
import subprocess
import sys

import jsonschema
import pytest

from prologtheta import SolveConfig, desugar_query_vars, engine, load, parse_query, solve
from prologtheta.cli import TRACE_SCHEMA, build_arg_parser, main, run_batch, run_repl
from prologtheta.engine import ProofSearch, SolveSession

PHONE = "module phone.\nphone(tom, cs, 4450).\n"
EMP = (
    "module emp.\nunknown X, Y.\nphone(tom, 434433).\nphone(pete, 200312).\n"
    "phone(sue, X).\nphone(john, X).\nphone(tim, Y).\n"
)


@pytest.fixture
def phone_path(tmp_path):
    p = tmp_path / "phone.plt"
    p.write_text(PHONE, encoding="utf-8")
    return str(p)


@pytest.fixture
def emp_path(tmp_path):
    p = tmp_path / "emp.plt"
    p.write_text(EMP, encoding="utf-8")
    return str(p)


def test_batch_success_with_trace(phone_path, capsys):
    code = main(
        ["--module", phone_path, "--query", "some X : some* Y : phone(tom, X, Y)", "--trace"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Y = 4450"
    assert lines[1].startswith("1. bc(")
    assert lines[4].startswith("4. pv(")
    assert lines[5] == "answer: {Y = 4450}"
    assert "\x1b[" not in out  # captured stream is not a tty: no styling


def test_batch_free_variable_defaults_to_noisy(phone_path, capsys):
    code = main(["--module", phone_path, "--query", "phone(tom, _, Y)"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "Y = 4450"


def test_batch_failure_prints_no(phone_path, capsys):
    code = main(["--module", phone_path, "--query", "phone(bob, _, Y)"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "no."


def test_batch_error_exit_code(phone_path, capsys):
    code = main(["--module", phone_path, "--query", "p(,)"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_batch_incomplete_exit_code(tmp_path, capsys):
    loop = tmp_path / "loop.plt"
    loop.write_text("p :- p.\n", encoding="utf-8")
    code = main(["--module", str(loop), "--query", "p", "--max-depth", "12"])
    assert code == 3
    assert "incomplete" in capsys.readouterr().out


def test_batch_all_solutions(tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\np(b).\n", encoding="utf-8")
    code = main(["--module", str(mod), "--query", "some* X : p(X)", "--all"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["X = a", "X = b"]


def test_batch_empty_answer_prints_yes(tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\n", encoding="utf-8")
    code = main(["--module", str(mod), "--query", "some X : p(X)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "yes."


def test_json_output_validates_against_shipped_schema(phone_path, emp_path, capsys):
    queries = [
        (phone_path, "some X : some* Y : phone(tom, X, Y)"),
        (phone_path, "phone(tom, _, Y)"),
        (emp_path, "phone(sue, N), phone(john, N)"),
    ]
    for path, query in queries:
        code = main(["--module", path, "--query", query, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, TRACE_SCHEMA)
        assert doc["status"] == "success"
        assert doc["trace"][0]["index"] == 1


def test_json_failure_document(phone_path, capsys):
    code = main(["--module", phone_path, "--query", "phone(bob, _, Y)", "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, TRACE_SCHEMA)
    assert doc == {"answers": [], "trace": [], "status": "fail"}


def test_json_all_emits_one_document_per_solution(tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\np(b).\n", encoding="utf-8")
    code = main(["--module", str(mod), "--query", "some* X : p(X)", "--all",
                 "--format", "json"])
    assert code == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(docs) == 2
    for doc in docs:
        jsonschema.validate(doc, TRACE_SCHEMA)
    assert [d["answers"][0]["term"] for d in docs] == ["a", "b"]


def test_run_without_trace_or_json_never_snapshots(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "m.plt"
    mod.write_text("e(a, b).\ne(b, c).\np(X, Y) :- e(X, Y).\n"
                   "p(X, Z) :- e(X, Y), p(Y, Z).\n", encoding="utf-8")

    def never(self):
        raise AssertionError("snapshot called for a run that prints no trace")

    monkeypatch.setattr(ProofSearch, "snapshot", never)
    code = main(["--module", str(mod), "--query", "p(X, Y)", "--all"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "Y = b", "X = a", "Y = c", "X = b", "Y = c", "X = a",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_prints_each_solution_as_it_is_found(tmp_path, monkeypatch, fmt):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\np(b).\np(c).\n", encoding="utf-8")
    produced = []
    real_iter = SolveSession.__iter__

    def counted(self):
        for sol in real_iter(self):
            produced.append(sol)
            yield sol

    monkeypatch.setattr(SolveSession, "__iter__", counted)

    class Out(io.StringIO):
        produced_at_first_write = None

        def write(self, text):
            if self.produced_at_first_write is None:
                self.produced_at_first_write = len(produced)
            return super().write(text)

    out = Out()
    args = build_arg_parser().parse_args(
        ["run", "--module", str(mod), "--query", "some* X : p(X)", "--all", "--format", fmt]
    )
    assert run_batch(args, out, io.StringIO()) == 0
    assert out.produced_at_first_write == 1
    assert len(produced) == 3
    assert len(out.getvalue().splitlines()) == 3


def test_lenient_groundness_flag(tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("all X : p(X).\n", encoding="utf-8")
    strict = main(["--module", str(mod), "--query", "some* Y : p(Y)"])
    assert strict == 1
    capsys.readouterr()
    lenient = main(["--module", str(mod), "--query", "some* Y : p(Y)",
                    "--groundness", "lenient"])
    out = capsys.readouterr().out
    assert lenient == 0
    assert "(non-ground)" in out


def test_check_takes_no_groundness_flag(phone_path, capsys):
    # check compares strict answers only, so a lenient mode would be ignored
    code = main(["check", "--module", phone_path, "--query", "phone(tom, _, Y)",
                 "--groundness", "lenient"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--groundness" in captured.err


def test_check_single_query(emp_path, capsys):
    code = main(["check", "--module", emp_path, "--query",
                 "some* N : phone(sue, N), phone(john, N)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "MATCH"


def test_check_fuzz(capsys):
    code = main(["check", "--fuzz", "40", "--seed", "7"])
    assert code == 0
    assert "MATCH (40/40" in capsys.readouterr().out


def test_check_fuzz_names_an_uncertified_case_incomplete(capsys):
    # case 1 needs the body of a rule, one call deeper than a limit of 1 allows
    code = main(["check", "--fuzz", "50", "--seed", "3", "--max-depth", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.startswith("INCOMPLETE (case 1/50, seed 3)\n")
    assert out.endswith("engine search hit the depth limit; cannot certify\n")


def test_check_requires_universe_depth_for_functors(tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(f(a)).\n", encoding="utf-8")
    code = main(["check", "--module", str(mod), "--query", "some* X : p(X)"])
    assert code == 2
    assert "universe-depth" in capsys.readouterr().err
    code = main(["check", "--module", str(mod), "--query", "some* X : p(X)",
                 "--universe-depth", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "MATCH"


def test_color_styling_honours_env_and_tty(monkeypatch):
    from prologtheta.cli import _want_color

    class _Tty:
        def isatty(self):
            return True

    class _Pipe:
        def isatty(self):
            return False

    monkeypatch.delenv("PROLOGTHETA_NO_COLOR", raising=False)
    assert _want_color(_Tty())
    assert not _want_color(_Pipe())
    monkeypatch.setenv("PROLOGTHETA_NO_COLOR", "1")
    assert not _want_color(_Tty())


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_a_terminal_gets_bold_answers_and_plain_proofs_and_status_lines(
    phone_path, tmp_path, monkeypatch
):
    monkeypatch.delenv("PROLOGTHETA_NO_COLOR", raising=False)

    def run(query, *flags):
        out, err = _Terminal(), _Terminal()
        args = build_arg_parser().parse_args(
            ["run", "--module", phone_path, "--query", query, *flags])
        return run_batch(args, out, err), out.getvalue()

    assert run("some X : some* Y : phone(tom, X, Y)", "--trace") == (0, (
        "\x1b[1mY = 4450\x1b[0m\n"
        "1. bc(phone(tom, cs, 4450), phone, phone(tom, cs, 4450), nil)\n"
        "2. pv(phone, phone(tom, cs, 4450), nil)\n"
        "3. pv(phone, some* Y : phone(tom, cs, Y), <Y, 4450>)\n"
        "4. pv(phone, some X : some* Y : phone(tom, X, Y), nil)\n"
        "answer: {Y = 4450}\n"
    ))
    assert run("phone(tom, cs, 4450)") == (0, "\x1b[1myes.\x1b[0m\n")
    assert run("phone(bob, _, Y)") == (1, "no.\n")

    mod = tmp_path / "pq.plt"
    mod.write_text("p(a).\np(b).\n", encoding="utf-8")
    args = build_arg_parser().parse_args(["repl", "--all", "--module", str(mod)])
    out = _Terminal()
    script = "p(X).\n:trace on\n:more\n:more\np(c).\n:quit\n"
    assert run_repl(args, io.StringIO(script), out, out) == 0
    assert out.getvalue() == (
        "?- \x1b[1mX = a\x1b[0m\n"
        "?- ?- \x1b[1mX = b\x1b[0m\n"
        "1. bc(p(b), pq, p(b), nil)\n"
        "2. pv(pq, p(b), nil)\n"
        "3. pv(pq, some* X : p(X), <X, b>)\n"
        "answer: {X = b}\n"
        "?- no more solutions.\n"
        "?- no.\n"
        "?- "
    )


def test_run_is_the_default_subcommand(phone_path, capsys):
    explicit = main(["run", "--module", phone_path, "--query", "phone(tom, _, Y)"])
    first = capsys.readouterr().out
    implicit = main(["--module", phone_path, "--query", "phone(tom, _, Y)"])
    second = capsys.readouterr().out
    assert explicit == implicit == 0
    assert first == second


def _repl(script, modules=(), options=()):
    args = build_arg_parser().parse_args(
        ["repl", *options] + [arg for m in modules for arg in ("--module", m)]
    )
    out = io.StringIO()
    code = run_repl(args, io.StringIO(script), out, out)
    return code, out.getvalue()


def test_repl_session(emp_path):
    code, out = _repl(
        ":load {0}\nphone(sue, N), phone(john, N).\n:more\n:quit\n".format(emp_path)
    )
    assert code == 0
    assert "loaded" in out
    assert "N = ?k1" in out
    assert "no more solutions." in out


def test_repl_set_groundness(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("all X : p(X).\n", encoding="utf-8")
    code, out = _repl(
        "some* Y : p(Y).\n:set groundness lenient\nsome* Y : p(Y).\n:quit\n",
        modules=[str(mod)],
    )
    assert code == 0
    assert "no." in out
    assert "(non-ground)" in out


def test_repl_reports_errors_inline_and_continues(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\n", encoding="utf-8")
    code, out = _repl("p(,).\np(a).\n:quit\n", modules=[str(mod)])
    assert code == 0
    assert "error" in out
    assert "yes." in out


def test_repl_more_without_query():
    code, out = _repl(":more\n:quit\n")
    assert code == 0
    assert "no active query." in out


def test_repl_failed_load_keeps_the_program_and_queries_do_not_combine(
    tmp_path, monkeypatch
):
    import prologtheta.cli as cli

    modules = {"a": "p(a).\np(b).\n", "c": "r(c).\n", "b": "p(a, b).\nq(c).\n"}
    for name, text in modules.items():
        (tmp_path / f"{name}.plt").write_text(text, encoding="utf-8")
    calls = []
    combine = cli.combine
    monkeypatch.setattr(cli, "combine", lambda *a, **k: calls.append(a) or combine(*a, **k))
    script = (
        f":set max_solutions all\np(X).\n:load {tmp_path / 'b.plt'}\n:more\n"
        "p(X).\nr(Y).\n:quit\n"
    )
    code, out = _repl(script, modules=[str(tmp_path / "a.plt"), str(tmp_path / "c.plt")])
    assert code == 0
    # the failed load left the running query and the program as they were
    assert out.split("?- ")[2:7] == [
        "X = a\n",
        "error: in module b: predicate p used with arity 2 after arity 1\n",
        "X = b\n",
        "X = a\n",
        "Y = c\n",
    ]
    # once at start-up and once for the :load; never per query
    assert len(calls) == 2
    # conflicting modules at start-up are an error, as in run
    code, out = _repl(":quit\n", modules=[str(tmp_path / "a.plt"), str(tmp_path / "b.plt")])
    assert code == 2
    assert out.startswith("error: in module b: predicate p used with arity 2")


@pytest.mark.parametrize("argv", [
    ["run", "--query", "phone(tom, _, Y)", "--max-solutions", "0"],
    ["run", "--query", "phone(tom, _, Y)", "--max-solutions", "-3"],
    ["repl", "--max-solutions", "0"],
])
def test_max_solutions_below_one_is_an_error(argv, phone_path, capsys):
    code = main([*argv, "--module", phone_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: max_solutions must be at least 1")


@pytest.mark.parametrize("argv", [
    ["run", "--query", "phone(tom, _, Y)", "--max-depth", "0"],
    ["run", "--query", "phone(tom, _, Y)", "--max-depth", "-3"],
    ["repl", "--max-depth", "0"],
    ["check", "--query", "phone(tom, _, Y)", "--max-depth", "0"],
    ["check", "--fuzz", "5", "--max-depth", "-1"],
])
def test_max_depth_below_one_is_an_error(argv, phone_path, capsys):
    code = main([*argv, "--module", phone_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: max_depth must be at least 1")


def test_repl_rejects_max_depth_below_one_and_keeps_the_setting(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(X) :- q(X).\nq(X) :- r(X).\nr(X) :- s(X).\ns(a).\n", encoding="utf-8")
    # s is called at depth 4, past a limit of 3
    script = ":set max_depth 3\n:set max_depth -4\np(X).\n:quit\n"
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    assert out.split("?- ")[2:4] == [
        "error: max_depth must be at least 1, not -4\n", "incomplete search.\n",
    ]


def test_repl_rejects_a_limit_that_is_not_a_number_and_keeps_the_setting(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(X) :- q(X).\nq(X) :- r(X).\nr(X) :- s(X).\ns(a).\nt(a).\nt(b).\n",
                   encoding="utf-8")
    # s is called at depth 4, past a limit of 3, and t answers once
    script = (":set max_depth 3\n:set max_depth x\n:set max_solutions 1\n"
              ":set max_solutions y\np(X).\nt(X).\n:more\n:quit\n")
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    assert out.split("?- ")[2:] == [
        "error: max_depth must be a number or unlimited, not x\n", "",
        "error: max_solutions must be a number or all, not y\n", "incomplete search.\n",
        "X = a\n", "no more solutions.\n", "",
    ]


@pytest.mark.parametrize("argv, flag", [
    (["check", "--fuzz", "-5", "--seed", "1"], "--fuzz"),
    (["check", "--query", "some* X : p(X)", "--universe-depth", "-1"], "--universe-depth"),
])
def test_check_rejects_negative_counts(argv, flag, tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(f(a)).\n", encoding="utf-8")
    code = main([*argv, "--module", str(mod)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at least 0")


@pytest.mark.parametrize("flag, value", [("--query", "q(zzz, Y)"), ("--module", "missing.plt")])
def test_check_fuzz_takes_no_query_or_module(flag, value, capsys):
    # --fuzz generates its own programs and queries, so either would go unused
    code = main(["check", "--fuzz", "3", "--seed", "1", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --fuzz generates its own cases, so it takes no {flag}\n"


@pytest.mark.parametrize("seed", ["5", "0"])
def test_check_takes_a_seed_only_with_fuzz(seed, tmp_path, capsys):
    mod = tmp_path / "px.plt"
    mod.write_text("p(X).\n", encoding="utf-8")
    code = main(["check", "--module", str(mod), "--query", "p(a)", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --seed seeds the cases of --fuzz, so it needs --fuzz\n"
    # without --seed, --fuzz draws its cases from seed 0
    assert main(["check", "--fuzz", "5"]) == 0
    assert capsys.readouterr().out == "MATCH (5/5 cases, seed 0)\n"


# p(b) matches no clause; the q clause and its universals cost no depth
DEEP_Q = "p(a).\nall X : all Y : all Z : q(X, Y, Z).\n"


@pytest.mark.parametrize("depth", ["1", "2", "5"])
def test_depth_limit_ignores_the_clauses_an_atom_skips(depth, tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text(DEEP_Q, encoding="utf-8")
    assert main(["--module", str(mod), "--query", "p(b)", "--max-depth", depth]) == 1
    assert capsys.readouterr().out.splitlines() == ["no."]


NAT = "nat(z).\nnat(s(X)) :- nat(X).\n"


@pytest.mark.parametrize("program, query, depth, code, lines", [
    # the query's atoms are at depth 1
    ("p(a).\n", "p(a)", "1", 0, ["yes."]),
    # a rule body is one call deeper than the atom it resolved
    ("p(X) :- q(X).\nq(a).\n", "p(X)", "1", 3, ["incomplete search."]),
    ("p(X) :- q(X).\nq(a).\n", "p(X)", "2", 0, ["X = a"]),
    # universals, conjunctions and existentials add no depth
    ("all* A, B, C, D : w(A, B, C, D) :- v(A), v(B), v(C), v(D).\nv(a).\n",
     "w(a, a, a, a)", "2", 0, ["D = a", "C = a", "B = a", "A = a"]),
    # a recursion is enumerated down to the limit, and the cut is reported
    (NAT, "nat(X)", "3", 0, ["X = z", "X = s(z)", "X = s(s(z))", "incomplete search."]),
])
def test_depth_limit_counts_nested_calls(program, query, depth, code, lines, tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text(program, encoding="utf-8")
    argv = ["--module", str(mod), "--query", query, "--all", "--max-depth", depth]
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_run_json_reports_a_cut_after_the_answers_it_printed(tmp_path, capsys):
    # the text form ends with "incomplete search." (the nat case above)
    mod = tmp_path / "m.plt"
    mod.write_text(NAT, encoding="utf-8")
    argv = ["--module", str(mod), "--query", "nat(X)", "--all", "--max-depth", "3",
            "--format", "json"]
    assert main(argv) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for doc in docs:
        jsonschema.validate(doc, TRACE_SCHEMA)
    assert [d["answers"][0]["term"] for d in docs[:3]] == ["z", "s(z)", "s(s(z))"]
    assert [d["status"] for d in docs[:3]] == ["success"] * 3
    assert docs[3:] == [{"answers": [], "trace": [], "status": "incomplete"}]


@pytest.mark.parametrize("extra, lines", [
    # the default --max-solutions 1 stops at an answer, whatever lies past it
    ([], ["X = b"]),
    (["--format", "json"], None),
    # a stream that runs out before --max-solutions says it was cut
    (["--max-solutions", "2"], ["X = b", "incomplete search."]),
])
def test_run_reports_a_cut_only_when_the_answers_ran_out(extra, lines, tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text("p(X) :- q(X).\nq(a).\np(b).\n", encoding="utf-8")
    assert main(["--module", str(mod), "--query", "p(X)", "--max-depth", "1", *extra]) == 0
    out = capsys.readouterr().out.splitlines()
    if lines is None:
        assert [json.loads(line)["status"] for line in out] == ["success"]
    else:
        assert out == lines


def _line(tmp_path, edges):
    mod = tmp_path / f"line{edges}.plt"
    mod.write_text("".join(f"edge(n{i}, n{i + 1}).\n" for i in range(edges)) + (
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    ), encoding="utf-8")
    return str(mod)


def test_proof_depth_does_not_reach_pythons_recursion_limit(tmp_path, capsys):
    # 2,001 nested calls, twice Python's default limit of 1,000 frames
    assert main(["--module", _line(tmp_path, 2000), "--query", "path(n0, n2000)"]) == 0
    assert capsys.readouterr().out == "yes.\n"


def test_every_answer_of_a_deep_recursion_comes_in_order(tmp_path, capsys):
    argv = ["--module", _line(tmp_path, 300), "--query", "path(n0, Y)", "--all"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [f"Y = n{i}" for i in range(1, 301)]


def test_repl_more_reports_the_depth_limit_after_the_last_answer(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text(NAT, encoding="utf-8")
    script = "nat(X).\n:more\n:more\n:more\n:more\n:quit\n"
    code, out = _repl(script, modules=[str(mod)], options=["--all", "--max-depth", "3"])
    assert code == 0
    assert out.split("?- ")[1:6] == [
        "X = z\n", "X = s(z)\n", "X = s(s(z))\n", "incomplete search.\n",
        "no active query.\n",
    ]


GOLDEN_PATH = """
edge(a, b). edge(b, c). edge(c, d). edge(b, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def test_printing_traces_builds_no_resolved_steps(tmp_path, capsys, monkeypatch):
    # run prints each trace from its raw steps and bindings; only reading
    # ``trace.steps`` resolves them into ProofSteps
    mod = tmp_path / "path.plt"
    mod.write_text(GOLDEN_PATH, encoding="utf-8")
    built = []
    real = engine.ProofStep

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "ProofStep", counted)
    for shown in (["--format", "json"], ["--trace"]):
        assert main(["run", "--module", str(mod), "--query", "path(a, Y)", "--all", *shown]) == 0
        assert "edge(a, b)" in capsys.readouterr().out  # a trace, not only answers
    assert built == []
    goal = desugar_query_vars(parse_query("path(a, Y)"))
    sol = solve(load(GOLDEN_PATH), goal, SolveConfig()).next_solution()
    assert len(sol.trace.steps) == len(built) > 0


REPL_RULES = "q(a).\nq(b).\nq(c).\np(X) :- q(X).\n"


def _count_snapshots(monkeypatch):
    calls = []
    real = ProofSearch.snapshot

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(ProofSearch, "snapshot", counted)
    return calls


def test_repl_builds_no_trace_while_trace_is_off(tmp_path, monkeypatch):
    mod = tmp_path / "m.plt"
    mod.write_text(REPL_RULES, encoding="utf-8")
    calls = _count_snapshots(monkeypatch)
    script = ":trace off\np(X).\n:more\n:more\n:more\n:quit\n"
    code, out = _repl(script, modules=[str(mod)], options=["--all", "--trace"])
    assert code == 0
    assert ["X = a", "X = b", "X = c", "no more solutions."] == [
        line for line in out.replace("?- ", "").splitlines() if line
    ]
    assert calls == []


def test_repl_trace_on_before_more_prints_the_traced_session_bytes(tmp_path, monkeypatch):
    mod = tmp_path / "m.plt"
    mod.write_text(REPL_RULES, encoding="utf-8")
    calls = _count_snapshots(monkeypatch)
    code, late = _repl("p(X).\n:trace on\n:more\n:more\n:quit\n", modules=[str(mod)],
                       options=["--all"])
    assert code == 0 and len(calls) == 2
    code, traced = _repl("p(X).\n:more\n:more\n:quit\n", modules=[str(mod)],
                         options=["--all", "--trace"])
    assert code == 0 and len(calls) == 5
    # the same prompts after the query, minus the one that read ``:trace on``
    assert "bc(" in traced and late.split("?- ")[3:] == traced.split("?- ")[2:]


def test_repl_rejects_max_solutions_below_one_and_keeps_the_setting(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\np(b).\np(c).\n", encoding="utf-8")
    script = ":set max_solutions 2\n:set max_solutions 0\np(X).\n:more\n:more\n:quit\n"
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    assert "error: max_solutions must be at least 1, not 0" in out
    assert "X = a" in out and "X = b" in out and "X = c" not in out
    assert "no more solutions." in out


def _run_cli(args, cwd, env, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "prologtheta.cli", *args],
        input=stdin,
        capture_output=True,
        cwd=cwd,
        env=env,
    )


def test_batch_output_is_byte_deterministic(phone_path, tmp_path, cli_env):
    args = ["--module", phone_path, "--query",
            "some X : some* Y : phone(tom, X, Y)", "--trace", "--format", "text"]
    first = _run_cli(args, tmp_path, cli_env)
    second = _run_cli(args, tmp_path, cli_env)
    assert first.returncode == second.returncode == 0, (first.stderr + second.stderr).decode()
    assert first.stdout == second.stdout


def test_fuzz_output_is_byte_deterministic_for_a_seed(tmp_path, cli_env):
    args = ["check", "--fuzz", "25", "--seed", "11"]
    first = _run_cli(args, tmp_path, cli_env)
    second = _run_cli(args, tmp_path, cli_env)
    assert first.returncode == second.returncode == 0, (first.stderr + second.stderr).decode()
    assert first.stdout == second.stdout


def test_a_closed_stdout_exits_2_without_traceback(tmp_path, cli_env):
    # 20,000 answers are far past a pipe's 64 KiB buffer, so the CLI is
    # still writing when the reader closes its end
    module = tmp_path / "f.plt"
    module.write_text("".join(f"f(c{k}).\n" for k in range(20000)), encoding="utf-8")
    with subprocess.Popen(
        [sys.executable, "-m", "prologtheta.cli", "run", "--module", str(module), "--all",
         "--query", "f(X)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=cli_env,
    ) as proc:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        code, stderr = proc.wait(timeout=120), proc.stderr.read()
    assert lines == [b"X = c0\n", b"X = c1\n"]
    assert code == 2
    assert b"Traceback" not in stderr


def _nested(depth):
    term = "a"
    for _ in range(depth):
        term = f"f({term})"
    return term


CHAIN_600 = "".join(f"q{i} :- q{i + 1}.\n" for i in range(600)) + "q600.\n"


@pytest.mark.parametrize(
    "program, args, code, stdout",
    [
        # with no --max-depth a search that never ends is cut at the
        # engine's depth cap: a cut search, not a failure
        ("p(X) :- p(X).\n", ["--query", "p(a)"], 3, "incomplete search.\n"),
        ("p(X) :- p(X).\n", ["--query", "p(a)", "--format", "json"],
         3, '{"answers": [], "trace": [], "status": "incomplete"}\n'),
        ("p(X) :- p(X).\n", ["check", "--query", "p(a)"], 3, None),
        # loading a term nested too deeply is an error
        (f"p({_nested(600)}).\n", ["--query", "p(X)"], 2, ""),
        (f"p({_nested(600)}).\n", ["check", "--query", "p(X)"], 2, ""),
        # a proof 601 calls deep: the engine proves it, and the oracle, which
        # recurses once per nested call, reports that it cannot follow
        pytest.param(CHAIN_600, ["--query", "q0"], 0, "yes.\n", id="chain600-run"),
        pytest.param(CHAIN_600, ["check", "--query", "q0", "--max-depth", "1000"], 3,
                     "OVERFLOW: proof nested deeper than the oracle's recursion limit\n",
                     id="chain600-check"),
    ],
)
def test_recursion_overflow_maps_to_an_exit_code_without_traceback(
    program, args, code, stdout, tmp_path, cli_env
):
    module = tmp_path / "deep.plt"
    module.write_text(program, encoding="utf-8")
    if args[0] == "check":
        args = ["check", "--module", str(module), *args[1:]]
    else:
        args = ["--module", str(module), *args]
    proc = _run_cli(args, tmp_path, cli_env)
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    if stdout is not None:
        assert proc.stdout.decode() == stdout
    if code == 2:
        assert proc.stderr.decode().startswith("error: ")


def test_answers_nested_past_pythons_limit_print_in_order(tmp_path, cli_env):
    # the 500th answer is nested 499 deep, past what a recursive printer
    # reaches within Python's default limit of 1,000 frames
    module = tmp_path / "nat.plt"
    module.write_text(NAT, encoding="utf-8")
    args = ["--module", str(module), "--query", "nat(X)", "--max-solutions", "500"]
    proc = _run_cli(args, tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout.decode().splitlines() == [
        f"X = {'s(' * i}z{')' * i}" for i in range(500)
    ]


def test_repl_reports_recursion_overflow_and_keeps_reading(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(X) :- p(X).\nq(a).\nq(b).\n" + NAT, encoding="utf-8")
    deep = tmp_path / "deep.plt"
    deep.write_text(f"r({_nested(600)}).\n", encoding="utf-8")
    script = (
        ":set max_solutions all\n"
        f"p(a).\n:more\nq(X).\n:load {deep}\n:more\n"
        "nat(X).\n" + ":more\n" * 500 + ":quit\n"
    )
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    # the endless search is cut at the depth cap, not an error, and leaves
    # no query behind
    assert out.index("?- incomplete search.\n?- no active query.") < out.index("X = a")
    # a load that overflows is an error that keeps the running query
    assert "error: maximum recursion depth exceeded" in out
    assert out.index("X = a") < out.index("error: ") < out.index("X = b")
    # answers nested past Python's stack print like any other
    rest = out[out.index("X = z"):].split("?- ")
    assert rest == [f"X = {'s(' * i}z{')' * i}\n" for i in range(501)] + [""]  # then :quit


CYCLE = "eq(X, X).\nq(X, Y) :- eq(X, f(Y)), eq(Y, g(X)).\n"


def test_cyclic_terms_unify_with_the_occurs_check_off(tmp_path, capsys):
    module = tmp_path / "cycle.plt"
    module.write_text(CYCLE, encoding="utf-8")
    argv = ["--module", str(module), "--query", "q(A, B), eq(B, B)",
            "--occurs-check", "off", "--groundness", "lenient"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "B = g(f(B))  (non-ground)\nA = f(g(A))  (non-ground)\n"
    # with the occurs check on, q(A, B) itself fails
    assert main(argv[:4] + ["--groundness", "lenient"]) == 1
    assert capsys.readouterr().out == "no.\n"


@pytest.mark.parametrize("query, args, first", [
    ("p(_)", [], "yes."),
    ("p(X)", [], f"X = {_nested(400)}"),
    ("p(X)", ["--trace"], f"X = {_nested(400)}"),
    ("p(X)", ["--format", "json"], None),
], ids=["yes", "text", "trace", "json"])
def test_a_fact_nested_400_deep_answers(query, args, first, tmp_path, cli_env):
    # the occurs check and the printers walk the term in loops
    module = tmp_path / "deep.plt"
    module.write_text(f"p({_nested(400)}).\n", encoding="utf-8")
    proc = _run_cli(["--module", str(module), "--query", query, *args], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    lines = proc.stdout.decode().splitlines()
    if first is None:
        doc = json.loads(lines[0])
        assert doc["status"] == "success"
        assert doc["answers"] == [{"var": "X", "term": _nested(400)}]
        assert doc["trace"][0]["clause"] == f"p({_nested(400)})"
    else:
        assert lines[0] == first
    if "--trace" in args:
        assert lines[1] == f"1. bc(p({_nested(400)}), deep, p({_nested(400)}), nil)"
    else:
        assert len(lines) == 1


@pytest.mark.parametrize("program, query", [
    (f"p({_nested(400)}).\n", f"p({_nested(400)})"),
    ("p(X, X).\n", f"p({_nested(400)}, {_nested(400)})"),
], ids=["fact", "repeated-variable"])
def test_check_matches_on_a_term_nested_400_deep(program, query, tmp_path, cli_env):
    # the oracle collects, grounds and matches terms in loops, and never
    # compares two deep terms with ==
    module = tmp_path / "deep.plt"
    module.write_text(program, encoding="utf-8")
    args = ["check", "--module", str(module), "--query", query, "--universe-depth", "1"]
    proc = _run_cli(args, tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"MATCH\n"


@pytest.mark.parametrize("command, code", [("run", 2), ("check", 2), ("repl", 0)])
def test_a_module_that_is_not_utf8_is_an_error_without_traceback(
    command, code, tmp_path, cli_env
):
    module = tmp_path / "bad.plt"
    module.write_bytes(b"\xffp(a).\n")
    if command == "repl":
        proc = _run_cli(["repl"], tmp_path, cli_env, stdin=f":load {module}\n:quit\n".encode())
        printed = proc.stdout.decode().split("?- ")[1]
    else:
        args = [command, "--module", str(module), "--query", "p(X)"]
        proc = _run_cli(args, tmp_path, cli_env)
        printed = proc.stderr.decode()
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert printed.startswith(f"error: cannot read {module}: 'utf-8' codec can't decode")


def _facts(prefix, n):
    return "".join(f"f({prefix}{i}, v{i}).\n" for i in range(n))


@pytest.mark.parametrize("text, message", [
    (_facts("c", 20_000) + "g(a, ?).\n",
     "20001:6: reserved token '?' (don't-know constants cannot be written in source); "
     "20001:7: expected a term, found ')'"),
    ("unknown K.\n" + _facts("c", 15_000) + "all K : h(K).\n" + _facts("d", 4_999),
     "15002:1: ambiguous unknown scope: K"),
], ids=["lexical-and-syntax", "load"])
def test_an_issue_deep_in_a_large_module_is_placed_exactly(text, message, tmp_path, capsys):
    # lines and columns are found only once an issue is reported: a lexical
    # and a syntax issue on the last line, and a load issue on line 15,002
    module = tmp_path / "big.plt"
    module.write_text(text, encoding="utf-8")
    assert main(["run", "--module", str(module), "--query", "f(c1, X)"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_matches_on_a_flat_rule_of_a_thousand_atoms(tmp_path, capsys):
    # the oracle walks a rule body's Conj spine in a loop, as the engine does
    module = tmp_path / "flat.plt"
    module.write_text("p :- " + ", ".join(["q(a)"] * 1000) + ".\nq(a).\n", encoding="utf-8")
    assert main(["check", "--module", str(module), "--query", "p"]) == 0
    assert capsys.readouterr().out == "MATCH\n"


@pytest.mark.parametrize("program, query", [
    ("p(X) :- " + ", ".join(["q(X)"] * 10_000) + ".\nq(a).\n", "p(a)"),
    ("p(" + "f(" * 400 + "X" + ")" * 400 + ") :- q(X).\nq(a).\n", "p(_)"),
    ("p(" + "f(" * 400 + "X" + ")" * 400 + ") :- q(X).\nq(a).\n", "p(" + _nested(400) + ")"),
])
def test_generated_code_of_a_long_body_and_a_deep_head_answers(program, query, tmp_path, capsys):
    # a clause's try runs code generated from it: flat statements, one per
    # atom and per subterm, stay within the compiler's limits
    module = tmp_path / "big.plt"
    module.write_text(program, encoding="utf-8")
    assert main(["run", "--module", str(module), "--query", query]) == 0
    assert capsys.readouterr().out == "yes.\n"


def test_a_flat_rule_of_ten_thousand_atoms_loads_and_answers(tmp_path, cli_env):
    module = tmp_path / "flat.plt"
    module.write_text("p :- " + ", ".join(["q(a)"] * 10_000) + ".\nq(a).\n", encoding="utf-8")
    proc = _run_cli(["--module", str(module), "--query", "p"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"yes.\n"
