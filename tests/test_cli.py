"""Batch output, exit codes, JSON schema, and the REPL loop."""

import io
import json
import subprocess
import sys

import jsonschema
import pytest

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


def test_check_single_query(emp_path, capsys):
    code = main(["check", "--module", emp_path, "--query",
                 "some* N : phone(sue, N), phone(john, N)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "MATCH"


def test_check_fuzz(capsys):
    code = main(["check", "--fuzz", "40", "--seed", "7"])
    assert code == 0
    assert "MATCH (40/40" in capsys.readouterr().out


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
        "error: 0:0: in module b: predicate p used with arity 2 after arity 1\n",
        "X = b\n",
        "X = a\n",
        "Y = c\n",
    ]
    # once at start-up and once for the :load; never per query
    assert len(calls) == 2
    # conflicting modules at start-up are an error, as in run
    code, out = _repl(":quit\n", modules=[str(tmp_path / "a.plt"), str(tmp_path / "b.plt")])
    assert code == 2
    assert out.startswith("error: 0:0: in module b: predicate p used with arity 2")


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


def test_repl_rejects_max_depth_below_one_and_keeps_the_setting(phone_path):
    # the phone atom sits at depth 3, so the fact is out of reach at 3
    script = ":set max_depth 3\n:set max_depth -4\nphone(tom, _, Y).\n:quit\n"
    code, out = _repl(script, modules=[phone_path])
    assert code == 0
    assert out.split("?- ")[2:4] == [
        "error: max_depth must be at least 1, not -4\n", "incomplete search.\n",
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


# p(b) matches no clause, but trying the q clause would pass depth 4
DEEP_Q = "p(a).\nall X : all Y : all Z : q(X, Y, Z).\n"


@pytest.mark.parametrize("depth, code, line", [
    ("2", 3, "incomplete search."),
    ("5", 1, "no."),
])
def test_depth_limit_counts_the_clauses_an_atom_skips(depth, code, line, tmp_path, capsys):
    mod = tmp_path / "m.plt"
    mod.write_text(DEEP_Q, encoding="utf-8")
    assert main(["--module", str(mod), "--query", "p(b)", "--max-depth", depth]) == code
    assert capsys.readouterr().out.splitlines() == [line]


def test_repl_more_reports_the_depth_limit_of_the_clauses_before_it(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text(DEEP_Q + "p(b).\n", encoding="utf-8")
    script = "p(X).\n:more\np(b).\n:more\n:quit\n"
    code, out = _repl(script, modules=[str(mod)], options=["--max-depth", "4"])
    assert code == 0
    assert out.split("?- ")[1:5] == [
        "X = a\n", "no more solutions.\n", "yes.\n", "incomplete search.\n",
    ]


def test_repl_rejects_max_solutions_below_one_and_keeps_the_setting(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(a).\np(b).\np(c).\n", encoding="utf-8")
    script = ":set max_solutions 2\n:set max_solutions 0\np(X).\n:more\n:more\n:quit\n"
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    assert "error: max_solutions must be at least 1, not 0" in out
    assert "X = a" in out and "X = b" in out and "X = c" not in out
    assert "no more solutions." in out


def _run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "prologtheta.cli", *args],
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


def _nested(depth):
    term = "a"
    for _ in range(depth):
        term = f"f({term})"
    return term


@pytest.mark.parametrize(
    "program, args, code, stdout",
    [
        # the search overflows Python's stack: a cut search, not a failure
        ("p(X) :- p(X).\n", ["--query", "p(a)", "--max-depth", "100000"],
         3, "incomplete search.\n"),
        ("p(X) :- p(X).\n", ["--query", "p(a)", "--max-depth", "100000",
                             "--format", "json"],
         3, '{"answers": [], "trace": [], "status": "incomplete"}\n'),
        ("p(X) :- p(X).\n", ["check", "--query", "p(a)", "--max-depth", "100000"],
         3, None),
        # loading a term nested too deeply is an error
        (f"p({_nested(600)}).\n", ["--query", "p(X)"], 2, ""),
        (f"p({_nested(600)}).\n", ["check", "--query", "p(X)"], 2, ""),
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


def test_repl_reports_recursion_overflow_and_keeps_reading(tmp_path):
    mod = tmp_path / "m.plt"
    mod.write_text("p(X) :- p(X).\nq(a).\nq(b).\n", encoding="utf-8")
    deep = tmp_path / "deep.plt"
    deep.write_text(f"r({_nested(600)}).\n", encoding="utf-8")
    script = (
        ":set max_depth 100000\n:set max_solutions all\n"
        f"p(a).\n:more\nq(X).\n:load {deep}\n:more\n:quit\n"
    )
    code, out = _repl(script, modules=[str(mod)])
    assert code == 0
    # the overflowing search is cut, not an error, and leaves no query behind
    assert "incomplete search.\n?- no active query." in out
    # a load that overflows is an error that keeps the running query
    assert "error: maximum recursion depth exceeded" in out
    assert out.index("X = a") < out.index("error: ") < out.index("X = b")
