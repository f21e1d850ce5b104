"""Command-line front end: batch queries, a REPL, and differential checks.

Exit codes for ``run``: 0 when at least one solution was found, 1 on
finite failure, 2 on any error, 3 when the search was cut by the depth
limit before finding a solution.  ``check`` exits 0 on MATCH, 1 on
MISMATCH, 2 on errors, 3 on oracle overflow or an engine search it could
not certify.  Input text nested too deeply to parse or load is an error
(2), as is a stdout closed early (``| head``); terms the search builds
are walked in loops, so they have no limit.

Set PROLOGTHETA_NO_COLOR to disable ANSI styling (it is also disabled when
stdout is not a terminal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional, TextIO

from .terms import is_ground
from .syntax import desugar_query_vars
from .parser import ParseError, format_term, parse_query
from .loader import Program, combine, load_path
from .engine import (
    EngineError,
    ProofTrace,
    SolveConfig,
    SolveSession,
    Solution,
    display_names,
    format_proof,
    solve,
    step_texts,
)
from .fuzz import differential_check, fuzz_run, has_compound_terms

_BINDING_SCHEMA = {
    "type": "object",
    "required": ["var", "term"],
    "additionalProperties": False,
    "properties": {"var": {"type": "string"}, "term": {"type": "string"}},
}
TRACE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["answers", "trace", "status"],
    "additionalProperties": False,
    "properties": {
        "answers": {"type": "array", "items": _BINDING_SCHEMA},
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "kind", "clause", "goal", "theta"],
                "additionalProperties": False,
                "properties": {
                    "index": {"type": "integer", "minimum": 1},
                    "kind": {"enum": ["bc", "pv"]},
                    "clause": {"type": "string"},
                    "goal": {"type": "string"},
                    "theta": {"oneOf": [{"type": "null"}, _BINDING_SCHEMA]},
                },
            },
        },
        "status": {"enum": ["success", "fail", "incomplete"]},
    },
}


def _want_color(stream: TextIO) -> bool:
    if os.environ.get("PROLOGTHETA_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


class _Printer:
    def __init__(self, out: TextIO):
        self.out = out
        self.color = _want_color(out)

    def plain(self, text: str = "") -> None:
        print(text, file=self.out)

    def bold(self, text: str) -> None:
        print(f"\x1b[1m{text}\x1b[0m" if self.color else text, file=self.out)


def _print_solution(printer: _Printer, solution: Solution, trace: Optional[ProofTrace]) -> None:
    """The answer's bindings, or ``yes.``, then the proof when ``trace`` is given."""
    if not solution.answer:
        printer.bold("yes.")
    for shown, (_, term) in zip(display_names(solution.answer), solution.answer):
        marker = "" if is_ground(term) else "  (non-ground)"
        printer.bold(f"{shown} = {format_term(term)}{marker}")
    if trace is not None:
        printer.plain(format_proof(trace, solution.answer))


def solution_json(solution: Optional[Solution], status: str) -> dict:
    doc = {"answers": [], "trace": [], "status": status}
    if solution is None:
        return doc
    doc["answers"] = [
        {"var": name, "term": format_term(term)} for name, term in solution.answer
    ]
    if solution.trace is not None:
        doc["trace"] = [
            {"index": index, "kind": kind, "clause": clause, "goal": goal,
             "theta": None if theta is None else {"var": theta[0], "term": theta[1]}}
            for index, kind, _, clause, goal, theta in step_texts(solution.trace)
        ]
    return doc


# ---------------------------------------------------------------------------
# Session state shared by batch and REPL evaluation.


class SessionState:
    """The loaded modules, combined once per load, and the query settings."""

    def __init__(self, modules: list[Program], config: SolveConfig):
        self.modules = modules
        self.program = combine(modules)
        self.config = config

    def load(self, path: str) -> None:
        """Add a module; on a ParseError the session is left as it was."""
        modules = [*self.modules, load_path(path)]
        self.program = combine(modules)
        self.modules = modules

    def start_query(self, text: str) -> SolveSession:
        goal = desugar_query_vars(parse_query(text))
        return solve(self.program, goal, self.config)


def _config_from_args(args: argparse.Namespace, trace_enabled: bool) -> SolveConfig:
    return SolveConfig(
        groundness_mode=args.groundness,
        max_depth=args.max_depth,
        max_solutions=None if args.all else args.max_solutions,
        occurs_check=args.occurs_check == "on",
        trace_enabled=trace_enabled,
    )


# ---------------------------------------------------------------------------
# run


def run_batch(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    printer = _Printer(out)
    as_json = args.format == "json"
    try:
        # only --trace and JSON print a trace, so only they build one
        config = _config_from_args(args, trace_enabled=args.trace or as_json)
        state = SessionState([load_path(p) for p in args.module], config)
        if not args.query:
            print("error: run needs --query", file=err)
            return 2
        session = state.start_query(args.query)
    except (ParseError, EngineError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    for sol in session:  # print each solution as the search finds it
        if as_json:
            printer.plain(json.dumps(solution_json(sol, "success")))
            continue
        _print_solution(printer, sol, sol.trace if args.trace else None)
    # a cut search says so, also after the answers it found, unless it
    # stopped at --max-solutions before running out of answers
    found, incomplete = session.solutions_found > 0, session.incomplete
    full = config.max_solutions is not None and session.solutions_found >= config.max_solutions
    if found and (full or not incomplete):
        return 0
    if as_json:
        status = "incomplete" if incomplete else "fail"
        print(json.dumps(solution_json(None, status)), file=out)
    else:
        printer.plain("incomplete search." if incomplete else "no.")
    return 0 if found else 3 if incomplete else 1


# ---------------------------------------------------------------------------
# repl


_REPL_HELP = """commands:
  :load <path>           load a module (repeatable; clauses accumulate)
  :set groundness strict|lenient
  :set max_depth <n>|unlimited
  :set max_solutions <n>|all
  :set occurs_check on|off
  :trace on|off          print proofs after each solution
  :more                  next solution of the last query
  :help                  this text
  :quit                  leave
anything else is a query (trailing '.' optional)."""


def run_repl(args: argparse.Namespace, stdin: TextIO, out: TextIO, err: TextIO) -> int:
    printer = _Printer(out)
    try:
        state = SessionState([load_path(p) for p in args.module], _config_from_args(args, False))
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    show_trace = bool(args.trace)
    active: Optional[SolveSession] = None

    def emit_solution(sol: Solution) -> None:
        # the search is paused at ``sol``, so its steps are sol's
        _print_solution(printer, sol, active.search.snapshot() if show_trace else None)

    while True:
        out.write("?- ")
        out.flush()
        line = stdin.readline()
        if not line:
            printer.plain("")
            return 0
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split()
            cmd = parts[0]
            try:
                if cmd == ":quit":
                    return 0
                elif cmd == ":help":
                    printer.plain(_REPL_HELP)
                elif cmd == ":load" and len(parts) == 2:
                    state.load(parts[1])
                    printer.plain(f"loaded {parts[1]}.")
                elif cmd == ":trace" and len(parts) == 2 and parts[1] in ("on", "off"):
                    show_trace = parts[1] == "on"
                elif cmd == ":more":
                    if active is None:
                        printer.plain("no active query.")
                    else:
                        sol = active.next_solution()
                        if sol is None:
                            if active.incomplete:
                                printer.plain("incomplete search.")
                            else:
                                printer.plain("no more solutions.")
                            active = None
                        else:
                            emit_solution(sol)
                elif cmd == ":set" and len(parts) == 3:
                    key, value = parts[1], parts[2]
                    cfg = state.config
                    if key == "groundness" and value in ("strict", "lenient"):
                        state.config = replace(cfg, groundness_mode=value)
                    elif key == "max_depth":
                        depth = None if value == "unlimited" else int(value)
                        state.config = replace(cfg, max_depth=depth)
                    elif key == "max_solutions":
                        count = None if value == "all" else int(value)
                        state.config = replace(cfg, max_solutions=count)
                    elif key == "occurs_check" and value in ("on", "off"):
                        state.config = replace(cfg, occurs_check=value == "on")
                    else:
                        printer.plain(f"unknown setting: {key} {value}")
                else:
                    printer.plain(f"unknown command: {line}  (:help for help)")
            except (ParseError, ValueError, RecursionError) as exc:
                # RecursionError here comes from loading a module nested too deeply
                printer.plain(f"error: {exc}")
            continue
        try:
            active = state.start_query(line)
            active.search.may_snapshot = True  # for a `:trace on` before `:more`
            sol = active.next_solution()
            if sol is None:
                printer.plain("incomplete search." if active.incomplete else "no.")
                active = None
            else:
                emit_solution(sol)
        except (ParseError, EngineError, RecursionError) as exc:
            # RecursionError here comes from reading a query nested too deeply
            printer.plain(f"error: {exc}")
            active = None


# ---------------------------------------------------------------------------
# check


def run_check(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    # the differential comparison is defined over strict-mode answers, so
    # check takes no --groundness; --occurs-check is honoured
    kwargs = dict(
        max_depth=args.max_depth if args.max_depth is not None else 64,
        universe_depth=args.universe_depth,
        occurs_check=args.occurs_check == "on",
    )
    try:
        SolveConfig(max_depth=kwargs["max_depth"])  # the engine's own check, up front
        for flag, value in (("--fuzz", args.fuzz), ("--universe-depth", args.universe_depth)):
            if value < 0:
                raise ValueError(f"{flag} must be at least 0, not {value}")
        for flag, value in (("--query", args.query), ("--module", args.module)):
            if args.fuzz and value:
                raise ValueError(f"--fuzz generates its own cases, so it takes no {flag}")
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if args.fuzz:
        total = args.fuzz
        for i, case, report in fuzz_run(total, args.seed, **kwargs):
            if report.status == "match":
                continue
            print(f"{report.status.upper()} (case {i}/{total}, seed {args.seed})", file=out)
            print(str(case), file=out)
            print(report.detail, file=out)
            return 1 if report.status == "mismatch" else 3
        print(f"MATCH ({total}/{total} cases, seed {args.seed})", file=out)
        return 0
    if not args.query:
        print("error: check needs --query or --fuzz", file=err)
        return 2
    try:
        program = combine([load_path(p) for p in args.module])
        goal = desugar_query_vars(parse_query(args.query))
        if args.universe_depth == 0 and has_compound_terms(program, goal):
            print(
                "error: compound terms present; pass --universe-depth to bound "
                "the oracle universe",
                file=err,
            )
            return 2
        report = differential_check(program, goal, **kwargs)
    except (ParseError, EngineError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    if report.status == "match":
        print("MATCH", file=out)
        return 0
    print(f"{report.status.upper()}: {report.detail}", file=out)
    return 1 if report.status == "mismatch" else 3


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--module", action="append", default=[], metavar="PATH",
                     help="module file to load (repeatable)")
    sub.add_argument("--max-depth", type=int, default=None, dest="max_depth",
                     help="resolution depth limit: nested calls, the query's atoms at 1")
    sub.add_argument("--occurs-check", choices=("on", "off"), default="on",
                     dest="occurs_check")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prologtheta",
        description="Horn-clause interpreter with noisy quantifiers "
                    "(some*/all*) and don't-know constants.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="evaluate one query in batch mode")
    repl_p = subs.add_parser("repl", help="interactive session")
    for sub in (run_p, repl_p):
        _add_common_flags(sub)
        sub.add_argument("--groundness", choices=("strict", "lenient"), default="strict")
        sub.add_argument("--all", action="store_true", help="enumerate every solution")
        sub.add_argument("--max-solutions", type=int, default=1, dest="max_solutions")
        sub.add_argument("--trace", action="store_true", help="print the proof trace")
    run_p.add_argument("--query", metavar="TEXT", help="query to solve")
    run_p.add_argument("--format", choices=("text", "json"), default="text")

    check_p = subs.add_parser("check", help="differential run against the brute-force oracle")
    _add_common_flags(check_p)
    check_p.add_argument("--query", metavar="TEXT")
    check_p.add_argument("--fuzz", type=int, default=0, metavar="N",
                         help="generate N random cases; check each against the oracle "
                              "and its all-silent twin")
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--universe-depth", type=int, default=0, dest="universe_depth",
                         help="term nesting bound for the oracle universe")
    return top


SUBCOMMANDS = ("run", "repl", "check")


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["run", *argv]  # run is the default subcommand
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = (run_batch(args, sys.stdout, sys.stderr) if args.command == "run" else
                run_repl(args, sys.stdin, sys.stdout, sys.stderr) if args.command == "repl" else
                run_check(args, sys.stdout, sys.stderr))
        sys.stdout.flush()  # here, so that a closed stdout is caught below, not at exit
        return code
    except RecursionError as exc:
        # the parser and the loader recurse on the nesting of the input text
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (``| head``): as the Python docs on SIGPIPE
        # advise, point it at devnull, so that the final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
