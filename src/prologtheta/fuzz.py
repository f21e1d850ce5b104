"""Random program/query generation and engine-vs-oracle differential runs.

``fuzz_run`` is the one campaign, behind ``prologtheta check --fuzz``: it
compares each case's engine answers with the oracle's, then compares a
case that matches with its all-silent twin (the erasure relation: the
noisy flag decides only what an answer records, so both have the same
number of derivations).

Generated programs are function free, stratified (rule bodies only call
strictly lower predicates, so derivations terminate), and range restricted
(head variables occur in the body, facts are ground apart from declared
unknowns).  Every query variable occurs in some query atom.  Under these
conditions every successful derivation grounds every binding, which makes
the engine's strict-mode answer set directly comparable with the oracle's
exhaustive one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .terms import Compound, is_ground
from .loader import Program, load
from .parser import format_term, parse_query
from .syntax import desugar_query_vars, iter_atoms, silent_twin
from .engine import SolveConfig, solve
from .oracle import OracleOverflow, herbrand_universe, oracle_solve

_CONSTS = ["a", "b", "c", "d"]
_PREDS = ["p", "q", "r", "s", "t"]
_CLAUSE_VARS = ["V", "W", "U"]
_QUERY_VARS = ["X", "Y", "Z"]


@dataclass(frozen=True)
class FuzzCase:
    program_text: str
    query_text: str

    def __str__(self) -> str:
        return f"--- program ---\n{self.program_text}\n--- query ---\n{self.query_text}"


def random_case(rng: random.Random) -> FuzzCase:
    # small universes make queries much likelier to hit existing facts
    n_consts = rng.choice((1, 1, 2, 2, 3, 4))
    consts = _CONSTS[:n_consts]
    n_preds = rng.choice((1, 1, 2, 2, 3, 4, 5))
    preds = _PREDS[:n_preds]
    arities = {p: rng.choice((1, 1, 2)) for p in preds}

    unknown_names: list[str] = []
    if rng.random() < 0.25:
        unknown_names = ["K"] if rng.random() < 0.7 else ["K", "L"]

    def fact_arg() -> str:
        if unknown_names and rng.random() < 0.3:
            return rng.choice(unknown_names)
        return rng.choice(consts)

    lines: list[str] = []
    defined: list[str] = []
    if unknown_names:
        lines.append(f"unknown {', '.join(unknown_names)}.")

    n_clauses = rng.randint(1, 3)
    for i in range(n_clauses):
        head_pred = rng.choice(preds)
        if head_pred not in defined:
            defined.append(head_pred)
        head_idx = preds.index(head_pred)
        make_rule = i > 0 and head_idx > 0 and rng.random() < 0.5
        if not make_rule:
            args = ", ".join(fact_arg() for _ in range(arities[head_pred]))
            lines.append(f"{head_pred}({args}).")
            continue
        body_atoms = []
        body_vars: list[str] = []
        for _ in range(rng.randint(1, 3)):
            body_pred = rng.choice(preds[:head_idx])
            slots = []
            for _ in range(arities[body_pred]):
                if rng.random() < 0.6:
                    v = rng.choice(_CLAUSE_VARS)
                    slots.append(v)
                    if v not in body_vars:
                        body_vars.append(v)
                else:
                    slots.append(rng.choice(consts))
            body_atoms.append(f"{body_pred}({', '.join(slots)})")
        head_slots = [
            rng.choice(body_vars) if body_vars and rng.random() < 0.8 else rng.choice(consts)
            for _ in range(arities[head_pred])
        ]
        body = ", ".join(body_atoms)
        # occasionally bind a body-only variable with an explicit
        # existential; its witness is still grounded by the body atoms
        spare = [v for v in body_vars if v not in head_slots]
        bound_in_body = None
        if spare and rng.random() < 0.3:
            bound_in_body = rng.choice(spare)
            star = "*" if rng.random() < 0.5 else ""
            body = f"some{star} {bound_in_body} : {body}"
        clause = f"{head_pred}({', '.join(head_slots)}) :- {body}."
        # noisy universals only on rule variables that occur free: range
        # restriction keeps their witnesses ground, so strict mode and the
        # oracle agree
        free_vars = [v for v in body_vars if v != bound_in_body]
        if free_vars and rng.random() < 0.35:
            star = "*" if rng.random() < 0.7 else ""
            clause = f"all{star} {rng.choice(free_vars)} : {clause}"
        lines.append(clause)

    query_atoms = []
    used_vars: list[str] = []
    for _ in range(rng.randint(1, 3)):
        # bias towards predicates that actually have clauses
        pool = defined if defined and rng.random() < 0.85 else preds
        pred = rng.choice(pool)
        slots = []
        for _ in range(arities[pred]):
            if rng.random() < 0.55:
                v = rng.choice(_QUERY_VARS)
                slots.append(v)
                if v not in used_vars:
                    used_vars.append(v)
            else:
                slots.append(rng.choice(consts))
        query_atoms.append(f"{pred}({', '.join(slots)})")
    query = ", ".join(query_atoms)
    for v in reversed(used_vars):
        style = rng.random()
        if style < 0.5:
            query = f"some* {v} : {query}"
        elif style < 0.8:
            query = f"some {v} : {query}"
        # else leave free: the default policy closes it as a noisy binder
    return FuzzCase(program_text="\n".join(lines) + "\n", query_text=query)


@dataclass(frozen=True)
class CheckReport:
    status: str  # "match" | "mismatch" | "overflow" | "incomplete"
    engine_answers: Optional[frozenset] = None
    oracle_answers: Optional[frozenset] = None
    detail: str = ""


def _lenient(max_depth: int, occurs_check: bool) -> SolveConfig:
    """The one config of every search here: all derivations, none traced."""
    return SolveConfig(groundness_mode="lenient", max_depth=max_depth, max_solutions=None,
                       occurs_check=occurs_check, trace_enabled=False)


def differential_check(
    program: Program,
    goal,
    *,
    max_depth: int = 64,
    universe_depth: int = 0,
    occurs_check: bool = True,
) -> CheckReport:
    """Compare the engine's strict-mode answer set against the oracle's,
    both bounded by ``max_depth`` nested calls, as ``(name, text)`` pairs:
    a printed term is hashed in a loop, however deep it is.  Strict mode
    only rejects a derivation whose noisy witness is not ground, so its
    answers are the ground ones of one lenient search."""
    session = solve(program, goal, _lenient(max_depth, occurs_check))
    answers = [sol.answer for sol in session]
    ground = [a for a in answers if all(is_ground(term) for _, term in a)]
    engine_answers = frozenset(map(_texts, ground))
    if session.incomplete:
        return CheckReport(
            status="incomplete",
            engine_answers=engine_answers,
            detail="engine search hit the depth limit; cannot certify",
        )
    try:
        universe = herbrand_universe(program, universe_depth, goal)
        oracle_answers = frozenset(
            map(_texts, oracle_solve(program, goal, universe, depth_bound=max_depth)))
    except OracleOverflow as err:
        return CheckReport(status="overflow", engine_answers=engine_answers, detail=str(err))
    if engine_answers == oracle_answers:
        return CheckReport("match", engine_answers, oracle_answers)
    # strict mode drops an answer whose noisy witness nothing grounds, which
    # the oracle grounds with each universe term: such sets do not compare
    if len(ground) < len(answers):
        return CheckReport(
            status="incomplete",
            engine_answers=engine_answers,
            oracle_answers=oracle_answers,
            detail="strict mode dropped a non-ground answer; cannot certify",
        )
    return CheckReport(
        status="mismatch",
        engine_answers=engine_answers,
        oracle_answers=oracle_answers,
        detail=_describe_mismatch(engine_answers, oracle_answers),
    )


def _texts(answer) -> tuple:
    return tuple((name, format_term(term)) for name, term in answer)


def _describe_mismatch(engine_answers: frozenset, oracle_answers: frozenset) -> str:
    def show(answers) -> str:
        rows = sorted("[" + ", ".join(f"<{n}, {t}>" for n, t in ans) + "]" for ans in answers)
        return "{" + ", ".join(rows) + "}"

    missing = oracle_answers - engine_answers
    extra = engine_answers - oracle_answers
    parts = []
    if missing:
        parts.append(f"missing from engine: {show(missing)}")
    if extra:
        parts.append(f"extra in engine: {show(extra)}")
    return "; ".join(parts)


def has_compound_terms(program: Program, goal) -> bool:
    """True when any clause or goal atom carries a nested (functor) term."""
    return any(
        isinstance(t, Compound)
        for node in (*program.clauses, goal)
        for a in iter_atoms(node)
        for t in a.args
    )


def load_case(case: FuzzCase) -> tuple:
    """The loaded program and the desugared goal of a case."""
    return load(case.program_text, name="fuzz"), desugar_query_vars(parse_query(case.query_text))


def check_case(case: FuzzCase, **kwargs) -> CheckReport:
    return differential_check(*load_case(case), **kwargs)


def fuzz_run(n: int, seed: int, *, max_depth: int = 64, universe_depth: int = 0,
             occurs_check: bool = True):
    """Yield (index, case, report) for n seeded random cases.  A case that
    matches the oracle is also checked against its all-silent twin, and
    reported as a mismatch when their derivation counts differ."""
    rng = random.Random(seed)
    for i in range(1, n + 1):
        case = random_case(rng)
        program, goal = load_case(case)
        report = differential_check(program, goal, max_depth=max_depth,
                                    universe_depth=universe_depth, occurs_check=occurs_check)
        if report.status == "match":
            noisy_n, silent_n = erasure_outcomes(program, goal, max_depth=max_depth,
                                                 occurs_check=occurs_check)
            if noisy_n != silent_n:
                report = replace(report, status="mismatch", detail=(
                    f"erasure: {noisy_n} derivations, {silent_n} for the all-silent twin"))
        yield i, case, report


def erasure_outcomes(program: Program, goal, *, max_depth: int = 64,
                     occurs_check: bool = True) -> tuple:
    """Lenient-mode derivation counts of a program and goal and of their
    all-silent twin.

    Rewriting every noisy quantifier to its silent version must not change
    whether or how often a proof exists: the flag only controls recording,
    so both runs walk the same search tree.
    """
    twin_program = replace(program, clauses=tuple(silent_twin(c) for c in program.clauses))
    config = _lenient(max_depth, occurs_check)
    return (sum(1 for _ in solve(program, goal, config)),
            sum(1 for _ in solve(twin_program, silent_twin(goal), config)))
