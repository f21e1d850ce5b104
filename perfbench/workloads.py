"""Seeded inputs, engine-independent references and the code that runs queries.

Generating text and references needs nothing from ``prologtheta``; only
``Runner`` calls into it, always through module attributes (``parser.
parse_query``, ``engine.solve``, ...) so that the traced run can replace
those names with recorders.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent

# Sizes per workload.  "full" is what the benchmark measures; "tiny" keeps
# the smoke test fast.  A run repeats one seeded round of queries, or shares
# of it, until its time is up; a traced run does ``trace_rounds`` rounds, so its counts repeat
# exactly for a seed.  A fuzz case costs from 0.1 ms to 300 ms (a few cases
# enumerate exponentially many derivations), so a fuzz round must be large
# for its cost not to depend on the seed: the total cost of 16,000 cases has
# a standard deviation of about 3% from seed to seed, of 2,000 cases 11%.
SIZES = {
    "full": {
        "nrev": {"length": 30, "trace_rounds": 4},
        "closure": {"nodes": 40, "trace_rounds": 1},
        "facts": {"emps": 18_000, "depts": 2_000, "trace_rounds": 1},
        "fuzz": {"cases": 16_000, "trace_rounds": 1},
    },
    "tiny": {
        "nrev": {"length": 8, "trace_rounds": 2},
        "closure": {"nodes": 8, "trace_rounds": 1},
        "facts": {"emps": 300, "depts": 40, "trace_rounds": 1},
        "fuzz": {"cases": 50, "trace_rounds": 1},
    },
}
WORKLOADS = ("nrev", "closure", "facts", "fuzz")
# Workloads whose round is shared out among the measuring processes of a
# run, each taking every n-th query, instead of being run whole by each.
SHARED_ROUNDS = ("facts", "fuzz")


# Warren's count of logical inferences for naive reverse of an n-list:
# n + 1 nrev calls plus n (n + 1) / 2 append calls; 496 for n = 30.
def nrev_inferences(n: int) -> int:
    return (n + 1) + n * (n + 1) // 2


UNKNOWN = object()  # reference value: the answer must be some ?kN
_UNKNOWN_TEXT = re.compile(r"\?k[0-9]+")


@dataclass(frozen=True)
class Query:
    text: str
    answers: tuple  # expected answers, each a dict var -> text or UNKNOWN
    digest: Optional[str] = None  # sha256 of the rendered JSON lines


# ---------------------------------------------------------------------------
# Program text.


NREV_PROGRAM = """module nrev.
app(nil, L, L).
app(cons(H, T), L, cons(H, R)) :- app(T, L, R).
nrev(nil, nil).
nrev(cons(H, T), R) :- nrev(T, RT), app(RT, cons(H, nil), R).
"""


def closure_program(nodes: int) -> str:
    edges = "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(nodes - 1))
    return (
        "module closure.\n" + edges
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    )


@dataclass(frozen=True)
class FactsTable:
    emps: dict  # id -> (dept, phone); phone is text or UNKNOWN
    depts: dict  # dept -> building; text or UNKNOWN
    text: str


def facts_table(seed: int, emps: int, depts: int) -> FactsTable:
    """A personnel module: one ``emp/3`` row per employee, one ``dept/2`` row
    per department, two rules.  Some values are don't-know constants, both
    per-row ``*`` and the declared, shared ``Spare`` and ``Hq``."""
    rng = random.Random(f"facts-table-{seed}")

    def value(star: float, shared: str, known: str) -> tuple[str, object]:
        roll = rng.random()
        if roll < star:
            return "*", UNKNOWN
        if roll < star + 0.02:
            return shared, UNKNOWN
        return known, known

    dept_rows = {}
    lines = ["module facts.", "unknown Spare, Hq."]
    for d in range(depts):
        src, ref = value(0.05, "Hq", f"b{rng.randrange(100)}")
        dept_rows[f"d{d}"] = ref
        lines.append(f"dept(d{d}, {src}).")
    emp_rows = {}
    ids = list(range(emps))
    rng.shuffle(ids)
    for i in ids:
        dept = f"d{rng.randrange(depts)}"
        src, ref = value(0.06, "Spare", str(rng.randrange(1000, 10000)))
        emp_rows[f"e{i}"] = (dept, ref)
        lines.append(f"emp(e{i}, {dept}, {src}).")
    lines.append("office(E, B) :- emp(E, D, _), dept(D, B).")
    lines.append("all* D : works(E, D) :- emp(E, D, P).")
    return FactsTable(emp_rows, dept_rows, "\n".join(lines) + "\n")


def program_text(workload: str, seed: int, size: str) -> Optional[str]:
    cfg = SIZES[size][workload]
    if workload == "nrev":
        return NREV_PROGRAM
    if workload == "closure":
        return closure_program(cfg["nodes"])
    if workload == "facts":
        return facts_table(seed, cfg["emps"], cfg["depts"]).text
    return None  # fuzz loads one generated program per case


# ---------------------------------------------------------------------------
# Query streams with their references.


def _cons_list(items) -> str:
    text = "nil"
    for item in reversed(items):
        text = f"cons({item}, {text})"
    return text


def nrev_round(seed: int, length: int) -> list[Query]:
    """One naive-reverse query; its cost does not depend on the items."""
    rng = random.Random(f"nrev-{seed}")
    items = [
        f"c{rng.randrange(1000)}" if rng.random() < 0.5 else str(rng.randrange(10_000))
        for _ in range(length)
    ]
    return [Query(f"nrev({_cons_list(items)}, R)", ({"R": _cons_list(items[::-1])},))]


def closure_digests() -> dict:
    return json.loads((HERE / "closure_digests.json").read_text())


def closure_round(seed: int, nodes: int) -> list[Query]:
    """Every start node once, in a seeded order."""
    pinned = closure_digests()[str(nodes)]
    order = list(range(nodes))
    random.Random(f"closure-{seed}").shuffle(order)
    return [
        Query(f"path(n{k}, Y)", tuple({"Y": f"n{m}"} for m in range(k + 1, nodes)), pinned[k])
        for k in order
    ]


# A round of facts queries: first-argument lookups, misses (full scans),
# ``office`` joins and ``works`` lookups through a noisy ``all*``.  Lookup
# cost grows with the row's place in the file, so the rows are drawn one
# from each equal slice of the file: every seed's round then costs about
# the same.
FACTS_ROUND = ("emp",) * 27 + ("miss",) * 9 + ("office",) * 18 + ("works",) * 6


def facts_round(seed: int, table: FactsTable) -> list[Query]:
    rng = random.Random(f"facts-queries-{seed}")
    in_file_order = list(table.emps)
    n = len(in_file_order)
    kinds = list(FACTS_ROUND)
    rng.shuffle(kinds)
    slices = sum(kind != "miss" for kind in kinds)
    rows = [in_file_order[int((j + rng.random()) * n / slices)] for j in range(slices)]
    rng.shuffle(rows)
    out = []
    for kind in kinds:
        if kind == "miss":
            out.append(Query(f"emp(e{n + rng.randrange(n)}, D, P)", ()))
            continue
        emp = rows.pop()
        dept, phone = table.emps[emp]
        if kind == "emp":
            out.append(Query(f"emp({emp}, D, P)", ({"D": dept, "P": phone},)))
        elif kind == "office":
            out.append(Query(f"office({emp}, B)", ({"B": table.depts[dept]},)))
        else:
            out.append(Query(f"works({emp}, W)", ({"D": dept, "W": dept},)))
    return out


# ---------------------------------------------------------------------------
# Checks against the references.


def answers_match(doc: dict, expected: dict) -> bool:
    got = {a["var"]: a["term"] for a in doc["answers"]}
    if len(got) != len(doc["answers"]) or got.keys() != expected.keys():
        return False
    return all(
        _UNKNOWN_TEXT.fullmatch(got[name]) if want is UNKNOWN else got[name] == want
        for name, want in expected.items()
    )


def check_rendered(query: Query, lines: list[str]) -> bool:
    """``lines`` are the JSON documents ``run --format json`` would print."""
    docs = [json.loads(line) for line in lines]
    if not query.answers:
        ok = [d["status"] for d in docs] == ["fail"]
    else:
        ok = len(docs) == len(query.answers) and all(
            d["status"] == "success" and answers_match(d, want)
            for d, want in zip(docs, query.answers)
        )
    if ok and query.digest is not None:
        ok = render_digest(lines) == query.digest
    return ok


def render_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Running queries through the program's public functions.


def render(cli, solution, status: str) -> str:
    return json.dumps(cli.solution_json(solution, status))


def answer(m, program, config, text: str) -> list[str]:
    """Parse, desugar and solve a query, rendering every solution as
    ``run --format json`` does; ``m`` holds the prologtheta modules."""
    goal = m.syntax.desugar_query_vars(m.parser.parse_query(text))
    session = m.engine.solve(program, goal, config)
    lines = [render(m.cli, sol, "success") for sol in session]
    if not lines:
        status = "incomplete" if session.incomplete else "fail"
        lines.append(render(m.cli, None, status))
    return lines


class Runner:
    """Runs one workload's round of queries; ``mods`` holds the prologtheta
    modules.  A fuzz query is a case number: the case comes from the
    program's own generator, with a random stream of its own for each
    number, so any share of a round can be run on its own."""

    def __init__(self, workload: str, seed: int, size: str, mods, program):
        self.seed = seed
        self.m = mods
        self.program = program
        cfg = SIZES[size][workload]
        engine = mods.engine
        if workload == "nrev":
            self.round = nrev_round(seed, cfg["length"])
            self.config = engine.SolveConfig(trace_enabled=False)
        elif workload == "closure":
            self.round = closure_round(seed, cfg["nodes"])
            self.config = engine.SolveConfig(max_solutions=None)
        elif workload == "facts":
            self.round = facts_round(seed, facts_table(seed, cfg["emps"], cfg["depts"]))
            self.config = engine.SolveConfig()
        else:
            self.round = list(range(cfg["cases"]))

    def run(self, query):
        """The timed part of one query; returns what ``check`` needs."""
        m = self.m
        if isinstance(query, int):
            case = m.fuzz.random_case(random.Random(self.seed << 32 | query))
            m.terms.reset_fresh_counters()
            return m.fuzz.check_case(case)
        return answer(m, self.program, self.config, query.text)

    def check(self, query, result) -> tuple[int, bool]:
        """(solutions delivered, output correct)."""
        if isinstance(query, int):
            return len(result.engine_answers or ()), result.status == "match"
        solutions = len(result) if json.loads(result[0])["status"] == "success" else 0
        return solutions, check_rendered(query, result)
