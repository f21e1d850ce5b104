import os
from dataclasses import replace
from pathlib import Path

import pytest

from prologtheta import SolveConfig, reset_fresh_counters, solve
from prologtheta.fuzz import load_case
from prologtheta.syntax import silent_twin

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _fresh_ids():
    # make variable and unknown numbering reproducible inside each test
    reset_fresh_counters()
    yield


@pytest.fixture
def cli_env():
    """Environment for a ``python -m prologtheta.cli`` child process.

    ``PYTHONPATH`` starts with this checkout's absolute ``src`` directory, so
    the child imports the package under test from any working directory and
    without an install.  ``PYTHONHASHSEED`` is dropped, not pinned: each child
    draws its own hash seed, so the determinism tests still catch output that
    depends on set or dict order.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONHASHSEED", None)
    return env


@pytest.fixture
def erasure_counts():
    """A reference for the erasure relation, apart from ``fuzz_run``: the
    lenient derivation counts of a fuzz case and of its all-silent twin,
    each from a search of its own."""
    config = SolveConfig(groundness_mode="lenient", max_depth=64, max_solutions=None,
                         trace_enabled=False)

    def counts(case):
        program, goal = load_case(case)
        twin = replace(program, clauses=tuple(silent_twin(c) for c in program.clauses))
        return (sum(1 for _ in solve(program, goal, config)),
                sum(1 for _ in solve(twin, silent_twin(goal), config)))

    return counts
