"""Two-phase proof search with per-step recording of instantiations.

Search alternates between goal reduction and backchaining.  Goal reduction
(``reduce_goal``, displayed as ``pv``) simplifies a goal until it is an
atom, then switches to backchaining (``backchain``, displayed as ``bc``),
which decomposes one program clause until its head matches the atom.

Every completed inference contributes one step to the proof; a step
carries a binding exactly when it instantiated a noisy quantifier.  Steps
are emitted in premise-first order, so step 1 is the deepest leaf and the
last step is the root judgment on the whole query; this is the order in
which traces are displayed.

The nondeterministic choice of an instantiation term is realized by logic
variables, unification, and chronological backtracking over a trail.
Clause alternatives are tried in textual order, which makes search
deterministic and Prolog-like: depth first, left to right, first clause
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence, Union

from .terms import Term, Var, fresh_var, is_ground, resolve_term, unify_into, walk_shallow
from .syntax import (
    Atom,
    Clause,
    Conj,
    Exists,
    Fact,
    Forall,
    Goal,
    Rule,
    map_terms,
    subst_term,
    wellformed,
)
from .loader import Program, first_arg_key
from .parser import format_atom, format_clause, format_goal, format_term


class EngineError(Exception):
    """A query violated the engine's entry contract (not a proof failure)."""


@dataclass(frozen=True)
class SolveConfig:
    groundness_mode: str = "strict"  # or "lenient"
    max_depth: Optional[int] = None  # None = unlimited
    max_solutions: Optional[int] = 1  # None = unlimited
    occurs_check: bool = True
    trace_enabled: bool = True

    def __post_init__(self) -> None:
        # a search checks the count only after a solution, so 0 would give one
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError(f"max_solutions must be at least 1, not {self.max_solutions}")
        # the query's atoms sit at depth 1, so a lower limit cuts every search
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, not {self.max_depth}")


Theta = tuple[str, Term]


@dataclass(frozen=True)
class ProofStep:
    """One inference: ``bc`` decomposes a clause, ``pv`` reduces a goal.

    ``focus`` is the clause being decomposed for bc steps and the program
    for pv steps.  ``theta`` is the recorded binding and is present exactly
    when the step instantiated a noisy quantifier; its term is fully
    resolved against the bindings of the solution.
    """

    index: int
    kind: str  # "bc" | "pv"
    focus: Union[Clause, Program]
    goal: Union[Goal, Atom]
    theta: Optional[Theta]


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[ProofStep, ...]


@dataclass(frozen=True)
class Solution:
    """An answer substitution together with the proof that produced it.

    ``trace`` is None when the search ran with ``trace_enabled=False``; the
    answer is the same either way.
    """

    answer: tuple[Theta, ...]
    trace: Optional[ProofTrace]


class ProofSearch:
    """One in-progress search: owns its bindings, trail, and step list.

    A search is single threaded.  Several searches over the same immutable
    Program may run in parallel.
    """

    def __init__(self, program: Program, config: SolveConfig = SolveConfig()):
        self.program = program
        self.config = config
        self.bindings: dict[int, Term] = {}
        self.trail: list[int] = []
        self.steps: list[tuple] = []  # (kind, focus, goal, theta)
        self.depth_clipped = False

    # -- bookkeeping --------------------------------------------------------

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            del self.bindings[self.trail.pop()]

    def candidates(self, goal: Atom) -> Sequence[Clause]:
        """The clauses that may match ``goal``, in textual order.

        They come from the program's index, by the goal's first argument
        under the current bindings: every clause of the predicate when
        that argument is unbound, else those whose first argument is a
        variable or has the same key (see ``loader.first_arg_key``).
        """
        table = self.program.index.get(goal.pred)
        if table is None:
            return ()
        if not goal.args:
            return table.every
        first = walk_shallow(goal.args[0], self.bindings)
        if isinstance(first, Var):
            return table.every
        return table.lookup(first_arg_key(first))

    def _unify_atoms(self, a: Atom, b: Atom) -> bool:
        if a.pred != b.pred or len(a.args) != len(b.args):
            return False
        return all(
            unify_into(x, y, self.bindings, self.trail, self.config.occurs_check)
            for x, y in zip(a.args, b.args)
        )

    # -- goal reduction -------------------------------------------------

    def reduce_goal(self, goal: Goal, depth: int) -> Iterator[None]:
        """Yield once per derivation of ``goal``; bindings live across yields.

        ``depth`` is the resolution depth of the atoms in ``goal``: 1 for
        the query's, one more than the resolved atom's for a rule body's.
        Atoms switch to backchaining over the clauses that can match them,
        unless they lie past the depth limit; conjunctions prove left then
        right; existentials allocate a fresh variable for the bound one
        and, when noisy, record its final value.
        """
        if isinstance(goal, Atom):
            limit = self.config.max_depth
            if limit is not None and depth > limit:
                self.depth_clipped = True
                return
            for clause in self.candidates(goal):  # ordered clause trial
                for _ in self.backchain(clause, goal, depth):
                    self.steps.append(("pv", self.program, goal, None))
                    yield
                    self.steps.pop()
        elif isinstance(goal, Conj):
            for _ in self.reduce_goal(goal.left, depth):
                for _ in self.reduce_goal(goal.right, depth):
                    self.steps.append(("pv", self.program, goal, None))
                    yield
                    self.steps.pop()
        elif isinstance(goal, Exists):
            witness = fresh_var(goal.var.name)
            body = map_terms(goal.body, partial(subst_term, {goal.var.id: witness}))
            for _ in self.reduce_goal(body, depth):
                theta = (goal.var.name, witness) if goal.noisy else None
                self.steps.append(("pv", self.program, goal, theta))
                yield
                self.steps.pop()
        else:
            raise EngineError(f"not a goal node: {goal!r}")

    # -- backchaining -----------------------------------------------------

    def backchain(self, clause: Clause, goal_atom: Atom, depth: int) -> Iterator[None]:
        """Decompose ``clause`` until its head matches ``goal_atom``.

        Facts unify directly; a rule's head is unified and then its body is
        proved against the full program, one call deeper than ``depth``;
        universals are stripped by renaming the bound variable fresh,
        recording the instantiation for noisy ones.
        """
        if isinstance(clause, Fact):
            mark = len(self.trail)
            if self._unify_atoms(clause.head, goal_atom):
                self.steps.append(("bc", clause, goal_atom, None))
                yield
                self.steps.pop()
            self._undo(mark)
        elif isinstance(clause, Rule):
            mark = len(self.trail)
            if self._unify_atoms(clause.head, goal_atom):
                for _ in self.reduce_goal(clause.body, depth + 1):
                    self.steps.append(("bc", clause, goal_atom, None))
                    yield
                    self.steps.pop()
            self._undo(mark)
        elif isinstance(clause, Forall):
            witness = fresh_var(clause.var.name)
            inner = map_terms(clause.inner, partial(subst_term, {clause.var.id: witness}))
            for _ in self.backchain(inner, goal_atom, depth):
                theta = (clause.var.name, witness) if clause.noisy else None
                self.steps.append(("bc", clause, goal_atom, theta))
                yield
                self.steps.pop()
        else:
            raise EngineError(f"not a clause node: {clause!r}")

    # -- results -----------------------------------------------------------

    def answer(self, strict: bool) -> Optional[tuple[Theta, ...]]:
        """The recorded noisy witnesses in step order, resolved against the
        current bindings.

        Strict mode returns None (a backtracking signal, not an error) when
        any witness is not ground; lenient mode keeps residual variables.
        """
        out = []
        for _, _, _, theta in self.steps:
            if theta is not None:
                term = resolve_term(theta[1], self.bindings)
                if strict and not is_ground(term):
                    return None
                out.append((theta[0], term))
        return tuple(out)

    def snapshot(self) -> ProofTrace:
        """The steps so far as a trace, resolved against the current bindings."""
        bindings = self.bindings

        def resolve(term: Term) -> Term:
            return resolve_term(term, bindings)

        return ProofTrace(tuple(
            ProofStep(
                index=i,
                kind=kind,
                focus=focus if isinstance(focus, Program) else map_terms(focus, resolve),
                goal=map_terms(goal, resolve),
                theta=None if theta is None else (theta[0], resolve(theta[1])),
            )
            for i, (kind, focus, goal, theta) in enumerate(self.steps, 1)
        ))


class SolveSession:
    """Lazy solution stream plus the incomplete-search flag.

    Iterate it, or call ``next_solution()`` which returns None when the
    stream ends; ``incomplete`` tells whether any branch was cut by the
    depth limit or by Python's recursion limit, distinguishing a bounded
    search from finite failure.
    """

    def __init__(self, program: Program, goal: Goal, config: SolveConfig):
        # a copy: the query may name predicates the program does not, and
        # those must not enter a table that other sessions share
        issues = wellformed(goal, arities=program.arities(), allow_unknowns=True)
        if issues:
            raise EngineError("; ".join(issues))
        self.program = program
        self.goal = goal
        self.config = config
        self.search = ProofSearch(program, config)
        self.solutions_found = 0
        self._gen = self._run()

    @property
    def incomplete(self) -> bool:
        return self.search.depth_clipped

    def _run(self) -> Iterator[Solution]:
        config = self.config
        search = self.search
        strict = config.groundness_mode == "strict"
        try:
            for _ in search.reduce_goal(self.goal, 1):
                answer = search.answer(strict)
                if answer is None:
                    continue  # non-ground noisy witness: reject and backtrack
                trace = search.snapshot() if config.trace_enabled else None
                yield Solution(answer=answer, trace=trace)
                self.solutions_found += 1
                if (
                    config.max_solutions is not None
                    and self.solutions_found >= config.max_solutions
                ):
                    return
        except RecursionError:
            # Python's stack ran out before the depth limit did: the same
            # cut, so the solutions already found stand
            self.search.depth_clipped = True

    def __iter__(self) -> Iterator[Solution]:
        return self._gen

    def next_solution(self) -> Optional[Solution]:
        return next(self._gen, None)


def solve(program: Program, goal: Goal, config: SolveConfig = SolveConfig()) -> SolveSession:
    """Prove ``goal`` from ``program``, yielding solutions lazily.

    The goal must be closed and well formed (desugar queries first).
    Solutions come in depth-first, left-to-right, clause order; each
    carries the recorded answer bindings and, when ``trace_enabled``, the
    bottom-up proof trace.
    """
    return SolveSession(program, goal, config)


# ---------------------------------------------------------------------------
# Display.


def display_names(answer) -> list[str]:
    """Answer entry names with repeats suffixed ``#2``, ``#3``, ..."""
    counts: dict[str, int] = {}
    out = []
    for name, _ in answer:
        counts[name] = counts.get(name, 0) + 1
        out.append(name if counts[name] == 1 else f"{name}#{counts[name]}")
    return out


def format_theta(theta: Optional[Theta]) -> str:
    if theta is None:
        return "nil"
    return f"<{theta[0]}, {format_term(theta[1])}>"


def format_proof(trace: ProofTrace, answer) -> str:
    """Render a trace bottom-up: line 1 is the deepest step, the last line
    is the root judgment, followed by the answer substitution."""
    label = "program"
    if trace.steps and isinstance(trace.steps[-1].focus, Program):
        label = trace.steps[-1].focus.name

    def shown_goal(goal) -> str:
        # parenthesize goals with a top-level comma so step arguments stay
        # unambiguous; the parenthesized form reparses to the same goal
        text = format_goal(goal)
        depth = 0
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return f"({text})"
        return text

    lines = []
    for step in trace.steps:
        theta = format_theta(step.theta)
        if step.kind == "bc":
            lines.append(
                f"{step.index}. bc({format_clause(step.focus)}, {label}, "
                f"{format_atom(step.goal)}, {theta})"
            )
        else:
            lines.append(f"{step.index}. pv({label}, {shown_goal(step.goal)}, {theta})")
    pairs = ", ".join(
        f"{shown} = {format_term(term)}"
        for shown, (_, term) in zip(display_names(answer), answer)
    )
    lines.append(f"answer: {{{pairs}}}")
    return "\n".join(lines)
