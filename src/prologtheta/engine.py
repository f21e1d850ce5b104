"""Two-phase proof search with per-step recording of instantiations.

Search alternates between goal reduction (displayed as ``pv``), which
simplifies a goal until it is an atom, and backchaining (``backchain``,
displayed as ``bc``), which decomposes one program clause until its head
matches the atom.  ``ProofSearch.prove`` runs both in one loop over a
continuation (goals still to prove and steps still to record) and a stack
of choicepoints (atoms with clauses left to try), so a deep proof costs
heap, not Python frames.  Backtracking undoes the trail and truncates the
steps to the newest choicepoint's marks.

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

from .terms import Compound, Term, Var, fold_term, fresh_var, is_ground, resolve_term
from .terms import unify_into, walk_shallow
from .syntax import (
    Atom,
    Clause,
    Conj,
    Exists,
    Fact,
    Forall,
    Goal,
    map_terms,
    subst_term,
    wellformed,
)
from .loader import Program, first_arg_key
from .parser import format_clause, format_goal, format_term


class EngineError(Exception):
    """A query violated the engine's entry contract (not a proof failure)."""


@dataclass(frozen=True)
class SolveConfig:
    groundness_mode: str = "strict"  # or "lenient"
    max_depth: Optional[int] = None  # None = up to DEPTH_CAP
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

# The depth limit of a search with no max_depth: a proof this deep holds
# about 10 MB, so a search that never ends is cut and reported incomplete
# in a fraction of a second instead of filling memory.
DEPTH_CAP = 10_000


@dataclass(frozen=True)
class ProofStep:
    """One inference: ``bc`` decomposes a clause, ``pv`` reduces a goal.

    ``focus`` is the clause being decomposed for bc steps and the program
    for pv steps.  ``theta`` is the recorded binding and is present exactly
    when the step instantiated a noisy quantifier.  Terms are resolved
    against the bindings of the solution; steps may share resolved nodes.
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


class _Layer:
    """The focus of a bc step: layer ``depth`` of a clause try (the core
    past the last one) with only the outer universals renamed to the try's
    witnesses, built on first read."""

    __slots__ = ("template", "witnesses", "depth", "built")

    def __init__(self, template: tuple, witnesses: list, depth: int):
        self.template, self.witnesses, self.depth, self.built = template, witnesses, depth, None

    def clause(self) -> Clause:
        if self.built is None:
            layers, core = self.template
            outer = zip(layers[: self.depth], self.witnesses)
            node = layers[self.depth] if self.depth < len(layers) else core
            self.built = map_terms(node, partial(subst_term, {layer.var.id: w for layer, w in outer}))
        return self.built


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

    def backchain(self, clause: Clause, goal: Atom, depth: int, cont: tuple) -> Optional[tuple]:
        """Try ``clause`` on ``goal``, renaming its universals once: the
        continuation that proves its body one call deeper, records its bc
        steps and the atom's pv step, then goes on with ``cont``; or None
        when the head does not match."""
        layers, core = [], clause  # the Forall layers, outermost first, and the core
        while type(core) is Forall:
            layers.append(core)
            core = core.inner
        renaming = {layer.var.id: fresh_var(layer.var.name) for layer in layers}
        if core.head.pred != goal.pred or len(core.head.args) != len(goal.args):
            return None
        if not self._match(core.head.args, goal.args, renaming):
            return None
        witnesses = list(renaming.values())
        thetas = [(layer.var.name, w) if layer.noisy else None
                  for layer, w in zip(layers, witnesses)] + [None]  # the core's last
        group = [("bc", _Layer((layers, core), witnesses, i) if i else clause, goal, thetas[i])
                 for i in range(len(layers), -1, -1)]
        group.append(("pv", self.program, goal, None))
        if isinstance(core, Fact):
            return None, group, cont
        return map_terms(core.body, partial(subst_term, renaming)), depth + 1, (None, group, cont)

    def _match(self, patterns: tuple, terms: tuple, renaming: dict) -> bool:
        """Unify renamed clause-head arguments with goal arguments, pair by
        pair, left to right.  A universal met for the first time binds with
        no occurs check, as nothing it could occur in is bound yet.  Those
        in a head subterm that a goal variable binds to are met."""
        bindings, trail, met = self.bindings, self.trail, set()
        todo = list(zip(reversed(patterns), reversed(terms)))
        while todo:
            pattern, term = todo.pop()
            if type(pattern) is Var:
                var = renaming[pattern.id]
                if pattern.id not in met:
                    met.add(pattern.id)
                    bindings[var.id] = walk_shallow(term, bindings)
                    trail.append(var.id)
                    continue
                pattern = var
            elif type(pattern) is Compound:
                term = walk_shallow(term, bindings)
                if type(term) is Compound:
                    if pattern.functor != term.functor or len(pattern.args) != len(term.args):
                        return False
                    todo.extend(zip(reversed(pattern.args), reversed(term.args)))
                    continue
                if type(term) is not Var:
                    return False
                # one walk renames the subterm and meets its universals
                pattern = fold_term(
                    pattern, lambda t: met.add(t.id) or renaming[t.id] if type(t) is Var else t)
            if not unify_into(pattern, term, bindings, trail, self.config.occurs_check):
                return False
        return True

    def prove(self, goal: Goal) -> Iterator[None]:
        """Yield once per derivation of ``goal``; bindings and steps hold
        across yields.  A frame ``(goal, depth, next)`` proves a goal whose
        atoms sit at resolution ``depth`` (1 for the query's, one more than
        the resolved atom's for a rule body's), ``(None, steps, next)``
        records steps; an existential's witness is a fresh variable."""
        program, steps, bindings, trail = self.program, self.steps, self.bindings, self.trail
        limit = self.config.max_depth or DEPTH_CAP  # max_depth is None or positive
        choices: list[list] = []  # [trail mark, step count, atom, depth, clauses, next, cont]
        cont: Optional[tuple] = (goal, 1, None)
        while True:
            if cont is None:
                yield
            else:
                goal, depth, cont = cont
                if goal is None:  # a step-group frame holds its steps in the middle
                    steps.extend(depth)
                    continue
                if type(goal) is Conj:
                    done = (None, (("pv", program, goal, None),), cont)
                    cont = (goal.left, depth, (goal.right, depth, done))
                    continue
                if type(goal) is Exists:
                    witness = fresh_var(goal.var.name)
                    body = map_terms(goal.body, partial(subst_term, {goal.var.id: witness}))
                    theta = (goal.var.name, witness) if goal.noisy else None
                    cont = (body, depth, (None, (("pv", program, goal, theta),), cont))
                    continue
                if depth > limit:
                    self.depth_clipped = True
                else:
                    candidates = self.candidates(goal)  # ordered clause trial
                    if candidates:
                        choices.append([len(trail), len(steps), goal, depth, candidates, 0, cont])
            # resume the newest choicepoint: the call just made, or backtracking
            while choices:
                choice = choices[-1]
                mark, count, atom, depth, candidates, i, after = choice
                while len(trail) > mark:
                    del bindings[trail.pop()]
                del steps[count:]
                choice[5] = i + 1
                if i + 1 == len(candidates):
                    choices.pop()
                cont = self.backchain(candidates[i], atom, depth, after)
                if cont is not None:
                    break
            else:
                return

    # -- results -----------------------------------------------------------

    def answer(self, strict: bool) -> Optional[tuple[Theta, ...]]:
        """The recorded noisy witnesses in step order, resolved against the
        current bindings.

        Strict mode returns None (a backtracking signal, not an error) when
        any witness is not ground; lenient mode keeps residual variables.
        """
        out, memo = [], {}
        for _, _, _, theta in self.steps:
            if theta is not None:
                term = resolve_term(theta[1], self.bindings, memo)
                if strict and not is_ground(term):
                    return None
                out.append((theta[0], term))
        return tuple(out)

    def snapshot(self) -> ProofTrace:
        """The steps so far as a trace, resolved against the current bindings:
        each binding chain once, and each node once for all steps sharing it."""
        bindings, memo, nodes = self.bindings, {}, {}

        def resolve(term: Term) -> Term:
            return resolve_term(term, bindings, memo)

        def node(goal):  # steps are premise first: a conjunct comes before its Conj
            if id(goal) not in nodes:
                nodes[id(goal)] = (
                    Atom(goal.pred, tuple(map(resolve, goal.args))) if type(goal) is Atom
                    else Conj(node(goal.left), node(goal.right)) if type(goal) is Conj
                    else map_terms(goal, resolve))
            return nodes[id(goal)]

        return ProofTrace(tuple(
            ProofStep(i, kind, map_terms(focus.clause(), resolve) if type(focus) is _Layer else focus,
                      node(goal), None if theta is None else (theta[0], resolve(theta[1])))
            for i, (kind, focus, goal, theta) in enumerate(self.steps, 1)
        ))


class SolveSession:
    """Lazy solution stream plus the incomplete-search flag.

    Iterate it, or call ``next_solution()`` which returns None when the
    stream ends; ``incomplete`` tells whether any branch was cut by the
    depth limit (``DEPTH_CAP`` when there is none), distinguishing a
    bounded search from finite failure.
    """

    def __init__(self, program: Program, goal: Goal, config: SolveConfig):
        # a copy: the query may name predicates the program does not, and
        # those must not enter a table that other sessions share
        issues = wellformed(goal, arities=program.arities())
        if issues:
            raise EngineError("; ".join(issues))
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
        for _ in search.prove(self.goal):
            answer = search.answer(strict)
            if answer is None:
                continue  # non-ground noisy witness: reject and backtrack
            trace = search.snapshot() if config.trace_enabled else None
            yield Solution(answer=answer, trace=trace)
            self.solutions_found += 1
            if config.max_solutions is not None and self.solutions_found >= config.max_solutions:
                return

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


def step_texts(trace: ProofTrace) -> Iterator[tuple[ProofStep, str, str]]:
    """Each step with the text of its focus (a program by its name) and of
    its goal; a node shared between steps is formatted once."""
    texts: dict[int, str] = {}
    for step in trace.steps:
        focus, goal = step.focus, step.goal
        if id(focus) not in texts:
            texts[id(focus)] = focus.name if isinstance(focus, Program) else format_clause(focus)
        if id(goal) not in texts:
            texts[id(goal)] = format_goal(goal)
        yield step, texts[id(focus)], texts[id(goal)]


def format_proof(trace: ProofTrace, answer) -> str:
    """Render a trace bottom-up: line 1 is the deepest step, the last line
    is the root judgment, followed by the answer substitution."""
    label = "program"
    if trace.steps and isinstance(trace.steps[-1].focus, Program):
        label = trace.steps[-1].focus.name

    def shown_goal(goal: Goal, text: str) -> str:
        # parenthesize a conjunction, also under binders, so step arguments
        # stay unambiguous; the parenthesized form reparses to the same goal
        while type(goal) is Exists:
            goal = goal.body
        return f"({text})" if type(goal) is Conj else text

    lines = []
    for step, clause, goal in step_texts(trace):
        theta = format_theta(step.theta)
        if step.kind == "bc":
            lines.append(f"{step.index}. bc({clause}, {label}, {goal}, {theta})")
        else:
            lines.append(f"{step.index}. pv({label}, {shown_goal(step.goal, goal)}, {theta})")
    pairs = ", ".join(
        f"{shown} = {format_term(term)}"
        for shown, (_, term) in zip(display_names(answer), answer)
    )
    lines.append(f"answer: {{{pairs}}}")
    return "\n".join(lines)
