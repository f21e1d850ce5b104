"""Two-phase proof search with per-step recording of instantiations.

Search alternates between goal reduction (displayed as ``pv``), which
simplifies a goal until it is an atom, and backchaining (``backchain``,
displayed as ``bc``), which decomposes one program clause until its head
matches the atom.  ``ProofSearch.prove`` runs both in one loop over a
continuation (goals still to prove and steps still to record) and a stack
of choicepoints (atoms with clauses left to try), so a deep proof costs
heap, not Python frames.  Backtracking undoes the trail and truncates the
steps to the newest choicepoint's marks.  Each clause is compiled on its
first try, so a try allocates one list of fresh variables, runs the head's
match ops and fills in the body's template (after the WAM's get
instructions: Warren 1983).

Every completed inference contributes one step to the proof; a step
carries a binding exactly when it instantiated a noisy quantifier.  Steps
are emitted in premise-first order, so step 1 is the deepest leaf and the
last step is the root judgment on the whole query; this is the order in
which traces are displayed.  A chain of ``some`` binders is renamed at
once, and its pv steps hold their goals as ``_Layer``s, as a clause try's
bc steps hold its layers.  A search that nothing may snapshot keeps as
steps only the bindings of noisy ``some*`` binders and ``all*``
universals, as its answer reads nothing else.  A trace holds the raw steps
and the bindings at its solution: it is printed from them, and resolved
only when its ``steps`` are read.

The nondeterministic choice of an instantiation term is realized by logic
variables, unification, and chronological backtracking over a trail.
Clause alternatives are tried in textual order, which makes search
deterministic and Prolog-like: depth first, left to right, first clause
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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
    fold,
    map_terms,
    subst_term,
    wellformed,
)
from .loader import Program, first_arg_key
from .parser import compound_text, format_clause, format_goal, format_term


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
# under 1 MB (8 MB traced), so a search that never ends is cut and reported
# incomplete in a fraction of a second instead of filling memory.
DEPTH_CAP = 10_000


@dataclass(frozen=True)
class ProofStep:
    """One inference: ``bc`` decomposes a clause, ``pv`` reduces a goal.

    ``focus`` is the clause being decomposed for bc steps and the program
    for pv steps.  ``theta`` is the recorded binding and is present exactly
    when the step instantiated a noisy quantifier.  ``ProofTrace.steps``
    builds these from the raw steps and bindings; they may share nodes.
    """

    index: int
    kind: str  # "bc" | "pv"
    focus: Union[Clause, Program]
    goal: Union[Goal, Atom]
    theta: Optional[Theta]


@dataclass(frozen=True, eq=False)
class ProofTrace:
    """The raw steps of a proof, ``(kind, focus, goal, theta)`` over unresolved
    terms, and a copy of the bindings at its solution; ``steps`` is a view of
    them resolved on first read."""

    raw_steps: tuple[tuple, ...]
    bindings: dict[int, Term]

    @cached_property
    def steps(self) -> tuple[ProofStep, ...]:
        """Each binding chain resolved once, and each node shared by steps once."""
        resolve, nodes = partial(resolve_term, bindings=self.bindings, memo={}), {}

        def node(goal):  # steps are premise first: a conjunct comes before its Conj
            if id(goal) not in nodes:
                nodes[id(goal)] = (
                    Conj(node(goal.left), node(goal.right)) if type(goal) is Conj
                    else map_terms(goal.build() if type(goal) is _Layer else goal, resolve))
            return nodes[id(goal)]

        return tuple(
            ProofStep(i, kind, map_terms(focus.build(), resolve) if type(focus) is _Layer else focus,
                      node(goal), None if theta is None else (theta[0], resolve(theta[1])))
            for i, (kind, focus, goal, theta) in enumerate(self.raw_steps, 1)
        )


@dataclass(frozen=True)
class Solution:
    """An answer substitution together with the proof that produced it.

    ``trace`` is None when the search ran with ``trace_enabled=False``; the
    answer is the same either way.
    """

    answer: tuple[Theta, ...]
    trace: Optional[ProofTrace]


class _Layer:
    """Layer ``depth`` of a binder chain, a clause's universals or a query's
    existentials (the core past the last one), with only the outer binders
    renamed to their witnesses: a bc step's focus or a pv step's goal, or
    a chain's renamed core."""

    __slots__ = ("template", "witnesses", "depth")

    def __init__(self, template: tuple, witnesses: list, depth: int):
        self.template, self.witnesses, self.depth = template, witnesses, depth

    def parts(self) -> tuple:  # the layer's node, and its renaming by binder id
        chain, core = self.template
        renaming = {binder.var.id: w for binder, w in zip(chain[: self.depth], self.witnesses)}
        return chain[self.depth] if self.depth < len(chain) else core, renaming

    def build(self):
        node, renaming = self.parts()
        return map_terms(node, partial(subst_term, renaming))


class _AtomTemplate(Atom):
    """A rule body atom with slot numbers among its terms' leaves."""


def _compile(clause: Clause) -> tuple:
    """``(clause, pred, names, head, body, noisy, layers, core)``: slot i is
    the i-th universal (``names``), outermost first, and ``noisy`` the noisy
    ones' (slot, name), innermost first.  A head op, one per argument in
    pre-order, is a slot met first (i) or again (~i), a slot-free term,
    ground and shared, or a compound with slots, ``(functor, ops, template
    over slot numbers)``.  ``body`` is over slot numbers, None for a fact."""
    layers, core = [], clause
    while type(core) is Forall:
        layers.append(core)
        core = core.inner
    slots = {layer.var.id: i for i, layer in enumerate(layers)}
    met: set = set()

    def head_leaf(t):
        if type(t) is Var:
            i = slots[t.id]
            t = ~i if i in met else i
            met.add(i)
        return t

    def head_node(functor: str, ops: tuple):
        if not any(type(op) in (int, tuple) for op in ops):
            return Compound(functor, ops)
        return functor, ops, Compound(functor, tuple(
            (op if op >= 0 else ~op) if type(op) is int else op[2] if type(op) is tuple else op
            for op in ops))

    def body_atom(a: Atom, _) -> Atom:
        if all(map(is_ground, a.args)):
            return a
        return _AtomTemplate(a.pred, tuple(
            fold_term(t, lambda v: slots.get(v.id, v) if type(v) is Var else v) for t in a.args))

    head = tuple(arg if is_ground(arg) else fold_term(arg, head_leaf, head_node)
                 for arg in core.head.args)
    noisy = tuple((i, layer.var.name) for i, layer in enumerate(layers) if layer.noisy)[::-1]
    return (clause, core.head.pred, tuple(layer.var.name for layer in layers), head,
            None if type(core) is Fact else fold(core.body, body_atom), noisy, tuple(layers), core)


def _instance(a: Atom, leaf) -> Atom:
    """A body atom of a try: a template's slot numbers replaced by ``leaf``."""
    return a if type(a) is Atom else Atom(a.pred, tuple([fold_term(t, leaf) for t in a.args]))


class ProofSearch:
    """One in-progress search: owns its bindings, trail, and step list.

    Unless ``may_snapshot`` (``trace_enabled``, or set by a caller before
    the first solution), the steps are only the noisy binders' thetas,
    which is all ``answer`` reads.  A search is single threaded.  Several
    searches over the same immutable Program may run in parallel.
    """

    def __init__(self, program: Program, config: SolveConfig = SolveConfig()):
        self.program = program
        self.config = config
        self.may_snapshot = config.trace_enabled
        self.bindings: dict[int, Term] = {}
        self.trail: list[int] = []
        self.steps: list[tuple] = []  # (kind, focus, goal, theta), or the thetas alone
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

    def backchain(self, clause: Clause, goal: Atom, depth: int, cont: tuple):
        """Try ``clause``, a program clause, on ``goal`` with one fresh
        variable per universal: the continuation that proves its body one
        call deeper, records its bc steps and the atom's pv step (or their
        thetas alone), then goes on with ``cont``; or False when the head
        does not match.  A slot met first, and a goal variable met by a
        slot-free op, bind with no occurs check: neither can make a cycle."""
        code = self.program.compiled.get(id(clause))
        if code is None or code[0] is not clause:  # not compiled yet, or a stale id
            code = self.program.compiled[id(clause)] = _compile(clause)
        _, pred, names, head, body, noisy, layers, core = code
        if pred != goal.pred or len(head) != len(goal.args):
            return False
        w = [fresh_var(name) for name in names]
        bindings, trail, occurs_check = self.bindings, self.trail, self.config.occurs_check

        def leaf(t):
            return w[t] if type(t) is int else t

        todo = list(zip(reversed(head), reversed(goal.args)))
        while todo:
            op, term = todo.pop()
            if type(op) is int:
                if op >= 0:
                    bindings[w[op].id] = walk_shallow(term, bindings)
                    trail.append(w[op].id)
                elif not unify_into(w[~op], term, bindings, trail, occurs_check):
                    return False
                continue
            term = walk_shallow(term, bindings)
            if type(op) is tuple:
                functor, ops, template = op
                if type(term) is Compound:
                    if term.functor != functor or len(term.args) != len(ops):
                        return False
                    todo.extend(zip(reversed(ops), reversed(term.args)))
                elif type(term) is not Var or not unify_into(
                        fold_term(template, leaf), term, bindings, trail, occurs_check):
                    return False
            elif type(term) is Var:
                bindings[term.id] = op
                trail.append(term.id)
            elif not unify_into(op, term, bindings, trail, occurs_check):
                return False
        if not self.may_snapshot:
            group = [(name, w[i]) for i, name in noisy]
        else:
            group = []
            for i in range(len(layers), -1, -1):  # the core first, then each layer inward out
                theta = (layers[i].var.name, w[i]) if i < len(layers) and layers[i].noisy else None
                group.append(("bc", _Layer((layers, core), w, i) if i else clause, goal, theta))
            group.append(("pv", self.program, goal, None))
        if group:
            cont = (None, group, cont)
        if body is None:
            return cont
        return (_instance(body, leaf) if isinstance(body, Atom)
                else fold(body, _instance, scope=leaf)), depth + 1, cont

    def prove(self, goal: Goal) -> Iterator[None]:
        """Yield once per derivation of ``goal``; bindings and steps hold
        across yields.  A frame ``(goal, depth, next)`` proves a goal whose
        atoms sit at resolution ``depth`` (1 for the query's, one more than
        the resolved atom's for a rule body's), ``(None, steps, next)``
        records steps; an existential's witness is a fresh variable."""
        program, steps, bindings, trail = self.program, self.steps, self.bindings, self.trail
        lean = not self.may_snapshot
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
                    done = cont if lean else (None, (("pv", program, goal, None),), cont)
                    cont = (goal.left, depth, (goal.right, depth, done))
                    continue
                if type(goal) is Exists:  # a chain of binders, renamed at once
                    chain, witnesses, group = [], [], []
                    while type(goal) is Exists:
                        chain.append(goal)
                        witnesses.append(fresh_var(goal.var.name))
                        goal = goal.body
                    for i in range(len(chain) - 1, -1, -1):  # innermost first
                        theta = (chain[i].var.name, witnesses[i]) if chain[i].noisy else None
                        if not lean:
                            layer = _Layer((chain, goal), witnesses, i) if i else chain[0]
                            group.append(("pv", program, layer, theta))
                        elif theta:
                            group.append(theta)
                    if group:
                        cont = (None, group, cont)
                    cont = (_Layer((chain, goal), witnesses, len(chain)).build(), depth, cont)
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
                if cont is not False:
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
        for theta in (step[3] for step in self.steps) if self.may_snapshot else self.steps:
            if theta is not None:
                term = resolve_term(theta[1], self.bindings, memo)
                if strict and not is_ground(term):
                    return None
                out.append((theta[0], term))
        return tuple(out)

    def snapshot(self) -> ProofTrace:
        """The steps and bindings so far, copied: later search changes no trace."""
        return ProofTrace(tuple(self.steps), dict(self.bindings))


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


def step_texts(trace: ProofTrace) -> Iterator[tuple]:
    """Each step as ``(index, kind, goal, focus text, goal text, theta)``,
    its goal raw and its theta's term as text, printed from the trace's
    bindings: each node once, and each variable once unless it cut a cycle."""
    bindings, memo, texts, marked = trace.bindings, {}, {}, {}

    def var_text(v: Var) -> str:
        if v.id in memo:
            return memo[v.id]
        return resolve_term(v, bindings, memo, format_term, compound_text)

    def text(node, fmt) -> str:
        if type(node) is _Layer:  # renamed before the bindings are read: its node is
            # printed once, with a NUL-delimited mark for each renamed binder's id,
            # and each layer on the node fills the marks with its witnesses
            node, renaming = node.parts()
            pieces = marked.get(id(node))
            if pieces is None:
                shown = fmt(node, lambda v: f"\0{v.id}\0" if v.id in renaming else var_text(v))
                marked[id(node)] = pieces = shown.split("\0")
                pieces[1::2] = map(int, pieces[1::2])  # the marks: binder ids
            return "".join([var_text(renaming[p]) if type(p) is int else p for p in pieces])
        if id(node) not in texts:  # a program clause's variables are never bound
            texts[id(node)] = fmt(node, var_text if fmt is format_goal else None)
        return texts[id(node)]

    for i, (kind, focus, goal, theta) in enumerate(trace.raw_steps, 1):
        clause = focus.name if isinstance(focus, Program) else text(focus, format_clause)
        theta = theta and (theta[0], var_text(theta[1]))
        yield i, kind, goal, clause, text(goal, format_goal), theta


def format_proof(trace: ProofTrace, answer) -> str:
    """Render a trace bottom-up: line 1 is the deepest step, the last line
    is the root judgment, followed by the answer substitution."""
    label = trace.raw_steps[-1][1].name  # the root judgment's program
    lines = []
    for index, kind, goal, clause, text, theta in step_texts(trace):
        theta = "nil" if theta is None else f"<{theta[0]}, {theta[1]}>"
        if kind == "bc":
            lines.append(f"{index}. bc({clause}, {label}, {text}, {theta})")
            continue
        # parenthesize a conjunction, also under binders, so step arguments
        # stay unambiguous; the parenthesized form reparses to the same goal
        core = goal.template[1] if type(goal) is _Layer else goal  # past a layer's binders
        while type(core) is Exists:
            core = core.body
        text = f"({text})" if type(core) is Conj else text
        lines.append(f"{index}. pv({label}, {text}, {theta})")
    pairs = ", ".join(
        f"{shown} = {format_term(term)}"
        for shown, (_, term) in zip(display_names(answer), answer)
    )
    lines.append(f"answer: {{{pairs}}}")
    return "\n".join(lines)
