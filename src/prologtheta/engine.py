"""Two-phase proof search with per-step recording of instantiations.

Search alternates between goal reduction (displayed as ``pv``), which
simplifies a goal until it is an atom, and backchaining (``backchain``,
displayed as ``bc``), which decomposes one program clause until its head
matches the atom.  ``ProofSearch.prove`` runs both in one loop over a
continuation (goals still to prove and steps still to record) and a stack of
choicepoints (atoms with clauses left to try), so a deep proof costs heap, not
Python frames.  Backtracking undoes the trail and truncates the steps to the
newest choicepoint's marks; a call with one candidate clause pushes no
choicepoint (the WAM's ``switch_on_term``).  Each clause is compiled on its
first try to two generated Python functions, which clauses of the same shape
share: one matches the head, one builds the body (the WAM's get and put
instructions as host code: Warren 1983).  A universal the head matches takes
the goal's term, so a try makes two calls and a fresh variable only where its
head builds a term or for one only its body has.

Every completed inference contributes one step to the proof; a step
carries a binding exactly when it instantiated a noisy quantifier.  Steps
are emitted in premise-first order, so step 1 is the deepest leaf and the
last step is the root judgment on the whole query; this is the order in
which traces are displayed.  A chain of ``some`` binders is renamed at
once, and its pv steps hold their goals as ``_Layer``s; a clause try's bc
steps hold its code and witnesses.  A search that nothing may snapshot
keeps as steps only the bindings of noisy ``some*`` binders and ``all*``
universals, as its answer reads nothing else.  A trace holds the raw steps
and the bindings at its solution, and is read only as ``step_texts``
prints it.

The nondeterministic choice of an instantiation term is realized by logic
variables, unification, and chronological backtracking over a trail.
Clause alternatives are tried in textual order, which makes search
deterministic and Prolog-like: depth first, left to right, first clause
first.  A program's first search builds its index, its one clause table,
which offers an atom the clauses of its predicate that may match it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from .terms import Compound, Const, Term, Unknown, Var, fresh_var, is_ground, occurs
from .terms import resolve_term, unify_into, walk_shallow
from .syntax import Atom, Clause, Conj, Exists, Fact, Goal, binders, map_terms, wellformed
from .loader import Program
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
        # a search is strict only under "strict", so any other mode would run lenient
        if self.groundness_mode not in ("strict", "lenient"):
            raise ValueError(f"groundness_mode must be strict or lenient: {self.groundness_mode}")
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


@dataclass(frozen=True, eq=False)
class ProofTrace:
    """The raw steps of a proof, ``(kind, focus, goal, theta)`` over unresolved
    terms, and a copy of the bindings at its solution: ``step_texts`` prints
    them."""

    raw_steps: tuple[tuple, ...]
    bindings: dict[int, Term]


@dataclass(frozen=True)
class Solution:
    """An answer substitution together with the proof that produced it.

    ``trace`` is None when the search ran with ``trace_enabled=False``; the
    answer is the same either way.
    """

    answer: tuple[Theta, ...]
    trace: Optional[ProofTrace]


class _Layer:
    """Layer ``depth`` of a query's chain of existentials (the core past the
    last one), with only the outer binders renamed to their witnesses: a pv
    step's goal."""

    __slots__ = ("template", "witnesses", "depth")

    def __init__(self, template: tuple, witnesses: list, depth: int):
        self.template, self.witnesses, self.depth = template, witnesses, depth

    def parts(self) -> tuple:  # the layer's node, and its renaming by binder id
        chain, core = self.template
        renaming = {binder.var.id: w for binder, w in zip(chain[: self.depth], self.witnesses)}
        return chain[self.depth] if self.depth < len(chain) else core, renaming


class _Compiled(SimpleNamespace):
    """A clause as its tries run it (see ``_compile``)."""

    def text(self, depth: int, w: Sequence, var_text) -> str:
        """Layer ``depth`` of the clause, its outer binders as ``var_text`` of
        their witnesses ``w``: each depth is formatted once, with a NUL mark
        per outer slot, and the rest by name, as no binder of a clause is bound."""
        pieces = self.shown.get(depth)
        if pieces is None:
            layers, core = self.template
            slots = {layer.var.id: i for i, layer in enumerate(layers[:depth])}
            shown = format_clause(layers[depth] if depth < len(layers) else core,
                                  lambda v: f"\0{slots[v.id]}\0" if v.id in slots else v.name)
            pieces = shown.split("\0")
            pieces[1::2] = map(int, pieces[1::2])  # the marks: slots
            self.shown[depth] = pieces  # whole: sessions of a program share it
        return "".join([var_text(w[p]) if type(p) is int else p for p in pieces])


_functions: dict = {}  # by shape, for every program: a fuzz case loads a fresh one


def _generated(prefix: tuple, nodes: tuple, slots: dict) -> tuple:
    """The function of the shape of ``nodes``, its constants, its source and
    its slots.  The shape is ``prefix`` and the ops of ``nodes`` in pre-order,
    with no name, and each op's constant sits at its index: a slot met first
    (i), its name, or again (~i, None); a ground node or another variable
    (None), the node itself; or else a node and its arity: ("a", n) an atom,
    its predicate, ("f", n) a compound, its functor, ("&", 2) a Conj, or
    ("E", 1) or ("E*", 1) an existential, its variable.  Clauses that differ
    only in names share a shape's function."""
    shape, consts, todo, met = [], [], list(reversed(nodes)), set()
    while todo:
        node = todo.pop()
        op, parts, label = None, (), node  # a constant
        if type(node) is Var and node.id in slots:
            i = slots[node.id]
            op, label = (~i, None) if i in met else (i, node.name)
            met.add(i)
        elif type(node) is Conj:
            op, parts, label = ("&", 2), (node.left, node.right), None
        elif type(node) is Exists:
            op, parts, label = ("E*" if node.noisy else "E", 1), (node.body,), node.var
        elif type(node) in (Atom, Compound) and not all(map(is_ground, node.args)):
            op, parts = ("a" if type(node) is Atom else "f", len(node.args)), node.args
            label = node.pred if type(node) is Atom else node.functor
        shape.append(op)
        consts.append(label)
        todo.extend(reversed(parts))
    shape = prefix + tuple(shape)
    if shape not in _functions:
        source, namespace = _source(shape), {}
        # with the engine's globals, so that unify_into is read here at each call
        exec(compile(source, "<clause>", "exec"), globals(), namespace)
        _functions[shape] = (namespace["f"], source)  # one store: programs are shared
    return _functions[shape][0], consts, _functions[shape][1], met


def _source(shape: tuple) -> str:
    """A head match (a "match" shape) or a body builder, one flat statement
    per op.  A node that is no constant is built once its parts are.  In a
    head, a slot met first takes the goal's term (see ``_linked``), and a
    compound with slots is matched or, where the goal has a variable, built
    over fresh slots met first and bound to it, with the occurs check only
    through the slots met again in it; while it is built, its flag ``sK``
    skips its arguments' ops."""
    match = shape[0] == "match"
    regs = [f"x{i}" for i in range(shape[1])] if match else []
    lines = [f"if len(a) != {shape[1]}: return False",
             f"({', '.join(regs)}{',' * bool(regs)}) = a"] if match else []
    frames = []  # open nodes: (register, flag, outer flag, index, op, parts, slots met again)
    for k, op in enumerate(shape[1 + match:]):
        reg, outer = regs.pop(0) if match else None, frames[-1][1] if frames else None
        skip = f"{outer} or " if outer else ""
        if type(op) is tuple and match:
            regs[:0] = new = [f"x{k}_{j}" for j in range(op[1])]
            lines += [f"s{k} = {skip}type({reg} := walk_shallow({reg}, b)) is Var",
                      f"if not s{k} and (type({reg}) is not Compound or {reg}.functor != c[{k}]"
                      f" or len({reg}.args) != {op[1]}): return False",
                      f"if not s{k}: ({', '.join(new)},) = {reg}.args"]
        if type(op) is tuple:
            frames.append((reg, match and f"s{k}", outer, k, op, [], {}))
            continue
        part = f"c[{k}]" if op is None else f"w[{op if op >= 0 else ~op}]"
        if match and op is not None and op >= 0:  # met first: the goal's term, or fresh if built
            lines.append(f"{part} = " + f"fresh_var(c[{k}]) if {outer} else " * bool(outer)
                         + f"walk_shallow({reg}, b) if oc else _linked(c[{k}], {reg}, b, t)")
        elif match:
            lines.append(f"if not ({skip}unify_into({part}, {reg}, b, t, oc)): return False")
            for frame in frames if op is not None else ():
                frame[6][part] = None
        while frames and len(frames[-1][5]) == frames[-1][4][1] - 1:  # nodes now complete
            reg, flag, outer, i, (tag, _), parts, again = frames.pop()
            parts = ", ".join(parts + [part])
            node = (f"Conj({parts})" if tag == "&" else
                    f"Exists(c[{i}], {parts}, {tag == 'E*'})" if tag[0] == "E" else
                    f"{'Atom' if tag == 'a' else 'Compound'}(c[{i}], ({parts},))")
            part, bind = f"v{i}", f"{flag} and not {outer}" if outer else flag
            if not match:
                lines.append(f"{part} = {node}")
                continue
            checks = " or ".join(f"occurs({reg}.id, {w}, b)" for w in again)
            lines += [f"if {bind} and oc and ({checks}): return False"] * bool(again) + [
                f"if {flag}: {part} = {node}",
                f"if {bind}: b[{reg}.id] = {part}; t.append({reg}.id)"]
        if frames:
            frames[-1][5].append(part)
    return ("def f(a, w, b, t, oc, c):" if match else "def f(w, c):") + "\n    " + "\n    ".join(
        lines + [f"return {'True' if match else part}"]) + "\n"


def _linked(name: str, term: Term, b: dict, t: list) -> Var:
    """A head slot's witness with the occurs check off: a fresh variable bound
    to ``term``, so that a cyclic binding prints cut at the clause's variable."""
    b[(v := fresh_var(name)).id] = walk_shallow(term, b)
    t.append(v.id)
    return v


def _compile(template: tuple) -> _Compiled:
    """A clause's ``(layers, core)``: slot i is the i-th universal (``names``),
    outermost first, ``noisy`` holds the noisy ones' (slot, name), innermost
    first, and ``fresh`` those of the ones absent from the head.  A try calls
    ``match(args, w, bindings, trail, oc, head)``, which sets the head's slots
    of ``w``, then ``build(w, body)``, None for a fact; ``head`` and ``body``
    are the constants, ``sources`` the sources."""
    layers, core = template
    slots = {layer.var.id: i for i, layer in enumerate(layers)}
    match, head, match_source, met = _generated(
        ("match", len(core.head.args)), core.head.args, slots)
    build, body, build_source, _ = (None,) * 4 if type(core) is Fact else _generated(
        ("build",), (core.body,), slots)
    return _Compiled(
        names=tuple(layer.var.name for layer in layers),
        noisy=tuple((i, layer.var.name) for i, layer in enumerate(layers) if layer.noisy)[::-1],
        fresh=tuple((i, layer.var.name) for i, layer in enumerate(layers) if i not in met),
        template=template, match=match, head=head, build=build, body=body,
        sources=(match_source, build_source), shown={})


def _key(term: Term):
    """The index key of a first argument: a constant's name, an Unknown's id
    tagged so that no name or functor key equals it, a compound's functor
    and arity, or None, which matches all, for a variable."""
    kind = type(term)
    if kind is Const:
        return term.name
    if kind is Compound:
        return (term.functor, len(term.args))
    return (Unknown, term.id) if kind is Unknown else None


@dataclass(slots=True, eq=False)
class _Entry:
    """A clause's ``(layers, core)``, and its code, None until its first try."""

    template: tuple
    code: Optional[_Compiled] = None


def _index(clauses: Sequence[Clause]) -> dict:
    """Per predicate ``(every, by_key, wild)``: its clauses as ``(position,
    entry)`` pairs in textual order, those of each first-argument key, and
    the variable-headed ones.  No list changes once built."""
    index: dict[str, tuple] = defaultdict(lambda: ([], {}, []))
    for pair in enumerate(_Entry(binders(clause)) for clause in clauses):
        head = pair[1].template[1].head
        every, by_key, wild = index[head.pred]
        key = _key(head.args[0]) if head.args else None
        (wild if key is None else by_key.setdefault(key, [])).append(pair)
        every.append(pair)
    return index


_NO_CLAUSES = ((), {}, ())  # the index's lists for a predicate with no clauses


class ProofSearch:
    """One in-progress search: owns its bindings, trail, and step list.

    Unless ``may_snapshot`` (``trace_enabled``, or set by a caller before
    the first solution), the steps are only the noisy binders' thetas,
    which is all ``answer`` reads.  A search is single threaded.  Several
    searches over the same immutable Program may run in parallel.
    """

    def __init__(self, program: Program, config: SolveConfig = SolveConfig()):
        if not program.index:  # the first search builds it, published in one store
            program.index.update(_index(program.clauses))
        self.program = program
        self.config = config
        self.may_snapshot = config.trace_enabled
        self.bindings: dict[int, Term] = {}
        self.trail: list[int] = []
        self.steps: list[tuple] = []  # (kind, focus, goal, theta), or the thetas alone
        self.depth_clipped = False

    # -- bookkeeping --------------------------------------------------------

    def candidates(self, goal: Atom) -> Sequence[tuple[int, _Entry]]:
        """The ``(position, entry)`` pairs of the clauses of ``goal``'s
        predicate that may match it, in textual order.

        They come from the program's index, by the goal's first argument
        under the current bindings: every clause of the predicate when
        that argument is unbound, else those whose first argument is a
        variable or has the same key (see ``_key``).  Only a key with
        both builds a list: the others are the index's own.
        """
        every, by_key, wild = self.program.index.get(goal.pred, _NO_CLAUSES)
        key = _key(walk_shallow(goal.args[0], self.bindings)) if goal.args else None
        if key is None:  # no first argument, or an unbound one
            return every
        own = by_key.get(key)
        if own is None:
            return wild
        return sorted(own + wild) if wild else own

    def backchain(self, entry: _Entry, goal: Atom, depth: int, cont: tuple):
        """Try ``entry``'s clause, of ``goal``'s predicate, on ``goal``, with
        fresh variables for the universals absent from its head (the match
        sets the rest): the continuation that proves its body one call
        deeper, records its bc steps ``(code, depth, witnesses)`` and the
        atom's pv step (or their thetas alone), then goes on with ``cont``;
        or False when the head does not match."""
        code = entry.code
        if code is None:  # not compiled yet: one store, as sessions share the entry
            code = entry.code = _compile(entry.template)
        w = [None] * len(code.names)
        for i, name in code.fresh:
            w[i] = fresh_var(name)
        if not code.match(goal.args, w, self.bindings, self.trail, self.config.occurs_check,
                          code.head):
            return False
        if self.may_snapshot:
            group, layers = [], code.template[0]
            for i in range(len(layers), -1, -1):  # the core first, then each layer inward out
                theta = (layers[i].var.name, w[i]) if i < len(layers) and layers[i].noisy else None
                group.append(("bc", (code, i, w), goal, theta))
            group.append(("pv", self.program, goal, None))
            cont = (None, group, cont)
        elif code.noisy:
            cont = (None, [(name, w[i]) for i, name in code.noisy], cont)
        return cont if code.build is None else (code.build(w, code.body), depth + 1, cont)

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
                    template = chain, goal = binders(goal)
                    witnesses, group = [fresh_var(b.var.name) for b in chain], []
                    for i in range(len(chain) - 1, -1, -1):  # innermost first
                        theta = (chain[i].var.name, witnesses[i]) if chain[i].noisy else None
                        if not lean:
                            layer = _Layer(template, witnesses, i) if i else chain[0]
                            group.append(("pv", program, layer, theta))
                        elif theta:
                            group.append(theta)
                    if group:
                        cont = (None, group, cont)
                    # no witness holds a binder of its chain: no chain goes past one link
                    renaming = {b.var.id: w for b, w in zip(chain, witnesses)}
                    cont = (map_terms(goal, partial(resolve_term, bindings=renaming)), depth, cont)
                    continue
                if depth > limit:
                    self.depth_clipped = True
                else:
                    candidates = self.candidates(goal)  # ordered clause trial
                    if len(candidates) == 1:  # no choicepoint: an older one's mark undoes a miss
                        cont = self.backchain(candidates[0][1], goal, depth, cont)
                        if cont is not False:
                            continue
                    elif candidates:
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
                cont = self.backchain(candidates[i][1], atom, depth, after)
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
        if not isinstance(goal, (Atom, Conj, Exists)):  # wellformed would check it as a clause
            raise EngineError(f"not a goal node: {goal!r}")
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
            self.solutions_found += 1
            yield Solution(answer=answer, trace=trace)
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


def step_texts(trace: ProofTrace) -> Iterator[tuple]:
    """Each step as ``(index, kind, goal, focus text, goal text, theta)``,
    its goal raw and its theta's term as text, printed from the trace's
    bindings: each node once, and each variable once unless it cut a cycle."""
    bindings, memo, texts = trace.bindings, {}, {}

    def var_text(v: Term) -> str:  # a clause's witness may be any term
        if type(v) is Var and v.id in memo:
            return memo[v.id]
        return resolve_term(v, bindings, memo, format_term, compound_text)

    def goal_text(goal) -> str:
        if type(goal) is _Layer:  # a some chain's layer belongs to one step
            node, renaming = goal.parts()
            return format_goal(node, lambda v: var_text(renaming.get(v.id, v)))
        if id(goal) not in texts:
            texts[id(goal)] = format_goal(goal, var_text)
        return texts[id(goal)]

    for i, (kind, focus, goal, theta) in enumerate(trace.raw_steps, 1):
        clause = focus.name if kind == "pv" else focus[0].text(focus[1], focus[2], var_text)
        theta = theta and (theta[0], var_text(theta[1]))
        yield i, kind, goal, clause, goal_text(goal), theta


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
        core = goal.template[1] if type(goal) is _Layer else binders(goal)[1]
        text = f"({text})" if type(core) is Conj else text
        lines.append(f"{index}. pv({label}, {text}, {theta})")
    pairs = ", ".join(
        f"{shown} = {format_term(term)}"
        for shown, (_, term) in zip(display_names(answer), answer)
    )
    lines.append(f"answer: {{{pairs}}}")
    return "\n".join(lines)
