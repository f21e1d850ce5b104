"""Brute-force reference prover over finite ground instantiations.

This is the verification oracle: it decides derivability by enumerating,
over a finite universe of ground terms, every instantiation of each
quantifier (silent ones too), except a clause universal that matching the
clause head with the ground atom being proved fixes, and collects the set
of distinct noisy-binding lists of successful derivations.

It deliberately shares nothing with the search engine beyond the term and
formula types, so it can serve as an independent check.  It is not meant
to be fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .terms import Compound, Const, Term, Unknown, Var, fold_term, subterms
from .syntax import Atom, Clause, Conj, Exists, Fact, Forall, Goal, iter_atoms
from .loader import Program


class OracleOverflow(Exception):
    """The enumeration exceeded its combinatorial work limit."""


@dataclass(frozen=True)
class Universe:
    """Ground terms available for instantiation choices."""

    terms: tuple[Term, ...]


_UNIVERSE_CAP = 50_000


def herbrand_universe(program: Program, depth_bound: int, goal: Goal) -> Universe:
    """All ground terms over the constants, Unknowns, and functors of the
    program and of ``goal``, with nesting at most ``depth_bound``.

    Constants appear in first-occurrence order, the goal's last.  Without
    constants the universe is empty: compounds need arguments, so no depth
    bound can conjure terms from nothing.
    """
    consts: dict[Term, None] = {}  # dicts keep first-occurrence order
    functors: dict[tuple[str, int], None] = {}
    for node in (*program.clauses, goal):
        for a in iter_atoms(node):
            for term in a.args:
                for t in subterms(term):
                    if isinstance(t, Compound):
                        functors.setdefault((t.functor, len(t.args)))
                    elif isinstance(t, (Const, Unknown)):
                        consts.setdefault(t)
    terms: list[Term] = list(consts)
    seen = set(terms)
    for _ in range(depth_bound):
        if not functors or not terms:
            break
        new: list[Term] = []
        for functor, arity in functors:
            for args in itertools.product(terms, repeat=arity):
                candidate = Compound(functor, args)
                if candidate not in seen:
                    seen.add(candidate)
                    new.append(candidate)
                if len(seen) > _UNIVERSE_CAP:
                    raise OracleOverflow(
                        f"universe exceeds {_UNIVERSE_CAP} terms at depth {depth_bound}"
                    )
        if not new:
            break
        terms.extend(new)
    return Universe(terms=tuple(terms))


def _ground_atom(a: Atom, env: Mapping[int, Term]) -> Atom:
    def leaf(t: Term) -> Term:
        if isinstance(t, Var):
            try:
                return env[t.id]
            except KeyError:
                raise ValueError(f"open term: variable {t.name} is not quantified")
        return t

    return Atom(a.pred, tuple(fold_term(t, leaf) for t in a.args))


def _match(pattern: tuple, ground: tuple, env: dict) -> bool:
    """One-way match of a clause head's arguments against ground ones, in a
    loop over (pattern, ground) pairs, extending ``env`` (variable id to
    term).  A variable met again matches its ground term as a pattern, so
    deep terms are never compared with ``==``."""
    todo = [(pattern, ground)]
    while todo:
        pattern, ground = todo.pop()
        if isinstance(pattern, tuple):
            if len(pattern) != len(ground):
                return False
            todo.extend(zip(pattern, ground))
        elif isinstance(pattern, Var):
            bound = env.setdefault(pattern.id, ground)
            if bound is not ground:
                todo.append((bound, ground))
        elif isinstance(pattern, Compound):
            if not isinstance(ground, Compound) or pattern.functor != ground.functor:
                return False
            todo.append((pattern.args, ground.args))
        elif pattern != ground:
            return False
    return True


class _Enumerator:
    def __init__(self, program: Program, universe: Universe, work_limit: int):
        self.program = program
        self.universe = universe
        self.work_limit = work_limit
        self.work = 0
        self.memo: dict[tuple[Atom, int], frozenset] = {}

    def _tick(self, work: int = 1) -> None:
        self.work += work
        if self.work > self.work_limit:
            raise OracleOverflow(f"work limit {self.work_limit} exceeded")

    def prove(self, goal: Goal, env: dict, depth: int) -> frozenset:
        """Set of noisy-binding lists over all derivations of ``goal`` that
        nest at most ``depth`` calls; each rule body is one call deeper."""
        self._tick()
        if isinstance(goal, Atom):
            if depth <= 0:
                return frozenset()
            ground = _ground_atom(goal, env)
            key = (ground, depth)
            cached = self.memo.get(key)
            if cached is not None:
                return cached
            out: set = set()
            for clause in self.program.clauses:
                out |= self.chain(clause, ground, depth)
            result = frozenset(out)
            self.memo[key] = result
            return result
        if isinstance(goal, Conj):
            # walk a Conj chain's spine in a loop, one tick per Conj node
            out = None
            while True:
                part = self.prove(goal.left if isinstance(goal, Conj) else goal, env, depth)
                out = part if out is None else {o + p for o in out for p in part}
                if not out or not isinstance(goal, Conj):
                    return frozenset(out)
                goal = goal.right
                if isinstance(goal, Conj):
                    self._tick()
        if isinstance(goal, Exists):  # walk a chain of binders in a loop
            binders = []
            while isinstance(goal, Exists):
                binders.append(goal)
                goal = goal.body
            for i in range(1, len(binders)):  # one tick per call a recursion would make
                self._tick(len(self.universe.terms) ** i)
            noisy = [(i, b.var.name) for i, b in enumerate(binders) if b.noisy][::-1]
            out = set()
            for combo in itertools.product(self.universe.terms, repeat=len(binders)):
                inner = {**env, **{b.var.id: t for b, t in zip(binders, combo)}}
                thetas = tuple((name, combo[i]) for i, name in noisy)  # innermost first
                out |= {ans + thetas for ans in self.prove(goal, inner, depth)}
            return frozenset(out)
        raise TypeError(f"not a goal node: {goal!r}")

    def chain(self, clause: Clause, target: Atom, depth: int) -> frozenset:
        """Set of noisy-binding lists over the derivations of ``target`` by
        ``clause``, one per choice of a universe term for each universal that
        matching the head with ``target`` leaves open, in a loop."""
        layers, core = [], clause
        while isinstance(core, Forall):
            layers.append(core)
            core = core.inner
        self._tick()
        fixed: dict = {}
        if core.head.pred != target.pred or not _match(core.head.args, target.args, fixed):
            return frozenset()
        picks = [(fixed[layer.var.id],) if layer.var.id in fixed else self.universe.terms
                 for layer in layers]
        calls = 1
        for options in picks:  # one tick per call a recursion over the layers makes
            calls *= len(options)
            self._tick(calls)
        noisy = [(i, layer.var.name) for i, layer in enumerate(layers) if layer.noisy][::-1]
        out: set = set()
        for combo in itertools.product(*picks):
            sub = ({()} if isinstance(core, Fact) else
                   self.prove(core.body, {layer.var.id: pick for layer, pick in zip(layers, combo)},
                              depth - 1))
            thetas = tuple((name, combo[i]) for i, name in noisy)  # innermost first
            out |= {ans + thetas for ans in sub}
        return frozenset(out)


def oracle_solve(
    program: Program,
    goal: Goal,
    universe: Universe,
    *,
    depth_bound: int = 32,
    work_limit: int = 2_000_000,
) -> frozenset:
    """Set of answer lists derivable for a closed goal.

    Enumerates every assignment of universe terms to the quantifiers that
    clause heads leave open, keeping the noisy bindings of each successful
    derivation in the premise-first order the engine records them.
    ``depth_bound`` counts nested calls as the engine's ``max_depth`` does.
    Enlarging the universe or the depth bound never removes answers.
    Raises OracleOverflow past the work limit.
    """
    enum = _Enumerator(program, universe, work_limit)
    return enum.prove(goal, {}, depth_bound)
