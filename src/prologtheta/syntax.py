"""Goal and clause ASTs, variable desugaring, and well-formedness checks.

Goals are atoms, conjunctions, and existentials; clauses are facts, rules,
and universals.  A program is a clause list, so a conjunction of clauses
needs no node of its own.  Quantifier nodes carry a ``noisy`` flag: noisy
binders (surface ``some*`` / ``all*``) record their instantiation in the
answer substitution, silent ones do not.

Raw ASTs coming out of the parser may contain free variables and anonymous
``_`` variables.  Desugaring closes them: in clauses they become silent
universals, in queries ``_`` becomes a silent existential and named free
variables become noisy ones, as a conventional top level displays every
query binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .terms import Compound, Star, Term, Var, fold_term, fresh_unknown, fresh_var, reserve_var_ids
from .terms import subterms


@dataclass(frozen=True)
class Atom:
    """A predicate applied to zero or more terms."""

    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Conj:
    left: "Goal"
    right: "Goal"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "Goal"
    noisy: bool


Goal = Union[Atom, Conj, Exists]


@dataclass(frozen=True)
class Fact:
    head: Atom


@dataclass(frozen=True)
class Rule:
    """``head :- body``: the head holds whenever the body is provable."""

    head: Atom
    body: Goal


@dataclass(frozen=True)
class Forall:
    var: Var
    inner: "Clause"
    noisy: bool


Clause = Union[Fact, Rule, Forall]


def atom(pred: str, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


# ---------------------------------------------------------------------------
# One traversal for every pass over goals and clauses.


class NodeError(TypeError):
    """A goal node in clause position, or a clause node in goal position."""


_CLAUSE_NODES = (Fact, Rule, Forall)


def _keep(var: Var, noisy: bool, scope):
    return var, noisy, scope


def fold(node, on_atom, on_binder=_keep, scope=None):
    """Copy a goal or clause, handing every atom and binder to a callback.

    ``on_atom(atom, scope)`` returns the copy of each atom, clause heads
    included.  ``on_binder(var, noisy, scope)`` returns the ``(var, noisy,
    inner_scope)`` of each quantifier before its body is copied, so a
    binder's scope covers exactly the atoms under it; by default binders
    are kept as they are.  Callbacks run in textual order (left before
    right, head before body), which fixes the order of any fresh ids they
    draw.  Raises NodeError for a node out of place.
    """
    return _fold(node, not isinstance(node, _CLAUSE_NODES), on_atom, on_binder, scope)


def _fold(node, in_goal: bool, on_atom, on_binder, scope):
    if in_goal:
        if isinstance(node, Atom):
            return on_atom(node, scope)
        if isinstance(node, Conj):
            # a rule body is a right-nested Conj chain: walk its spine in a
            # loop, so that a long body costs no Python stack
            lefts = []
            while isinstance(node, Conj):
                lefts.append(_fold(node.left, True, on_atom, on_binder, scope))
                node = node.right
            out = _fold(node, True, on_atom, on_binder, scope)
            while lefts:
                out = Conj(lefts.pop(), out)
            return out
    elif isinstance(node, Fact):
        return Fact(on_atom(node.head, scope))
    elif isinstance(node, Rule):
        return Rule(on_atom(node.head, scope), _fold(node.body, True, on_atom, on_binder, scope))
    binder = Exists if in_goal else Forall
    if isinstance(node, binder):
        # a closed query or clause starts with a chain of binders, one per
        # variable: walk it in a loop, so that many variables cost no stack
        chain = []
        while isinstance(node, binder):
            var, noisy, scope = on_binder(node.var, node.noisy, scope)
            chain.append((var, noisy))
            node = node.body if in_goal else node.inner
        out = _fold(node, in_goal, on_atom, on_binder, scope)
        while chain:
            var, noisy = chain.pop()
            out = binder(var, out, noisy)
        return out
    if in_goal and isinstance(node, _CLAUSE_NODES):
        raise NodeError("universal/clause construct not allowed in a goal")
    if not in_goal and isinstance(node, (Conj, Exists)):
        raise NodeError("existential not allowed in a clause")
    raise NodeError(f"not a {'goal' if in_goal else 'clause'} node: {node!r}")


def map_terms(node, f):
    """Copy a goal or clause with ``f`` applied to every atom argument."""
    return fold(node, lambda a, _: Atom(a.pred, tuple(map(f, a.args))))


def iter_atoms(node) -> list[Atom]:
    """The atoms of a goal or clause in textual order, heads first."""
    atoms: list[Atom] = []

    def visit(a: Atom, _) -> Atom:
        atoms.append(a)
        return a

    fold(node, visit)
    return atoms


# ---------------------------------------------------------------------------
# Desugaring.


class _FreeVars:
    """Free names and anonymous occurrences in first-occurrence order.

    A free name declared in ``unknowns`` is that Unknown, not a variable,
    and a binder that reuses a declared name is collected in ``clashes``.
    With ``skolemize``, each ``*`` becomes a fresh Unknown.
    """

    def __init__(self, unknowns: dict, skolemize: bool) -> None:
        self.named: dict[str, Var] = {}
        self.order: list[Var] = []
        self.unknowns = unknowns
        self.skolemize = skolemize
        self.clashes: set[str] = set()

    def for_name(self, name: str) -> Term:
        v = self.named.get(name) or self.unknowns.get(name)
        if v is None:
            v = fresh_var(name)
            self.named[name] = v
            self.order.append(v)
        return v

    def for_anonymous(self) -> Var:
        v = fresh_var("_")
        self.order.append(v)
        return v


def _desugar(node, free: _FreeVars):
    def on_atom(a: Atom, scope: tuple) -> Atom:
        env, active = scope

        def leaf(term: Term) -> Term:
            if isinstance(term, Var):
                if term.name == "_":
                    # an anonymous occurrence already closed by an enclosing
                    # binder must stay put; a fresh one gets its own quantifier
                    if term.id in active:
                        return term
                    return free.for_anonymous()
                if term.name in env:
                    return env[term.name]
                return free.for_name(term.name)
            if isinstance(term, Star) and free.skolemize and not free.clashes:
                return fresh_unknown()
            return term

        return Atom(a.pred, tuple(fold_term(t, leaf) for t in a.args))

    def on_binder(var: Var, noisy: bool, scope: tuple) -> tuple:
        # Keep the parsed binder variable unless an enclosing binder already
        # uses the same id (same-name nesting shares provisional ids).
        env, active = scope
        if var.name in free.unknowns:
            free.clashes.add(var.name)
        v = fresh_var(var.name) if var.id in active else var
        return v, noisy, ({**env, var.name: v}, active | {v.id})

    return fold(node, on_atom, on_binder, ({}, set()))


def desugar_clause_vars(raw_clause: Clause, unknowns: Optional[dict] = None) -> Clause:
    """Close a clause: free and anonymous variables become silent universals.

    Explicit ``all`` / ``all*`` binders are preserved; each ``_`` occurrence
    gets its own quantifier.  Closure wraps the clause in first-occurrence
    order, outermost first.  Already-closed clauses come back unchanged.

    Loading Skolemizes in the same pass: a free name declared in
    ``unknowns`` becomes its Unknown, and each ``*`` a fresh Unknown in
    textual order.  Raises ValueError when an explicit binder reuses a
    declared name; a fact's binders all precede its ``*``s, so a rejected
    fact draws no Unknown.
    """
    free = _FreeVars(unknowns or {}, skolemize=True)
    out = _desugar(raw_clause, free)
    if free.clashes:
        raise ValueError(f"ambiguous unknown scope: {', '.join(sorted(free.clashes))}")
    for v in reversed(free.order):
        out = Forall(v, out, noisy=False)
    return out


def desugar_query_vars(raw_goal: Goal) -> Goal:
    """Close a query goal.

    ``_`` occurrences become silent existentials; named free variables
    become noisy ones.  Explicit ``some`` / ``some*`` binders are preserved.
    """
    free = _FreeVars({}, skolemize=False)
    out = _desugar(raw_goal, free)
    for v in reversed(free.order):
        out = Exists(v, out, noisy=v.name != "_")
    return out


# ---------------------------------------------------------------------------
# Well-formedness.


def wellformed(node: Union[Goal, Clause], *, arities: Optional[dict] = None) -> list[str]:
    """Check closedness, arity consistency, and node placement.

    Returns a list of violation messages; empty means ok.  ``arities`` may
    be a shared predicate table so consistency is enforced across a whole
    program (it is extended in place).  Every binder's id is reserved, so
    no variable drawn later, after a counter reset too, can take it.
    """
    errors: list[str] = []
    if arities is None:
        arities = {}

    def check_term(term: Term, bound: frozenset) -> None:
        for t in subterms(term) if type(term) is Compound else (term,):
            if isinstance(t, Var):
                if t.id not in bound:
                    errors.append(f"unbound variable {t.name}")
            elif isinstance(t, Star):
                errors.append("placeholder '*' not allowed here")

    def check_atom(a: Atom, bound: frozenset) -> Atom:
        seen = arities.get(a.pred)
        if seen is None:
            arities[a.pred] = len(a.args)
        elif seen != len(a.args):
            errors.append(
                f"predicate {a.pred} used with arity {len(a.args)} after arity {seen}"
            )
        for t in a.args:
            check_term(t, bound)
        return a

    def bind(var: Var, noisy: bool, bound: frozenset) -> tuple:
        reserve_var_ids(var.id)
        return var, noisy, bound | {var.id}

    try:
        fold(node, check_atom, bind, frozenset())
    except NodeError as err:
        errors.append(str(err))
    return errors


# ---------------------------------------------------------------------------
# Small AST utilities shared by the loader, the engine, and tests.


def silent_twin(node: Union[Goal, Clause]) -> Union[Goal, Clause]:
    """Copy with every noisy quantifier replaced by its silent version."""
    return fold(node, lambda a, _: a, lambda var, _, scope: (var, False, scope))
