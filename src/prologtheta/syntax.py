"""Goal and clause ASTs, variable desugaring, and well-formedness checks.

Goals are atoms, conjunctions, and existentials; clauses are facts, rules,
and universals.  A program is a clause list, so a conjunction of clauses
needs no node of its own.  Quantifier nodes carry a ``noisy`` flag: noisy
binders (surface ``some*`` / ``all*``) record their instantiation in the
answer substitution, silent ones do not.  Every pass, the engine's and the
oracle's too, walks a chain of binders with ``binders``, the one walk.

Raw ASTs coming out of the parser may contain free variables and anonymous
``_`` variables.  Desugaring closes them: in clauses they become silent
universals, in queries ``_`` becomes a silent existential and named free
variables become noisy ones, as a conventional top level displays every
query binding.
"""

from __future__ import annotations

from typing import Optional, Union

from .terms import Compound, Star, Term, Var, fold_term, fresh_unknown, fresh_var, node_class
from .terms import reserve_var_ids, subterms


@node_class()
class Atom:
    """A predicate applied to zero or more terms."""

    pred: str
    args: tuple[Term, ...]


@node_class()
class Conj:
    left: "Goal"
    right: "Goal"


@node_class()
class Exists:
    var: Var
    body: "Goal"
    noisy: bool


Goal = Union[Atom, Conj, Exists]


@node_class()
class Fact:
    head: Atom


@node_class()
class Rule:
    """``head :- body``: the head holds whenever the body is provable."""

    head: Atom
    body: Goal


@node_class()
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


def binders(node) -> tuple:
    """The run of ``Forall``s or of ``Exists`` that ``node`` starts with,
    outermost first, and the node past them, walked in a loop: a closed
    clause or query has a binder per variable, and many cost no stack."""
    chain = []
    if type(node) is Forall:
        while type(node) is Forall:
            chain.append(node)
            node = node.inner
    else:
        while type(node) is Exists:
            chain.append(node)
            node = node.body
    return tuple(chain), node


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
        chain, core = binders(node)
        kept = []
        for b in chain:
            var, noisy, scope = on_binder(b.var, b.noisy, scope)
            kept.append((var, noisy))
        out = _fold(core, in_goal, on_atom, on_binder, scope)
        for var, noisy in reversed(kept):
            out = binder(var, out, noisy)
        return out
    if in_goal and isinstance(node, _CLAUSE_NODES):
        raise NodeError("universal/clause construct not allowed in a goal")
    if not in_goal and isinstance(node, Exists):
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


def _desugar(node, in_goal: bool, unknowns: dict, arities: Optional[dict]):
    # free names and anonymous occurrences, in first-occurrence order; a free
    # name declared in ``unknowns`` is that Unknown, not a variable
    named: dict[str, Var] = {}
    order: list[Var] = []
    clashes: set[str] = set()  # binders that reuse a declared name
    uses: list[tuple[str, int]] = []  # each atom's predicate and arity

    def on_atom(a: Atom, scope: tuple) -> Atom:
        env, active = scope
        uses.append((a.pred, len(a.args)))

        def leaf(term: Term) -> Term:
            if isinstance(term, Var):
                if term.name == "_":
                    # an anonymous occurrence already closed by an enclosing
                    # binder must stay put; a fresh one gets its own quantifier
                    if term.id in active:
                        return term
                    v = fresh_var("_")
                elif term.name in env:
                    return env[term.name]
                else:
                    v = named.get(term.name) or unknowns.get(term.name)
                    if v is not None:
                        return v
                    v = named[term.name] = fresh_var(term.name)
                order.append(v)
                return v
            if isinstance(term, Star) and not in_goal and not clashes:
                return fresh_unknown()
            return term

        return Atom(a.pred, tuple(fold_term(t, leaf) for t in a.args))

    def on_binder(var: Var, noisy: bool, scope: tuple) -> tuple:
        # Keep the parsed binder variable unless an enclosing binder already
        # uses the same id (same-name nesting shares provisional ids).
        env, active = scope
        if var.name in unknowns:
            clashes.add(var.name)
        reserve_var_ids(var.id)
        v = fresh_var(var.name) if var.id in active else var
        return v, noisy, ({**env, var.name: v}, active | {v.id})

    out = _fold(node, in_goal, on_atom, on_binder, ({}, set()))
    if clashes:
        raise ValueError(f"ambiguous unknown scope: {', '.join(sorted(clashes))}")
    if arities is not None:
        issues = [p for pred, arity in uses for p in arity_issues(pred, arity, arities)]
        if issues:
            raise ValueError(*issues)
    binder = Exists if in_goal else Forall
    for v in reversed(order):
        out = binder(v, out, in_goal and v.name != "_")
    return out


def desugar_clause_vars(raw_clause: Clause, unknowns: Optional[dict] = None, *,
                        arities: Optional[dict] = None) -> Clause:
    """Close a clause: free and anonymous variables become silent universals.

    Explicit ``all`` / ``all*`` binders are preserved; each ``_`` occurrence
    gets its own quantifier.  Closure wraps the clause in first-occurrence
    order, outermost first.  Already-closed clauses come back unchanged.
    Every binder's id is reserved, so no variable drawn later, after a
    counter reset too, can take it.

    Loading Skolemizes and checks in the same fold: a free name declared in
    ``unknowns`` becomes its Unknown, and each ``*`` a fresh Unknown in
    textual order.  Given a shared ``arities`` table, each atom's arity is
    entered into it after the fold, as ``wellformed`` would, and without
    one no arity is checked.  Raises NodeError for a node out of place, and
    ValueError when an explicit binder reuses a declared name or, failing
    that, with one argument per arity clash.  A clause rejected for a node
    or a binder enters no arity; a fact's binders all precede its ``*``s,
    so a rejected fact draws no Unknown.
    """
    return _desugar(raw_clause, False, unknowns or {}, arities)


def desugar_query_vars(raw_goal: Goal) -> Goal:
    """Close a query goal.

    ``_`` occurrences become silent existentials; named free variables
    become noisy ones.  Explicit ``some`` / ``some*`` binders are preserved.
    """
    return _desugar(raw_goal, True, {}, None)


# ---------------------------------------------------------------------------
# Well-formedness.


def arity_issues(pred: str, arity: int, arities: dict) -> list[str]:
    """Enter ``pred``'s arity at its first use; the issue of a use with another."""
    seen = arities.setdefault(pred, arity)
    return [] if seen == arity else [f"predicate {pred} used with arity {arity} after arity {seen}"]


def wellformed(node: Union[Goal, Clause], *, arities: Optional[dict] = None) -> list[str]:
    """Check closedness, arity consistency, and node placement.

    Returns a list of violation messages; empty means ok.  ``arities`` may
    be a shared predicate table so consistency is enforced across a whole
    program (it is extended in place).  Every binder's id is reserved, so
    no variable drawn later, after a counter reset too, can take it.
    Solving checks each goal with it; loading checks a clause's arities
    in the fold that desugars it, which leaves nothing else to find.
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
        errors.extend(arity_issues(a.pred, len(a.args), arities))
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
