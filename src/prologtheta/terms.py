"""First-order terms, the two loops that walk them, and destructive,
trailed unification.

Terms are immutable values; sharing them across threads is safe.  The only
mutable state in this module is the pair of fresh-id counters, which are
plain ``itertools.count`` objects and therefore atomic under CPython.

Bindings are kept in triangular form: a binding's term may itself mention
bound variables.  ``resolve_term`` resolves through the chains, so the
observable behaviour is idempotent even though the stored map is not fully
resolved.  Triangular form is what makes backtracking cheap: the engine
undoes bindings by truncating a trail instead of rebuilding maps.

Every walk over a term is a loop over an explicit stack (``subterms``,
``fold_term``, ``resolve_term`` and unification), so a term's depth costs
heap, not Python frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union


@dataclass(frozen=True)
class Var:
    """A logic variable; two Vars denote the same variable iff ids match."""

    name: str
    id: int


@dataclass(frozen=True)
class Const:
    """A 0-ary constant.  Integer literals are constants with digit names."""

    name: str


@dataclass(frozen=True)
class Unknown:
    """A don't-know constant: ground and opaque.

    Unknowns unify with themselves and with variables, never with other
    constants or with distinct Unknowns.  They print as ``?k<id>``.
    """

    id: int


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        # 0-ary data is a Const, never a Compound.
        if len(self.args) < 1:
            raise ValueError("compound terms need at least one argument")


@dataclass(frozen=True)
class Star:
    """Placeholder for a ``*`` argument in source text.

    Only raw, just-parsed clauses may contain it; loading replaces every
    occurrence with a fresh Unknown.
    """


Term = Union[Var, Const, Unknown, Compound]

_var_ids = itertools.count(1)
_unknown_ids = itertools.count(1)


def fresh_var(hint: str = "_") -> Var:
    """Return a variable with an id never issued before in this session."""
    return Var(hint, next(_var_ids))


def fresh_unknown() -> Unknown:
    return Unknown(next(_unknown_ids))


def reserve_var_ids(top: int) -> None:
    """Draw no variable id up to ``top`` from now on; a positive ``top`` may
    skip one id, as the counter is read by drawing from it."""
    global _var_ids
    if top and next(_var_ids) <= top:
        _var_ids = itertools.count(top + 1)


def reset_fresh_counters() -> None:
    """Restart id numbering.  Meant for tests and fresh CLI sessions: call it
    before loading the programs it serves, as a fresh id drawn later may
    equal the id of a binder in a program loaded before (a goal's own are
    reserved when it is solved)."""
    global _var_ids, _unknown_ids
    _var_ids = itertools.count(1)
    _unknown_ids = itertools.count(1)


def compound(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


def subterms(term: Term) -> Iterator[Term]:
    """The term and all its subterms, pre-order, in textual order."""
    stack = [term]
    while stack:
        term = stack.pop()
        yield term
        if type(term) is Compound:
            stack.extend(reversed(term.args))


def fold_term(term: Term, leaf: Callable, node: Callable = Compound):
    """Rebuild a term bottom-up: ``leaf`` maps each non-compound subterm,
    left to right, and ``node(functor, args)`` joins a compound's rebuilt
    arguments, as ``resolve_term`` does under no bindings."""
    return leaf(term) if type(term) is not Compound else resolve_term(term, {}, None, leaf, node)


def is_ground(term: Term) -> bool:
    """True iff the term contains no variables.  Unknowns count as ground."""
    if type(term) is not Compound:
        return type(term) is not Var
    return not any(type(t) is Var for t in subterms(term))


def walk_shallow(term: Term, bindings: Mapping[int, Term]) -> Term:
    """Follow variable links until an unbound variable or non-variable."""
    while type(term) is Var:
        bound = bindings.get(term.id)
        if bound is None:
            return term
        term = bound
    return term


def resolve_term(term: Term, bindings: Mapping[int, Term], memo: Optional[dict] = None,
                 leaf: Callable = lambda term: term, node: Callable = Compound):
    """Deep-resolve a term through a (triangular) binding map, in a loop.

    A variable met again inside its own binding (a cyclic map, made with the
    occurs check off) is left in place.  ``memo`` maps variable ids to their
    resolved terms for calls over the same bindings; it never keeps one whose
    resolution cut a cycle, as that form depends on where it was entered.
    With ``leaf`` and ``node`` it folds as ``fold_term`` does; ``memo`` holds folds.
    """
    memo = {} if memo is None else memo
    if type(term) is Var:
        bound = bindings.get(term.id)
        if bound is None or type(bound) not in (Var, Compound):  # unbound, or one link
            memo[term.id] = leaf(term if bound is None else bound)
        if term.id in memo:
            return memo[term.id]
    elif type(term) is not Compound:
        return leaf(term)
    path, cuts, out, todo = set(), 0, [], [term]  # todo: terms, and marks finishing one
    while todo:
        item = todo.pop()
        if type(item) is Var:
            bound = bindings.get(item.id)
            if item.id in memo or bound is None or item.id in path:
                cuts += item.id in path  # a cycle, cut here
                out.append(memo[item.id] if item.id in memo else leaf(item))
            else:
                path.add(item.id)
                todo += ((item.id, cuts), bound)
        elif type(item) is Compound:
            todo.append((item,))
            todo.extend(item.args[::-1])
        elif type(item) is not tuple:
            out.append(leaf(item))
        elif len(item) == 1:  # (compound,): its arguments are resolved
            n = len(item[0].args)
            out[-n:] = [node(item[0].functor, tuple(out[-n:]))]
        else:  # (variable id, cuts on entry): its binding is resolved
            path.discard(item[0])
            if cuts == item[1]:
                memo[item[0]] = out[-1]
    return out[0]


def occurs(var_id: int, term: Term, bindings: Mapping[int, Term]) -> bool:
    """True iff the variable numbered ``var_id`` occurs in ``term`` under ``bindings``."""
    stack = [term]
    while stack:
        term = walk_shallow(stack.pop(), bindings)
        if type(term) is Var:
            if term.id == var_id:
                return True
        elif type(term) is Compound:
            stack.extend(term.args)
    return False


def unify_into(
    t1: Term,
    t2: Term,
    bindings: dict,
    trail: list,
    occurs_check: bool = True,
) -> bool:
    """Destructively unify into ``bindings``; the engine's inner loop.

    New bindings are appended to ``trail`` so a caller can undo them on
    backtracking.  On failure ``bindings`` may hold partial
    work; callers are expected to roll back to their own trail mark.
    Argument pairs are unified left to right.  With the occurs check off,
    bindings may be cyclic: a pair of compounds met a second time is taken
    as equal, as it is being or has been unified, so unifying rational
    trees ends (Colmerauer 1982).
    """
    todo, seen = (), None if occurs_check else set()  # pairs left; compound pairs met
    while True:
        t1 = walk_shallow(t1, bindings)
        t2 = walk_shallow(t2, bindings)
        if type(t2) is Var and type(t1) is not Var:
            t1, t2 = t2, t1  # bind the variable
        if type(t1) is Var:
            if type(t2) is not Var or t1.id != t2.id:
                if occurs_check and type(t2) is Compound and occurs(t1.id, t2, bindings):
                    return False
                bindings[t1.id] = t2
                trail.append(t1.id)
        elif type(t1) is Compound:
            if type(t2) is not Compound or t1.functor != t2.functor or len(t1.args) != len(t2.args):
                return False
            if seen is None or (id(t1), id(t2)) not in seen:
                if seen is not None:
                    seen.add((id(t1), id(t2)))
                todo = todo or []
                todo.extend(zip(reversed(t1.args), reversed(t2.args)))
        elif type(t1) is Const:
            if type(t2) is not Const or t1.name != t2.name:
                return False
        elif type(t2) is not Unknown or t1.id != t2.id:  # t1 is an Unknown
            return False
        if not todo:
            return True
        t1, t2 = todo.pop()
