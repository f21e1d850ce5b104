"""First-order terms and destructive, trailed unification.

Terms are immutable values; sharing them across threads is safe.  The only
mutable state in this module is the pair of fresh-id counters, which are
plain ``itertools.count`` objects and therefore atomic under CPython.

Bindings are kept in triangular form: a binding's term may itself mention
bound variables.  ``resolve_term`` resolves through the chains, so the
observable behaviour is idempotent even though the stored map is not fully
resolved.  Triangular form is what makes backtracking cheap: the engine
undoes bindings by truncating a trail instead of rebuilding maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union


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


def reset_fresh_counters() -> None:
    """Restart id numbering.  Meant for tests and fresh CLI sessions."""
    global _var_ids, _unknown_ids
    _var_ids = itertools.count(1)
    _unknown_ids = itertools.count(1)


def compound(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


def is_ground(term: Term) -> bool:
    """True iff the term contains no variables.  Unknowns count as ground."""
    if isinstance(term, Var):
        return False
    if isinstance(term, Compound):
        return all(is_ground(a) for a in term.args)
    return True


def walk_shallow(term: Term, bindings: Mapping[int, Term]) -> Term:
    """Follow variable links until an unbound variable or non-variable."""
    while isinstance(term, Var):
        bound = bindings.get(term.id)
        if bound is None:
            return term
        term = bound
    return term


def resolve_term(
    term: Term, bindings: Mapping[int, Term], _path: frozenset = frozenset()
) -> Term:
    """Deep-resolve a term through a (triangular) binding map.

    The ``_path`` guard keeps resolution total even on cyclic maps, which
    can only arise with the occurs check disabled; the cycle variable is
    left in place rather than expanded forever.
    """
    if isinstance(term, Var):
        bound = bindings.get(term.id)
        if bound is None or term.id in _path:
            return term
        return resolve_term(bound, bindings, _path | {term.id})
    if isinstance(term, Compound):
        return Compound(
            term.functor, tuple(resolve_term(a, bindings, _path) for a in term.args)
        )
    return term


def _occurs(var_id: int, term: Term, bindings: Mapping[int, Term]) -> bool:
    term = walk_shallow(term, bindings)
    if isinstance(term, Var):
        return term.id == var_id
    if isinstance(term, Compound):
        return any(_occurs(var_id, a, bindings) for a in term.args)
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
    """
    t1 = walk_shallow(t1, bindings)
    t2 = walk_shallow(t2, bindings)
    if isinstance(t1, Var):
        if isinstance(t2, Var) and t1.id == t2.id:
            return True
        if occurs_check and _occurs(t1.id, t2, bindings):
            return False
        bindings[t1.id] = t2
        trail.append(t1.id)
        return True
    if isinstance(t2, Var):
        if occurs_check and _occurs(t2.id, t1, bindings):
            return False
        bindings[t2.id] = t1
        trail.append(t2.id)
        return True
    if isinstance(t1, Const) and isinstance(t2, Const):
        return t1.name == t2.name
    if isinstance(t1, Unknown) and isinstance(t2, Unknown):
        return t1.id == t2.id
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        return all(
            unify_into(a, b, bindings, trail, occurs_check)
            for a, b in zip(t1.args, t2.args)
        )
    return False
