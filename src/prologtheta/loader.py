"""Turn parsed modules into closed programs.

Loading replaces don't-know placeholders during an initialization phase:
every name declared with ``unknown X, Y.`` maps to one shared fresh
Unknown across the whole module, and every ``*`` argument gets its own
fresh Unknown.  Clause variables are then closed as silent universals and
the result is checked for well-formedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .terms import Compound, Const, Star, Term, Unknown, Var, fresh_unknown
from .syntax import Clause, Forall, binder_names, desugar_clause_vars, map_terms, wellformed
from .parser import ParseError, ParseIssue, SourceModule, parse_module


class LoadError(Exception):
    """Aggregated parse / Skolemization / well-formedness failures."""

    def __init__(self, issues: list[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


def first_arg_key(term: Term):
    """The index key of a clause head's or a goal's first argument.

    A constant keys by its name, an Unknown by its id (tagged, so that it
    cannot equal a constant's name or a functor key), a compound term by
    its functor and arity; a variable has no key (None) and matches all.
    """
    if isinstance(term, Const):
        return term.name
    if isinstance(term, Unknown):
        return (Unknown, term.id)
    if isinstance(term, Compound):
        return (term.functor, len(term.args))
    return None


class PredicateIndex(NamedTuple):
    """One predicate's clauses: ``every`` holds a ``(clause, reach)`` entry
    per clause in textual order, and ``by_key`` (each first-argument key's
    clauses) and ``wild`` (the variable-headed ones) hold ascending
    positions into it.  None of them changes once the program is built.
    """

    every: list
    by_key: dict
    wild: list

    def lookup(self, key) -> list:
        """The entries of the clauses whose first argument has ``key`` or
        is a variable, in textual order."""
        own = self.by_key.get(key)
        if own is None:
            positions = self.wild
        elif self.wild:
            positions = sorted(own + self.wild)
        else:
            positions = own
        return [self.every[i] for i in positions]


def _index_clauses(clauses: tuple[Clause, ...]) -> tuple[dict, int]:
    """Per-predicate first-argument index, and the whole program's reach.

    A clause's reach is 1 + its number of leading universals: how far past
    the calling goal's depth trying it goes before its head is unified.
    An entry carries the largest reach of all clauses up to and including
    its own, so a search that skips the clauses between two candidates can
    still report whether trying them would have hit the depth limit.
    """
    index: dict[str, PredicateIndex] = {}
    reach = 0
    for clause in clauses:
        inner, layers = clause, 0
        while isinstance(inner, Forall):
            inner, layers = inner.inner, layers + 1
        reach = max(reach, 1 + layers)
        head = inner.head
        table = index.get(head.pred)
        if table is None:
            table = index[head.pred] = PredicateIndex([], {}, [])
        key = first_arg_key(head.args[0]) if head.args else None
        positions = table.wild if key is None else table.by_key.setdefault(key, [])
        positions.append(len(table.every))
        table.every.append((clause, reach))
    return index, reach


@dataclass(frozen=True)
class Program:
    """An immutable, closed program: safe to share between sessions.

    ``arity_table`` maps each predicate to its arity at first use, as the
    well-formedness check built it; readers must not extend it.  ``index``
    (a ``PredicateIndex`` per predicate) and ``reach`` (the largest clause
    reach, 0 for no clauses) are derived from ``clauses`` on construction.
    """

    name: str
    clauses: tuple[Clause, ...]
    unknown_table: dict
    arity_table: dict
    index: dict = field(init=False, compare=False, repr=False)
    reach: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        index, reach = _index_clauses(self.clauses)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "reach", reach)

    def arities(self) -> dict:
        """A copy of the arity table, free for a caller to extend."""
        return dict(self.arity_table)


def _skolem_term(term: Term, origin: str, table: dict) -> Term:
    # Safe as a plain name lookup: binder collisions were rejected already.
    if isinstance(term, Star):
        return fresh_unknown(origin)
    if isinstance(term, Var):
        return table.get(term.name, term)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_skolem_term(a, origin, table) for a in term.args))
    return term


def skolemize(module: SourceModule) -> Program:
    """Close a source module into a Program.

    Each declared unknown name becomes one shared fresh Unknown; each ``*``
    becomes its own fresh Unknown; remaining free variables are closed
    silently.  Raises LoadError when a declared unknown name collides with
    an explicitly bound clause variable, or when a clause is ill-formed.
    """
    issues: list[ParseIssue] = []
    table = {name: fresh_unknown(module.name) for name in module.unknown_decls}

    spans = list(module.source_spans) + [(0, 0)] * (
        len(module.raw_clauses) - len(module.source_spans)
    )
    closed: list[Clause] = []
    arities: dict[str, int] = {}
    for raw, (line, col) in zip(module.raw_clauses, spans):
        bound = binder_names(raw)
        clash = sorted(bound & set(module.unknown_decls))
        if clash:
            issues.append(
                ParseIssue(f"ambiguous unknown scope: {', '.join(clash)}", line, col)
            )
            continue
        # each ``*`` draws its own Unknown, in textual order
        clause = map_terms(raw, lambda t: _skolem_term(t, module.name, table))
        clause = desugar_clause_vars(clause)
        problems = wellformed(clause, arities=arities, allow_unknowns=True)
        issues.extend(ParseIssue(p, line, col) for p in problems)
        closed.append(clause)
    if issues:
        raise LoadError(issues)
    return Program(
        name=module.name, clauses=tuple(closed), unknown_table=table, arity_table=arities
    )


def load(source: str, *, name: Optional[str] = None) -> Program:
    """Parse and Skolemize program text."""
    try:
        module = parse_module(source, default_name=name or "main")
    except ParseError as err:
        raise LoadError(err.issues) from None
    if name is not None and not module.had_header:
        module = SourceModule(
            name=name,
            unknown_decls=module.unknown_decls,
            raw_clauses=module.raw_clauses,
            source_spans=module.source_spans,
            had_header=False,
        )
    return skolemize(module)


def load_path(path: Union[str, Path]) -> Program:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise LoadError([ParseIssue(f"cannot read {path}: {err}", 0, 0)]) from None
    default_name = path.stem or "main"
    return load(text, name=default_name)


def combine(programs: Iterable[Program], name: str = "program") -> Program:
    """Concatenate loaded programs in load order.

    Predicate arities must stay consistent across modules; unknowns from
    different modules are already distinct by construction.
    """
    programs = list(programs)
    if len(programs) == 1:
        return programs[0]
    clauses: list[Clause] = []
    table: dict[str, Unknown] = {}
    arities: dict[str, int] = {}
    issues: list[ParseIssue] = []
    for prog in programs:
        for clause in prog.clauses:
            problems = wellformed(clause, arities=arities, allow_unknowns=True)
            issues.extend(
                ParseIssue(f"in module {prog.name}: {p}", 0, 0) for p in problems
            )
        clauses.extend(prog.clauses)
        for decl, unk in prog.unknown_table.items():
            key = decl if decl not in table else f"{prog.name}.{decl}"
            table[key] = unk
    if issues:
        raise LoadError(issues)
    return Program(
        name=name, clauses=tuple(clauses), unknown_table=table, arity_table=arities
    )
