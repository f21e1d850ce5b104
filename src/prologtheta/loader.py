"""Turn parsed modules into closed programs.

Loading replaces don't-know placeholders during an initialization phase:
every name declared with ``unknown X, Y.`` maps to one shared fresh
Unknown across the whole module, and every ``*`` argument gets its own
fresh Unknown.  The same pass over each clause closes its variables as
silent universals; the result is then checked for well-formedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .terms import Compound, Const, Term, Unknown, fresh_unknown
from .syntax import Clause, Forall, desugar_clause_vars, wellformed
from .parser import ParseError, ParseIssue, SourceModule, parse_module


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
    """One predicate's clauses: ``every`` holds them in textual order, and
    ``by_key`` (each first-argument key's clauses) and ``wild`` (the
    variable-headed ones) hold ascending positions into it.  None of them
    changes once the program is built.
    """

    every: list
    by_key: dict
    wild: list

    def lookup(self, key) -> list:
        """The clauses whose first argument has ``key`` or is a variable,
        in textual order."""
        own = self.by_key.get(key)
        if own is None:
            positions = self.wild
        elif self.wild:
            positions = sorted(own + self.wild)
        else:
            positions = own
        return [self.every[i] for i in positions]


def _index_clauses(clauses: tuple[Clause, ...]) -> dict:
    """The per-predicate first-argument index of ``clauses``."""
    index: dict[str, PredicateIndex] = {}
    for clause in clauses:
        inner = clause
        while isinstance(inner, Forall):
            inner = inner.inner
        head = inner.head
        table = index.get(head.pred)
        if table is None:
            table = index[head.pred] = PredicateIndex([], {}, [])
        key = first_arg_key(head.args[0]) if head.args else None
        positions = table.wild if key is None else table.by_key.setdefault(key, [])
        positions.append(len(table.every))
        table.every.append(clause)
    return index


@dataclass(frozen=True)
class Program:
    """An immutable, closed program: safe to share between sessions.

    ``arity_table`` maps each predicate to its arity at first use, as the
    well-formedness check built it; readers must not extend it.  ``index``
    (a ``PredicateIndex`` per predicate) is derived from ``clauses`` on
    construction.  ``compiled`` maps a clause's ``id`` to the engine's form
    of it, stored in one step at its first try by any search sharing it.
    """

    name: str
    clauses: tuple[Clause, ...]
    unknown_table: dict
    arity_table: dict
    index: dict = field(init=False, compare=False, repr=False)
    compiled: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _index_clauses(self.clauses))

    def arities(self) -> dict:
        """A copy of the arity table, free for a caller to extend."""
        return dict(self.arity_table)


def skolemize(module: SourceModule) -> Program:
    """Close a source module into a Program.

    Each declared unknown name becomes one shared fresh Unknown; each ``*``
    becomes its own fresh Unknown; remaining free variables are closed
    silently.  Raises ParseError when a declared unknown name collides with
    an explicitly bound clause variable, or when a clause is ill-formed.
    """
    issues: list[ParseIssue] = []
    table = {name: fresh_unknown() for name in module.unknown_decls}
    closed: list[Clause] = []
    arities: dict[str, int] = {}
    for raw, (line, col) in zip(module.raw_clauses, module.source_spans):
        try:
            clause = desugar_clause_vars(raw, table)
        except ValueError as err:
            issues.append(ParseIssue(str(err), line, col))
            continue
        issues.extend(ParseIssue(p, line, col) for p in wellformed(clause, arities=arities))
        closed.append(clause)
    if issues:
        raise ParseError(issues)
    return Program(
        name=module.name, clauses=tuple(closed), unknown_table=table, arity_table=arities
    )


def load(source: str, *, name: Optional[str] = None) -> Program:
    """Parse and Skolemize program text."""
    return skolemize(parse_module(source, default_name=name or "main"))


def load_path(path: Union[str, Path]) -> Program:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError([ParseIssue(f"cannot read {path}: {err}", 0, 0)]) from None
    return load(text, name=path.stem)


def combine(programs: Iterable[Program]) -> Program:
    """Concatenate loaded programs in load order; no programs make an
    empty one, named ``program``.

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
            issues.extend(ParseIssue(f"in module {prog.name}: {p}", 0, 0)
                          for p in wellformed(clause, arities=arities))
        clauses.extend(prog.clauses)
        for decl, unk in prog.unknown_table.items():
            key = decl if decl not in table else f"{prog.name}.{decl}"
            table[key] = unk
    if issues:
        raise ParseError(issues)
    return Program(
        name="program", clauses=tuple(clauses), unknown_table=table, arity_table=arities
    )
