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
from typing import Iterable, Optional, Union

from .terms import Unknown, fresh_unknown
from .syntax import Clause, desugar_clause_vars, wellformed
from .parser import ParseError, ParseIssue, SourceModule, parse_module


@dataclass(frozen=True)
class Program:
    """An immutable, closed program: safe to share between sessions.

    ``arity_table`` maps each predicate to its arity at first use, as the
    well-formedness check built it; readers must not extend it.  ``index``
    and ``compiled`` are the engine's, each filled in one store by a search
    sharing the program: its first-argument index at its first search, and
    a clause's compiled form, under the clause's ``id``, at its first try.
    """

    name: str
    clauses: tuple[Clause, ...]
    unknown_table: dict
    arity_table: dict
    index: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    compiled: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    issues: list[tuple[int, str]] = []  # a clause's number and a message
    table = {name: fresh_unknown() for name in module.unknown_decls}
    closed: list[Clause] = []
    arities: dict[str, int] = {}
    for k, raw in enumerate(module.raw_clauses):
        try:
            clause = desugar_clause_vars(raw, table)
        except ValueError as err:
            issues.append((k, str(err)))
            continue
        issues.extend((k, p) for p in wellformed(clause, arities=arities))
        closed.append(clause)
    if issues:
        spans = module.source_spans
        raise ParseError([ParseIssue(p, *spans[k]) for k, p in issues])
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
