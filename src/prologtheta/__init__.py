"""prologtheta: Horn clauses with noisy quantifiers.

Queries may mark binders as noisy (``some*``, ``all*``): only their
instantiations end up in the answer substitution, so callers see exactly
the bindings they asked for.  Modules can declare don't-know constants
(``unknown X, Y.`` or ``*`` arguments) that load as fresh opaque
constants.  A brute-force oracle over finite ground instantiations backs
the engine for differential testing.
"""

from .terms import (
    Compound,
    Const,
    Term,
    Unknown,
    Var,
    compound,
    fresh_unknown,
    fresh_var,
    is_ground,
    reset_fresh_counters,
)
from .syntax import (
    Atom,
    Clause,
    Conj,
    Exists,
    Fact,
    Forall,
    Goal,
    atom,
    desugar_clause_vars,
    desugar_query_vars,
    silent_twin,
    wellformed,
)
from .parser import (
    ParseError,
    ParseIssue,
    SourceModule,
    format_clause,
    format_goal,
    format_term,
    parse_module,
    parse_query,
    parse_term,
)
from .loader import Program, combine, load, load_path, skolemize
from .engine import (
    EngineError,
    ProofSearch,
    ProofStep,
    ProofTrace,
    Solution,
    SolveConfig,
    SolveSession,
    format_proof,
    solve,
)
from .oracle import OracleOverflow, Universe, herbrand_universe, oracle_solve

__version__ = "0.1.0"
