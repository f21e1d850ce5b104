"""Trailed unification, binding resolution, and their algebraic laws."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prologtheta.terms import (
    Compound,
    Const,
    Star,
    Unknown,
    Var,
    compound,
    fold_term,
    fresh_unknown,
    fresh_var,
    is_ground,
    resolve_term,
    subterms,
    unify_into,
)
from prologtheta.parser import format_term
from prologtheta.syntax import Atom, Conj, Exists, Fact, Forall, Rule

X = Var("X", 9001)
Y = Var("Y", 9002)
Z = Var("Z", 9003)
tom = Const("tom")
cs = Const("cs")


def unify(t1, t2, *, occurs_check=True):
    """The bindings that unify ``t1`` with ``t2``, or None when they clash."""
    bindings = {}
    return bindings if unify_into(t1, t2, bindings, [], occurs_check) else None


def test_unify_binds_single_variable():
    s = unify(X, tom)
    assert s is not None
    assert resolve_term(X, s) == tom


def test_unify_identical_constants_is_empty():
    s = unify(tom, Const("tom"))
    assert s == {}
    assert len(s) == 0


def test_unify_distinct_constants_fails():
    assert unify(tom, cs) is None


def test_occurs_check_rejects_cyclic_binding():
    assert unify(X, compound("f", X)) is None


def test_occurs_check_can_be_disabled():
    s = unify(X, compound("f", X), occurs_check=False)
    assert s is not None
    # resolution stays total on the cyclic map: the loop variable remains
    resolved = resolve_term(X, s)
    assert resolved == compound("f", X)


def test_distinct_unknowns_do_not_unify():
    k1, k2 = fresh_unknown(), fresh_unknown()
    assert unify(k1, k2) is None
    assert unify(k1, k1) == {}


def test_unknown_vs_constant_fails_but_variable_binds():
    k = fresh_unknown()
    assert unify(k, tom) is None
    assert unify(k, compound("f", tom)) is None
    s = unify(X, k)
    assert resolve_term(X, s) == k


def test_functor_and_arity_clashes_fail():
    assert unify(compound("f", tom), compound("g", tom)) is None
    assert unify(compound("f", tom), compound("f", tom, cs)) is None


def test_apply_replaces_bound_variables():
    s = unify(X, tom)
    assert resolve_term(compound("phone", X, Y), s) == compound("phone", tom, Y)


def test_apply_empty_substitution_is_identity():
    t = compound("phone", tom, cs, Const("4450"))
    assert resolve_term(t, {}) == t


def test_apply_instantiates_the_recorded_witness():
    # the binding used in the worked phone-book example
    s = unify(X, Const("4450"))
    assert resolve_term(compound("phone", tom, cs, X), s) == compound(
        "phone", tom, cs, Const("4450")
    )


def test_triangular_chains_resolve_and_stay_idempotent():
    s = {X.id: compound("f", Y), Y.id: tom}
    once = resolve_term(X, s)
    assert once == compound("f", tom)
    assert resolve_term(once, s) == once


def test_is_ground():
    assert is_ground(compound("phone", tom, cs, Const("4450")))
    assert not is_ground(compound("phone", Const("sue"), X))
    assert is_ground(compound("phone", Const("sue"), fresh_unknown()))


def test_subterms_and_fold_term_visit_leaves_left_to_right():
    term = compound("f", compound("g", tom, X), cs, compound("h", Y))
    assert [format_term(t) for t in subterms(term)] == [
        "f(g(tom, X), cs, h(Y))", "g(tom, X)", "tom", "X", "cs", "h(Y)", "Y",
    ]
    leaves = []
    text = fold_term(term, lambda t: leaves.append(t) or format_term(t).upper(),
                     lambda functor, args: f"{functor}[{' '.join(args)}]")
    assert leaves == [tom, X, cs, Y]
    assert text == "f[g[TOM X] CS h[Y]]"
    assert format_term(fold_term(term, lambda t: Z if t == X else t)) == "f(g(tom, Z), cs, h(Y))"
    assert fold_term(tom, lambda t: "leaf") == "leaf"


def _deep(depth, leaf):
    term = leaf
    for _ in range(depth):
        term = compound("f", term)
    return term


def test_terms_ten_thousand_deep_are_walked_in_loops():
    # past Python's recursion limit; compare text, as dataclass == recurses
    var_side, ground_side = _deep(10_000, X), _deep(10_000, tom)
    assert not is_ground(var_side) and is_ground(ground_side)
    text = format_term(ground_side)
    assert text == "f(" * 10_000 + "tom" + ")" * 10_000
    bindings, trail = {}, []
    assert unify_into(var_side, ground_side, bindings, trail)
    assert trail == [X.id] and bindings[X.id] == tom
    assert format_term(resolve_term(var_side, bindings)) == text
    assert not unify_into(Y, _deep(10_000, Y), {}, [])  # the occurs check
    assert unify_into(Y, _deep(10_000, Y), {}, [], occurs_check=False)


def test_unifying_cyclic_terms_ends_with_the_occurs_check_off():
    # X = f(X) and Y = f(f(Y)) denote the same infinite tree
    bindings, trail = {}, []
    assert unify_into(X, compound("f", X), bindings, trail, occurs_check=False)
    assert unify_into(Y, compound("f", compound("f", Y)), bindings, trail, occurs_check=False)
    assert unify_into(X, Y, bindings, trail, occurs_check=False)
    assert trail == [X.id, Y.id]  # no binding was needed
    assert not unify_into(X, compound("f", compound("g", Z)), bindings, [], occurs_check=False)


def test_fresh_var_ids_are_distinct():
    a, b = fresh_var("X"), fresh_var("X")
    assert a.id != b.id
    assert a != b


def test_compound_requires_arguments():
    with pytest.raises(ValueError, match="compound terms need at least one argument"):
        Compound("f", ())
    with pytest.raises(ValueError):
        Compound(functor="f", args=())


_P = Atom("p", (Var("X", 1),))
_NODES = [  # every node class of terms and syntax, and its repr
    (Var("X", 1), "Var(name='X', id=1)"),
    (Const("a"), "Const(name='a')"),
    (Unknown(3), "Unknown(id=3)"),
    (Compound("f", (Const("a"),)), "Compound(functor='f', args=(Const(name='a'),))"),
    (Star(), "Star()"),
    (_P, "Atom(pred='p', args=(Var(name='X', id=1),))"),
    (Conj(_P, _P), f"Conj(left={_P!r}, right={_P!r})"),
    (Exists(Var("X", 1), _P, True), f"Exists(var=Var(name='X', id=1), body={_P!r}, noisy=True)"),
    (Fact(_P), f"Fact(head={_P!r})"),
    (Rule(_P, _P), f"Rule(head={_P!r}, body={_P!r})"),
    (Forall(Var("X", 1), Fact(_P), False),
     f"Forall(var=Var(name='X', id=1), inner=Fact(head={_P!r}), noisy=False)"),
]


@pytest.mark.parametrize("node, text", _NODES, ids=[type(n).__name__ for n, _ in _NODES])
def test_nodes_are_immutable_slotted_values(node, text):
    names = [field.name for field in dataclasses.fields(node)]
    for name in names + ["extra"]:  # a field or not, as a frozen dataclass without slots
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(node, name)
    assert type(node).__slots__ == tuple(names) and not hasattr(node, "__dict__")
    twin = type(node)(**{name: getattr(node, name) for name in names})
    assert twin == node and hash(twin) == hash(node) and twin is not node
    assert repr(node) == text
    for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert copied == node and hash(copied) == hash(node)


# ---------------------------------------------------------------------------
# Property tests.

_consts = st.sampled_from([Const("a"), Const("b"), Const("c")])
_vars = st.sampled_from([X, Y, Z])
_terms = st.recursive(
    st.one_of(_consts, _vars),
    lambda kids: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(kids, min_size=1, max_size=2),
    ),
    max_leaves=5,
)


def _term_var_ids(term):
    if isinstance(term, Var):
        return {term.id}
    if isinstance(term, Compound):
        out = set()
        for a in term.args:
            out |= _term_var_ids(a)
        return out
    return set()


def _ground_assignments(var_ids):
    """Brute-force oracle: all maps from the variables into {a, b, c}."""
    universe = [Const("a"), Const("b"), Const("c")]
    ids = sorted(var_ids)
    for picks in itertools.product(universe, repeat=len(ids)):
        yield dict(zip(ids, picks))


@given(_terms, _terms)
@settings(max_examples=150, deadline=None)
def test_unify_symmetry(t1, t2):
    left = unify(t1, t2)
    right = unify(t2, t1)
    assert (left is None) == (right is None)
    if left is not None:
        assert resolve_term(t1, left) == resolve_term(t2, left)
        assert resolve_term(t1, right) == resolve_term(t2, right)


@given(_terms, _terms)
@settings(max_examples=150, deadline=None)
def test_every_brute_force_unifier_is_an_instance_of_the_mgu(t1, t2):
    mgu = unify(t1, t2)
    for gamma in _ground_assignments(_term_var_ids(t1) | _term_var_ids(t2)):
        g1, g2 = resolve_term(t1, gamma), resolve_term(t2, gamma)
        if g1 != g2:
            continue
        assert mgu is not None, "brute force found a unifier the mgu missed"
        # the ground unifier must be reachable from the mgu image
        assert unify(resolve_term(t1, mgu), g1) is not None


@given(st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_unknown_opacity(i, j):
    u1, u2 = Unknown(i), Unknown(j)
    s = unify(u1, u2)
    if i == j:
        assert s == {}
    else:
        assert s is None
