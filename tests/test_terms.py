"""Trailed unification, binding resolution, and their algebraic laws."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prologtheta.terms import (
    Compound,
    Const,
    Unknown,
    Var,
    compound,
    fresh_unknown,
    fresh_var,
    is_ground,
    resolve_term,
    unify_into,
)

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
    k1, k2 = fresh_unknown("emp"), fresh_unknown("emp")
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


def test_fresh_var_ids_are_distinct():
    a, b = fresh_var("X"), fresh_var("X")
    assert a.id != b.id
    assert a != b


def test_compound_requires_arguments():
    with pytest.raises(ValueError):
        Compound("f", ())


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
    u1, u2 = Unknown(i, "m"), Unknown(j, "m")
    s = unify(u1, u2)
    if i == j:
        assert s == {}
    else:
        assert s is None
