"""Container patterns: the finite set, the sequence, and admissibility."""

import pytest

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar
from otcomp.errors import BoundsExceeded, InvalidSpec, UndefinedObservation
from otcomp.patterns import (Morphism, check_admissible, instantiate,
                             set_pattern, string_pattern, token_component)
from otcomp.values import NOP, Cell, Method, Opaque, SeqOf, SetOf, set_of, seq_of

B = DEFAULT_BOUNDS


def _tokens(n):
    return B.with_(universe=n)


# --- admissibility ----------------------------------------------------------

def test_admissible_with_structural_equality():
    rep = check_admissible(set_pattern(), token_component(), b=_tokens(3))
    assert rep.ok and rep.states_checked == 3


def test_admissibility_needs_two_states():
    with pytest.raises(BoundsExceeded):
        check_admissible(set_pattern(), token_component(), b=_tokens(1))


def test_asymmetric_equality_rejected_with_witness():
    eq = lambda a, b: a.value <= b.value
    rep = check_admissible(set_pattern(), token_component(),
                           Morphism(eq=eq), b=_tokens(2))
    assert not rep.ok
    assert rep.failed_axiom == "eq-symmetric"
    x, y = rep.witness
    assert eq(x, y) != eq(y, x)


def test_intransitive_equality_rejected_with_witness():
    # Relate only adjacent tokens: symmetric, but x~y~z without x~z.
    order = {"x": 0, "y": 1, "z": 2}

    def eq(a, b):
        return abs(order[a.value] - order[b.value]) <= 1

    rep = check_admissible(set_pattern(), token_component(),
                           Morphism(eq=eq), b=_tokens(3))
    assert not rep.ok
    assert rep.failed_axiom == "eq-transitive"
    x, y, z = rep.witness
    assert eq(x, y) and eq(y, z) and not eq(x, z)


def test_instantiate_refuses_inadmissible_binding():
    with pytest.raises(InvalidSpec):
        instantiate(set_pattern(), token_component(),
                    Morphism(eq=lambda a, b: a.value <= b.value), b=_tokens(2))


# --- finite set bodies ------------------------------------------------------

@pytest.fixture(scope="module")
def sguard():
    return instantiate(set_pattern("guarded"), token_component(), b=_tokens(2))


@pytest.fixture(scope="module")
def sliteral():
    return instantiate(set_pattern("literal"), token_component(), b=_tokens(2))


def _add(e):
    return Method("add", (Opaque(e),))


def _rem(e):
    return Method("remove", (Opaque(e),))


def test_set_add_and_remove(sguard):
    s = kernel.apply(sguard, _add("x"), SetOf())
    assert s == set_of([Opaque("x")])
    assert kernel.observe(sguard, "iselem", (Opaque("x"),), s)
    s = kernel.apply(sguard, _rem("x"), s)
    assert s == SetOf()
    assert not kernel.observe(sguard, "iselem", (Opaque("x"),), s)


def test_remove_requires_membership(sguard, sliteral):
    for c in (sguard, sliteral):
        assert not kernel.enabled(c, _rem("x"), SetOf())
        assert kernel.enabled(c, _rem("x"), set_of([Opaque("x")]))


def test_add_enabledness_is_where_the_variants_differ(sguard, sliteral):
    present = set_of([Opaque("x")])
    assert kernel.enabled(sliteral, _add("x"), present)
    assert not kernel.enabled(sguard, _add("x"), present)
    assert kernel.enabled(sguard, _add("y"), present)


def test_set_transform_table(sguard):
    # Duplicated effects collapse to nop; everything else passes through.
    assert kernel.transform(sguard, _add("x"), _add("x")) == NOP
    assert kernel.transform(sguard, _rem("x"), _rem("x")) == NOP
    assert kernel.transform(sguard, _add("x"), _add("y")) == _add("x")
    assert kernel.transform(sguard, _rem("x"), _rem("y")) == _rem("x")
    assert kernel.transform(sguard, _add("x"), _rem("x")) == _add("x")
    assert kernel.transform(sguard, _rem("x"), _add("x")) == _rem("x")


def test_set_instantiation_ranges_over_child_states():
    c = instantiate(set_pattern("guarded"), cchar(), b=B)
    elems = {m.args[0] for m in c.enum_methods(B) if m.ctor == "add"}
    assert elems == set(cchar().enum_states(B))
    s = kernel.apply(c, Method("add", (Cell("a"),)), SetOf())
    assert kernel.observe(c, "iselem", (Cell("a"),), s)


# --- sequence body ----------------------------------------------------------

@pytest.fixture(scope="module")
def seq():
    return instantiate(string_pattern(), token_component(), b=_tokens(2))


def _ins(p, e, site=0):
    return Method("Ins", (p, Opaque(e)), site)


def _del(p, site=0):
    return Method("Del", (p,), site)


def test_sequence_insert_delete(seq):
    s = kernel.apply(seq, _ins(0, "x"), SeqOf())
    s = kernel.apply(seq, _ins(1, "y"), s)
    assert s == seq_of([Opaque("x"), Opaque("y")])
    assert kernel.observe(seq, "length", (), s) == 2
    assert kernel.observe(seq, "elemAt", (1,), s) == Opaque("y")
    s = kernel.apply(seq, _del(0), s)
    assert s == seq_of([Opaque("y")])


def test_sequence_position_enabledness(seq):
    one = seq_of([Opaque("x")])
    assert kernel.enabled(seq, _ins(1, "y"), one)
    assert not kernel.enabled(seq, _ins(2, "y"), one)
    assert kernel.enabled(seq, _del(0), one)
    assert not kernel.enabled(seq, _del(1), one)


def test_element_observation_past_the_end_is_undefined(seq):
    with pytest.raises(UndefinedObservation):
        kernel.observe(seq, "elemAt", (0,), SeqOf())


def test_sequence_transform_shifts_positions(seq):
    # A deletion behind an insertion slides right; in front it is unaffected.
    assert kernel.transform(seq, _del(5, 2), _ins(1, "x", 1)) == _del(6, 2)
    assert kernel.transform(seq, _del(0, 2), _ins(1, "x", 1)) == _del(0, 2)
    # An insertion behind a deletion slides left.
    assert kernel.transform(seq, _ins(3, "x", 1), _del(1, 2)) == _ins(2, "x", 1)
    assert kernel.transform(seq, _ins(1, "x", 1), _del(1, 2)) == _ins(1, "x", 1)
    # Concurrent deletions of the same element collapse to nop.
    assert kernel.transform(seq, _del(2, 1), _del(2, 2)) == NOP
    assert kernel.transform(seq, _del(3, 1), _del(2, 2)) == _del(2, 1)


def test_equal_position_inserts_break_ties_by_site(seq):
    a, b = _ins(1, "x", 1), _ins(1, "y", 2)
    assert kernel.transform(seq, a, b) == a
    assert kernel.transform(seq, b, a) == Method("Ins", (2, Opaque("y")), 2)


def test_tie_break_converges(seq):
    base = seq_of([Opaque("x"), Opaque("x")])
    a, b = _ins(1, "x", 1), _ins(1, "y", 2)
    left = kernel.apply_seq(seq, [a, kernel.transform(seq, b, a)], base)
    right = kernel.apply_seq(seq, [b, kernel.transform(seq, a, b)], base)
    assert left == right


# --- token elements ---------------------------------------------------------

def test_token_states_follow_universe_bound():
    t = token_component()
    assert t.enum_states(_tokens(2)) == [Opaque("x"), Opaque("y")]
    assert len(t.enum_states(_tokens(8))) == 8
