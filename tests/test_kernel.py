"""Core sequence machinery: apply/enabled/transform and their folds."""

import functools

import pytest
from hypothesis import given, strategies as st

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar, cnat
from otcomp.errors import UnknownAttribute, UnknownMethod
from otcomp.registry import build
from otcomp.values import NOP, VALUE, Cell, Method


@pytest.fixture(scope="module")
def char():
    return cchar()


# --- identity element -------------------------------------------------------

def test_nop_apply_is_identity(char):
    for st_ in char.enum_states():
        assert kernel.apply(char, NOP, st_) == st_


def test_nop_always_enabled(char):
    assert kernel.enabled(char, NOP, Cell(None))


def test_transform_against_nop_is_identity(char):
    m = Method("putchar", ("a",))
    assert kernel.transform(char, m, NOP) == m


def test_transform_of_nop_stays_nop(char):
    m = Method("putchar", ("a",))
    assert kernel.transform(char, NOP, m) == NOP


# --- method validation ------------------------------------------------------

def test_undeclared_method_rejected(char):
    with pytest.raises(UnknownMethod):
        kernel.apply(char, Method("shove", ("a",)), Cell(None))
    with pytest.raises(UnknownMethod):
        kernel.enabled(char, Method("shove", ("a",)), Cell(None))
    with pytest.raises(UnknownMethod):
        kernel.transform(char, Method("shove", ("a",)), NOP)
    # A declared constructor with the wrong number of arguments, before any
    # component function reads one: a cell's do_fn would die on args[0].
    with pytest.raises(UnknownMethod, match="has 0 arguments, but"):
        kernel.transform(char, Method("putchar", ()), NOP)
    put = Method("putchar", ("a",))
    for bad in (Method("putchar", ()), Method("putchar", ("a", "b")), Method("nop", (0,))):
        n = len(bad.args)
        with pytest.raises(UnknownMethod, match=f"has {n} arguments, but .* declares"):
            kernel.apply(char, bad, Cell(None))
        with pytest.raises(UnknownMethod, match=f"has {n} arguments"):
            kernel.enabled(char, bad, Cell(None))
        for m1, m2 in ((bad, put), (put, bad)):
            with pytest.raises(UnknownMethod, match=f"has {n} arguments"):
                kernel.transform(char, m1, m2)
    string = build("string[cchar]")
    for m in (Method("Update", ()), Method("Ins", (0,))):
        with pytest.raises(UnknownMethod):
            kernel.validate_method(string, m)


def test_unknown_attribute_rejected(char):
    with pytest.raises(UnknownAttribute):
        kernel.observe(char, "nope", (), Cell(None))


# --- sequence folds against independent oracles -----------------------------

def _methods(c):
    return c.enum_methods(DEFAULT_BOUNDS)


@given(st.data())
def test_apply_seq_matches_reduce_oracle(data):
    c = cnat()
    seq = data.draw(st.lists(st.sampled_from(_methods(c)), max_size=5))
    start = data.draw(st.sampled_from(c.enum_states()))
    expect = functools.reduce(lambda s, m: kernel.apply(c, m, s), seq, start)
    assert kernel.apply_seq(c, seq, start) == expect


@given(st.data())
def test_transform_seq_matches_reduce_oracle(data):
    c = cnat()
    m = data.draw(st.sampled_from(_methods(c)))
    seq = data.draw(st.lists(st.sampled_from(_methods(c)), max_size=5))
    expect = functools.reduce(lambda a, o: kernel.transform(c, a, o), seq, m)
    assert kernel.transform_seq(c, m, seq) == expect


def test_empty_sequence_is_legal_and_inert(char):
    assert kernel.legal(char, [], Cell("a"))
    assert kernel.apply_seq(char, [], Cell("a")) == Cell("a")


class _Once(kernel.Component):
    """A one-shot component: the method is enabled only on the empty cell."""

    def __init__(self):
        super().__init__("once", {"set": (VALUE,)}, Cell(None))

    def do_fn(self, m, st_):
        return Cell(m.args[0])

    def poss_fn(self, m, st_):
        return st_.value is None


def test_legal_checks_intermediate_states():
    c = _Once()
    m = Method("set", (1,))
    assert kernel.legal(c, [m], Cell(None))
    assert not kernel.legal(c, [m, m], Cell(None))


def test_enumerations_are_sorted_and_deterministic(char):
    assert char.enum_states() == char.enum_states()
    assert char.enum_methods() == char.enum_methods()
