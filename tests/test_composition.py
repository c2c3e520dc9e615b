"""Static products and dynamic (in-place edit) composition."""

import pytest

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar, ccolor, cnat
from otcomp.composition import (dynamic_compose, is_update, make_update,
                                static_compose, transform_update, update_addr,
                                update_child_method, update_old)
from otcomp.errors import UnknownMethod
from otcomp.patterns import set_pattern, string_pattern
from otcomp.registry import build
from otcomp.values import NOP, Cell, Method, Product, SetOf, product, seq_of, set_of

B = DEFAULT_BOUNDS


# --- static products --------------------------------------------------------

@pytest.fixture(scope="module")
def fchar():
    return static_compose(cchar(), cnat(), ccolor())


def test_product_method_acts_on_its_factor_only(fchar):
    base = product([Cell(None), Cell(None), Cell(None)])
    s = kernel.apply(fchar, Method("putchar", ("a",)), base)
    assert s == product([Cell("a"), Cell(None), Cell(None)])
    s = kernel.apply(fchar, Method("putcolor", ("red",)), s)
    assert s == product([Cell("a"), Cell(None), Cell("red")])


def test_product_attributes_read_their_factor(fchar):
    s = product([Cell("a"), Cell(2), Cell("blue")])
    assert kernel.observe(fchar, "getchar", (), s) == "a"
    assert kernel.observe(fchar, "getnat", (), s) == 2
    assert kernel.observe(fchar, "getcolor", (), s) == "blue"


def test_cross_factor_transform_is_identity(fchar):
    m = Method("putchar", ("a",))
    assert kernel.transform(fchar, m, Method("putnat", (1,))) == m
    assert kernel.transform(fchar, m, Method("putcolor", ("red",))) == m


def test_same_factor_transform_delegates(fchar):
    t = kernel.transform(fchar, Method("putchar", ("a",)),
                         Method("putchar", ("c",)))
    assert t == Method("putchar", ("c",))


def test_product_state_enumeration_is_cartesian(fchar):
    b = B.with_(alphabet=1, nat_max=0, colors=1)
    assert len(fchar.enum_states(b)) == 2 * 2 * 2


def test_duplicate_factor_names_are_prefixed():
    c = static_compose(cchar(), cchar())
    assert "putchar" in c.method_ctors
    assert "cchar.putchar" in c.method_ctors
    s = kernel.apply(c, Method("cchar.putchar", ("b",)),
                     product([Cell(None), Cell(None)]))
    assert s == product([Cell(None), Cell("b")])


def test_at_least_two_factors():
    with pytest.raises(ValueError):
        static_compose(cchar())


# --- dynamic composition: set of characters ---------------------------------

@pytest.fixture(scope="module")
def setchar():
    return dynamic_compose(set_pattern("guarded"), cchar(), b=B)


def _upd(old, val, site=None):
    return make_update((), Cell(old), Method("putchar", (val,)), site)


def test_update_new_is_derived_from_old_and_method(setchar):
    u = _upd("a", "b")
    assert setchar.update_new(u) == Cell("b")


def test_update_replaces_the_element_in_place(setchar):
    s = set_of([Cell("a"), Cell("c")])
    out = kernel.apply(setchar, _upd("a", "b"), s)
    assert out == set_of([Cell("b"), Cell("c")])


def test_update_enabled_only_on_present_element(setchar):
    assert kernel.enabled(setchar, _upd("a", "b"), set_of([Cell("a")]))
    assert not kernel.enabled(setchar, _upd("a", "b"), set_of([Cell("b")]))


def test_update_colliding_with_present_element_is_disabled(setchar):
    # Writing a value that another element already holds would merge the two.
    s = set_of([Cell("a"), Cell("b")])
    assert not kernel.enabled(setchar, _upd("a", "b"), s)
    assert kernel.enabled(setchar, _upd("a", "c"), s)
    # Re-asserting the element's own value is fine.
    assert kernel.enabled(setchar, _upd("a", "a"), s)


def test_same_target_updates_rebase_through_the_child(setchar):
    u1, u2 = _upd("a", "b"), _upd("a", "c")
    t = transform_update(setchar, u1, u2)
    # u1 now starts from the element u2 produced, with the merged write.
    assert update_old(t) == Cell("c")
    assert update_child_method(t) == Method("putchar", ("c",))
    assert setchar.update_new(t) == Cell("c")


def test_distinct_target_updates_pass_through(setchar):
    u1, u2 = _upd("a", "b"), _upd("c", "b")
    assert transform_update(setchar, u1, u2) == u1


def test_transform_update_rejects_plain_methods(setchar):
    with pytest.raises(UnknownMethod):
        transform_update(setchar, _upd("a", "b"), Method("add", (Cell("a"),)))


def test_update_against_removal_of_its_target_vanishes(setchar):
    u = _upd("a", "b")
    rm = Method("remove", (Cell("a"),))
    assert kernel.transform(setchar, u, rm) == NOP


def test_removal_against_update_follows_the_new_value(setchar):
    u = _upd("a", "b")
    rm = Method("remove", (Cell("a"),))
    assert kernel.transform(setchar, rm, u) == Method("remove", (Cell("b"),))


def test_unrelated_method_and_update_ignore_each_other(setchar):
    u = _upd("a", "b")
    add = Method("add", (Cell("c"),))
    assert kernel.transform(setchar, u, add) == u
    assert kernel.transform(setchar, add, u) == add


def test_update_methods_are_enumerated(setchar):
    ups = [m for m in setchar.enum_methods(B) if is_update(m)]
    # one address, old ranges over child states, method over child methods
    n_states = len(cchar().enum_states(B))
    n_methods = len(cchar().enum_methods(B))
    assert len(ups) == n_states * n_methods
    assert all(update_addr(u) == () for u in ups)


# --- dynamic composition: sequence of characters ----------------------------

def test_sequence_updates_shift_like_their_position(tmp_path):
    word = dynamic_compose(string_pattern(), cchar(),
                           b=B.with_(alphabet=2, max_len=2))
    u = make_update((1,), Cell("a"), Method("putchar", ("b",)), 1)
    ins = Method("Ins", (0, Cell("b")), 2)
    t = kernel.transform(word, u, ins)
    assert update_addr(t) == (2,)
    dele = Method("Del", (0,), 2)
    assert update_addr(kernel.transform(word, u, dele)) == (0,)
    # Deleting the edited element cancels the edit.
    assert kernel.transform(word, u, Method("Del", (1,), 2)) == NOP
    # Edits never shift inserts or deletes.
    assert kernel.transform(word, ins, u) == ins


# --- validation at the kernel boundary --------------------------------------

def test_a_product_method_of_no_factor_is_rejected(fchar):
    st = product([Cell(None), Cell(None), Cell(None)])
    shove, put = Method("shove", ("a",)), Method("putchar", ("a",))
    with pytest.raises(UnknownMethod):
        kernel.apply(fchar, shove, st)
    with pytest.raises(UnknownMethod):
        kernel.enabled(fchar, shove, st)
    with pytest.raises(UnknownMethod):
        kernel.transform(fchar, shove, put)
    with pytest.raises(UnknownMethod):
        kernel.transform(fchar, put, shove)


@pytest.mark.parametrize("expr, addr, st, plain", [
    ("string[cchar]", (0,), seq_of([Cell("a")]), Method("Del", (0,), 1)),
    ("set-guarded[cchar]", (), set_of([Cell("a")]), Method("remove", (Cell("a"),))),
])
def test_an_update_whose_child_method_is_not_the_childs_is_rejected(expr, addr, st,
                                                                   plain):
    c = build(expr)
    bad = make_update(addr, Cell("a"), Method("shove", ("b",)), 0)
    good = make_update(addr, Cell("a"), Method("putchar", ("b",)), 1)
    with pytest.raises(UnknownMethod):
        kernel.apply(c, bad, st)
    with pytest.raises(UnknownMethod):
        kernel.enabled(c, bad, st)
    for m1, m2 in ((bad, plain), (plain, bad), (bad, good), (good, bad)):
        with pytest.raises(UnknownMethod):
            kernel.transform(c, m1, m2)
