"""Static products and dynamic (in-place edit) composition."""

import copy
import functools
import time

import pytest

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar, ccolor, cnat
from otcomp.checker import check_cp1
from otcomp.composition import (dynamic_compose, is_update, make_update,
                                static_compose, transform_update, update_addr)
from otcomp.errors import BoundsExceeded, UnknownMethod
from otcomp.patterns import set_pattern, string_pattern
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import (NOP, Cell, Method, Product, SetOf, canon_key, product, seq_of,
                           set_of)

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
    return dynamic_compose(set_pattern("guarded"), cchar())


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
    # An Update's arguments are (address, old child state, child method).
    assert t.args[1] == Cell("c")
    assert t.args[2] == Method("putchar", ("c",))
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


def test_a_product_past_the_state_ceiling_is_refused_before_it_is_built():
    # Three factors of 85 states each make 614,125 product states: the
    # factors' counts are multiplied and the product refused, unbuilt.
    t0 = time.perf_counter()
    with pytest.raises(BoundsExceeded, match="614125 product states"):
        check_cp1(build("string[cchar] (+) string[cchar] (+) string[cchar]"))
    assert time.perf_counter() - t0 < 0.5
    # fpage, the tower's top, is a product under the ceiling.
    assert len(build_document_tower()["fpage"].enum_states(TOWER_BOUNDS)) == 184_527


@pytest.mark.parametrize("name", ["cchar (+) cnat (+) ccolor", "string (+) cnat",
                                  "set-guarded[cchar] (+) cnat", "string[cchar] (+) cnat",
                                  "fchar", "fword", "fsentence"])
def test_a_product_enumerates_its_states_in_canonical_order_unsorted(monkeypatch, name):
    # The product of the factors' canonical lists is canonical as built, so
    # enum_states returns it unsorted: no product state is keyed for a sort.
    if name.startswith("f"):
        c, b = build_document_tower()[name], TOWER_BOUNDS
    else:
        c, b = build(name), B
    states = c.enum_states_fn(b)
    assert states == sorted(states, key=functools.partial(canon_key, memo={}))

    def key(v, memo=None):
        if isinstance(v, Product):
            raise AssertionError("a product state was sorted")
        return canon_key(v, memo)

    monkeypatch.setattr(kernel, "canon_key", key)
    assert c.enum_states(b) == states


@pytest.mark.parametrize("expr, b, refusal", [
    ("set-guarded[cchar (+) cnat]", B, "set-guarded[cchar (+) cnat]: 1048576 subset states"),
    ("string[cnat]", B.with_(max_len=9), "string[cnat]: 2441406 sequence states"),
    ("word", TOWER_BOUNDS.with_(max_len=4), "word: 551881 sequence states"),
    ("string", B.with_(universe=5, max_len=9), "string: 2441406 sequence states"),
])
def test_a_pattern_body_refusal_names_the_component(expr, b, refusal):
    c = build_document_tower()[expr] if expr == "word" else build(expr, b)
    with pytest.raises(BoundsExceeded) as exc:
        c.enum_states(b)
    assert str(exc.value) == refusal


# --- dynamic composition: sequence of characters ----------------------------

def test_sequence_updates_shift_like_their_position(tmp_path):
    word = dynamic_compose(string_pattern(), cchar())
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


@pytest.mark.parametrize("expr, addr, other", [
    ("string[cchar]", (0,), (1,)),
    ("set-guarded[cchar]", (), ()),
])
def test_an_invalid_update_is_rejected_against_nop_and_other_occurrences(expr, addr,
                                                                          other):
    # Neither path transforms through the child: the kernel answers `nop`
    # itself, and an Update of another occurrence (another address, or
    # another old child state) passes through unchanged.
    c = build(expr)
    bad = make_update(addr, Cell("a"), Method("shove", ("b",)), 0)
    good = make_update(addr, Cell("a"), Method("putchar", ("b",)), 0)
    elsewhere = make_update(other, Cell("c"), Method("putchar", ("d",)), 1)
    for m1, m2 in ((bad, NOP), (NOP, bad), (bad, elsewhere), (elsewhere, bad)):
        with pytest.raises(UnknownMethod):
            kernel.transform(c, m1, m2)
    assert kernel.transform(c, good, NOP) == good
    assert kernel.transform(c, NOP, good) == NOP
    assert kernel.transform(c, good, elsewhere) == good
    assert kernel.transform(c, elsewhere, good) == elsewhere


@pytest.mark.parametrize("pattern, addr, other", [
    (string_pattern(), (0,), (1,)),
    (set_pattern(), (), ()),
])
def test_a_distinct_target_transform_checks_each_child_method_once(pattern, addr,
                                                                   other):
    # Against an Update of another occurrence, each child method is checked
    # as `update_new` derives the Update's new child state, once per object.
    base = cchar()
    derived = []

    def do_fn(m, st):
        derived.append(m)
        return base.do_fn(m, st)

    counted = copy.copy(base)
    counted.do_fn = do_fn
    c = dynamic_compose(pattern, counted)
    bad = make_update(addr, Cell("a"), Method("shove", ("b",)), 0)
    good = make_update(addr, Cell("a"), Method("putchar", ("b",)), 0)
    elsewhere = make_update(other, Cell("c"), Method("putchar", ("d",)), 1)
    for m1, m2 in ((bad, elsewhere), (elsewhere, bad)):
        with pytest.raises(UnknownMethod):
            kernel.transform(c, m1, m2)
    for _ in range(3):
        assert kernel.transform(c, good, elsewhere) is good
        assert kernel.transform(c, elsewhere, good) is elsewhere
    assert sorted(m.args[0] for m in derived) == ["b", "d"]


def test_an_invalid_update_is_rejected_against_another_factor():
    c = build("string[cchar] (+) cnat")
    bad = make_update((0,), Cell("a"), Method("shove", ("b",)), 0)
    put = Method("putnat", (1,), 1)
    for m1, m2 in ((bad, put), (put, bad), (bad, NOP), (NOP, bad)):
        with pytest.raises(UnknownMethod):
            kernel.transform(c, m1, m2)
    good = make_update((0,), Cell("a"), Method("putchar", ("b",)), 0)
    assert kernel.transform(c, good, put) == good
    assert kernel.transform(c, put, good) == put


# --- an Update's new child state --------------------------------------------

def test_an_update_derives_its_new_child_state_once():
    base = cchar()
    derived = []

    def do_fn(m, st):
        derived.append((m, st))
        return base.do_fn(m, st)

    counted = copy.copy(base)
    counted.do_fn = do_fn
    word = dynamic_compose(string_pattern(), counted)
    put = Method("putchar", ("b",))
    u = make_update((0,), Cell("a"), put, 0)
    same = make_update((0,), Cell("a"), Method("putchar", ("c",)), 1)
    st = seq_of([Cell("a"), Cell("c")])
    ins, dele = Method("Ins", (0, Cell("b")), 1), Method("Del", (0,), 1)
    for _ in range(3):
        assert kernel.enabled(word, u, st)
        assert kernel.apply(word, u, st) == seq_of([Cell("b"), Cell("c")])
        assert kernel.transform(word, u, ins) == make_update((1,), Cell("a"), put, 0)
        assert kernel.transform(word, dele, u) == dele
        assert kernel.transform(word, same, u).args[1] == Cell("b")
    assert derived == [(put, Cell("a"))]
    # An equal Update is another object: it derives its own.
    kernel.apply(word, make_update((0,), Cell("a"), put, 0), st)
    assert derived == [(put, Cell("a"))] * 2


def test_an_update_derived_under_one_child_is_validated_under_another():
    u = make_update((0,), Cell("a"), Method("putchar", ("b",)), 0)
    st = seq_of([Cell("a")])
    word = dynamic_compose(string_pattern(), cchar())
    assert kernel.apply(word, u, st) == seq_of([Cell("b")])
    # cnat has no putchar: the same Update object is no method of a string
    # of naturals, whatever it derived under the string of characters.
    nats = dynamic_compose(string_pattern(), cnat())
    with pytest.raises(UnknownMethod):
        kernel.apply(nats, u, st)
    with pytest.raises(UnknownMethod):
        kernel.enabled(nats, u, st)
    with pytest.raises(UnknownMethod):
        kernel.transform(nats, u, Method("Ins", (0, Cell(1)), 1))
    with pytest.raises(UnknownMethod):
        kernel.transform(nats, Method("Del", (0,), 1), u)
