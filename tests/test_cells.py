"""Single-value cells: write-wins-by-merge semantics and their laws."""

import itertools

import pytest
from hypothesis import given, strategies as st

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import CellComponent, cchar, ccolor, cnat
from otcomp.errors import BoundsExceeded, InvalidSpec, UndefinedObservation
from otcomp.values import Cell, Method


def test_fresh_cell_observation_is_undefined():
    with pytest.raises(UndefinedObservation):
        kernel.observe(cchar(), "getchar", (), Cell(None))


def test_write_then_read():
    c = cchar()
    st_ = kernel.apply(c, Method("putchar", ("b",)), Cell(None))
    assert kernel.observe(c, "getchar", (), st_) == "b"


def test_writes_are_always_enabled():
    c = cnat()
    for s in c.enum_states():
        assert kernel.enabled(c, Method("putnat", (2,)), s)


# --- the merge that resolves concurrent writes ------------------------------

def test_char_transform_keeps_larger_write():
    c = cchar()
    t = kernel.transform(c, Method("putchar", ("a",)), Method("putchar", ("c",)))
    assert t == Method("putchar", ("c",))


def test_nat_transform_keeps_smaller_write():
    c = cnat()
    t = kernel.transform(c, Method("putnat", (3,)), Method("putnat", (1,)))
    assert t == Method("putnat", (1,))


def test_color_transform_uses_color_order_not_lexicographic():
    # red precedes green precedes blue; alphabetical order would say otherwise.
    c = ccolor()
    t = kernel.transform(c, Method("putcolor", ("blue",)),
                         Method("putcolor", ("green",)))
    assert t == Method("putcolor", ("green",))
    t = kernel.transform(c, Method("putcolor", ("green",)),
                         Method("putcolor", ("red",)))
    assert t == Method("putcolor", ("red",))


@pytest.mark.parametrize("make", [cchar, cnat, ccolor])
def test_pair_convergence_closed_form(make):
    """Both transformed orders land on the merged write, from every state."""
    c = make()
    puts = [m for m in c.enum_methods() if m.ctor != "nop"]
    for s, m1, m2 in itertools.product(c.enum_states(), puts, puts):
        left = kernel.apply_seq(c, [m1, kernel.transform(c, m2, m1)], s)
        right = kernel.apply_seq(c, [m2, kernel.transform(c, m1, m2)], s)
        assert left == right
        assert left == Cell(kernel.transform(c, m1, m2).args[0])


@given(st.sampled_from("abc"), st.sampled_from("abc"))
def test_char_merge_is_order_insensitive(v1, v2):
    c = cchar()
    m1, m2 = Method("putchar", (v1,)), Method("putchar", (v2,))
    assert kernel.transform(c, m1, m2) == kernel.transform(c, m2, m1)


# --- merge-law validation at build time -------------------------------------

def _cell(merge):
    return CellComponent("cbad", "put", "get", lambda b: [0, 1, 2, 3], merge)


def test_non_idempotent_merge_rejected():
    with pytest.raises(InvalidSpec, match="idempotent"):
        _cell(lambda a, b: a + b)


def test_non_commutative_merge_rejected():
    with pytest.raises(InvalidSpec, match="commutative"):
        _cell(lambda a, b: a)


def test_non_associative_merge_rejected():
    # Idempotent and commutative, but f(f(0,2),1)=1 while f(0,f(2,1))=0.
    def merge(a, b):
        return min(a, b) if abs(a - b) > 1 else max(a, b)
    with pytest.raises(InvalidSpec, match="associative"):
        _cell(merge)


def test_value_domains_follow_bounds():
    b = DEFAULT_BOUNDS.with_(alphabet=2, nat_max=1, colors=1)
    assert [m.args[0] for m in cchar().enum_methods(b) if m.args] == ["a", "b"]
    assert [m.args[0] for m in cnat().enum_methods(b) if m.args] == [0, 1]
    assert [m.args[0] for m in ccolor().enum_methods(b) if m.args] == ["red"]


def test_bounds_past_a_cells_values_are_refused():
    # A cell has 26 letters and 3 colors; a larger bound would check no more
    # than those, while its report claimed the larger domain.
    with pytest.raises(BoundsExceeded, match="bound alphabet=27"):
        cchar().enum_methods(DEFAULT_BOUNDS.with_(alphabet=27))
    with pytest.raises(BoundsExceeded, match="bound colors=9"):
        ccolor().enum_states(DEFAULT_BOUNDS.with_(colors=9))
    assert len(cchar().enum_states(DEFAULT_BOUNDS.with_(alphabet=26))) == 27
    assert len(ccolor().enum_methods(DEFAULT_BOUNDS.with_(colors=3))) == 4
