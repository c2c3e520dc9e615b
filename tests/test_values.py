"""The value classes: equality, hashing, repr, immutability and copying;
and the JSON literal format: every enumerated value decodes back."""

import copy
import json
import pickle

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.composition import make_update
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import (NOP, Cell, Method, Opaque, Product, SeqOf, SetOf, decode_method,
                           decode_state, value_to_json)


def _values():
    """One of each value class, built anew on each call, with its repr."""
    return [
        (Cell("a"), "Cell(value='a')"),
        (Cell(None), "Cell(value=None)"),
        (Opaque("x"), "Opaque(value='x')"),
        (SetOf(frozenset([Cell("a")])), "SetOf(items=frozenset({Cell(value='a')}))"),
        (SeqOf((Cell("a"),)), "SeqOf(items=(Cell(value='a'),))"),
        (Product((Cell(1), Cell(None))), "Product(items=(Cell(value=1), Cell(value=None)))"),
        (Method("Ins", (0, Cell("a")), 1), "Method(ctor='Ins', args=(0, Cell(value='a')), site=1)"),
        (Method("nop"), "Method(ctor='nop', args=(), site=None)"),
    ]


def test_values_of_different_classes_or_tuples_are_unequal():
    assert Cell("a") != Opaque("a") and Opaque("a") != Cell("a")
    assert SeqOf((1,)) != Product((1,)) and SetOf() != SeqOf()
    assert Cell("a") != ("a",) and ("a",) != Cell("a")
    assert SeqOf((1,)) != ((1,),) and SeqOf((1,)) != (1,)
    assert Method("Ins", (0,), 1) != ("Ins", (0,), 1)
    assert NOP != ("nop", (), None)


def test_equal_values_hash_equal():
    for (v, _), (w, _) in zip(_values(), _values()):
        assert v is not w and v == w and not v != w and hash(v) == hash(w)
    assert len({v for v, _ in _values() + _values()}) == len(_values())


def test_a_raw_value_in_a_report_is_refused_by_json():
    # A value is a tuple tagged by its class: json would write a tuple of
    # plain data as a list, but the tag is not JSON, so a value that skipped
    # value_to_json cannot reach a report silently.
    for v, _ in _values():
        with pytest.raises(TypeError):
            json.dumps({"witnesses": [{"state": v}]})
        with pytest.raises(TypeError):
            json.dumps({"witnesses": [{"state": v}]}, indent=2)
        json.dumps({"witnesses": [{"state": value_to_json(v)}]})


def test_reprs_are_pinned():
    # Replay-mismatch messages print methods and states this way.
    for v, text in _values():
        assert repr(v) == text
    assert repr(DEFAULT_BOUNDS).startswith("Bounds(alphabet=3, nat_max=3, ")


def test_fields_can_be_neither_assigned_nor_deleted():
    for v, _ in _values():
        for name in v._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(v, name, 1)
            with pytest.raises(AttributeError):
                delattr(v, name)
    with pytest.raises(AttributeError):
        DEFAULT_BOUNDS.sites = 3
    assert DEFAULT_BOUNDS.sites == 2


def test_copies_and_pickle_round_trips_are_equal():
    for v, text in _values():
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(w) is type(v) and w == v and repr(w) == text
    b = DEFAULT_BOUNDS.with_(sites=3)
    assert repr(pickle.loads(pickle.dumps(b))) == repr(copy.copy(b)) == repr(b)


def test_an_updates_derived_state_changes_neither_equality_hash_nor_repr():
    c = build("string[cchar]")
    u = make_update((0,), Cell("a"), Method("putchar", ("b",)), 1)
    twin = Method(u.ctor, u.args, u.site)
    before = (hash(u), repr(u))
    assert c.update_new(u) == Cell("b")
    assert u._new == (c.parts[0], Cell("b"))
    with pytest.raises(AttributeError):
        twin._new
    assert u == twin and twin == u and (hash(u), repr(u)) == before == (hash(twin), repr(twin))
    assert value_to_json(u) == value_to_json(twin)
    assert pickle.loads(pickle.dumps(u)) == u


def _trip(v):
    return json.loads(json.dumps(value_to_json(v)))


@pytest.fixture(scope="module")
def tower():
    return build_document_tower()


@pytest.mark.parametrize("name", [
    "string[cchar]", "set-guarded[cchar]", "cchar (+) cnat (+) ccolor",
    "set-guarded[cchar] (+) cnat", "word", "fword"])
def test_enumerated_values_decode_back(name, tower):
    if name in tower:
        c, b = tower[name], TOWER_BOUNDS
    else:
        c, b = build(name), DEFAULT_BOUNDS
    for m in c.enum_methods(b):
        assert decode_method(c, _trip(m)) == m
    for s in c.enum_states(b):
        assert decode_state(c, _trip(s)) == s
