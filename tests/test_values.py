"""The JSON literal format: every enumerated value decodes back."""

import json

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import decode_method, decode_state, value_to_json


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
