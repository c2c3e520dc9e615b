"""The hierarchical formatted-document demo built by alternating the
sequence pattern with formatting products."""

import pytest

from otcomp.composition import ComposedComponent
from otcomp.tower import (TOWER_BOUNDS, build_document_tower,
                          demo_word_scenario)
from otcomp.values import Cell, product, seq_of


@pytest.fixture(scope="module")
def tower():
    return build_document_tower()


def test_all_nine_levels_are_built(tower):
    assert list(tower) == ["fchar", "word", "fword", "sentence", "fsentence",
                           "paragraph", "fparagraph", "page", "fpage"]


def test_levels_alternate_static_and_dynamic(tower):
    for name, comp in tower.items():
        if name in ("word", "sentence", "paragraph", "page"):
            assert isinstance(comp, ComposedComponent)
        else:
            assert not isinstance(comp, ComposedComponent)


def test_every_dynamic_level_grafts_updates(tower):
    for name in ("word", "sentence", "paragraph", "page"):
        assert "Update" in tower[name].method_ctors


def test_word_demo_scenario_converges(tower):
    scenario, report = demo_word_scenario(tower)
    assert report.converged and report.fully_legal
    # The insertion lands in front; the concurrent recolor follows its
    # element to the shifted position.
    text, size, color = report.final_state().items
    assert len(text.items) == 3
    assert text.items[0] == product([Cell("c"), Cell(1), Cell("red")])
    assert text.items[2] == product([Cell("b"), Cell(1), Cell("green")])


def test_states_stay_enumerable_at_tower_bounds(tower):
    # Building the tower enumerates nothing, but its top must still
    # enumerate at these bounds for a check or a sweep to reach it.
    assert len(tower["fpage"].enum_states(TOWER_BOUNDS)) > 2
