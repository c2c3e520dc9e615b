"""The hierarchical formatted-document tower built by composing the bundled
components: formatted characters, words, sentences, paragraphs, and pages,
each level a sequence of the one below with size and color cells alongside."""

from __future__ import annotations

from typing import Dict, Tuple

from .bounds import Bounds
from .cells import cchar, ccolor, cnat
from .composition import ComposedComponent, StaticProduct, make_update
from .kernel import Component
from .patterns import string_pattern
from .simulator import RunReport, Scenario, run_scenario
from .values import Cell, Method, product, seq_of

# Small bounds keep the tower enumerable up to fparagraph (20,502 states).
TOWER_BOUNDS = Bounds(alphabet=2, nat_max=1, colors=2, max_len=1, sites=2)


def build_document_tower() -> Dict[str, Component]:
    """Build the nine components of the document hierarchy in order: each
    level a string of the formatted level below, formatted in turn."""
    tower: Dict[str, Component] = {}
    below = tower["fchar"] = StaticProduct((cchar(), cnat(), ccolor()), "fchar")
    for level in ("word", "sentence", "paragraph", "page"):
        seq = tower[level] = ComposedComponent(string_pattern(), below, name=level)
        below = tower["f" + level] = StaticProduct((seq, cnat(), ccolor()), "f" + level)
    return tower


def _fchar(ch: str, size: int = 1, color: str = "red"):
    return product([Cell(ch), Cell(size), Cell(color)])


def demo_word_scenario(tower: Dict[str, Component]) -> Tuple[Scenario, RunReport]:
    """Concurrent edit of a formatted word: one site inserts a character at the
    front while the other recolors the character at position 1."""
    fword = tower["fword"]
    base = product([seq_of([_fchar("a"), _fchar("b")]), Cell(None), Cell(None)])
    ins = Method("Ins", (0, _fchar("c")), 1)
    recolor = make_update((1,), _fchar("b"), Method("putcolor", ("green",)), 2)
    scenario = Scenario(component=fword, base=base,
                        ops=[(1, ins), (2, recolor)], delivery="all")
    return scenario, run_scenario(scenario)
