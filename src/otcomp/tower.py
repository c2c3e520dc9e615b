"""The hierarchical formatted-document tower built by composing the bundled
components: formatted characters, words, sentences, paragraphs, and pages,
each level a sequence of the one below with size and color cells alongside."""

from __future__ import annotations

from typing import Dict, Tuple

from .bounds import Bounds
from .cells import cchar, ccolor, cnat
from .composition import dynamic_compose, make_update, static_compose
from .kernel import Component
from .patterns import string_pattern
from .simulator import RunReport, Scenario, run_scenario
from .values import Cell, Method, product, seq_of

# Small bounds keep admissibility sweeps at the upper tiers tractable.
TOWER_BOUNDS = Bounds(alphabet=2, nat_max=1, colors=2, max_len=1, sites=2)


def build_document_tower(b: Bounds = TOWER_BOUNDS) -> Dict[str, Component]:
    """Build the nine components of the document hierarchy in order."""
    string = string_pattern
    fchar = static_compose(cchar(), cnat(), ccolor())
    fchar.name = "fchar"
    word = dynamic_compose(string(), fchar, b=b)
    word.name = "word"
    fword = static_compose(word, cnat(), ccolor())
    fword.name = "fword"
    sentence = dynamic_compose(string(), fword, b=b)
    sentence.name = "sentence"
    fsentence = static_compose(sentence, cnat(), ccolor())
    fsentence.name = "fsentence"
    paragraph = dynamic_compose(string(), fsentence, b=b)
    paragraph.name = "paragraph"
    fparagraph = static_compose(paragraph, cnat(), ccolor())
    fparagraph.name = "fparagraph"
    page = dynamic_compose(string(), fparagraph, b=b)
    page.name = "page"
    fpage = static_compose(page, cnat(), ccolor())
    fpage.name = "fpage"
    return {
        "fchar": fchar, "word": word, "fword": fword,
        "sentence": sentence, "fsentence": fsentence,
        "paragraph": paragraph, "fparagraph": fparagraph,
        "page": page, "fpage": fpage,
    }


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
    return scenario, run_scenario(scenario, component=fword)
