"""Word pipe dreams and word BPDs: exact output and the view structure.

`data/word_diagrams_21231.json` holds the exact `to_json()` and `render()`
(one string per row) of every reduced and K-theoretic word pipe dream and
word BPD of 21231 with k = 3, in enumeration order.
"""

import json
from pathlib import Path

import pytest

from pipedreams import Word
from pipedreams.bpd import (
    BpdRectangularityViolation,
    WordBpd,
    enumerate_all_bpd,
    enumerate_word_bpds,
)
from pipedreams.pipedream import (
    RectangularityViolation,
    WordPipeDream,
    enumerate_all,
    enumerate_word_pds,
)

GOLDEN = json.loads((Path(__file__).resolve().parent / "data"
                     / "word_diagrams_21231.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, enumerate_word, reduced", [
    ("reduced pipe dreams", enumerate_word_pds, True),
    ("K pipe dreams", enumerate_word_pds, False),
    ("reduced bpds", enumerate_word_bpds, True),
    ("K bpds", enumerate_word_bpds, False),
])
def test_word_diagram_output_21231(name, enumerate_word, reduced):
    diagrams = enumerate_word(Word(GOLDEN["word"], GOLDEN["k"]), reduced=reduced)
    assert [D.to_json() for D in diagrams] == [g["to_json"] for g in GOLDEN[name]]
    assert [D.render() for D in diagrams] == ["\n".join(g["render"])
                                              for g in GOLDEN[name]]


def test_word_diagrams_are_views_of_their_parents():
    from pipedreams.pipedream import WordDiagram

    assert RectangularityViolation is BpdRectangularityViolation
    assert WordDiagram.__slots__ == ("diagram", "n", "k", "labels", "excess")
    for cls in (WordPipeDream, WordBpd):
        assert issubclass(cls, WordDiagram) and cls.__slots__ == ()
    word = Word("21231", 3)
    u = word.convexify().standardize()
    pds = enumerate_word_pds(word, reduced=False)
    assert [W.diagram for W in pds] == enumerate_all(u)
    assert all(W.crosses is W.diagram.crosses for W in pds)
    bpds = enumerate_word_bpds(word, reduced=False)
    assert [W.diagram for W in bpds] == enumerate_all_bpd(u)
    for W in bpds:
        assert W.tiles == tuple(row[:3] for row in W.diagram.tiles[:5])
        assert W.blanks() == W.diagram.blanks()
