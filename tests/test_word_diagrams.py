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


# -- the memo of diagram lists --------------------------------------------------


def small_fubini_words(max_n=4):
    from pipedreams.combinat import enumerate_fubini

    return [w for n in range(1, max_n + 1) for k in range(1, n + 1)
            for w in enumerate_fubini(n, k)]


@pytest.fixture
def cold():
    from pipedreams import clear_caches

    clear_caches()
    yield clear_caches
    clear_caches()


def word_outputs(word):
    """Every word diagram's `to_json()` and the four word sums of `word`."""
    from pipedreams import (word_bpd_grothendieck, word_bpd_schubert,
                            word_pd_grothendieck, word_pd_schubert)

    lists = [[D.to_json() for D in enumerate_word(word, reduced=reduced)]
             for enumerate_word in (enumerate_word_pds, enumerate_word_bpds)
             for reduced in (True, False)]
    sums = [f(word) for f in (word_pd_schubert, word_pd_grothendieck,
                              word_bpd_schubert, word_bpd_grothendieck)]
    return lists, sums


def test_returned_lists_do_not_reach_the_memo(cold):
    from pipedreams.bpd import check_word_bpd_rectangularity
    from pipedreams.pipedream import _ROWS, check_word_rectangularity

    word = Word("21231", 3)
    for f in (enumerate_word_pds, enumerate_word_bpds,
              check_word_rectangularity, check_word_bpd_rectangularity):
        for reduced in (True, False):
            first = f(word, reduced=reduced)
            expected = list(first)
            first.reverse()
            first.append(None)
            assert f(word, reduced=reduced) == expected
            first.clear()
            assert f(word, reduced=reduced) == expected
    assert _ROWS and all(type(v) is tuple for v in _ROWS.values())


def test_warm_memo_gives_the_cold_outputs(cold):
    from pipedreams import row_cache_info, sum_cache_info

    words = small_fubini_words()
    cold_outputs = []
    for word in words:
        cold()
        cold_outputs.append(word_outputs(word))
    for word in words:
        word_outputs(word)
    misses = row_cache_info()["misses"], sum_cache_info()["misses"]
    assert [word_outputs(word) for word in words] == cold_outputs
    for info, before in zip((row_cache_info(), sum_cache_info()), misses):
        assert info["misses"] == before and info["hits"] > 0, info
        assert info["evictions"] == 0, info


def test_clear_caches_empties_the_memo(cold):
    from pipedreams import (bpd_row_cache_info, grothendieck_of_word, poly,
                            row_cache_info, sum_cache_info,
                            word_bpd_grothendieck, word_pd_grothendieck)

    word = Word("21231", 3)
    assert word_pd_grothendieck(word) == grothendieck_of_word(word)
    assert word_bpd_grothendieck(word) == grothendieck_of_word(word)
    # the word sums read the sums by rows, not the diagram lists
    assert row_cache_info()["entries"] == 0
    for enumerate_word in (enumerate_word_pds, enumerate_word_bpds):
        entries = row_cache_info()["entries"]
        enumerate_word(word, reduced=False)
        assert row_cache_info()["entries"] > entries
    assert row_cache_info()["diagrams"] > 0 and poly._CACHE
    assert sum_cache_info()["diagrams"] > 0
    assert bpd_row_cache_info()["diagrams"] > 0
    cold()
    empty = dict.fromkeys(("entries", "diagrams", "hits", "misses",
                           "evictions"), 0)
    assert row_cache_info() == sum_cache_info() == empty
    assert bpd_row_cache_info() == empty
    assert poly._CACHE == {}


def test_memo_holds_at_most_its_bound(cold, monkeypatch):
    from pipedreams import pipedream, row_cache_info
    from pipedreams.pipedream import _int_words

    words = small_fubini_words()
    unbounded = [word_outputs(word)[0] for word in words]
    assert row_cache_info()["evictions"] == 0
    cold()
    bound = 8
    monkeypatch.setattr(pipedream._ROWS, "bound", bound)
    too_big = 0
    for word, expected in zip(words, unbounded):
        lists = word_outputs(word)[0]
        assert lists == expected
        too_big += any(len(L) > bound for L in lists)
        info = row_cache_info()
        stored = sum(map(_int_words, pipedream._ROWS.values()))
        assert info["diagrams"] == stored <= bound, info
        assert info["entries"] == len(pipedream._ROWS)
    assert too_big and row_cache_info()["evictions"] > 0


def test_rectangularity_checks_through_the_memo(cold):
    from pipedreams import row_cache_info
    from pipedreams.bpd import check_word_bpd_rectangularity
    from pipedreams.pipedream import check_word_rectangularity

    for _ in range(2):
        for word in small_fubini_words():
            for reduced in (True, False):
                assert check_word_rectangularity(word, reduced) == []
                assert check_word_bpd_rectangularity(word, reduced) == []
    info = row_cache_info()
    assert info["hits"] >= info["misses"] > 0, info


# -- the word sums, with no view built -----------------------------------------


def test_a_permutation_is_its_own_fubini_word():
    # w in S_n is the word w in [n]^n: u = w, labels 1..n
    from pipedreams import (bpd_grothendieck, bpd_schubert, pd_grothendieck,
                            pd_schubert, word_bpd_grothendieck,
                            word_bpd_schubert, word_pd_grothendieck,
                            word_pd_schubert)
    from pipedreams.combinat import all_permutations

    pairs = ((word_pd_schubert, pd_schubert),
             (word_pd_grothendieck, pd_grothendieck),
             (word_bpd_schubert, bpd_schubert),
             (word_bpd_grothendieck, bpd_grothendieck))
    for n in range(0, 6):
        for w in all_permutations(n):
            word = Word(w.one_line, n)
            for of_word, of_permutation in pairs:
                assert of_word(word) == of_permutation(w), (w, of_word)


def test_the_empty_inputs_have_one_empty_diagram():
    # S_0 and the word () in [0]^0: every list holds one diagram with no
    # cell, on no row, weighing 1 (the sums are checked with the n > 0 ones),
    # whose permutation is S_0's, not the trim of S_0's identity to S_1's
    from pipedreams import (Permutation, Poly, enumerate_reduced,
                            enumerate_reduced_bpd)

    e, word = Permutation(()), Word((), 0)
    for enumerate_ in (enumerate_reduced, enumerate_all,
                       enumerate_reduced_bpd, enumerate_all_bpd):
        D, = enumerate_(e)
        assert D.N == 0 and D._marks() == (0, 0), enumerate_
        assert D.permutation().one_line == (), enumerate_
    for enumerate_word in (enumerate_word_pds, enumerate_word_bpds):
        for reduced in (True, False):
            W, = enumerate_word(word, reduced=reduced)
            assert (W.n, W.k, W.labels, W.excess) == (0, 0, (), 0)
            assert W.weight("K-single") == Poly.const(1, 0)


def test_word_sums_check_the_rectangle_on_every_parent(cold):
    # u = 21345 for the word 21 in [5]^2: injected sums of u whose unions
    # hold cells in rows 3 and 4 lie outside the 2 x 5 rectangle
    from pipedreams import word_bpd_grothendieck, word_pd_schubert
    from pipedreams.bpd import _bpd_sums
    from pipedreams.pipedream import _SUMS, _pd_sums

    word, u = Word("21", 5), (2, 1, 3, 4, 5)
    message = r"outside the 2 x 5 rectangle: \[\(3, 2\), \(4, 1\)\]"
    outside = 1 << 2 * 5 + 1 | 1 << 3 * 5
    terms, union = _pd_sums(u, True)
    cold()
    _SUMS.store((("pd", True, 5), (2, 1)), (terms, union | outside))
    with pytest.raises(RectangularityViolation, match=message):
        word_pd_schubert(word)

    terms, union = _bpd_sums(u, False)
    cold()
    _SUMS.store((("bpd", False, 5), ((1, 2, 3, 4, 5), u)),
                (terms, union | outside))
    with pytest.raises(RectangularityViolation, match=message):
        word_bpd_grothendieck(word)


def test_word_sums_build_no_views(cold, monkeypatch):
    from pipedreams import (word_bpd_grothendieck, word_bpd_schubert,
                            word_pd_grothendieck, word_pd_schubert)
    from pipedreams.pipedream import WordDiagram

    built = []
    of = WordDiagram._of.__func__

    def counted_of(cls, *values):       # every view, checked or not
        built.append(cls)
        return of(cls, *values)

    monkeypatch.setattr(WordDiagram, "_of", classmethod(counted_of))
    for _ in range(2):      # cold memo, then warm
        for word in small_fubini_words():
            for f in (word_pd_schubert, word_pd_grothendieck,
                      word_bpd_schubert, word_bpd_grothendieck):
                f(word)
    assert built == []
    # the counters see the views that the enumerations build
    enumerate_word_pds(Word("21", 2))
    enumerate_word_bpds(Word("21", 2))
    assert built == [WordPipeDream, WordBpd]


def test_word_sums_at_n6_equal_the_word_polynomials(cold):
    # all four word sums of every Fubini word with n = 6, against the
    # divided differences; the sums by rows keep this to a few seconds
    from pipedreams import (grothendieck_of_word, schubert_of_word,
                            word_bpd_grothendieck, word_bpd_schubert,
                            word_pd_grothendieck, word_pd_schubert)
    from pipedreams.combinat import enumerate_fubini

    words = [w for k in range(1, 7) for w in enumerate_fubini(6, k)]
    assert len(words) == 4683
    for word in words:
        s, g = schubert_of_word(word), grothendieck_of_word(word)
        assert word_pd_schubert(word) == s == word_bpd_schubert(word), word
        assert (word_pd_grothendieck(word) == g
                == word_bpd_grothendieck(word)), word


def test_no_word_path_calls_the_word_methods(cold, monkeypatch):
    # every word object is built from `convex_standardization`; the three
    # `Word` methods that spell the same (u, sigma) are test oracles only
    from pipedreams import (cell_dimension_report, chow_class_of_word,
                            grothendieck_of_word, k0_class_of_word,
                            schubert_of_word, verify_rings,
                            word_bpd_grothendieck, word_bpd_schubert,
                            word_pd_grothendieck, word_pd_schubert)
    from oracles import grothendieck_double_of_word, schubert_double_of_word

    def refuse(self, *args):
        raise AssertionError("a production path called a Word oracle")

    for name in ("convexify", "standardize", "associated_permutation"):
        monkeypatch.setattr(Word, name, refuse)
    for word in (Word("21231", 3), Word("2132", 3), "1121"):
        for f in (schubert_of_word, grothendieck_of_word,
                  schubert_double_of_word, grothendieck_double_of_word,
                  k0_class_of_word, chow_class_of_word,
                  word_pd_schubert, word_pd_grothendieck,
                  word_bpd_schubert, word_bpd_grothendieck):
            f(word)
        for enumerate_word in (enumerate_word_pds, enumerate_word_bpds):
            enumerate_word(word, reduced=False)
    assert cell_dimension_report(Word("2442343", 4))["cell_dimension"] == 9
    assert verify_rings(4, 3)["ok"]
