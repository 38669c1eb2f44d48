"""Diagram weights and weight sums, checked against a per-cell product.

`reference_weight` multiplies one linear factor per weight cell and per NW
cell with `Poly.__mul__`, the way every diagram weight was built before the
single `diagram_weight` routine; it shares no code with that routine.
"""

import pytest

from pipedreams import Permutation, Poly, Word
from pipedreams.bpd import (
    diagram_bpd,
    enumerate_all_bpd,
    enumerate_reduced_bpd,
    enumerate_word_bpds,
)
from pipedreams.combinat import all_permutations, enumerate_fubini
from pipedreams.pipedream import (
    PipeDream,
    enumerate_all,
    enumerate_reduced,
    enumerate_word_pds,
    weight_sum,
)

MODES = ("single", "double", "K-single", "K-double")


def reference_weight(mode, nx, cells, labels=None, nw=()):
    """Product of one linear factor per cell; NW factors in the K modes."""
    ny = nx if mode in ("double", "K-double") else 0
    lab = (lambda r: labels[r - 1]) if labels else (lambda r: r)
    p = Poly.const(1, nx, ny)
    for r, c in cells:
        x = Poly.x(lab(r), nx, ny)
        if mode in ("single", "K-single"):
            p = p * x
        else:
            y = Poly.y(c, nx, ny)
            p = p * (x - y if mode == "double" else x + y - x * y)
    if mode.startswith("K"):
        for r, c in nw:
            x = Poly.x(lab(r), nx, ny)
            if mode == "K-single":
                p = p * (1 - x)
            else:
                y = Poly.y(c, nx, ny)
                p = p * (1 - x - y + x * y)
    return p


def relabelings(N):
    """(nx, labels): none, and the rows reversed into one extra variable."""
    return [(None, None), (N + 1, tuple(range(N, 0, -1)))]


def fubini_words(max_n):
    return [word for n in range(1, max_n + 1) for k in range(1, n + 1)
            for word in enumerate_fubini(n, k)]


# -- the weight routine against the reference -----------------------------------


def test_pd_weights_match_reference_over_s4():
    checked = 0
    for w in all_permutations(4):
        for P in enumerate_reduced(w) + enumerate_all(w):
            for nx, labels in relabelings(P.N):
                for mode in MODES:
                    want = reference_weight(mode, nx or P.N, P.crosses, labels)
                    assert P.weight(mode, nx=nx, labels=labels) == want
                    checked += 1
    assert checked > 500


def test_bpd_weights_match_reference_over_s4():
    checked = 0
    for w in all_permutations(4):
        ell = w.inversions()
        for B in enumerate_reduced_bpd(w) + enumerate_all_bpd(w):
            blanks = B.blanks()
            for nx, labels in relabelings(B.N):
                for mode in MODES:
                    want = reference_weight(mode, nx or B.N, blanks, labels,
                                            B.nw_elbows())
                    if mode.startswith("K") and (len(blanks) - ell) % 2:
                        want = -want
                    assert B.weight(mode, w=w, nx=nx, labels=labels) == want
                    checked += 1
    assert checked > 500


def test_word_weights_match_reference():
    for word in fubini_words(4):
        for reduced in (True, False):
            for mode in ("single", "K-single"):
                for P in enumerate_word_pds(word, reduced=reduced):
                    assert P.weight(mode) == reference_weight(
                        mode, word.n, P.crosses, P.labels)
                for W in enumerate_word_bpds(word, reduced=reduced):
                    want = reference_weight(mode, word.n, W.blanks(),
                                            W.labels, W.nw_elbows())
                    if mode == "K-single" and W.excess % 2:
                        want = -want
                    assert W.weight(mode) == want


# -- bad modes and labels ------------------------------------------------------------


@pytest.mark.parametrize("diagram", [
    lambda: PipeDream([], 2),
    lambda: diagram_bpd(Permutation("12")),
    lambda: enumerate_word_pds(Word("12", 2))[0],
    lambda: enumerate_word_bpds(Word("12", 2))[0],
], ids=["PipeDream", "Bpd", "WordPipeDream", "WordBpd"])
def test_unknown_mode_is_rejected_without_weight_cells(diagram):
    D = diagram()
    assert D.weight("single") == 1
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        D.weight("bogus")


@pytest.mark.parametrize("diagram", [
    PipeDream([(1, 1)], 2),
    diagram_bpd(Permutation("21")),
], ids=["PipeDream", "Bpd"])
def test_row_label_beyond_arity_names_label_and_nx(diagram):
    with pytest.raises(ValueError, match=r"label 2, outside 1\.\.nx = 1"):
        diagram.weight("single", nx=1, labels=(2, 1))


def test_column_beyond_arity_names_cell_and_nx():
    with pytest.raises(ValueError,
                       match=r"cell \(2, 3\) has column 3, outside 1\.\.nx = 2"):
        diagram_bpd(Permutation("1432")).weight("double", nx=2,
                                                labels=(1, 1, 1, 1))


def test_too_few_labels_names_row_and_label_count():
    with pytest.raises(ValueError, match="row 3 has no label: 2 labels given"):
        diagram_bpd(Permutation("1432")).weight("single", labels=(1, 2))


# -- sums ---------------------------------------------------------------------------


def test_weight_sum_drops_cancelled_terms():
    x1, x2 = Poly.x(1, 2), Poly.x(2, 2)
    assert dict(weight_sum([x1, x2, -x1], 2).items()) == {(0, 1): 1}


# -- K-single NW factors ----------------------------------------------------------


def test_k_single_nw_factors_equal_the_reference_product():
    from pipedreams.pipedream import diagram_weight

    cells = [(1, 1), (1, 2), (3, 1)]
    nw = [(1, 3), (2, 1), (2, 2), (3, 2), (3, 3)]
    for labels in (None, (3, 1, 3), (2, 4, 1)):
        for k in range(len(nw) + 1):
            got = diagram_weight("K-single", 4, cells, labels, nw[:k])
            assert got == reference_weight("K-single", 4, cells, labels, nw[:k])
    # a repeated label: the terms of (1 - x_3)^3 collect into one key each
    assert dict(diagram_weight("K-single", 1, [], None,
                               [(1, 1)] * 3).items()) == {
        (0,): 1, (1,): -3, (2,): 3, (3,): -1}


def test_k_single_nw_exponent_past_the_guard_bit_is_refused():
    from pipedreams.pipedream import diagram_weight

    with pytest.raises(ValueError, match="the exponent of x2 passes 127"):
        diagram_weight("K-single", 2, [(2, 1)] * 100, None, [(2, 2)] * 28)
    assert diagram_weight("K-single", 2, [(2, 1)] * 100, None,
                          [(2, 2)] * 27).coefficient((0, 127)) == -1
