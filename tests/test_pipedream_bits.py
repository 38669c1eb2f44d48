"""Pipe dreams held as one int of cross bits, against a frozenset oracle.

`oracle_closure` runs the (K-)chute closure on frozensets of (row, column)
cells, one set difference and union per move, the way the moves are
stated; it shares no code with the row recursion in `pipedream`, which
runs on ints.  The packed weight sums are checked against `weight_sum` of
`diagram_weight`, one `Poly` per diagram.
"""

import random
import time

import pytest

from pipedreams import Permutation, Poly, Word
from pipedreams.combinat import all_permutations, enumerate_fubini
from pipedreams.pipedream import (
    PipeDream,
    diagram_weight,
    enumerate_all,
    enumerate_reduced,
    enumerate_word_pds,
    k_signed,
    pd_grothendieck,
    pd_schubert,
    weight_sum,
    word_pd_grothendieck,
    word_pd_schubert,
)

from oracles import (chute_moves, k_chute_moves, marks_union, packed_sum,
                     permutation_by_tracing)


def oracle_chute_targets(P, N):
    """(src, dst) of every legal (K-)chute move of the crosses P: a cross
    at (k, j+1) with (k+1, j+1) empty, rows k and k+1 full across columns
    i+1..j and empty at column i, and (k+1, i) in the staircase."""
    for k, jp1 in P:
        j = jp1 - 1
        if j < 1 or (k + 1, jp1) in P:
            continue
        i = j
        while i >= 1:
            top, bot = (k, i) in P, (k + 1, i) in P
            if not top and not bot:
                if k + 1 + i <= N:
                    yield (k, jp1), (k + 1, i)
                break
            if not (top and bot):
                break
            i -= 1


def oracle_closure(w, k_theory):
    """The sorted cross lists of w's (K-)pipe dreams: breadth-first closure
    of the top pipe dream on frozensets."""
    code_inv = w.inverse().lehmer_code()
    top = frozenset((r, i) for i, ci in enumerate(code_inv, start=1)
                    for r in range(1, ci + 1))
    seen, frontier = {top}, [top]
    while frontier:
        nxt = []
        for P in frontier:
            for src, dst in oracle_chute_targets(P, w.n):
                for Q in [P - {src} | {dst}] + ([P | {dst}] if k_theory else []):
                    if Q not in seen:
                        seen.add(Q)
                        nxt.append(Q)
        frontier = nxt
    return sorted(sorted(P) for P in seen)


PERMS = ([w for n in range(1, 7) for w in all_permutations(n)]
         + random.Random(2512).sample(list(all_permutations(7)), 150))


def small_diagrams(max_n=5):
    return [P for n in range(1, max_n + 1) for w in all_permutations(n)
            for P in enumerate_all(w)]


@pytest.mark.parametrize("enumerate_, k_theory", [
    (enumerate_reduced, False), (enumerate_all, True)], ids=["reduced", "all"])
def test_closures_match_the_frozenset_oracle(enumerate_, k_theory):
    for w in PERMS:
        assert ([P.sorted_crosses() for P in enumerate_(w)]
                == oracle_closure(w, k_theory)), w


def test_moves_match_the_frozenset_oracle():
    for P in small_diagrams(4):
        targets = list(oracle_chute_targets(P.crosses, P.N))
        slides = sorted(sorted(P.crosses - {src} | {dst}) for src, dst in targets)
        copies = sorted(sorted(P.crosses | {dst}) for _, dst in targets)
        assert sorted(Q.sorted_crosses() for Q in chute_moves(P)) == slides
        assert sorted(Q.sorted_crosses() for Q in k_chute_moves(P)) == copies


def test_bits_protocol():
    diagrams = small_diagrams()
    assert len(diagrams) > 1000
    for P in diagrams:
        cells = P.sorted_crosses()
        again = PipeDream(cells, P.N)
        assert again.bits == P.bits
        assert again == P and hash(again) == hash(P)
        assert len(P) == len(cells) == len(P.crosses)
        assert P.crosses == frozenset(cells) and P.crosses is P.crosses
        back = PipeDream.from_json(P.to_json())
        assert back == P and back.bits == P.bits
        assert P.bits == sum(1 << (r - 1) * P.N + c - 1 for r, c in cells)
    # the same crosses in a larger staircase are another pipe dream
    assert PipeDream([(1, 1)], 2) != PipeDream([(1, 1)], 3)


def test_tracing_agrees_with_the_bit_demazure_product():
    for P in small_diagrams() + [P for w in list(all_permutations(6))[::37]
                                 for P in enumerate_all(w)]:
        assert permutation_by_tracing(P).one_line == P._demazure()


def poly_way_sum(diagrams, nx, labels=None, ell=None):
    """`packed_sum` one `Poly` per diagram: `diagram_weight`, `k_signed`."""
    mode = "single" if ell is None else "K-single"
    return weight_sum((k_signed(diagram_weight(mode, nx, P.crosses, labels),
                                0 if ell is None else len(P) - ell)
                       for P in diagrams), nx)


def test_packed_pd_sums_equal_the_poly_sums():
    for n in range(1, 5):
        for w in all_permutations(n):
            ell = w.inversions()
            reduced, every = enumerate_reduced(w), enumerate_all(w)
            assert pd_schubert(w) == poly_way_sum(reduced, n)
            assert pd_grothendieck(w) == poly_way_sum(every, n, ell=ell)
            # rows reversed into one extra variable
            labels = tuple(range(n, 0, -1))
            assert (packed_sum(reduced, n + 1, labels)
                    == poly_way_sum(reduced, n + 1, labels))
            assert (packed_sum(every, n + 1, labels, ell)
                    == poly_way_sum(every, n + 1, labels, ell))


def test_packed_word_pd_sums_equal_the_poly_sums():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for word in enumerate_fubini(n, k):
                views = enumerate_word_pds(word, reduced=True)
                assert word_pd_schubert(word) == weight_sum(
                    (diagram_weight("single", n, W.crosses, W.labels)
                     for W in views), n)
                views = enumerate_word_pds(word, reduced=False)
                assert word_pd_grothendieck(word) == weight_sum(
                    (k_signed(diagram_weight("K-single", n, W.crosses, W.labels),
                              W.excess) for W in views), n)


@pytest.mark.parametrize("P, nx, labels, message", [
    (PipeDream([(1, 1)], 2), 1, (2, 1), "row 1 has label 2, outside 1..nx = 1"),
    (PipeDream([(2, 1)], 3), 3, (1,), "row 2 has no label: 1 labels given"),
])
def test_bad_label_raises_the_diagram_weight_error_from_a_packed_sum(
        P, nx, labels, message):
    with pytest.raises(ValueError) as poly_way:
        diagram_weight("single", nx, P.crosses, labels)
    with pytest.raises(ValueError) as packed:
        packed_sum([P], nx, labels)
    assert str(packed.value) == str(poly_way.value) == message


def test_packed_sum_refuses_an_exponent_past_the_guard_bit():
    row = PipeDream([(1, c) for c in range(1, 129)], 130)
    with pytest.raises(ValueError, match="the exponent of x1 passes 127"):
        packed_sum([row], 130)
    with pytest.raises(ValueError, match="exponent 128 of x1 is outside"):
        diagram_weight("single", 130, row.crosses)
    # 257 cells crossed in some diagram, in the rows read as x1, could
    # carry into the next variable's field
    rows = [PipeDream([(r, c) for c in range(1, 87)], 300) for r in (1, 2, 3)]
    with pytest.raises(ValueError, match="rows read as x1 have 258 cells"):
        packed_sum(rows, 2, (1, 1, 1))
    assert packed_sum(rows[:2], 2, (1, 1, 1)) == Poly(2, 0, {(86, 0): 2})


def test_packed_sums_label_and_count_only_the_crossed_rows():
    # s_1 in S_257: the staircase has far more than 255 cells, the one
    # diagram a single cross
    s1 = Permutation([2, 1] + list(range(3, 258)))
    assert pd_schubert(s1) == pd_grothendieck(s1) == Poly.x(1, 257)
    # words that are not Fubini: u = std(conv(w)) is larger than the n
    # labels reach, but its diagrams cross only labelled rows
    for word in (Word("21", 4), Word("1", 3), Word("12", 5), Word("31", 4)):
        reduced = [W.diagram for W in enumerate_word_pds(word, reduced=True)]
        every = enumerate_word_pds(word, reduced=False)
        labels, ell = every[0].labels, len(every[0].diagram) - every[0].excess
        assert word_pd_schubert(word) == poly_way_sum(reduced, word.n, labels)
        assert word_pd_grothendieck(word) == poly_way_sum(
            [W.diagram for W in every], word.n, labels, ell)


def test_word_rectangle_check_names_the_sorted_cells():
    from pipedreams.pipedream import RectangularityViolation, truncate_to_word

    P = PipeDream([(3, 1), (1, 3), (2, 2), (1, 1)], 5)
    with pytest.raises(RectangularityViolation,
                       match=r"2 x 2 rectangle: \[\(1, 3\), \(3, 1\)\]"):
        truncate_to_word(P, Word("12", 2), Permutation("1"))
    # a staircase no wider than the rectangle: every cross lies inside
    inside = PipeDream([(1, 1), (1, 2), (3, 1)], 4)
    W = truncate_to_word(inside, Word("3121", 3), Permutation("3142"))
    assert W.excess == 0 and W.crosses is inside.crosses


def test_long_permutations_enumerate_without_a_table_of_row_sets():
    # trimmed sizes 20 and 257: the row recursion tries only the columns
    # that a left descent offers, never every subset of a row
    start = time.process_time()
    s19 = Permutation(list(range(1, 19)) + [20, 19])
    assert ([P.sorted_crosses() for P in enumerate_reduced(s19)]
            == [[(r, 20 - r)] for r in range(1, 20)])
    # w0 of S_20: every column of every row is a descent somewhere, yet
    # one diagram, the full staircase
    w0 = Permutation.longest(20)
    for enumerate_ in (enumerate_reduced, enumerate_all):
        only, = enumerate_(w0)
        assert len(only) == 190 == w0.inversions()
    s1 = Permutation([2, 1] + list(range(3, 258)))
    for enumerate_ in (enumerate_reduced, enumerate_all):
        assert [P.sorted_crosses() for P in enumerate_(s1)] == [[(1, 1)]]
    assert time.process_time() - start < 2.0


def test_deep_row_recursion_meets_no_recursion_limit():
    from pipedreams import clear_caches, pipedream, row_cache_info
    from pipedreams.pipedream import _int_words

    # one level per row: 600 rows is past Python's default recursion limit
    clear_caches()
    s599 = Permutation(list(range(1, 599)) + [600, 599])
    diagrams = enumerate_reduced(s599)
    assert len(diagrams) == 599
    assert diagrams[0].sorted_crosses() == [(1, 599)]
    assert diagrams[-1].sorted_crosses() == [(599, 1)]
    # the memo weighs an int by its size: these are up to 360,000 bits
    stored = pipedream._ROWS.values()
    info = row_cache_info()
    assert info["diagrams"] == sum(map(_int_words, stored))
    assert info["diagrams"] <= pipedream.MEMO_WEIGHT
    assert info["diagrams"] > 10 * sum(map(len, stored)) and info["evictions"]
    assert _int_words((0, (1 << 63) - 1, 1 << 63, 1 << 200)) == 1 + 1 + 2 + 4
    clear_caches()


def test_row_memo_holds_at_most_its_bound(monkeypatch):
    from pipedreams import clear_caches, pipedream, row_cache_info

    perms = [w for n in range(1, 6) for w in all_permutations(n)]
    clear_caches()
    unbounded = [[P.bits for P in f(w)] for w in perms
                 for f in (enumerate_reduced, enumerate_all)]
    assert row_cache_info()["evictions"] == 0
    clear_caches()
    bound = 60
    monkeypatch.setattr(pipedream._ROWS, "bound", bound)
    for _ in range(2):
        got = []
        for w in perms:
            for f in (enumerate_reduced, enumerate_all):
                got.append([P.bits for P in f(w)])
                info = row_cache_info()
                stored = sum(map(len, pipedream._ROWS.values()))
                assert info["diagrams"] == stored <= bound, info
                assert info["entries"] == len(pipedream._ROWS)
                assert all(type(v) is tuple for v in pipedream._ROWS.values())
        assert got == unbounded
    info = row_cache_info()
    assert info["evictions"] > 0 and info["hits"] > 0, info
    clear_caches()
    assert row_cache_info() == dict.fromkeys(
        ("entries", "diagrams", "hits", "misses", "evictions"), 0)
    assert not pipedream._ROWS


def test_a_block_outside_the_set_is_refused():
    from pipedreams.pipedream import _check_block

    # the cross (1, 1) over the empty diagram is s_1, not the identity
    with pytest.raises(AssertionError, match="leaves the set"):
        _check_block((1,), (1,), frozenset({(1,)}), True)
    # s_2 over 1 x s_1 = 132: s_2 is a left descent of 132, so the product
    # stays 132 and the row is not reduced, while a K row may do that
    with pytest.raises(AssertionError, match="is not reduced"):
        _check_block((2,), (2, 1), frozenset({(1, 3, 2)}), True)
    _check_block((2,), (2, 1), frozenset({(1, 3, 2)}), False)


# -- sums by rows --------------------------------------------------------------


def test_row_sums_equal_the_sums_over_the_enumeration():
    # `_pd_sums` lists no diagram: its terms against `packed_sum` of the
    # listed diagrams, and its union against the OR of their crosses
    from pipedreams.pipedream import _pd_sums, _sum_poly

    for n in range(0, 7):
        for w in all_permutations(n):
            ell = w.inversions()
            for reduced, enumerate_ in ((True, enumerate_reduced),
                                        (False, enumerate_all)):
                diagrams = enumerate_(w)
                found = _pd_sums(w.one_line, reduced)
                assert found[1] == marks_union(diagrams), (w, reduced)
                assert (_sum_poly(found, n, not reduced and ell % 2)
                        == packed_sum(diagrams, n,
                                      ell=None if reduced else ell)), w


def test_row_sum_refuses_a_row_past_the_exponent_bound():
    # code (m, 0, ..., 0): one pipe dream, row 1 full of m crosses, x_1^m
    for m in (126, 127):
        w = Permutation([m + 1] + list(range(1, m + 1)))
        assert pd_schubert(w) == pd_grothendieck(w) == Poly.x(1, m + 1) ** m
    w = Permutation([129] + list(range(1, 129)))
    with pytest.raises(ValueError, match="a row of 128 crosses"):
        pd_schubert(w)


def test_sum_memo_holds_at_most_its_bound(monkeypatch):
    from pipedreams import (bpd_grothendieck, bpd_row_cache_info,
                            bpd_schubert, clear_caches, pipedream,
                            sum_cache_info)
    from pipedreams import bpd

    sums = (pd_schubert, pd_grothendieck, bpd_schubert, bpd_grothendieck)
    perms = [w for n in range(1, 6) for w in all_permutations(n)]
    clear_caches()
    unbounded = [f(w) for w in perms for f in sums]
    assert sum_cache_info()["evictions"] == 0
    # BPD states with no completion are kept too, each weighing one
    assert any(not terms for terms, _ in pipedream._SUMS.values())
    clear_caches()
    bound = 60
    for memo in (pipedream._SUMS, bpd._ROWS):
        monkeypatch.setattr(memo, "bound", bound)
    for _ in range(2):
        got = []
        for w in perms:
            for f in sums:
                got.append(f(w))
                info = sum_cache_info()
                stored = sum(len(terms) + 1
                             for terms, _ in pipedream._SUMS.values())
                assert stored == sum(map(pipedream._SUMS.weigh,
                                         pipedream._SUMS.values()))
                assert info["diagrams"] == stored <= bound, info
                assert info["entries"] == len(pipedream._SUMS)
                rows = bpd_row_cache_info()
                assert rows["diagrams"] == sum(map(len, bpd._ROWS.values()))
                assert rows["diagrams"] <= bound
        assert got == unbounded
    for info in (sum_cache_info(), bpd_row_cache_info()):
        assert info["evictions"] > 0 and info["hits"] > 0, info
    clear_caches()
    empty = dict.fromkeys(("entries", "diagrams", "hits", "misses",
                           "evictions"), 0)
    assert sum_cache_info() == bpd_row_cache_info() == empty
    assert not pipedream._SUMS and not bpd._ROWS


def test_sum_memo_weighs_keys_and_unions_by_size():
    # s_99 in S_100: keys of 100 bytes and unions of 10,000 bits
    from pipedreams import clear_caches, pipedream, sum_cache_info
    from pipedreams.pipedream import _int_words

    clear_caches()
    s99 = Permutation(list(range(1, 99)) + [100, 99])
    assert pd_schubert(s99) == Poly.sum_of(
        [Poly.x(i, 100) for i in range(1, 100)], 100)
    stored = pipedream._SUMS.values()
    info = sum_cache_info()
    assert info["diagrams"] == sum(_int_words((*terms, union))
                                   for terms, union in stored)
    assert info["diagrams"] <= pipedream.MEMO_WEIGHT
    assert info["diagrams"] > 5 * sum(len(terms) + 1 for terms, _ in stored)
    clear_caches()


def test_returned_sums_do_not_reach_the_memo():
    from pipedreams import (bpd_grothendieck, bpd_schubert, clear_caches,
                            word_bpd_grothendieck, word_pd_schubert)

    clear_caches()
    w, word = Permutation("2143"), Word("21231", 3)
    for f, arg in ((pd_schubert, w), (pd_grothendieck, w), (bpd_schubert, w),
                   (bpd_grothendieck, w), (word_pd_schubert, word),
                   (word_bpd_grothendieck, word)):
        first = f(arg)
        expected = Poly._of(first.nx, 0, dict(first.terms))
        first.terms.clear()
        first.terms[0] = 7
        assert f(arg) == expected, f
    clear_caches()
