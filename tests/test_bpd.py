"""Bumpless pipe dreams: grid validity, droop moves, weights, words."""

import hashlib
import itertools
import random

import pytest

from pipedreams import Permutation, Word
from pipedreams.bpd import (
    BpdRectangularityViolation,
    Bpd,
    Tile,
    bpd_grothendieck,
    bpd_schubert,
    check_word_bpd_rectangularity,
    diagram_bpd,
    enumerate_all_bpd,
    enumerate_reduced_bpd,
    enumerate_word_bpds,
    truncate_to_word_bpd,
    word_bpd_grothendieck,
    word_bpd_schubert,
)
from pipedreams.combinat import all_permutations
from pipedreams.pipedream import enumerate_reduced
from pipedreams.poly import (
    grothendieck,
    grothendieck_double,
    grothendieck_of_word,
    schubert,
    schubert_double,
    schubert_of_word,
)

from oracles import droop_moves, k_droop_moves, tile_cells

B_, H_, V_, C_, S_, N_ = (
    Tile.BLANK,
    Tile.HOR,
    Tile.VER,
    Tile.CROSS,
    Tile.SE,
    Tile.NW,
)


# -- construction and validity ------------------------------------------------


def test_diagram_bpd_identity():
    B = diagram_bpd(Permutation("12"))
    assert B.tile(1, 1) == S_ and B.tile(2, 2) == S_
    assert B.tile(1, 2) == H_ and B.tile(2, 1) == V_
    assert B.blanks() == []
    assert B.weight().to_text() == "1"


def test_diagram_bpd_longest_s2():
    B = diagram_bpd(Permutation("21"))
    assert B.tile(1, 1) == B_
    assert B.tile(1, 2) == S_ and B.tile(2, 1) == S_
    assert B.tile(2, 2) == C_
    assert B.weight().to_text() == "x1"


def test_diagram_blanks_form_rothe_diagram():
    for p in itertools.permutations(range(1, 6)):
        w = Permutation(p)
        B = diagram_bpd(w)
        rothe = {
            (i, j)
            for i in range(1, 6)
            for j in range(1, 6)
            if j < w(i) and w.inverse()(j) > i
        }
        assert set(B.blanks()) == rothe
        assert B.is_reduced()
        assert B.permutation() == w


def test_validate_rejects_empty_grid():
    with pytest.raises(ValueError):
        Bpd([[B_]]).validate()


def test_single_se_tile_is_identity():
    B = Bpd([[S_]])
    B.validate()
    assert B.permutation().one_line == (1,)


def test_validate_rejects_edge_mismatch():
    # horizontal next to vertical leaves a dangling pipe end
    with pytest.raises(ValueError):
        Bpd([[S_, H_], [V_, H_]]).validate()


@pytest.mark.parametrize("grid, cell", [
    ([[H_]], r"\(1,1\) do not fit its HOR"),
    ([[S_, H_], [V_, H_]], r"\(2,2\) do not fit its HOR"),
    ([[S_, H_], [V_, C_]], r"\(2,2\) do not fit its CROSS"),
])
def test_trace_names_the_cell_of_a_malformed_grid(grid, cell):
    for B in (Bpd(grid), Bpd.from_json(Bpd(grid).to_json())):
        with pytest.raises(ValueError, match=cell):
            B.permutation()
        with pytest.raises(ValueError, match=cell):
            B.weight("K-single")


def test_json_roundtrip():
    B = diagram_bpd(Permutation("24153"))
    assert Bpd.from_json(B.to_json()).code_string() == B.code_string()


@pytest.mark.parametrize("text, message", [
    ('{"n": 1, "tiles": [["FOO"]]}', r"unknown tile 'FOO' at \(1, 1\)"),
    ('{"n": 2, "tiles": [["SE", "HOR"], ["VER", "BAR"]]}',
     r"unknown tile 'BAR' at \(2, 2\)"),
    ('{"n": 1}', "BPD JSON lacks the 'tiles' field"),
    ('{"tiles": [["SE"]]}', "BPD JSON lacks the 'n' field"),
    ('{"n": 3, "tiles": [["BLANK"]]}',
     r"BPD JSON has n = 3 but len\(tiles\) = 1"),
    ('[["SE"]]', "BPD JSON must be an object"),
], ids=["tile", "tile-2-2", "no-tiles", "no-n", "n-mismatch", "not-object"])
def test_from_json_names_what_is_wrong(text, message):
    with pytest.raises(ValueError, match=message):
        Bpd.from_json(text)


# -- enumeration ---------------------------------------------------------------


def test_bpd_counts_for_24153():
    w = Permutation("24153")
    assert len(enumerate_reduced_bpd(w)) == 5
    # one further K-droop exists, giving a single non-reduced diagram
    assert len(enumerate_all_bpd(w)) == 6


def test_identity_has_single_bpd():
    for n in (1, 2, 3, 4):
        w = Permutation.identity(n)
        assert enumerate_reduced_bpd(w) == [diagram_bpd(w)]
        assert enumerate_all_bpd(w) == [diagram_bpd(w)]


def test_reduced_bpd_count_equals_reduced_pd_count():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert len(enumerate_reduced_bpd(w)) == len(enumerate_reduced(w))


def test_bpd_and_pd_k_sums_agree():
    # the models share the generating function even though their diagram
    # counts differ (a K-BPD weight expands to several monomials)
    from pipedreams.pipedream import pd_grothendieck

    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert bpd_grothendieck(w) == pd_grothendieck(w)


def test_enumeration_golden():
    """SHA-256 of the `to_json()` of every reduced, then every K-theoretic,
    BPD of each w in S_1..S_5, in itertools.permutations order."""
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            for B in enumerate_reduced_bpd(w) + enumerate_all_bpd(w):
                digest.update(B.to_json().encode())
                count += 1
    assert count == 925
    assert digest.hexdigest() == (
        "2e69ca469d30836d360384fa3721c38a1a85f5957e407d729ffb41dffe2f4236")


def test_enumeration_equals_the_droop_closure():
    # the row enumeration against the closure of the diagram BPD, list for
    # list and in order, over all of S_1..S_6
    from oracles import bpd_closure

    count = 0
    for n in range(1, 7):
        for w in all_permutations(n):
            for reduced, enumerate_ in ((True, enumerate_reduced_bpd),
                                        (False, enumerate_all_bpd)):
                expected = bpd_closure(w, reduced)
                assert enumerate_(w) == expected, (w, reduced)
                count += len(expected)
    assert count == 14441


def test_every_enumerated_grid_is_a_bpd_of_w():
    for n in range(0, 6):
        for w in all_permutations(n):
            reduced = set(enumerate_reduced_bpd(w))
            for B in enumerate_all_bpd(w):
                assert B.validate() and B.permutation() == w, B
                assert B.is_reduced() == (B in reduced), B


def test_enumeration_neither_droops_nor_traces(monkeypatch):
    import oracles
    from pipedreams import clear_caches

    def refuse(self, *args, **kwargs):
        raise AssertionError("the enumeration droops or traces")

    expected = [[B.to_json() for B in f(w)]
                for n in range(1, 6) for w in all_permutations(n)
                for f in (enumerate_reduced_bpd, enumerate_all_bpd)]
    monkeypatch.setattr(oracles, "bpd_moves", refuse)
    monkeypatch.setattr(Bpd, "_exits", refuse)
    clear_caches()
    assert [[B.to_json() for B in f(w)]
            for n in range(1, 6) for w in all_permutations(n)
            for f in (enumerate_reduced_bpd, enumerate_all_bpd)] == expected


def test_lists_in_the_row_memo_are_weighed_by_size():
    # a BPD of S_6 is a 108-bit int of tile codes and weighs two
    from pipedreams import clear_caches, pipedream, row_cache_info
    from pipedreams.pipedream import _int_words

    clear_caches()
    diagrams = enumerate_all_bpd(Permutation("351624"))
    stored = pipedream._ROWS.values()
    assert row_cache_info()["diagrams"] == sum(map(_int_words, stored))
    assert max(map(len, stored)) == len(diagrams)
    assert sum(map(_int_words, stored)) > sum(map(len, stored))
    clear_caches()


def test_enumeration_deterministic():
    w = Permutation("24153")
    a = [B.code_string() for B in enumerate_all_bpd(w)]
    b = [B.code_string() for B in enumerate_all_bpd(w)]
    assert a == b
    assert a == sorted(a)


# -- droop moves ----------------------------------------------------------------


def test_droop_moves_preserve_permutation():
    w = Permutation("24153")
    for B in enumerate_reduced_bpd(w):
        for D in droop_moves(B):
            D.validate()
            assert D.permutation() == w
            assert D.is_reduced()


def test_k_droop_adds_a_blank_and_keeps_hecke_class():
    w = Permutation("24153")
    for B in enumerate_all_bpd(w):
        for D in k_droop_moves(B):
            D.validate()
            assert D.permutation() == w
            assert len(D.blanks()) == len(B.blanks()) + 1


def test_k_droop_skips_destinations_upstream_of_the_crossing():
    # Pipes 1 and 3 of 31254 cross, but some closures pass through a
    # diagram where their only crossing lies downstream of a tempting
    # SE-elbow destination; drooping there would make the new tile the
    # pair's first crossing and rewire the permutation to 32154.
    w = Permutation("31254")
    diagrams = enumerate_all_bpd(w)
    assert all(B.permutation() == w for B in diagrams)
    for B in diagrams:
        for D in k_droop_moves(B):
            assert D.permutation() == w
    assert bpd_grothendieck(w) == grothendieck(w).restrict_arity(5)


def test_droops_from_diagram_reach_all_reduced_bpds():
    w = Permutation("24153")
    seen = {diagram_bpd(w).code_string()}
    frontier = [diagram_bpd(w)]
    while frontier:
        B = frontier.pop()
        for D in droop_moves(B):
            if D.code_string() not in seen:
                seen.add(D.code_string())
                frontier.append(D)
    assert seen == {B.code_string() for B in enumerate_reduced_bpd(w)}


# -- weights and generating functions ---------------------------------------------


def test_weight_modes_on_w0():
    B = diagram_bpd(Permutation("21"))
    assert B.weight("single").to_text() == "x1"
    assert B.weight("double").to_text() == "x1 - y1"
    assert B.weight("K-single").to_text() == "x1"
    assert B.weight("K-double").to_text() == "x1 + y1 - x1*y1"
    with pytest.raises(ValueError):
        B.weight("quintuple")


def test_k_weight_sign_alternates_by_degree():
    # every term of a K-weight carries sign (-1)^(degree - length), so the
    # plain sum over diagrams reproduces the Grothendieck alternation
    w = Permutation("24153")
    ell = w.inversions()
    for B in enumerate_all_bpd(w):
        f = B.weight("K-single", w=w)
        for exp, c in f.items():
            assert c * (-1) ** (sum(exp) - ell) > 0


def test_bpd_schubert_matches_recursion():
    for n in (0, 2, 3, 4, 5):
        for p in itertools.permutations(range(1, n + 1)):
            w = Permutation(p)
            assert bpd_schubert(w) == schubert(w).restrict_arity(n)


def test_bpd_grothendieck_matches_recursion():
    for n in (0, 2, 3, 4, 5):
        for p in itertools.permutations(range(1, n + 1)):
            w = Permutation(p)
            assert bpd_grothendieck(w) == grothendieck(w).restrict_arity(n)


def test_bpd_double_sums_match_recursion():
    for p in [(), *itertools.permutations(range(1, 4))]:
        w = Permutation(p)
        assert bpd_schubert(w, double=True) == schubert_double(w)
        assert bpd_grothendieck(w, double=True) == grothendieck_double(w)


def test_max_weight_bpd_for_24153():
    # some reduced diagram carries the dominant monomial of the polynomial
    weights = {B.weight().to_text() for B in enumerate_reduced_bpd(Permutation("24153"))}
    assert "x1^2*x2^2" in weights


# -- word BPDs --------------------------------------------------------------------


def test_word_bpd_counts_21231():
    word = Word("21231", 3)
    assert len(enumerate_word_bpds(word)) == 5
    assert len(enumerate_word_bpds(word, reduced=False)) == 6


def test_word_bpd_shape_and_labels():
    for W in enumerate_word_bpds(Word("21231", 3)):
        assert (W.n, W.k) == (5, 3)
        assert W.labels == (1, 3, 2, 5, 4)
        assert W.excess == 0


def test_paper_displayed_word_bpd_is_enumerated():
    word = Word("21231", 3)
    tiles = (
        (B_, S_, H_),
        (B_, V_, B_),
        (B_, V_, S_),
        (S_, C_, N_),
        (V_, V_, S_),
    )
    got = {W.tiles for W in enumerate_word_bpds(word)}
    assert tiles in got


def test_word_bpd_schubert_golden():
    word = Word("21231", 3)
    assert word_bpd_schubert(word) == schubert_of_word(word).restrict_arity(5)


def test_word_bpd_grothendieck_golden():
    word = Word("21231", 3)
    assert word_bpd_grothendieck(word) == grothendieck_of_word(word).restrict_arity(5)


def test_word_bpd_identities_small_sweep():
    from pipedreams.combinat import enumerate_fubini

    for n in range(1, 5):
        for k in range(1, n + 1):
            for letters in enumerate_fubini(n, k):
                word = Word(letters, k)
                assert word_bpd_schubert(word) == schubert_of_word(word).restrict_arity(n)
                assert word_bpd_grothendieck(word) == grothendieck_of_word(
                    word
                ).restrict_arity(n)


def test_word_truncation_full_width_keeps_tiles():
    w = Permutation("2431")
    word = Word("2431", 4)
    for B in enumerate_reduced_bpd(w):
        W = truncate_to_word_bpd(B, word)
        assert W.tiles == B.tiles
        assert W.labels == (1, 2, 3, 4)


def test_word_truncation_rejects_cells_outside_rectangle():
    B = diagram_bpd(Permutation("1423"))  # blanks (2, 2), (2, 3)
    with pytest.raises(BpdRectangularityViolation,
                       match=r"outside the 2 x 2 rectangle: \[\(2, 3\)\]"):
        truncate_to_word_bpd(B, Word("12", 2))


def test_word_truncation_rejects_a_bpd_of_another_permutation():
    B = diagram_bpd(Permutation("21"))
    with pytest.raises(ValueError, match=r"of 21, not of std\(conv\(12\)\) = 12"):
        truncate_to_word_bpd(B, Word("12", 2))


def test_blank_rectangularity_no_violations_small_words():
    from pipedreams.combinat import enumerate_fubini

    for n in range(1, 5):
        for k in range(1, n + 1):
            for letters in enumerate_fubini(n, k):
                word = Word(letters, k)
                assert check_word_bpd_rectangularity(word, reduced=True) == []
                assert check_word_bpd_rectangularity(word, reduced=False) == []


def test_tracing_refuses_exactly_the_grids_whose_edges_do_not_match():
    """`validate()`, by the row table, and the anti-diagonal walk
    `oracles.trace_pipes` of the droop closure each check a grid alone: both
    must raise on every grid the side-by-side walk `oracles.edges_match`
    rejects, and on no other, and on a grid they accept `permutation()`
    must be the traced one.  Every grid of size 1 and 2, and one- and
    two-tile mutations of K-BPDs of S_3..S_5."""
    from oracles import edges_match, trace_pipes

    from pipedreams.combinat import all_permutations

    outcomes = set()

    def agree(tiles):
        B = Bpd(tiles)
        valid = edges_match(B)
        try:
            traced = trace_pipes(B)[0]
        except ValueError:
            traced = None
        try:
            checked = B.validate()
        except ValueError:
            checked = False
        assert valid == checked == (traced is not None), B
        if valid:
            assert B.permutation().one_line == tuple(traced), B
        outcomes.add(valid)

    for N in (1, 2):
        for flat in itertools.product(Tile, repeat=N * N):
            agree([flat[r * N:(r + 1) * N] for r in range(N)])
    rng = random.Random(2512)
    mutants = 0
    for n in (3, 4, 5):
        for w in all_permutations(n):
            for B in enumerate_all_bpd(w):
                for edits in (1, 2, 2):
                    g = [list(row) for row in B.tiles]
                    for _ in range(edits):
                        g[rng.randrange(n)][rng.randrange(n)] = rng.choice(list(Tile))
                    agree(g)
                    mutants += 1
    assert outcomes == {True, False} and mutants > 1000


def test_diagram_work_is_bounded(monkeypatch):
    """Upper bounds on pipe reading (`_exits`) and grid validation, so a
    change to the enumerations that re-checks diagrams shows up here.  The
    memos start empty, so a memo warmed by earlier tests cannot hide their
    work."""
    from pipedreams import clear_caches
    from pipedreams.combinat import all_permutations, enumerate_fubini

    calls = {"_exits": 0, "validate": 0}

    def counting(name):
        method = getattr(Bpd, name)

        def wrapper(self):
            calls[name] += 1
            return method(self)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Bpd, name, counting(name))
    clear_caches()
    for w in all_permutations(4):
        enumerate_reduced_bpd(w)
        enumerate_all_bpd(w)
    assert calls["_exits"] <= 79 and calls["validate"] <= 83, calls
    calls.update(_exits=0, validate=0)
    for n in range(1, 5):
        for k in range(1, n + 1):
            for word in enumerate_fubini(n, k):
                enumerate_word_bpds(word, reduced=True)
                enumerate_word_bpds(word, reduced=False)
    assert calls["_exits"] <= 91 and calls["validate"] <= 103, calls


# -- word BPD sums on ints ---------------------------------------------------


def poly_way_word_bpd_sum(word, reduced):
    """The word BPD sum one `Poly` per view: `diagram_weight` of the
    blanks and NW elbows found by scanning the tiles, signed by
    `k_signed`."""
    from pipedreams.pipedream import diagram_weight, k_signed, weight_sum

    mode = "single" if reduced else "K-single"
    return weight_sum(
        (k_signed(diagram_weight(mode, word.n,
                                 tile_cells(V.diagram.tiles, Tile.BLANK), V.labels,
                                 tile_cells(V.diagram.tiles, Tile.NW)),
                  0 if reduced else V.excess)
         for V in enumerate_word_bpds(word, reduced=reduced)), word.n)


def test_packed_word_bpd_sums_equal_the_poly_sums():
    from pipedreams.combinat import enumerate_fubini

    words = [word for n in range(1, 5) for k in range(1, n + 1)
             for word in enumerate_fubini(n, k)]
    # not Fubini: u = std(conv(w)) is larger than the n labels reach
    words += [Word("21", 4), Word("1", 3), Word("12", 5), Word("31", 4)]
    for word in words:
        assert word_bpd_schubert(word) == poly_way_word_bpd_sum(word, True)
        assert word_bpd_grothendieck(word) == poly_way_word_bpd_sum(word, False)


@pytest.mark.parametrize("nx, labels, message", [
    (1, (2, 1, 1), "row 1 has label 2, outside 1..nx = 1"),
    # row 3 holds only an NW elbow: the NW rows are labelled too
    (3, (1, 2), "row 3 has no label: 2 labels given"),
])
def test_bad_label_raises_the_diagram_weight_error_from_a_packed_bpd_sum(
        nx, labels, message):
    from oracles import packed_sum
    from pipedreams.pipedream import diagram_weight

    B = next(B for B in enumerate_all_bpd(Permutation("2143"))
             if B.blanks() == [(1, 1), (1, 2)])
    assert B.nw_elbows() == [(3, 3)]
    with pytest.raises(ValueError) as poly_way:
        diagram_weight("K-single", nx, B.blanks(), labels, B.nw_elbows())
    with pytest.raises(ValueError) as packed:
        packed_sum([B], nx, labels, 2)
    assert str(packed.value) == str(poly_way.value) == message


def test_marks_are_the_blanks_and_nw_elbows_of_the_tiles():
    from pipedreams.combinat import all_permutations

    for n in range(1, 5):
        for w in all_permutations(n):
            for B in enumerate_all_bpd(w):
                blank, nw = B._marks()
                assert B._marks() is B._marks()
                for bits, kind in ((blank, Tile.BLANK), (nw, Tile.NW)):
                    assert bits == sum(1 << (r - 1) * B.N + c - 1
                                       for r, c in tile_cells(B.tiles, kind))
                assert B.blanks() == tile_cells(B.tiles, Tile.BLANK)
                assert B.nw_elbows() == tile_cells(B.tiles, Tile.NW)


# -- sums by rows --------------------------------------------------------------


def trace_by_labels(B):
    """Route the pipes of B by the module's row rule, with no memory of
    crossed pairs: rows bottom up, each left to right, a CROSS sending
    max(a, b) north and min(a, b) east.  Returns (one-line tuple, the pairs
    a CROSS crosses genuinely (west label a < south label b), bumps)."""
    N = B.N
    south = list(range(1, N + 1))       # the label entering each column
    exits, crossed, bumps = [0] * N, set(), 0
    for r in range(N, 0, -1):
        carry, north = None, [None] * N
        for c in range(N):
            tile, b = B.tiles[r - 1][c], south[c]
            if tile is Tile.CROSS:
                if carry < b:
                    crossed.add(frozenset((carry, b)))
                else:
                    bumps += 1
                north[c], carry = max(carry, b), min(carry, b)
            elif tile is Tile.VER:
                north[c] = b
            elif tile is Tile.SE:
                carry = b
            elif tile is Tile.NW:
                north[c], carry = carry, None
        exits[r - 1] = carry
        south = north
    return tuple(exits), crossed, bumps


def test_a_cross_is_genuine_iff_its_west_label_is_smaller():
    # the first fact of the module docstring, against the memory of
    # crossed pairs of `oracles.trace_pipes`, and the second: blanks =
    # crosses, blanks - len(w) = bumps; over the droop closure, which reads
    # no row rule
    from oracles import bpd_closure, trace_pipes

    count = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            for B in bpd_closure(w, reduced=False):
                one_line, crossed, _ = trace_pipes(B)
                by_labels, genuine, bumps = trace_by_labels(B)
                assert by_labels == tuple(one_line) == w.one_line
                assert genuine == crossed, B
                blanks = len(B.blanks())
                assert blanks == sum(row.count(Tile.CROSS) for row in B.tiles)
                assert blanks - w.inversions() == bumps
                count += 1
    assert count == 481


def test_bpd_row_sums_equal_the_sums_over_the_closure():
    from oracles import bpd_closure, marks_union, packed_sum
    from pipedreams.bpd import _bpd_sums
    from pipedreams.pipedream import _sum_poly

    for n in range(0, 6):
        for w in all_permutations(n):
            ell = w.inversions()
            for reduced in (True, False):
                diagrams = bpd_closure(w, reduced)
                found = _bpd_sums(w.one_line, reduced)
                assert found[1] == marks_union(diagrams), (w, reduced)
                assert (_sum_poly(found, n, not reduced and ell % 2)
                        == packed_sum(diagrams, n,
                                      ell=None if reduced else ell)), w
