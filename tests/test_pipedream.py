"""Classical pipe dreams: enumeration, weights, and word truncations."""

import itertools

import pytest

from pipedreams import Permutation, Word
from pipedreams.pipedream import (
    PipeDream,
    RectangularityViolation,
    enumerate_all,
    enumerate_reduced,
    enumerate_word_pds,
    check_word_rectangularity,
    pd_grothendieck,
    pd_schubert,
    top_pipe_dream,
    truncate_to_word,
    word_pd_grothendieck,
    word_pd_schubert,
)
from pipedreams.poly import (
    grothendieck,
    grothendieck_of_word,
    schubert,
    schubert_of_word,
)

from oracles import (chute_moves, demazure_right, evaluate, k_chute_moves,
                     permutation_by_tracing, reading_word, word_row_labels)


def staircase_cells(N):
    return [(r, c) for r in range(1, N) for c in range(1, N - r + 1)]


def hecke_product_of_cells(cells, N):
    """Demazure product of the reading word (rows top to bottom, each row
    right to left), computed with combinat primitives only."""
    w = Permutation.identity(N)
    for r, c in sorted(cells, key=lambda rc: (rc[0], -rc[1])):
        w = demazure_right(w, r + c - 1)
    return w


def brute_force_pds(N):
    """All subsets of the staircase, grouped by Hecke product."""
    cells = staircase_cells(N)
    by_perm = {}
    for size in range(len(cells) + 1):
        for subset in itertools.combinations(cells, size):
            w = hecke_product_of_cells(subset, N)
            by_perm.setdefault(w.one_line, []).append(frozenset(subset))
    return by_perm


# -- construction -----------------------------------------------------------


def test_top_pipe_dream_24153():
    P = top_pipe_dream(Permutation("24153"))
    assert sorted(P.crosses) == [(1, 1), (1, 3), (2, 1), (2, 3)]
    assert P.N == 5
    assert P.is_reduced()
    assert P.weight().to_text() == "x1^2*x2^2"
    assert reading_word(P) == [3, 1, 4, 2]
    assert P.permutation().one_line == (2, 4, 1, 5, 3)


def test_top_pipe_dream_identity_and_longest():
    assert top_pipe_dream(Permutation.identity(3)).crosses == frozenset()
    full = top_pipe_dream(Permutation.longest(4))
    assert sorted(full.crosses) == staircase_cells(4)


def test_render_golden():
    P = top_pipe_dream(Permutation("24153"))
    assert P.render().splitlines() == [
        "+ . + . .",
        "+ . + .",
        ". . .",
        ". .",
        ".",
    ]


def test_json_roundtrip():
    P = top_pipe_dream(Permutation("24153"))
    assert PipeDream.from_json(P.to_json()) == P


@pytest.mark.parametrize("text, field", [
    ('{"n": 1}', "crosses"),
    ('{"crosses": [[1, 1]]}', "N"),
])
def test_from_json_names_the_missing_field(text, field):
    with pytest.raises(ValueError, match="pipe dream JSON lacks the '%s' field"
                                         % field):
        PipeDream.from_json(text)


def test_crosses_must_lie_in_staircase():
    with pytest.raises(ValueError):
        PipeDream([(3, 3)], 3)
    with pytest.raises(ValueError):
        PipeDream([(0, 1)], 3)


# -- enumeration vs definition-level brute force -----------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_enumeration_matches_brute_force(N):
    by_perm = brute_force_pds(N)
    for p in itertools.permutations(range(1, N + 1)):
        w = Permutation(p)
        ell = w.inversions()
        subsets = by_perm.get(p, [])
        expected_all = set(subsets)
        expected_reduced = {s for s in subsets if len(s) == ell}
        got_reduced = {P.crosses for P in enumerate_reduced(w)}
        got_all = {P.crosses for P in enumerate_all(w)}
        assert got_reduced == expected_reduced
        assert got_all == expected_all


def test_reduced_counts_against_principal_specialization():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert len(enumerate_reduced(w)) == evaluate(schubert(w), (1,) * 4)


def test_all_counts_against_grothendieck_coefficients():
    # each diagram contributes one monomial whose sign depends only on its
    # size, so the diagram count is the sum of absolute coefficient values
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        total = sum(abs(c) for c in grothendieck(w).terms.values())
        assert len(enumerate_all(w)) == total


def test_is_reduced_is_length_match():
    for P in enumerate_all(Permutation("24153")):
        assert P.is_reduced() == (len(P.crosses) == 4)


def test_enumerations_are_deterministic():
    w = Permutation("24153")
    first = [P.to_json() for P in enumerate_reduced(w)]
    second = [P.to_json() for P in enumerate_reduced(w)]
    assert first == second


# -- moves -------------------------------------------------------------------


def test_chute_moves_preserve_permutation_and_reducedness():
    w = Permutation("24153")
    for P in enumerate_reduced(w):
        for Q in chute_moves(P):
            assert Q.is_reduced()
            assert Q.permutation() == w
            assert len(Q.crosses) == len(P.crosses)


def test_k_chute_moves_preserve_hecke_class():
    w = Permutation("24153")
    for P in enumerate_all(w):
        for Q in k_chute_moves(P):
            assert Q.permutation() == w
            assert len(Q.crosses) == len(P.crosses) + 1


def test_chute_closure_reaches_every_reduced_pd():
    # BFS from the top pipe dream visits all five diagrams for 24153
    w = Permutation("24153")
    seen = {top_pipe_dream(w).crosses}
    frontier = [top_pipe_dream(w)]
    while frontier:
        P = frontier.pop()
        for Q in chute_moves(P):
            if Q.crosses not in seen:
                seen.add(Q.crosses)
                frontier.append(Q)
    assert seen == {P.crosses for P in enumerate_reduced(w)}


# -- generating functions ------------------------------------------------------


def test_pd_schubert_matches_recursion():
    for n in (0, 2, 3, 4):
        for p in itertools.permutations(range(1, n + 1)):
            w = Permutation(p)
            assert pd_schubert(w) == schubert(w).restrict_arity(n)


def test_pd_grothendieck_matches_recursion():
    for n in (0, 2, 3, 4):
        for p in itertools.permutations(range(1, n + 1)):
            w = Permutation(p)
            assert pd_grothendieck(w) == grothendieck(w).restrict_arity(n)


def test_pd_double_sums_match_recursion():
    from pipedreams.poly import grothendieck_double, schubert_double

    for p in [(), *itertools.permutations(range(1, 5))]:
        w = Permutation(p)
        assert pd_schubert(w, double=True) == schubert_double(w)
        assert pd_grothendieck(w, double=True) == grothendieck_double(w)


def test_weight_modes_on_top_pipe_dream():
    P = top_pipe_dream(Permutation("21"))
    assert P.weight("single").to_text() == "x1"
    assert P.weight("double").to_text() == "x1 - y1"
    # K-single weights are sign-free products; signs enter in the sums
    assert P.weight("K-single").to_text() == "x1"
    assert P.weight("K-double").to_text() == "x1 + y1 - x1*y1"
    with pytest.raises(ValueError):
        P.weight("cubic")


# -- permutation extraction ---------------------------------------------------


def test_tracing_agrees_with_hecke_reading():
    for w in (Permutation("24153"), Permutation("4321"), Permutation("1234")):
        for P in enumerate_all(w):
            assert permutation_by_tracing(P) == P.permutation()


def test_permutation_is_the_demazure_fold_of_the_reading_word():
    for p in itertools.permutations(range(1, 5)):
        for P in enumerate_all(Permutation(p)):
            u = Permutation.identity(P.N)
            for a in reading_word(P):
                u = demazure_right(u, a)
            assert P.permutation() == u.trim()


# -- word pipe dreams ---------------------------------------------------------


def test_word_row_labels():
    assert word_row_labels(Word("21231", 3)) == (1, 3, 2, 5, 4)
    assert word_row_labels(Word("2442343", 4)) == (1, 4, 2, 3, 6, 5, 7)
    # a permutation word keeps the identity labeling
    assert word_row_labels(Word("231", 3)) == (1, 2, 3)
    # a string is read as a word, as by every other word function
    assert word_row_labels("21231") == (1, 3, 2, 5, 4)


def test_word_pd_count_21231():
    wps = enumerate_word_pds(Word("21231", 3))
    assert len(wps) == 5
    assert all(P.labels == (1, 3, 2, 5, 4) for P in wps)
    assert all((P.n, P.k) == (5, 3) for P in wps)
    assert all(P.excess == 0 for P in wps)


def test_word_pd_render_shows_labels():
    wps = enumerate_word_pds(Word("21231", 3))
    P = next(iter(wps))
    lines = P.render().splitlines()
    assert len(lines) == 5
    assert lines[0].endswith("x1")
    assert lines[1].endswith("x3")


def test_word_pd_schubert_golden():
    assert word_pd_schubert(Word("21231", 3)) == schubert_of_word(
        Word("21231", 3)
    ).restrict_arity(5)


def test_word_pd_grothendieck_golden():
    assert word_pd_grothendieck(Word("21231", 3)) == grothendieck_of_word(
        Word("21231", 3)
    ).restrict_arity(5)


def test_word_pd_grothendieck_smallest_repeated_word():
    # the K-sum needs the sign from the diagram's excess over the reduced size
    f = word_pd_grothendieck(Word("112", 2))
    assert f == grothendieck_of_word(Word("112", 2)).restrict_arity(3)
    text = f.to_text()
    assert "- " in text  # x1 + x2 - x1*x2


def test_word_identities_small_sweep():
    for n in range(1, 5):
        for k in range(1, n + 1):
            from pipedreams.combinat import enumerate_fubini

            for letters in enumerate_fubini(n, k):
                word = Word(letters, k)
                assert word_pd_schubert(word) == schubert_of_word(word).restrict_arity(n)
                assert word_pd_grothendieck(word) == grothendieck_of_word(word).restrict_arity(n)


def test_truncation_with_full_width_is_identity():
    w = Permutation("2431")
    word = Word("2431", 4)
    for P in enumerate_reduced(w):
        W = truncate_to_word(P, word)
        assert W.crosses == P.crosses
        assert W.labels == (1, 2, 3, 4)


def test_truncation_rejects_crosses_outside_rectangle():
    P = PipeDream([(1, 3), (3, 1), (1, 1)], 4)
    with pytest.raises(RectangularityViolation,
                       match=r"outside the 2 x 2 rectangle: \[\(1, 3\), \(3, 1\)\]"):
        truncate_to_word(P, Word("12", 2))


def test_truncation_rejects_a_diagram_of_another_permutation():
    # the cross (1, 1) is a pipe dream of 21, and std(conv(12)) is 12
    with pytest.raises(ValueError, match=r"of 21, not of std\(conv\(12\)\) = 12"):
        truncate_to_word(PipeDream([(1, 1)], 2), Word("12", 2))
    P = enumerate_reduced(Permutation("2413"))[0]
    with pytest.raises(ValueError, match=r"of 2143, not .* = 2413"):
        truncate_to_word(P, Word("2413", 4), Permutation("2143"))
    # equal up to trailing fixed points: 1 is std(conv(12)) trimmed
    assert truncate_to_word(PipeDream([], 2), Word("12", 2)).excess == 0


def test_rectangularity_no_violations_small_words():
    for n in range(1, 5):
        for k in range(1, n + 1):
            from pipedreams.combinat import enumerate_fubini

            for letters in enumerate_fubini(n, k):
                word = Word(letters, k)
                assert check_word_rectangularity(word, reduced=True) == []
                assert check_word_rectangularity(word, reduced=False) == []
