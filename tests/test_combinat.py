"""Permutations, words, and counting helpers."""

import itertools
import json
import math

import pytest

from pipedreams import Permutation, Word
from pipedreams.combinat import (
    all_permutations,
    enumerate_fubini,
    fubini_count,
    fubini_number,
    stirling2,
)


# -- permutations -----------------------------------------------------------


def test_one_line_parsing():
    assert Permutation("24153").one_line == (2, 4, 1, 5, 3)
    assert Permutation([2, 4, 1, 5, 3]).one_line == (2, 4, 1, 5, 3)
    assert Permutation("21").n == 2


def test_rejects_non_permutations():
    for bad in ("211", "13", [1, 1], [0, 1]):
        with pytest.raises(ValueError):
            Permutation(bad)
    # the empty permutation is the identity of S_0
    assert Permutation([]).n == 0


def test_call_and_inverse():
    w = Permutation("24153")
    assert [w(i) for i in range(1, 6)] == [2, 4, 1, 5, 3]
    winv = w.inverse()
    assert all(winv(w(i)) == i for i in range(1, 6))
    assert (w * winv).one_line == (1, 2, 3, 4, 5)


def test_compose_convention():
    # (u * v)(i) = u(v(i))
    u, v = Permutation("231"), Permutation("213")
    assert (u * v).one_line == tuple(u(v(i)) for i in range(1, 4))


def test_inversions_against_brute_force():
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            w = Permutation(p)
            brute = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if p[i] > p[j]
            )
            assert w.inversions() == brute


def test_lehmer_code():
    assert Permutation("24153").lehmer_code() == (1, 2, 0, 1, 0)
    assert Permutation((2, 4, 1, 5, 3)).lehmer_code() == (1, 2, 0, 1, 0)
    # code sums to the inversion count
    for p in itertools.permutations(range(1, 6)):
        w = Permutation(p)
        assert sum(w.lehmer_code()) == w.inversions()


def test_descents_ascents_partition_positions():
    for p in itertools.permutations(range(1, 6)):
        w = Permutation(p)
        assert sorted(w.descents() + w.ascents()) == list(range(1, 5))
        assert all(p[i - 1] > p[i] for i in w.descents())
        assert all(p[i - 1] < p[i] for i in w.ascents())


def test_swap_is_right_multiplication():
    w = Permutation("24153")
    assert w.swap(2).one_line == (2, 1, 4, 5, 3)
    s2 = Permutation("13245")
    assert (w * s2).one_line == w.swap(2).one_line


def test_demazure_right_absorbs_descents():
    # the 0-Hecke product only climbs: at a descent, multiplying is a no-op
    w = Permutation("321")
    assert w.demazure_right(1).one_line == (3, 2, 1)
    assert w.demazure_right(2).one_line == (3, 2, 1)
    v = Permutation("213")
    assert v.demazure_right(2).one_line == (2, 3, 1)


def test_extend_trim_stable_eq():
    w = Permutation("21")
    assert w.extend(4).one_line == (2, 1, 3, 4)
    assert Permutation("2134").trim().one_line == (2, 1)
    assert w.stable_eq(Permutation("2134"))
    assert not w.stable_eq(Permutation("1234"))


def test_identity_and_longest():
    assert Permutation.identity(4).one_line == (1, 2, 3, 4)
    assert Permutation.longest(4).one_line == (4, 3, 2, 1)
    assert Permutation.longest(4).inversions() == 6


def test_permutation_json_roundtrip():
    w = Permutation("24153")
    assert Permutation.from_json(w.to_json()) == w


def test_all_permutations_counts():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        assert len(perms) == math.factorial(n)
        assert len(set(p.one_line for p in perms)) == len(perms)


# -- words ------------------------------------------------------------------


def test_word_parsing_and_validation():
    w = Word("21231", 3)
    assert w.letters == (2, 1, 2, 3, 1)
    assert (w.n, w.k) == (5, 3)
    # k defaults to the max letter
    assert Word("21231").k == 3
    with pytest.raises(ValueError):
        Word("2124", 3)  # letter exceeds k
    with pytest.raises(ValueError):
        Word((0, 1), 2)


def test_fubini_predicate():
    assert Word("21231", 3).is_fubini()
    assert not Word("2121", 3).is_fubini()  # letter 3 missing
    assert not Word("2442343", 4).is_fubini()  # letter 1 missing
    assert Word("1", 1).is_fubini()


def test_initial_and_repeated_positions():
    w = Word("2442343", 4)
    assert w.initial_positions() == frozenset({1, 2, 5})
    assert w.repeated_positions() == frozenset({3, 4, 6, 7})
    assert Word("21231", 3).initial_positions() == frozenset({1, 2, 4})


def test_first_occurrence():
    w = Word("2442343", 4)
    assert [w.first_occurrence(a) for a in (1, 2, 3, 4)] == [None, 1, 5, 2]


def test_convexify():
    assert Word("2442343", 4).convexify().letters == (2, 2, 4, 4, 4, 3, 3)
    assert Word("21231", 3).convexify().letters == (2, 2, 1, 1, 3)
    conv = Word("2442343", 4).convexify()
    assert conv.is_convex()
    assert not Word("2442343", 4).is_convex()
    # convexification keeps the multiset and the order of first appearances
    assert sorted(conv.letters) == sorted((2, 4, 4, 2, 3, 4, 3))


def test_associated_permutation():
    assert Word("2442343", 4).associated_permutation().one_line == (1, 4, 2, 3, 6, 5, 7)
    sigma = Word("21231", 3).associated_permutation()
    assert sigma.one_line == (1, 3, 2, 5, 4)
    assert sigma.inverse().one_line == (1, 3, 2, 5, 4)


def test_associated_permutation_rearranges_word_to_convexification():
    # w composed with sigma is the convexification, and sigma is the
    # lexicographically smallest permutation doing so
    for text, k in (("2442343", 4), ("21231", 3), ("1121", 2), ("332211", 3)):
        w = Word(text, k)
        sigma = w.associated_permutation()
        conv = w.convexify()
        assert tuple(w.letters[sigma(i) - 1] for i in range(1, w.n + 1)) == conv.letters


def test_standardize_goldens():
    assert Word("2244433", 4).standardize().one_line == (2, 5, 4, 6, 7, 3, 8, 1)
    assert Word("21231", 3).convexify().standardize().one_line == (2, 4, 1, 5, 3)
    # a permutation word standardizes to itself
    assert Word("24153", 5).standardize().one_line == (2, 4, 1, 5, 3)


def test_standardize_size():
    # std of a word in [k]^n with m distinct letters lives in S_{n+k-m}
    for text, k, size in (("21231", 3, 5), ("2442343", 4, 8), ("22", 2, 3)):
        assert Word(text, k).standardize().n == size


def test_word_json_roundtrip():
    w = Word("2442343", 4)
    w2 = Word.from_json(w.to_json())
    assert (w2.letters, w2.k) == (w.letters, w.k)


def test_rank_table_shape():
    table = Word("21231", 3).rank_table()
    rows = table.rows()
    assert len(rows) == 3
    assert all(len(r) == 5 for r in rows)
    data = json.loads(json.dumps([list(r) for r in rows]))
    assert all(isinstance(v, int) for row in data for v in row)


# -- counting ---------------------------------------------------------------


def test_stirling2_table():
    # classical triangle
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_fubini_count_matches_enumeration():
    for n in range(1, 6):
        total = 0
        for k in range(1, n + 1):
            words = list(enumerate_fubini(n, k))
            assert len(words) == fubini_count(n, k)
            assert fubini_count(n, k) == math.factorial(k) * stirling2(n, k)
            seen = set()
            for letters in words:
                w = Word(letters, k)
                assert w.is_fubini()
                seen.add(letters)
            assert len(seen) == len(words)
            total += len(words)
        assert fubini_number(n) == total


def test_fubini_numbers_start():
    assert [fubini_number(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]
