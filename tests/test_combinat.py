"""Permutations, words, and counting helpers."""

import itertools
import json
import math
import re

import pytest
import sympy

from pipedreams import Bpd, Permutation, PipeDream, Poly, Word
from pipedreams.combinat import (
    _PRIME_BOUND,
    all_permutations,
    checked_prime,
    convex_standardization,
    enumerate_fubini,
    fubini_blocks,
    fubini_count,
    stirling2,
)
from pipedreams.rings import desk_scale_pairs

from oracles import (ascents, demazure_right, descents, fubini_number,
                     fubini_walk, is_convex, rank_table, repeated_positions,
                     swap)


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
        assert sorted(descents(w) + ascents(w)) == list(range(1, 5))
        assert all(p[i - 1] > p[i] for i in descents(w))
        assert all(p[i - 1] < p[i] for i in ascents(w))


def test_swap_is_right_multiplication():
    w = Permutation("24153")
    assert swap(w, 2).one_line == (2, 1, 4, 5, 3)
    s2 = Permutation("13245")
    assert (w * s2).one_line == swap(w, 2).one_line


def test_demazure_right_absorbs_descents():
    # the 0-Hecke product only climbs: at a descent, multiplying is a no-op
    w = Permutation("321")
    assert demazure_right(w, 1).one_line == (3, 2, 1)
    assert demazure_right(w, 2).one_line == (3, 2, 1)
    v = Permutation("213")
    assert demazure_right(v, 2).one_line == (2, 3, 1)


def test_extend_trim_stable_eq():
    w = Permutation("21")
    assert w.extend(4).one_line == (2, 1, 3, 4)
    assert Permutation("2134").trim().one_line == (2, 1)
    assert Permutation(()).trim().one_line == (1,)
    assert w.stable_eq(Permutation("2134"))
    assert not w.stable_eq(Permutation("1234"))


def test_identity_and_longest():
    assert Permutation.identity(4).one_line == (1, 2, 3, 4)
    assert Permutation.longest(4).one_line == (4, 3, 2, 1)
    assert Permutation.longest(4).inversions() == 6


def test_permutation_json_roundtrip():
    w = Permutation("24153")
    assert Permutation.from_json(w.to_json()) == w


def test_from_json_names_the_missing_field():
    with pytest.raises(ValueError,
                       match="permutation JSON lacks the 'one_line' field"):
        Permutation.from_json('{"letters": [1]}')
    with pytest.raises(ValueError, match="word JSON lacks the 'k' field"):
        Word.from_json('{"letters": [1, 2]}')


MALFORMED = {
    "pipe dream N 2.5": (lambda: PipeDream.from_json(
        '{"N": 2.5, "crosses": [[1.9, 1]]}'), "pipe dream N: 2.5 "),
    "pipe dream cross 1.9": (lambda: PipeDream.from_json(
        '{"N": 2, "crosses": [[1.9, 1]]}'), "pipe dream crosses: 1.9 "),
    "pipe dream N -3": (lambda: PipeDream.from_json(
        '{"N": -3, "crosses": []}'), "pipe dream N: -3 is not an int >= 0"),
    "word k -5": (lambda: Word.from_json('{"letters": [], "k": -5}'),
                  "word k: -5 is not an int >= 0"),
    "word k 2.7": (lambda: Word([2], 2.7), "word k: 2.7 "),
    "word k '3'": (lambda: Word.from_json('{"letters": [1], "k": "3"}'),
                   "word k: '3' is not an int"),
    "word letter true": (lambda: Word.from_json('{"letters": [true], "k": 1}'),
                         "word letters: True is not an int"),
    "permutation entry 1.0": (lambda: Permutation([2, 1.0]),
                              "permutation one_line: 1.0 is not an int"),
    "polynomial nx -1": (lambda: Poly.from_json(
        '{"nx": -1, "ny": 0, "terms": []}'), "polynomial nx: -1 "),
    "polynomial exp true": (lambda: Poly.from_json(
        '{"nx": 1, "ny": 0, "terms": [{"coeff": "1", "exp": [true]}]}'),
        "polynomial exp: True is not an int"),
    "BPD n true": (lambda: Bpd.from_json('{"n": true, "tiles": [["CROSS"]]}'),
                   "BPD n: True is not an int >= 0"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_sizes_and_entries_name_field_and_value(case):
    call, message = MALFORMED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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
    assert repeated_positions(w) == frozenset({3, 4, 6, 7})
    assert Word("21231", 3).initial_positions() == frozenset({1, 2, 4})


def test_first_occurrence():
    w = Word("2442343", 4)
    assert [w.first_occurrence(a) for a in (1, 2, 3, 4)] == [None, 1, 5, 2]


def test_convexify():
    assert Word("2442343", 4).convexify().letters == (2, 2, 4, 4, 4, 3, 3)
    assert Word("21231", 3).convexify().letters == (2, 2, 1, 1, 3)
    conv = Word("2442343", 4).convexify()
    assert is_convex(conv)
    assert not is_convex(Word("2442343", 4))
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


def test_convex_standardization_matches_word_methods():
    """Every word in [k]^n with n, k <= 5, Fubini or not, against the Word
    methods and against sigma as a stable sort of the positions by the
    first occurrence of their letters."""
    for n in range(1, 6):
        for k in range(1, 6):
            for letters in itertools.product(range(1, k + 1), repeat=n):
                w = Word(letters, k)
                u, sigma = convex_standardization(letters, k)
                assert u == w.convexify().standardize().one_line
                first = {v: letters.index(v) for v in letters}
                assert sigma == tuple(sorted(range(n),
                                             key=lambda p: first[letters[p]]))
                assert tuple(p + 1 for p in sigma) == \
                    w.associated_permutation().one_line


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
    rows = rank_table(Word("21231", 3))
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


WALK_PAIRS = sorted({(n, 1) for n in range(13)} | {(n, n) for n in range(8)}
                    | set(desk_scale_pairs()))


@pytest.mark.parametrize("n, k", WALK_PAIRS)
def test_block_walk_times_orders_is_the_fubini_words(n, k):
    partitions = list(fubini_blocks(n, k))
    assert len(partitions) == len(set(partitions)) == stirling2(n, k)
    for blocks in partitions:
        assert len(blocks) == k
        assert sorted(p for b in blocks for p in b) == list(range(n))
        assert all(b and list(b) == sorted(b) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    words = [letters for letters, _, _ in fubini_walk(n, k)]
    assert len(words) == len(set(words)) == fubini_count(n, k)
    assert set(words) == {w.letters for w in enumerate_fubini(n, k)}


def test_block_walk_is_empty_where_there_is_no_fubini_word():
    for n, k in ((0, 1), (2, 3), (3, 0), (3, -1)):
        assert list(fubini_blocks(n, k)) == [] == list(enumerate_fubini(n, k))


def test_fubini_numbers_start():
    assert [fubini_number(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]


# -- primes -------------------------------------------------------------------


def test_checked_prime_against_trial_division():
    for v in range(2, 5000):
        prime = all(v % q for q in range(2, math.isqrt(v) + 1))
        if prime:
            assert checked_prime("field", "p", v) == v
        else:
            with pytest.raises(ValueError, match="p: %d is not a prime" % v):
                checked_prime("field", "p", v)


def test_checked_prime_against_sympy_up_to_its_bound(rng):
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    # (318665857834031151167461 passes 2, 3, .., 37, but not 41)
    values = [3215031751, 3825123056546413051, 318665857834031151167461,
              2 ** 61 - 1, 2 ** 31 - 1, 561, 1105, _PRIME_BOUND - 1]
    values += [rng.randrange(2, _PRIME_BOUND) for _ in range(300)]
    values += [sympy.randprime(2, 10 ** 12) * sympy.randprime(2, 10 ** 12)
               for _ in range(30)]
    for v in values:
        if sympy.isprime(v):
            assert checked_prime("lattice", "modulus p", v) == v
        else:
            with pytest.raises(ValueError, match="is not a prime"):
                checked_prime("lattice", "modulus p", v)


@pytest.mark.parametrize("value, why", [
    (4.0, "modulus p: 4.0 is not an int"),      # the int check comes first
    (True, "modulus p: True is not an int"),
    (1, "modulus p: 1 is not an int >= 2"),
    (_PRIME_BOUND, "modulus p: %d is too large" % _PRIME_BOUND),
    (10 ** 400 + 1, "modulus p: 1000.* is too large"),
])
def test_checked_prime_names_what_it_refuses(value, why):
    with pytest.raises(ValueError, match=why):
        checked_prime("lattice", "modulus p", value)
