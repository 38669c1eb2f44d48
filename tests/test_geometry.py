"""Pattern matrices, the matrix reduction algorithm, and cell reports."""

import json
from fractions import Fraction

import pytest
import sympy

from pipedreams import Word
from pipedreams.geometry import (
    ReductionError,
    cell_dimension_report,
    coerce_matrix,
    fits_pattern,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    pattern_matrix,
    random_matrix,
    random_unitriangular,
    reduction,
    word_of_matrix,
)

from oracles import random_diagonal


REDUCTION_EXAMPLE = [
    [1, 2, 3, 1, 1],
    [2, 1, 3, 0, -1],
    [3, -3, 0, 0, 3],
]


# -- matrix plumbing ----------------------------------------------------------


def test_coerce_validates_shape():
    with pytest.raises(ValueError):
        coerce_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        coerce_matrix([])
    out = coerce_matrix([[1, Fraction(1, 2)], ["3/4", 5]])
    assert out[0][1] == Fraction(1, 2)
    assert out[1][0] == Fraction(3, 4)


def test_mat_mul_against_sympy(rng):
    for _ in range(10):
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        b = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(3)]
        got = mat_mul(a, b)
        want = (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
        assert [[int(v) for v in row] for row in got] == want


def test_matrix_json_roundtrip():
    m = [[Fraction(1, 3), 2], [-5, Fraction(7, 2)]]
    again = matrix_from_json(matrix_to_json(m))
    assert again == tuple(tuple(Fraction(v) for v in row) for row in m)
    with pytest.raises(ValueError):
        matrix_from_json(json.dumps({"not": "a matrix"}))


def test_random_matrix_shape_and_columns(rng):
    for n, k in ((5, 3), (4, 4), (6, 2)):
        m = random_matrix(n, k, rng)
        assert len(m) == k and all(len(r) == n for r in m)
        assert all(any(row[j] for row in m) for j in range(n))


def test_random_unitriangular_shape(rng):
    u = random_unitriangular(4, rng)
    for i in range(4):
        assert u[i][i] == 1
        for j in range(i + 1, 4):
            assert u[i][j] == 0


def test_random_diagonal_is_invertible(rng):
    t = random_diagonal(5, rng)
    for i in range(5):
        assert t[i][i] != 0
        for j in range(5):
            if i != j:
                assert t[i][j] == 0


# -- the reduction algorithm ----------------------------------------------------


def test_reduction_golden_example():
    R, word = reduction(REDUCTION_EXAMPLE)
    assert word.letters == (1, 2, 2, 3, 3)
    assert word.k == 3
    want = (
        (1, Fraction(-2, 3), -1, Fraction(1, 3), Fraction(1, 9)),
        (0, 1, 1, Fraction(-2, 3), Fraction(-1, 3)),
        (0, 0, 0, 1, 1),
    )
    assert R == want


def test_word_of_matrix_shortcut():
    assert word_of_matrix(REDUCTION_EXAMPLE).letters == (1, 2, 2, 3, 3)


def test_reduction_is_idempotent():
    R, word = reduction(REDUCTION_EXAMPLE)
    R2, word2 = reduction([list(r) for r in R])
    assert R2 == R
    assert word2.letters == word.letters


def test_reduction_rejects_zero_columns():
    with pytest.raises(ReductionError):
        reduction([[1, 0], [2, 0]])


def test_reduction_mod_p_rejects_bad_denominators():
    with pytest.raises(ReductionError):
        reduction([[Fraction(1, 3)]], p=3)
    with pytest.raises(ValueError):
        reduction([[1]], p=4)  # modulus must be an odd prime


@pytest.mark.parametrize("p, why", [
    (9, "modulus p: 9 is not a prime"),
    (2, "modulus p: 2 is not an int >= 3"),
    (10 ** 400 + 1, "modulus p: 1000.* is too large"),  # was an OverflowError
])
def test_a_modulus_that_is_no_odd_prime_is_named(p, why):
    with pytest.raises(ValueError, match=why):
        reduction([[1]], p=p)


def test_reduction_mod_p_matches_rational_reduction(rng):
    # when no denominator or pivot hits p, the two computations agree mod p
    for trial in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(k, 5)
        m = random_matrix(n, k, rng)
        p = rng.choice((101, 1009))
        Rq, wq = reduction(m)
        try:
            Rp, wp = reduction(m, p=p)
        except ReductionError:
            continue
        if wq.letters != wp.letters:
            continue  # a pivot vanished mod p; different branch is legal
        for rq, rp in zip(Rq, Rp):
            for a, b in zip(rq, rp):
                assert (a.numerator * pow(a.denominator, -1, p) - b) % p == 0


def test_invariance_under_row_and_scale_moves(rng):
    # the canonical form ignores lower-unitriangular row operations and
    # column rescalings
    for trial in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(k, 5)
        m = random_matrix(n, k, rng)
        u = random_unitriangular(k, rng)
        t = random_diagonal(n, rng)
        moved = mat_mul(mat_mul(u, m), t)
        R1, w1 = reduction(m)
        R2, w2 = reduction(moved)
        assert w1.letters == w2.letters
        assert R1 == R2


# -- pattern matrices ----------------------------------------------------------


def test_pattern_matrix_2442343_golden():
    pm = pattern_matrix(Word("2442343", 4))
    assert pm.render().splitlines() == [
        "0 0 0 0 0 0 0",
        "1 * * 1 * * *",
        "0 0 0 0 1 0 1",
        "0 1 1 0 0 1 *",
    ]
    assert pm.star_count() == 6
    assert pm.stars() == [(2, 2), (2, 3), (2, 5), (2, 6), (2, 7), (4, 7)]
    assert (pm.k, pm.n) == (4, 7)


def test_pattern_matrix_12233_golden():
    pm = pattern_matrix(Word("12233", 3))
    assert pm.render().splitlines() == [
        "1 * * * *",
        "0 1 1 * *",
        "0 0 0 1 1",
    ]


def test_pattern_matrix_identity_word():
    # every earlier letter contributes a free entry above the pivot
    for k in (2, 3, 4):
        word = Word(range(1, k + 1), k)
        pm = pattern_matrix(word)
        assert pm.star_count() == k * (k - 1) // 2
        ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        assert fits_pattern(ident, word)


def test_pattern_matrix_pivots():
    pm = pattern_matrix(Word("12233", 3))
    word = (1, 2, 2, 3, 3)
    for j, a in enumerate(word, start=1):
        assert pm[a, j] == "1"


def test_reduction_output_fits_its_pattern(rng):
    for trial in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k, 6)
        m = random_matrix(n, k, rng)
        R, word = reduction(m)
        assert fits_pattern(R, word)


def test_fits_pattern_rejects_wrong_shape_and_values():
    word = Word("12", 2)
    assert not fits_pattern([[1, 2]], word)  # wrong number of rows
    assert fits_pattern([[1, 5], [0, 1]], word)
    assert not fits_pattern([[1, 5], [1, 1]], word)  # zero cell violated
    assert not fits_pattern([[2, 5], [0, 1]], word)  # pivot must be one


def test_pattern_matrix_json():
    pm = pattern_matrix(Word("12233", 3))
    d = json.loads(pm.to_json())
    assert d["rows"] == [list(r) for r in pm.rows]
    assert tuple(int(a) for a in d["word"]) == (1, 2, 2, 3, 3)


# -- membership of reduced forms in cells ------------------------------------------


def test_full_rank_matrices_give_fubini_words(rng):
    for trial in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(k, 5)
        while True:
            m = random_matrix(n, k, rng)
            if sympy.Matrix(m).rank() == k:
                break
        _, word = reduction(m)
        assert word.is_fubini()


def test_rank_deficient_matrices_give_non_fubini_words(rng):
    for trial in range(25):
        k = rng.randint(2, 3)
        n = rng.randint(k, 5)
        # duplicate rows force rank < k
        base = random_matrix(n, 1, rng)[0]
        m = [list(base) for _ in range(k)]
        scale = rng.randint(2, 5)
        m[-1] = [scale * v for v in base]
        _, word = reduction(m)
        assert not word.is_fubini()
        assert sympy.Matrix(m).rank() < k


def test_word_rank_matches_matrix_rank(rng):
    # the number of distinct letters equals the matrix rank
    for trial in range(30):
        k = rng.randint(1, 3)
        n = rng.randint(k, 5)
        m = random_matrix(n, k, rng)
        _, word = reduction(m)
        assert len(set(word.letters)) == sympy.Matrix(m).rank()


# -- cell dimension report ----------------------------------------------------------


def test_cell_dimension_report_golden():
    rep = cell_dimension_report(Word("2442343", 4))
    assert rep["star_count"] == 6
    assert rep["kn_minus_length"] == 16
    assert rep["cell_dimension"] == 9
    assert rep["length_of_standardization"] == 12
    assert rep["binom_plus_stars"] == 27
    assert rep["consistent"] is False
    assert rep["empirical_dimension"] == 12
    assert rep["prime"] == 1009


def test_cell_dimension_report_is_deterministic():
    a = cell_dimension_report(Word("12233", 3))
    b = cell_dimension_report(Word("12233", 3))
    assert a == b


def test_cell_dimension_report_consistent_case():
    # for the identity word the combinatorial quantities line up
    rep = cell_dimension_report(Word("12", 2))
    assert rep["consistent"] == (
        rep["star_count"] == rep["kn_minus_length"]
        and rep["binom_plus_stars"] == rep["cell_dimension"]
    )


FLOAT_INPUTS = [
    (cell_dimension_report, ("12",), {"p": 3.0}, "modulus p: 3.0"),
    (reduction, ([[1, 2], [3, 4]],), {"p": 5.0}, "modulus p: 5.0"),
    (cell_dimension_report, ("12",), {"samples": 2.5}, "samples: 2.5"),
]


@pytest.mark.parametrize("call, args, kwargs, named", FLOAT_INPUTS,
                         ids=[named for *_, named in FLOAT_INPUTS])
def test_a_float_modulus_or_sample_count_is_named(call, args, kwargs, named):
    # the modulus was a TypeError from pow(), and 2.5 samples were 3
    with pytest.raises(ValueError, match=named + " is not an int"):
        call(*args, **kwargs)
