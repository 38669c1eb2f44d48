"""Randomized invariant suites.

Every test here is derandomized (fixed seeds) and draws at least 500
examples, so the suite is deterministic across runs and machines.
"""

import random

import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pipedreams import Permutation, PipeDream, grothendieck, schubert
from pipedreams.geometry import mat_mul, reduction
from pipedreams.poly import Poly

from oracles import ascents, permutation_by_tracing, swap

SAMPLES = 500

suite = settings(
    max_examples=SAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large],
)


# -- strategies ----------------------------------------------------------------

NX = 4

_exponents = st.tuples(*([st.integers(0, 3)] * NX))
_coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
).filter(lambda c: c != 0)

polys = st.dictionaries(_exponents, _coeffs, min_size=1, max_size=6).map(
    lambda terms: Poly(NX, 0, terms))

permutations_upto_5 = st.integers(1, 5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda ol: Permutation(list(ol)))

STAIRCASE_6 = [(r, c) for r in range(1, 6) for c in range(1, 6 - r + 1)]


# -- operator identities ----------------------------------------------------------


@suite
@given(polys, st.integers(1, NX - 1))
def test_divided_difference_squares_to_zero(f, i):
    assert f.divided_difference(i).divided_difference(i) == Poly(NX, 0, {})


@suite
@given(polys, st.integers(1, NX - 1))
def test_isobaric_divided_difference_is_idempotent(f, i):
    g = f.isobaric_divided_difference(i)
    assert g.isobaric_divided_difference(i) == g


# -- recursion path independence ----------------------------------------------------


def _by_path(w, n, rng, k_flavor):
    """Climb to the longest element along a random ascent path and come back
    down with the corresponding operators."""
    asc = ascents(w)
    if not asc:
        return Poly(n, 0, {tuple(range(n - 1, -1, -1)): 1})
    i = rng.choice(asc)
    f = _by_path(swap(w, i), n, rng, k_flavor)
    return (f.isobaric_divided_difference(i) if k_flavor
            else f.divided_difference(i))


@suite
@given(permutations_upto_5, st.integers(0, 10 ** 6))
def test_schubert_is_path_independent(w, seed):
    rng = random.Random(seed)
    assert _by_path(w, w.n, rng, False) == schubert(w).restrict_arity(w.n)


@suite
@given(permutations_upto_5, st.integers(0, 10 ** 6))
def test_grothendieck_is_path_independent(w, seed):
    rng = random.Random(seed)
    assert _by_path(w, w.n, rng, True) == grothendieck(w).restrict_arity(w.n)


# -- lowest degree -----------------------------------------------------------------


@suite
@given(permutations_upto_5)
def test_grothendieck_lowest_degree_part_is_schubert(w):
    g = grothendieck(w).restrict_arity(w.n)
    ell = w.inversions()
    lowest = Poly(w.n, 0,
                  {e: c for e, c in g.items() if sum(e) == ell})
    assert lowest == schubert(w).restrict_arity(w.n)


# -- pipe tracing vs Hecke reading ---------------------------------------------------


@suite
@given(st.frozensets(st.sampled_from(STAIRCASE_6)))
def test_pipe_tracing_matches_hecke_reading(crosses):
    P = PipeDream(crosses, 6)
    assert permutation_by_tracing(P) == P.permutation()


# -- matrix reduction ---------------------------------------------------------------


def _no_zero_columns(m):
    return all(any(row[j] for row in m) for j in range(len(m[0])))


@suite
@given(st.data())
def test_reduction_invariant_under_row_ops_and_column_scaling(data):
    k = data.draw(st.integers(1, 3), label="k")
    n = data.draw(st.integers(k, k + 2), label="n")
    e = st.integers(-5, 5)
    m = data.draw(st.lists(st.lists(e, min_size=n, max_size=n),
                           min_size=k, max_size=k), label="m")
    assume(_no_zero_columns(m))
    u = [[data.draw(e) if i > j else int(i == j) for j in range(k)]
         for i in range(k)]
    scales = data.draw(st.lists(st.integers(1, 5).flatmap(
        lambda v: st.sampled_from((v, -v))), min_size=n, max_size=n))
    t = [[scales[i] if i == j else 0 for j in range(n)] for i in range(n)]
    R1, w1 = reduction(m)
    R2, w2 = reduction(mat_mul(mat_mul(u, m), t))
    assert w1.letters == w2.letters
    assert R1 == R2


@suite
@given(st.data())
def test_reduction_word_is_fubini_iff_full_rank(data):
    k = data.draw(st.integers(1, 3), label="k")
    n = data.draw(st.integers(k, k + 2), label="n")
    r = data.draw(st.integers(1, k), label="inner rank")
    e = st.integers(-3, 3)
    a = data.draw(st.lists(st.lists(e, min_size=r, max_size=r),
                           min_size=k, max_size=k), label="a")
    b = data.draw(st.lists(st.lists(e, min_size=n, max_size=n),
                           min_size=r, max_size=r), label="b")
    m = mat_mul(a, b)
    assume(_no_zero_columns(m))
    _, word = reduction(m)
    assert word.is_fubini() == (sympy.Matrix(m).rank() == k)
