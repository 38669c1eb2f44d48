"""Exact sparse polynomials and the Schubert/Grothendieck recursions."""

import gc
import itertools
import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import pipedreams
from pipedreams import Permutation, Word, cache_info, clear_caches
from pipedreams.poly import (
    _CACHE,
    EXP_MAX,
    LemmaViolation,
    Poly,
    elementary_symmetric,
    grassmannian_cycle,
    grassmannian_e_expansion,
    grothendieck,
    grothendieck_double,
    grothendieck_of_word,
    schubert,
    schubert_double,
    schubert_of_word,
)

from conftest import (
    poly_to_sympy,
    random_poly,
    sympy_divided_difference,
    sympy_grothendieck,
    sympy_isobaric,
    sympy_schubert,
    sympy_xs,
)
from oracles import (column_e_expansion, descents, evaluate,
                     grothendieck_double_of_word, permute_x,
                     schubert_double_of_word, swap_x)


def monomial(nx, exps, coeff=1, ny=0, yexps=()):
    e = list(exps) + [0] * (nx - len(exps))
    ye = list(yexps) + [0] * (ny - len(yexps))
    return Poly(nx, ny, {tuple(e) + tuple(ye): coeff})


# -- ring arithmetic --------------------------------------------------------


def test_ring_axioms_against_sympy(rng):
    for _ in range(40):
        f = random_poly(rng, 3, ny=1)
        g = random_poly(rng, 3, ny=1)
        assert poly_to_sympy(f + g) == sympy.expand(poly_to_sympy(f) + poly_to_sympy(g))
        assert poly_to_sympy(f * g) == sympy.expand(poly_to_sympy(f) * poly_to_sympy(g))
        assert poly_to_sympy(f - g) == sympy.expand(poly_to_sympy(f) - poly_to_sympy(g))
        assert f * g == g * f
        assert (f - f).is_zero()


def test_zero_and_const():
    z = Poly.zero(3)
    assert z.is_zero()
    assert dict((z + Poly.const(5, 3)).items()) == {(0, 0, 0): 5}
    assert Poly.const(0, 2).is_zero()


def test_sums_lift_ints_and_refuse_a_mismatched_arity():
    x1, three = Poly.x(1, 2, 1), Poly.const(3, 2, 1)
    assert x1 + 3 == 3 + x1 == x1 - (-3) == x1 + three
    assert 3 - x1 == three - x1 == -(x1 - 3)
    assert (x1 - x1).terms == {} and (x1 + 0).terms == x1.terms
    for other in (Poly.x(1, 2), Poly.x(1, 3, 1)):
        with pytest.raises(ValueError, match="^arity mismatch"):
            x1 + other
        with pytest.raises(ValueError, match="^arity mismatch"):
            x1 - other


def test_fraction_coefficients_survive_arithmetic():
    f = Poly(2, 0, {(1, 0): Fraction(1, 2)})
    g = f + f
    assert dict(g.items()) == {(1, 0): 1}
    assert isinstance(g.coefficient((1, 0)), int) or g.coefficient((1, 0)) == 1


def test_evaluate_exact():
    f = monomial(2, (2, 1), 3) + Poly.const(1, 2)
    assert evaluate(f, (2, 5)) == 3 * 4 * 5 + 1
    assert evaluate(f, (Fraction(1, 2), 4)) == 3 * Fraction(1, 4) * 4 + 1
    with pytest.raises(ValueError):
        evaluate(f, (1,))


def test_degree_helpers():
    f = monomial(3, (2, 1)) + monomial(3, (1, 0), 2)
    assert f.total_degree() == 3
    assert f.min_degree() == 1
    assert f.homogeneous_component(3) == monomial(3, (2, 1))
    assert f.lowest_degree_component() == monomial(3, (1, 0), 2)
    assert f.max_x_index_used() == 2


def test_permute_x_relabels_variables():
    f = monomial(3, (1, 2, 0))
    sigma = Permutation("231")  # x1 -> x2, x2 -> x3, x3 -> x1
    assert permute_x(f, sigma) == monomial(3, (0, 1, 2))
    with pytest.raises(ValueError, match="3 letters, but nx = 2"):
        permute_x(Poly(2, 0, {(1, 0): 1}), (1, 3, 2))


def test_swap_x_is_transposition():
    f = monomial(3, (1, 2, 0))
    assert swap_x(f, 1) == monomial(3, (2, 1, 0))
    assert swap_x(swap_x(f, 1), 1) == f


def test_restrict_arity():
    f = schubert(Permutation("24153"))
    assert f.max_x_index_used() == 4
    assert f.restrict_arity(4).nx == 4
    assert f.restrict_arity(7).nx == 7
    with pytest.raises(ValueError):
        f.restrict_arity(3)


def test_json_roundtrip_preserves_everything():
    f = schubert_double(Permutation("231"))
    assert Poly.from_json(f.to_json()) == f
    # coefficients are integers: a fraction's JSON is refused, naming the term
    g = Poly(2, 0, {(1, 1): Fraction(3, 7)})
    with pytest.raises(ValueError, match=r"'exp': \[1, 1\]\}: the coefficient "
                                         r"is not an integer"):
        Poly.from_json(g.to_json())


def test_text_and_latex_render():
    f = schubert(Permutation("21"))
    assert f.to_text() == "x1"
    assert f.to_latex() == "x_{1}"
    g = grothendieck(Permutation("132"))
    assert "x1*x2" in g.to_text()
    # deterministic: rendering twice gives identical strings
    assert g.to_text() == g.to_text()


# -- divided differences ----------------------------------------------------


def test_divided_difference_base_cases():
    x1 = Poly.x(1, 2)
    x2 = Poly.x(2, 2)
    assert x1.divided_difference(1) == Poly.const(1, 2)
    assert x2.divided_difference(1) == Poly.const(-1, 2)
    assert (x1 * x2).divided_difference(1).is_zero()
    assert Poly.const(7, 2).divided_difference(1).is_zero()


def test_divided_difference_against_sympy(rng):
    xs = sympy_xs(4)
    for _ in range(60):
        f = random_poly(rng, 4)
        i = rng.randint(1, 3)
        ours = poly_to_sympy(f.divided_difference(i))
        theirs = sympy_divided_difference(poly_to_sympy(f), i, xs)
        assert sympy.expand(ours - theirs) == 0


def test_isobaric_fixes_symmetric_polynomials():
    for j in (1, 2, 3):
        e = elementary_symmetric(j, 3)
        for i in (1, 2):
            assert e.isobaric_divided_difference(i) == e
    assert Poly.const(1, 2).isobaric_divided_difference(1) == Poly.const(1, 2)


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
@pytest.mark.parametrize("ny", [0, 2])
def test_isobaric_matches_composite_and_sympy(rng, ny, fractions):
    # the composite d_i(f - x_{i+1} f) is the one-pass kernel's oracle; an
    # exponent dict that kept a cancelled term would differ from it
    nx = 4
    xs = sympy_xs(nx)
    for _ in range(40):
        f = random_poly(rng, nx, ny, nterms=6)
        if fractions:
            f = Poly(nx, ny, {e: Fraction(c, rng.randint(1, 4))
                              for e, c in f.items()})
        i = rng.randint(1, nx - 1)
        got = f.isobaric_divided_difference(i)
        assert got == (f - Poly.x(i + 1, nx, ny) * f).divided_difference(i)
        theirs = sympy_isobaric(poly_to_sympy(f), i, xs)
        assert sympy.expand(poly_to_sympy(got) - theirs) == 0


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("ny", [0, 2])
@pytest.mark.parametrize("p, q", [(0, EXP_MAX), (EXP_MAX, 0),
                                  (EXP_MAX, EXP_MAX), (5, 5), (5, 6), (6, 5)])
def test_operators_at_the_exponent_bounds_match_sympy(p, q, ny, i):
    # d_i and pi_i of x_i^p x_{i+1}^q times a factor in the other variables,
    # which they must leave alone; the composite oracle d_i((1 - x_{i+1}) f)
    # cannot reach q = EXP_MAX, as x_{i+1} f overflows there
    nx = 3
    exps = [1] * nx
    exps[i - 1:i + 1] = p, q
    f = Poly(nx, ny, {tuple(exps) + tuple(range(1, ny + 1)): 3})
    xs = sympy_xs(nx)
    expr = poly_to_sympy(f)
    assert sympy.expand(poly_to_sympy(f.divided_difference(i))
                        - sympy_divided_difference(expr, i, xs)) == 0
    assert sympy.expand(poly_to_sympy(f.isobaric_divided_difference(i))
                        - sympy_isobaric(expr, i, xs)) == 0


@pytest.mark.parametrize("i", [0, 3, 4])
@pytest.mark.parametrize("op", ["divided_difference",
                                "isobaric_divided_difference"])
def test_operator_index_outside_scope_is_rejected(op, i):
    f = Poly.x(1, 3) * Poly.x(2, 3)
    with pytest.raises(ValueError,
                       match=r"^d_%d needs x_%d in scope$" % (i, i + 1)):
        getattr(f, op)(i)


@pytest.mark.parametrize("make, message", [
    (lambda: Poly.x(0, 3), r"x index 0 is outside 1\.\.nx = 3"),
    (lambda: Poly.x(-1, 3), r"x index -1 is outside 1\.\.nx = 3"),
    (lambda: Poly.x(4, 3, 2), r"x index 4 is outside 1\.\.nx = 3"),
    (lambda: Poly.y(0, 2, 2), r"y index 0 is outside 1\.\.ny = 2"),
    (lambda: Poly.y(3, 2, 2), r"y index 3 is outside 1\.\.ny = 2"),
    (lambda: Poly.y(1, 2, 0), r"y index 1 is outside 1\.\.ny = 0"),
], ids=["x0", "x-1", "x4", "y0", "y3", "y1-without-y"])
def test_variable_index_outside_range_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Poly.zero(-1), r"polynomial nx: -1 is not an int >= 0"),
    (lambda: Poly.zero(2, -1), r"polynomial ny: -1 is not an int >= 0"),
    (lambda: Poly.const(1, -2), r"polynomial nx: -2 is not an int >= 0"),
    (lambda: Poly.zero(True), r"polynomial nx: True is not an int >= 0"),
    (lambda: Poly.const(1, 1, False), r"polynomial ny: False is not an int"),
    (lambda: Poly.x(1, 2.5), r"polynomial nx: 2\.5 is not an int >= 0"),
    (lambda: Poly.x(True, 2), r"polynomial x index: True is not an int"),
    (lambda: Poly.y(1.0, 1, 1), r"polynomial y index: 1\.0 is not an int"),
    (lambda: Poly.y(1, 1, -1), r"polynomial ny: -1 is not an int >= 0"),
    (lambda: Poly.x(1, 2).restrict_arity(-1),
     r"polynomial nx: -1 is not an int >= 0"),
    (lambda: Poly.x(1, 2).restrict_arity(True),
     r"polynomial nx: True is not an int >= 0"),
    (lambda: Poly.x(1, 2).divided_difference(True),
     r"polynomial operator index: True is not an int"),
    (lambda: Poly.x(1, 2).divided_difference(1.0),
     r"polynomial operator index: 1\.0 is not an int"),
    (lambda: Poly.x(1, 2).isobaric_divided_difference(True),
     r"polynomial operator index: True is not an int"),
    (lambda: Poly.x(1, 2) ** True, r"int exponent >= 0, not True"),
], ids=["zero-nx-1", "zero-ny-1", "const-nx-2", "zero-nx-True",
        "const-ny-False", "x-nx-2.5", "x-index-True", "y-index-1.0",
        "y-ny-1", "restrict-1", "restrict-True", "d-True", "d-1.0",
        "pi-True", "pow-True"])
def test_sizes_and_indices_must_be_ints(make, message):
    # unchecked, Poly.zero(-1) kept nx = -1, Poly.zero(True) equalled
    # Poly(1), d_True was d_1, and a float raised a bare TypeError
    with pytest.raises(ValueError, match=message):
        make()


# -- Schubert polynomials ---------------------------------------------------


def test_schubert_base_and_identity():
    assert schubert(Permutation.identity(3)) == Poly.const(1, 3)
    for n in (2, 3, 4):
        top = schubert(Permutation.longest(n))
        want = Poly.const(1, n)
        for i in range(1, n):
            for _ in range(n - i):
                want = want * Poly.x(i, n)
        assert top == want


def test_schubert_simple_transpositions():
    # the transposition at position i gives x1 + ... + xi
    for n in (3, 4):
        for i in range(1, n):
            one_line = list(range(1, n + 1))
            one_line[i - 1], one_line[i] = one_line[i], one_line[i - 1]
            f = schubert(Permutation(one_line))
            want = Poly.zero(n)
            for j in range(1, i + 1):
                want = want + Poly.x(j, n)
            assert f == want


def test_schubert_24153_golden():
    # five monomials, one per reduced pipe dream
    f = schubert(Permutation("24153"))
    want = (
        monomial(5, (2, 2, 0, 0, 0))
        + monomial(5, (2, 1, 1, 0, 0))
        + monomial(5, (2, 1, 0, 1, 0))
        + monomial(5, (1, 2, 1, 0, 0))
        + monomial(5, (1, 2, 0, 1, 0))
    )
    assert f == want


def test_schubert_against_sympy_oracle():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert poly_to_sympy(schubert(w)) == sympy_schubert(w)


def test_schubert_stability_under_extension():
    for p in itertools.permutations(range(1, 4)):
        w = Permutation(p)
        f, g = schubert(w), schubert(w.extend(5))
        assert g == f.restrict_arity(g.nx)


def test_schubert_monomial_positivity():
    for p in itertools.permutations(range(1, 6)):
        f = schubert(Permutation(p))
        assert all(c > 0 for c in f.terms.values())
        assert evaluate(f, (1,) * 5) >= 1


# -- Grothendieck polynomials -----------------------------------------------


def test_grothendieck_12354_golden():
    # e1 - e2 + e3 - e4 in four variables
    f = grothendieck(Permutation("12354")).restrict_arity(4)
    want = Poly.zero(4)
    for j in (1, 2, 3, 4):
        want = want + (-1) ** (j + 1) * elementary_symmetric(j, 4)
    assert f == want


def test_grothendieck_lowest_degree_is_schubert():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert grothendieck(w).lowest_degree_component() == schubert(w)


def test_grothendieck_against_sympy_oracle():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert poly_to_sympy(grothendieck(w)) == sympy_grothendieck(w)


def test_grothendieck_sign_alternation_by_degree():
    # coefficients in degree d carry sign (-1)^(d - length)
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        f = grothendieck(w)
        ell = w.inversions()
        for exp, c in f.items():
            d = sum(exp)
            assert c * (-1) ** (d - ell) > 0


# -- double versions --------------------------------------------------------


def test_double_base_cases():
    n = 3
    w0 = Permutation.longest(n)
    sd = schubert_double(w0)
    want = Poly.const(1, n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                want = want * (Poly.x(i, n, n) - Poly.y(j, n, n))
    assert sd == want
    gd = grothendieck_double(w0)
    want_k = Poly.const(1, n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                x, y = Poly.x(i, n, n), Poly.y(j, n, n)
                want_k = want_k * (x + y - x * y)
    assert gd == want_k


def _yx(p, sign):
    """The terms of sign * p(y; x) by exponent tuple: each tuple's x and y
    blocks change places."""
    n = p.nx
    return {e[n:] + e[:n]: sign * c for e, c in p.items()}


def _count_divided_differences(monkeypatch):
    """The list of the operator indices that both divided differences are
    called with from now on."""
    calls = []
    for name in ("divided_difference", "isobaric_divided_difference"):
        monkeypatch.setattr(Poly, name, lambda self, i, op=getattr(Poly, name):
                            calls.append(i) or op(self, i))
    return calls


@pytest.mark.parametrize("f, kind, top", [(schubert_double, "Sd", 6),
                                          (grothendieck_double, "Gd", 5)])
def test_a_double_polynomial_is_its_inverses_with_x_and_y_swapped(
        monkeypatch, f, kind, top):
    # S_w(x; y) = (-1)^l(w) S_{w^-1}(y; x) and G_w(x; y) = G_{w^-1}(y; x);
    # the climb takes a node from its cached inverse that way, which must
    # give what the divided differences give
    calls = _count_divided_differences(monkeypatch)
    for n in range(1, top + 1):
        cold, swapped = {}, {}
        for w in itertools.permutations(range(1, n + 1)):
            if w in cold:
                continue
            clear_caches()
            del calls[:]
            f(w)
            # alone, w climbs to w0 by divided differences only, and every
            # node on the way is what it would be alone
            chain = {ol: p for (ol, k), p in _CACHE.items() if k == kind}
            assert len(calls) == len(chain) - 1, w
            cold.update(chain)
            for v in chain:
                u = Permutation(v).inverse().one_line
                if u not in chain and u not in swapped:
                    del calls[:]
                    swapped[u] = f(u)
                    assert calls == [], u
        assert len(cold) == math.factorial(n)
        for w, p in cold.items():
            u = Permutation(w).inverse()
            sign = (-1) ** u.inversions() if kind == "Sd" else 1
            assert dict(p.items()) == _yx(cold[u.one_line], sign), w
            assert swapped.get(w, p) == p, w
        assert set(swapped) == {w for w in cold
                                if Permutation(w).inverse().one_line != w}
    clear_caches()


@pytest.mark.parametrize("f", [schubert, grothendieck])
def test_a_single_polynomial_never_takes_the_swap(monkeypatch, f):
    calls = _count_divided_differences(monkeypatch)
    for w in itertools.permutations(range(1, 6)):
        u = Permutation(w).inverse().one_line
        if u == w:
            continue
        clear_caches()
        want = f(u)
        clear_caches()
        f(w)
        del calls[:]
        assert f(u) == want and calls, w
    clear_caches()


def test_double_specializes_to_single():
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        assert schubert_double(w).specialize_y_zero() == schubert(w).restrict_arity(4)
        assert grothendieck_double(w).specialize_y_zero() == grothendieck(w).restrict_arity(4)


def test_double_schubert_interpolation():
    # substituting y = x kills every non-identity double Schubert polynomial
    for p in itertools.permutations(range(1, 5)):
        w = Permutation(p)
        f = schubert_double(w)
        pt = tuple(Fraction(i, 7) for i in range(1, 5))
        val = evaluate(f, pt, pt)
        if w.inversions():
            assert val == 0
        else:
            assert val == 1


# -- word polynomials -------------------------------------------------------


def test_word_polynomials_match_permutation_case():
    # a word with all letters distinct is a permutation; same polynomials
    w = Permutation("24153")
    word = Word("24153", 5)
    assert schubert_of_word(word) == schubert(w)
    assert grothendieck_of_word(word) == grothendieck(w)


def test_schubert_of_word_21231_golden():
    f = schubert_of_word(Word("21231", 3))
    want = (
        monomial(5, (2, 1, 1, 0, 0))
        + monomial(5, (2, 0, 2, 0, 0))
        + monomial(5, (1, 1, 2, 0, 0))
        + monomial(5, (2, 0, 1, 0, 1))
        + monomial(5, (1, 0, 2, 0, 1))
    )
    assert f == want


def test_grothendieck_of_word_21231_golden():
    f = grothendieck_of_word(Word("21231", 3))
    want = (
        monomial(5, (2, 1, 2, 0, 1), 2)
        + monomial(5, (2, 1, 2, 0, 0), -2)
        + monomial(5, (2, 0, 2, 0, 1), -2)
        + monomial(5, (2, 1, 1, 0, 1), -1)
        + monomial(5, (1, 1, 2, 0, 1), -1)
        + monomial(5, (2, 1, 1, 0, 0))
        + monomial(5, (2, 0, 2, 0, 0))
        + monomial(5, (1, 1, 2, 0, 0))
        + monomial(5, (2, 0, 1, 0, 1))
        + monomial(5, (1, 0, 2, 0, 1))
    )
    assert f == want


def _oracle_words(fubini):
    """Every word in [k]^n with n, k <= 4 and the criterion-7 word, or only
    the Fubini words among them."""
    for n, k in itertools.product(range(5), repeat=2):
        for letters in itertools.product(range(1, k + 1), repeat=n):
            word = Word(letters, k)
            if word.is_fubini() or not fubini:
                yield word
    if not fubini:
        yield Word("2442343", 4)


def test_word_polynomial_variable_substitution():
    # the word polynomial is the standardized convexification's polynomial
    # with x_i sent to x_{sigma(i)}, here through the `Word` methods
    for base, of_word, fubini in (
            (schubert, schubert_of_word, False),
            (grothendieck, grothendieck_of_word, False),
            (schubert_double, schubert_double_of_word, True),
            (grothendieck_double, grothendieck_double_of_word, True)):
        for word in _oracle_words(fubini):
            u = word.convexify().standardize()
            expected = permute_x(base(u).restrict_arity(word.n),
                                 word.associated_permutation())
            assert of_word(word) == expected, (of_word.__name__, word)


def test_word_double_polynomials_specialize():
    for text, k in (("21231", 3), ("112", 2)):
        word = Word(text, k)
        assert schubert_double_of_word(word).specialize_y_zero() == schubert_of_word(
            word
        ).restrict_arity(word.n)
        assert grothendieck_double_of_word(word).specialize_y_zero() == grothendieck_of_word(
            word
        ).restrict_arity(word.n)


def test_word_grothendieck_lowest_degree():
    for text, k in (("21231", 3), ("1121", 2), ("123", 3), ("2442343", 4)):
        word = Word(text, k)
        assert grothendieck_of_word(word).lowest_degree_component() == schubert_of_word(word)


# -- Grassmannian transpositions and e-expansions ---------------------------


def test_grassmannian_cycle_shape():
    assert grassmannian_cycle(2, 4).one_line == (1, 3, 4, 2)
    assert grassmannian_cycle(1, 3).one_line == (2, 3, 1)
    assert grassmannian_cycle(3, 4).one_line == (1, 2, 4, 3)
    for n in (3, 4, 5):
        for i in range(1, n):
            v = grassmannian_cycle(i, n)
            assert v.inversions() == n - i
            assert len(descents(v)) == 1


def test_grassmannian_schubert_is_elementary():
    # the cycle's Schubert polynomial is e_{n-i} in n-1 variables
    for n in (3, 4, 5):
        for i in range(1, n):
            f = schubert(grassmannian_cycle(i, n)).restrict_arity(n - 1)
            assert f == elementary_symmetric(n - i, n - 1)


def test_grassmannian_e_expansion_alternates():
    for n in (3, 4, 5, 6):
        for i in range(1, n):
            coeffs = grassmannian_e_expansion(i, n)
            assert coeffs[n - i] == 1
            assert set(coeffs) <= set(range(n - i, n))
            for d in sorted(coeffs)[:-1]:
                assert coeffs[d] * coeffs[d + 1] < 0
            # reassemble the polynomial exactly
            f = Poly.zero(n - 1)
            for d, c in coeffs.items():
                f = f + c * elementary_symmetric(d, n - 1)
            assert f == grothendieck(grassmannian_cycle(i, n)).restrict_arity(n - 1)


def test_e_expansion_rejects_non_grassmannian_input():
    with pytest.raises((LemmaViolation, ValueError)):
        grassmannian_e_expansion(0, 3)


def test_grassmannian_e_expansion_is_lenarts_column_formula():
    cases = 0
    for n in range(2, 10):
        for i in range(1, n + 1):
            assert grassmannian_e_expansion(i, n) == column_e_expansion(i, n)
            cases += 1
    assert cases == 44


@pytest.mark.parametrize("call, args, message", [
    (grassmannian_e_expansion, (2, 4.0), "Grassmannian cycle n: 4.0 is not "
                                         "an int >= 1"),
    (grassmannian_e_expansion, (2, "4"), "Grassmannian cycle n: '4' is not "
                                         "an int >= 1"),
    (grassmannian_e_expansion, (True, 3), "Grassmannian cycle i: True is "
                                          "not an int"),
    (grassmannian_cycle, (1, 0), "Grassmannian cycle n: 0 is not an int >= 1"),
    (grassmannian_cycle, (2.0, 3), "Grassmannian cycle i: 2.0 is not an int"),
    (elementary_symmetric, (True, 2), "elementary symmetric j: True is not "
                                      "an int"),
    (elementary_symmetric, (1, True), "elementary symmetric m: True is not "
                                      "an int >= 0"),
    (elementary_symmetric, (0, -1), "elementary symmetric m: -1 is not an "
                                    "int >= 0"),
], ids=["expansion-n-float", "expansion-n-str", "expansion-i-bool",
        "cycle-n-0", "cycle-i-float", "e-j-bool", "e-m-bool", "e-m-negative"])
def test_lemma_inputs_are_checked_ints(call, args, message):
    with pytest.raises(ValueError) as error:
        call(*args)
    assert str(error.value) == message


def test_elementary_symmetric_against_sympy():
    xs = sympy_xs(4)
    for j in range(1, 5):
        ours = poly_to_sympy(elementary_symmetric(j, 4))
        theirs = sympy.expand(
            sum(
                sympy.prod(c)
                for c in itertools.combinations(xs, j)
            )
        )
        assert ours == theirs
    for j in (-1, 5):
        assert elementary_symmetric(j, 4).is_zero()


def test_cached_polynomials_are_read_only():
    # every caller shares the cached object, so a write must not go through
    p = schubert(Permutation("132"))
    before = dict(p.terms)
    with pytest.raises(TypeError):
        p.terms[(5, 0, 0)] = 7
    assert dict(schubert(Permutation("132")).terms) == before
    assert schubert(Permutation("132")).to_text() == "x1 + x2"


def test_cache_is_independent_of_call_order():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    kinds = (schubert, grothendieck, schubert_double, grothendieck_double)
    orders = ([(f, w) for f in kinds for w in perms],
              [(f, w) for w in reversed(perms) for f in reversed(kinds)])
    seen = []
    for order in orders:
        clear_caches()
        polys = {(f.__name__, w.one_line): f(w) for f, w in order}
        seen.append((polys, set(_CACHE)))
    assert seen[0] == seen[1]
    assert len(seen[0][1]) == 4 * 24


# -- the packed term store ----------------------------------------------------


def test_from_json_refuses_a_fraction_and_names_the_term():
    text = '{"nx": 1, "ny": 0, "terms": [{"coeff": "1/2", "exp": [1]}]}'
    with pytest.raises(ValueError, match=r"term \{'coeff': '1/2', 'exp': \[1\]\}"
                                         r": the coefficient is not an integer"):
        Poly.from_json(text)


def test_from_json_names_the_missing_field():
    with pytest.raises(ValueError, match="polynomial JSON lacks the 'terms' field"):
        Poly.from_json('{"nx": 1, "ny": 0}')
    with pytest.raises(ValueError, match=r"term \{'exp': \[1\]\} needs 'coeff'"):
        Poly.from_json('{"nx": 1, "ny": 0, "terms": [{"exp": [1]}]}')


def test_exponents_of_the_wrong_arity_are_refused():
    f = Poly(3, 0, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match=r"\(1, 0\) has 2 entries, not nx \+ ny = 3"):
        f.coefficient((1, 0))
    with pytest.raises(ValueError, match=r"has 4 entries, not nx \+ ny = 3"):
        Poly(3, 0, {(1, 0, 0, 0): 1})
    assert f.coefficient((1, 0, 0)) == 1
    assert f.coefficient((200, 0, 0)) == f.coefficient((-1, 0, 0)) == 0
    with pytest.raises(ValueError, match="d_3 needs x_4 in scope"):
        f.divided_difference(3)
    with pytest.raises(ValueError, match=r"e_1\(x_1..x_3\) needs nx >= 3"):
        elementary_symmetric(1, 3, nx=2, ny=1)


def test_an_exponent_past_the_field_width_names_its_variable():
    x1 = Poly.x(1, 1)
    assert (x1 ** EXP_MAX).coefficient((EXP_MAX,)) == 1
    for k in (EXP_MAX + 1, 200):
        with pytest.raises(ValueError, match="exponent of x1 passes %d" % EXP_MAX):
            x1 ** k
    y2 = Poly.y(2, 1, 2)
    with pytest.raises(ValueError, match="exponent of y2 passes %d" % EXP_MAX):
        (y2 ** 100) * (y2 ** 100)
    for exp, name in (((0, EXP_MAX + 1), "y1"), ((-1, 0), "x1"),
                      ((0, 0.5), "y1")):
        with pytest.raises(ValueError, match="of %s is outside 0..%d"
                                             % (name, EXP_MAX)):
            Poly(1, 1, {exp: 1})


def test_a_bool_exponent_is_refused_by_name():
    # bytes((True,)) packs True as 1, so unchecked Poly(1, 0, {(True,): 1})
    # is x1
    for nx, ny, exp, shown in ((1, 0, (True,), "True of x1"),
                               (1, 1, (2, False), "False of y1")):
        with pytest.raises(ValueError, match="exponent %s is outside 0..%d"
                                             % (shown, EXP_MAX)):
            Poly(nx, ny, {exp: 1})


def test_a_power_refuses_a_negative_or_non_int_exponent():
    # unchecked, a constant's -1 power never returns, and x1's raises the
    # unrelated "passes 127" error
    for base in (Poly.const(1, 1), Poly.x(1, 1)):
        assert base ** 0 == 1
        for k in (-1, -3, 1.0, 0.5, Fraction(1)):
            with pytest.raises(ValueError, match=r"int exponent >= 0, not %s"
                                                 % re.escape(repr(k))):
                base ** k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 3).flatmap(lambda nx: st.integers(0, 3).flatmap(
    lambda ny: st.tuples(st.just(nx), st.just(ny), st.dictionaries(
        st.tuples(*[st.integers(0, EXP_MAX)] * (nx + ny)),
        st.integers(-10 ** 20, 10 ** 20).filter(bool), max_size=8)))))
def test_items_give_back_the_constructor_terms(args):
    nx, ny, terms = args
    f = Poly(nx, ny, terms)
    assert dict(f.items()) == terms
    assert all(f.coefficient(e) == c for e, c in terms.items())
    assert Poly.from_json(f.to_json()) == f


def test_cached_term_dicts_are_not_tracked_by_the_collector():
    for f in (schubert(Permutation("2413")), grothendieck_double("2413")):
        store, = gc.get_referents(f.terms)     # the dict behind the proxy
        assert isinstance(store, dict) and store
        assert not gc.is_tracked(store)


def test_a_bounded_cache_gives_the_unbounded_results(monkeypatch):
    # the double Grothendieck polynomials of S_5 hold 153k terms; S_4 will do
    s4, s5 = (list(map(Permutation, itertools.permutations(range(1, n + 1))))
              for n in (4, 5))
    calls = [(f, w) for f in (schubert, grothendieck, schubert_double)
             for w in s5] + [(grothendieck_double, w) for w in s4]
    clear_caches()
    want = [f(w) for f, w in calls]
    assert cache_info()["evictions"] == 0
    bound = 500
    monkeypatch.setattr(_CACHE, "bound", bound)
    pipedreams.clear_caches()
    assert cache_info() == dict.fromkeys(
        ("entries", "terms", "hits", "misses", "evictions"), 0)
    assert [f(w) for f, w in calls] == want
    info = cache_info()
    assert info["evictions"] > 0, info
    assert info["hits"] + info["misses"] == len(calls), info
    assert info["terms"] == sum(len(p.terms) for p in _CACHE.values())
    tops = {(ol, kind) for ol, kind in _CACHE
            if ol == tuple(range(len(ol), 0, -1))}
    assert {kind for _, kind in tops} == {"S", "G", "Sd", "Gd"}
    # the tops are not counted against the bound, so others survive them
    rest = [p for key, p in _CACHE.items() if key not in tops]
    assert rest and sum(len(p.terms) for p in rest) <= bound, info
    clear_caches()


def test_a_polynomial_past_the_bound_is_not_stored(monkeypatch):
    # G of 15432 has 28 terms; its climb 51432, 54132, 54312, 54321 holds 14
    clear_caches()
    want = grothendieck("15432")
    clear_caches()
    grothendieck("51432")
    stored = dict(_CACHE)
    monkeypatch.setattr(_CACHE, "bound", cache_info()["terms"])
    assert grothendieck("15432") == want and len(want.terms) > _CACHE.bound
    assert dict(_CACHE) == stored and cache_info()["evictions"] == 0
    assert ((5, 1, 4, 3, 2), "G") in stored
    clear_caches()


@pytest.mark.parametrize("write", ["to_json", "to_text", "to_latex"])
def test_writers_refuse_a_coefficient_that_is_not_an_integer(write):
    f = Poly(2, 0, {(1, 1): Fraction(3, 7), (0, 0): 2})
    with pytest.raises(ValueError, match=r"polynomial term \{'coeff': '3/7', "
                                         r"'exp': \[1, 1\]\}: the coefficient "
                                         r"is not an integer"):
        getattr(f, write)()
    half = Poly(1, 0, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"'1/2', 'exp': \[1\]"):
        getattr(half, write)()


def test_writers_take_an_integral_fraction_as_its_integer():
    f = Poly(1, 0, {(1,): Fraction(4, 2)})
    assert f.to_text() == "2*x1"
    assert Poly.from_json(f.to_json()) == Poly(1, 0, {(1,): 2})


def test_repr_and_str_write_a_fraction_coefficient():
    f = Poly(2, 0, {(1, 1): Fraction(3, 7), (0, 0): 2})
    assert str(f) == "2 + 3/7*x1*x2"
    assert repr(f) == "Poly(2 + 3/7*x1*x2)"
    assert repr(Poly(1, 0, {(1,): 3})) == "Poly(3*x1)"
