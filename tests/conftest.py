"""Shared fixtures and independent oracles.

The sympy helpers re-derive polynomials from first principles (divided
differences applied to the staircase monomial) so the package's recursion is
checked against an implementation that shares no code with it.
"""

import random

import pytest
import sympy

from pipedreams import Permutation, Poly

from oracles import ascents, swap


def sympy_xs(n):
    return sympy.symbols(["x%d" % i for i in range(1, n + 1)])


def sympy_ys(n):
    return sympy.symbols(["y%d" % i for i in range(1, n + 1)])


def poly_to_sympy(f):
    """Exact sympy expression for a Poly (x-variables then y-variables)."""
    xs = sympy_xs(f.nx)
    ys = sympy_ys(f.ny)
    gens = list(xs) + list(ys)
    expr = sympy.Integer(0)
    for exp, coeff in f.items():
        term = sympy.Rational(coeff)
        for g, e in zip(gens, exp):
            if e:
                term *= g ** e
        expr += term
    return sympy.expand(expr)


def sympy_divided_difference(expr, i, xs):
    swapped = expr.subs({xs[i - 1]: xs[i], xs[i]: xs[i - 1]}, simultaneous=True)
    return sympy.cancel((expr - swapped) / (xs[i - 1] - xs[i]))


def sympy_isobaric(expr, i, xs):
    return sympy_divided_difference(sympy.expand((1 - xs[i]) * expr), i, xs)


def sympy_schubert(w):
    """Schubert polynomial computed entirely in sympy.

    Starts from the staircase monomial of the longest element and strips one
    inversion per divided difference, following ascents of the target read
    from the left.
    """
    w = w if isinstance(w, Permutation) else Permutation(w)
    n = w.n
    xs = sympy_xs(n)
    expr = sympy.prod(xs[i] ** (n - 1 - i) for i in range(n))
    v = w
    word = []
    while v.inversions() < n * (n - 1) // 2:
        i = ascents(v)[0]
        word.append(i)
        v = swap(v, i)
    for i in reversed(word):
        expr = sympy_divided_difference(expr, i, xs)
    return sympy.expand(expr)


def sympy_grothendieck(w):
    """Grothendieck polynomial computed entirely in sympy (isobaric walk)."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    n = w.n
    xs = sympy_xs(n)
    expr = sympy.prod(xs[i] ** (n - 1 - i) for i in range(n))
    v = w
    word = []
    while v.inversions() < n * (n - 1) // 2:
        i = ascents(v)[0]
        word.append(i)
        v = swap(v, i)
    for i in reversed(word):
        expr = sympy_isobaric(expr, i, xs)
    return sympy.expand(expr)


def random_poly(rng, nx, ny=0, nterms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(nx + ny))
        terms[exp] = terms.get(exp, 0) + rng.randint(-max_coeff, max_coeff)
    return Poly(nx, ny, terms)


@pytest.fixture(autouse=True)
def _no_inherited_format(monkeypatch):
    """Keep a PIPEDREAMS_FORMAT from the calling shell out of every test, so
    in-process CLI calls see the documented default, text."""
    monkeypatch.delenv("PIPEDREAMS_FORMAT", raising=False)


@pytest.fixture
def rng():
    return random.Random(20240816)
