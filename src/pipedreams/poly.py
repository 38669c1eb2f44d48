"""Exact sparse polynomials and Schubert/Grothendieck calculus.

Polynomials live in Z[x_1..x_nx] or Z[x_1..x_nx; y_1..y_ny]; a monomial is
an exponent tuple of length nx+ny (x block first), coefficients are Python
ints, and zero coefficients are never stored.  All arithmetic is exact.

The divided difference uses the telescoping identity

    d_i(x_i^p x_{i+1}^q) = sum_{t=q}^{p-1} x_i^t x_{i+1}^{p+q-1-t}   (p > q)

(antisymmetric in p, q; zero for p = q), which is division-free and leaves
no remainder to check; the definitional form (f - s_i f) / (x_i - x_{i+1})
is cross-checked in the test suite.  The isobaric divided difference
pi_i f = d_i((1 - x_{i+1}) f) of Lascoux-Schuetzenberger takes the same
identity term by term, in one pass over f and without forming x_{i+1} f:

    pi_i(x_i^p x_{i+1}^q) = d_i(x_i^p x_{i+1}^q) - d_i(x_i^p x_{i+1}^(q+1))

The two sums have total degrees p+q-1 and p+q, so they never cancel each
other; the composite form is the test oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType

from .combinat import Permutation, Word


class Poly:
    """Sparse exact polynomial, hashable and immutable by convention."""

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx, ny=0, terms=None):
        self.nx = nx
        self.ny = ny
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    if len(exp) != nx + ny:
                        raise ValueError("exponent arity mismatch")
                    self.terms[tuple(exp)] = self.terms.get(tuple(exp), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nx, ny=0):
        return cls(nx, ny)

    @classmethod
    def const(cls, c, nx, ny=0):
        p = cls(nx, ny)
        if c:
            p.terms[(0,) * (nx + ny)] = c
        return p

    @classmethod
    def x(cls, i, nx, ny=0):
        if not 1 <= i <= nx:
            raise ValueError("x index %d is outside 1..nx = %d" % (i, nx))
        exp = [0] * (nx + ny)
        exp[i - 1] = 1
        return cls(nx, ny, {tuple(exp): 1})

    @classmethod
    def y(cls, j, nx, ny):
        if not 1 <= j <= ny:
            raise ValueError("y index %d is outside 1..ny = %d" % (j, ny))
        exp = [0] * (nx + ny)
        exp[nx + j - 1] = 1
        return cls(nx, ny, {tuple(exp): 1})

    # -- ring ops ------------------------------------------------------------

    def _check_compat(self, other):
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError("arity mismatch: (%d,%d) vs (%d,%d)"
                             % (self.nx, self.ny, other.nx, other.ny))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.nx, self.ny)
        self._check_compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            nc = terms.get(e, 0) + c
            if nc:
                terms[e] = nc
            else:
                terms.pop(e, None)
        out = Poly(self.nx, self.ny)
        out.terms = terms
        return out

    def __neg__(self):
        out = Poly(self.nx, self.ny)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.nx, self.ny)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other, self.nx, self.ny) - self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly(self.nx, self.ny)
            out = Poly(self.nx, self.ny)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check_compat(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(sum, zip(ea, eb)))
                nc = terms.get(e, 0) + ca * cb
                if nc:
                    terms[e] = nc
                else:
                    del terms[e]
        out = Poly(self.nx, self.ny)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly.const(1, self.nx, self.ny)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.nx, self.ny)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nx, self.ny, self.terms) == (other.nx, other.ny, other.terms)

    def __hash__(self):
        return hash((self.nx, self.ny, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- queries -------------------------------------------------------------

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def min_degree(self):
        return min((sum(e) for e in self.terms), default=0)

    def homogeneous_component(self, d):
        out = Poly(self.nx, self.ny)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return out

    def lowest_degree_component(self):
        if not self.terms:
            return Poly(self.nx, self.ny)
        return self.homogeneous_component(self.min_degree())

    def max_x_index_used(self):
        """Largest i with x_i appearing (0 if none)."""
        best = 0
        for e in self.terms:
            for i in range(self.nx - 1, best - 1, -1):
                if e[i]:
                    best = max(best, i + 1)
                    break
        return best

    def evaluate(self, xs, ys=()):
        """Exact evaluation; xs/ys may hold ints or Fractions."""
        if len(xs) != self.nx or len(ys) != self.ny:
            raise ValueError("evaluation point arity mismatch")
        pt = tuple(xs) + tuple(ys)
        total = 0
        for e, c in self.terms.items():
            v = c
            for b, a in zip(pt, e):
                if a:
                    v *= b ** a
            total += v
        return total

    # -- substitutions ---------------------------------------------------------

    def specialize_y_zero(self):
        """Set every y_j := 0, returning a pure-x polynomial."""
        out = Poly(self.nx, 0)
        t = {}
        for e, c in self.terms.items():
            if any(e[self.nx:]):
                continue
            t[e[: self.nx]] = c
        out.terms = t
        return out

    def restrict_arity(self, new_nx):
        """Shrink the x block to new_nx; no dropped variable may occur."""
        if new_nx > self.nx:
            # pad instead
            out = Poly(new_nx, self.ny)
            pad = (0,) * (new_nx - self.nx)
            out.terms = {e[: self.nx] + pad + e[self.nx:]: c
                         for e, c in self.terms.items()}
            return out
        if self.max_x_index_used() > new_nx:
            raise ValueError("polynomial uses x beyond index %d" % new_nx)
        out = Poly(new_nx, self.ny)
        out.terms = {e[:new_nx] + e[self.nx:]: c for e, c in self.terms.items()}
        return out

    def permute_x(self, pi):
        """Substitute x_i := x_{pi(i)} for a permutation pi of [nx]."""
        if isinstance(pi, Permutation):
            pi = pi.extend(self.nx)
        else:
            pi = Permutation(pi).extend(self.nx)
        out = Poly(self.nx, self.ny)
        t = {}
        for e, c in self.terms.items():
            ne = [0] * self.nx
            for i in range(self.nx):
                ne[pi(i + 1) - 1] = e[i]
            t[tuple(ne) + e[self.nx:]] = c
        out.terms = t
        return out

    # -- divided differences -----------------------------------------------

    def swap_x(self, i):
        """Exchange the variables x_i and x_{i+1}."""
        out = Poly(self.nx, self.ny)
        t = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i - 1], ne[i] = ne[i], ne[i - 1]
            t[tuple(ne)] = c
        out.terms = t
        return out

    def _check_operator_index(self, i):
        if i < 1 or i + 1 > self.nx:
            raise ValueError("d_%d needs x_%d in scope" % (i, i + 1))

    def divided_difference(self, i):
        """d_i f = (f - s_i f) / (x_i - x_{i+1}), computed division-free."""
        self._check_operator_index(i)
        a = i - 1
        terms = {}
        for e, c in self.terms.items():
            p, q = e[a], e[i]
            if p == q:
                continue
            if p < q:
                p, q, c = q, p, -c
            base = list(e)
            top = p + q - 1
            for t in range(q, p):
                base[a] = t
                base[i] = top - t
                key = tuple(base)
                nc = terms.get(key, 0) + c
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
        out = Poly(self.nx, self.ny)
        out.terms = terms
        return out

    def isobaric_divided_difference(self, i):
        """pi_i f = d_i((1 - x_{i+1}) f), in one pass over f; idempotent."""
        self._check_operator_index(i)
        a = i - 1
        terms = {}
        for e, c in self.terms.items():
            p, q = e[a], e[i]
            base = list(e)
            # c d_i(x_i^p x_{i+1}^q), then -c d_i(x_i^p x_{i+1}^(q+1)); the
            # two loops stay unrolled because a loop over both runs costs
            # about 10 % of this kernel
            lo, hi, s = (q, p, c) if p > q else (p, q, -c)
            top = p + q - 1
            for t in range(lo, hi):
                base[a] = t
                base[i] = top - t
                key = tuple(base)
                nc = terms.get(key, 0) + s
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
            lo, hi, s = (q + 1, p, -c) if p > q else (p, q + 1, c)
            top += 1
            for t in range(lo, hi):
                base[a] = t
                base[i] = top - t
                key = tuple(base)
                nc = terms.get(key, 0) + s
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
        out = Poly(self.nx, self.ny)
        out.terms = terms
        return out

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        # graded order: ascending total degree, then descending lex on the
        # exponent tuple (x block first), so x1-heavy monomials print first
        return sorted(self.terms.items(),
                      key=lambda ec: (sum(ec[0]), tuple(-v for v in ec[0])))

    def _render(self, var, power, join):
        """Terms in graded order, signs between them; `var` formats a
        variable from its letter and index, `power` an exponent above 1,
        and `join` sits between the factors of a term."""
        names = ([var % ("x", i) for i in range(1, self.nx + 1)]
                 + [var % ("y", j) for j in range(1, self.ny + 1)])
        chunks = []
        for exp, c in self._sorted_terms():
            mono = join.join(name + (power % a if a > 1 else "")
                             for name, a in zip(names, exp) if a)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%d%s%s" % (abs(c), join, mono)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks) or "0"

    def to_text(self):
        """Canonical text form, e.g. 'x1^2*x2*x3 - x2^2 + 1'."""
        return self._render("%s%d", "^%d", "*")

    def to_latex(self):
        return self._render("%s_{%d}", "^{%d}", " ")

    def to_json(self):
        return json.dumps({
            "nx": self.nx,
            "ny": self.ny,
            "terms": [{"coeff": str(c), "exp": list(e)}
                      for e, c in self._sorted_terms()],
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        terms = {}
        for t in d["terms"]:
            c = Fraction(t["coeff"])
            terms[tuple(t["exp"])] = int(c) if c.denominator == 1 else c
        return cls(d["nx"], d["ny"], terms)

    def __repr__(self):
        return "Poly(%s)" % (self.to_text(),)

    __str__ = to_text


# -- symmetric functions -----------------------------------------------------


def elementary_symmetric(j, m, nx=None, ny=0):
    """e_j(x_1, ..., x_m) as a Poly of x-arity nx (default m)."""
    from itertools import combinations

    if nx is None:
        nx = m
    if j < 0 or j > m:
        return Poly(nx, ny)
    terms = {}
    for comb in combinations(range(m), j):
        e = [0] * (nx + ny)
        for i in comb:
            e[i] = 1
        terms[tuple(e)] = 1
    return Poly(nx, ny, terms)


# -- Schubert / Grothendieck --------------------------------------------------

_CACHE = {}


def clear_caches():
    _CACHE.clear()


def _staircase(n, nx, ny, double, k_theory):
    """The top polynomial for S_n: product over i+j <= n of the linear
    factor in x_i (and y_j for doubles)."""
    p = Poly.const(1, nx, ny)
    if not double:
        for i in range(1, n):
            p = p * Poly.x(i, nx, ny) ** (n - i)
        return p
    for i in range(1, n):
        xi = Poly.x(i, nx, ny)
        for j in range(1, n - i + 1):
            yj = Poly.y(j, nx, ny)
            f = (xi + yj - xi * yj) if k_theory else (xi - yj)
            p = p * f
    return p


def _schub_like(w, kind):
    """kind in {'S','G','Sd','Gd'}; returns the cached polynomial for w."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    key = (w.one_line, kind)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    n = w.n
    double = kind.endswith("d")
    k_theory = kind.startswith("G")

    # climb along first ascents until hitting a cached ancestor or the
    # longest element, then apply the operators back down, caching as we go;
    # the climb swaps entries of one-line tuples, because swapping an ascent
    # of a permutation gives a permutation again
    path = []                      # operator index used at each climb step
    keys = [w.one_line]            # permutations along the climb
    v = w.one_line
    w0 = tuple(range(n, 0, -1))
    while v != w0 and (v, kind) not in _CACHE:
        i = next(j for j in range(1, n) if v[j - 1] < v[j])
        path.append(i)
        v = v[:i - 1] + (v[i], v[i - 1]) + v[i + 1:]
        keys.append(v)
    if (v, kind) not in _CACHE:
        _cache_put((v, kind), _staircase(
            n, n, n if double else 0, double, k_theory))

    cur = _CACHE[(keys[-1], kind)]
    for idx in range(len(path) - 1, -1, -1):
        i = path[idx]
        cur = (cur.isobaric_divided_difference(i) if k_theory
               else cur.divided_difference(i))
        _cache_put((keys[idx], kind), cur)
    return _CACHE[key]


def _cache_put(key, poly):
    """Cache a polynomial with read-only terms: every caller shares it."""
    poly.terms = MappingProxyType(poly.terms)
    _CACHE[key] = poly


def schubert(w):
    """The Schubert polynomial of a permutation.

    >>> schubert(Permutation("21")).to_text()
    'x1'
    """
    return _schub_like(w, "S")


def grothendieck(w):
    """The Grothendieck polynomial of a permutation.

    >>> grothendieck(Permutation("132")).to_text()
    'x1 + x2 - x1*x2'
    """
    return _schub_like(w, "G")


def schubert_double(w):
    """Double Schubert polynomial in x_1..x_n; y_1..y_n."""
    return _schub_like(w, "Sd")


def grothendieck_double(w):
    """Double Grothendieck polynomial in x_1..x_n; y_1..y_n."""
    return _schub_like(w, "Gd")


def _word_poly(word, base):
    word = word if isinstance(word, Word) else Word(word)
    u = word.convexify().standardize()
    f = base(u)
    used = f.max_x_index_used()
    if used > word.n:
        raise AssertionError(
            "standardized polynomial uses x_%d beyond word length %d"
            % (used, word.n))
    f = f.restrict_arity(word.n)
    sigma = word.associated_permutation()
    return f.permute_x(sigma)


def schubert_of_word(word):
    """Schubert polynomial of a word: relabel the polynomial of the
    standardized convexification through the associated permutation."""
    return _word_poly(word, schubert)


def grothendieck_of_word(word):
    """Grothendieck polynomial of a word (same relabeling as Schubert)."""
    return _word_poly(word, grothendieck)


def schubert_double_of_word(word):
    return _word_poly(word, schubert_double)


def grothendieck_double_of_word(word):
    return _word_poly(word, grothendieck_double)


# -- Grassmannian expansions ---------------------------------------------------


class LemmaViolation(AssertionError):
    """Raised when a claimed elementary-symmetric expansion fails."""


def grassmannian_cycle(i, n):
    """The cycle (1, ..., i-1, i+1, ..., n, i) in S_n (skip i, append i)."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    one_line = [j for j in range(1, n + 1) if j != i] + [i]
    return Permutation(one_line)


def grassmannian_e_expansion(i, n):
    """Expand the Grothendieck polynomial of the cycle (1,..,i-1,i+1,..,n,i)
    in e_j(x_1..x_{n-1}).

    Returns {j: c_j} with j running over n-i..n-1; asserts c_{n-i} = 1 and
    strict sign alternation; raises LemmaViolation if the polynomial is not
    exactly such a combination.
    """
    v = grassmannian_cycle(i, n)
    g = grothendieck(v).restrict_arity(n - 1)
    coeffs = {}
    residual = g
    for d in range(residual.min_degree(), residual.total_degree() + 1):
        comp = residual.homogeneous_component(d)
        if comp.is_zero():
            continue
        if d > n - 1:
            raise LemmaViolation("degree %d exceeds e_%d range" % (d, n - 1))
        lead = tuple([1] * d + [0] * (n - 1 - d))
        c = comp.coefficient(lead)
        e_d = elementary_symmetric(d, n - 1)
        if comp != c * e_d:
            raise LemmaViolation(
                "degree-%d component is not a multiple of e_%d" % (d, d))
        if c:
            coeffs[d] = c
        residual = residual - c * e_d
    leftover = {d for d in coeffs if not (n - i <= d <= n - 1)}
    if leftover:
        raise LemmaViolation("coefficients outside expected range: %s"
                             % sorted(leftover))
    if coeffs.get(n - i) != 1:
        raise LemmaViolation("leading coefficient c_%d is %r, expected 1"
                             % (n - i, coeffs.get(n - i)))
    for d in range(n - i, n - 1):
        a, b = coeffs.get(d, 0), coeffs.get(d + 1, 0)
        if a and b and a * b >= 0:
            raise LemmaViolation("signs fail to alternate at e_%d" % (d + 1,))
    return coeffs
