"""Exact sparse polynomials and Schubert/Grothendieck calculus.

Polynomials live in Z[x_1..x_nx] or Z[x_1..x_nx; y_1..y_ny]; coefficients
are Python ints, and zero coefficients are never stored.  All arithmetic is
exact.  The constructor and the arithmetic also carry `Fraction`
coefficients; the text, LaTeX and JSON forms refuse a coefficient that is
not an integer, naming its term, while `str` and `repr` write it as a
fraction.

A monomial is one packed int key.  Variable v (x_1..x_nx, then y_1..y_ny,
counted from 0) owns the byte at bits 8v..8v+7: its exponent in the low
seven bits and a guard bit on top, so an exponent is at most EXP_MAX = 127.
Multiplying monomials adds their keys.  Two exponents <= 127 add up to at
most 254, which may set the guard bit but never carries into the next
byte, so a product tests the guard bits of its keys once and raises a
ValueError naming the variable whose exponent passed EXP_MAX.  The divided
differences never raise an exponent and skip that test.  Outside this
module only the sums by rows build keys: `pipedream._pd_sums` moves the
rows below the first down a row as `key << 8`, `bpd._bpd_sums` writes a
row's exponent as `(b + j) << field`, and `pipedream._sum_poly` takes
their term dicts as they are.  `Poly(nx, ny, {exponent tuple: c})`,
`coefficient`, `items()` and the text and JSON forms speak exponent
tuples.  A term dict holds only ints, so the cyclic garbage collector never
walks it.

The divided difference uses the telescoping identity

    d_i(x_i^p x_{i+1}^q) = sum_{t=q}^{p-1} x_i^t x_{i+1}^{p+q-1-t}   (p > q)

(antisymmetric in p, q; zero for p = q), which is division-free and leaves
no remainder to check; the definitional form (f - s_i f) / (x_i - x_{i+1})
is cross-checked in the test suite.  The isobaric divided difference
pi_i f = d_i((1 - x_{i+1}) f) of Lascoux-Schuetzenberger takes the same
identity term by term, in one pass over f and without forming x_{i+1} f:

    pi_i(x_i^p x_{i+1}^q) = d_i(x_i^p x_{i+1}^q) - d_i(x_i^p x_{i+1}^(q+1))

The two sums have total degrees p+q-1 and p+q, so they never cancel each
other; the composite form is the test oracle.  Both sums only rewrite the
bytes of x_i and x_{i+1}, so the key of each of their monomials is the
term's key xored with a mask that depends on (p, q) and the bit s of x_i
alone.  The masks live in `_MASKS`, a memo by (s, pq), pq the two bytes:
one entry holds the masks of both sums and the sign, so d_i and pi_i share
it.  It holds at most MASK_MEMO masks, least recently used first; the four
tables of the `poly-table` benchmark need 301, in 91 entries.  A kernel call keeps its own dict by pq in front of the memo, so
a term costs one dict probe, then a shift, a mask and one int xor per
monomial.

The double polynomials climb the same way, with one shortcut.  Swapping
the x and y blocks,

    S_w(x; y) = (-1)^l(w) S_{w^-1}(y; x)      G_w(x; y) = G_{w^-1}(y; x)

(Macdonald, Notes on Schubert Polynomials, 1991; the second in this
module's x + y - xy convention, whose top factors are symmetric in x and
y).  So a node v of a double climb whose inverse is cached takes that
polynomial with its key's x and y bytes exchanged, negated for S when
l(v) is odd, and the climb stops there.  The swap runs only at a climb
node whose inverse is cached; every other node is made by a divided
difference as before, and the single polynomials never take the swap.

A `Poly` is immutable: as every value class, it derives from
`combinat.Frozen`, so writing or deleting its attributes raises.  Computed
polynomials are cached per (one-line tuple, kind) in `_CACHE`, a `_Memo` as
every memo of the package is, and the cache hands every caller the same
object, its terms a read-only view; pickling copies them out into a dict.
The cache is least recently used first and holds at most CACHE_TERMS terms
besides the longest elements w0, where every climb ends: those are kept
whatever their size, never evicted and not counted against the bound.  Any
other polynomial of more than CACHE_TERMS terms is not stored.  See
`cache_info()`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations, filterfalse
from operator import itemgetter
from types import MappingProxyType

from .combinat import (Frozen, Permutation, Word, _new, _setattr,
                       checked_int, convex_standardization, inverse_one_line,
                       json_fields)

EXP_MAX = 127   # the largest exponent a key byte holds below its guard bit


def _arity(nx, ny):
    """(nx, ny) once both are checked to be ints >= 0."""
    return (checked_int("polynomial", "nx", nx, 0),
            checked_int("polynomial", "ny", ny, 0))


def _variable(v, nx):
    """The name of variable v, counted from 0 with the x block first."""
    return "x%d" % (v + 1) if v < nx else "y%d" % (v - nx + 1)


class Poly(Frozen):
    """Sparse exact polynomial, hashable and immutable."""

    __slots__ = _fields = ("nx", "ny", "terms")

    def __new__(cls, nx, ny=0, terms=None):
        p = cls._of(*_arity(nx, ny), {})
        if terms:
            packed = {}
            for exp, c in terms.items():
                if c:
                    key = p._key(exp)
                    packed[key] = packed.get(key, 0) + c
            p = cls._of(nx, ny, {e: c for e, c in packed.items() if c})
        return p

    @classmethod
    def _of(cls, nx, ny, terms):
        """The polynomial whose term dict is `terms`, packed keys and nonzero
        coefficients, taken as it is.  Every arithmetic result comes here,
        so it writes its three fields directly, not through `Frozen._of`."""
        p = _new(cls)
        _setattr(p, "nx", nx)
        _setattr(p, "ny", ny)
        _setattr(p, "terms", terms)
        return p

    def __reduce__(self):
        # a cached polynomial's terms are a read-only proxy: copy them out
        return Poly._of, (self.nx, self.ny, dict(self.terms))

    def _key(self, exp):
        """The packed key of an exponent tuple."""
        n = self.nx + self.ny
        if len(exp) != n:
            raise ValueError("exponent %r has %d entries, not nx + ny = %d"
                             % (tuple(exp), len(exp), n))
        try:
            b = bytes(exp)
            if n and max(b) > EXP_MAX or bool in map(type, exp):
                raise ValueError
        except (TypeError, ValueError):
            v = next(v for v, a in enumerate(exp)
                     if isinstance(a, bool) or not isinstance(a, int)
                     or not 0 <= a <= EXP_MAX)
            raise ValueError("exponent %r of %s is outside 0..%d" % (
                exp[v], _variable(v, self.nx), EXP_MAX)) from None
        return int.from_bytes(b, "little")

    def _check_exponents(self, keys):
        """Raise a ValueError naming a variable whose exponent passed
        EXP_MAX in one of `keys`, sums of two valid keys."""
        used = 0
        for e in keys:
            used |= e
        over = used & int.from_bytes(b"\x80" * (self.nx + self.ny), "little")
        if over:
            raise ValueError("the exponent of %s passes %d"
                             % (_variable((over.bit_length() - 1) // 8,
                                          self.nx), EXP_MAX))

    def items(self):
        """The terms as (exponent tuple, coefficient) pairs, x block first."""
        n = self.nx + self.ny
        for e, c in self.terms.items():
            yield tuple(e.to_bytes(n, "little")), c

    def _degree(self, e):
        return sum(e.to_bytes(self.nx + self.ny, "little"))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nx, ny=0):
        return cls._of(*_arity(nx, ny), {})

    @classmethod
    def const(cls, c, nx, ny=0):
        return cls._of(*_arity(nx, ny), {0: c} if c else {})

    @classmethod
    def x(cls, i, nx, ny=0):
        nx, ny = _arity(nx, ny)
        if not 1 <= checked_int("polynomial", "x index", i) <= nx:
            raise ValueError("x index %d is outside 1..nx = %d" % (i, nx))
        return cls._of(nx, ny, {1 << 8 * (i - 1): 1})

    @classmethod
    def y(cls, j, nx, ny):
        nx, ny = _arity(nx, ny)
        if not 1 <= checked_int("polynomial", "y index", j) <= ny:
            raise ValueError("y index %d is outside 1..ny = %d" % (j, ny))
        return cls._of(nx, ny, {1 << 8 * (nx + j - 1): 1})

    @classmethod
    def sum_of(cls, polys, nx, ny=0):
        """The sum of polynomials in (nx, ny) variables, added into one term
        dict, so the running total is never copied."""
        terms = {}
        for p in polys:
            if p.nx != nx or p.ny != ny:
                raise ValueError("arity mismatch: (%d,%d) vs (%d,%d)"
                                 % (p.nx, p.ny, nx, ny))
            for e, c in p.terms.items():
                terms[e] = terms.get(e, 0) + c
        return cls._of(nx, ny, {e: c for e, c in terms.items() if c})

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
        return Poly._of(self.nx, self.ny, terms)

    def __neg__(self):
        return Poly._of(self.nx, self.ny,
                        {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.nx, self.ny)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other, self.nx, self.ny) - self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly._of(self.nx, self.ny,
                            {e: c * other for e, c in self.terms.items()}
                            if other else {})
        self._check_compat(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                nc = terms.get(e, 0) + ca * cb
                if nc:
                    terms[e] = nc
                else:
                    del terms[e]
        self._check_exponents(terms)
        return Poly._of(self.nx, self.ny, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        try:
            checked_int("polynomial", "exponent", k, 0)
        except ValueError:
            raise ValueError("a Poly power needs an int exponent >= 0, not %r"
                             % (k,)) from None
        out = Poly.const(1, self.nx, self.ny)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
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
        # no term has an exponent outside 0..EXP_MAX; a wrong arity raises
        if (len(exp) == self.nx + self.ny
                and not all(0 <= a <= EXP_MAX for a in exp)):
            return 0
        return self.terms.get(self._key(exp), 0)

    def total_degree(self):
        return max(map(self._degree, self.terms), default=0)

    def min_degree(self):
        return min(map(self._degree, self.terms), default=0)

    def homogeneous_component(self, d):
        return Poly._of(self.nx, self.ny,
                        {e: c for e, c in self.terms.items()
                         if self._degree(e) == d})

    def lowest_degree_component(self):
        if not self.terms:
            return Poly(self.nx, self.ny)
        return self.homogeneous_component(self.min_degree())

    def max_x_index_used(self):
        """Largest i with x_i appearing (0 if none)."""
        used = 0
        for e in self.terms:
            used |= e
        return ((used & ((1 << 8 * self.nx) - 1)).bit_length() + 7) // 8

    # -- substitutions ---------------------------------------------------------

    def specialize_y_zero(self):
        """Set every y_j := 0, returning a pure-x polynomial."""
        limit = 1 << 8 * self.nx      # a key below it has no y exponent
        return Poly._of(self.nx, 0,
                        {e: c for e, c in self.terms.items() if e < limit})

    def restrict_arity(self, new_nx):
        """Change the x block to new_nx variables; shrinking it, no dropped
        variable may occur."""
        checked_int("polynomial", "nx", new_nx, 0)
        if new_nx < self.nx and self.max_x_index_used() > new_nx:
            raise ValueError("polynomial uses x beyond index %d" % new_nx)
        if not self.ny:
            return Poly._of(new_nx, 0, dict(self.terms))
        xs, old, new = (1 << 8 * self.nx) - 1, 8 * self.nx, 8 * new_nx
        return Poly._of(new_nx, self.ny,
                        {e & xs | e >> old << new: c
                         for e, c in self.terms.items()})

    def _relabel(self, nx, pos):
        """x_(j+1) := x_(pos[j]+1) for pos a permutation of range(m), in nx
        x variables and the y block after x_nx; no x beyond nx may occur."""
        src = list(range(nx))       # the new byte i is the old byte src[i]
        for j, p in enumerate(pos):
            src[p] = j
        # a zero byte read on top, picked twice, keeps pick's result a tuple
        width = self.nx + self.ny
        pick = itemgetter(*src, *range(self.nx, width), width, width)
        return Poly._of(nx, self.ny, {
            int.from_bytes(pick(e.to_bytes(width + 1, "little")), "little"): c
            for e, c in self.terms.items()})

    # -- divided differences -----------------------------------------------

    def _check_operator_index(self, i):
        if not 1 <= checked_int("polynomial", "operator index", i) < self.nx:
            raise ValueError("d_%d needs x_%d in scope" % (i, i + 1))

    def divided_difference(self, i):
        """d_i f = (f - s_i f) / (x_i - x_{i+1}), computed division-free."""
        self._check_operator_index(i)
        s = 8 * (i - 1)
        moves = {}      # bytes of x_i, x_{i+1} -> their `_step_masks`
        terms = {}
        for e, c in self.terms.items():
            pq = e >> s & 0xFFFF
            mv = moves.get(pq)
            if mv is None:
                mv = moves[pq] = _step_masks(s, pq)
            steps, _, negate = mv
            if negate:
                c = -c
            for step in steps:
                key = e ^ step
                nc = terms.get(key, 0) + c
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
        return Poly._of(self.nx, self.ny, terms)

    def isobaric_divided_difference(self, i):
        """pi_i f = d_i((1 - x_{i+1}) f), in one pass over f; idempotent."""
        self._check_operator_index(i)
        s = 8 * (i - 1)
        moves = {}      # bytes of x_i, x_{i+1} -> their `_step_masks`
        terms = {}
        for e, c in self.terms.items():
            pq = e >> s & 0xFFFF
            mv = moves.get(pq)
            if mv is None:
                mv = moves[pq] = _step_masks(s, pq)
            # c d_i(x_i^p x_{i+1}^q), then -c d_i(x_i^p x_{i+1}^(q+1)); the
            # two loops stay unrolled because a loop over both runs costs
            # about 10 % of this kernel
            first, second, negate = mv
            if negate:
                c = -c
            for step in first:
                key = e ^ step
                nc = terms.get(key, 0) + c
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
            c = -c
            for step in second:
                key = e ^ step
                nc = terms.get(key, 0) + c
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
        return Poly._of(self.nx, self.ny, terms)

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self, exact=True):
        """The terms in graded order: ascending total degree, then
        descending lex on the exponent tuple (x block first), so x1-heavy
        monomials print first.  The text and JSON forms write integers, so
        when `exact` a coefficient that is not one raises a ValueError
        naming its term."""
        terms = sorted(self.items(),
                       key=lambda ec: (sum(ec[0]), tuple(-v for v in ec[0])))
        for e, c in terms:
            if exact and c % 1:
                raise ValueError("polynomial term %r: the coefficient is not "
                                 "an integer" % ({"coeff": str(c),
                                                  "exp": list(e)},))
        return terms

    def _render(self, var, power, join, exact=True):
        """Terms in graded order, signs between them; `var` formats a
        variable from its letter and index, `power` an exponent above 1,
        and `join` sits between the factors of a term.  Without `exact`, a
        coefficient that is not an integer is written as a fraction."""
        names = ([var % ("x", i) for i in range(1, self.nx + 1)]
                 + [var % ("y", j) for j in range(1, self.ny + 1)])
        chunks = []
        for exp, c in self._sorted_terms(exact):
            mono = join.join(name + (power % a if a > 1 else "")
                             for name, a in zip(names, exp) if a)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s%s%s" % (abs(c), join, mono)
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
        nx, ny, raw = json_fields(text, "polynomial", "nx", "ny", "terms")
        terms = {}
        for t in raw:
            if not isinstance(t, dict) or not {"coeff", "exp"} <= t.keys():
                raise ValueError("polynomial term %r needs 'coeff' and 'exp'"
                                 % (t,))
            c = Fraction(t["coeff"])
            if c.denominator != 1:
                raise ValueError("polynomial term %r: the coefficient is not "
                                 "an integer" % (t,))
            terms[tuple(checked_int("polynomial", "exp", e)
                        for e in t["exp"])] = int(c)
        return cls(nx, ny, terms)

    def __str__(self):
        """`to_text`, but a coefficient that is not an integer is written
        as a fraction instead of refused."""
        return self._render("%s%d", "^%d", "*", exact=False)

    def __repr__(self):
        return "Poly(%s)" % (self,)


# -- symmetric functions -----------------------------------------------------


def elementary_symmetric(j, m, nx=None, ny=0):
    """e_j(x_1, ..., x_m) as a Poly of x-arity nx (default m); zero when
    j < 0 or j > m."""
    checked_int("elementary symmetric", "j", j)
    checked_int("elementary symmetric", "m", m, 0)
    nx, ny = _arity(m if nx is None else nx, ny)
    if m > nx:
        raise ValueError("e_%d(x_1..x_%d) needs nx >= %d, got %d"
                         % (j, m, m, nx))
    if j < 0 or j > m:
        return Poly(nx, ny)
    return Poly._of(nx, ny, {sum(1 << 8 * i for i in comb): 1
                             for comb in combinations(range(m), j)})


# -- memos --------------------------------------------------------------------


class _Memo(OrderedDict):
    """Values by key, least recently used first, a value weighing
    `weigh(value)`.  The keys not kept weigh at most `bound` in all, and a
    value heavier than that is not stored, unless `keep(key)`: a kept key
    is stored whatever its weight, never evicted, and not counted against
    the bound.  `info()` gives its entries, the weight they all hold (under
    the name `unit`), and its hits, misses and evictions since the last
    `clear()`."""

    def __init__(self, weigh, bound, unit="diagrams", keep=lambda key: False):
        super().__init__()
        self.weigh, self.bound, self.unit, self.keep = weigh, bound, unit, keep
        self.stats = dict.fromkeys((unit, "hits", "misses", "evictions"), 0)
        self.kept = 0               # the weight of the kept keys

    def info(self):
        return {"entries": len(self), **self.stats}

    def clear(self):
        super().clear()
        self.stats.update(dict.fromkeys(self.stats, 0))
        self.kept = 0

    def lookup(self, key):
        """The stored value of `key`, or None (a miss)."""
        found = self.get(key)
        if found is None:
            self.stats["misses"] += 1
        else:
            self.move_to_end(key)
            self.stats["hits"] += 1
        return found

    def store(self, key, found):
        """Store the value `found` under `key` if it fits or is kept, then
        evict the least recently used keys not kept while their weight
        passes the bound; return `found`."""
        stats, unit, weight = self.stats, self.unit, self.weigh(found)
        kept = self.keep(key)
        if weight <= self.bound or kept:
            self[key] = found
            stats[unit] += weight
            if kept:
                self.kept += weight
            while stats[unit] - self.kept > self.bound:
                old = next(filterfalse(self.keep, self), None)
                if old is None:
                    break
                stats[unit] -= self.weigh(self.pop(old))
                stats["evictions"] += 1
        return found


def _steps(p, q, top, lo, hi, s):
    """The masks whose xor takes the key of x_i^p x_{i+1}^q, x_i at bit s,
    to the keys of x_i^t x_{i+1}^(top-t) for t = lo..hi-1."""
    return tuple((p ^ t) << s | (q ^ top - t) << s + 8 for t in range(lo, hi))


# The step masks of the divided differences per (bit s of x_i, byte pair pq
# of x_i, x_{i+1}): at most MASK_MEMO masks in all.
MASK_MEMO = 100_000
_MASKS = _Memo(lambda mv: len(mv[0]) + len(mv[1]), MASK_MEMO, "masks")


def _step_masks(s, pq):
    """(the masks of d_i, the masks of the second sum of pi_i, negate) for
    the bytes pq = (p, q) of x_i, x_{i+1} at bit s.  d_i(x_i^p x_{i+1}^q)
    takes the first masks, pi_i both, the second with the opposite sign;
    `negate` is p <= q, which d_i reads as p < q since at p = q it has
    no masks."""
    key = (s, pq)
    mv = _MASKS.lookup(key)
    if mv is None:
        p, q = pq & 0xFF, pq >> 8
        mv = _MASKS.store(key, (
            _steps(p, q, p + q - 1, min(p, q), max(p, q), s),
            _steps(p, q, p + q, min(p, q + 1), max(p, q + 1), s), p <= q))
    return mv


# -- Schubert / Grothendieck --------------------------------------------------

# The computed polynomials per (one-line tuple, kind): the tops w0, which it
# keeps, and at most CACHE_TERMS terms besides.
CACHE_TERMS = 6_000_000
_CACHE = _Memo(lambda p: len(p.terms), CACHE_TERMS, "terms",
               lambda key: key[0] == tuple(range(len(key[0]), 0, -1)))


def cache_info():
    """The polynomial cache: its entries and their terms, and its hits,
    misses and evictions since the last `pipedreams.clear_caches()`.  A
    caller reads it to see whether a table of polynomials was served from
    the cache or evicted it, as `row_cache_info()` shows for the diagrams.
    A double polynomial made from its inverse's by the x, y swap is
    counted as one made by divided differences is.  The step masks' memo
    is not counted here; `mask_cache_info()` reports it."""
    return _CACHE.info()


def mask_cache_info():
    """The same report for the memo of the divided differences' step
    masks, whose weight is the masks it holds."""
    return _MASKS.info()


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
    hit = _CACHE.lookup((w.one_line, kind))
    if hit is not None:
        return hit
    n = w.n
    double = kind.endswith("d")
    k_theory = kind.startswith("G")

    # climb along first ascents until hitting a cached ancestor or the
    # longest element, or, for a double kind, a node whose inverse is
    # cached, taken by `_swap_xy`; then apply the operators back down,
    # caching as we go; the climb swaps entries of one-line tuples, because
    # swapping an ascent of a permutation gives a permutation again
    path = []                      # operator index used at each climb step
    keys = [w.one_line]            # permutations along the climb
    v = w.one_line
    w0 = tuple(range(n, 0, -1))
    cur = None
    while v != w0 and (v, kind) not in _CACHE:
        if double:
            mirror = (inverse_one_line(v), kind)
            if mirror in _CACHE:
                _CACHE.move_to_end(mirror)  # a use, not counted as a hit
                odd = (w.inversions() + len(path)) & 1      # l(v) is odd
                cur = _cache_put((v, kind), _swap_xy(
                    _CACHE[mirror], odd and not k_theory))
                break
        i = next(j for j in range(1, n) if v[j - 1] < v[j])
        path.append(i)
        v = v[:i - 1] + (v[i], v[i - 1]) + v[i + 1:]
        keys.append(v)
    if cur is None:
        cur = _CACHE.get((v, kind))
        if cur is None:
            cur = _cache_put((v, kind), _staircase(n, n, n if double else 0,
                                                   double, k_theory))
        else:
            _CACHE.move_to_end((v, kind))   # a use, not counted as a hit
    for idx in range(len(path) - 1, -1, -1):
        i = path[idx]
        cur = (cur.isobaric_divided_difference(i) if k_theory
               else cur.divided_difference(i))
        cur = _cache_put((keys[idx], kind), cur)
    return cur


def _swap_xy(p, negate):
    """p(y; x), negated if `negate`, for p in as many x as y variables."""
    shift = 8 * p.nx
    low = (1 << shift) - 1
    sign = -1 if negate else 1
    return Poly._of(p.nx, p.ny, {(e & low) << shift | e >> shift: sign * c
                                 for e, c in p.terms.items()})


def _cache_put(key, poly):
    """Cache a copy of a polynomial whose terms are a read-only view, as
    every caller shares it; return the copy."""
    return _CACHE.store(key, Poly._of(poly.nx, poly.ny,
                                      MappingProxyType(poly.terms)))


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


def _within_word(f, n):
    """f, once checked to use no x beyond x_n, the length of its word."""
    used = f.max_x_index_used()
    if used > n:
        raise AssertionError(
            "standardized polynomial uses x_%d beyond word length %d"
            % (used, n))
    return f


def _word_poly(word, base):
    """base(u) in word.n x variables with x_i := x_{sigma(i)}, for (u,
    sigma) = `convex_standardization` of the word, u a one-line tuple."""
    word = word if isinstance(word, Word) else Word(word)
    u, sigma = convex_standardization(word.letters, word.k)
    return _within_word(base(u), word.n)._relabel(word.n, sigma)


def schubert_of_word(word):
    """Schubert polynomial of a word: relabel the polynomial of the
    standardized convexification through the associated permutation."""
    return _word_poly(word, schubert)


def grothendieck_of_word(word):
    """Grothendieck polynomial of a word (same relabeling as Schubert)."""
    return _word_poly(word, grothendieck)


# -- Grassmannian expansions ---------------------------------------------------


class LemmaViolation(AssertionError):
    """Raised when a claimed elementary-symmetric expansion fails."""


def grassmannian_cycle(i, n):
    """The cycle (1, ..., i-1, i+1, ..., n, i) in S_n (skip i, append i)."""
    checked_int("Grassmannian cycle", "n", n, 1)
    if not 1 <= checked_int("Grassmannian cycle", "i", i) <= n:
        raise ValueError("Grassmannian cycle i: need 1 <= i <= n = %d, got %d"
                         % (n, i))
    one_line = [j for j in range(1, n + 1) if j != i] + [i]
    return Permutation(one_line)


def grassmannian_e_expansion(i, n):
    """Expand the Grothendieck polynomial of the cycle (1,..,i-1,i+1,..,n,i)
    in e_j(x_1..x_{n-1}).

    Returns {j: c_j} with j running over n-i..n-1; asserts c_{n-i} = 1 and
    strict sign alternation; raises LemmaViolation if the polynomial is not
    exactly such a combination (for this one-column shape, Lenart, Ann.
    Comb. 2000, gives c_j = (-1)^(j-d) C(j-1, d-1), d = n-i).  It is the
    certificate of I_G = I_e in ``rings.verify_rings``.
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
