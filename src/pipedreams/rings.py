"""The truncated ring S_{n,k} = Z[x_1..x_n]/(x_i^k) and machine verification
of the quotient-ring statements: the rank and freeness of R_{n,k}, the
equality of the elementary-symmetric ideal I_e with the ideal I_G cut out by
the special Grothendieck classes, and the fact that the Grothendieck (and
Schubert) classes of Fubini words form a Z-basis of the quotient.

The monomials of S_{n,k} are the k^n exponent vectors in [0, k-1]^n, ordered
lexicographically (``SnkRing``, refused past ``DESK_CEILING``).  An element
(``SnkElement``) is sparse: its ring plus the sorted (monomial index,
coefficient) pairs of its nonzero terms, with only the linear operations the
verification needs (+, -, negation, integer scaling).

Rank, freeness and the bases reduce to integer-lattice linear algebra in
Z^{k^n}: I_e becomes a row lattice via generator-times-monomial products.
``verify_rings`` builds that lattice once per (n, k) and proves I_G = I_e by
a graded Nakayama certificate (see its docstring) that needs only k
membership tests, not a lattice for I_G; the general ``ideals_equal``
compares two full lattices.  The lattice class, ``IntegerLattice``, lives in
``_lattice_py`` and is re-exported here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add

from ._lattice_py import IntegerLattice
from .combinat import Word, enumerate_fubini, fubini_count
from .poly import (elementary_symmetric, grassmannian_cycle, grothendieck,
                   grothendieck_of_word, schubert_of_word)

#: Largest monomial-basis size the verification routines will attempt.
DESK_CEILING = 5000


class DeskScaleError(ValueError):
    """The requested (n, k) exceeds the documented desk-scale ceiling."""


class BasisFailure(RuntimeError):
    """A claimed Z-basis failed verification; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _require_shape(n, k):
    if not (isinstance(n, int) and isinstance(k, int) and 1 <= k <= n):
        raise ValueError(f"need integers 1 <= k <= n, got (n, k) = ({n}, {k})")


def _require_desk_scale(n, k):
    _require_shape(n, k)
    snk_ring(n, k)  # refuses k^n > DESK_CEILING


# -- the ring S_{n,k} ----------------------------------------------------------


@lru_cache(maxsize=None)
def snk_ring(n, k):
    if not (isinstance(n, int) and isinstance(k, int) and n >= 1 and k >= 1):
        raise ValueError("need integers n >= 1, k >= 1")
    return SnkRing(n, k)


class SnkRing:
    """The monomial basis of S_{n,k}: exponent vectors in [0,k-1]^n, lex order.

    The table holds all k^n monomials, so it is refused past ``DESK_CEILING``.
    """

    __slots__ = ("n", "k", "dim", "monomials", "index")

    def __init__(self, n, k):
        self.dim = k ** n
        if self.dim > DESK_CEILING:
            raise DeskScaleError(
                f"monomial basis size k^n = {self.dim} exceeds the desk-scale "
                f"ceiling of {DESK_CEILING}; refusing (n, k) = ({n}, {k})")
        self.n = n
        self.k = k
        self.monomials = list(itertools.product(range(k), repeat=n))
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __repr__(self):
        return f"SnkRing(n={self.n}, k={self.k})"


class SnkElement:
    """An element of S_{n,k}: its ring and the sorted sparse tuple of
    (monomial index, nonzero coefficient) pairs."""

    __slots__ = ("ring", "_items")

    def __init__(self, ring, items):
        self.ring = ring
        self._items = tuple(items)

    def items(self):
        return list(self._items)

    def __eq__(self, other):
        if not isinstance(other, SnkElement):
            return NotImplemented
        return self.ring is other.ring and self._items == other._items

    __hash__ = None

    def _plus(self, other, sign):
        if not isinstance(other, SnkElement):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("elements live in different rings")
        acc = dict(self._items)
        for i, c in other._items:
            acc[i] = acc.get(i, 0) + sign * c
        return SnkElement(self.ring, sorted((i, c) for i, c in acc.items() if c))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return SnkElement(self.ring, [(i, -c) for i, c in self._items])

    def __rmul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return SnkElement(self.ring,
                          [(i, other * c) for i, c in self._items if other])

    def __repr__(self):
        return f"<SnkElement {self.ring!r}, {len(self._items)} terms>"


def _project_row(f, n, k):
    """The image of a Poly in x_1..x_n in S_{n,k} as a sorted sparse row of
    (monomial index, nonzero coefficient) pairs.  Monomials with an exponent
    >= k die; the cost follows the terms of f, not k^n.
    """
    index = snk_ring(n, k).index
    nx = f.nx
    pad = (0,) * (n - min(n, nx))
    acc = {}
    for exp, coeff in f.terms.items():
        if any(exp[nx:]):
            raise ValueError("polynomial must not involve the y-alphabet")
        if any(exp[n:nx]):
            bad = max(i + 1 for i, e in enumerate(exp[:nx]) if e and i >= n)
            raise ValueError(f"variable x{bad} out of range for n={n}")
        i = index.get(exp[:min(n, nx)] + pad)  # None: some exponent >= k
        if i is not None:
            acc[i] = acc.get(i, 0) + coeff
    return tuple(sorted((i, c) for i, c in acc.items() if c))


def project_to_snk(f, n, k):
    """Project a Poly in x_1..x_n onto S_{n,k}: kill monomials with an
    exponent >= k.  The y-alphabet must be unused.
    """
    return SnkElement(snk_ring(n, k), _project_row(f, n, k))


# -- integer lattices ----------------------------------------------------------


def hnf(rows):
    """Hermite normal form of a list of dense integer rows."""
    return IntegerLattice.from_dense_rows(rows)


def snf_invariants(lattice):
    """Smith invariant factors of an IntegerLattice."""
    return lattice.snf_invariants()


# -- ideals and classes in S_{n,k} ----------------------------------------------


def elementary_ideal_generators(n, k):
    """Images in S_{n,k} of e_{n-k+1}, ..., e_n (ascending degree)."""
    _require_shape(n, k)
    return [project_to_snk(elementary_symmetric(j, n), n, k)
            for j in range(n - k + 1, n + 1)]


def grothendieck_ideal_generators(n, k):
    """Images in S_{n,k} of the special Grothendieck classes.

    One generator per missing letter i in [k]: the Grothendieck polynomial of
    the cycle (1, .., i-1, i+1, .., n+1, i) in S_{n+1}, whose lowest term is
    e_{n+1-i}(x_1..x_n).  Together their lowest terms sweep e_{n-k+1}, .., e_n.
    """
    _require_shape(n, k)
    out = []
    for i in range(1, k + 1):
        v = grassmannian_cycle(i, n + 1)
        g = grothendieck(v).restrict_arity(n)
        out.append(project_to_snk(g, n, k))
    return out


def special_nonfubini_word(i, n, k):
    """The non-Fubini word missing the letter i whose Grothendieck polynomial
    is the i-th special ideal generator: 1, 2, .., i-1, i+1, .., k padded to
    length n with copies of its last letter.
    """
    _require_shape(n, k)
    if k == 1:
        raise ValueError("every word over a one-letter alphabet is Fubini")
    if not 1 <= i <= k:
        raise ValueError(f"missing letter must lie in [k]=[{k}]")
    prefix = [j for j in range(1, k + 1) if j != i]
    return Word(prefix + [prefix[-1]] * (n - k + 1), k=k)


def k0_class_of_word(word):
    """The K-theory class of a word: its Grothendieck polynomial in S_{n,k}."""
    word = word if isinstance(word, Word) else Word(word)
    return project_to_snk(grothendieck_of_word(word), word.n, word.k)


def chow_class_of_word(word):
    """The Chow/cohomology class of a word: its Schubert polynomial in S_{n,k}."""
    word = word if isinstance(word, Word) else Word(word)
    return project_to_snk(schubert_of_word(word), word.n, word.k)


def coinvariant_ideal_lattice(n, k, generators):
    """The ideal (generators) in S_{n,k} as a sublattice of Z^{k^n}: spanned
    by every monomial multiple of every generator.
    """
    _require_desk_scale(n, k)
    ring = snk_ring(n, k)
    index = ring.index
    rows = set()
    for g in generators:
        if g.ring is not ring:
            raise ValueError("generator does not live in S_{%d,%d}" % (n, k))
        gitems = [(ring.monomials[i], c) for i, c in g.items()]
        if not gitems:
            continue
        for m in ring.monomials:
            row = []
            for exp, coeff in gitems:
                i = index.get(tuple(map(add, exp, m)))  # None: x_j^k = 0
                if i is not None:
                    row.append((i, coeff))
            if row:
                row.sort()
                rows.add(tuple(row))
    return IntegerLattice(ring.dim, sorted(rows))


def _elementary_ideal(n, k):
    """The I_e lattice of S_{n,k}."""
    return coinvariant_ideal_lattice(n, k, elementary_ideal_generators(n, k))


def _rank_report(n, k, ideal):
    rank = k ** n - ideal.rank
    report = {
        "n": n,
        "k": k,
        "rank": rank,
        "expected": fubini_count(n, k),
        "ideal_rank": ideal.rank,
        "torsion_free": ideal.is_torsion_free(),
        "nontrivial_pivots": sorted({v for v in ideal.pivot_values() if v != 1}),
    }
    return rank, report


def rnk_rank(n, k):
    """Rank of R_{n,k} = S_{n,k}/(e_{n-k+1..n}) plus a freeness report."""
    _require_desk_scale(n, k)
    return _rank_report(n, k, _elementary_ideal(n, k))


def ideals_equal(n, k, gens1, gens2):
    """Do two generator lists cut out the same ideal lattice in S_{n,k}?"""
    _require_desk_scale(n, k)
    return (coinvariant_ideal_lattice(n, k, gens1)
            == coinvariant_ideal_lattice(n, k, gens2))


def _certify_ideal_equal(ideal, e_gens, g_gens):
    """The graded Nakayama certificate that (g_gens) = I_e (proof in
    ``verify_rings``).  `ideal` is the I_e lattice, `e_gens` the images of
    e_{n-k+1}, .., e_n and `g_gens` the k G-generators in the order of
    ``grothendieck_ideal_generators``, so g_gens[i - 1] pairs with e_{n+1-i}.
    """
    ring = e_gens[0].ring
    low = ring.n - ring.k + 1
    for d, e, g in zip(range(low, ring.n + 1), e_gens, reversed(g_gens),
                       strict=True):
        if any(sum(ring.monomials[i]) <= d for i, _ in (g - e).items()):
            return False
    return all(ideal.contains(g) for g in g_gens)


# -- basis verification ----------------------------------------------------------


def _class_rows(words, poly_of_word):
    """Sparse S_{n,k} rows of the classes of `words` (all of one shape)."""
    return [_project_row(poly_of_word(w), w.n, w.k) for w in words]


def _basis_check(ideal, class_rows, dim, expected):
    """Stack class rows on the ideal and test that they span Z^dim freely."""
    class_rows = sorted(class_rows,
                        key=lambda r: (r[0][0] if r else dim, len(r)))
    stacked = IntegerLattice(dim, ideal._pivot_rows() + tuple(class_rows))
    offending = next((v for v in stacked.pivot_values() if v != 1), None)
    return {
        "stacked_rank": stacked.rank,
        "full_rank": stacked.rank == dim,
        "unimodular": offending is None,
        "offending_invariant": offending,
        "count": len(class_rows),
        "expected": expected,
        "basis": (stacked.rank == dim and offending is None
                  and len(class_rows) == expected
                  and ideal.rank + expected == dim),
    }


def _basis_report(n, k, ideal, torsion_free):
    words = [Word(u, k=k) for u in enumerate_fubini(n, k)]
    expected = fubini_count(n, k)
    dim = k ** n
    report = {
        "n": n,
        "k": k,
        "expected": expected,
        "ideal_rank": ideal.rank,
        "quotient_rank": dim - ideal.rank,
        "torsion_free": torsion_free,
        "grothendieck": _basis_check(
            ideal, _class_rows(words, grothendieck_of_word), dim, expected),
        "schubert": _basis_check(
            ideal, _class_rows(words, schubert_of_word), dim, expected),
    }
    report["basis"] = (report["torsion_free"]
                       and report["quotient_rank"] == expected
                       and report["grothendieck"]["basis"]
                       and report["schubert"]["basis"])
    return report


def verify_grothendieck_basis(n, k):
    """Check that the Fubini Grothendieck classes form a Z-basis of
    S_{n,k}/(e_{n-k+1..n}), and likewise the Fubini Schubert classes.

    Returns a report dict; raises BasisFailure if either check fails.
    """
    _require_desk_scale(n, k)
    ideal = _elementary_ideal(n, k)
    report = _basis_report(n, k, ideal, ideal.is_torsion_free())
    if not report["basis"]:
        bad = (report["grothendieck"]["offending_invariant"]
               or report["schubert"]["offending_invariant"])
        raise BasisFailure(
            f"basis verification failed at (n, k) = ({n}, {k}); "
            f"offending invariant: {bad!r}", report)
    return report


def verify_rings(n, k):
    """The full ring-verification bundle for one (n, k); JSON-friendly.

    Builds the I_e lattice once and derives every check from it: the rank
    and freeness of R_{n,k}, the Fubini Grothendieck and Schubert bases, and
    ``ideal_equal``, which is I_G = I_e for the special Grothendieck classes
    g_1, .., g_k of ``grothendieck_ideal_generators``.  The last needs no
    lattice for I_G; it holds once two checks pass:

    (a) for each d = n-k+1, .., n, the difference h_d = g_{n+1-d} - e_d has
        no term of degree <= d in S_{n,k};
    (b) each g_i lies in I_e (k membership tests: I_e is an ideal, so it
        then holds every monomial multiple of g_i, hence I_G <= I_e).

    Proof that I_e <= I_G.  Write m = (x_1, .., x_n).  By (a) and (b), h_d
    lies in I_e, in degrees > d.  I_e is homogeneous, so each homogeneous
    component of h_d of degree D is a sum of e_j times forms of degree
    D - j: terms with j < D lie in m I_e, and the term with j = D is an
    integer multiple of e_D, with D > d.  Descending induction on d (h_n
    lies in m I_e outright) puts every e_D with D > d, hence h_d, hence
    e_d = g_{n+1-d} - h_d, in I_G + m I_e.  So I_e = I_G + m I_e, and
    iterating gives I_e = I_G + m^N I_e for every N.  Every monomial of
    degree > n(k-1) has an exponent >= k, so m^{n(k-1)+1} = 0 in S_{n,k},
    and I_e = I_G over Z.

    If (a) or (b) fails, ``ideal_equal`` is False and so is ``ok``: the
    certificate is sufficient, and a failure is reported, not re-decided
    by another route.  The general ``ideals_equal`` stays available as an
    independent oracle.
    """
    _require_desk_scale(n, k)
    e_gens = elementary_ideal_generators(n, k)
    ideal = coinvariant_ideal_lattice(n, k, e_gens)
    rank, free_report = _rank_report(n, k, ideal)
    equal = _certify_ideal_equal(ideal, e_gens,
                                 grothendieck_ideal_generators(n, k))
    basis_report = _basis_report(n, k, ideal, free_report["torsion_free"])
    basis_ok = basis_report["basis"]
    report = {
        "n": n,
        "k": k,
        "rank": rank,
        "expected": free_report["expected"],
        "torsion_free": free_report["torsion_free"],
        "ideal_equal": equal,
        "grothendieck_basis": basis_ok and basis_report["grothendieck"]["basis"],
        "schubert_basis": basis_ok and basis_report["schubert"]["basis"],
    }
    report["ok"] = (report["rank"] == report["expected"]
                    and report["torsion_free"] and report["ideal_equal"]
                    and report["grothendieck_basis"] and report["schubert_basis"])
    return report


def desk_scale_pairs(ceiling=DESK_CEILING, n_max=12):
    """All (n, k) with 1 <= k <= n <= n_max and k^n <= ceiling.

    The n_max cap exists because the k = 1 column is otherwise unbounded
    (1^n = 1 for every n); for k >= 2 the ceiling itself forces n <= 12.
    """
    return [(n, k)
            for n in range(1, n_max + 1)
            for k in range(1, n + 1)
            if k ** n <= ceiling]
