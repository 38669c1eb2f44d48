"""The truncated ring S_{n,k} = Z[x_1..x_n]/(x_i^k) and machine verification
of the quotient-ring statements: the rank and freeness of R_{n,k}, the
equality of the elementary-symmetric ideal I_e with the ideal I_G cut out by
the special Grothendieck classes, and the fact that the Grothendieck (and
Schubert) classes of Fubini words form a Z-basis of the quotient.

The monomials of S_{n,k} are the k^n exponent vectors in [0, k-1]^n, ordered
lexicographically, so the index of a monomial is the base-k number whose n
digits are its exponents.  The ring (``SnkRing``, also ``snk_ring``) is the
value (n, k) and computes indices and exponents by that rule; it builds no
table and is refused past ``DESK_CEILING``.  An element (``SnkElement``) is
sparse: its ring plus the sorted (monomial index, coefficient) pairs of its
nonzero terms, with only the linear operations the verification needs (+, -,
negation, integer scaling).

Rank, freeness and the bases reduce to integer-lattice linear algebra in
Z^{k^n}: I_e becomes a row lattice via generator-times-monomial products.
``verify_rings`` builds that lattice once per (n, k) and proves I_G = I_e
with no lattice, by the e-expansion of the special classes in Z[x] (see its
docstring); the general ``ideals_equal`` compares two full lattices and is
the test oracle.  The lattice class, ``IntegerLattice``, lives in
``_lattice_py`` and is re-exported here.

The class of a Fubini word w is G_u relabelled by x_i := x_{sigma(i)}, where
u = std(conv(w)) and sigma is its associated permutation; ``verify_rings``
builds every Schubert class row of one (n, k) in one walk over the set
partitions of the positions into k blocks, and computes no Schubert
polynomial.  A partition fixes sigma for all k! words on it, and u is read
off the block sizes and the order of the letters, so no word is
standardized.  The Schubert row is the part of the Grothendieck class of
degree l(u), the inversion number of u, because:

- the lowest-degree part of G_u is S_u, of degree l(u) (Lascoux-
  Schuetzenberger; Fomin-Kirillov 1994): pi_i f = d_i f - d_i(x_{i+1} f),
  whose second summand is one degree higher, and the staircase tops agree;
- relabelling the variables by sigma keeps the degree of every term;
- projecting to S_{n,k} keeps or kills each term on its own exponents
  (every exponent < k), so it commutes with taking a homogeneous part.

``schubert_of_word``, ``grothendieck_of_word`` and ``_project_row`` remain
the oracle for these rows.  No lattice is built from them, and only their
leads are read: with the I_e Hermite rows, sorted by leading column, the
Schubert rows form a k^n x k^n unitriangular matrix, and the Grothendieck
rows differ from them only in higher degrees (proofs in ``verify_rings``).

The ideal rows m * g are read off boxes (``_ideal_rows``): for a term x^e of
g, the monomials m with m * x^e in S_{n,k} are those with m_p <= k-1-e_p at
each p, and since a monomial's index is the base-k number of its exponents,
the index of m * x^e is index(m) + index(x^e).  No product is formed only
to be thrown away.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations

from ._lattice_py import IntegerLattice
from .combinat import (Frozen, Permutation, Word, fubini_blocks, fubini_count,
                       standardized_runs)
from .poly import (LemmaViolation, _within_word, elementary_symmetric,
                   grassmannian_cycle, grassmannian_e_expansion, grothendieck,
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
    if not (type(n) is int and type(k) is int and 1 <= k <= n):
        raise ValueError(f"need integers 1 <= k <= n, got (n, k) = ({n}, {k})")


def _require_desk_scale(n, k):
    _require_shape(n, k)
    SnkRing(n, k)  # refuses k^n > DESK_CEILING


# -- the ring S_{n,k} ----------------------------------------------------------


class SnkRing(Frozen):
    """The ring S_{n,k} as the value (n, k).  Its monomials are the
    exponent vectors in [0, k-1]^n in lex order: the one with index i has
    the n base-k digits of i as its exponents, most significant first.

    Every check builds lattices with `dim` = k^n columns, so a ring past
    ``DESK_CEILING`` is refused.
    """

    __slots__ = _fields = ("n", "k")

    def __new__(cls, n, k):
        if not (type(n) is int and type(k) is int and n >= 1 and k >= 1):
            raise ValueError("need integers n >= 1, k >= 1")
        dim = k ** n
        if dim > DESK_CEILING:
            raise DeskScaleError(
                f"monomial basis size k^n = {dim} exceeds the desk-scale "
                f"ceiling of {DESK_CEILING}; refusing (n, k) = ({n}, {k})")
        return cls._of(n, k)

    @property
    def dim(self):
        return self.k ** self.n

    def index(self, exp):
        """The index of the monomial with exponents `exp`, or None when some
        exponent is >= k (the monomial is 0)."""
        i = 0
        for e in exp:
            if e >= self.k:
                return None
            i = i * self.k + e
        return i

    def monomial(self, i):
        """The exponents of the monomial with index i."""
        return tuple(i // self.k ** p % self.k for p in reversed(range(self.n)))

    def __repr__(self):
        return f"SnkRing(n={self.n}, k={self.k})"


snk_ring = SnkRing


class SnkElement(Frozen):
    """An element of S_{n,k}: its ring and the sorted sparse tuple of
    (monomial index, nonzero coefficient) pairs."""

    __slots__ = _fields = ("ring", "_items")

    def __new__(cls, ring, items):
        return cls._of(ring, tuple(items))

    def items(self):
        return list(self._items)

    def _plus(self, other, sign):
        if not isinstance(other, SnkElement):
            return NotImplemented
        if other.ring != self.ring:
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
    index = SnkRing(n, k).index
    nx = f.nx
    pad = (0,) * (n - min(n, nx))
    acc = {}
    for exp, coeff in f.items():
        if any(exp[nx:]):
            raise ValueError("polynomial must not involve the y-alphabet")
        if any(exp[n:nx]):
            bad = max(i + 1 for i, e in enumerate(exp[:nx]) if e and i >= n)
            raise ValueError(f"variable x{bad} out of range for n={n}")
        i = index(exp[:min(n, nx)] + pad)  # None: some exponent >= k
        if i is not None:
            acc[i] = acc.get(i, 0) + coeff
    return tuple(sorted((i, c) for i, c in acc.items() if c))


def project_to_snk(f, n, k):
    """Project a Poly in x_1..x_n onto S_{n,k}: kill monomials with an
    exponent >= k.  The y-alphabet must be unused.
    """
    return SnkElement(SnkRing(n, k), _project_row(f, n, k))


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


def k0_class_of_word(word):
    """The K-theory class of a word: its Grothendieck polynomial in S_{n,k}."""
    word = word if isinstance(word, Word) else Word(word)
    return project_to_snk(grothendieck_of_word(word), word.n, word.k)


def chow_class_of_word(word):
    """The Chow/cohomology class of a word: its Schubert polynomial in S_{n,k}."""
    word = word if isinstance(word, Word) else Word(word)
    return project_to_snk(schubert_of_word(word), word.n, word.k)


def _ideal_rows(n, k, generators):
    """The sorted distinct sparse rows m * g of S_{n,k}, over every monomial
    m and every generator g, that ``coinvariant_ideal_lattice`` stacks.

    A monomial index is the base-k number of its exponents, so for a term
    x^e of g with index i, the monomials m with m * x^e still in S_{n,k} form
    the box of exponents [0, k-1-e_p] at each p, and m * x^e has index
    index(m) + i.  Each term adds (index(m) + i, c) to the row of every m in
    its box; g's terms come in ascending index, so every row comes sorted.
    """
    ring = SnkRing(n, k)
    rows = set()
    for g in generators:
        if g.ring != ring:
            raise ValueError("generator does not live in S_{%d,%d}" % (n, k))
        row_of = defaultdict(list)
        for i, c in g._items:
            box = [0]
            for p, e in enumerate(ring.monomial(i)):
                step = k ** (n - 1 - p)
                box = [b + d * step for b in box for d in range(k - e)]
            for b in box:
                row_of[b].append((b + i, c))
        rows.update(map(tuple, row_of.values()))
    return sorted(rows)


def coinvariant_ideal_lattice(n, k, generators):
    """The ideal (generators) in S_{n,k} as a sublattice of Z^{k^n}: spanned
    by every monomial multiple of every generator (``_ideal_rows``).
    """
    _require_desk_scale(n, k)
    return IntegerLattice(SnkRing(n, k).dim, _ideal_rows(n, k, generators))


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


# -- basis verification ----------------------------------------------------------


def _surviving_terms(u, n, k):
    """The terms of G_u of degree l(u) that live in S_{n,k}, and whether
    some other surviving term of G_u has degree below l(u).  A term
    survives when every exponent is < k; it is kept as its coefficient and
    its positions, 0-based, each repeated by its exponent."""
    length = Permutation(u).inversions()
    lowest, below = [], False
    for exp, coeff in _within_word(grothendieck(u), n).items():
        exp = exp[:n]
        if max(exp) < k:
            degree = sum(exp)
            if degree == length:
                lowest.append((coeff, [j for j, e in enumerate(exp)
                                       for _ in range(e)]))
            elif degree < length:
                below = True
    return lowest, below


def _fubini_class_leads(n, k):
    """The leads of the S_{n,k} rows of the Schubert classes of the Fubini
    words of [k]^n, each its (column, coefficient) at its smallest column
    or None for an empty row, and whether the degree bound of
    ``verify_rings`` holds: no Grothendieck class has a term below the
    degree of its Schubert class.

    The leads come in the order of the walk: each set partition of
    ``fubini_blocks(n, k)``, times each order pi of [k] in
    ``itertools.permutations`` order, is the word with letter pi[b] on the
    b-th block.  The class of w is G_u relabelled by x_i := x_{sigma(i)};
    its Schubert row is the degree-l(u) part (module docstring).  The
    letters of w occur first in the order of its blocks, so sigma is the
    blocks one after another, shared by the k! words of one partition, and
    u depends only on pi and the block sizes (``standardized_runs``).  G_u
    is filtered once per u, and a surviving term's monomial index is one sum,
    by the base-k rule of ``SnkRing``: the exponent of x_i moves to place
    sigma(i), whose digit weighs k^(n-1-sigma(i)), counting places from 0.
    """
    orders = list(permutations(range(1, k + 1)))
    terms_of = {}                  # block sizes -> (terms, below) per order
    leads = []
    for blocks in fubini_blocks(n, k):
        sizes = tuple(map(len, blocks))
        if sizes not in terms_of:
            terms_of[sizes] = [_surviving_terms(standardized_runs(pi, sizes, k),
                                                n, k) for pi in orders]
        weight = [k ** (n - 1 - p)
                  for block in blocks for p in block].__getitem__
        for terms, _ in terms_of[sizes]:
            leads.append(min([(sum(map(weight, at)), coeff)
                              for coeff, at in terms], default=None))
    bounded = not any(below for per_order in terms_of.values()
                      for _, below in per_order)
    return leads, bounded


def _certificate_failure(pivots, leads, dim, expected):
    """What breaks certificate (b) of ``verify_rings`` for the I_e pivots
    {column: value} and the `leads` of the class rows, or None; a row is
    named by its place in `leads`."""
    lead_of = {}                   # leading column -> its class row
    for i, lead in enumerate(leads):
        if lead is None:
            return f"class row {i} is empty"
        c, v = lead
        if v not in (1, -1):
            return f"class row {i} leads at column {c} with {v}"
        if c in pivots:
            return f"class row {i} leads at column {c}, an I_e pivot column"
        if c in lead_of:
            return (f"class row {i} leads at column {c}, as class row "
                    f"{lead_of[c]} does")
        lead_of[c] = i
    c = next((c for c, v in pivots.items() if v != 1), None)
    if c is not None:
        return f"the I_e pivot at column {c} is {pivots[c]}"
    if len(pivots) + len(lead_of) < dim:   # distinct leads, off the pivots
        c = next(c for c in range(dim) if c not in pivots and c not in lead_of)
        return f"column {c} is no I_e pivot and leads no class row"
    if len(leads) != expected:
        return f"{len(leads)} class rows for {expected} expected"
    return None


def _basis_report(n, k, ideal, torsion_free):
    """The Schubert basis by certificate (b) of ``verify_rings``, and the
    Grothendieck basis by its certificate (c)."""
    leads, bounded = _fubini_class_leads(n, k)
    expected = fubini_count(n, k)
    dim = k ** n
    failure = _certificate_failure(dict(ideal.pivot_items()), leads, dim,
                                   expected)
    schubert = {"stacked_rank": dim, "full_rank": True, "unimodular": True,
                "offending_invariant": None, "count": len(leads),
                "expected": expected, "basis": failure is None}
    if failure:                    # no rank computed
        schubert.update(stacked_rank=None, full_rank=None, unimodular=None,
                        failure=failure)
    report = {
        "n": n,
        "k": k,
        "expected": expected,
        "ideal_rank": ideal.rank,
        "quotient_rank": dim - ideal.rank,
        "torsion_free": torsion_free,
        "grothendieck": {
            "certificate": "degree-unitriangular over the Schubert basis",
            "degree_bound": bounded,
            "count": len(leads),
            "expected": expected,
            "basis": schubert["basis"] and bounded,
        },
        "schubert": schubert,
    }
    report["basis"] = (report["torsion_free"]
                       and report["quotient_rank"] == expected
                       and report["grothendieck"]["basis"]
                       and report["schubert"]["basis"])
    return report


def verify_grothendieck_basis(n, k):
    """Check that the Fubini Grothendieck classes form a Z-basis of
    S_{n,k}/(e_{n-k+1..n}), and likewise the Fubini Schubert classes.

    Returns a report dict; raises BasisFailure if either check fails.  Its
    "schubert" part reports certificate (b) of ``verify_rings``, which
    proves that the Schubert rows stacked on I_e span Z^{k^n} with unit
    pivots: "stacked_rank", "full_rank", "unimodular" and
    "offending_invariant" are k^n, True, True and None, or all None if (b)
    fails, and then "failure" names the class row (its place in
    ``_fubini_class_leads``) or the column at fault; "count", "expected" and
    "basis" follow.  Its "grothendieck" part reports certificate (c):
    "certificate" names it, "degree_bound" is its check (no surviving term
    of G_u below l(u)), and "count", "expected" and "basis" are as above.
    """
    _require_desk_scale(n, k)
    ideal = _elementary_ideal(n, k)
    report = _basis_report(n, k, ideal, ideal.is_torsion_free())
    if not report["basis"]:
        why = [report["schubert"].get("failure")]
        if not report["grothendieck"]["degree_bound"]:
            why.append("some G_u has a surviving term below l(u)")
        why = "; ".join(filter(None, why))
        raise BasisFailure(
            f"basis verification failed at (n, k) = ({n}, {k}); {why}",
            report)
    return report


def verify_rings(n, k):
    """The full ring-verification bundle for one (n, k); JSON-friendly.

    Builds the I_e lattice once and derives the rank and freeness of
    R_{n,k} and the Fubini Grothendieck and Schubert bases from it.
    ``ideal_equal`` is I_G = I_e for the special Grothendieck classes
    g_i = G_{v_i}, i = 1, .., k, of ``grothendieck_ideal_generators``, v_i
    the cycle (1, .., i-1, i+1, .., n+1, i) of S_{n+1}.  It needs no lattice
    and no membership test; it holds once

    (a) for each i, ``grassmannian_e_expansion(i, n + 1)`` writes g_i in
        Z[x_1..x_n] as e_{n+1-i} + sum_{j > n+1-i} c_j e_j, c_j in Z.

    Proof.  Each e_j with n+1-i < j <= n is e_{n+1-i'} for some i' < i, so
    the matrix taking (e_{n+1-i})_i to (g_i)_i is unitriangular over Z;
    so both families generate the same ideal of Z[x_1..x_n], and so their
    images generate the same ideal of S_{n,k}, because projection is a
    ring map.  This holds for every (n, k).  If (a) fails
    (``LemmaViolation``), ``ideal_equal`` is False and so is ``ok``: the
    certificate is sufficient, and a failure is reported, not re-decided
    by another route.  The general ``ideals_equal`` is the test oracle.

    The Schubert rows are the degree-l(u) parts of the Grothendieck
    classes (module docstring), so no Schubert polynomial is computed; only
    their leads are read, in one walk over the set partitions of the n
    positions into k blocks (``_fubini_class_leads``).  No lattice is built
    from them; ``schubert_basis`` holds once there are k! S(n,k) rows and

    (b) each row leads with +-1 at its smallest column, no two at one
        column and none at a pivot column of the I_e Hermite form, every
        I_e pivot is 1, and rank(I_e) + #rows = k^n.

    Proof.  Then every column leads exactly one I_e Hermite row or class
    row, so these k^n rows, sorted by leading column, form a unitriangular
    matrix (+-1 on the diagonal): a Z-basis of Z^{k^n}.  So the class rows
    span a complement of I_e and are a Z-basis of R_{n,k}.  Each part of
    (b) is computed, in one pass over the leads and the pivots; that (b)
    holds, i.e. that the leads fill the non-pivot columns, is only observed
    (every lead is +1 at the 32 desk-scale pairs and at (8,3), (9,3), (7,4)
    and (6,5)), not proved.  It is sufficient, not necessary: if it fails,
    ``schubert_basis`` and ``ok`` are False, not decided again by another
    route.

    ``grothendieck_basis`` needs no lattice of its own.  There is one
    Grothendieck class per Schubert row, so the Schubert check counts both;
    the Grothendieck basis holds once the Schubert basis holds and

    (c) no term of any G_u that survives in S_{n,k} has degree < l(u).

    Proof.  I_e is spanned by homogeneous rows, so R = R_{n,k} is the direct
    sum of its homogeneous parts R_d.  The s_w are homogeneous and form a
    Z-basis of R, so {s_w : deg s_w = d} is a Z-basis of R_d: write r in
    R_d in the s_w and keep the degree-d parts.  By (c), g_w = s_w + (parts
    of degree > l(u)), since relabelling and projection keep the degree of
    every term.  Each part of degree D > l(u) is a Z-combination of the s_v
    of degree D.  So, with the words in order of degree, the matrix taking
    the s_w to the g_w is unitriangular, and the g_w form a Z-basis too.

    If (c) fails, ``grothendieck_basis`` is False and so is ``ok``; as for
    ``ideal_equal``, it is not decided again by another route.  Stacking
    the Schubert or the Grothendieck rows on I_e is the test oracle.
    """
    _require_desk_scale(n, k)
    ideal = _elementary_ideal(n, k)
    rank, free_report = _rank_report(n, k, ideal)
    try:
        for i in range(1, k + 1):
            grassmannian_e_expansion(i, n + 1)
        equal = True
    except LemmaViolation:
        equal = False
    free = free_report["torsion_free"]
    basis_report = _basis_report(n, k, ideal, free)
    report = {
        "n": n,
        "k": k,
        "rank": rank,
        "expected": free_report["expected"],
        "torsion_free": free,
        "ideal_equal": equal,
        "grothendieck_basis": free and basis_report["grothendieck"]["basis"],
        "schubert_basis": free and basis_report["schubert"]["basis"],
    }
    report["ok"] = (report["rank"] == report["expected"]
                    and report["torsion_free"] and report["ideal_equal"]
                    and report["grothendieck_basis"] and report["schubert_basis"])
    return report


def desk_scale_pairs():
    """All (n, k) with 1 <= k <= n <= 12 and k^n <= DESK_CEILING.

    The n <= 12 cap exists because the k = 1 column is otherwise unbounded
    (1^n = 1 for every n); for k >= 2 the ceiling itself forces n <= 12.
    """
    return [(n, k)
            for n in range(1, 13)
            for k in range(1, n + 1)
            if k ** n <= DESK_CEILING]
