"""Integer lattices in exact (Python-integer) arithmetic.

``IntegerLattice`` is a sublattice of Z^ncols held in row Hermite normal form
(HNF) and built from sparse rows; it answers rank, membership, equality,
Smith invariants and freeness of the quotient.  ``rings`` re-exports it: its
ideals of S_{n,k} are lattices in Z^{k^n}.  There is one elimination loop,
``IntegerLattice._reduce``: inserting a row reduces it, membership is "the
row reduces to nothing", torsion is read off the Smith invariants, and
``rank_mod_p`` is the count of unit pivots of the lattice the rows span
together with p Z^ncols, for a prime p.

Rows are sparse: iterables of ``(column, value)`` pairs of ints with
``0 <= column < ncols``.  Duplicate columns are merged by addition.  One
reader, ``_sparse_row``, takes in every row, and refuses a column or value
that is not an int by name.

Coefficient growth is controlled pivot-bounded style: whenever a row is
inserted or a pivot row is rewritten, its entries at existing pivot columns
are immediately reduced modulo the corresponding pivot values, so entries at
pivot columns stay in ``[0, pivot)`` throughout.
"""

from __future__ import annotations

import math
import operator

from .combinat import checked_int, checked_prime


def xgcd(a, b):
    """Return ``(g, x, y)`` with ``g = gcd(a, b) = a*x + b*y`` and ``g >= 0``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntegerLattice:
    """A sublattice of Z^ncols held in row Hermite normal form, built from
    sparse rows.

    State is a set of pivot rows, one per pivot column, each row's leading
    (leftmost nonzero) entry positive and sitting at its pivot column.
    ``canonical_rows`` additionally reduces every entry above a pivot into
    ``[0, pivot)``, which makes the row set the canonical HNF.
    """

    __slots__ = ("ncols", "_piv", "_canonical")

    #: Read by the layer tracer in ``perfbench``; delete it when the benchmark
    #: drops its kernel metrics (ROADMAP item 1).
    kernel_name = "pure"

    def __init__(self, ncols, sparse_rows):
        self.ncols = checked_int("lattice", "ncols", ncols, 0)
        self._piv = {}  # leading column -> sparse row {col: nonzero int}
        self._canonical = True
        for items in sparse_rows:
            self._add_row(items)

    @classmethod
    def from_dense_rows(cls, rows):
        """The lattice spanned by dense rows of equal width.  An entry is an
        integer of any type with ``__index__`` (a sympy or numpy integer
        too), but not a bool or a float."""
        rows = [list(map(_dense_entry, r)) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("rows must have equal width")
        ncols = widths.pop() if widths else 0
        return cls(ncols, [[(j, v) for j, v in enumerate(r) if v] for r in rows])

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _axpy(row, coef, src):
        """row += coef * src, dropping zeros."""
        for c, v in src.items():
            nv = row.get(c, 0) + coef * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)

    def _reduce_at_pivots(self, row, skip):
        """Reduce row's entries at pivot columns (except ``skip``) into [0, pivot)."""
        while True:
            bad = sorted(
                c
                for c, v in row.items()
                if c != skip and c in self._piv and not 0 <= v < self._piv[c][c]
            )
            if not bad:
                return
            for c in bad:
                piv = self._piv[c]
                if c in row:
                    q = row[c] // piv[c]
                    if q:
                        self._axpy(row, -q, piv)

    def _reduce(self, row):
        """Subtract pivot rows from `row` in place, bringing its leading entry
        into [0, pivot), while that clears it; return what is left: nothing,
        or a row led by a column with no pivot or by an entry in (0, pivot)."""
        while row:
            c = min(row)
            piv = self._piv.get(c)
            if piv is None:
                return row
            q = row[c] // piv[c]
            if q:
                self._axpy(row, -q, piv)
            if c in row:
                return row
        return row

    def _add_row(self, items):
        """Fold one sparse row into the form."""
        row = self._reduce(_sparse_row(items, self.ncols))
        while row:
            c = min(row)
            piv = self._piv.get(c)
            if piv is None:
                if row[c] < 0:
                    row = {cc: -vv for cc, vv in row.items()}
                self._reduce_at_pivots(row, c)
                self._piv[c] = row
                self._canonical = False
                return
            # gcd step: pivot value shrinks to g, remainder row leaves column c
            rem = row[c]
            g, x, y = xgcd(piv[c], rem)
            cols = set(piv) | set(row)
            newp = {}
            newr = {}
            a, b = piv[c] // g, rem // g
            for cc in cols:
                pv = piv.get(cc, 0)
                rv = row.get(cc, 0)
                v = x * pv + y * rv
                if v:
                    newp[cc] = v
                v = a * rv - b * pv
                if v:
                    newr[cc] = v
            self._reduce_at_pivots(newp, c)
            self._piv[c] = newp
            self._canonical = False
            row = self._reduce(newr)

    def _pivot_rows(self):
        """The current basis rows as sorted sparse tuples, by pivot column."""
        return tuple(
            tuple(sorted(self._piv[c].items())) for c in sorted(self._piv)
        )

    # -- queries -----------------------------------------------------------

    @property
    def rank(self):
        return len(self._piv)

    def pivot_items(self):
        """Sorted ``(column, pivot value)`` pairs."""
        return [(c, self._piv[c][c]) for c in sorted(self._piv)]

    def pivot_values(self):
        return [v for _, v in self.pivot_items()]

    def canonical_rows(self):
        """Canonical sparse HNF rows, sorted by pivot column."""
        if not self._canonical:
            cols = sorted(self._piv)
            for i, c in enumerate(cols):
                piv = self._piv[c]
                for c2 in cols[:i]:  # only rows with earlier pivot can touch column c
                    r = self._piv[c2]
                    if c in r:
                        q = r[c] // piv[c]
                        if q:
                            self._axpy(r, -q, piv)
            self._canonical = True
        return self._pivot_rows()

    def contains_row(self, items):
        """Membership test: does the sparse row lie in the lattice?"""
        return not self._reduce(_sparse_row(items, self.ncols))

    def contains(self, element):
        return self.contains_row(element.items())

    def __eq__(self, other):
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        # the canonical HNF of a lattice is unique
        return (self.ncols == other.ncols
                and self.canonical_rows() == other.canonical_rows())

    __hash__ = None

    def snf_invariants(self):
        """Smith invariant factors d1 | d2 | ..., the nonzero ones only, in
        ascending order.

        When every pivot is 1 the pivot minor is 1, so every invariant is 1.
        Otherwise the Hermite forms of the rows and of the columns alternate
        (Kannan and Bachem, SIAM J. Comput. 8, 1979) until every row holds
        only its pivot.  This ends: from the second round on, the form M is
        square, upper-triangular and of full rank.  The first pivot of the
        next round is the gcd of M's first row, so it is at most M's first
        pivot d.  If it is smaller, d strictly decreased; if it equals d,
        then d divides that row, so row and column 1 clear and stay clear,
        and the argument recurses on the rest.  The diagonal is then made
        to divide down: (d_i, d_j) := (gcd, lcm) for i < j, over the
        diagonal entries other than 1, which a unit block leaves as they
        are.
        """
        if all(r[c] == 1 for c, r in self._piv.items()):
            return (1,) * self.rank
        rows = self.canonical_rows()
        while any(len(r) > 1 for r in rows):
            columns = {}
            for i, r in enumerate(rows):
                for c, v in r:
                    columns.setdefault(c, []).append((i, v))
            rows = IntegerLattice(len(rows), columns.values()).canonical_rows()
        d = [r[0][1] for r in rows if r[0][1] != 1]
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
        return (1,) * (len(rows) - len(d)) + tuple(d)

    def is_torsion_free(self):
        """Is Z^ncols / lattice free?  (All Smith invariants 1.)"""
        return all(d == 1 for d in self.snf_invariants())

    def __repr__(self):
        return f"<IntegerLattice rank {self.rank} in Z^{self.ncols}>"


def _sparse_row(items, ncols):
    """The sparse row `items` as {column: nonzero value}, duplicate columns
    merged by addition.  A column or value that is not an int (a bool is not
    one) raises a ValueError naming it, and a column outside 0..ncols-1 an
    IndexError."""
    row = {}
    for c, v in items:
        if type(c) is not int or type(v) is not int:
            raise ValueError("lattice %s %r is not an int" % (
                ("column", c) if type(c) is not int else ("value", v)))
        if not 0 <= c < ncols:
            raise IndexError(f"column {c} out of range for width {ncols}")
        row[c] = row.get(c, 0) + v
    return {c: v for c, v in row.items() if v}


def rank_mod_p(rows, ncols, p):
    """Rank over F_p, for a prime p, of the matrix whose sparse rows are
    given; the width and the prime are ints, and the rows are read as by
    `IntegerLattice`.

    Let L be the lattice the rows span together with p Z^ncols.  L holds
    p e_c, so the HNF pivot at each column c divides p: it is 1 or p.  The
    product of the pivots is the index [Z^ncols : L] = |F_p^ncols / (row
    span mod p)| = p^(ncols - rank_p), so the rank over F_p is the number
    of unit pivots."""
    checked_int("lattice", "ncols", ncols, 0)
    checked_prime("lattice", "modulus p", p)
    lattice = IntegerLattice(ncols, [[(c, p)] for c in range(ncols)] + list(rows))
    return lattice.pivot_values().count(1)


def _dense_entry(v):
    """A dense lattice entry as an int; a ValueError names any other value."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"lattice entry {v!r} is not an int")
