"""Integer lattices in exact (Python-integer) arithmetic.

``IntegerLattice`` is a sublattice of Z^ncols held in row Hermite normal form
(HNF) and built from sparse rows; it answers rank, membership, equality,
Smith invariants and freeness of the quotient.  ``rings`` re-exports it: its
ideals of S_{n,k} are lattices in Z^{k^n}.  Beside it live Gaussian rank over
a prime field and a dense Smith-normal-form routine.

Rows are sparse: iterables of ``(column, value)`` pairs with
``0 <= column < ncols``.  Duplicate columns are merged by addition.

Coefficient growth is controlled pivot-bounded style: whenever a row is
inserted or a pivot row is rewritten, its entries at existing pivot columns
are immediately reduced modulo the corresponding pivot values, so entries at
pivot columns stay in ``[0, pivot)`` throughout.
"""

from __future__ import annotations

import itertools


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
    #: drops its kernel metrics (ROADMAP item 2).
    kernel_name = "pure"

    def __init__(self, ncols, sparse_rows):
        if ncols < 0:
            raise ValueError(f"ncols must be nonnegative, got {ncols}")
        self.ncols = int(ncols)
        self._piv = {}  # leading column -> sparse row {col: nonzero int}
        self._canonical = True
        for items in sparse_rows:
            self._add_row(items)

    @classmethod
    def from_dense_rows(cls, rows):
        rows = [list(map(int, r)) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("rows must have equal width")
        ncols = widths.pop() if widths else 0
        return cls(ncols, [[(j, v) for j, v in enumerate(r) if v] for r in rows])

    # -- internals ---------------------------------------------------------

    def _clean(self, items):
        row = {}
        for c, v in items:
            if not 0 <= c < self.ncols:
                raise IndexError(f"column {c} out of range for width {self.ncols}")
            row[c] = row.get(c, 0) + v
        return {c: v for c, v in row.items() if v}

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

    def _add_row(self, items):
        """Fold one sparse row into the form."""
        row = self._clean(items)
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
            q, rem = divmod(row[c], piv[c])
            if q:
                self._axpy(row, -q, piv)
            if rem == 0:
                continue
            # gcd step: pivot value shrinks to g, remainder row leaves column c
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
            row = newr

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
        row = self._clean(items)
        while row:
            c = min(row)
            piv = self._piv.get(c)
            if piv is None:
                return False
            q, rem = divmod(row[c], piv[c])
            if rem:
                return False
            self._axpy(row, -q, piv)
        return True

    def contains(self, element):
        return self.contains_row(element.items())

    def __eq__(self, other):
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        if self.ncols != other.ncols:
            return False
        # pivot columns and values are lattice invariants: cheap reject
        if self.pivot_items() != other.pivot_items():
            return False
        return (all(other.contains_row(r) for r in self._pivot_rows())
                and all(self.contains_row(r) for r in other._pivot_rows()))

    __hash__ = None

    def snf_invariants(self):
        """Smith invariant factors d1 | d2 | ... (nonzero ones only)."""
        piv = self.pivot_values()
        if all(v == 1 for v in piv):
            return (1,) * len(piv)
        if len(piv) * self.ncols > 400_000:
            raise RuntimeError(
                "exact SNF is not feasible at this size; pivot values "
                f"{sorted(set(piv))} indicate possible torsion")
        dense = [[0] * self.ncols for _ in piv]
        for row, items in zip(dense, self.canonical_rows()):
            for c, v in items:
                row[c] = v
        return tuple(snf_invariants_dense(dense))

    def is_torsion_free(self):
        """Is Z^ncols / lattice free?  (All invariant factors 1.)"""
        primes = set()
        for v in self.pivot_values():
            if v != 1:
                f = _factorize(v)
                if f is None:
                    return all(d == 1 for d in self.snf_invariants())
                primes.update(f)
        if not primes:
            return True
        rows = self._pivot_rows()
        return all(rank_mod_p(rows, self.ncols, p) == self.rank
                   for p in sorted(primes))

    def __repr__(self):
        return f"<IntegerLattice rank {self.rank} in Z^{self.ncols}>"


def _factorize(v, bound=10 ** 6):
    """Prime factors of v, or None if a cofactor above the bound remains."""
    v = abs(v)
    out = set()
    for p in itertools.chain([2], range(3, bound, 2)):
        if p * p > v:
            break
        while v % p == 0:
            out.add(p)
            v //= p
    if v > 1:
        if v >= bound * bound:
            return None
        out.add(v)
    return out


def rank_mod_p(rows, ncols, p):
    """Rank over F_p of the matrix whose sparse rows are given."""
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    piv = {}  # column -> unit-pivot sparse row mod p
    for items in rows:
        row = {}
        for c, v in items:
            if not 0 <= c < ncols:
                raise IndexError(f"column {c} out of range for width {ncols}")
            row[c] = (row.get(c, 0) + v) % p
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            pr = piv.get(c)
            if pr is None:
                inv = pow(row[c], -1, p)
                piv[c] = {cc: (vv * inv) % p for cc, vv in row.items()}
                break
            coef = row.pop(c)
            for cc, vv in pr.items():
                if cc == c:
                    continue
                nv = (row.get(cc, 0) - coef * vv) % p
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return len(piv)


def snf_invariants_dense(mat):
    """Smith invariant factors d1 | d2 | ... of a dense integer matrix.

    Returns the positive invariants only (their count is the rank).  Textbook
    pivoting on the smallest entry; meant for desk-scale matrices.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    out = []
    t = 0
    while t < m and t < n:
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for r in a:
            r[t], r[bj] = r[bj], r[t]
        while True:
            clean = True
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for r in a:
                        r[j] -= q * r[t]
                if a[t][j]:
                    clean = False
            if not clean:
                # remainders left behind are smaller than the corner; re-pivot
                best = None
                for i in range(t, m):
                    for j in range(t, n):
                        v = a[i][j]
                        if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                            best = (i, j)
                bi, bj = best
                a[t], a[bi] = a[bi], a[t]
                for r in a:
                    r[t], r[bj] = r[bj], r[t]
                continue
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        out.append(abs(a[t][t]))
        t += 1
    return out
