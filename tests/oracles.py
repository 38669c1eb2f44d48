"""Diagram-by-diagram oracles for the sums by rows.

`packed_sum` adds the weights of a list of diagrams one by one, reading each
diagram's weight and NW cells as ints (`_marks()`); `marks_union` is the OR
of those cells.  The package's single and K-single sums list no diagram, so
these are their brute-force counterparts over `enumerate_*`.
"""

from math import comb

from pipedreams.pipedream import EXP_MAX, Poly, _label, k_signed


def marks_union(diagrams):
    """The OR of every weight cell and NW cell of `diagrams`, as one int."""
    union = 0
    for D in diagrams:
        b, m = D._marks()
        union |= b | m
    return union


def packed_sum(diagrams, nx, labels=None, ell=None):
    """The sum of the single weights of `diagrams`, a nonempty list of pipe
    dreams or BPDs of one size N, in x_1..x_nx, row r read as x_{labels[r-1]}
    (x_r without labels); with `ell`, of the K-single weights, each times the
    factor 1 - x of its NW cells and signed (-1)^(weight cells - ell).  A
    diagram's `_marks()` gives its weight and NW cells as ints, the cell
    (r, c) at bit (r-1)*N + c-1.

    A weight is the packed key sum_r popcount(row r) << 8*(label_r - 1),
    times the binomial expansion of its NW factors on the keys, added into
    one term dict.  The labels are checked once, for each row where some
    diagram has a cell.  A field holds its variable's count exactly while
    those rows have at most 255 cells in some diagram; the guard bits of the
    keys then show an exponent past EXP_MAX."""
    N = diagrams[0].N
    full = (1 << N) - 1
    marks = [D._marks() for D in diagrams]
    if ell is None:             # the single weight has no NW factors
        marks = [(b, 0) for b, _ in marks]
    union = 0
    for b, m in marks:
        union |= b | m
    rows, room = [], [0] * nx
    for r in range(N):
        crossed = union >> r * N & full
        if crossed:
            v = _label(labels, r + 1, nx) - 1
            rows.append((r * N, 8 * v))
            room[v] += crossed.bit_count()
    most = max(room, default=0)
    if most > 2 * EXP_MAX + 1:
        raise ValueError("the rows read as x%d have %d cells, more than a "
                         "packed exponent counts" % (room.index(most) + 1, most))
    terms, used = {}, 0
    for b, m in marks:
        key = 0
        for shift, field in rows:
            key += (b >> shift & full).bit_count() << field
        c = 1 if ell is None else k_signed(1, b.bit_count() - ell)
        if not m:
            used |= key
            terms[key] = terms.get(key, 0) + c
            continue
        part = [(key, c)]
        for shift, field in rows:
            k = (m >> shift & full).bit_count()
            if k:           # times (1 - x)^k = sum_j (-1)^j C(k, j) x^j
                part = [(e + (j << field), (-1) ** j * comb(k, j) * a)
                        for e, a in part for j in range(k + 1)]
        for e, a in part:
            used |= e
            terms[e] = terms.get(e, 0) + a
    Poly.zero(nx)._check_exponents((used,))
    return Poly._of(nx, 0, {e: c for e, c in terms.items() if c})
