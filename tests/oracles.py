"""Brute-force oracles for the row recursions and the ideal rows.

`packed_sum` adds the weights of a list of diagrams one by one, reading each
diagram's weight and NW cells as ints (`_marks()`); `marks_union` is the OR
of those cells.  The package's single and K-single sums list no diagram, so
these are their brute-force counterparts over `enumerate_*`.

`bpd_closure` lists the BPDs of a permutation as the droop (and K-droop)
closure of its diagram BPD, tracing each one, with no row rule: the
counterpart of `enumerate_reduced_bpd`/`enumerate_all_bpd`.

`edges_match` checks a tile grid side by side, the walk that `Bpd._trace`
replaces by following the pipes.

`ideal_rows` forms every generator-term times monomial product of an ideal
of S_{n,k} and drops those with an exponent >= k: the counterpart of the
box rule of `rings._ideal_rows`.
"""

from itertools import product
from math import comb
from operator import add

from pipedreams.bpd import _SIDES, E_, N_, S_, W_, Bpd, diagram_bpd
from pipedreams.combinat import Permutation
from pipedreams.pipedream import EXP_MAX, Poly, _label, k_signed
from pipedreams.rings import SnkRing


def move_closure(start, moves):
    """The set of diagrams reachable from `start` by `moves`, a function
    from a diagram to the list of diagrams one move away (breadth first)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for D in frontier:
            for Q in moves(D):
                if Q not in seen:
                    seen.add(Q)
                    nxt.append(Q)
        frontier = nxt
    return seen


def bpd_closure(w, reduced):
    """The reduced (or all K-theoretic) BPDs of w in `code_string` order:
    the closure of the diagram BPD under droops (and K-droops).  Each BPD
    reached is traced and must have the permutation w; tracing raises on
    every grid `edges_match` rejects."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    start = diagram_bpd(w)
    seen = move_closure(start, lambda B: B._moves(droop=True,
                                                  k_droop=not reduced))
    for B in seen - {start}:
        if B.permutation() != w:
            raise AssertionError("droop closure escaped the permutation")
    return sorted(seen, key=Bpd.code_string)


def edges_match(B):
    """Does each side of each tile of B carry a pipe exactly when the
    neighbour across it does, with pipes entering only from the south edge
    and leaving only by the east edge?"""
    N = B.N
    for r in range(1, N + 1):
        for c in range(1, N + 1):
            s = _SIDES[B.tile(r, c)]
            east = _SIDES[B.tile(r, c + 1)] & W_ if c < N else W_
            south = _SIDES[B.tile(r + 1, c)] & N_ if r < N else N_
            if (bool(s & E_) != bool(east) or bool(s & S_) != bool(south)
                    or r == 1 and s & N_ or c == 1 and s & W_):
                return False
    return True


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


def ideal_rows(n, k, generators):
    """The sorted distinct rows m * g over every monomial m of S_{n,k} and
    every generator g, each product formed and looked up term by term."""
    ring = SnkRing(n, k)
    monomials = list(product(range(k), repeat=n))
    index = {m: i for i, m in enumerate(monomials)}
    rows = set()
    for g in generators:
        if g.ring != ring:
            raise ValueError("generator does not live in S_{%d,%d}" % (n, k))
        gitems = [(monomials[i], c) for i, c in g.items()]
        if not gitems:
            continue
        for m in monomials:
            row = []
            for exp, coeff in gitems:
                i = index.get(tuple(map(add, exp, m)))  # None: x_j^k = 0
                if i is not None:
                    row.append((i, coeff))
            if row:
                row.sort()
                rows.add(tuple(row))
    return sorted(rows)
