"""Classical and K-theoretic pipe dreams on a staircase, and word diagrams.

A pipe dream is a set of crosses inside the staircase {(r, c) : r + c <= N}
(1-indexed, rows growing downward).  Cells without a cross are elbows.  The
permutation of a pipe dream is the 0-Hecke (Demazure) product of its reading
word: rows top to bottom, right to left within a row, a cross at (r, c)
contributing the simple transposition s_{r+c-1}.  A pipe dream is *reduced*
when its cross count equals the length of its permutation.  Pipe dream
weights are sign-free; the K sums attach (-1)^(crosses - len(w)).

A `PipeDream` holds its crosses as one int, `bits`: the cross (r, c) is bit
(r-1)*N + (c-1), so row r is the N - r bits from bit (r-1)*N up and the
bits run in row-major order.  The (K-)chute closure (the moves of
Bergeron-Billey and Knutson-Miller) runs on these ints and builds one
`PipeDream` per diagram found; sorting the ints by their ascending bit
indices gives the sorted cross list order.  The Demazure product reads each
row's bits from high to low.  `crosses`, the frozenset of (r, c) cells, is
built on first use.

The single and K-single sums over pipe dreams (`pd_schubert`,
`pd_grothendieck` and the word sums) build no `Poly` per diagram: a
weight is the packed `Poly` key sum_r popcount(row r) << 8*(label_r - 1),
added with its sign into one term dict, and the row labels are checked
once per sum, for the rows where some diagram has a cross.

A word diagram views a diagram of u = std(conv(w)) on w's n x k rectangle,
row r carrying x_{sigma(r)} for sigma the associated permutation of w: see
`WordDiagram` and its families `WordPipeDream` and `bpd.WordBpd`.

Many words share u, so the word diagrams read u's diagrams from one memo
keyed by (family, u, reduced), least recently used entries evicted first.
It holds at most PARENT_CACHE_DIAGRAMS = 20,000 parent diagrams in all; an
enumeration larger than that is returned without being stored.  Sharing is
safe: `PipeDream` and `Bpd` are immutable and the memo stores tuples of them,
while each call builds its own list of `WordDiagram` views.  See
`parent_cache_info()`; `pipedreams.clear_caches()` empties it.
"""

from __future__ import annotations

import json
from collections import OrderedDict

from .combinat import Permutation, Word, convex_standardization, json_fields
from .poly import EXP_MAX, Poly

WEIGHT_MODES = ("single", "double", "K-single", "K-double")


class RectangularityViolation(AssertionError):
    """A word diagram's weight-carrying cells leave the n x k rectangle."""


def _check_in_staircase(rc, N):
    r, c = rc
    if r < 1 or c < 1 or r + c > N:
        raise ValueError("cross (%d,%d) outside staircase of size %d"
                         % (r, c, N))


def _indices(bits):
    """The indices of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _cells_of(bits, N):
    """The cells of the set bits, in sorted (row-major) order."""
    return [(i // N + 1, i % N + 1) for i in _indices(bits)]


def _demazure(bits, N):
    """The trimmed one-line tuple of the Demazure product of the reading
    word of the crosses `bits`: rows top to bottom, each row's bits high to
    low."""
    u = list(range(1, N + 1))
    for r in range(N - 1):
        row = bits & (1 << N - 1 - r) - 1     # row r + 1 has N - 1 - r cells
        bits >>= N
        while row:
            c = row.bit_length() - 1
            row ^= 1 << c
            # the cross (r+1, c+1) is s_{r+c+1}: it swaps u[r+c], u[r+c+1]
            a = r + c
            x, y = u[a], u[a + 1]
            if x < y:
                u[a], u[a + 1] = y, x
    while len(u) > 1 and u[-1] == len(u):
        u.pop()
    return tuple(u)


def _chute_children(bits, N, slide, copy):
    """The crosses one chute move (`slide`) or K-chute move (`copy`) away
    from the crosses `bits` of a pipe dream of size N.

    A move takes a cross at (k, j+1), j >= 1, with (k+1, j+1) empty; rows k
    and k+1 are full across columns i+1..j and empty at column i, and
    (k+1, i) lies in the staircase.  A chute move slides the cross to
    (k+1, i); a K-chute move copies it there, the original staying.
    """
    if not bits:
        return []
    out = []
    below = bits >> N                   # bit t: is the cell under t a cross
    both, either = bits & below, bits | below
    first_column = ((1 << N * N) - 1) // ((1 << N) - 1)
    rest = bits & ~below & ~first_column
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        k, j = divmod(b, N)             # the cross (k+1, j+1), 0-based
        t = b - 1                       # the cell (k+1, i), i from j down
        while t >= b - j and both >> t & 1:
            t -= 1
        if t >= b - j and not either >> t & 1 and k + t - (b - j) + 3 <= N:
            if slide:
                out.append(bits ^ low | 1 << t + N)
            if copy:
                out.append(bits | 1 << t + N)
    return out


class PipeDream:
    """An immutable set of crosses in the staircase of size N, held as one
    int `bits`: the cross (r, c) is bit (r-1)*N + (c-1)."""

    __slots__ = ("bits", "N", "_crosses")

    def __init__(self, crosses, N):
        N = int(N)
        bits = 0
        for r, c in crosses:
            r, c = int(r), int(c)
            _check_in_staircase((r, c), N)
            bits |= 1 << (r - 1) * N + c - 1
        self._set(bits, N)

    @classmethod
    def _of(cls, bits, N):
        """The pipe dream of size N whose crosses are `bits`, unchecked."""
        P = object.__new__(cls)
        P._set(bits, N)
        return P

    def _set(self, bits, N):
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "_crosses", None)

    def __setattr__(self, *a):
        raise AttributeError("PipeDream is immutable")

    @property
    def crosses(self):
        """The crosses as a frozenset of (row, column) cells, built on first
        use."""
        if self._crosses is None:
            object.__setattr__(self, "_crosses",
                               frozenset(_cells_of(self.bits, self.N)))
        return self._crosses

    def __eq__(self, other):
        if isinstance(other, PipeDream):
            return self.bits == other.bits and self.N == other.N
        return NotImplemented

    def __hash__(self):
        return hash((self.bits, self.N))

    def __len__(self):
        return self.bits.bit_count()

    def sorted_crosses(self):
        return _cells_of(self.bits, self.N)

    def __repr__(self):
        return "PipeDream(%r, N=%d)" % (self.sorted_crosses(), self.N)

    def _has(self, r, c):
        return self.bits >> (r - 1) * self.N + c - 1 & 1

    # -- permutation ---------------------------------------------------------

    def reading_word(self):
        """Simple-reflection indices: rows top->bottom, right->left."""
        return [r + c - 1
                for r, c in sorted(self.crosses, key=lambda rc: (rc[0], -rc[1]))]

    def permutation(self):
        """Demazure (0-Hecke) product of the reading word, trimmed."""
        return Permutation(self._demazure())

    def _demazure(self):
        """`permutation()`'s one-line tuple, with no `Permutation` built."""
        return _demazure(self.bits, self.N)

    def permutation_by_tracing(self):
        """Trace the pipes, resolving repeated crossings of a pair as bumps.

        Pipes enter at the west edge of each row heading east and exit at
        the north edge; cells are processed in anti-diagonal order so each
        crossing event sees the prior history of its two pipes.  For a
        reduced pipe dream this is plain pipe tracing.
        """
        N = self.N
        east_in = {}   # pipe arriving at (r, c) heading east
        north_in = {}  # pipe arriving at (r, c) heading north
        for r in range(1, N + 1):
            east_in[(r, 1)] = r
        exits = {}
        crossed = set()
        for t in range(1 - N, N):
            for r in range(N, 0, -1):
                c = t + r
                if not 1 <= c <= N:
                    continue
                a = east_in.get((r, c))   # westbound input, heading east
                b = north_in.get((r, c))  # southbound input, heading north
                if a is None and b is None:
                    continue
                if self._has(r, c):
                    pair = frozenset((a, b)) if a is not None and b is not None else None
                    if pair is not None and pair not in crossed:
                        crossed.add(pair)
                        go_east, go_north = a, b
                    else:
                        # bump: repeated crossing (or a lone pipe) bends
                        go_east, go_north = b, a
                else:
                    go_east, go_north = b, a
                if go_east is not None:
                    if c + 1 <= N:
                        east_in[(r, c + 1)] = go_east
                    else:
                        raise AssertionError("pipe escaped east; N too small")
                if go_north is not None:
                    if r - 1 >= 1:
                        north_in[(r - 1, c)] = go_north
                    else:
                        exits[go_north] = c
        one_line = [exits[i] for i in range(1, N + 1)]
        return Permutation(one_line).trim()

    def is_reduced(self, w=None):
        w = w or self.permutation()
        return len(self) == w.inversions()

    # -- moves ---------------------------------------------------------------

    def chute_moves(self):
        """All pipe dreams one chute move away (cross slides down-left)."""
        return [PipeDream._of(b, self.N)
                for b in _chute_children(self.bits, self.N, True, False)]

    def k_chute_moves(self):
        """All pipe dreams one K-theoretic chute move away (cross copies
        down-left, original stays)."""
        return [PipeDream._of(b, self.N)
                for b in _chute_children(self.bits, self.N, False, True)]

    # -- weights ---------------------------------------------------------------

    def weight(self, mode="single", nx=None, labels=None):
        """The weight of the pipe dream: `diagram_weight` of its crosses.
        K weights are sign-free; signs live in the K sums.
        labels: optional row relabeling r -> variable index.
        """
        return diagram_weight(mode, nx or self.N, self.crosses, labels)

    # -- rendering ----------------------------------------------------------

    def render(self):
        """ASCII picture: '+' crosses, '.' elbows."""
        return "\n".join(" ".join("+" if self._has(r, c) else "."
                                  for c in range(1, self.N - r + 2))
                         for r in range(1, self.N + 1))

    def to_json(self):
        return json.dumps({"N": self.N,
                           "crosses": [list(rc) for rc in self.sorted_crosses()]})

    @classmethod
    def from_json(cls, text):
        crosses, N = json_fields(text, "pipe dream", "crosses", "N")
        return cls([tuple(rc) for rc in crosses], N)


# -- weights --------------------------------------------------------------------


def diagram_weight(mode, nx, cells, labels=None, nw=()):
    """The sign-free weight of a diagram, in x_1..x_nx (and y_1..y_nx in
    the double modes), reading row r as x_{labels[r-1]} (x_r without labels).

    Each weight cell (r, c) gives a factor
        single, K-single: x_r
        double:           x_r - y_c
        K-double:         x_r + y_c - x_r y_c
    and in the K modes each NW cell gives 1 - x_r (K-single) or
    (1 - x_r)(1 - y_c) (K-double).  A single or K-single weight without NW
    cells is one monomial built from the row counts.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError("unknown mode %r" % (mode,))
    ny = nx if mode.endswith("double") else 0
    if not mode.startswith("K"):
        nw = ()

    if ny:
        for r, c in (*cells, *nw):
            if c > nx:
                raise ValueError("cell (%d, %d) has column %d, outside "
                                 "1..nx = %d" % (r, c, c, nx))
        p = Poly.const(1, nx, ny)
        for r, c in cells:
            x, y = Poly.x(_label(labels, r, nx), nx, ny), Poly.y(c, nx, ny)
            p = p * (x - y if mode == "double" else x + y - x * y)
        for r, c in nw:
            p = p * ((1 - Poly.x(_label(labels, r, nx), nx, ny))
                     * (1 - Poly.y(c, nx, ny)))
        return p
    rows = {}
    for r, _ in cells:
        rows[r] = rows.get(r, 0) + 1
    exp = [0] * nx
    for r, m in rows.items():
        exp[_label(labels, r, nx) - 1] += m
    p = Poly(nx, 0, {tuple(exp): 1})
    for r, _ in nw:
        p = p * (1 - Poly.x(_label(labels, r, nx), nx))
    return p


def _label(labels, r, nx):
    """The index of the variable that row r carries: labels[r-1], or r
    without labels."""
    if labels and r > len(labels):
        raise ValueError("row %d has no label: %d labels given"
                         % (r, len(labels)))
    i = labels[r - 1] if labels else r
    if not 1 <= i <= nx:
        raise ValueError("row %d has label %d, outside 1..nx = %d"
                         % (r, i, nx))
    return i


def _pd_sum(diagrams, nx, labels=None, ell=None):
    """The sum of the single weights of `diagrams`, a nonempty list of pipe
    dreams of one size N, row r read as x_{labels[r-1]} (x_r without
    labels); with `ell`, a diagram with c crosses is signed (-1)^(c - ell),
    its K-single weight.

    A weight is the packed key sum_r popcount(row r) << 8*(label_r - 1),
    added into one term dict: no `Poly` per diagram.  The labels are
    checked once, for each row where some diagram has a cross.  A field
    holds its variable's count exactly while those rows have at most 255
    cells with a cross in some diagram; the guard bits of the keys then
    show an exponent past EXP_MAX."""
    N = diagrams[0].N
    union = 0
    for P in diagrams:
        union |= P.bits
    rows, room = [], [0] * nx
    for r in range(N - 1):      # row r + 1 has N - 1 - r cells
        mask = (1 << N - 1 - r) - 1
        crossed = union >> r * N & mask
        if crossed:
            v = _label(labels, r + 1, nx) - 1
            rows.append((r * N, mask, 8 * v))
            room[v] += crossed.bit_count()
    most = max(room, default=0)
    if most > 2 * EXP_MAX + 1:
        raise ValueError("the rows read as x%d have %d cells, more than a "
                         "packed exponent counts" % (room.index(most) + 1, most))
    terms, used = {}, 0
    for P in diagrams:
        b = P.bits
        key = 0
        for shift, mask, field in rows:
            key += (b >> shift & mask).bit_count() << field
        used |= key
        c = 1
        if ell is not None:
            c = k_signed(1, b.bit_count() - ell)
        terms[key] = terms.get(key, 0) + c
    Poly.zero(nx)._check_exponents((used,))
    return Poly._of(nx, 0, {e: c for e, c in terms.items() if c})


def k_signed(p, excess):
    """p with the K sign (-1)^excess of a diagram whose weight cells exceed
    the length of its permutation by `excess`."""
    if excess < 0:
        raise ValueError("%d fewer weight cells than inversions" % -excess)
    return -p if excess % 2 else p


# the sum of weights, added into one term dict without copying a total
weight_sum = Poly.sum_of


# -- construction and enumeration ---------------------------------------------


def top_pipe_dream(w):
    """The top pipe dream: column i carries code(w^{-1})_i crosses,
    top-justified.

    >>> top_pipe_dream(Permutation("24153")).sorted_crosses()
    [(1, 1), (1, 3), (2, 1), (2, 3)]
    """
    w = w if isinstance(w, Permutation) else Permutation(w)
    code_inv = w.inverse().lehmer_code()
    crosses = [(r, i) for i, ci in enumerate(code_inv, start=1)
               for r in range(1, ci + 1)]
    return PipeDream(crosses, w.n)


def enumerate_reduced(w):
    """All reduced pipe dreams of w: breadth-first chute closure of the
    top pipe dream, returned in canonical (sorted cross list) order."""
    return _closure(w, slide=True, copy=False)


def enumerate_all(w):
    """All K-theoretic pipe dreams of w: closure of the top pipe dream
    under chute and K-chute moves."""
    return _closure(w, slide=True, copy=True)


def move_closure(start, moves):
    """The set of diagrams reachable from `start` by `moves`, a function
    from a diagram to the list of diagrams one move away (breadth first).
    A diagram is any hashable value: a `Bpd`, or a pipe dream's int of
    cross bits."""
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


def _closure(w, slide, copy):
    """The move closure of w's top pipe dream, run on the ints of cross
    bits; a `PipeDream` is built once per diagram found, in sorted cross
    list order (ascending bit indices, as the bits are row-major), and its
    Demazure product checked against w."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    N = w.n
    seen = move_closure(top_pipe_dream(w).bits,
                        lambda bits: _chute_children(bits, N, slide, copy))
    wt = w.trim().one_line
    out = []
    for bits in sorted(seen, key=_indices):
        P = PipeDream._of(bits, N)
        if _demazure(bits, N) != wt:
            raise AssertionError("move closure escaped the permutation: %r" % (P,))
        out.append(P)
    return out


# -- word diagrams ---------------------------------------------------------------


def word_row_labels(word):
    """Row r of a word diagram carries the variable x_{sigma(r)}, where
    sigma matches positions of convexify(word) to positions of word."""
    _, sigma = convex_standardization(word.letters, word.k)
    return tuple(p + 1 for p in sigma)


# The parent diagrams of u, per (family, u one-line tuple, reduced), least
# recently used first; at most PARENT_CACHE_DIAGRAMS diagrams in all.
PARENT_CACHE_DIAGRAMS = 20_000
_PARENTS = OrderedDict()
_PARENT_STATS = dict.fromkeys(("diagrams", "hits", "misses", "evictions"), 0)


def parent_cache_info():
    """The memo of parent diagrams: its entries, the diagrams they hold, and
    its hits, misses and evictions since the last `clear_caches()`."""
    return {"entries": len(_PARENTS), **_PARENT_STATS}


def _clear_parent_cache():
    _PARENTS.clear()
    _PARENT_STATS.update(dict.fromkeys(_PARENT_STATS, 0))


def _parent_diagrams(family, u, reduced):
    """`family._diagrams` of the permutation with one-line tuple u, as a
    tuple, through the memo.  An enumeration larger than the whole bound is
    returned without being stored."""
    key = (family, u, reduced)
    found = _PARENTS.get(key)
    if found is not None:
        _PARENTS.move_to_end(key)
        _PARENT_STATS["hits"] += 1
        return found
    _PARENT_STATS["misses"] += 1
    found = tuple(family._diagrams(Permutation(u), reduced))
    if len(found) <= PARENT_CACHE_DIAGRAMS:
        _PARENTS[key] = found
        _PARENT_STATS["diagrams"] += len(found)
        while _PARENT_STATS["diagrams"] > PARENT_CACHE_DIAGRAMS:
            _, old = _PARENTS.popitem(last=False)
            _PARENT_STATS["diagrams"] -= len(old)
            _PARENT_STATS["evictions"] += 1
    return found


class WordDiagram:
    """A parent diagram of u = std(conv(word)) viewed on the word's n x k
    rectangle, row r carrying x_{labels[r-1]}.  The constructor checks that
    every weight cell lies inside; `excess` counts them beyond `length` = len(u).
    A family supplies `_diagrams` (the parent enumeration), `_cells`, `_glyph`,
    `_json_cells`, `_field` and `_signed` (K weights carry (-1)^excess)."""

    __slots__ = ("diagram", "n", "k", "labels", "excess")
    _signed = False

    def __init__(self, diagram, n, k, labels, length):
        size, bad = self._fit(diagram, n, k)
        if bad:
            raise RectangularityViolation(
                "weight cells outside the %d x %d rectangle: %s" % (n, k, bad))
        for name, value in zip(WordDiagram.__slots__, (
                diagram, int(n), int(k), tuple(labels), size - length)):
            object.__setattr__(self, name, value)

    @classmethod
    def _fit(cls, D, n, k):
        """The number of D's weight cells, and its weight and NW cells
        beyond row n or column k, sorted."""
        cells, nw = cls._cells(D)
        return len(cells), sorted((r, c) for r, c in (*cells, *nw)
                                  if r > n or c > k)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _key(self):
        return (getattr(self, self._field), self.n, self.k, self.labels,
                self.excess)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def weight(self, mode="single"):
        """`diagram_weight` of the parent's cells, row r read as
        x_{labels[r-1]}; K weights carry (-1)^excess when `_signed`."""
        cells, nw = self._cells(self.diagram)
        p = diagram_weight(mode, self.n, cells, self.labels, nw)
        return k_signed(p, self.excess) if self._signed and mode.startswith("K") else p

    def render(self):
        """The n x k rectangle, each row followed by its variable."""
        return "\n".join(" ".join(self._glyph(r, c) for c in range(1, self.k + 1))
                         + "   x%d" % self.labels[r - 1]
                         for r in range(1, self.n + 1))

    def to_json(self):
        return json.dumps({"n": self.n, "k": self.k,
                           self._field: self._json_cells(),
                           "labels": list(self.labels)})

    @classmethod
    def _truncate(cls, D, word, w=None):
        """View a diagram D of w = standardize(convexify(word)) on the word's
        rectangle (w defaults to D's traced permutation).  Raises
        RectangularityViolation if a weight cell lies outside."""
        word = word if isinstance(word, Word) else Word(word)
        u = w or D.permutation()
        return cls(D, word.n, word.k, word_row_labels(word), u.inversions())

    @classmethod
    def _enumerate(cls, word, reduced):
        word = word if isinstance(word, Word) else Word(word)
        u, sigma = convex_standardization(word.letters, word.k)
        labels = tuple(p + 1 for p in sigma)
        ell = Permutation(u).inversions()
        return [cls(D, word.n, word.k, labels, ell)
                for D in _parent_diagrams(cls, u, reduced)]

    @classmethod
    def _violations(cls, word, reduced=False):
        """The diagrams of standardize(convexify(word)) with a weight cell
        outside the word's rectangle (expected none; kept as an inspectable
        finding)."""
        word = word if isinstance(word, Word) else Word(word)
        u, _ = convex_standardization(word.letters, word.k)
        return [D for D in _parent_diagrams(cls, u, reduced)
                if cls._fit(D, word.n, word.k)[1]]


class WordPipeDream(WordDiagram):
    """A pipe dream of std(conv(word)) on the word's rectangle; its crosses
    are the parent's.  Weights are sign-free, as for `PipeDream`: the K sum
    attaches (-1)^excess."""

    __slots__ = ()
    _field = "crosses"

    @staticmethod
    def _diagrams(u, reduced):
        return enumerate_reduced(u) if reduced else enumerate_all(u)

    @staticmethod
    def _cells(P):
        """P's crosses as a new list, so that the pipe dreams the parent
        memo holds do not each keep a frozenset of cells."""
        return P.sorted_crosses(), ()

    @property
    def crosses(self):
        return self.diagram.crosses

    def sorted_crosses(self):
        return self.diagram.sorted_crosses()

    def _glyph(self, r, c):
        return "+" if (r, c) in self.crosses else "."

    def _json_cells(self):
        return [list(rc) for rc in self.sorted_crosses()]

    def __repr__(self):
        return "WordPipeDream(%r, n=%d, k=%d)" % (self.sorted_crosses(), self.n, self.k)


truncate_to_word = WordPipeDream._truncate
check_word_rectangularity = WordPipeDream._violations


def enumerate_word_pds(word, reduced=True):
    """Word pipe dreams of a word: the pipe dreams of
    standardize(convexify(word)), each viewed on the word's rectangle."""
    return WordPipeDream._enumerate(word, reduced)


# -- generating functions -------------------------------------------------------


def pd_schubert(w, double=False):
    """Schubert polynomial as the weight sum over reduced pipe dreams."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    if double:
        return weight_sum((P.weight("double") for P in enumerate_reduced(w)),
                          w.n, w.n)
    return _pd_sum(enumerate_reduced(w), w.n)


def pd_grothendieck(w, double=False):
    """Grothendieck polynomial as the signed weight sum over all pipe
    dreams: a diagram with c crosses contributes with sign (-1)^(c - len(w))."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    ell = w.inversions()
    if double:
        return weight_sum((k_signed(P.weight("K-double"), len(P) - ell)
                           for P in enumerate_all(w)), w.n, w.n)
    return _pd_sum(enumerate_all(w), w.n, ell=ell)


def _word_pd_sum(word, reduced):
    """`_pd_sum` over the word pipe dreams of `word`, read through their
    labels; the K sum signs each by (-1)^excess."""
    word = word if isinstance(word, Word) else Word(word)
    views = enumerate_word_pds(word, reduced=reduced)
    W = views[0]    # u's top pipe dream, at least
    return _pd_sum([V.diagram for V in views], word.n, W.labels,
                   None if reduced else len(W.diagram) - W.excess)


def word_pd_schubert(word):
    """Weight sum over the reduced word pipe dreams."""
    return _word_pd_sum(word, reduced=True)


def word_pd_grothendieck(word):
    """Signed weight sum over all word pipe dreams ((-1)^excess each)."""
    return _word_pd_sum(word, reduced=False)
