"""Classical and K-theoretic pipe dreams on a staircase, and word diagrams.

A pipe dream is a set of crosses inside the staircase {(r, c) : r + c <= N}
(1-indexed, rows growing downward).  Cells without a cross are elbows.  The
permutation of a pipe dream is the 0-Hecke (Demazure) product of its reading
word: rows top to bottom, right to left within a row, a cross at (r, c)
contributing the simple transposition s_{r+c-1}.  A pipe dream is *reduced*
when its cross count equals the length of its permutation.  Pipe dream
weights are sign-free; the K sums attach (-1)^(crosses - len(w)).

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
from .poly import Poly

WEIGHT_MODES = ("single", "double", "K-single", "K-double")


class RectangularityViolation(AssertionError):
    """A word diagram's weight-carrying cells leave the n x k rectangle."""


def _check_in_staircase(rc, N):
    r, c = rc
    if r < 1 or c < 1 or r + c > N:
        raise ValueError("cross (%d,%d) outside staircase of size %d"
                         % (r, c, N))


class PipeDream:
    """An immutable set of crosses in the staircase of size N."""

    __slots__ = ("crosses", "N")

    def __init__(self, crosses, N):
        crosses = frozenset((int(r), int(c)) for r, c in crosses)
        for rc in crosses:
            _check_in_staircase(rc, N)
        object.__setattr__(self, "crosses", crosses)
        object.__setattr__(self, "N", int(N))

    def _child(self, crosses, dst):
        """A pipe dream of the same size on the frozenset `crosses`: this
        one's crosses, maybe less one, plus the new cross `dst`.  Only `dst`
        is checked against the staircase; this one's were checked when it
        was built."""
        _check_in_staircase(dst, self.N)
        P = object.__new__(PipeDream)
        object.__setattr__(P, "crosses", crosses)
        object.__setattr__(P, "N", self.N)
        return P

    def __setattr__(self, *a):
        raise AttributeError("PipeDream is immutable")

    def __eq__(self, other):
        if isinstance(other, PipeDream):
            return self.crosses == other.crosses and self.N == other.N
        return NotImplemented

    def __hash__(self):
        return hash((self.crosses, self.N))

    def __len__(self):
        return len(self.crosses)

    def sorted_crosses(self):
        return sorted(self.crosses)

    def __repr__(self):
        return "PipeDream(%r, N=%d)" % (self.sorted_crosses(), self.N)

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
        u = list(range(1, self.N + 1))
        for a in self.reading_word():
            if u[a - 1] < u[a]:
                u[a - 1], u[a] = u[a], u[a - 1]
        while len(u) > 1 and u[-1] == len(u):
            u.pop()
        return tuple(u)

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
                if (r, c) in self.crosses:
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
        return len(self.crosses) == w.inversions()

    # -- moves ---------------------------------------------------------------

    def _chute_targets(self):
        """Yield (src, dst) for legal (K-)chute moves.

        A move needs a cross at (k, j+1), empty (k, i), (k+1, i), (k+1, j+1),
        and full rows k, k+1 of crosses across columns i+1..j.
        """
        P = self.crosses
        for (k, jp1) in P:
            j = jp1 - 1
            if j < 1:
                continue
            if (k + 1, jp1) in P:
                continue
            i = j
            while i >= 1:
                top, bot = (k, i) in P, (k + 1, i) in P
                if not top and not bot:
                    if (k + 1) + i <= self.N:
                        yield (k, jp1), (k + 1, i)
                    break
                if top and bot:
                    i -= 1
                    continue
                break

    def chute_moves(self):
        """All pipe dreams one chute move away (cross slides down-left)."""
        return self._moves(slide=True, copy=False)

    def k_chute_moves(self):
        """All pipe dreams one K-theoretic chute move away (cross copies
        down-left, original stays)."""
        return self._moves(slide=False, copy=True)

    def _moves(self, slide, copy):
        """The chute moves (`slide`) and K-chute moves (`copy`) from one walk
        of the chute targets; the K closure asks for both at once."""
        P = self.crosses
        out = []
        for src, dst in self._chute_targets():
            if slide:
                out.append(self._child(P - {src} | {dst}, dst))
            if copy:
                out.append(self._child(P | {dst}, dst))
        return out

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
        return "\n".join(" ".join("+" if (r, c) in self.crosses else "."
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

    def var(r):
        if labels and r > len(labels):
            raise ValueError("row %d has no label: %d labels given"
                             % (r, len(labels)))
        i = labels[r - 1] if labels else r
        if not 1 <= i <= nx:
            raise ValueError("row %d has label %d, outside 1..nx = %d"
                             % (r, i, nx))
        return i

    if ny:
        for r, c in (*cells, *nw):
            if c > nx:
                raise ValueError("cell (%d, %d) has column %d, outside "
                                 "1..nx = %d" % (r, c, c, nx))
        p = Poly.const(1, nx, ny)
        for r, c in cells:
            x, y = Poly.x(var(r), nx, ny), Poly.y(c, nx, ny)
            p = p * (x - y if mode == "double" else x + y - x * y)
        for r, c in nw:
            p = p * ((1 - Poly.x(var(r), nx, ny)) * (1 - Poly.y(c, nx, ny)))
        return p
    rows = {}
    for r, _ in cells:
        rows[r] = rows.get(r, 0) + 1
    exp = [0] * nx
    for r, m in rows.items():
        exp[var(r) - 1] += m
    p = Poly(nx, 0, {tuple(exp): 1})
    for r, _ in nw:
        p = p * (1 - Poly.x(var(r), nx))
    return p


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
    return _closure(w, PipeDream.chute_moves)


def enumerate_all(w):
    """All K-theoretic pipe dreams of w: closure of the top pipe dream
    under chute and K-chute moves."""
    return _closure(w, lambda P: P._moves(slide=True, copy=True))


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


def _closure(w, moves):
    w = w if isinstance(w, Permutation) else Permutation(w)
    out = sorted(move_closure(top_pipe_dream(w), moves),
                 key=PipeDream.sorted_crosses)
    wt = w.trim().one_line
    for P in out:
        if P._demazure() != wt:
            raise AssertionError("move closure escaped the permutation: %r" % (P,))
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


def _outside(cells, nw, n, k):
    """The cells and NW cells beyond row n or column k, sorted."""
    return sorted((r, c) for r, c in (*cells, *nw) if r > n or c > k)


class WordDiagram:
    """A parent diagram of u = std(conv(word)) viewed on the word's n x k
    rectangle, row r carrying x_{labels[r-1]}.  The constructor checks that
    every weight cell lies inside; `excess` counts them beyond `length` = len(u).
    A family supplies `_diagrams` (the parent enumeration), `_cells`, `_glyph`,
    `_json_cells`, `_field` and `_signed` (K weights carry (-1)^excess)."""

    __slots__ = ("diagram", "n", "k", "labels", "excess")
    _signed = False

    def __init__(self, diagram, n, k, labels, length):
        cells, nw = self._cells(diagram)
        bad = _outside(cells, nw, n, k)
        if bad:
            raise RectangularityViolation(
                "weight cells outside the %d x %d rectangle: %s" % (n, k, bad))
        for name, value in zip(WordDiagram.__slots__, (
                diagram, int(n), int(k), tuple(labels), len(cells) - length)):
            object.__setattr__(self, name, value)

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
                if _outside(*cls._cells(D), word.n, word.k)]


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
        return P.crosses, ()

    @property
    def crosses(self):
        return self.diagram.crosses

    def sorted_crosses(self):
        return sorted(self.crosses)

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
    mode = "double" if double else "single"
    return weight_sum((P.weight(mode) for P in enumerate_reduced(w)),
                      w.n, w.n if double else 0)


def pd_grothendieck(w, double=False):
    """Grothendieck polynomial as the signed weight sum over all pipe
    dreams: a diagram with c crosses contributes with sign (-1)^(c - len(w))."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    mode = "K-double" if double else "K-single"
    ell = w.inversions()
    return weight_sum((k_signed(P.weight(mode), len(P.crosses) - ell)
                       for P in enumerate_all(w)),
                      w.n, w.n if double else 0)


def word_pd_schubert(word):
    """Weight sum over the reduced word pipe dreams."""
    word = word if isinstance(word, Word) else Word(word)
    return weight_sum((P.weight("single")
                       for P in enumerate_word_pds(word, reduced=True)),
                      word.n)


def word_pd_grothendieck(word):
    """Signed weight sum over all word pipe dreams ((-1)^excess each)."""
    word = word if isinstance(word, Word) else Word(word)
    return weight_sum((k_signed(P.weight("K-single"), P.excess)
                       for P in enumerate_word_pds(word, reduced=False)),
                      word.n)
