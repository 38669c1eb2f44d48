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
bits run in row-major order; sorting the ints by their ascending bit
indices gives the sorted cross list order.  The Demazure product reads each
row's bits from high to low.  `crosses`, the frozenset of (r, c) cells, is
built on first use.  The (K-)chute moves of Bergeron-Billey and
Knutson-Miller live in the test suite (`tests/oracles.py`), which checks
the enumeration against their closure.

Enumeration by rows (compatible sequences, Billey-Jockusch-Stanley 1993;
the Demazure product view of Knutson-Miller 2005).  Write delta(D) for the
Demazure product of a diagram D, * for the Demazure product, and 1 x v for
the permutation fixing 1 and sending i + 1 to v(i) + 1.  The reading word
of D is row 1 read right to left, then rows 2 and below.  A cross (r, c)
with r >= 2 is s_{r+c-1}; the same cross moved up one row, in the diagram
D' of rows 2, 3, ... (a staircase one smaller), is s_{r+c-2}.  So

    delta(D) = delta(C) * (1 x delta(D')),   delta(C) = s_{c_m} ... s_{c_1}

for C = {c_1 < ... < c_m} the columns of row 1.  As s * y is s y when s is
not a left descent of y and y when it is, s * y = z has the solutions z and
s z when s is a left descent of z, and none otherwise; a reduced diagram
allows only y = s z, its length growing by one.  Peeling the letters of
delta(C) off z one at a time thus finds every y with delta(C) * y in a set
X, and the diagrams whose delta lies in X are the disjoint union, over the
row-1 sets C, of the diagrams C u D' (D' moved down a row) with delta(D')
in X'_C = {v : delta(C) * (1 x v) in X}.  The recursion ends at the
identity, whose only diagram is the empty one.  `_first_rows` finds the C
with X'_C nonempty, and `_enumerate` recurses on the X'_C through
`_transfer`.  The sets hold inverse one-line tuples, so that s_c acting on
the left swaps two entries.

Every (C, x) pair is also checked forward (`_check_block`): delta(C) *
(1 x v), for v the permutation with inverse x, is computed letter by letter
from the right and must lie in X, each letter raising the length in the
reduced case.  By induction on the rows, every diagram returned has its
Demazure product in X, and a reduced one has as many crosses as its length;
at the top X = {w}.  Every letter of a word lies in the support of its
Demazure product, so a diagram of w in S_N keeps inside the staircase of
size N.

Order.  The bit indices of C u D' are those of C, all below N, then those
of D' raised by N.  Between two such lists the first differing index
decides; when C is a prefix of C2, the next index of C u D' is the first of
D', above every column, or there is none when D' is empty.  So the blocks
sort by (C, then -infinity if D' is empty and +infinity otherwise), and
inside a block the diagrams keep the order of the list of D'.  Only the row-1
sets that occur are sorted, and no diagram gets a sort key.

One engine, two memos.  `_transfer` evaluates every graph of rows: the
pipe dream lists (the blocks above) and sums, and the BPD lists and sums
of `bpd`.  It keeps each node's value, the root's too, per ((family,
reduced, stride N), node), in a `poly._Memo` as the polynomial cache does:
least recently used evicted first, at most MEMO_WEIGHT in weight per memo,
lists of ints in `_ROWS` and (terms, union) sums in `_SUMS`, both weighed
by `_int_words`; a heavier value is returned unstored.  The 720
permutations of S_6 share nearly all their rows below the first this way.
See `row_cache_info()` and `sum_cache_info()`; `pipedreams.clear_caches()`
empties both, and the polynomial cache.

Sums by rows.  The single and K-single sums list no diagram.  The same
first-row split gives, for x the inverse of w,

    sum_D wt(D) = sum_(C, v) x_1^|C| * (sum_D' wt(D') with x_i -> x_(i+1))

over the pairs (C, v) that `_first_rows` finds, v in X'_C, and the K sum
takes one more factor (-1)^|C| per row and (-1)^len(w) at the top, as a
diagram with c crosses is signed (-1)^(c - len(w)).  On packed `Poly` keys,
row r in field r - 1, the shift of variables is `key << 8`, so `_pd_sums`
adds `(key_v << 8) + |C|` over the keys of each v, one node per single
permutation (`_sum_by_rows`); `_check_block` certifies every (C, v) as for
the enumeration.  A sum is `(terms, union)`: the terms without the top
sign, and the OR of every weight and NW cell at stride N, which the word
rectangle check reads.

A word diagram views a diagram of u = std(conv(w)) on w's n x k rectangle,
row r carrying x_{sigma(r)} for sigma the associated permutation of w: see
`WordDiagram` and its families `WordPipeDream` and `bpd.WordBpd`.  The
views call the module-global enumeration of u on each call.  A word sum
is its family's sum of u, checked once against the rectangle on the
union, signed, and relabelled by `poly._word_poly` as every word
polynomial is.  It builds no view and lists no diagram.
"""

from __future__ import annotations

import json

from .combinat import (Frozen, Permutation, Word, _trimmed, checked_int,
                       convex_standardization, inverse_one_line, json_fields)
from .poly import EXP_MAX, Poly, _Memo, _word_poly

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
    return _trimmed(u) if N else ()     # N = 0: the empty permutation


class PipeDream(Frozen):
    """An immutable set of crosses in the staircase of size N, held as one
    int `bits`: the cross (r, c) is bit (r-1)*N + (c-1)."""

    _fields = ("bits", "N")
    __slots__ = _fields + ("_crosses",)

    def __new__(cls, crosses, N):
        checked_int("pipe dream", "N", N, 0)
        bits = 0
        for r, c in crosses:
            checked_int("pipe dream", "crosses", r)
            checked_int("pipe dream", "crosses", c)
            _check_in_staircase((r, c), N)
            bits |= 1 << (r - 1) * N + c - 1
        return cls._of(bits, N)

    @property
    def crosses(self):
        """The crosses as a frozenset of (row, column) cells, built on first
        use."""
        try:
            return self._crosses
        except AttributeError:
            return self._fill("_crosses", frozenset(_cells_of(self.bits, self.N)))

    def __len__(self):
        return self.bits.bit_count()

    def sorted_crosses(self):
        return _cells_of(self.bits, self.N)

    def __repr__(self):
        return "PipeDream(%r, N=%d)" % (self.sorted_crosses(), self.N)

    def _has(self, r, c):
        return self.bits >> (r - 1) * self.N + c - 1 & 1

    def _marks(self):
        """The weight cells and the NW cells as ints of bits: the crosses,
        and none."""
        return self.bits, 0

    # -- permutation ---------------------------------------------------------

    def permutation(self):
        """Demazure (0-Hecke) product of the reading word, trimmed."""
        return Permutation(self._demazure())

    def _demazure(self):
        """`permutation()`'s one-line tuple, with no `Permutation` built."""
        return _demazure(self.bits, self.N)

    def is_reduced(self, w=None):
        w = w or self.permutation()
        return len(self) == w.inversions()

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


def k_signed(p, excess):
    """p with the K sign (-1)^excess of a diagram whose weight cells exceed
    the length of its permutation by `excess`."""
    if excess < 0:
        raise ValueError("%d fewer weight cells than inversions" % -excess)
    return -p if excess % 2 else p


# the sum of weights, added into one term dict without copying a total
weight_sum = Poly.sum_of


# -- memos ------------------------------------------------------------------------

# The weight each row memo holds at most: in `_ROWS` the ints of the diagram
# lists and in `_SUMS` the term keys and unions of the sums, both weighed by
# `_int_words`; in the BPD row memo (`bpd._ROWS`) the rows it holds.
MEMO_WEIGHT = 20_000


def _int_words(ints):
    """The weight of a tuple of ints: one per int, or one if it is empty,
    and one more per full 64 bits it holds, so that neither a large stride
    nor many empty lists can fill memory."""
    return sum(b.bit_length() >> 6 for b in ints) + (len(ints) or 1)


# `_transfer`'s lists of ints and (terms, union) sums, per (tag, node).
_ROWS = _Memo(_int_words, MEMO_WEIGHT)
_SUMS = _Memo(lambda found: _int_words((*found[0], found[1])), MEMO_WEIGHT)


def row_cache_info():
    """The memo of diagram lists, of pipe dreams and of BPDs: its entries,
    the ints they hold, weighed by `_int_words` ("diagrams"), and its hits,
    misses and evictions since the last `clear_caches()`."""
    return _ROWS.info()


def sum_cache_info():
    """The same report for the memo of the sums by rows, of pipe dreams and
    of BPDs; its "diagrams" weigh the term keys and unions it holds as ints
    (`_int_words`)."""
    return _SUMS.info()


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
    """All reduced pipe dreams of w, in canonical (sorted cross list)
    order, by the row recursion of the module docstring."""
    return _enumerate(w, reduced=True)


def enumerate_all(w):
    """All K-theoretic pipe dreams of w, in canonical order, by the row
    recursion of the module docstring."""
    return _enumerate(w, reduced=False)


def _enumerate(w, reduced):
    w = w if isinstance(w, Permutation) else Permutation(w)
    N, X = w.n, frozenset({w.trim().inverse().one_line})
    bits = _transfer(                   # the identity's diagram is empty
        X, {frozenset({(1,)}): (0,)}, _ROWS, ("pd", reduced, N),
        lambda Y: _first_rows(Y, reduced),
        lambda Y, rows, done: _first_row_blocks(Y, rows, done, reduced, N))
    return [PipeDream._of(b, N) for b in bits]


def _first_row_blocks(X, rows, done, reduced, N):
    """The diagrams of X, as the blocks C | (D' << N) for (X'_C, C, C's
    bits) in `rows`, D' from the list done[X'_C], ordered as the module
    docstring says.  Each (C, x) pair is checked forward."""
    blocks = []
    for below, cols, row in rows:
        for x in below:
            _check_block(cols, x, X, reduced)
        sub = done[below]
        if sub[0] == 0:         # D' empty: C alone sorts before C's supersets
            blocks.append((cols + (0,), (row,)))
            sub = sub[1:]
        if sub:
            blocks.append((cols + (N,), [row | d << N for d in sub]))
    blocks.sort(key=lambda block: block[0])
    return tuple(bits for _, block in blocks for bits in block)


def _first_rows(X, reduced):
    """(X'_C, C, the int of C's column bits) for every row-1 column set C,
    ascending, whose preimage set X'_C is not empty: the inverses of the v
    with delta(C) * (1 x v) in X, for X and X'_C sets of inverse one-line
    tuples.  C is grown from its largest column down, peeling one letter
    at a time: s_c * y = z has the solutions z and s_c z (only s_c z when
    reduced) when s_c is a left descent of z, that is z^-1(c) > z^-1(c+1),
    and none otherwise.

    Only the y with y(1) = 1 are kept at the end.  s_c changes y(1) only
    when c = y(1) - 1, lowering it by one, and the columns still to come lie
    below the last one taken; so y can reach y(1) = 1 only through the
    columns y(1) - 1, ..., 1, each taken in turn.  Columns below y(1) - 1
    are not tried for y, and y itself is kept past column c only when
    c > y(1) - 1."""
    found = []
    stack = [((), X, max(map(len, X)))]
    while stack:
        cols, Y, top = stack.pop()
        below = frozenset(tuple(a - 1 for a in v[1:]) or (1,)
                          for v in Y if v[0] == 1)
        if below:
            found.append((below, cols[::-1],
                          sum(1 << c - 1 for c in cols)))
        steps = {}
        for v in Y:
            p = v.index(1)          # y(1) - 1, for y the inverse of v
            for c in range(p or 1, min(len(v), top)):
                if v[c - 1] > v[c]:
                    t = v[:c - 1] + (v[c], v[c - 1]) + v[c + 1:]
                    pre = steps.setdefault(c, set())
                    pre.add(_trimmed(t) if c + 1 == len(v) else t)
                    if not reduced and c > p:
                        pre.add(v)
        for c, pre in steps.items():
            stack.append((cols + (c,), frozenset(pre), c))
    return found


def _check_block(cols, x, X, reduced):
    """Raise unless delta(C) * (1 x v) has its inverse in X, for v the
    permutation with inverse x and C the ascending columns `cols`, and,
    when reduced, every letter of C raises the length."""
    y = [1] + [a + 1 for a in x]
    y += range(len(y) + 1, (cols[-1] if cols else 0) + 2)
    for c in cols:              # s_c * y, innermost letter first
        if y[c - 1] < y[c]:
            y[c - 1], y[c] = y[c], y[c - 1]
        elif reduced:
            raise AssertionError("row %r over %r is not reduced" % (cols, x))
    if _trimmed(y) not in X:
        raise AssertionError("row %r over %r leaves the set %r"
                             % (cols, x, sorted(X)))


# -- the row engine and the sums by rows ------------------------------------------


def _transfer(root, base, memo, tag, expand, join):
    """The value of `root` in a graph of rows ending at the nodes of `base`,
    a dict of their values.  `expand(node)` gives the node's parts, tuples
    whose first item is a child node, and `join(node, parts, done)` its
    value from `done`, the values of its children.  Nodes are joined
    children first on an explicit stack, so that 600 rows meet no
    recursion limit; each value is kept in `memo` under (tag, node), and
    leaves `done` once every node that reads it is joined.  Stored values
    are shared: callers copy them."""
    done, readers = dict(base), {}
    todo = [(root, None)]
    while todo:
        node, parts = todo.pop()
        if parts is None:
            if node in done:
                continue
            found = memo.lookup((tag, node))
            if found is not None:
                done[node] = found
                continue
            parts = expand(node)
            todo.append((node, parts))
            for part in parts:
                readers[part[0]] = readers.get(part[0], 0) + 1
                if part[0] not in done:
                    todo.append((part[0], None))
            continue
        done[node] = memo.store((tag, node), join(node, parts, done))
        for part in parts:
            readers[part[0]] -= 1
            if not readers[part[0]] and part[0] not in base:
                del readers[part[0]], done[part[0]]
    return done[root]


def _sum_by_rows(root, base, tag, expand, key_shift=0, bit_shift=0):
    """`_transfer` of (terms, union) sums, kept in `_SUMS`, from ({0: 1}, 0)
    at `base`.  A part (child, factor, cells) adds the child's terms, keys
    shifted left by `key_shift`, times the factor's (key, coefficient)
    pairs, and its union shifted by `bit_shift`, OR the cells; a child
    with no terms has no diagram and gives nothing."""
    def join(node, parts, done):
        terms, union = {}, 0
        for child, factor, cells in parts:
            below, below_union = done[child]
            if not below:
                continue
            union |= cells | below_union << bit_shift
            for e, a in below.items():
                e <<= key_shift
                for f, b in factor:
                    terms[e + f] = terms.get(e + f, 0) + a * b
        return {e: a for e, a in terms.items() if a}, union

    return _transfer(root, {base: ({0: 1}, 0)}, _SUMS, tag, expand, join)


def _pd_sums(u, reduced):
    """(terms, union) of the (reduced) pipe dreams of the permutation with
    one-line tuple u, at row stride N = len(u), by the first-row recursion
    of the module docstring on trimmed inverses: the K terms carry
    (-1)^crosses, not yet the top sign (-1)^len(u).  A row of more than
    EXP_MAX crosses is refused, as its packed exponent would reach the
    guard bit."""
    N, x = len(u), _trimmed(inverse_one_line(u))

    def expand(y):
        X = frozenset({y})
        parts = []
        for below, cols, row in _first_rows(X, reduced):
            m = len(cols)
            if m > EXP_MAX:
                raise ValueError("a row of %d crosses: a packed exponent "
                                 "is at most %d" % (m, EXP_MAX))
            factor = ((m, -1 if m % 2 and not reduced else 1),)
            for v in below:
                _check_block(cols, v, X, reduced)
                parts.append((v, factor, row))
        return parts

    return _sum_by_rows(x, (1,), ("pd", reduced, N), expand, 8, N)


def _sum_poly(found, nx, negate=False):
    """The polynomial in x_1..x_nx of the terms of a (terms, union) pair,
    negated if asked, with a term dict of its own."""
    terms, _ = found
    if negate:
        return Poly._of(nx, 0, {e: -a for e, a in terms.items()})
    return Poly._of(nx, 0, dict(terms))


# -- word diagrams ---------------------------------------------------------------


def _outside(bits, n, k, N):
    """The cells of `bits`, row stride N, beyond row n or column k, sorted."""
    if not N:
        return []       # a diagram of size 0 has no cells
    inside = ((1 << min(k, N)) - 1) * (((1 << n * N) - 1) // ((1 << N) - 1))
    return _cells_of(bits & ~inside, N)


def _rectangle_violation(cells, n, k):
    return RectangularityViolation(
        "weight cells outside the %d x %d rectangle: %s" % (n, k, cells))


def _word_u(word):
    """(word, u, labels) of a word: u = std(conv(word)) and the row labels,
    from one standardization."""
    word = word if isinstance(word, Word) else Word(word)
    u, sigma = convex_standardization(word.letters, word.k)
    return word, Permutation(u), tuple(p + 1 for p in sigma)


def _word_parents(family, word, reduced):
    """(word, u, labels, parents) of a word: `_word_u` and `family`'s parent
    diagrams of u."""
    word, u, labels = _word_u(word)
    return word, u, labels, family._diagrams(u, reduced)


class WordDiagram(Frozen):
    """A parent diagram of u = std(conv(word)) viewed on the word's n x k
    rectangle, row r carrying x_{labels[r-1]}.  The constructor checks that
    every weight cell and NW cell (the parent's `_marks()`) lies inside;
    `excess` counts the weight cells beyond `length` = len(u).  A family
    supplies `_diagrams` (the parent enumeration), `_sums` (the parents'
    (terms, union) by rows, for the word sums), `_glyph`, `_json_cells`,
    `_field` and `_signed` (K weights carry (-1)^excess)."""

    __slots__ = _fields = ("diagram", "n", "k", "labels", "excess")
    _signed = False

    def __new__(cls, diagram, n, k, labels, length):
        size, bad = cls._fit(diagram, n, k)
        if bad:
            raise _rectangle_violation(bad, n, k)
        return cls._of(diagram, int(n), int(k), tuple(labels), size - length)

    @staticmethod
    def _fit(D, n, k):
        """The number of D's weight cells, and its weight and NW cells
        beyond row n or column k, sorted."""
        cells, nw = D._marks()
        return cells.bit_count(), _outside(cells | nw, n, k, D.N)

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
        D = self.diagram
        cells, nw = (_cells_of(bits, D.N) for bits in D._marks())
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
        RectangularityViolation if a weight cell lies outside, then a
        ValueError naming both if w is not std(conv(word)) up to trailing
        fixed points."""
        word, u, labels = _word_u(word)
        w = w or D.permutation()
        view = cls(D, word.n, word.k, labels, w.inversions())
        if not w.stable_eq(u):
            raise ValueError("the diagram is of %s, not of std(conv(%s)) = %s"
                             % (w, word, u))
        return view

    @classmethod
    def _enumerate(cls, word, reduced):
        word, u, labels, parents = _word_parents(cls, word, reduced)
        ell = u.inversions()
        return [cls(D, word.n, word.k, labels, ell) for D in parents]

    @classmethod
    def _violations(cls, word, reduced=False):
        """The diagrams of standardize(convexify(word)) with a weight cell
        outside the word's rectangle (expected none; kept as an inspectable
        finding)."""
        word, _, _, parents = _word_parents(cls, word, reduced)
        return [D for D in parents if cls._fit(D, word.n, word.k)[1]]


class WordPipeDream(WordDiagram):
    """A pipe dream of std(conv(word)) on the word's rectangle; its crosses
    are the parent's.  Weights are sign-free, as for `PipeDream`: the K sum
    attaches (-1)^excess."""

    __slots__ = ()
    _field = "crosses"

    @staticmethod
    def _diagrams(u, reduced):
        return enumerate_reduced(u) if reduced else enumerate_all(u)

    _sums = staticmethod(_pd_sums)

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
    return _sum_poly(_pd_sums(w.one_line, True), w.n)


def pd_grothendieck(w, double=False):
    """Grothendieck polynomial as the signed weight sum over all pipe
    dreams: a diagram with c crosses contributes with sign (-1)^(c - len(w))."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    ell = w.inversions()
    if double:
        return weight_sum((k_signed(P.weight("K-double"), len(P) - ell)
                           for P in enumerate_all(w)), w.n, w.n)
    return _sum_poly(_pd_sums(w.one_line, False), w.n, ell % 2)


def _word_sum(family, word, reduced):
    """The (K-)single weight sum of `family`'s word diagrams of `word`,
    with no view built: `_word_poly` of the family's sum of u, checked once
    against the rectangle on its union and given the K sign of u."""
    word = word if isinstance(word, Word) else Word(word)

    def base(u):
        found = family._sums(u, reduced)
        bad = _outside(found[1], word.n, word.k, len(u))
        if bad:
            raise _rectangle_violation(bad, word.n, word.k)
        negate = not reduced and Permutation(u).inversions() % 2
        return _sum_poly(found, len(u), negate)

    return _word_poly(word, base)


def word_pd_schubert(word):
    """Weight sum over the reduced word pipe dreams."""
    return _word_sum(WordPipeDream, word, reduced=True)


def word_pd_grothendieck(word):
    """Signed weight sum over all word pipe dreams ((-1)^excess each)."""
    return _word_sum(WordPipeDream, word, reduced=False)
