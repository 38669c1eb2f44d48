"""Bumpless pipe dreams (BPDs), classical and K-theoretic.

A BPD of size N is an N x N grid of the six tiles below; pipes enter the
south boundary (one per column), travel monotonically north/east, and exit
the east boundary (one per row).  The pipe entering south column w(i) exits
east row i.

    BLANK   no pipe
    HOR     west-east strand
    VER     north-south strand
    CROSS   both strands, crossing transversally
    SE      elbow: enters south, turns east
    NW      elbow: enters west, turns north

Each tile is the set of cell sides its pipes use (`_SIDES`, inverted by
`_TILE_OF_SIDES`); the diagram BPD and the test oracles read that table
(`tests/oracles.py`: the droop moves, with their table of side edits, and
`trace_pipes`).  A non-CROSS tile carries its one pipe from its S or W side
to its N or E side, and the pipes entering a cell are exactly its S/W
sides.

The *diagram* BPD of w has an SE elbow at (i, w(i)), each pipe's vertical
strand below its elbow and its horizontal strand to the right; its blank
cells form the Rothe diagram of w.  Droops generate all reduced BPDs from
the diagram BPD, and droops with K-droops all K-theoretic BPDs; the package
lists them by rows (below), and the test suite keeps the droop closure as
the oracle of those lists.  A BPD's K weight carries its sign
(-1)^(blanks - len(w)), and so does that of a `WordBpd`, the
`pipedream.WordDiagram` view of a BPD of std(conv(word)) on the word's
first n rows and k columns.

A BPD reads its blanks and NW elbows in one pass over its tiles, on first
use, into two ints of bits (`Bpd._marks`, the cell (r, c) at bit
(r-1)*N + c-1, as for pipe dreams).  Only the double sums and the word
views read them; the single and K-single sums list no BPD.

Sums by rows (the row transfer of Brubaker-Frechette-Hardt-Tibor-Weber,
"Frozen pipes", 2020; K-BPDs as in Weigandt, "Bumpless pipe dreams encode
Grothendieck polynomials", 2020).  Label each pipe by its south column and
read the grid from the bottom row up, each row left to right.  Row r takes
pipes in from the south at a column set A, |A| = r, sends r - 1 of them
north and one east, and carries at most one pipe from the west (`_tile_moves`):

    carrying  in A   tile   north         carrying after
    no        yes    VER    the pipe      no
    no        yes    SE     -             the pipe
    no        no     BLANK  -             no
    a         b      CROSS  max(a, b)     min(a, b)
    a         no     NW     a             no
    a         no     HOR    -             a

The row must end carrying w(r), and row 1 then sends nothing north.
`Bpd._exits` reads a grid so, taking at each cell the entry whose tile is
the cell's: the carries left at the east edges are `permutation()`, and
`validate()` fails where no entry fits or a pipe leaves row 1 north.  Two
facts make this exact for K-BPDs with no memory of the pairs that cross:

* A CROSS tile with pipe a entering from the west and b from the south is
  a genuine crossing iff a < b, and a bump otherwise; either way max(a, b)
  leaves north.  Proof: two pipes share only CROSS tiles, so between two
  shared tiles one of them lies north-west of the other, and at a shared
  tile the north-western one enters from the west.  A genuine crossing
  swaps the sides and a bump keeps them.  At the bottom the smaller label
  lies west, so at a pair's first meeting a < b and the pair crosses;
  afterwards the larger label lies north-west, every later meeting has
  a > b, and the 0-Hecke routing bumps it, as the pair has met before.
  So the table, with no memory, routes the pipes as the 0-Hecke routing
  does (`tests/oracles.py::trace_pipes` remembers the pairs that cross
  and checks it).
* blanks = CROSS tiles.  Proof: the pipe from (N, p) to (r, N) moves only
  north and east, so it visits 2N - p - r + 1 cells; over the N pipes
  these add up to N(2N + 1) - N(N + 1) = N^2.  A CROSS tile is visited
  twice, a blank never, any other tile once, so N^2 = N^2 - blanks +
  crosses.  By the first fact a pair crosses genuinely at most once, and
  it does iff it ends inverted, so there are len(w) genuine crossings:
  blanks - len(w) counts the bumps, and the reduced BPDs are the K-BPDs
  with no bump.

So the (K-)single sums come from one scan per row: `_row_scans` lists, per
labelled state (the label on each column of A, or 0), every row that it can
scan to, with the label it sends east, the next state, the blanks, the NW
elbows, the bumps and the tiles, and keeps them in the BPD row memo `_ROWS`
(see `bpd_row_cache_info()`).  Only the order of the labels matters, so a
node holds them as ranks, with the ranks of w(1), .., w(r) that rows r, ..,
1 must send east.  `_bpd_sums` adds the rows by `pipedream._transfer`: row
r gives x_r^blanks, and in the K sum (-1)^blanks (1 - x_r)^NW, with no bump
when reduced; the top sign (-1)^len(w) makes the K sign (-1)^bumps.  A
state may have no completion (a pipe that must leave east has a smaller
label to its east); its sum is empty, as the terms of least degree of a
nonempty sum, from its diagrams with the fewest blanks, share one sign and
do not cancel, and its cells stay out of the union.

Lists by rows.  `_enumerate` joins the same rows through `_transfer`, in
the memo of diagram lists (`pipedream._ROWS`), into one int per BPD, whose
N^2 octal digits are its `code_string`: row 1 and column 1 the most
significant.  So ints of one size sort as their code strings, and a node's
join sorts the ints of its rows above, shifted left by 3N, OR its own row's
digits (each part's list is sorted, so the sort merges runs).  Every chain
of scanned rows from the root (row N, every column of A_N = [N] labelled by
itself, the rows to send w(1), .., w(N) east) to the base (no pipe, no row
left) is a BPD of w, and each BPD of w is one chain.  Edges match by
construction: a scan carries each cell's east side into the next cell,
starting with none, and the row above takes its south sides from the
columns this row sends north; row N takes every column from the south,
row 1 sends nothing north, as the base has no pipe, and each row exits east
carrying w(r).  Conversely each row of a BPD is one scan, as the table
lists every tile that fits the sides its pipes enter.  Ranking the labels
keeps their order, so by the first fact w(r) is the pipe that the 0-Hecke
routing sends out of row r.  A reduced chain has no bump, so by the second
fact it has len(w) blanks.
"""

from __future__ import annotations

import json
from enum import IntEnum
from math import comb

from .combinat import Frozen, Permutation, checked_int, json_fields
from .pipedream import (
    MEMO_WEIGHT,
    RectangularityViolation,
    WordDiagram,
    _cells_of,
    _sum_by_rows,
    _sum_poly,
    _transfer,
    _word_sum,
    diagram_weight,
    k_signed,
    weight_sum,
)
from .pipedream import _ROWS as _LISTS
from .poly import EXP_MAX, _Memo


class Tile(IntEnum):
    BLANK = 0
    HOR = 1
    VER = 2
    CROSS = 3
    SE = 4
    NW = 5


# which cell sides carry a pipe, per tile
N_, E_, S_, W_ = 1, 2, 4, 8
_SIDES = {
    Tile.BLANK: 0,
    Tile.HOR: E_ | W_,
    Tile.VER: N_ | S_,
    Tile.CROSS: N_ | E_ | S_ | W_,
    Tile.SE: S_ | E_,
    Tile.NW: N_ | W_,
}
_TILE_OF_SIDES = {sides: t for t, sides in _SIDES.items()}

_GLYPH = {
    Tile.BLANK: "·",   # ·
    Tile.HOR: "─",     # ─
    Tile.VER: "│",     # │
    Tile.CROSS: "┼",   # ┼
    Tile.SE: "╭",      # ╭
    Tile.NW: "╯",      # ╯
}

_NAME_TILE = {t.name: t for t in Tile}
_TILE_OF_DIGIT = {str(int(t)): t for t in Tile}


BpdRectangularityViolation = RectangularityViolation


class Bpd(Frozen):
    """An immutable N x N grid of tiles."""

    _fields = ("tiles", "N")
    __slots__ = _fields + ("_marked",)

    def __new__(cls, tiles):
        tiles = tuple(tuple(Tile(t) for t in row) for row in tiles)
        if any(len(row) != len(tiles) for row in tiles):
            raise ValueError("tile grid must be square")
        return cls._of(tiles, len(tiles))

    @classmethod
    def _of_code(cls, code, N):
        """The BPD of size N whose `code_string` is the int `code` written
        in N*N octal digits, unchecked."""
        digits = "%0*o" % (N * N, code)
        return cls._of(tuple(tuple(_TILE_OF_DIGIT[d] for d in digits[i:i + N])
                             for i in range(0, N * N, N or 1)),  # N = 0: no rows
                       N)

    def tile(self, r, c):
        return self.tiles[r - 1][c - 1]

    def code_string(self):
        """Row-major tile code; the canonical sort key for enumerations."""
        return "".join(str(int(t)) for row in self.tiles for t in row)

    def __repr__(self):
        return "Bpd(N=%d, %s)" % (self.N, self.code_string())

    # -- structural validation ----------------------------------------------

    def validate(self):
        """Check that the pipes fit edge to edge, enter from the south and
        leave to the east: True, or a ValueError naming where they do not."""
        self._exits()
        return True

    def _exits(self):
        """The label each row sends east, read by `_tile_moves` as the
        module docstring says, or a ValueError where the pipes do not fit."""
        south, exits = list(range(1, self.N + 1)), []
        for r in range(self.N, 0, -1):
            carry = 0
            for c, tile in enumerate(self.tiles[r - 1]):
                move = next((m for m in _tile_moves(carry, south[c])
                             if m[2] is tile), None)
                if move is None:
                    raise ValueError("the pipes entering (%d,%d) do not fit "
                                     "its %s tile" % (r, c + 1, tile.name))
                carry, south[c], _ = move
                if r == 1 and south[c]:
                    raise ValueError("pipe escaped north at column %d" % (c + 1))
            exits.append(carry)
        return exits[::-1]

    def permutation(self):
        """w with w(r) = the south column of the pipe exiting east row r.

        >>> diagram_bpd("2143").permutation()
        Permutation('2143')
        """
        return Permutation(self._exits())

    # -- cells of interest -------------------------------------------------------

    def _marks(self):
        """The blanks and the NW elbows as two ints, the cell (r, c) at bit
        (r-1)*N + c-1, read in one pass over the tiles on first use."""
        try:
            return self._marked
        except AttributeError:
            blank = nw = 0
            bit = 1
            for row in self.tiles:
                for t in row:
                    if t is Tile.BLANK:
                        blank |= bit
                    elif t is Tile.NW:
                        nw |= bit
                    bit <<= 1
            return self._fill("_marked", (blank, nw))

    def blanks(self):
        return _cells_of(self._marks()[0], self.N)

    def nw_elbows(self):
        return _cells_of(self._marks()[1], self.N)

    def is_reduced(self, w=None):
        w = w or self.permutation()
        return len(self.blanks()) == w.inversions()

    # -- weights -----------------------------------------------------------------

    def weight(self, mode="single", w=None, nx=None, labels=None):
        """Weight of the BPD: `diagram_weight` of its blanks and NW elbows.

        single:   prod_blank x_r                       (reduced sums)
        double:   prod_blank (x_r - y_c)
        K-single: (-1)^(blanks - len(w)) prod_blank x_r prod_NW (1 - x_r)
        K-double: same shape with x_r (+) y_c = x_r + y_c - x_r y_c and
                  NW factors (1 - x_r)(1 - y_c) expanded.
        """
        blanks = self.blanks()
        p = diagram_weight(mode, nx or self.N, blanks, labels, self.nw_elbows())
        if mode.startswith("K"):
            p = k_signed(p, len(blanks) - (w or self.permutation()).inversions())
        return p

    # -- rendering -------------------------------------------------------------

    def render(self):
        return "\n".join(" ".join(_GLYPH[t] for t in row) for row in self.tiles)

    def to_json(self):
        return json.dumps({"n": self.N,
                           "tiles": [[t.name for t in row] for row in self.tiles]})

    @classmethod
    def from_json(cls, text):
        tiles, n = json_fields(text, "BPD", "tiles", "n")
        if checked_int("BPD", "n", n, 0) != len(tiles):
            raise ValueError("BPD JSON has n = %r but len(tiles) = %d"
                             % (n, len(tiles)))
        for r, row in enumerate(tiles, 1):
            for c, name in enumerate(row, 1):
                if name not in _NAME_TILE:
                    raise ValueError("BPD JSON has unknown tile %r at (%d, %d)"
                                     % (name, r, c))
        return cls([[_NAME_TILE[s] for s in row] for row in tiles])


# -- construction and enumeration ------------------------------------------------


def diagram_bpd(w):
    """The diagram BPD: SE elbow at (i, w(i)), each pipe's vertical strand
    below it and horizontal strand right of it (the blanks form the Rothe
    diagram)."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    N = w.n
    winv = w.inverse()
    g = []
    for r in range(1, N + 1):
        row = []
        for c in range(1, N + 1):
            vert = N_ | S_ if winv(c) < r else 0
            horiz = E_ | W_ if w(r) < c else 0
            row.append(Tile.SE if c == w(r) else _TILE_OF_SIDES[vert | horiz])
        g.append(row)
    B = Bpd(g)
    B.validate()
    return B


def enumerate_reduced_bpd(w):
    """All reduced BPDs of w, in `code_string` order, by rows."""
    return _enumerate(w, reduced=True)


def enumerate_all_bpd(w):
    """All K-theoretic BPDs of w, in `code_string` order, by rows."""
    return _enumerate(w, reduced=False)


def _enumerate(w, reduced):
    w = w if isinstance(w, Permutation) else Permutation(w)
    N = w.n

    def join(node, rows, done):
        return tuple(sorted(grid << 3 * N | code for child, _, _, code in rows
                            for grid in done[child]))

    codes = _transfer((tuple(range(1, N + 1)), w.one_line),
                      {((0,) * N, ()): (0,)}, _LISTS, ("bpd", reduced, N),
                      lambda node: _row_parts(node, reduced), join)
    return [Bpd._of_code(code, N) for code in codes]


# -- sums by rows -----------------------------------------------------------------

# The rows of each labelled state, per state (see `_row_scans`).
_ROWS = _Memo(len, MEMO_WEIGHT)


def bpd_row_cache_info():
    """The BPD row memo: its entries, the rows they hold ("diagrams"), and
    its hits, misses and evictions since the last `clear_caches()`."""
    return _ROWS.info()


def _tile_moves(carry, b):
    """(label carried east, label sent north, tile) for each tile that fits
    a cell entered by `carry` from the west and `b` from the south, 0 for
    no pipe: the tile table of the module docstring."""
    if not carry:
        return ((0, b, Tile.VER), (b, 0, Tile.SE)) if b else ((0, 0, Tile.BLANK),)
    if b:
        return ((min(carry, b), max(carry, b), Tile.CROSS),)
    return ((0, carry, Tile.NW), (carry, 0, Tile.HOR))


def _row_scans(s):
    """Every row that the labelled state s (a label per column, 0 for no
    pipe) scans to by the tile table `_tile_moves`: (label sent east, next
    state with the labels above it lowered by one, blanks, NW elbows,
    bumps, tiles), the cells as ints of column bits, the tiles one octal
    digit each, column 1 first.  Memoized per state in `_ROWS`."""
    found = _ROWS.lookup(s)
    if found is not None:
        return found
    partial = [(0, (), 0, 0, 0, 0)]  # carry, north, blanks, NW, bumps, tiles
    for c, b in enumerate(s):
        bit, grown = 1 << c, []
        for carry, north, blank, nw, bumps, code in partial:
            grown += ((east, north + (up,), blank | bit * (t is Tile.BLANK),
                       nw | bit * (t is Tile.NW),
                       bumps + (t is Tile.CROSS and carry > b), code << 3 | t)
                      for east, up, t in _tile_moves(carry, b))
        partial = grown
    return _ROWS.store(s, tuple(
        (e, tuple(a - (a > e) for a in north), blank, nw, bumps, code)
        for e, north, blank, nw, bumps, code in partial if e))


def _row_parts(node, reduced):
    """(node of the rows above, blanks, NW elbows, tiles) of every row that
    the node (s, t) scans to, sending t[-1] east, with no bump if reduced."""
    s, t = node
    e = t[-1]
    below = tuple(a - (a > e) for a in t[:-1])
    return [((north, below), blank, nw, code)
            for sent, north, blank, nw, bumps, code in _row_scans(s)
            if sent == e and not (reduced and bumps)]


def _bpd_sums(u, reduced):
    """(terms, union) of the (reduced) BPDs of the permutation with one-line
    tuple u, by rows from the bottom: the K terms carry (-1)^blanks, not yet
    the top sign (-1)^len(u)."""
    N = len(u)

    def expand(node):
        r = len(node[1])
        field, parts = 8 * (r - 1), []
        for child, blank, nw, _ in _row_parts(node, reduced):
            b, k = blank.bit_count(), 0 if reduced else nw.bit_count()
            if b + k > EXP_MAX:
                raise ValueError("a row of %d blanks and NW elbows: a packed "
                                 "exponent is at most %d" % (b + k, EXP_MAX))
            sign = -1 if b % 2 and not reduced else 1
            factor = tuple(((b + j) << field, sign * (-1) ** j * comb(k, j))
                           for j in range(k + 1))
            parts.append((child, factor, (blank | nw) << (r - 1) * N))
        return parts

    return _sum_by_rows((tuple(range(1, N + 1)), tuple(u)), ((0,) * N, ()),
                        ("bpd", reduced, N), expand)


# -- word BPDs ----------------------------------------------------------------------


class WordBpd(WordDiagram):
    """A BPD of std(conv(word)) on the word's rectangle: its tiles are the
    parent's first n rows and k columns, and every blank and NW elbow lies
    among them.  K weights carry (-1)^excess, as for `Bpd`."""

    __slots__ = ()
    _field = "tiles"
    _signed = True

    @staticmethod
    def _diagrams(u, reduced):
        return enumerate_reduced_bpd(u) if reduced else enumerate_all_bpd(u)

    _sums = staticmethod(_bpd_sums)

    @property
    def tiles(self):
        return tuple(row[:self.k] for row in self.diagram.tiles[:self.n])

    code_string = Bpd.code_string

    def blanks(self):
        return self.diagram.blanks()

    def nw_elbows(self):
        return self.diagram.nw_elbows()

    def _glyph(self, r, c):
        return _GLYPH[self.diagram.tile(r, c)]

    def _json_cells(self):
        return [[t.name for t in row] for row in self.tiles]

    def __repr__(self):
        return "WordBpd(n=%d, k=%d, %s)" % (self.n, self.k, self.code_string())


truncate_to_word_bpd = WordBpd._truncate
check_word_bpd_rectangularity = WordBpd._violations


def enumerate_word_bpds(word, reduced=True):
    """Word BPDs: the BPDs of standardize(convexify(word)), each viewed on
    the word's rectangle."""
    return WordBpd._enumerate(word, reduced)


# -- generating functions -------------------------------------------------------


def bpd_schubert(w, double=False):
    """Schubert polynomial as the blank-weight sum over reduced BPDs."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    if not double:
        return _sum_poly(_bpd_sums(w.one_line, True), w.n)
    return weight_sum((B.weight("double") for B in enumerate_reduced_bpd(w)), w.n, w.n)


def bpd_grothendieck(w, double=False):
    """Grothendieck polynomial as the wt_K sum over all BPDs, each signed
    (-1)^(blanks - len(w))."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    if not double:
        return _sum_poly(_bpd_sums(w.one_line, False), w.n, w.inversions() % 2)
    return weight_sum((B.weight("K-double", w=w) for B in enumerate_all_bpd(w)),
                      w.n, w.n)


def word_bpd_schubert(word):
    """Weight sum over the reduced word BPDs."""
    return _word_sum(WordBpd, word, reduced=True)


def word_bpd_grothendieck(word):
    """wt_K sum over all word BPDs (signs intrinsic via excess)."""
    return _word_sum(WordBpd, word, reduced=False)
