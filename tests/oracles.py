"""Test oracles: brute-force counterparts of the row recursions and the
ideal rows, and the small helpers that only the tests use.

`packed_sum` adds the weights of a list of diagrams one by one, reading each
diagram's weight and NW cells as ints (`_marks()`); `marks_union` is the OR
of those cells.  The package's single and K-single sums list no diagram, so
these are their brute-force counterparts over `enumerate_*`.

`chute_moves` and `k_chute_moves` are the (K-)chute moves of
Bergeron-Billey and Knutson-Miller; the closure of the top pipe dream under
them is the counterpart of `enumerate_reduced`/`enumerate_all`.
`permutation_by_tracing` follows the pipes of a pipe dream, the counterpart
of the Demazure product `PipeDream.permutation()` reads off its crosses.

`bpd_closure` lists the BPDs of a permutation as the droop (and K-droop)
closure of its diagram BPD, tracing each one by `trace_pipes`, with no
row rule: the
counterpart of `enumerate_reduced_bpd`/`enumerate_all_bpd`.  `bpd_moves`
walks the droops and `droop` rewrites a grid by the table of side edits.

`trace_pipes` follows the pipes of a tile grid anti-diagonally, crossing a
pair at its first meeting and bumping it at every later one: the 0-Hecke
routing that `Bpd.permutation()` and `validate()` read off the row table.
`edges_match` checks a tile grid side by side, with no pipe followed.

`ideal_rows` forms every generator-term times monomial product of an ideal
of S_{n,k} and drops those with an exponent >= k: the counterpart of the
box rule of `rings._ideal_rows`.  `fubini_class_rows` projects the
Schubert polynomial of every Fubini word to S_{n,k}: the full rows whose
leads `rings._fubini_class_leads` reads.  `stacked_basis_report` folds class
rows into a lattice beside the I_e Hermite rows: the counterpart of the
unitriangular certificate of the Schubert basis in `rings.verify_rings`.
`column_e_expansion` is Lenart's closed form of the Grothendieck polynomial
of a one-column Grassmannian cycle in the e_j: the counterpart of
`poly.grassmannian_e_expansion`, which computes it.

The rest are plain helpers on the package's values, written as free
functions: descents and ascents, the right action of s_i and its 0-Hecke
form, word predicates and rank tables, the Fubini numbers and the Fubini
words in the order of the block walk, evaluation and substitution of
polynomials, the double polynomials of words, random
diagonal matrices and the special non-Fubini words.
"""

from itertools import permutations, product
from math import comb
from operator import add

from pipedreams.bpd import (_SIDES, _TILE_OF_SIDES, E_, N_, S_, W_, Bpd, Tile,
                            diagram_bpd)
from pipedreams.combinat import Permutation, Word, fubini_blocks, fubini_count
from pipedreams.geometry import coerce_matrix
from pipedreams.pipedream import (EXP_MAX, PipeDream, Poly, _label, _word_u,
                                  k_signed)
from pipedreams.poly import (_word_poly, grothendieck_double, schubert_double,
                             schubert_of_word)
from pipedreams.rings import IntegerLattice, SnkRing, _project_row


# -- permutations, words and counting -----------------------------------------


def descents(w):
    """The i in 1..n-1 with w(i) > w(i+1)."""
    ol = w.one_line
    return [i for i in range(1, len(ol)) if ol[i - 1] > ol[i]]


def ascents(w):
    """The i in 1..n-1 with w(i) < w(i+1)."""
    ol = w.one_line
    return [i for i in range(1, len(ol)) if ol[i - 1] < ol[i]]


def swap(w, i):
    """Right multiplication by s_i: exchange positions i and i+1."""
    ol = list(w.one_line)
    ol[i - 1], ol[i] = ol[i], ol[i - 1]
    return Permutation(ol)


def demazure_right(w, i):
    """0-Hecke product w * s_i: apply s_i only if it increases length."""
    return swap(w, i) if w(i) < w(i + 1) else w


def repeated_positions(word):
    """The positions (1-indexed) whose letter occurred before."""
    return frozenset(range(1, word.n + 1)) - word.initial_positions()


def is_convex(word):
    """Do equal letters of the word stand in consecutive runs?"""
    return word.letters == word.convexify().letters


def rank_table(word):
    """The rows of rk(w)[i, j] = #{l <= j : w_l <= i}, i in [k], j in [n]:
    row i - 1 lists j = 1..n."""
    return [[sum(1 for v in word.letters[:j] if v <= i)
             for j in range(1, word.n + 1)] for i in range(1, word.k + 1)]


def fubini_number(n):
    """Total number of Fubini words of length n over all alphabets [k]."""
    return sum(fubini_count(n, k) for k in range(0, n + 1)) if n else 1


def fubini_walk(n, k):
    """(letters, blocks, pi) of every Fubini word in [k]^n, in the order of
    ``rings._fubini_class_leads``: each partition of ``fubini_blocks(n, k)``
    times each order pi of [k], the letter pi[b] on the b-th block."""
    out = []
    for blocks in fubini_blocks(n, k):
        for pi in permutations(range(1, k + 1)):
            letters = [0] * n
            for v, block in zip(pi, blocks):
                for p in block:
                    letters[p] = v
            out.append((tuple(letters), blocks, pi))
    return out


def special_nonfubini_word(i, n, k):
    """The non-Fubini word missing the letter i whose Grothendieck polynomial
    is the i-th special ideal generator: 1, 2, .., i-1, i+1, .., k padded to
    length n with copies of its last letter (k >= 2)."""
    prefix = [j for j in range(1, k + 1) if j != i]
    return Word(prefix + [prefix[-1]] * (n - k + 1), k)


def random_diagonal(n, rng, p=None):
    """A random invertible n x n diagonal matrix (entries in +-[1, 9])."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return coerce_matrix(rows, p)


# -- polynomials ----------------------------------------------------------------


def evaluate(f, xs, ys=()):
    """Exact value of f at a point; xs and ys may hold ints or Fractions."""
    if len(xs) != f.nx or len(ys) != f.ny:
        raise ValueError("evaluation point arity mismatch")
    pt = tuple(xs) + tuple(ys)
    total = 0
    for e, c in f.items():
        for b, a in zip(pt, e):
            if a:
                c *= b ** a
        total += c
    return total


def permute_x(f, pi):
    """Substitute x_i := x_{pi(i)} for a permutation pi of [m], m <= nx."""
    pi = pi if isinstance(pi, Permutation) else Permutation(pi)
    if pi.n > f.nx:
        raise ValueError("permute_x: a permutation of %d letters, but "
                         "nx = %d" % (pi.n, f.nx))
    return f._relabel(f.nx, [p - 1 for p in pi.one_line])


def swap_x(f, i):
    """Exchange the variables x_i and x_{i+1}."""
    return permute_x(f, swap(Permutation.identity(i + 1), i))


def schubert_double_of_word(word):
    """The double Schubert polynomial of a word, by the relabelling that
    `schubert_of_word` applies."""
    return _word_poly(word, schubert_double)


def grothendieck_double_of_word(word):
    """The double Grothendieck polynomial of a word, by the same
    relabelling."""
    return _word_poly(word, grothendieck_double)


# -- pipe dreams ------------------------------------------------------------------


def word_row_labels(word):
    """Row r of a word diagram carries the variable x_{sigma(r)}, where
    sigma matches positions of convexify(word) to positions of word."""
    return _word_u(word)[2]


def reading_word(P):
    """Simple-reflection indices of the crosses of P: rows top to bottom,
    right to left."""
    return [r + c - 1
            for r, c in sorted(P.crosses, key=lambda rc: (rc[0], -rc[1]))]


def permutation_by_tracing(P):
    """Trace the pipes of P, resolving repeated crossings of a pair as bumps.

    Pipes enter at the west edge of each row heading east and exit at the
    north edge; cells are processed in anti-diagonal order so each crossing
    event sees the prior history of its two pipes.  For a reduced pipe dream
    this is plain pipe tracing.
    """
    N = P.N
    east_in = {(r, 1): r for r in range(1, N + 1)}  # pipe heading east
    north_in = {}                                   # pipe heading north
    exits = {}
    crossed = set()
    for t in range(1 - N, N):
        for r in range(N, 0, -1):
            c = t + r
            if not 1 <= c <= N:
                continue
            a = east_in.get((r, c))
            b = north_in.get((r, c))
            if a is None and b is None:
                continue
            if P._has(r, c) and a is not None and b is not None \
                    and frozenset((a, b)) not in crossed:
                crossed.add(frozenset((a, b)))
                go_east, go_north = a, b
            else:
                # an elbow, or a bump: a repeated crossing (or a lone pipe)
                go_east, go_north = b, a
            if go_east is not None:
                if c == N:
                    raise AssertionError("pipe escaped east; N too small")
                east_in[(r, c + 1)] = go_east
            if go_north is not None:
                if r == 1:
                    exits[go_north] = c
                else:
                    north_in[(r - 1, c)] = go_north
    return Permutation([exits[i] for i in range(1, N + 1)]).trim()


def chute_children(bits, N, slide, copy):
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


def chute_moves(P):
    """All pipe dreams one chute move away (a cross slides down-left)."""
    return [PipeDream._of(b, P.N) for b in chute_children(P.bits, P.N, True, False)]


def k_chute_moves(P):
    """All pipe dreams one K-theoretic chute move away (a cross copies
    down-left, the original staying)."""
    return [PipeDream._of(b, P.N) for b in chute_children(P.bits, P.N, False, True)]


# -- bumpless pipe dreams ---------------------------------------------------------


def tile_cells(tiles, kind):
    """The (r, c) of every `kind` tile, row-major, 1-indexed."""
    return [(r, c) for r, row in enumerate(tiles, start=1)
            for c, t in enumerate(row, start=1) if t is kind]


def droop(B, i, j, i2, j2):
    """The grid after drooping the SE elbow of B at (i, j) to (i2, j2),
    i2 > i and j2 > j, or None if the move does not apply.

    A droop moves the pipe off the top and left edges of the rectangle and
    onto its bottom and right edges, editing the sides of each tile
    (`bpd._SIDES`):

        cells                       sides dropped   sides added
        (i, j)                      S, E            -
        (i, j2)                     W               S
        (i2, j)                     N               E
        top edge   (i, j+1..j2-1)   E, W            -
        left edge  (i+1..i2-1, j)   N, S            -
        bottom edge                 -               E, W
        right edge                  -               N, S
        (i2, j2)                    -               N, W

    Each edit needs its dropped sides present and its added sides absent,
    and the rectangle may hold no elbow but (i, j) and (i2, j2).  The
    destination decides the move: a BLANK becomes NW (a droop), another
    pipe's SE elbow becomes CROSS (a K-droop, a second, resolved crossing
    of the pair).
    """
    g = [list(row) for row in B.tiles]
    for r in range(i, i2 + 1):
        for c in range(j, j2 + 1):
            if (g[r - 1][c - 1] in (Tile.SE, Tile.NW)
                    and (r, c) not in ((i, j), (i2, j2))):
                return None
    cols, rows = range(j + 1, j2), range(i + 1, i2)
    edits = [(i, j, S_ | E_, 0), (i, j2, W_, S_), (i2, j, N_, E_),
             (i2, j2, 0, N_ | W_)]
    edits += [(i, c, E_ | W_, 0) for c in cols]     # top edge
    edits += [(r, j, N_ | S_, 0) for r in rows]     # left edge
    edits += [(i2, c, 0, E_ | W_) for c in cols]    # bottom edge
    edits += [(r, j2, 0, N_ | S_) for r in rows]    # right edge
    for r, c, drop, add_ in edits:
        sides = _SIDES[g[r - 1][c - 1]]
        if sides & drop != drop or sides & add_:
            return None
        g[r - 1][c - 1] = _TILE_OF_SIDES[(sides ^ drop) | add_]
    return Bpd(g)


def trace_pipes(B):
    """Resolve the pipes.

    Returns (one_line, crossed, se_pipe):
      one_line  - w with w(r) = south column of the pipe exiting row r;
      crossed   - set of frozenset pipe pairs that genuinely cross;
      se_pipe   - pipe id occupying each SE elbow, keyed by (r, c).

    Tiles are processed in anti-diagonal order (increasing (N-r)+c), so
    each crossing sees the full prior history of its two pipes; at a
    cross tile whose pipes have already crossed, the tile acts as a
    bump.  This is the 0-Hecke resolution of redundant crossings.  A
    cell whose entering pipes are not exactly its tile's S/W sides
    raises ValueError.
    """
    N = B.N
    # inputs: south_in[(r,c)] pipe entering from the south edge,
    #         west_in[(r,c)] pipe entering from the west edge
    south_in = {(N, c): c for c in range(1, N + 1)}
    west_in = {}
    exits = {}
    crossed = set()
    se_pipe = {}
    for t in range(0, 2 * N - 1):
        for r in range(N, 0, -1):
            c = t - (N - r) + 1
            if not 1 <= c <= N:
                continue
            tile = B.tile(r, c)
            sides = _SIDES[tile]
            b = south_in.get((r, c))  # heading north
            a = west_in.get((r, c))   # heading east
            entering = (S_ if b is not None else 0) | (W_ if a is not None else 0)
            if entering != sides & (S_ | W_):
                raise ValueError("the pipes entering (%d,%d) do not fit its "
                                 "%s tile" % (r, c, tile.name))
            if tile is Tile.CROSS:
                pair = frozenset((a, b))
                if pair in crossed:
                    go_north, go_east = a, b   # bump
                else:
                    crossed.add(pair)
                    go_north, go_east = b, a   # transversal crossing
            else:
                pipe = a if b is None else b
                go_north = pipe if sides & N_ else None
                go_east = pipe if sides & E_ else None
                if tile is Tile.SE:
                    se_pipe[(r, c)] = pipe
            if go_north is not None:
                if r == 1:
                    raise ValueError("pipe escaped north at column %d" % c)
                south_in[(r - 1, c)] = go_north
            if go_east is not None:
                if c == N:
                    exits[r] = go_east
                else:
                    west_in[(r, c + 1)] = go_east
    one_line = [exits[r] for r in range(1, N + 1)]
    return one_line, crossed, se_pipe


def bpd_moves(B, droops, k_droops):
    """The droop moves (`droops`) and K-droop moves (`k_droops`) of B from
    one walk over (SE elbow, destination) pairs; the K closure asks for both.

    A BLANK destination makes a droop.  Another pipe's SE elbow makes a
    K-droop, whose two pipes must already cross.  Crossing somewhere is
    necessary but not sufficient: if the existing crossing lies downstream
    of the destination, the new tile would become the pair's first crossing
    and rewire the permutation.  K candidates that alter the traced
    permutation are therefore discarded; the source is traced once, for
    both the candidates and the permutation they must keep.
    """
    if k_droops:
        one_line, crossed, se_pipe = trace_pipes(B)
    N, out = B.N, []
    for i, j in tile_cells(B.tiles, Tile.SE):
        for i2 in range(i + 1, N + 1):
            for j2 in range(j + 1, N + 1):
                dest = B.tiles[i2 - 1][j2 - 1]
                onto_se = dest is Tile.SE
                if onto_se:
                    if not (k_droops and frozenset(
                            (se_pipe[i, j], se_pipe[i2, j2])) in crossed):
                        continue
                elif not (droops and dest is Tile.BLANK):
                    continue
                Q = droop(B, i, j, i2, j2)
                if Q is not None and (not onto_se
                                      or trace_pipes(Q)[0] == one_line):
                    out.append(Q)
    return out


def droop_moves(B):
    """All BPDs one droop move away, canonically ordered."""
    return sorted(bpd_moves(B, True, False), key=Bpd.code_string)


def k_droop_moves(B):
    """All BPDs one K-theoretic droop move away, canonically ordered."""
    return sorted(bpd_moves(B, False, True), key=Bpd.code_string)


# -- closures and row-recursion counterparts --------------------------------------


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
    reached is traced by `trace_pipes` and must have the permutation w;
    tracing raises on every grid `edges_match` rejects."""
    w = w if isinstance(w, Permutation) else Permutation(w)
    start = diagram_bpd(w)
    seen = move_closure(start, lambda B: bpd_moves(B, True, not reduced))
    for B in seen - {start}:
        if tuple(trace_pipes(B)[0]) != w.one_line:
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


def fubini_class_rows(n, k):
    """The sorted sparse S_{n,k} rows of the Schubert classes of the Fubini
    words of [k]^n, in the order of `fubini_walk`, from the word
    polynomials."""
    return [_project_row(schubert_of_word(Word(letters, k)), n, k)
            for letters, _, _ in fubini_walk(n, k)]


def column_e_expansion(i, n):
    """Lenart's expansion of G of the cycle (1, .., i-1, i+1, .., n, i) in
    e_j(x_1..x_{n-1}): {j: (-1)^(j-d) C(j-1, d-1) for d <= j <= n-1},
    d = n - i, and {0: 1} for d = 0 (the identity)."""
    d = n - i
    if d == 0:
        return {0: 1}
    return {j: (-1) ** (j - d) * comb(j - 1, d - 1) for j in range(d, n)}


def stacked_basis_report(ideal, class_rows, dim, expected):
    """The "schubert" report of `rings.verify_grothendieck_basis` decided
    by folding `class_rows` into one lattice with the Hermite rows of
    `ideal`: do they span Z^dim with unit pivots?"""
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
