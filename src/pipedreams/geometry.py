"""Pattern matrices and the matrix reduction algorithm.

A word w in [k]^n has a k x n *pattern matrix* over {0, 1, *}: column j
carries a pivot 1 in row w_j; an initial column (first occurrence of its
letter) has free entries (*) at every earlier-introduced letter above the
pivot; a repeated column has free entries at every letter introduced before
the letter w_j — including rows below the pivot.

The *reduction algorithm* takes a k x n matrix with no zero column, over the
rationals or over F_p (p an odd prime), and produces the canonical
representative of its orbit under lower-unitriangular row operations and
column scalings, together with a word: scanning columns left to right, a
column with a nonzero entry in an unused row starts a new letter (minimal
such row; entries below it are eliminated and the column is rescaled to a
unit pivot), while a column supported on used rows repeats the
most-recently-introduced letter among its nonzero rows (rescaled only).
The canonical form fits the pattern matrix of its word, with the free
entries recording the actual values.

Matrices are tuples of row tuples; entries are `fractions.Fraction` over the
rationals and plain ints in [0, p) over F_p.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

from ._lattice_py import rank_mod_p
from .combinat import Word


class ReductionError(ValueError):
    """The matrix is outside the reduction algorithm's domain."""


# -- fields ---------------------------------------------------------------------


def _check_odd_prime(p):
    if p < 3 or p % 2 == 0 or any(p % q == 0 for q in range(3, int(p**0.5) + 1, 2)):
        raise ValueError("modulus must be an odd prime, got %r" % (p,))
    return p


def _to_field(value, p):
    """Coerce an int/Fraction into the working field."""
    if p is None:
        return Fraction(value)
    f = Fraction(value)
    den = f.denominator % p
    if den == 0:
        raise ReductionError("denominator divisible by %d" % p)
    return (f.numerator % p) * pow(den, -1, p) % p


def _inv(value, p):
    return 1 / value if p is None else pow(value, -1, p)


# -- matrices ---------------------------------------------------------------------


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


def coerce_matrix(mat, p=None):
    """Validate a rectangular k x n matrix and coerce entries to the field
    (Fraction, or int mod p for an odd prime p)."""
    if p is not None:
        _check_odd_prime(p)
    rows = [list(row) for row in mat]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    return _freeze([[_to_field(v, p) for v in row] for row in rows])


def matrix_to_json(mat):
    """Serialize a matrix as JSON rows of "num/den" strings."""
    return json.dumps([[str(v) for v in row] for row in mat])


def matrix_from_json(text):
    """Parse a JSON matrix of "num/den" strings (or numbers) to Fractions."""
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a list of rows")
    return coerce_matrix([[Fraction(str(v)) for v in row] for row in data])


def mat_mul(a, b, p=None):
    """Exact matrix product (same field on both sides)."""
    rows, inner, ncols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise ValueError("shape mismatch")
    out = []
    for i in range(rows):
        row = []
        for j in range(ncols):
            s = sum(a[i][t] * b[t][j] for t in range(inner))
            row.append(s % p if p is not None else s)
        out.append(row)
    return _freeze(out)


def random_matrix(n, k, rng, p=None):
    """A random k x n matrix with integer entries in [-9, 9] and no zero
    column (whole-matrix rejection)."""
    while True:
        cols = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        if all(any(v % p if p is not None else v for v in col) for col in cols):
            rows = [[cols[j][i] for j in range(n)] for i in range(k)]
            return coerce_matrix(rows, p)


def random_unitriangular(k, rng, p=None):
    """A random lower unitriangular k x k matrix (entries in [-9, 9])."""
    rows = [[1 if i == j else (rng.randint(-9, 9) if i > j else 0)
             for j in range(k)] for i in range(k)]
    return coerce_matrix(rows, p)


def random_diagonal(n, rng, p=None):
    """A random invertible n x n diagonal matrix (entries in +-[1, 9])."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        v = rng.choice([-1, 1]) * rng.randint(1, 9)
        rows[i][i] = v
    return coerce_matrix(rows, p)


# -- pattern matrices ---------------------------------------------------------------


class PatternMatrix:
    """The k x n {0, 1, *} pattern of a word's canonical matrix forms."""

    __slots__ = ("word", "rows")

    def __init__(self, word):
        word = word if isinstance(word, Word) else Word(word)
        k, n = word.k, word.n
        first = {a: word.first_occurrence(a) for a in range(1, k + 1)}
        initial = word.initial_positions()
        rows = [["0"] * n for _ in range(k)]
        for j, a in enumerate(word.letters, start=1):
            rows[a - 1][j - 1] = "1"
            for i in range(1, k + 1):
                if i == a:
                    continue
                fi = first[i]
                if fi is None:
                    continue
                if j in initial:
                    if i < a and fi < j:
                        rows[i - 1][j - 1] = "*"
                elif fi < first[a]:
                    rows[i - 1][j - 1] = "*"
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "rows", _freeze(rows))

    def __setattr__(self, *a):
        raise AttributeError("PatternMatrix is immutable")

    @property
    def k(self):
        return len(self.rows)

    @property
    def n(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        if isinstance(other, PatternMatrix):
            return self.rows == other.rows and self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.word))

    def star_count(self):
        return sum(row.count("*") for row in self.rows)

    def stars(self):
        """The (row, col) positions of the free entries, 1-indexed."""
        return [(i, j) for i, row in enumerate(self.rows, start=1)
                for j, g in enumerate(row, start=1) if g == "*"]

    def render(self):
        return "\n".join(" ".join(row) for row in self.rows)

    def to_json(self):
        return json.dumps({"word": str(self.word), "k": self.k,
                           "rows": [list(r) for r in self.rows]})

    def __repr__(self):
        return "PatternMatrix(%r)" % (self.word,)


def pattern_matrix(word):
    """The pattern matrix of a word."""
    return PatternMatrix(word)


def fits_pattern(mat, word):
    """Whether a matrix agrees with the word's pattern: 1-cells equal one,
    0-cells equal zero, *-cells unconstrained.  Shape mismatch is False."""
    pm = word if isinstance(word, PatternMatrix) else PatternMatrix(word)
    if len(mat) != pm.k or any(len(row) != pm.n for row in mat):
        return False
    for i in range(pm.k):
        for j in range(pm.n):
            g = pm.rows[i][j]
            v = mat[i][j]
            if g == "1" and v != 1:
                return False
            if g == "0" and v != 0:
                return False
    return True


# -- the reduction algorithm -------------------------------------------------------


def reduction(mat, p=None):
    """Canonical form and word of a matrix with no zero column.

    Returns (R, word) where R is the reduced matrix (unit pivots, zeros
    below initial pivots, repeated columns supported on earlier-introduced
    letters) and word is the Word in [k]^n it fits.  Over F_p pass the odd
    prime p; entries of R are then ints in [0, p).
    """
    m = [list(row) for row in coerce_matrix(mat, p)]
    k, n = len(m), len(m[0])
    for j in range(n):
        if all(m[i][j] == 0 for i in range(k)):
            raise ReductionError("column %d is zero" % (j + 1,))
    used = []          # letters in order of first introduction (0-indexed rows)
    letters = []
    for j in range(n):
        fresh = [i for i in range(k) if i not in used and m[i][j] != 0]
        if fresh:
            i = min(fresh)
            for l in range(i + 1, k):
                if m[l][j] != 0:
                    c = m[l][j] * _inv(m[i][j], p)
                    for t in range(n):
                        m[l][t] = m[l][t] - c * m[i][t]
                        if p is not None:
                            m[l][t] %= p
            used.append(i)
        else:
            nonzero = [i for i in used if m[i][j] != 0]
            if not nonzero:
                raise ReductionError(
                    "column %d is zero on all introduced rows" % (j + 1,))
            i = max(nonzero, key=used.index)
        scale = _inv(m[i][j], p)
        for l in range(k):
            m[l][j] = m[l][j] * scale
            if p is not None:
                m[l][j] %= p
        letters.append(i + 1)
    return _freeze(m), Word(letters, k)


def word_of_matrix(mat, p=None):
    """The word of the reduction algorithm (second output only)."""
    return reduction(mat, p)[1]


# -- cell dimension bookkeeping ------------------------------------------------------


def _sample_cell_points(word, pm, p, rng, samples):
    """Affine-chart coordinates of random points of the word's cell over
    F_p: random free entries, a random unitriangular row action, then each
    column is rescaled to 1 at its pivot row and the pivot rows dropped."""
    k, n = pm.k, pm.n
    stars = pm.stars()
    pivots = [word.letters[j] - 1 for j in range(n)]
    points = set()
    attempts = 0
    while len(points) < samples and attempts < 50 * samples:
        attempts += 1
        m = [[0] * n for _ in range(k)]
        for j in range(n):
            m[pivots[j]][j] = 1
        for (i, j) in stars:
            m[i - 1][j - 1] = rng.randrange(p)
        u = random_unitriangular(k, rng, p)
        um = [list(row) for row in mat_mul(u, m, p)]
        coords = []
        ok = True
        for j in range(n):
            piv = um[pivots[j]][j] % p
            if piv == 0:
                ok = False
                break
            inv = pow(piv, -1, p)
            coords.extend(um[i][j] * inv % p for i in range(k) if i != pivots[j])
        if ok:
            points.add(tuple(coords))
    return sorted(points)


def cell_dimension_report(word, p=1009, samples=120, seed=0):
    """The bookkeeping around a word's cell dimension.

    Returns a dict with the star count of the pattern matrix, the two
    closed-form expressions k*n - l and n*(k-1) - l for l the length of
    std(conv(word)), the combination C(n,2) + stars, whether these agree
    (`consistent`), and an empirical affine-span dimension of sampled cell
    points over F_p (`empirical_dimension`, an estimate that is reported,
    never asserted).
    """
    word = word if isinstance(word, Word) else Word(word)
    _check_odd_prime(p)
    pm = PatternMatrix(word)
    stars = pm.star_count()
    ell = word.convexify().standardize().inversions()
    n, k = word.n, word.k
    kn_minus_length = k * n - ell
    cell_dimension = n * (k - 1) - ell
    binom_plus_stars = comb(n, 2) + stars
    rng = random.Random(seed)
    points = _sample_cell_points(word, pm, p, rng, samples)
    if len(points) > 1:
        base = points[0]
        diffs = [[(c, (a - b) % p) for c, (a, b) in enumerate(zip(pt, base))
                  if (a - b) % p] for pt in points[1:]]
        empirical = rank_mod_p(diffs, len(base), p)
    else:
        empirical = 0
    report = {
        "word": str(word),
        "n": n,
        "k": k,
        "length_of_standardization": ell,
        "star_count": stars,
        "kn_minus_length": kn_minus_length,
        "cell_dimension": cell_dimension,
        "binom_plus_stars": binom_plus_stars,
        "consistent": stars == kn_minus_length
        and binom_plus_stars == cell_dimension,
        "empirical_dimension": empirical,
        "prime": p,
        "samples": len(points),
    }
    return report
