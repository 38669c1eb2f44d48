"""Permutations, words over a bounded alphabet, and Fubini combinatorics.

Conventions used throughout the package:

* permutations are 1-indexed, in one-line notation;
* a word of length n over the alphabet [k] = {1, ..., k} is a sequence
  w = (w_1, ..., w_n) with 1 <= w_i <= k;
* a word is *Fubini* if every letter of [k] occurs at least once.

Both :class:`Permutation` and :class:`Word` are immutable and hashable, so
they can key memoization tables.
"""

from __future__ import annotations

import json
import math
from itertools import permutations as _all_perms


def _parse_one_line(data):
    """Accept an int-sequence, a digit string, or a comma-separated string."""
    if isinstance(data, str):
        s = data.strip()
        if "," in s:
            return tuple(int(t) for t in s.split(","))
        return tuple(int(ch) for ch in s)
    return tuple(int(v) for v in data)


def seq_to_string(seq):
    """Canonical string form: digit string if all entries fit one digit."""
    if all(1 <= v <= 9 for v in seq):
        return "".join(str(v) for v in seq)
    return ",".join(str(v) for v in seq)


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> w = Permutation("24153")
    >>> w(2), w.inverse()(2)
    (4, 4)
    >>> w.inversions()
    4
    >>> w.lehmer_code()
    (1, 2, 0, 1, 0)
    """

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        ol = _parse_one_line(one_line)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (one_line,))
        object.__setattr__(self, "one_line", ol)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self):
        return len(self.one_line)

    def __call__(self, i):
        return self.one_line[i - 1]

    def __len__(self):
        return len(self.one_line)

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return self.one_line == other.one_line
        return NotImplemented

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return "Permutation(%r)" % (seq_to_string(self.one_line),)

    def __str__(self):
        return seq_to_string(self.one_line)

    # -- basic operations -------------------------------------------------

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def compose(self, other):
        """self after other: (self*other)(i) = self(other(i)).

        The two permutations are padded to a common size first.
        """
        m = max(self.n, other.n)
        a = self.extend(m)
        b = other.extend(m)
        return Permutation(tuple(a(b(i)) for i in range(1, m + 1)))

    def __mul__(self, other):
        return self.compose(other)

    def inversions(self):
        ol = self.one_line
        return sum(
            1
            for i in range(len(ol))
            for j in range(i + 1, len(ol))
            if ol[i] > ol[j]
        )

    def lehmer_code(self):
        """c_i = #{j > i : w_j < w_i}; sums to the inversion number."""
        ol = self.one_line
        return tuple(
            sum(1 for j in range(i + 1, len(ol)) if ol[j] < ol[i])
            for i in range(len(ol))
        )

    def descents(self):
        ol = self.one_line
        return [i for i in range(1, len(ol)) if ol[i - 1] > ol[i]]

    def ascents(self):
        ol = self.one_line
        return [i for i in range(1, len(ol)) if ol[i - 1] < ol[i]]

    def swap(self, i):
        """Right multiplication by s_i: exchange positions i and i+1."""
        ol = list(self.one_line)
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return Permutation(ol)

    def demazure_right(self, i):
        """0-Hecke product w * s_i: apply s_i only if it increases length."""
        if self(i) < self(i + 1):
            return self.swap(i)
        return self

    def extend(self, m):
        """Pad with fixed points up to S_m."""
        if m < self.n:
            raise ValueError("cannot shrink; use trim()")
        if m == self.n:
            return self
        return Permutation(self.one_line + tuple(range(self.n + 1, m + 1)))

    def trim(self):
        """Drop trailing fixed points; any identity trims to S_1's."""
        ol = list(self.one_line)
        while len(ol) > 1 and ol[-1] == len(ol):
            ol.pop()
        return Permutation(ol)

    def stable_eq(self, other):
        """Equality up to trailing fixed points."""
        m = max(self.n, other.n)
        return self.extend(m).one_line == other.extend(m).one_line

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({"one_line": list(self.one_line)})

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text)["one_line"])

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n):
        """The longest element n, n-1, ..., 1 of S_n."""
        return cls(tuple(range(n, 0, -1)))


class Word:
    """A word w in [k]^n.

    The alphabet size k is part of the data (a word may fail to use its
    top letter, in which case it is not Fubini).

    >>> w = Word("21231", 3)
    >>> w.is_fubini()
    True
    >>> sorted(w.initial_positions())
    [1, 2, 4]
    >>> str(w.convexify())
    '22113'
    >>> str(w.standardize())
    '24153'
    """

    __slots__ = ("letters", "k")

    def __init__(self, letters, k=None):
        ls = _parse_one_line(letters)
        if k is None:
            k = max(ls) if ls else 0
        if any(not 1 <= v <= k for v in ls):
            raise ValueError("letters must lie in 1..%d: %r" % (k, letters))
        object.__setattr__(self, "letters", ls)
        object.__setattr__(self, "k", int(k))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    @property
    def n(self):
        return len(self.letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.letters == other.letters and self.k == other.k
        return NotImplemented

    def __hash__(self):
        return hash((self.letters, self.k))

    def __repr__(self):
        return "Word(%r, k=%d)" % (seq_to_string(self.letters), self.k)

    def __str__(self):
        return seq_to_string(self.letters)

    # -- structure ---------------------------------------------------------

    def is_fubini(self):
        return set(self.letters) == set(range(1, self.k + 1))

    def initial_positions(self):
        """Positions (1-indexed) where a letter occurs for the first time."""
        seen = set()
        out = []
        for i, v in enumerate(self.letters, start=1):
            if v not in seen:
                seen.add(v)
                out.append(i)
        return frozenset(out)

    def repeated_positions(self):
        return frozenset(range(1, self.n + 1)) - self.initial_positions()

    def first_occurrence(self, letter):
        """First position carrying `letter`, or None if absent."""
        for i, v in enumerate(self.letters, start=1):
            if v == letter:
                return i
        return None

    def convexify(self):
        """Group equal letters into consecutive runs, runs ordered by
        first occurrence.

        >>> str(Word("2442343").convexify())
        '2244433'
        """
        order = []
        counts = {}
        for v in self.letters:
            if v not in counts:
                counts[v] = 0
                order.append(v)
            counts[v] += 1
        out = []
        for v in order:
            out.extend([v] * counts[v])
        return Word(out, self.k)

    def is_convex(self):
        return self.letters == self.convexify().letters

    def associated_permutation(self):
        """The lex-minimal sigma with w(sigma(i)) = convexify(w)(i).

        sigma is the stable sort of positions by first-occurrence order of
        their letters; composing conv(w) with sigma^{-1} recovers w.

        >>> str(Word("2442343").associated_permutation())
        '1423657'
        >>> str(Word("21231").associated_permutation())
        '13254'
        """
        conv = self.convexify()
        available = {}
        for i, v in enumerate(self.letters, start=1):
            available.setdefault(v, []).append(i)
        sigma = []
        used = [False] * (self.n + 1)
        for v in conv.letters:
            for p in available[v]:
                if not used[p]:
                    used[p] = True
                    sigma.append(p)
                    break
        return Permutation(sigma)

    def standardize(self):
        """The standardization, a permutation in S_{n+k-m} (m = number of
        distinct letters used).

        Initial positions keep their letter; the r-th non-initial position
        receives k+r; trailing slots n+1, ..., n+k-m receive the missing
        letters in increasing order.

        >>> str(Word("2244433").standardize())
        '25467381'
        >>> str(Word("22113").standardize())
        '24153'
        """
        n, k = self.n, self.k
        init = self.initial_positions()
        used_letters = set(self.letters)
        missing = sorted(set(range(1, k + 1)) - used_letters)
        out = [0] * (n + len(missing))
        r = 0
        for i in range(1, n + 1):
            if i in init:
                out[i - 1] = self.letters[i - 1]
            else:
                r += 1
                out[i - 1] = k + r
        for t, j in enumerate(missing, start=1):
            out[n + t - 1] = j
        return Permutation(out)

    def rank_table(self):
        return RankTable(self)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({"letters": list(self.letters), "k": self.k})

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(d["letters"], d["k"])


class RankTable:
    """rk(w)[i, j] = #{l <= j : w_l <= i}, for i in [k], j in [n].

    Rows are indexed by letters, columns by positions, both 1-based.
    """

    def __init__(self, word):
        self.word = word
        k, n = word.k, word.n
        table = [[0] * (n + 1) for _ in range(k + 1)]
        for i in range(1, k + 1):
            acc = 0
            for j in range(1, n + 1):
                if word.letters[j - 1] <= i:
                    acc += 1
                table[i][j] = acc
        self._t = table

    def __getitem__(self, ij):
        i, j = ij
        return self._t[i][j]

    def rows(self):
        return [row[1:] for row in self._t[1:]]

    def __repr__(self):
        return "RankTable(%r)" % (str(self.word),)


# -- enumeration -----------------------------------------------------------


def stirling2(n, k):
    """Stirling number of the second kind, exactly.

    >>> stirling2(5, 3)
    25
    """
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    total = 0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k, i) * (k - i) ** n
    q, r = divmod(total, math.factorial(k))
    assert r == 0
    return q


def fubini_count(n, k):
    """Number of Fubini words in [k]^n (surjections [n] -> [k])."""
    return math.factorial(k) * stirling2(n, k)


def fubini_number(n):
    """Total number of Fubini words of length n over all alphabets [k]."""
    return sum(fubini_count(n, k) for k in range(0, n + 1)) if n else 1


def enumerate_fubini(n, k):
    """Yield all Fubini words in [k]^n in lexicographic order.

    This is a generator; materialize with list() when the full set is
    needed at once.
    """
    if k > n or k < 0:
        return

    def rec(prefix, missing):
        pos = len(prefix)
        if pos == n:
            if not missing:
                yield Word(prefix, k)
            return
        for v in range(1, k + 1):
            new_missing = missing - {v} if v in missing else missing
            # remaining slots must still cover all missing letters
            if n - pos - 1 >= len(new_missing):
                yield from rec(prefix + (v,), new_missing)

    yield from rec((), frozenset(range(1, k + 1)))


def all_permutations(n):
    """All of S_n, in lexicographic one-line order."""
    return [Permutation(p) for p in _all_perms(range(1, n + 1))]
