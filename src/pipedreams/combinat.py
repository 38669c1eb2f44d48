"""Permutations, words over a bounded alphabet, and Fubini combinatorics.

Conventions used throughout the package:

* permutations are 1-indexed, in one-line notation;
* a word of length n over the alphabet [k] = {1, ..., k} is a sequence
  w = (w_1, ..., w_n) with 1 <= w_i <= k;
* a word is *Fubini* if every letter of [k] occurs at least once.

Both :class:`Permutation` and :class:`Word` are immutable and hashable, so
they can key memoization tables.  Every value class of the package derives
from :class:`Frozen`, which refuses attribute writes and deletions.
"""

from __future__ import annotations

import json
import math
from itertools import permutations as _all_perms


def json_fields(text, kind, *names):
    """The named fields of the JSON object `text` describing a `kind`; a
    ValueError names the first field that is missing."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("%s JSON must be an object" % kind)
    for name in names:
        if name not in d:
            raise ValueError("%s JSON lacks the %r field" % (kind, name))
    return [d[name] for name in names]


def checked_int(kind, name, value, low=None):
    """`value` if it is an int (a bool is not one) and at least `low`; else
    a ValueError naming the field `name` of a `kind` and the value."""
    if type(value) is not int or low is not None and value < low:
        raise ValueError("%s %s: %r is not an int%s" % (
            kind, name, value, "" if low is None else " >= %d" % low))
    return value


#: Miller-Rabin with the first 13 primes as bases decides primality exactly
#: below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def checked_prime(kind, name, value, low=2):
    """`value` if it is a prime int >= `low`; else a ValueError naming the
    field `name` of a `kind` and the value, as ``checked_int`` does.  A
    value at or past ``_PRIME_BOUND`` (about 3.3 * 10^24) is refused, as
    the test is exact only below it."""
    checked_int(kind, name, value, low)
    if value >= _PRIME_BOUND:
        raise ValueError("%s %s: %r is too large to be tested for a prime "
                         "(the bound is %d)"
                         % (kind, name, value, _PRIME_BOUND))
    if not _is_prime(value):
        raise ValueError("%s %s: %r is not a prime" % (kind, name, value))
    return value


def _is_prime(p):
    """Deterministic Miller-Rabin over ``_PRIME_BASES``, for p below
    ``_PRIME_BOUND``."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _parse_one_line(data, kind, name):
    """Accept an int-sequence, a digit string, or a comma-separated string."""
    if isinstance(data, str):
        s = data.strip()
        if "," in s:
            return tuple(int(t) for t in s.split(","))
        return tuple(int(ch) for ch in s)
    return tuple(checked_int(kind, name, v) for v in data)


def inverse_one_line(one_line):
    """The one-line tuple of the inverse of a permutation's one-line
    tuple."""
    inv = [0] * len(one_line)
    for i, v in enumerate(one_line, start=1):
        inv[v - 1] = i
    return tuple(inv)


def _trimmed(t):
    """The one-line sequence t as a tuple without trailing fixed points; an
    identity, the empty one too, trims to (1,)."""
    n = len(t)
    while n > 1 and t[n - 1] == n:
        n -= 1
    return tuple(t[:n]) or (1,)


def seq_to_string(seq):
    """Canonical string form: digit string if all entries fit one digit."""
    if all(1 <= v <= 9 for v in seq):
        return "".join(str(v) for v in seq)
    return ",".join(str(v) for v in seq)


_new, _setattr = object.__new__, object.__setattr__


class Frozen:
    """The immutability of the package's values, which its caches share with
    every caller.  A subclass names its state in `_fields` and lists them
    in `__slots__`, with any lazy slot after them.  `_of(*fields)` builds a
    value unchecked and is the only writer of fields; pickling and copying
    rebuild a value from its fields through `_of`.  A lazy slot stays unset
    until `_fill` writes it on first use, and is never pickled.  Writing or
    deleting an attribute raises AttributeError.  Two values are equal when
    they are of one type and their fields are equal, and hash alike then."""

    __slots__ = ()
    _fields = ()

    @classmethod
    def _of(cls, *values):
        """The value whose `_fields` are `values`, unchecked."""
        obj = _new(cls)
        for name, value in zip(cls._fields, values):
            _setattr(obj, name, value)
        return obj

    def _fill(self, name, value):
        """Write the lazy slot `name` once; return `value`."""
        _setattr(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self._of, self._values()


class Permutation(Frozen):
    """A permutation of {1, ..., n} in one-line notation.

    >>> w = Permutation("24153")
    >>> w(2), w.inverse()(2)
    (4, 1)
    >>> w.inversions()
    4
    >>> w.lehmer_code()
    (1, 2, 0, 1, 0)
    """

    __slots__ = _fields = ("one_line",)

    def __new__(cls, one_line):
        ol = _parse_one_line(one_line, "permutation", "one_line")
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (one_line,))
        return cls._of(ol)

    @property
    def n(self):
        return len(self.one_line)

    def __call__(self, i):
        return self.one_line[i - 1]

    def __len__(self):
        return len(self.one_line)

    def __repr__(self):
        return "Permutation(%r)" % (seq_to_string(self.one_line),)

    def __str__(self):
        return seq_to_string(self.one_line)

    # -- basic operations -------------------------------------------------

    def inverse(self):
        return Permutation(inverse_one_line(self.one_line))

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

    def extend(self, m):
        """Pad with fixed points up to S_m."""
        if m < self.n:
            raise ValueError("cannot shrink; use trim()")
        if m == self.n:
            return self
        return Permutation(self.one_line + tuple(range(self.n + 1, m + 1)))

    def trim(self):
        """Drop trailing fixed points; any identity trims to S_1's."""
        return Permutation(_trimmed(self.one_line))

    def stable_eq(self, other):
        """Equality up to trailing fixed points."""
        m = max(self.n, other.n)
        return self.extend(m).one_line == other.extend(m).one_line

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({"one_line": list(self.one_line)})

    @classmethod
    def from_json(cls, text):
        return cls(*json_fields(text, "permutation", "one_line"))

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n):
        """The longest element n, n-1, ..., 1 of S_n."""
        return cls(tuple(range(n, 0, -1)))


class Word(Frozen):
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
    >>> str(w.convexify().standardize())
    '24153'
    """

    __slots__ = _fields = ("letters", "k")

    def __new__(cls, letters, k=None):
        ls = _parse_one_line(letters, "word", "letters")
        if k is None:
            k = max(ls) if ls else 0
        checked_int("word", "k", k, 0)
        if any(not 1 <= v <= k for v in ls):
            raise ValueError("letters must lie in 1..%d: %r" % (k, letters))
        return cls._of(ls, k)

    @property
    def n(self):
        return len(self.letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

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

    def associated_permutation(self):
        """The lex-minimal sigma with w(sigma(i)) = convexify(w)(i).

        sigma is the stable sort of positions by first-occurrence order of
        their letters; composing conv(w) with sigma^{-1} recovers w.

        >>> str(Word("2442343").associated_permutation())
        '1423657'
        >>> str(Word("21231").associated_permutation())
        '13254'
        """
        _, sigma = convex_standardization(self.letters, self.k)
        return Permutation([p + 1 for p in sigma])

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

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({"letters": list(self.letters), "k": self.k})

    @classmethod
    def from_json(cls, text):
        return cls(*json_fields(text, "word", "letters", "k"))


def convex_standardization(letters, k):
    """(u, sigma) of a word in [k]^n given as a tuple of letters, in one pass.

    u is std(conv(w)) as a one-line tuple, and sigma is the associated
    permutation 0-based: sigma[j] is the position in w of the j-th letter of
    conv(w).  The same as ``Word(letters, k).convexify().standardize()`` and
    ``Word(letters, k).associated_permutation()``, without building either.

    >>> convex_standardization((2, 1, 2, 3, 1), 3)
    ((2, 4, 1, 5, 3), (0, 2, 1, 4, 3))
    """
    runs = {}                   # letter -> its positions; first-occurrence order
    for p, v in enumerate(letters):
        runs.setdefault(v, []).append(p)
    sigma = tuple(p for positions in runs.values() for p in positions)
    return standardized_runs(runs.keys(), map(len, runs.values()), k), sigma


def standardized_runs(letters, sizes, k):
    """std(conv(w)) as a one-line tuple, for the word w in [k]^n whose j-th
    distinct letter, in order of first occurrence, is letters[j], occurring
    sizes[j] times: each run of conv(w) keeps its letter first, the repeats
    take k+1, k+2, .. in turn, and the letters w lacks follow, ascending."""
    u, r = [], k                # r: the last number handed to a repeat
    for v, m in zip(letters, sizes):
        u.append(v)
        u.extend(range(r + 1, r + m))
        r += m - 1
    u.extend(v for v in range(1, k + 1) if v not in letters)
    return tuple(u)


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


def enumerate_fubini(n, k):
    """Yield all Fubini words in [k]^n in lexicographic order.

    This is a generator; materialize with list() when the full set is
    needed at once.
    """
    return (Word(letters, k) for letters in fubini_letters(n, k))


def fubini_letters(n, k):
    """Yield the letter tuples of the Fubini words in [k]^n, in the order of
    ``enumerate_fubini``."""
    if k > n or k < 0:
        return

    def rec(prefix, missing):
        pos = len(prefix)
        if pos == n:
            if not missing:
                yield prefix
            return
        for v in range(1, k + 1):
            new_missing = missing - {v} if v in missing else missing
            # remaining slots must still cover all missing letters
            if n - pos - 1 >= len(new_missing):
                yield from rec(prefix + (v,), new_missing)

    yield from rec((), frozenset(range(1, k + 1)))


def fubini_blocks(n, k):
    """Yield the set partitions of the positions 0..n-1 into exactly k
    blocks, each a tuple of blocks in ascending order of their least
    position, each block a tuple of ascending positions.

    The Fubini words in [k]^n are these partitions times the orders of
    [k]: the word whose letter at every position of the b-th block is
    pi[b], for pi a permutation of 1..k.  Its letters occur first in the
    order of the blocks, so conv(w) places the blocks one after another.
    The walk is the restricted-growth recursion: position p joins an open
    block or opens the next one, while the n - p positions left can still
    open the k - (blocks open) blocks missing.

    >>> list(fubini_blocks(3, 2))
    [((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))]
    """
    if not 0 <= k <= n or n and not k:
        return

    def rec(p, blocks):
        if p == n:
            yield tuple(map(tuple, blocks))
            return
        if n - p > k - len(blocks):
            for block in blocks:
                block.append(p)
                yield from rec(p + 1, blocks)
                block.pop()
        if len(blocks) < k:
            blocks.append([p])
            yield from rec(p + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def all_permutations(n):
    """All of S_n, in lexicographic one-line order."""
    return [Permutation(p) for p in _all_perms(range(1, n + 1))]
