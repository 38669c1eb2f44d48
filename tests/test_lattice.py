"""Integer-lattice kernel: Hermite form, Smith invariants, membership.

Every routine is checked against sympy's independent normal-form
implementations.
"""

import operator

import pytest
import sympy
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from pipedreams._lattice_py import rank_mod_p
from pipedreams.rings import (IntegerLattice, _ideal_rows,
                              coinvariant_ideal_lattice,
                              elementary_ideal_generators, hnf)


def random_sparse_rows(rng, nrows, ncols, density=0.4, bound=6):
    rows = []
    for _ in range(nrows):
        row = [
            (c, rng.randint(-bound, bound))
            for c in range(ncols)
            if rng.random() < density
        ]
        rows.append(tuple((c, v) for c, v in row if v))
    return rows


def dense(rows, ncols):
    out = []
    for r in rows:
        d = [0] * ncols
        for c, v in r:
            d[c] = v
        out.append(d)
    return out


# -- rank and Smith form against sympy ----------------------------------------


def test_rank_against_sympy(rng):
    for trial in range(25):
        ncols = rng.randint(1, 8)
        rows = random_sparse_rows(rng, rng.randint(1, 12), ncols)
        lat = IntegerLattice(ncols, rows)
        m = DomainMatrix.from_list(dense(rows, ncols), ZZ)
        assert lat.rank == m.convert_to(sympy.QQ).rank()


def test_snf_invariants_against_sympy(rng):
    for trial in range(25):
        ncols = rng.randint(1, 6)
        rows = random_sparse_rows(rng, rng.randint(1, 8), ncols)
        lat = IntegerLattice(ncols, rows)
        got = list(lat.snf_invariants())
        m = Matrix(dense(rows, ncols))
        if m.rank() == 0:
            assert got == []
            continue
        snf = smith_normal_form(m)
        want = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
        assert got == sorted(want) or got == want
        assert lat.is_torsion_free() == all(d == 1 for d in want)


def sympy_invariants(rows, ncols):
    snf = smith_normal_form(Matrix(dense(rows, ncols)), domain=ZZ)
    return sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i])


def random_dense(rng, nrows, ncols, bound):
    return [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0
             for _ in range(ncols)] for _ in range(nrows)]


def test_snf_invariants_on_wide_tall_and_rank_deficient_shapes(rng):
    for trial in range(90):
        kind = ("wide", "tall", "rank-deficient")[trial % 3]
        short, long = rng.randint(1, 5), rng.randint(6, 10)
        if kind == "rank-deficient":    # a product through `short` columns
            b = random_dense(rng, long, short, 1000)
            c = random_dense(rng, short, long - 1, 1000)
            m = [[sum(map(operator.mul, row, col)) for col in zip(*c)]
                 for row in b]
        else:
            m = random_dense(rng, short, long, rng.choice((9, 10 ** 6)))
            if kind == "tall":
                m = [list(col) for col in zip(*m)]
        lat = IntegerLattice.from_dense_rows(m)
        got = lat.snf_invariants()
        snf = smith_normal_form(Matrix(m), domain=ZZ)
        assert list(got) == sorted(abs(snf[i, i]) for i in range(min(snf.shape))
                                   if snf[i, i]), m
        assert len(got) == lat.rank <= (short if kind == "rank-deficient"
                                        else min(len(m), len(m[0])))
        assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_snf_invariants_past_the_old_dense_size_limit():
    lat = IntegerLattice(3000, [[(i, 2)] for i in range(300)])
    assert lat.snf_invariants() == (2,) * 300
    assert not lat.is_torsion_free()


def test_ring_scale_invariants_count_the_rank_drop_mod_each_prime():
    # I_e of S_{5,4} with the generator e_2 doubled: Z^1024 / I has torsion
    gens = elementary_ideal_generators(5, 4)
    gens[0] = 2 * gens[0]
    rows = _ideal_rows(5, 4, gens)
    lat = coinvariant_ideal_lattice(5, 4, gens)
    invariants = lat.snf_invariants()
    assert len(invariants) == lat.rank
    primes = {p for v in lat.pivot_values() if v != 1
              for p in sympy.primefactors(v)}
    assert primes == {2}
    for p in primes:
        assert (sum(d % p == 0 for d in invariants)
                == lat.rank - rank_mod_p(rows, lat.ncols, p))
    assert lat.is_torsion_free() == all(d == 1 for d in invariants) is False


def test_torsion_past_trial_division_falls_back_to_smith_invariants():
    # a prime pivot above 10^12: torsion is read from the Smith invariants,
    # as for every pivot, with no factoring
    P = 1000000000039
    assert sympy.isprime(P)
    assert IntegerLattice(2, [[(0, P), (1, 1)]]).is_torsion_free()
    assert not IntegerLattice(2, [[(0, P)]]).is_torsion_free()
    assert IntegerLattice(2, [[(0, P * P)]]).snf_invariants() == (P * P,)


def test_torsion_check_of_unit_pivots_does_not_canonicalize(monkeypatch):
    # every desk-scale I_e has unit pivots, and `verify rings` checks each
    # one's freeness: that check must not pay for the canonical form
    def refuse(self):
        raise AssertionError("canonical_rows called")

    lat = coinvariant_ideal_lattice(4, 3, elementary_ideal_generators(4, 3))
    monkeypatch.setattr(IntegerLattice, "canonical_rows", refuse)
    assert lat.is_torsion_free()


def pivot_product(lat):
    prod = 1
    for _, v in lat.pivot_items():
        prod *= v
    return prod


def test_full_rank_pivot_product_is_determinant(rng):
    for trial in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = Matrix(m).det()
        if det == 0:
            continue
        assert pivot_product(IntegerLattice.from_dense_rows(m)) == abs(det)
    # a dense 40x40 matrix: its determinant, and so the Hermite form's
    # entries, are far wider than 64 bits
    m = [[rng.randint(-40, 40) for _ in range(40)] for _ in range(40)]
    det = DomainMatrix.from_list(m, ZZ).det()
    assert abs(det).bit_length() > 64
    assert pivot_product(IntegerLattice.from_dense_rows(m)) == abs(det)


def test_lattice_equals_sympy_hermite_basis(rng):
    # sympy computes a basis of the same row lattice; both must span equally
    from sympy.matrices.normalforms import hermite_normal_form

    for trial in range(15):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if m.det() == 0:
            continue
        ours = IntegerLattice.from_dense_rows(m.tolist())
        h = hermite_normal_form(m.T).T
        theirs = IntegerLattice.from_dense_rows(h.tolist())
        assert ours == theirs


# -- canonical form properties --------------------------------------------------


def test_canonical_rows_shape(rng):
    for trial in range(20):
        ncols = rng.randint(1, 8)
        rows = random_sparse_rows(rng, rng.randint(1, 10), ncols)
        lat = IntegerLattice(ncols, rows)
        canon = lat.canonical_rows()
        pivots = [r[0][0] for r in canon]
        assert pivots == sorted(pivots)
        assert len(canon) == lat.rank
        for r in canon:
            pc, pv = r[0]
            assert pv > 0
            # entries above a pivot are reduced to the range [0, pivot)
            for other in canon:
                here = dict(other)
                if other is not r and pc in here:
                    assert 0 <= here[pc] < pv


def test_canonical_form_is_input_order_independent(rng):
    for trial in range(15):
        ncols = rng.randint(1, 6)
        rows = random_sparse_rows(rng, rng.randint(2, 8), ncols)
        lat1 = IntegerLattice(ncols, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        lat2 = IntegerLattice(ncols, shuffled)
        assert lat1.canonical_rows() == lat2.canonical_rows()
        assert lat1 == lat2


def test_equality_distinguishes_sublattices():
    a = IntegerLattice.from_dense_rows([[2, 0], [0, 3]])
    b = IntegerLattice.from_dense_rows([[2, 3], [2, -3]])
    c = IntegerLattice.from_dense_rows([[2, 3], [0, 6]])
    assert a != b
    assert b == c


def _unimodular_mix(rng, rows, ncols):
    """The rows after random swaps, negations and row additions, which keep
    the lattice they span, plus a zero row."""
    rows = [dict(r) for r in rows] + [{}]
    for _ in range(rng.randint(0, 6)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        op = rng.randrange(3)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = {c: -v for c, v in rows[i].items()}
        elif i != j:
            t = rng.choice((-2, -1, 1, 2))
            for c in range(ncols):
                v = rows[i].get(c, 0) + t * rows[j].get(c, 0)
                rows[i].pop(c, None)
                if v:
                    rows[i][c] = v
    return [tuple(sorted(r.items())) for r in rows]


def test_equality_is_two_way_containment(rng):
    """Equal canonical rows against the oracle: each lattice holds every
    generator of the other."""
    outcomes = []
    for trial in range(3000):
        ncols = rng.randint(1, 5)
        rows = random_sparse_rows(rng, rng.randint(0, 5), ncols, bound=4)
        other = _unimodular_mix(rng, rows, ncols)
        if trial % 2 and other:     # perturb: often a different lattice
            i = rng.randrange(len(other))
            other[i] = random_sparse_rows(rng, 1, ncols, bound=4)[0]
        a, b = IntegerLattice(ncols, rows), IntegerLattice(ncols, other)
        oracle = (all(b.contains_row(r) for r in rows)
                  and all(a.contains_row(r) for r in other))
        assert (a == b) == (b == a) == oracle, (ncols, rows, other)
        outcomes.append(oracle)
    assert 1000 < sum(outcomes) < 2500
    assert IntegerLattice(2, []) != IntegerLattice(3, [])


# -- membership ------------------------------------------------------------------


def test_contains_row_accepts_integer_combinations(rng):
    for trial in range(20):
        ncols = rng.randint(2, 8)
        rows = random_sparse_rows(rng, rng.randint(2, 8), ncols)
        lat = IntegerLattice(ncols, rows)
        merged = {}
        for r in rows:
            coef = rng.randint(-3, 3)
            for c, v in r:
                merged[c] = merged.get(c, 0) + coef * v
        probe = sorted((c, v) for c, v in merged.items() if v)
        assert lat.contains_row(probe)
        assert lat.contains_row([])  # the zero vector


def test_contains_row_rejects_outside_vectors(rng):
    for trial in range(20):
        ncols = rng.randint(1, 6)
        base = random_sparse_rows(rng, rng.randint(1, 6), ncols)
        # doubling the lattice makes any row with an odd entry a non-member
        doubled = [tuple((c, 2 * v) for c, v in r) for r in base]
        lat = IntegerLattice(ncols, doubled)
        for r in base:
            if any(v % 2 for _, v in r):
                assert not lat.contains_row(r)
                break


def test_out_of_range_columns_are_named():
    for bad in (3, -1):
        with pytest.raises(IndexError, match=rf"column {bad} .* width 3"):
            IntegerLattice(3, [[(0, 1)], [(bad, 2)]])
        with pytest.raises(IndexError, match=rf"column {bad} .* width 3"):
            IntegerLattice(3, [[(0, 1)]]).contains_row([(bad, 1)])


def test_negative_width_is_refused():
    with pytest.raises(ValueError, match="-1"):
        IntegerLattice(-1, [])


NON_INT_INPUTS = [
    (lambda: IntegerLattice(2.5, []), "ncols: 2.5"),
    (lambda: IntegerLattice(True, [[(0, 1)]]), "ncols: True"),
    (lambda: hnf([[1.5, 2], [0, 3.9]]), "entry 1.5"),
    (lambda: IntegerLattice(2, [[(0, 1.5), (1, 2)]]), "value 1.5"),
    (lambda: IntegerLattice(3, [[(1.0, 2)]]), "column 1.0"),
    (lambda: IntegerLattice(3, [[(True, 2)]]), "column True"),
    (lambda: IntegerLattice(3, [[(1, True)]]), "value True"),
    (lambda: hnf([[1, True]]), "entry True"),
]


@pytest.mark.parametrize("build, named", NON_INT_INPUTS,
                         ids=[named for _, named in NON_INT_INPUTS])
def test_non_int_widths_columns_and_values_are_named(build, named):
    # each was once truncated or kept as it was
    with pytest.raises(ValueError, match=named + " is not an int"):
        build()


def test_hnf_helper_wraps_dense_rows():
    lat = hnf([[2, 4], [6, 8]])
    assert isinstance(lat, IntegerLattice)
    assert lat.rank == 2
    assert lat == IntegerLattice.from_dense_rows([[2, 4], [6, 8]])


# -- mod-p rank -------------------------------------------------------------------


def test_rank_mod_p_against_sympy(rng):
    # widths up to 30: rank_mod_p starts from a pivot row p e_c in every column
    for trial in range(30):
        ncols = rng.randint(1, 7 if trial < 20 else 30)
        rows = random_sparse_rows(rng, rng.randint(1, 10), ncols, bound=30)
        for p in (2, 3, 5, 1009):
            rows_p = [[(c, v % p) for c, v in r] for r in rows]
            got = rank_mod_p(rows_p, ncols, p)
            m = DomainMatrix.from_list(dense(rows, ncols), ZZ)
            want = m.convert_to(GF(p)).rank()
            assert got == want


def test_rank_mod_p_drops_below_integer_rank():
    rows = [[(0, 1), (1, 1)], [(0, 1), (1, -1)]]
    lat = IntegerLattice(2, rows)
    assert lat.rank == 2
    assert rank_mod_p(rows, 2, 2) == 1


RANK_MOD_P_INPUTS = [
    (([[(0, 1.5)]], 2, 3), "value 1.5"),        # was a TypeError from pow()
    (([[(0, 1)]], 2, 4.0), "modulus p: 4.0"),   # the same TypeError
    (([[(True, 1)]], 2, 3), "column True"),     # was read as column 1
    (([[(0, 2)]], 2.5, 3), "ncols: 2.5"),       # was taken as a width
]


def test_rank_mod_p_refuses_a_composite_modulus():
    # the count of unit pivots is no rank mod 6: this returned 0
    with pytest.raises(ValueError, match="modulus p: 6 is not a prime"):
        rank_mod_p([[(0, 2), (1, 3)]], 2, 6)


@pytest.mark.parametrize("args, named", RANK_MOD_P_INPUTS,
                         ids=[named for _, named in RANK_MOD_P_INPUTS])
def test_rank_mod_p_names_an_input_that_is_not_an_int(args, named):
    with pytest.raises(ValueError, match=named + " is not an int"):
        rank_mod_p(*args)
