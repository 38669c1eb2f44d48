"""Integer-lattice kernel: Hermite form, Smith invariants, membership.

Every routine is checked against sympy's independent normal-form
implementations.
"""

import random

import pytest
import sympy
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from pipedreams._lattice_py import rank_mod_p
from pipedreams.rings import IntegerLattice, hnf


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


def test_hnf_helper_wraps_dense_rows():
    lat = hnf([[2, 4], [6, 8]])
    assert isinstance(lat, IntegerLattice)
    assert lat.rank == 2
    assert lat == IntegerLattice.from_dense_rows([[2, 4], [6, 8]])


# -- mod-p rank -------------------------------------------------------------------


def test_rank_mod_p_against_sympy(rng):
    for trial in range(20):
        ncols = rng.randint(1, 7)
        rows = random_sparse_rows(rng, rng.randint(1, 10), ncols, bound=30)
        for p in (3, 5, 1009):
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
