"""Quotient-ring verification: ranks, torsion, ideal equality, bases."""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

import pipedreams
from pipedreams import Word, combinat, poly, rings
from pipedreams.combinat import (convex_standardization, enumerate_fubini,
                                 fubini_count, standardized_runs, stirling2)
from pipedreams.poly import (Poly, elementary_symmetric, grothendieck_of_word,
                             schubert_of_word)
from pipedreams.rings import (
    BasisFailure,
    DeskScaleError,
    IntegerLattice,
    SnkRing,
    chow_class_of_word,
    coinvariant_ideal_lattice,
    desk_scale_pairs,
    elementary_ideal_generators,
    grothendieck_ideal_generators,
    ideals_equal,
    k0_class_of_word,
    project_to_snk,
    rnk_rank,
    snf_invariants,
    verify_grothendieck_basis,
    verify_rings,
    _fubini_class_leads,
    _project_row,
)

from conftest import random_poly
from oracles import (column_e_expansion, fubini_class_rows, fubini_walk,
                     special_nonfubini_word, stacked_basis_report)


# -- the ambient ring ---------------------------------------------------------


def test_snk_ring_dimensions():
    for n, k in ((1, 1), (3, 2), (4, 3)):
        R = SnkRing(n, k)
        assert R.dim == k ** n
        monomials = [R.monomial(i) for i in range(R.dim)]
        assert len(monomials) == R.dim
        assert len(set(monomials)) == R.dim
        assert all(max(m, default=0) < k for m in monomials)
        assert monomials == list(itertools.product(range(k), repeat=n))


def test_snk_index_and_variable_are_inverse():
    R = SnkRing(3, 2)
    for i in range(R.dim):
        assert R.index(R.monomial(i)) == i
    assert R.index((0, 2, 0)) is None and R.index((1, 1, 3)) is None


def test_ring_sizes_refuse_bools_and_nonpositive_ints():
    for n, k in ((True, 2), (2, True), (0, 1), (2, 0), (2.0, 2)):
        with pytest.raises(ValueError, match="need integers n >= 1, k >= 1"):
            SnkRing(n, k)
    with pytest.raises(ValueError, match=r"\(n, k\) = \(True, True\)"):
        verify_rings(True, True)


def test_project_kills_kth_powers():
    # the ambient quotient enforces x_i^k = 0
    f = Poly(2, 0, {(2, 0): 1})  # x1^2 with k = 2
    assert list(project_to_snk(f, 2, 2).items()) == []
    g = Poly(2, 0, {(1, 1): 3, (2, 0): 5})
    items = dict(project_to_snk(g, 2, 2).items())
    assert list(items.values()) == [3]


def test_sparse_arithmetic_matches_projection(rng):
    for n, k in ((3, 2), (4, 3)):
        for _ in range(20):
            f, g = random_poly(rng, n), random_poly(rng, n)
            pf, pg = project_to_snk(f, n, k), project_to_snk(g, n, k)
            c = rng.randint(-3, 3)
            assert pf + pg == project_to_snk(f + g, n, k)
            assert pf - pg == project_to_snk(f - g, n, k)
            assert -pf == project_to_snk(-f, n, k)
            assert c * pf == project_to_snk(c * f, n, k)
            assert (pf - pf).items() == []
            assert (0 * pf).items() == []


def test_sparse_arithmetic_rejects_mixed_rings():
    f = Poly.x(1, 3)
    with pytest.raises(ValueError):
        project_to_snk(f, 3, 2) + project_to_snk(f, 3, 3)
    with pytest.raises(ValueError):
        project_to_snk(f, 3, 2) - project_to_snk(f, 4, 2)


def test_project_is_linear():
    f = Poly(2, 0, {(1, 0): 2})
    g = Poly(2, 0, {(0, 1): 7})
    left = dict(project_to_snk(f + g, 2, 2).items())
    merged = dict(project_to_snk(f, 2, 2).items())
    for i, c in project_to_snk(g, 2, 2).items():
        merged[i] = merged.get(i, 0) + c
    assert left == merged


# -- expected ranks -----------------------------------------------------------


def test_rnk_rank_goldens():
    assert rnk_rank(3, 2)[0] == 6
    assert rnk_rank(4, 2)[0] == 14
    assert rnk_rank(5, 3)[0] == 150
    assert rnk_rank(3, 3)[0] == 6
    assert rnk_rank(4, 4)[0] == 24
    assert rnk_rank(1, 1)[0] == 1


def test_rnk_rank_formula():
    for n in range(1, 6):
        for k in range(1, n + 1):
            rank, report = rnk_rank(n, k)
            assert rank == math.factorial(k) * stirling2(n, k)
            assert report["rank"] == rank == report["expected"]
            assert report["torsion_free"]
            assert report["nontrivial_pivots"] == []


# -- ideal generators -----------------------------------------------------------


def test_special_nonfubini_words_shape():
    for n, k in ((3, 2), (4, 2), (5, 3), (4, 4)):
        for i in range(1, k + 1):
            w = special_nonfubini_word(i, n, k)
            assert w.n == n and w.k == k
            assert not w.is_fubini()
            assert i not in set(w.letters)


def test_grothendieck_generators_match_special_words():
    for n, k in ((3, 2), (4, 2), (4, 3)):
        gens = grothendieck_ideal_generators(n, k)
        words = [special_nonfubini_word(i, n, k) for i in range(1, k + 1)]
        classes = [k0_class_of_word(w) for w in words]
        assert [sorted(g.items()) for g in gens] == [sorted(c.items()) for c in classes]


def test_elementary_generators_are_projected_e_polynomials():
    for n, k in ((3, 2), (4, 3)):
        gens = elementary_ideal_generators(n, k)
        for j, g in zip(range(n - k + 1, n + 1), gens):
            want = project_to_snk(elementary_symmetric(j, n), n, k)
            assert sorted(g.items()) == sorted(want.items())


def test_ideal_equality_of_both_generator_families():
    for n, k in ((3, 2), (4, 2), (4, 3), (3, 3), (5, 2)):
        gens_g = grothendieck_ideal_generators(n, k)
        gens_e = elementary_ideal_generators(n, k)
        assert ideals_equal(n, k, gens_g, gens_e)


def test_ideal_equality_detects_difference():
    # e_3 and e_2 generate different ideals in the n = k = 3 ring
    n = k = 3
    e3 = [project_to_snk(elementary_symmetric(3, 3), n, k)]
    e2 = [project_to_snk(elementary_symmetric(2, 3), n, k)]
    assert not ideals_equal(n, k, e3, e2)


def test_ideal_rows_match_the_product_oracle():
    from oracles import ideal_rows

    for n, k in desk_scale_pairs():
        for gens in (elementary_ideal_generators(n, k),
                     grothendieck_ideal_generators(n, k)):
            assert rings._ideal_rows(n, k, gens) == ideal_rows(n, k, gens), (n, k)
    n, k = 4, 3
    ring = rings.SnkRing(n, k)
    # exponents up to k - 1, whose boxes are one wide in that coordinate
    tall = project_to_snk(Poly(n, 0, {(2, 1, 0, 0): 3, (0, 0, 2, 2): -1,
                                      (0, 0, 0, 0): 2}), n, k)
    empty = rings.SnkElement(ring, ())
    for gens in ([tall], [empty], [empty, tall], []):
        assert rings._ideal_rows(n, k, gens) == ideal_rows(n, k, gens)
    assert rings._ideal_rows(n, k, [empty]) == []


def test_ideal_rows_refuse_a_generator_of_another_ring():
    foreign = project_to_snk(Poly.x(1, 3), 3, 2)
    with pytest.raises(ValueError, match=r"S_\{4,2\}"):
        coinvariant_ideal_lattice(4, 2, [foreign])


def test_scaled_generators_change_the_lattice():
    n, k = 3, 2
    gens = elementary_ideal_generators(n, k)
    doubled = [2 * g for g in gens]
    lat = coinvariant_ideal_lattice(n, k, gens)
    lat2 = coinvariant_ideal_lattice(n, k, doubled)
    assert lat != lat2


# -- the e-expansion certificate for I_G = I_e ------------------------------------


def test_ideal_equal_agrees_with_lattice_oracle():
    pairs = [(n, k) for n, k in desk_scale_pairs() if k ** n <= 256]
    assert len(pairs) == 23
    for n, k in pairs:
        assert verify_rings(n, k)["ideal_equal"] is ideals_equal(
            n, k, elementary_ideal_generators(n, k),
            grothendieck_ideal_generators(n, k)) is True, (n, k)


def _stray_monomial(n, k):
    """The first monomial of S_{n,k} of degree above n-k+1 outside I_e."""
    ideal = rings._elementary_ideal(n, k)
    monomials = map(SnkRing(n, k).monomial, range(k ** n))
    return next(m for m in monomials if sum(m) > n - k + 1 and not
                ideal.contains(project_to_snk(Poly(n, 0, {m: 1}), n, k)))


@pytest.mark.parametrize("how", ["doubled", "stray term"])
def test_verify_rings_rejects_a_broken_special_class(monkeypatch, how):
    """G of one special cycle doubled, or with a term outside I_e added:
    the expansion fails, and ``verify_rings`` reports it without raising.
    Breaking the last, lowest-degree class changes the ideal itself."""
    n, k = 4, 3
    stray = _stray_monomial(n, k)
    real = poly.grothendieck
    for i in range(1, k + 1):
        v = poly.grassmannian_cycle(i, n + 1)

        def broken(u, v=v):
            g = real(u)
            if u != v:
                return g
            if how == "doubled":
                return 2 * g
            return g + Poly(g.nx, g.ny, {stray + (0,) * (g.nx - n): 1})

        monkeypatch.setattr(poly, "grothendieck", broken)
        rep = verify_rings(n, k)
        assert rep["ideal_equal"] is False and rep["ok"] is False, i
        assert rep["schubert_basis"] and rep["grothendieck_basis"], i
        if i == k:
            g_gens = [project_to_snk(poly.grothendieck(
                poly.grassmannian_cycle(j, n + 1)).restrict_arity(n), n, k)
                for j in range(1, k + 1)]
            assert not ideals_equal(n, k, elementary_ideal_generators(n, k),
                                    g_gens)


@pytest.mark.parametrize("n, k", [(8, 3), (9, 3), (7, 4), (6, 5), (12, 6)])
def test_special_classes_expand_past_the_ceiling(n, k):
    for i in range(1, k + 1):
        assert (pipedreams.grassmannian_e_expansion(i, n + 1)
                == column_e_expansion(i, n + 1)), i


def test_verify_rings_tests_no_membership_and_projects_no_special_class(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_rings must not call this")

    monkeypatch.setattr(IntegerLattice, "contains_row", refuse)
    monkeypatch.setattr(rings, "grothendieck_ideal_generators", refuse)
    for n, k in ((1, 1), (4, 3), (5, 5), (6, 2), (7, 3)):
        assert verify_rings(n, k)["ok"], (n, k)
    with pytest.raises(AssertionError, match="must not call"):
        rings._elementary_ideal(3, 2).contains_row([(0, 1)])


def test_verify_rings_builds_one_ideal_lattice(monkeypatch):
    calls = []
    real = rings.coinvariant_ideal_lattice

    def counting(n, k, generators):
        calls.append((n, k))
        return real(n, k, generators)

    monkeypatch.setattr(rings, "coinvariant_ideal_lattice", counting)
    assert verify_rings(4, 3)["ok"]
    assert calls == [(4, 3)]


def _schubert_report(n, k):
    """The ideal, the class leads, whether the degree bound holds, and the
    certificate's "schubert" report."""
    ideal = rings._elementary_ideal(n, k)
    leads, bounded = _fubini_class_leads(n, k)
    report = rings._basis_report(n, k, ideal, True)
    return ideal, leads, bounded, report["schubert"]


def _leads(rows):
    """The term of each sorted sparse row at its smallest column, or None
    for an empty row."""
    return [row[0] if row else None for row in rows]


def test_sparse_class_rows_match_dense_classes():
    words = [Word(letters, k=3) for letters, _, _ in fubini_walk(4, 3)]
    assert len(words) == 36
    leads, bounded = _fubini_class_leads(4, 3)
    assert bounded
    for w, lead in zip(words, leads, strict=True):
        assert lead == chow_class_of_word(w).items()[0]


def test_fubini_class_rows_match_word_polynomials():
    """The leads of the block walk against the word-polynomial rows, for
    every Fubini word of every desk-scale (n, k); and the fold the
    certificate replaced: those rows, stacked on I_e, span Z^{k^n} with
    unit pivots, and the certificate reports what the fold does."""
    total = 0
    for n, k in desk_scale_pairs():
        ideal, leads, bounded, certified = _schubert_report(n, k)
        assert bounded, (n, k)
        rows = fubini_class_rows(n, k)
        assert leads == _leads(rows), (n, k)
        folded = stacked_basis_report(ideal, rows, k ** n, fubini_count(n, k))
        assert folded["basis"] and folded["stacked_rank"] == k ** n, (n, k)
        assert certified == folded, (n, k)
        total += len(rows)
    assert total == 12660


def test_block_walk_gives_the_convex_standardization_of_each_word():
    """sigma is the blocks one after another and u is read off the block
    sizes and the letter order, as ``convex_standardization`` finds them."""
    for n, k in desk_scale_pairs():
        for letters, blocks, pi in fubini_walk(n, k):
            sigma = tuple(p for block in blocks for p in block)
            u = standardized_runs(pi, map(len, blocks), k)
            assert (u, sigma) == convex_standardization(letters, k), letters


def test_fubini_class_rows_standardize_no_word(monkeypatch):
    calls = []
    real = combinat.convex_standardization

    def counting(letters, k):
        calls.append(letters)
        return real(letters, k)

    for name, module in list(sys.modules.items()):
        if (name.startswith("pipedreams")
                and getattr(module, "convex_standardization", None) is real):
            monkeypatch.setattr(module, "convex_standardization", counting)
    pipedreams.clear_caches()
    try:
        leads, bounded = _fubini_class_leads(5, 3)
        assert bounded and len(leads) == 150
        assert calls == []
        schubert_of_word(Word("12312", 3))   # the counter sees the oracle
        assert calls == [(1, 2, 3, 1, 2)]
    finally:
        pipedreams.clear_caches()


def test_reports_match_the_recorded_ones():
    """The reports of every desk-scale pair, as recorded before the class
    rows were built by the block walk and stacked on a copy of I_e."""
    recorded = json.loads((Path(__file__).parent / "data"
                           / "ring_reports.json").read_text(encoding="utf-8"))
    assert [(r["n"], r["k"]) for r in recorded] == desk_scale_pairs()
    for r in recorded:
        n, k = r["n"], r["k"]
        assert verify_rings(n, k) == r["verify_rings"]
        assert (verify_grothendieck_basis(n, k)
                == r["verify_grothendieck_basis"])


def test_grothendieck_rows_stack_to_a_basis_oracle():
    """The oracle of the degree certificate: the Grothendieck rows of the
    word polynomials, stacked on I_e, span Z^{k^n} with unit pivots for
    every desk-scale (n, k), and each is its Schubert row plus terms of
    higher degree."""
    for n, k in desk_scale_pairs():
        ideal = coinvariant_ideal_lattice(n, k, elementary_ideal_generators(n, k))
        monomial = rings.SnkRing(n, k).monomial
        s_rows = fubini_class_rows(n, k)
        g_rows = []
        for (letters, _, _), s_row in zip(fubini_walk(n, k), s_rows,
                                          strict=True):
            w = Word(letters, k)
            g_row = _project_row(grothendieck_of_word(w), n, k)
            low = min((sum(monomial(i)) for i, _ in g_row), default=None)
            assert tuple(t for t in g_row if sum(monomial(t[0])) == low) \
                == s_row, w
            g_rows.append(g_row)
        stacked = IntegerLattice(k ** n, ideal._pivot_rows() + tuple(g_rows))
        assert stacked.rank == k ** n, (n, k)
        assert set(stacked.pivot_values()) == {1}, (n, k)
        assert ideal.rank + len(g_rows) == k ** n, (n, k)


def _gains_a_constant(monkeypatch, n):
    """Patch `rings.grothendieck` so that every G_u of S_n other than the
    identity gains the constant term 1, below its degree l(u)."""
    real = rings.grothendieck

    def patched(u):
        g = real(u)
        if len(u) == n and list(u) != sorted(u):
            return g + 1
        return g

    monkeypatch.setattr(rings, "grothendieck", patched)


def test_degree_certificate_rejects_a_term_below_the_length(monkeypatch):
    _gains_a_constant(monkeypatch, 4)
    rep = verify_rings(4, 3)
    assert rep["schubert_basis"] and rep["ideal_equal"]
    assert not rep["grothendieck_basis"] and not rep["ok"]
    with pytest.raises(BasisFailure, match="below l\\(u\\)") as failure:
        verify_grothendieck_basis(4, 3)
    sub = failure.value.report["grothendieck"]
    assert sub["degree_bound"] is False and sub["basis"] is False
    assert failure.value.report["schubert"]["basis"]


def test_verify_rings_builds_no_lattice_beside_the_ideal(monkeypatch):
    builds = []

    class Counting(IntegerLattice):
        def __init__(self, ncols, sparse_rows):
            builds.append(ncols)
            super().__init__(ncols, sparse_rows)

    monkeypatch.setattr(rings, "IntegerLattice", Counting)
    assert verify_rings(4, 3)["ok"]
    assert builds == [81]   # I_e; the Schubert rows are read, not folded


# -- the unitriangular certificate of the Schubert basis ---------------------------


@pytest.mark.parametrize("n, k", [(8, 3), (9, 3)])
def test_certificate_and_fold_agree_past_the_ceiling(monkeypatch, n, k):
    monkeypatch.setattr(rings, "DESK_CEILING", k ** n)
    ideal, leads, _, certified = _schubert_report(n, k)
    assert certified["basis"] and all(v == 1 for _, v in leads)
    rows = fubini_class_rows(n, k)
    assert leads == _leads(rows)
    assert certified == stacked_basis_report(ideal, rows, k ** n,
                                             fubini_count(n, k))


def _corrupt(leads, rows, pivot):
    """The five ways `test_certificate_rejects_broken_class_rows` breaks
    the class leads, each with the full rows broken to match and the
    failure the certificate must report."""
    lead = leads[0][0]
    return {
        "repeated lead": (leads[:1] + leads[:1] + leads[2:],
                          rows[:1] + rows[:1] + rows[2:],
                          f"class row 1 leads at column {lead}, as class "
                          f"row 0 does"),
        "lead on a pivot": ([(pivot, 1)] + leads[1:],
                            [((pivot, 1),)] + rows[1:],
                            f"class row 0 leads at column {pivot}, an I_e "
                            f"pivot column"),
        "lead of 2": ([(lead, 2)] + leads[1:],
                      [tuple((c, 2 * v) for c, v in rows[0])] + rows[1:],
                      f"class row 0 leads at column {lead} with 2"),
        "empty row": ([None] + leads[1:], [()] + rows[1:],
                      "class row 0 is empty"),
        "row missing": (leads[:-1], rows[:-1],
                        f"column {leads[-1][0]} is no I_e pivot and leads "
                        f"no class row"),
    }


@pytest.mark.parametrize("case", ["repeated lead", "lead on a pivot",
                                  "lead of 2", "empty row", "row missing"])
def test_certificate_rejects_broken_class_rows(monkeypatch, case):
    n, k = 4, 3
    ideal, leads, _, _ = _schubert_report(n, k)
    assert all(v == 1 for _, v in leads)
    bad, bad_rows, why = _corrupt(leads, fubini_class_rows(n, k),
                                  ideal.pivot_items()[0][0])[case]
    assert _leads(bad_rows) == bad
    monkeypatch.setattr(rings, "_fubini_class_leads",
                        lambda n, k: (bad, True))
    rep = verify_rings(n, k)
    assert not rep["schubert_basis"] and not rep["ok"]
    assert rep["ideal_equal"] and rep["torsion_free"]
    with pytest.raises(BasisFailure) as failure:
        verify_grothendieck_basis(n, k)
    assert str(failure.value) == (
        f"basis verification failed at (n, k) = ({n}, {k}); {why}")
    sub = failure.value.report["schubert"]
    assert sub["failure"] == why and sub["basis"] is False
    assert sub["stacked_rank"] is sub["full_rank"] is sub["unimodular"] \
        is sub["offending_invariant"] is None
    # the fold, which the certificate replaced, rejects the full rows too
    assert not stacked_basis_report(ideal, bad_rows, k ** n,
                                    fubini_count(n, k))["basis"]


def test_certificate_rejects_a_pivot_other_than_one():
    ideal, leads, _, _ = _schubert_report(4, 3)
    pivots = dict(ideal.pivot_items())
    assert rings._certificate_failure(pivots, leads, 81, 36) is None
    c = max(pivots)
    pivots[c] = 2
    assert (rings._certificate_failure(pivots, leads, 81, 36)
            == f"the I_e pivot at column {c} is 2")


def test_fubini_class_rows_refuse_variables_beyond_n(monkeypatch):
    def beyond(u):   # a G_u that wrongly involves x_{n+1}
        return Poly(len(u) + 1, 0, {(0,) * len(u) + (1,): 1})

    monkeypatch.setattr(rings, "grothendieck", beyond)
    with pytest.raises(AssertionError, match="x_4 beyond word length 3"):
        _fubini_class_leads(3, 2)


def test_verify_rings_computes_no_schubert_polynomial():
    pipedreams.clear_caches()
    try:
        assert verify_rings(5, 3)["ok"]
        kinds = {kind for _, kind in poly._CACHE}
        assert "G" in kinds and "S" not in kinds
    finally:
        pipedreams.clear_caches()


# -- quotient structure -----------------------------------------------------------


def test_quotient_rank_and_torsion_small():
    for n, k in ((3, 2), (4, 2), (3, 3), (4, 3)):
        lat = coinvariant_ideal_lattice(n, k, elementary_ideal_generators(n, k))
        assert lat.ncols == k ** n
        assert lat.rank == k ** n - rnk_rank(n, k)[0]
        assert lat.is_torsion_free()
        assert all(d == 1 for d in snf_invariants(lat))


def test_verify_rings_report():
    rep = verify_rings(3, 2)
    assert rep["ok"]
    assert rep["rank"] == rep["expected"] == 6
    assert rep["torsion_free"] and rep["ideal_equal"]
    assert rep["grothendieck_basis"] and rep["schubert_basis"]


def test_verify_rings_several_pairs():
    for n, k in ((1, 1), (2, 2), (4, 2), (3, 3), (4, 3), (4, 4)):
        rep = verify_rings(n, k)
        assert rep["ok"], rep
        assert rep["rank"] == math.factorial(k) * stirling2(n, k)


def test_verify_grothendieck_basis_report():
    rep = verify_grothendieck_basis(4, 2)
    assert rep["basis"]
    assert rep["expected"] == 14
    sub = rep["schubert"]
    assert sub["count"] == sub["expected"] == 14
    assert sub["full_rank"] and sub["unimodular"]
    assert sub["offending_invariant"] is None
    sub = rep["grothendieck"]
    assert sub["count"] == sub["expected"] == 14
    assert sub["certificate"].startswith("degree-unitriangular")
    assert sub["degree_bound"] and sub["basis"]


def test_fubini_classes_are_independent_in_quotient():
    # stacking the ideal and the Fubini classes reaches full ambient rank
    n, k = 3, 2
    ideal = coinvariant_ideal_lattice(n, k, elementary_ideal_generators(n, k))
    rows = list(ideal.canonical_rows())
    for letters in enumerate_fubini(n, k):
        rows.append(tuple(k0_class_of_word(Word(letters, k)).items()))
    stacked = IntegerLattice(k ** n, rows)
    assert stacked.rank == k ** n
    assert all(d == 1 for d in stacked.snf_invariants())


# -- desk-scale guardrails ----------------------------------------------------------


def test_desk_scale_pairs_inventory():
    pairs = desk_scale_pairs()
    assert len(pairs) == 32
    assert all(k <= n and k ** n <= 5000 for n, k in pairs)
    for expected in ((1, 1), (5, 3), (6, 4), (12, 2), (5, 5)):
        assert expected in pairs
    assert (8, 4) not in pairs
    assert pairs == sorted(pairs)


def test_desk_scale_refusal():
    with pytest.raises(DeskScaleError):
        verify_rings(8, 4)
    with pytest.raises(DeskScaleError):
        verify_rings(40, 2)


def test_monomial_table_is_bounded():
    # 5^8 = 390625 and 6^6 = 46656 monomials: refused before any is built
    with pytest.raises(DeskScaleError, match=r"390625.*\(8, 5\)"):
        project_to_snk(Poly.x(1, 8), 8, 5)
    with pytest.raises(DeskScaleError, match=r"46656.*\(6, 6\)"):
        k0_class_of_word(Word("123456", 6))


# -- classes of words ------------------------------------------------------------


def test_k0_class_projects_word_grothendieck():
    from pipedreams.poly import grothendieck_of_word

    for text, k in (("112", 2), ("21231", 3), ("1212", 2)):
        word = Word(text, k)
        cl = k0_class_of_word(word)
        want = project_to_snk(
            grothendieck_of_word(word).restrict_arity(word.n), word.n, k
        )
        assert sorted(cl.items()) == sorted(want.items())


def test_chow_class_projects_word_schubert():
    from pipedreams.poly import schubert_of_word

    for text, k in (("112", 2), ("21231", 3)):
        word = Word(text, k)
        cl = chow_class_of_word(word)
        want = project_to_snk(
            schubert_of_word(word).restrict_arity(word.n), word.n, k
        )
        assert sorted(cl.items()) == sorted(want.items())
