"""Quotient-ring verification: ranks, torsion, ideal equality, bases."""

import math

import pytest

from pipedreams import Permutation, Word, rings
from pipedreams.combinat import enumerate_fubini, stirling2
from pipedreams.poly import (Poly, elementary_symmetric, grothendieck,
                             grothendieck_of_word, schubert, schubert_of_word)
from pipedreams.rings import (
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
    special_nonfubini_word,
    snf_invariants,
    verify_grothendieck_basis,
    verify_rings,
    _certify_ideal_equal,
    _class_rows,
)


# -- the ambient ring ---------------------------------------------------------


def test_snk_ring_dimensions():
    for n, k in ((1, 1), (3, 2), (4, 3)):
        R = SnkRing(n, k)
        assert R.dim == k ** n
        assert len(R.monomials) == R.dim
        assert len(set(R.monomials)) == R.dim
        assert all(max(m, default=0) < k for m in R.monomials)


def test_snk_index_and_variable_are_inverse():
    R = SnkRing(3, 2)
    for i, m in enumerate(R.monomials):
        assert R.index[m] == i
    x1 = R.variable(1)
    (idx, coeff), = x1.items()
    assert coeff == 1
    assert R.monomials[idx] == (1, 0, 0)


def test_project_kills_kth_powers():
    # the ambient quotient enforces x_i^k = 0
    f = Poly(2, 0, {(2, 0): 1})  # x1^2 with k = 2
    assert list(project_to_snk(f, 2, 2).items()) == []
    g = Poly(2, 0, {(1, 1): 3, (2, 0): 5})
    items = dict(project_to_snk(g, 2, 2).items())
    assert list(items.values()) == [3]


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


def test_scaled_generators_change_the_lattice():
    n, k = 3, 2
    gens = elementary_ideal_generators(n, k)
    doubled = [
        type(g)(g.ring, [2 * c for c in g.coeffs]) for g in gens
    ]
    lat = coinvariant_ideal_lattice(n, k, gens)
    lat2 = coinvariant_ideal_lattice(n, k, doubled)
    assert lat != lat2


# -- the graded Nakayama certificate for I_G = I_e ---------------------------------


def _certificate_inputs(n, k):
    e_gens = elementary_ideal_generators(n, k)
    return (coinvariant_ideal_lattice(n, k, e_gens), e_gens,
            grothendieck_ideal_generators(n, k))


def test_certificate_agrees_with_lattice_oracle():
    pairs = [(n, k) for n, k in desk_scale_pairs() if k ** n <= 256]
    assert len(pairs) == 23
    for n, k in pairs:
        ideal, e_gens, g_gens = _certificate_inputs(n, k)
        assert _certify_ideal_equal(ideal, e_gens, g_gens), (n, k)
        assert ideals_equal(n, k, e_gens, g_gens), (n, k)


def test_certificate_rejects_doubled_lowest_form():
    for n, k in ((3, 2), (4, 3), (3, 3)):
        ideal, e_gens, g_gens = _certificate_inputs(n, k)
        for i in range(k):
            # lowest form 2*e_{n-i} instead of e_{n-i}
            bad = list(g_gens)
            bad[i] = 2 * g_gens[i]
            assert not _certify_ideal_equal(ideal, e_gens, bad), (n, k, i)
        # the lowest-degree generator alone spans its degree: a real change
        bad = g_gens[:-1] + [2 * g_gens[-1]]
        assert not ideals_equal(n, k, e_gens, bad)


def test_certificate_rejects_higher_degree_term_outside_ideal():
    n, k = 4, 3
    ideal, e_gens, g_gens = _certificate_inputs(n, k)
    ring = e_gens[0].ring
    d = n - k + 1   # lowest degree of the last G-generator
    outside = next(
        m for m in ring.monomials
        if sum(m) > d and not ideal.contains(project_to_snk(Poly(n, 0, {m: 1}), n, k)))
    stray = project_to_snk(Poly(n, 0, {outside: 1}), n, k)
    bad = g_gens[:-1] + [g_gens[-1] + stray]
    assert not _certify_ideal_equal(ideal, e_gens, bad)
    assert not ideals_equal(n, k, e_gens, bad)


def test_verify_rings_builds_one_ideal_lattice(monkeypatch):
    calls = []
    real = rings.coinvariant_ideal_lattice

    def counting(n, k, generators):
        calls.append((n, k))
        return real(n, k, generators)

    monkeypatch.setattr(rings, "coinvariant_ideal_lattice", counting)
    assert verify_rings(4, 3)["ok"]
    assert calls == [(4, 3)]


def test_sparse_class_rows_match_dense_classes():
    words = [Word(u, k=3) for u in enumerate_fubini(4, 3)]
    assert len(words) == 36
    k0_rows = _class_rows(words, grothendieck_of_word)
    chow_rows = _class_rows(words, schubert_of_word)
    for w, k0, chow in zip(words, k0_rows, chow_rows):
        assert list(k0) == k0_class_of_word(w).items()
        assert list(chow) == chow_class_of_word(w).items()


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
    for key in ("grothendieck", "schubert"):
        sub = rep[key]
        assert sub["count"] == sub["expected"] == 14
        assert sub["full_rank"] and sub["unimodular"]
        assert sub["offending_invariant"] is None


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
