"""Release gate.

One test per headline guarantee, so `pytest tests/test_acceptance.py -v`
prints exactly one pass/fail line per criterion.  Each test also prints a
`gate N/7` summary line (visible with -s) and enforces the stated time
budget with a wall-clock assertion.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from pipedreams import (
    Permutation,
    Word,
    bpd_grothendieck,
    bpd_schubert,
    cell_dimension_report,
    desk_scale_pairs,
    enumerate_fubini,
    enumerate_reduced,
    enumerate_reduced_bpd,
    grothendieck,
    grothendieck_double,
    grothendieck_of_word,
    pattern_matrix,
    pd_grothendieck,
    pd_schubert,
    reduction,
    schubert,
    schubert_double,
    schubert_of_word,
    stirling2,
    verify_rings,
    word_bpd_grothendieck,
    word_bpd_schubert,
    word_pd_grothendieck,
    word_pd_schubert,
)
from pipedreams.bpd import check_word_bpd_rectangularity, enumerate_word_bpds
from pipedreams.cli import main as cli_main
from pipedreams.pipedream import check_word_rectangularity, enumerate_word_pds
from pipedreams.poly import Poly, elementary_symmetric

TESTS_DIR = Path(__file__).resolve().parent


def _report(number, name, elapsed):
    print("gate %d/7 %s: PASS (%.2fs)" % (number, name, elapsed))


SCHUBERT_24153 = {
    (2, 2, 0, 0, 0): 1,
    (2, 1, 1, 0, 0): 1,
    (2, 1, 0, 1, 0): 1,
    (1, 2, 1, 0, 0): 1,
    (1, 2, 0, 1, 0): 1,
}

SCHUBERT_21231 = {
    (2, 1, 1, 0, 0): 1,
    (2, 0, 2, 0, 0): 1,
    (1, 1, 2, 0, 0): 1,
    (2, 0, 1, 0, 1): 1,
    (1, 0, 2, 0, 1): 1,
}

GROTHENDIECK_21231 = {
    (2, 1, 2, 0, 1): 2,
    (2, 1, 2, 0, 0): -2,
    (2, 0, 2, 0, 1): -2,
    (2, 1, 1, 0, 1): -1,
    (1, 1, 2, 0, 1): -1,
    (2, 1, 1, 0, 0): 1,
    (2, 0, 2, 0, 0): 1,
    (1, 1, 2, 0, 0): 1,
    (2, 0, 1, 0, 1): 1,
    (1, 0, 2, 0, 1): 1,
}

REDUCTION_EXAMPLE = [
    [1, 2, 3, 1, 1],
    [2, 1, 3, 0, -1],
    [3, -3, 0, 0, 3],
]

REDUCTION_R = (
    (1, Fraction(-2, 3), -1, Fraction(1, 3), Fraction(1, 9)),
    (0, 1, 1, Fraction(-2, 3), Fraction(-1, 3)),
    (0, 0, 0, 1, 1),
)

PATTERN_2442343 = [
    "0 0 0 0 0 0 0",
    "1 * * 1 * * *",
    "0 0 0 0 1 0 1",
    "0 1 1 0 0 1 *",
]


def test_criterion_1_worked_example_goldens():
    """Each documented worked example reproduces exactly, under 1s apiece."""
    timings = []

    def check(name, fn):
        t0 = time.perf_counter()
        fn()
        timings.append((name, time.perf_counter() - t0))

    check("schubert-24153", lambda: _assert_terms(
        schubert(Permutation("24153")).restrict_arity(5), SCHUBERT_24153))

    def g12354():
        want = Poly.zero(4)
        for j in (1, 2, 3, 4):
            want = want + (-1) ** (j + 1) * elementary_symmetric(j, 4)
        assert grothendieck(Permutation("12354")).restrict_arity(4) == want
    check("grothendieck-12354", g12354)

    def word_bookkeeping():
        w = Word("2442343", 4)
        assert w.convexify().letters == (2, 2, 4, 4, 4, 3, 3)
        assert w.associated_permutation() == Permutation("1423657")
        assert w.initial_positions() == {1, 2, 5}
        assert Word("2244433", 4).standardize() == Permutation("25467381")
        v = Word("21231", 3)
        assert v.convexify().standardize() == Permutation("24153")
        assert v.associated_permutation().inverse() == Permutation("13254")
    check("word-bookkeeping", word_bookkeeping)

    check("schubert-21231", lambda: _assert_terms(
        schubert_of_word(Word("21231", 3)), SCHUBERT_21231))
    check("grothendieck-21231", lambda: _assert_terms(
        grothendieck_of_word(Word("21231", 3)), GROTHENDIECK_21231))

    def reduction_example():
        R, word = reduction(REDUCTION_EXAMPLE)
        assert word.letters == (1, 2, 2, 3, 3)
        assert R == REDUCTION_R
    check("reduction-example", reduction_example)

    check("pattern-matrix-2442343", lambda: _assert_render(
        pattern_matrix(Word("2442343", 4)), PATTERN_2442343))

    slow = [(name, dt) for name, dt in timings if dt >= 1.0]
    assert not slow, "goldens over the 1s budget: %s" % slow
    _report(1, "worked-example goldens", sum(dt for _, dt in timings))


def _assert_terms(poly, want):
    assert dict(poly.items()) == want


def _assert_render(pm, want):
    assert pm.render().splitlines() == want


def test_criterion_2_diagram_counts():
    """Exactly five reduced diagrams of each kind for 24153 and 21231."""
    t0 = time.perf_counter()
    w = Permutation("24153")
    v = Word("21231", 3)
    assert len(enumerate_reduced(w)) == 5
    assert len(enumerate_reduced_bpd(w)) == 5
    assert len(enumerate_word_pds(v, reduced=True)) == 5
    assert len(enumerate_word_bpds(v, reduced=True)) == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "diagram counts", elapsed)


def test_criterion_3_permutation_generating_functions():
    """Weight sums over diagrams equal the recursion polynomials:
    pipe dreams through S_5, bumpless and double versions through S_4;
    exact integers, under 60s."""
    t0 = time.perf_counter()
    for n in range(1, 6):
        heavy = n <= 4
        for ol in itertools.permutations(range(1, n + 1)):
            w = Permutation(list(ol))
            s = schubert(w).restrict_arity(n)
            g = grothendieck(w).restrict_arity(n)
            assert pd_schubert(w) == s
            assert pd_grothendieck(w) == g
            if heavy:
                assert bpd_schubert(w) == s
                assert bpd_grothendieck(w) == g
                assert pd_schubert(w, double=True) == schubert_double(w)
                assert pd_grothendieck(w, double=True) == grothendieck_double(w)
                assert bpd_schubert(w, double=True) == schubert_double(w)
                assert bpd_grothendieck(w, double=True) == grothendieck_double(w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "permutation generating functions", elapsed)


def test_criterion_4_word_generating_functions():
    """For every Fubini word with n <= 5, k <= n: word pipe dream and word
    BPD weight sums equal the word polynomials, and both rectangularity
    checks report zero violations; under 120s."""
    t0 = time.perf_counter()
    words = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for letters in enumerate_fubini(n, k):
                word = Word(letters, k)
                words += 1
                s = schubert_of_word(word)
                g = grothendieck_of_word(word)
                assert word_pd_schubert(word) == s
                assert word_pd_grothendieck(word) == g
                assert word_bpd_schubert(word) == s
                assert word_bpd_grothendieck(word) == g
                assert check_word_rectangularity(word, reduced=True) == []
                assert check_word_rectangularity(word, reduced=False) == []
                assert check_word_bpd_rectangularity(word, reduced=True) == []
                assert check_word_bpd_rectangularity(word, reduced=False) == []
    assert words == 633
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, "word generating functions and rectangularity", elapsed)


def test_criterion_5_ring_verification():
    """Every feasible ring size verifies: expected rank, torsion-free,
    ideal equality, and unimodular Grothendieck/Schubert bases."""
    t0 = time.perf_counter()
    pairs = desk_scale_pairs()
    assert len(pairs) == 32
    heavy_elapsed = None
    for (n, k) in pairs:
        tp = time.perf_counter()
        rep = verify_rings(n, k)
        dt = time.perf_counter() - tp
        if (n, k) == (5, 3):
            heavy_elapsed = dt
        assert rep["rank"] == math.factorial(k) * stirling2(n, k), (n, k)
        assert rep["torsion_free"], (n, k)
        assert rep["ideal_equal"], (n, k)
        assert rep["grothendieck_basis"], (n, k)
        assert rep["schubert_basis"], (n, k)
        assert rep["ok"], (n, k)
    assert heavy_elapsed is not None and heavy_elapsed < 600.0
    _report(5, "ring verification", time.perf_counter() - t0)


def test_criterion_6_randomized_property_suites():
    """The derandomized property suites (>= 500 samples each) pass."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(TESTS_DIR))
    try:
        import test_properties
    finally:
        sys.path.pop(0)
    assert test_properties.SAMPLES >= 500
    assert test_properties.suite.derandomize is True
    assert test_properties.suite.max_examples >= 500
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS_DIR / "test_properties.py"),
         "-q", "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _report(6, "randomized property suites", time.perf_counter() - t0)


def test_criterion_7_documented_discrepancy_report(capsys):
    """The cell-dimension bookkeeping for 2442343 reports the three
    mutually inconsistent closed-form values (6, 16, 9), flags the
    disagreement, and still exits successfully."""
    t0 = time.perf_counter()
    rep = cell_dimension_report(Word("2442343", 4))
    assert rep["star_count"] == 6
    assert rep["kn_minus_length"] == 16
    assert rep["cell_dimension"] == 9
    assert rep["consistent"] is False
    rc = cli_main(["cell-report", "2442343", "--k", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "note:" in out and "disagree" in out
    _report(7, "documented-discrepancy report", time.perf_counter() - t0)
