"""The three benchmark workloads: their item sets, the calls each item makes,
and the oracles that check the outputs.

Every call goes through the public ``pipedreams`` namespace at call time
(``pipedreams.schubert(...)``, never a name bound at import), so the tracer
in ``layers.py`` sees it once it has replaced those attributes.

A workload is a fixed item set. The seed only shuffles the order in which
the items are issued; the order changes which cached ancestors the ``poly``
recursion finds, never the results.
"""

from __future__ import annotations

import itertools
import math

import pipedreams

# verify_rings at (6,4) takes about 54 s and at (5,5) about 14 s on the
# pure kernel, which would leave room for at most one pass per run.
RINGS_TOO_HEAVY = {(6, 4), (5, 5)}


def _perms(n):
    return [pipedreams.Permutation(list(p))
            for p in itertools.permutations(range(1, n + 1))]


def _surjections(n, k):
    """k! * S(n, k) by inclusion-exclusion, independent of the package."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


# -- rings -------------------------------------------------------------------


def rings_items(quick):
    pairs = pipedreams.desk_scale_pairs()
    if quick:
        return [(n, k) for n, k in pairs if k ** n <= 81]
    return [p for p in pairs if p not in RINGS_TOO_HEAVY]


def rings_run(item):
    n, k = item
    return pipedreams.verify_rings(n, k)


def rings_check(outputs):
    """Yield (label, check) for every check of every item; a check is a
    callable that returns whether it passed."""
    for (n, k), rep in outputs:
        yield "ok (%d,%d)" % (n, k), lambda rep=rep: rep["ok"] is True
        yield "rank (%d,%d)" % (n, k), lambda rep=rep, n=n, k=k: (
            rep["rank"] == _surjections(n, k)
            == math.factorial(k) * pipedreams.stirling2(n, k))


# -- diagrams ----------------------------------------------------------------

# `pipedreams verify identities --n 6`: PD sums over S_1..S_6, BPD and double
# sums only where the CLI runs them (n <= 4); then the word sums of
# acceptance criterion 4 over every Fubini word with n <= 5.
DIAGRAM_PERM_N, DIAGRAM_HEAVY_N, DIAGRAM_WORD_N = 6, 4, 5
QUICK_DIAGRAM_PERM_N, QUICK_DIAGRAM_HEAVY_N, QUICK_DIAGRAM_WORD_N = 4, 3, 3


def diagrams_items(quick):
    perm_n, heavy_n, word_n = (
        (QUICK_DIAGRAM_PERM_N, QUICK_DIAGRAM_HEAVY_N, QUICK_DIAGRAM_WORD_N)
        if quick else (DIAGRAM_PERM_N, DIAGRAM_HEAVY_N, DIAGRAM_WORD_N))
    items = [("perm", w, n <= heavy_n)
             for n in range(1, perm_n + 1) for w in _perms(n)]
    items += [("word", word)
              for n in range(1, word_n + 1) for k in range(1, n + 1)
              for word in pipedreams.enumerate_fubini(n, k)]
    return items


def diagrams_run(item):
    """Return (name, diagram sum, recursion polynomial) triples."""
    pd = pipedreams
    if item[0] == "word":
        word = item[1]
        s = pd.schubert_of_word(word)
        g = pd.grothendieck_of_word(word)
        return [("word-pd-schubert", pd.word_pd_schubert(word), s),
                ("word-pd-grothendieck", pd.word_pd_grothendieck(word), g),
                ("word-bpd-schubert", pd.word_bpd_schubert(word), s),
                ("word-bpd-grothendieck", pd.word_bpd_grothendieck(word), g)]
    _, w, heavy = item
    n = w.n
    s = pd.schubert(w).restrict_arity(n)
    g = pd.grothendieck(w).restrict_arity(n)
    out = [("pd-schubert", pd.pd_schubert(w), s),
           ("pd-grothendieck", pd.pd_grothendieck(w), g)]
    if heavy:
        sd = pd.schubert_double(w)
        gd = pd.grothendieck_double(w)
        out += [("bpd-schubert", pd.bpd_schubert(w), s),
                ("bpd-grothendieck", pd.bpd_grothendieck(w), g),
                ("pd-schubert-double", pd.pd_schubert(w, double=True), sd),
                ("pd-grothendieck-double", pd.pd_grothendieck(w, double=True), gd),
                ("bpd-schubert-double", pd.bpd_schubert(w, double=True), sd),
                ("bpd-grothendieck-double", pd.bpd_grothendieck(w, double=True), gd)]
    return out


def diagrams_check(outputs):
    for item, triples in outputs:
        for name, diagram_sum, recursion in triples:
            yield ("%s %s" % (name, item[1]),
                   lambda a=diagram_sum, b=recursion: a == b)


# -- poly-table --------------------------------------------------------------

# (schubert, grothendieck, schubert_double, grothendieck_double) over S_n.
# Schubert over S_8 is left out: it alone adds 4.5 s and 580 MB to a pass.
POLY_SIZES = (7, 7, 6, 5)
QUICK_POLY_SIZES = (4, 4, 3, 3)
POLY_KINDS = ("schubert", "grothendieck", "schubert_double",
              "grothendieck_double")


def poly_items(quick):
    sizes = QUICK_POLY_SIZES if quick else POLY_SIZES
    return [(kind, w) for kind, n in zip(POLY_KINDS, sizes) for w in _perms(n)]


def poly_run(item):
    kind, w = item
    return getattr(pipedreams, kind)(w)


def _pad(w, n):
    return pipedreams.Permutation(list(w.one_line) + list(range(w.n + 1, n + 1)))


def poly_check(outputs):
    """Properties of the tables that do not repeat their recursion:

    - G_w(1, ..., 1) = 1 (the coefficient sum);
    - the lowest-degree part of G_w is S_w;
    - S_w has coefficient 1 on x^code(w) and no negative coefficient;
    - a double polynomial at y = 0 is the single one, read off the larger
      single table by stability (w and w x 1 have the same polynomial).
    """
    table = {(kind, w.one_line): p for (kind, w), p in outputs}
    n_single = max(len(ol) for kind, ol in table if kind == "schubert")
    for (kind, ol), p in sorted(table.items()):
        w = pipedreams.Permutation(ol)
        if kind == "grothendieck":
            yield "G(1)=1 %s" % w, lambda p=p: sum(p.terms.values()) == 1
            yield "lowest(G)=S %s" % w, lambda p=p, ol=ol: (
                p.lowest_degree_component() == table[("schubert", ol)])
        elif kind == "schubert":
            yield "S code %s" % w, lambda p=p, w=w: (
                p.coefficient(w.lehmer_code()) == 1)
            yield "S >= 0 %s" % w, lambda p=p: all(
                c > 0 for c in p.terms.values())
        else:
            yield "%s(y=0) %s" % (kind, w), lambda p=p, w=w, kind=kind: (
                p.specialize_y_zero()
                == table[(kind[:-len("_double")], _pad(w, n_single).one_line)]
                .restrict_arity(w.n))


WORKLOADS = {
    "rings": (rings_items, rings_run, rings_check),
    "diagrams": (diagrams_items, diagrams_run, diagrams_check),
    "poly-table": (poly_items, poly_run, poly_check),
}
