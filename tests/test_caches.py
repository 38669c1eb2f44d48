"""The package's caches: every one is a bounded `poly._Memo` that
`clear_caches()` empties, and no module memoizes through `functools`.

The ring S_{n,k} is the value (n, k), not a cached table, so elements of
separately built rings of one (n, k) compare equal and add.
"""

import ast
import importlib
import itertools
import pkgutil
from pathlib import Path

import pipedreams
from pipedreams import (Permutation, Word, bpd_grothendieck, clear_caches,
                        enumerate_all, grothendieck, mask_cache_info,
                        pd_grothendieck, poly, schubert, word_bpd_schubert,
                        word_pd_schubert)
from pipedreams.poly import Poly, _Memo
from pipedreams.rings import SnkElement, SnkRing, project_to_snk


def _modules():
    return [importlib.import_module("pipedreams." + m.name)
            for m in pkgutil.iter_modules(pipedreams.__path__)]


def test_no_module_memoizes_through_functools():
    found = []
    for path in sorted(Path(pipedreams.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += ["%s: functools.%s" % (path.name, name) for name in names
                      if name in ("lru_cache", "cache")]
    assert found == []


def test_clear_caches_empties_every_memo():
    schubert(Permutation("2143"))
    pd_grothendieck("1432")
    bpd_grothendieck("1432")
    word_pd_schubert(Word("21231", 3))
    word_bpd_schubert(Word("21231", 3))
    enumerate_all("1432")
    Poly.x(1, 2).divided_difference(1)      # fills the step mask memo
    memos = {}      # a memo imported under a second name is found twice
    for m in _modules():
        for name, v in vars(m).items():
            if isinstance(v, _Memo):
                memos.setdefault(id(v), ("%s.%s" % (m.__name__, name), v))
    assert len(memos) == 5 and all(len(v) for _, v in memos.values()), memos
    clear_caches()
    assert [name for name, v in memos.values() if len(v)] == []


def test_mask_cache_info_reads_the_step_mask_memo():
    clear_caches()
    assert mask_cache_info() == {"entries": 0, "masks": 0, "hits": 0,
                                 "misses": 0, "evictions": 0}
    for w in itertools.permutations(range(1, 5)):
        schubert(Permutation(w))
    info = mask_cache_info()
    assert info == poly._MASKS.info()
    # an entry weighs the masks of d_i and of pi_i's second sum once each,
    # though its two (plus, minus) pairs both hold d_i's
    assert (info["masks"], info["entries"]) == (21, 11) and info["hits"] > 0
    assert info["misses"] == info["entries"] and info["evictions"] == 0
    clear_caches()
    for w in itertools.permutations(range(1, 6)):
        grothendieck(Permutation(w))
    info = mask_cache_info()
    assert (info["masks"], info["entries"]) == (56, 24)
    assert info["misses"] == info["entries"] and info["evictions"] == 0
    clear_caches()
    assert not any(mask_cache_info().values())


def test_rings_built_apart_are_one_value():
    a, b = SnkRing(3, 2), SnkRing(3, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    x1 = project_to_snk(Poly.x(1, 3), 3, 2)
    ea = SnkElement(a, x1.items())
    eb = SnkElement(b, x1.items())
    assert ea == eb and hash(ea) == hash(eb)
    assert (ea + eb).items() == [(i, 2 * c) for i, c in x1.items()]
    assert (ea - eb).items() == []
