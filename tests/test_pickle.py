"""Pickling and copying the immutable value classes and `Poly`.

The immutable classes forbid attribute writes, so the default slot-state
restore cannot rebuild them; each gives a `__reduce__` instead.  A cached
polynomial holds a read-only proxy of its terms and unpickles with a plain
dict.
"""

import copy
import pickle

import pytest

from pipedreams import (
    Permutation,
    Poly,
    Word,
    clear_caches,
    diagram_bpd,
    enumerate_all,
    enumerate_all_bpd,
    enumerate_word_bpds,
    enumerate_word_pds,
    schubert,
)

W = Word("21231", 3)

VALUES = {
    "Permutation": lambda: Permutation("2143"),
    "Word": lambda: W,
    "PipeDream": lambda: enumerate_all("2143")[-1],
    "Bpd": lambda: enumerate_all_bpd("2143")[-1],
    "diagram Bpd": lambda: diagram_bpd("24153"),
    "WordPipeDream": lambda: enumerate_word_pds(W, reduced=False)[-1],
    "WordBpd": lambda: enumerate_word_bpds(W, reduced=False)[-1],
    "Poly": lambda: Poly(2, 1, {(1, 0, 2): 3, (0, 1, 0): -1}),
    "cached Poly": lambda: schubert(Permutation("2143")),
}

COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_round_trip(name, how):
    value = VALUES[name]()
    again = COPIES[how](value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert again.to_json() == value.to_json()


def test_unpickled_cached_poly_holds_a_plain_dict():
    clear_caches()
    cached = schubert(Permutation("2143"))
    assert type(cached.terms) is not dict     # read-only in the cache
    again = pickle.loads(pickle.dumps(cached))
    assert type(again.terms) is dict and again.terms == dict(cached.terms)
    assert again + again == 2 * cached
    clear_caches()


def test_views_keep_their_parent_and_labels():
    V = enumerate_word_pds(W, reduced=False)[-1]
    again = pickle.loads(pickle.dumps(V))
    assert (again.diagram, again.n, again.k, again.labels, again.excess) == (
        V.diagram, V.n, V.k, V.labels, V.excess)
    assert again.render() == V.render()
