"""Pickling, copying, equality and immutability of the value classes.

Every value class derives from `combinat.Frozen`: writing or deleting an
attribute raises, pickling and copying rebuild a value from its fields
through `_of`, and two values of one type are equal, and hash alike, when
their fields are.  A cached polynomial holds a read-only proxy of its terms
and unpickles with a plain dict.  A ring `rings.snk_ring(n, k)` is the value
(n, k), so an unpickled ring element equals its original.
"""

import copy
import pickle

import pytest

from pipedreams import (
    PatternMatrix,
    Permutation,
    Poly,
    Word,
    clear_caches,
    diagram_bpd,
    enumerate_all,
    enumerate_all_bpd,
    enumerate_word_bpds,
    enumerate_word_pds,
    k0_class_of_word,
    schubert,
)
from pipedreams.rings import snk_ring, verify_rings

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
    "PatternMatrix": lambda: PatternMatrix(W),
    "SnkElement": lambda: k0_class_of_word(W),
    "snk_ring table": lambda: snk_ring(3, 2),
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
    assert type(again) is type(value) and again == value
    assert hash(again) == hash(value)
    if hasattr(value, "to_json"):
        assert again.to_json() == value.to_json()


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_writes_and_deletions(name):
    value = VALUES[name]()
    fields = type(value)._fields
    before = [getattr(value, field) for field in fields]
    for field in fields + ("extra",):
        with pytest.raises(AttributeError, match=" is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=" is immutable"):
            delattr(value, field)
    assert fields and [getattr(value, field) for field in fields] == before


def test_shared_values_refuse_changes_to_their_contents():
    clear_caches()
    cached = schubert(Permutation("132"))
    with pytest.raises(TypeError):
        cached.terms[0] = 1
    with pytest.raises(AttributeError):
        cached.nx = 1
    assert schubert(Permutation("132")) is cached
    assert cached.to_text() == "x1 + x2"
    assert verify_rings(3, 2)["ok"]
    clear_caches()


def test_values_of_different_types_are_unequal():
    assert Permutation((1, 2)) != Word((1, 2), 2)
    assert Word((1, 2), 2) != Permutation((1, 2))


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
