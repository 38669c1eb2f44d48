"""The package names that the benchmark's layer tracer wraps and reads.

Tier-1 never runs ``perfbench``, so a refactor that moves or renames a traced
function would otherwise show up only in ``perfbench/selftest.py``.  The
tracer module ``perfbench/layers.py`` is loaded here, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from pipedreams import _backend
from pipedreams.rings import IntegerLattice

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    self_metric = load_layers().SELF_METRIC
    assert self_metric
    for module, attr in self_metric:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() wraps vars(cls)[meth]: the method must be in the body
            assert meth in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr)), (module, attr)


def test_lattice_names_the_tracer_reads():
    # the build hook reads the rows as args[2] of the wrapped __init__
    params = list(inspect.signature(IntegerLattice.__init__).parameters)
    assert params == ["self", "ncols", "sparse_rows"]
    assert IntegerLattice.kernel_name == "pure"
    assert _backend.KERNEL_COMPILED is False



def test_pd_sums_enumerate_through_the_module_globals(monkeypatch):
    # the tracer wraps the enumerations in the module namespace and counts
    # their diagrams (`pipedream.diagrams`); a sum that enumerated through
    # a private helper would drop out of that count silently
    from pipedreams import Permutation, Word, clear_caches, pipedream

    w, word = Permutation("2143"), Word("21231", 3)
    sizes = {"enumerate_reduced": len(pipedream.enumerate_reduced(w)),
             "enumerate_all": len(pipedream.enumerate_all(w))}
    # every parent diagram of 21231 fits its rectangle: one view each
    views = [len(pipedream.enumerate_word_pds(word, reduced))
             for reduced in (True, False)]
    calls = {}
    for name in sizes:
        def counted(*args, _real=getattr(pipedream, name), _name=name, **kw):
            out = _real(*args, **kw)
            calls.setdefault(_name, []).append(len(out))
            return out
        monkeypatch.setattr(pipedream, name, counted)

    for double in (False, True):
        pipedream.pd_schubert(w, double=double)
        pipedream.pd_grothendieck(w, double=double)
    assert calls == {name: [size] * 2 for name, size in sizes.items()}
    calls.clear()
    clear_caches()      # the word views enumerate their parents on a miss
    pipedream.word_pd_schubert(word)
    pipedream.word_pd_grothendieck(word)
    assert calls == {"enumerate_reduced": views[:1], "enumerate_all": views[1:]}


def test_word_bpd_sums_enumerate_through_the_module_globals(monkeypatch):
    # `bpd.diagrams` counts the BPD enumerations the tracer wraps in the
    # module namespace; a word BPD sum must reach them through it
    from pipedreams import Word, bpd, clear_caches

    word = Word("21231", 3)
    # a view per parent BPD: a parent outside the rectangle would raise
    views = [len(bpd.enumerate_word_bpds(word, reduced))
             for reduced in (True, False)]
    calls = {}
    for name in ("enumerate_reduced_bpd", "enumerate_all_bpd"):
        def counted(*args, _real=getattr(bpd, name), _name=name, **kw):
            out = _real(*args, **kw)
            calls.setdefault(_name, []).append(len(out))
            return out
        monkeypatch.setattr(bpd, name, counted)

    clear_caches()      # the word views enumerate their parents on a miss
    bpd.word_bpd_schubert(word)
    bpd.word_bpd_grothendieck(word)
    assert calls == {"enumerate_reduced_bpd": views[:1],
                     "enumerate_all_bpd": views[1:]}


def test_bpd_sums_enumerate_through_the_module_globals(monkeypatch):
    # the single and double permutation BPD sums reach the enumerations
    # the tracer wraps, so `bpd.diagrams` counts them
    from pipedreams import Permutation, bpd

    w = Permutation("2143")
    sizes = {"enumerate_reduced_bpd": len(bpd.enumerate_reduced_bpd(w)),
             "enumerate_all_bpd": len(bpd.enumerate_all_bpd(w))}
    calls = {}
    for name in sizes:
        def counted(*args, _real=getattr(bpd, name), _name=name, **kw):
            out = _real(*args, **kw)
            calls.setdefault(_name, []).append(len(out))
            return out
        monkeypatch.setattr(bpd, name, counted)

    for double in (False, True):
        bpd.bpd_schubert(w, double=double)
        bpd.bpd_grothendieck(w, double=double)
    assert calls == {name: [size] * 2 for name, size in sizes.items()}
