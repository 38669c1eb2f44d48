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
from pipedreams import Permutation, Poly
from pipedreams.rings import IntegerLattice

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
WORKLOADS = LAYERS.with_name("workloads.py")


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



def count_calls(monkeypatch, module, names):
    """Wrap module.<name> for each name, recording the length of each
    returned list per name."""
    calls = {}
    for name in names:
        def counted(*args, _real=getattr(module, name), _name=name, **kw):
            out = _real(*args, **kw)
            calls.setdefault(_name, []).append(len(out))
            return out
        monkeypatch.setattr(module, name, counted)
    return calls


def test_pd_sums_enumerate_through_the_module_globals(monkeypatch):
    # the tracer wraps the enumerations in the module namespace and counts
    # their diagrams (`pipedream.diagrams`); a double sum that enumerated
    # through a private helper would drop out of that count silently.  The
    # single and word sums are added by rows and list no diagram.
    from pipedreams import Permutation, Word, clear_caches, pipedream

    w, word = Permutation("2143"), Word("21231", 3)
    sizes = {"enumerate_reduced": len(pipedream.enumerate_reduced(w)),
             "enumerate_all": len(pipedream.enumerate_all(w))}
    calls = count_calls(monkeypatch, pipedream, sizes)

    for double in (False, True):
        pipedream.pd_schubert(w, double=double)
        pipedream.pd_grothendieck(w, double=double)
    assert calls == {name: [size] for name, size in sizes.items()}
    calls.clear()
    clear_caches()
    pipedream.word_pd_schubert(word)
    pipedream.word_pd_grothendieck(word)
    assert calls == {}


def test_word_bpd_sums_enumerate_through_the_module_globals(monkeypatch):
    # `bpd.diagrams` counts the BPD enumerations the tracer wraps in the
    # module namespace; the word BPD views reach them through it on every
    # call, and the word BPD sums, added by rows, list no BPD
    from pipedreams import Word, bpd, clear_caches

    word = Word("21231", 3)
    clear_caches()
    # a view per parent BPD: a parent outside the rectangle would raise
    views = [len(bpd.enumerate_word_bpds(word, reduced))
             for reduced in (True, False)]
    calls = count_calls(monkeypatch, bpd,
                        ("enumerate_reduced_bpd", "enumerate_all_bpd"))

    clear_caches()      # the word sums list no BPD, even from cold
    bpd.word_bpd_schubert(word)
    bpd.word_bpd_grothendieck(word)
    assert calls == {}
    for reduced in (True, False):
        bpd.enumerate_word_bpds(word, reduced)
    assert calls == {"enumerate_reduced_bpd": views[:1],
                     "enumerate_all_bpd": views[1:]}


def test_bpd_sums_enumerate_through_the_module_globals(monkeypatch):
    # the double permutation BPD sums reach the enumerations the tracer
    # wraps, so `bpd.diagrams` counts them; the single sums list no BPD
    from pipedreams import Permutation, bpd

    w = Permutation("2143")
    sizes = {"enumerate_reduced_bpd": len(bpd.enumerate_reduced_bpd(w)),
             "enumerate_all_bpd": len(bpd.enumerate_all_bpd(w))}
    calls = count_calls(monkeypatch, bpd, sizes)

    for double in (False, True):
        bpd.bpd_schubert(w, double=double)
        bpd.bpd_grothendieck(w, double=double)
    assert calls == {name: [size] for name, size in sizes.items()}


def test_methods_the_workload_checks_call_exist():
    # perfbench/workloads.py checks its tables through these methods; one
    # removed would turn a run into `correct: false`, not a Tier-1 failure
    text = WORKLOADS.read_text()
    for cls, names in ((Poly, ("lowest_degree_component", "specialize_y_zero",
                               "restrict_arity", "coefficient")),
                       (Permutation, ("lehmer_code",))):
        for name in names:
            assert "." + name + "(" in text, name
            assert callable(vars(cls).get(name)), (cls.__name__, name)
