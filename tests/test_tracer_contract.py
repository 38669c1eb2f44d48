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
