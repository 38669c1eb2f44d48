"""The pair benchmark's default output names the committed record."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "benchmarks" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_out_is_the_committed_record():
    default_out = load_bench_pairs().default_out
    names = {workload: default_out(workload).name
             for workload in ("rings", "diagrams", "poly-table")}
    assert names == {"rings": "BENCH_rings.json",
                     "diagrams": "BENCH_diagrams.json",
                     "poly-table": "BENCH_poly.json"}
    for workload in names:
        assert default_out(workload).parent == ROOT
        assert default_out(workload).is_file(), workload
