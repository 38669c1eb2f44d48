"""The pair benchmark: its default output names the committed record, and
its summary gives each metric's verdicts against the declared bounds."""

import importlib.util
from pathlib import Path

import pytest

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


def _runs(base, change, metric="wall_s"):
    """Synthetic pairs: `metric` takes the given values; every other metric
    is 1.0 on both sides."""
    runs = []
    for x, y in zip(base, change, strict=True):
        sides = [dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mb", "setup_s"),
                               1.0) for _ in range(2)]
        sides[0][metric], sides[1][metric] = x, y
        runs.append({"base": sides[0], "change": sides[1]})
    return runs


def test_bounds_are_read_from_the_benchmark_declaration():
    bench = load_bench_pairs()
    assert bench.read_bounds() == {"wall_s": 0.25, "cpu_s": 0.25,
                                   "peak_rss_mb": 0.15, "setup_s": 0.25}


@pytest.mark.parametrize("base, change, verdicts", [
    # a clear gain: 10 of 10 pairs, median 0.2 below, base IQR 0.002
    ([1.0, 1.001, 0.999, 1.002, 0.998] * 2, [0.8] * 10,
     {"unresolved": False, "within_bound": True, "gain": True}),
    # level: ties count for neither side
    ([1.0] * 10, [1.0] * 10,
     {"unresolved": False, "within_bound": True, "gain": False}),
    # 9 of 10 pairs won, but by less than the base IQR
    ([1.0, 1.2] * 5, [0.99, 1.19] * 4 + [1.0, 1.2],
     {"unresolved": False, "within_bound": True, "gain": False}),
    # 8 of 10 pairs won by a wide margin: not 9 in 10
    ([1.0] * 10, [0.5] * 8 + [1.5] * 2,
     {"unresolved": False, "within_bound": True, "gain": False}),
    # a base IQR of 0.6 against a bound of 0.25: the runs overlap
    ([0.7, 1.3] * 5, [0.9, 1.4] * 5,
     {"unresolved": True, "within_bound": True, "gain": False}),
    # the same spread, but every change run beats every base run
    ([0.7, 1.3] * 5, [0.2, 0.3] * 5,
     {"unresolved": False, "within_bound": True, "gain": True}),
    # a regression past the bound: median 1.3 > 1.0 * (1 + 0.25)
    ([1.0] * 10, [1.3] * 10,
     {"unresolved": False, "within_bound": False, "gain": False}),
], ids=["gain", "level", "below-the-iqr", "eight-of-ten", "unresolved",
        "wide-but-apart", "regression"])
def test_summary_verdicts_on_synthetic_runs(base, change, verdicts):
    bench = load_bench_pairs()
    summary = bench.summarize(_runs(base, change), bench.read_bounds())
    wall = summary["wall_s"]
    assert {key: wall[key] for key in verdicts} == verdicts
    assert wall["bound"] == 0.25
    # the metrics left level are neither gains nor regressions
    for m in ("cpu_s", "peak_rss_mb", "setup_s"):
        assert summary[m]["change_wins"] == 0
        assert summary[m]["within_bound"] and not summary[m]["gain"]
        assert not summary[m]["unresolved"]


def test_the_bound_of_each_metric_is_its_own():
    bench = load_bench_pairs()
    # +20 % peak RSS passes a bound of 0.25 but not one of 0.15
    runs = _runs([100.0] * 4, [120.0] * 4, metric="peak_rss_mb")
    summary = bench.summarize(runs, bench.read_bounds())
    assert not summary["peak_rss_mb"]["within_bound"]
    runs = _runs([1.0] * 4, [1.2] * 4, metric="cpu_s")
    assert bench.summarize(runs, bench.read_bounds())["cpu_s"]["within_bound"]
