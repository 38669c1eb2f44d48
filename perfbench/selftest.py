"""Quick self-test of the benchmark, at tiny sizes (about 10 s).

    python3 perfbench/selftest.py

Runs the three workloads in ``--quick`` mode with and without tracing and
checks: the JSON shape of the result line; that its metric names and units
are exactly those of BENCHMARK.json; that every oracle passes; that every
layer a workload calls reports non-zero per-layer figures; that the self
times and the unwrapped remainder add up to the traced wall time; that the
oracles catch a corrupted output; and that the command fails without a
result when the package is missing.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

# metric prefixes of the layers each workload calls
LAYERS = {
    "rings": ("poly.", "combinat.", "rings.", "lattice."),
    "diagrams": ("poly.", "combinat.", "pipedream.", "bpd."),
    "poly-table": ("poly.",),
}
# zero on the pure kernel, or not called by a workload that calls the layer
MAY_BE_ZERO = {"lattice.fallbacks", "lattice.compiled"}
NOT_CALLED = {"poly-table": {"poly.word_s"}}

problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def check_result(workload, trace):
    proc = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    expect(proc.returncode == 0, "%s exited %d: %s"
           % (where, proc.returncode, proc.stderr[-2000:]))
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (where, sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0,
           "%s: oracle failures %s" % (where, proc.stderr[-2000:]))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           "%s: attempted %r" % (where, result["attempted"]))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in spec},
           "%s: metric names differ from BENCHMARK.json: %s"
           % (where, sorted(set(metrics) ^ {m["name"] for m in spec})))
    for m in spec:
        got = metrics.get(m["name"], {})
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               "%s: %s is %r, unit should be %s"
               % (where, m["name"], got, m["unit"]))
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value)
               and value >= 0, "%s: %s = %r" % (where, m["name"], value))
    if not trace:
        for name, got in metrics.items():
            expect(got["value"] > 0, "%s: %s is 0" % (where, name))
        return

    values = {name: got["value"] for name, got in metrics.items()}
    self_metrics = set(layers.SELF_METRIC.values())
    covered = sum(values[m] for m in self_metrics) + values["trace.unwrapped_s"]
    expect(math.isclose(covered, values["trace.wall_s"], rel_tol=1e-9),
           "%s: self times + unwrapped = %r, traced wall = %r"
           % (where, covered, values["trace.wall_s"]))
    expect(values["trace.unwrapped_s"] > 0,
           "%s: unwrapped time is not positive" % where)
    for name, value in values.items():
        called = (name.startswith(LAYERS[workload] + ("trace.",))
                  and name not in MAY_BE_ZERO
                  and name not in NOT_CALLED.get(workload, ()))
        if called:
            expect(value > 0, "%s: %s is 0 but the layer is called"
                   % (where, name))
        elif name.startswith(("pipedream.", "bpd.", "rings.", "lattice.")):
            expect(value == 0 or name in MAY_BE_ZERO,
                   "%s: %s = %r but the layer is not called"
                   % (where, name, value))


def check_oracles_catch_errors():
    """Corrupt one output of every kind; the oracles must notice."""
    for workload, (make_items, run_item, checks) in workloads.WORKLOADS.items():
        items = make_items(True)
        random.Random(7).shuffle(items)
        outputs = [(item, run_item(item)) for item in items]
        clean = [label for label, check in checks(outputs) if not check()]
        expect(not clean, "%s: clean outputs fail %s" % (workload, clean[:3]))
        if workload == "poly-table":
            targets = [next(i for i, (item, _) in enumerate(outputs)
                            if item[0] == kind)
                       for kind in workloads.POLY_KINDS]
        else:
            targets = [0]
        for i in targets:
            item, out = outputs[i]
            if workload == "rings":
                bad = dict(out, rank=out["rank"] + 1)
            elif workload == "diagrams":
                name, diagram_sum, recursion = out[0]
                bad = [(name, diagram_sum + 1, recursion)] + out[1:]
            else:
                bad = out + 1
            corrupted = outputs[:i] + [(item, bad)] + outputs[i + 1:]
            caught = [label for label, check in checks(corrupted)
                      if not check()]
            expect(caught, "%s: corrupting %r went unnoticed"
                   % (workload, item))


def check_fails_without_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("rings", 0, cwd=tmp)
        expect(proc.returncode != 0, "ran without the package")
        expect('"correct"' not in proc.stdout,
               "printed a result without the package")


def main():
    for workload in LAYERS:
        for trace in (0, 1):
            check_result(workload, trace)
    check_oracles_catch_errors()
    check_fails_without_package()
    for p in problems:
        print("FAIL: %s" % p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
