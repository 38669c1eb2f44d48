"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.

One client issues the workload's items one after another (a closed loop) in
a single thread. Each pass runs the whole item set in a fresh process, so
every pass pays for cold caches (``poly._CACHE``, ``rings.snk_ring``) as
every CLI invocation does. Passes repeat until ``--seconds`` is used up and
the medians are reported.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones and reports the per-layer metrics of the
median traced pass, next to the untraced median wall time.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``attempted`` and ``failed`` count oracle checks. The exit code is 1 when any
check failed, and 2 or 3 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("rings", "diagrams", "poly-table")
SETUP_SAMPLES = 9          # set-up-only processes per run, besides the passes
HARD_LIMIT_S = 170.0       # no pass is started or kept running past this
PASS_ENV = {"PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny item sets, for the self-test")
    # set by the parent when it starts a pass process
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p


# -- one pass, in its own process ---------------------------------------------


def run_pass(args):
    """Set up, run every item, check the outputs; print one JSON line."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from pipedreams import _backend, poly

    import layers
    import workloads

    make_items, run_item, checks = workloads.WORKLOADS[args.workload]
    items = make_items(args.quick)
    random.Random(args.seed).shuffle(items)
    tracer = None
    if args.trace:
        tracer = layers.Tracer(_backend.KERNEL_COMPILED)
        layers.install(tracer)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs, failures, item_wall, item_cpu = [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    t0 = clock()
    for item in items:
        c, t = cpu_clock(), clock()
        try:
            outputs.append((item, run_item(item)))
        except Exception as exc:  # an item that raises is a failed check
            failures.append("%r raised %r" % (item, exc))
        item_wall.append(clock() - t)
        item_cpu.append(cpu_clock() - c)
    wall_s = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(failures)
    for label, check in checks(outputs):
        attempted += 1
        try:
            ok = check()
        except Exception as exc:
            ok, label = False, "%s raised %r" % (label, exc)
        if not ok:
            failures.append(label)

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": sum(item_cpu),
              "peak_rss_mb": peak_rss_mb, "items": len(items),
              "item_wall": item_wall, "item_cpu": item_cpu,
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:10],
              "kernel": "compiled" if _backend.KERNEL_COMPILED else "pure"}
    if tracer:
        result["layers"] = tracer.metrics(wall_s, poly._CACHE)
    print(json.dumps(result))
    return 0


# -- the run: many passes ------------------------------------------------------


class PassFailed(RuntimeError):
    pass


def _spawn(args, start, traced=False, setup_only=False):
    remaining = HARD_LIMIT_S - (time.monotonic() - start)
    if remaining <= 0:
        raise PassFailed("out of time before a pass could start")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **PASS_ENV},
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed("a pass ran past %.0f s" % HARD_LIMIT_S) from None
    if proc.returncode != 0:
        raise PassFailed("pass exited %d:\n%s" % (proc.returncode,
                                                  proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cython": importlib.util.find_spec("Cython") is not None}


def _sum_of_item_medians(passes, key):
    """Loop time with each item timed by its median over the passes. Every
    pass runs the same items in the same order from a cold start, so a burst
    of load from other tenants costs one sample of the items it hits, not a
    whole pass."""
    return sum(statistics.median(times)
               for times in zip(*(p[key] for p in passes)))


def _median_pass(passes):
    """The pass with the median wall time (the lower one of an even count)."""
    ranked = sorted(passes, key=lambda p: p["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def measure(args):
    start = time.monotonic()
    setups = [_spawn(args, start, setup_only=True)["setup_s"]
              for _ in range(0 if args.trace else SETUP_SAMPLES)]
    kinds = [False, True] if args.trace else [False]
    passes = {False: [], True: []}
    longest = 0.0
    while True:
        for traced in kinds:
            if (all(passes[k] for k in kinds)
                    and time.monotonic() - start + longest > args.seconds):
                return setups, passes
            t0 = time.monotonic()
            p = _spawn(args, start, traced=traced)
            longest = max(longest, time.monotonic() - t0)
            p["traced"] = traced
            passes[traced].append(p)
            print(json.dumps({k: v for k, v in p.items()
                              if k not in ("layers", "item_wall", "item_cpu")}))


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.child:
        return run_pass(args)
    if not (SRC / "pipedreams" / "__init__.py").is_file():
        print("run.py: no package at %s; run from a repository checkout"
              % SRC, file=sys.stderr)
        return 2
    try:
        setups, passes = measure(args)
    except PassFailed as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 3

    plain, traced = passes[False], passes[True]
    every = plain + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "kernel": every[0]["kernel"], "machine": _machine(),
                      "passes": len(plain), "traced_passes": len(traced),
                      "fail_ratio": failed / attempted}))
    for p in every:
        for label in p["failures"]:
            print("FAILED: %s" % label, file=sys.stderr)

    if args.trace:
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        layer = dict(_median_pass(traced)["layers"])
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.overhead"] = layer["trace.wall_s"] / untraced_wall
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layer.items())}
    else:
        medians = {"wall_s": _sum_of_item_medians(plain, "item_wall"),
                   "cpu_s": _sum_of_item_medians(plain, "item_cpu"),
                   "peak_rss_mb": statistics.median(
                       p["peak_rss_mb"] for p in plain)}
        medians["setup_s"] = statistics.median(
            setups + [p["setup_s"] for p in plain])
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in medians.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead":
        return "ratio"
    if name == "lattice.compiled":
        return "flag"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
