"""Time one benchmark workload on a base commit and on the working tree.

    python3 benchmarks/bench_pairs.py --workload diagrams --seed 4242 \\
        --pairs 10 --seconds 40 [--base HEAD] [--out BENCH_diagrams.json]

The base commit is exported with ``git archive`` into a temporary directory
(``TMPDIR`` decides where), so a run leaves nothing behind in the
repository's ``.git`` even when it is interrupted.  Each pair runs
``python3 perfbench/run.py`` once in the base tree and once in the working
tree, each with its own ``perfbench/`` and ``src/``.  The side that goes
first alternates from pair to pair, so a drift in the host's speed hits
both sides alike.  One ``--trace 1`` run per side then gives the per-layer
split.

The JSON output holds every run; each side's median and quartiles per
end-to-end metric; how many pairs the working tree won (lower is better for
every end-to-end metric); the kernel that ran; and the machine.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
SIDES = ("base", "change")


# the topic of each workload's committed BENCH_<topic>.json, where it is not
# the workload's own name
TOPICS = {"poly-table": "poly"}


def default_out(workload):
    """The committed record of `workload`: BENCH_<topic>.json in the repo."""
    return ROOT / ("BENCH_%s.json" % TOPICS.get(workload, workload))


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_commit(ref, dest):
    """Write the files of commit `ref` into `dest`; return its hash."""
    sha = _git("rev-parse", "--verify", ref + "^{commit}")
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_benchmark(tree, args, trace):
    """One `perfbench/run.py` run in `tree`: (info line, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):     # 1: an oracle failed; keep going
        sys.exit("%s in %s exited %d:\n%s" % (" ".join(cmd), tree,
                                              proc.returncode, proc.stderr))
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    info = next(d for d in lines if "workload" in d)
    return info, lines[-1]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs):
    out = {}
    for m in METRICS:
        base = [r["base"][m] for r in runs]
        change = [r["change"][m] for r in runs]
        b, c = quartiles(base), quartiles(change)
        out[m] = {"base": b, "change": c,
                  "change_wins": sum(y < x for x, y in zip(base, change)),
                  "ratio": c["median"] / b["median"]}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--base", default="HEAD",
                   help="git ref of the base commit (default HEAD)")
    p.add_argument("--out", help="default: the workload's committed record "
                   "in the repo, BENCH_<topic>.json (see default_out)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 to give quartiles")
    out = Path(args.out or default_out(args.workload))

    base_dir = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        sha = export_commit(args.base, base_dir)
        trees = {"base": base_dir, "change": ROOT}
        runs, infos, correct = [], {}, True
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"pair": i + 1, "first": order[0]}
            for side in order:
                info, result = run_benchmark(trees[side], args, trace=False)
                infos[side] = info
                correct &= result["correct"]
                run[side] = {m: result["metrics"][m]["value"] for m in METRICS}
            runs.append(run)
            print(json.dumps(run), flush=True)
        layers = {}
        for side in SIDES:
            info, result = run_benchmark(trees[side], args, trace=True)
            correct &= result["correct"]
            layers[side] = {k: v["value"] for k, v in result["metrics"].items()}
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    dirty = _git("status", "--porcelain", "--untracked-files=no")
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs,
        "base": sha,
        "change": "working tree at %s%s" % (
            _git("rev-parse", "HEAD"), " with uncommitted edits"
            if dirty else ""),
        "correct": correct,
        "kernel": {side: infos[side]["kernel"] for side in SIDES},
        "machine": dict(infos["change"]["machine"],
                        platform=platform.platform(),
                        processor=platform.processor() or platform.machine(),
                        cpus_usable=len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "summary": summarize(runs),
        "runs": runs,
        "layers": layers,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("wrote %s" % out)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
