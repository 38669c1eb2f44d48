"""Compare the compiled and pure integer-lattice kernels.

Each case is timed in a fresh subprocess per backend (the backend is chosen
at import time from the PIPEDREAMS_PURE environment variable), and each
subprocess reports which kernel it actually loaded.  When the compiled
extension is built, a run prints one row per case with both timings and the
speedup.  When it is not built, the run says so in one line and prints the
pure timings alone, since both backends would be the same code.

Cases go through the production IntegerLattice wrapper: when a case
overflows the compiled 64-bit kernel it replays on the pure one, and the row
is marked with `*` (the "compiled" column then measures the failed attempt
plus the replay, which is the real cost of that input on the default
backend).  The structured cases imitate the package's real feeds --
unitriangular bases plus redundant integer combinations, where Hermite
pivots stay small.  The dense case is a worst-case input whose coefficient
growth exceeds 64 bits; it is the only case that exercises the overflow
replay, because the `rings-*` cases (``verify_rings``) build only the
elementary ideal and the two stacked basis lattices, whose pivots are 1.

Usage: python3 benchmarks/bench_lattice.py [--repeat R]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

CASES = ("hnf-dense-160x80", "hnf-structured-16000x4000",
         "membership-4000x2500", "rank-mod-p-800x400",
         "rings-5-4", "rings-5-5", "rings-7-3", "rings-12-2")


def _synthetic_rows(rng, nrows, ncols, density, bound):
    rows = []
    for _ in range(nrows):
        row = [(c, rng.randint(-bound, bound))
               for c in range(ncols) if rng.random() < density]
        rows.append(tuple((c, v) for c, v in row if v))
    return rows


def _unitriangular_rows(rng, ncols, tail, bound):
    rows = []
    for i in range(ncols):
        later = list(range(i + 1, ncols))
        picks = rng.sample(later, min(tail, len(later)))
        row = [(i, 1)] + [(c, rng.randint(-bound, bound))
                          for c in sorted(picks)]
        rows.append(tuple((c, v) for c, v in row if v))
    return rows


def _combination_rows(rng, base, count, mix):
    out = []
    for _ in range(count):
        merged = {}
        for r in rng.sample(base, mix):
            coef = rng.choice((-3, -2, -1, 1, 2, 3))
            for c, v in r:
                merged[c] = merged.get(c, 0) + coef * v
        out.append(tuple(sorted((c, v) for c, v in merged.items() if v)))
    return out


def run_case(name):
    from pipedreams.rings import IntegerLattice, verify_rings
    from pipedreams._backend import lattice_impl
    rng = random.Random(20240816)
    fell_back = False
    if name == "hnf-dense-160x80":
        rows = _synthetic_rows(rng, 160, 80, 0.9, 40)
        t0 = time.perf_counter()
        lat = IntegerLattice(80, rows)
        lat.canonical_rows()
        sink = lat.rank
        fell_back = lat.kernel_name == "pure"
    elif name == "hnf-structured-16000x4000":
        base = _unitriangular_rows(rng, 4000, 25, 4)
        rows = base + _combination_rows(rng, base, 12000, 4)
        t0 = time.perf_counter()
        lat = IntegerLattice(4000, rows)
        sink = lat.rank
        fell_back = lat.kernel_name == "pure"
    elif name == "membership-4000x2500":
        base = _unitriangular_rows(rng, 2500, 20, 4)
        probes = _combination_rows(rng, base, 4000, 3)
        t0 = time.perf_counter()
        lat = IntegerLattice(2500, base)
        sink = sum(lat.contains_row(p) for p in probes)
        fell_back = lat.kernel_name == "pure"
    elif name == "rank-mod-p-800x400":
        rows = _synthetic_rows(rng, 800, 400, 0.05, 1000)
        rows = [[(c, v % 1009) for c, v in row] for row in rows]
        t0 = time.perf_counter()
        sink = lattice_impl.rank_mod_p(rows, 400, 1009)
    elif name.startswith("rings-"):
        _, n, k = name.split("-")
        t0 = time.perf_counter()
        rep = verify_rings(int(n), int(k))
        sink = rep["rank"]
        if not rep["ok"]:
            raise AssertionError("ring verification failed in benchmark")
    else:
        raise ValueError("unknown case %r" % name)
    dt = time.perf_counter() - t0
    return dt, sink, fell_back


def _run_case(here, case, repeat, pure):
    env = dict(os.environ, PIPEDREAMS_PURE=pure)
    out = subprocess.run(
        [sys.executable, here, "--case", case, "--repeat", str(repeat)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.case:
        from pipedreams._backend import KERNEL_COMPILED
        best = min(run_case(args.case) for _ in range(args.repeat))
        print(json.dumps({"case": args.case, "seconds": best[0],
                          "sink": best[1], "fell_back": best[2],
                          "kernel_compiled": KERNEL_COMPILED}))
        return 0

    here = os.path.abspath(__file__)
    compiled = None
    any_fallback = False
    for case in CASES:
        default = _run_case(here, case, args.repeat, "0")
        if compiled is None:
            compiled = default["kernel_compiled"]
            if not compiled:
                print("compiled kernel not built: every case ran on the "
                      "pure kernel, so no speedup is shown")
                header = "%-27s %12s" % ("case", "pure (s)")
            else:
                header = "%-27s %12s %12s %9s" % (
                    "case", "compiled (s)", "pure (s)", "speedup")
            print(header)
            print("-" * len(header))
        if not compiled:
            print("%-27s  %11.3f" % (case, default["seconds"]))
            continue
        pure = _run_case(here, case, args.repeat, "1")
        if default["sink"] != pure["sink"]:
            raise AssertionError("backends disagree on case %s" % case)
        fast, slow = default["seconds"], pure["seconds"]
        mark = "*" if default["fell_back"] else " "
        any_fallback = any_fallback or default["fell_back"]
        print("%-27s%s %11.3f %12.3f %8.1fx"
              % (case, mark, fast, slow, slow / fast if fast else float("inf")))
    if any_fallback:
        print("* 64-bit overflow: the default backend replayed on the pure kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
