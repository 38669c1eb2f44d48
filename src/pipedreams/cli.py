"""Command-line front end.

Subcommands cover the polynomial constructors (`schubert`, `grothendieck`),
diagram enumeration (`pipedreams`, `bpd`), the verification suites
(`verify rings`, `verify identities`), the matrix algorithms
(`pattern-matrix`, `reduce`, `cell-report`), and Fubini-word enumeration
(`fubini`).

Output format is `--format {text,json,latex,ascii-art}`, defaulting to the
PIPEDREAMS_FORMAT environment variable, then to text.  Verification
subcommands stream one progress line per unit of work and end with a single
machine-readable JSON summary line.  Exit status: 0 on success, 1 on
verification failure, 2 on usage errors (bad words, out-of-range sizes,
malformed matrices).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .bpd import enumerate_all_bpd, enumerate_reduced_bpd, enumerate_word_bpds
from .bpd import bpd_grothendieck, bpd_schubert
from .combinat import Permutation, Word, all_permutations, enumerate_fubini, fubini_count
from .geometry import (
    ReductionError,
    cell_dimension_report,
    fits_pattern,
    matrix_from_json,
    pattern_matrix,
    random_matrix,
    reduction,
)
from .pipedream import enumerate_all, enumerate_reduced, enumerate_word_pds
from .pipedream import pd_grothendieck, pd_schubert
from .poly import (
    grothendieck,
    grothendieck_double,
    grothendieck_of_word,
    schubert,
    schubert_double,
    schubert_of_word,
)
from .rings import DeskScaleError, desk_scale_pairs, verify_rings

FORMATS = ("text", "json", "latex", "ascii-art")
FORMAT_ENV = "PIPEDREAMS_FORMAT"
VERIFY_N_CAP = 6


def _default_format():
    env = os.environ.get(FORMAT_ENV)
    if env in FORMATS:
        return env
    if env:
        print("ignoring %s=%r (expected one of %s)"
              % (FORMAT_ENV, env, "/".join(FORMATS)), file=sys.stderr)
    return "text"


def _parse_perm_or_word(text, k=None):
    """A string of letters is a permutation when it uses 1..n exactly once
    and no alphabet size is forced; otherwise it is a word in [k]^n."""
    word = Word(text, k)
    letters = word.letters
    if k is None and sorted(letters) == list(range(1, len(letters) + 1)):
        return Permutation(letters), None
    return None, word


def _poly_out(poly, fmt):
    if fmt == "json":
        return poly.to_json()
    if fmt == "latex":
        return poly.to_latex()
    return poly.to_text()


# -- polynomial subcommands -----------------------------------------------------


def _cmd_schubert(args):
    return _poly_command(args, schubert, schubert_double, schubert_of_word)


def _cmd_grothendieck(args):
    return _poly_command(args, grothendieck, grothendieck_double,
                         grothendieck_of_word)


def _poly_command(args, single, double, of_word):
    perm, word = _parse_perm_or_word(args.input, args.k)
    if perm is not None:
        poly = double(perm) if args.double else single(perm).restrict_arity(perm.n)
    else:
        if args.double:
            raise ValueError("double polynomials are defined for permutations")
        poly = of_word(word)
    print(_poly_out(poly, args.format))
    return 0


# -- diagram subcommands ----------------------------------------------------------


def _diagram_json(subject, kind, diagrams, renders):
    payload = {
        kind: str(subject),
        "count": len(diagrams),
        "diagrams": [json.loads(D.to_json()) for D in diagrams],
    }
    if renders:
        payload["renders"] = renders
    return json.dumps(payload)


def _cmd_diagrams(args, bumpless):
    perm, word = _parse_perm_or_word(args.input, args.k)
    reduced = not args.all
    if perm is not None:
        if bumpless:
            diagrams = (enumerate_reduced_bpd if reduced else enumerate_all_bpd)(perm)
        else:
            diagrams = (enumerate_reduced if reduced else enumerate_all)(perm)
        subject, kind = perm, "permutation"
    else:
        if bumpless:
            diagrams = enumerate_word_bpds(word, reduced=reduced)
        else:
            diagrams = enumerate_word_pds(word, reduced=reduced)
        subject, kind = word, "word"
    name = "bumpless pipe dream" if bumpless else "pipe dream"
    flavor = "reduced" if reduced else "K-theoretic"
    want_render = args.render or args.format == "ascii-art"
    renders = [D.render() for D in diagrams] if want_render else None
    if args.format == "json":
        print(_diagram_json(subject, kind, diagrams, renders))
        return 0
    print("%d %s %ss of %s %s"
          % (len(diagrams), flavor, name, kind, subject))
    if renders:
        for text in renders:
            print()
            print(text)
    else:
        for D in diagrams:
            print(D.to_json())
    return 0


# -- verification subcommands ------------------------------------------------------


def _cmd_verify_rings(args):
    if (args.n is None) != (args.k is None):
        raise ValueError("--n and --k go together")
    if args.n is not None:
        pairs = [(args.n, args.k)]
        if args.n > VERIFY_N_CAP and not args.force:
            raise ValueError(
                "n = %d exceeds the default cap %d; pass --force"
                % (args.n, VERIFY_N_CAP))
    else:
        pairs = [(n, k) for (n, k) in desk_scale_pairs()
                 if n <= VERIFY_N_CAP or args.force]
    reports = []
    ok = True
    for (n, k) in pairs:
        rep = verify_rings(n, k)
        reports.append(rep)
        ok = ok and rep["ok"]
        print("verify rings (%d,%d): rank %d/%d torsion-free=%s "
              "ideal-equal=%s grothendieck-basis=%s schubert-basis=%s %s"
              % (n, k, rep["rank"], rep["expected"], rep["torsion_free"],
                 rep["ideal_equal"], rep["grothendieck_basis"],
                 rep["schubert_basis"], "ok" if rep["ok"] else "FAIL"))
    print(json.dumps({"command": "verify-rings", "pairs": reports, "ok": ok}))
    return 0 if ok else 1


def _identity_failures_for(n, include_heavy):
    """Check the generating-function identities over S_n; returns failures."""
    failures = []
    for w in all_permutations(n):
        if pd_schubert(w) != schubert(w).restrict_arity(n):
            failures.append("pd-schubert %s" % w)
        if pd_grothendieck(w) != grothendieck(w).restrict_arity(n):
            failures.append("pd-grothendieck %s" % w)
        if include_heavy:
            if bpd_schubert(w) != schubert(w).restrict_arity(n):
                failures.append("bpd-schubert %s" % w)
            if bpd_grothendieck(w) != grothendieck(w).restrict_arity(n):
                failures.append("bpd-grothendieck %s" % w)
            if pd_schubert(w, double=True) != schubert_double(w):
                failures.append("pd-schubert-double %s" % w)
            if pd_grothendieck(w, double=True) != grothendieck_double(w):
                failures.append("pd-grothendieck-double %s" % w)
            if bpd_schubert(w, double=True) != schubert_double(w):
                failures.append("bpd-schubert-double %s" % w)
            if bpd_grothendieck(w, double=True) != grothendieck_double(w):
                failures.append("bpd-grothendieck-double %s" % w)
    return failures


def _cmd_verify_identities(args):
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    if n > VERIFY_N_CAP and not args.force:
        raise ValueError("n = %d exceeds the default cap %d; pass --force"
                         % (n, VERIFY_N_CAP))
    all_failures = []
    sizes = []
    for m in range(1, n + 1):
        include_heavy = m <= 4
        failures = _identity_failures_for(m, include_heavy)
        all_failures.extend(failures)
        sizes.append({"n": m, "bpd_and_double": include_heavy,
                      "failures": failures})
        print("verify identities S_%d (%s): %s"
              % (m,
                 "PD+BPD+double" if include_heavy else "PD only",
                 "ok" if not failures else "FAIL %d" % len(failures)))
    ok = not all_failures
    print(json.dumps({"command": "verify-identities", "n": n,
                      "sizes": sizes, "ok": ok}))
    return 0 if ok else 1


# -- matrix subcommands -----------------------------------------------------------


def _cmd_pattern_matrix(args):
    word = Word(args.word, args.k)
    pm = pattern_matrix(word)
    if args.format == "json":
        print(pm.to_json())
    elif args.format == "latex":
        body = " \\\\\n".join(" & ".join("\\star" if g == "*" else g
                                         for g in row) for row in pm.rows)
        print("\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body)
    else:
        print(pm.render())
    return 0


def _parse_field(text):
    if text == "q":
        return None
    if text.startswith("p="):
        return int(text[2:])
    raise ValueError("--field expects 'q' or 'p=<odd prime>', got %r" % text)


def _cmd_reduce(args):
    p = _parse_field(args.field)
    if args.random:
        if args.matrix is not None:
            raise ValueError("give either a matrix file or --random, not both")
        n, k = args.random
        rng = random.Random(args.seed)
        mat = random_matrix(n, k, rng, p)
    else:
        if args.matrix is None:
            raise ValueError("matrix file required (or --random N K)")
        text = (sys.stdin.read() if args.matrix == "-"
                else Path(args.matrix).read_text(encoding="utf-8"))
        try:
            mat = matrix_from_json(text)
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise ValueError("malformed matrix JSON: %s" % exc) from None
    R, word = reduction(mat, p)
    fits = fits_pattern(R, word)
    rows = [[str(v) for v in row] for row in R]
    if args.format == "json":
        print(json.dumps({"word": str(word), "k": word.k,
                          "field": args.field, "R": rows,
                          "input": [[str(v) for v in row] for row in mat],
                          "fits_pattern": fits}))
    elif args.format == "latex":
        body = " \\\\\n".join(" & ".join(row) for row in rows)
        print("\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body)
        print("\\text{word} = %s" % word)
    else:
        print("word: %s" % word)
        widths = [max(len(rows[i][j]) for i in range(len(rows)))
                  for j in range(len(rows[0]))]
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        print("fits pattern: %s" % fits)
    return 0


def _cmd_cell_report(args):
    word = Word(args.word, args.k)
    rep = cell_dimension_report(word, p=args.prime, samples=args.samples,
                                seed=args.seed)
    if args.format == "json":
        print(json.dumps(rep))
        return 0
    for key, value in rep.items():
        print("%s: %s" % (key, value))
    if not rep["consistent"]:
        print("note: the closed-form quantities disagree; all values are "
              "reported, none is asserted")
    return 0


def _cmd_fubini(args):
    if args.n < 1 or args.k < 1:
        raise ValueError("--n and --k must be positive")
    count = fubini_count(args.n, args.k)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "count": count}
        if not args.count:
            payload["words"] = ["".join(map(str, w)) if args.k <= 9
                                else ",".join(map(str, w))
                                for w in enumerate_fubini(args.n, args.k)]
        print(json.dumps(payload))
        return 0
    if args.count:
        print(count)
        return 0
    for letters in enumerate_fubini(args.n, args.k):
        print(str(Word(letters, args.k)))
    return 0


# -- parser ------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pipedreams",
        description="Exact Schubert/Grothendieck polynomials, pipe dreams, "
                    "bumpless pipe dreams, Fubini-word rings, and the "
                    "pattern-matrix/reduction algorithms.")
    sub = parser.add_subparsers(dest="command", required=True)
    default_format = _default_format()

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=default_format,
                       help="output format (default: $%s or text)" % FORMAT_ENV)

    for name, fn in (("schubert", _cmd_schubert),
                     ("grothendieck", _cmd_grothendieck)):
        p = sub.add_parser(name, help="%s polynomial of a permutation or word" % name)
        p.add_argument("input", help="one-line permutation or word, e.g. 24153")
        p.add_argument("--k", type=int, default=None,
                       help="alphabet size (forces word interpretation)")
        p.add_argument("--double", action="store_true",
                       help="double (x; y) version (permutations only)")
        add_format(p)
        p.set_defaults(handler=fn)

    for name, bumpless in (("pipedreams", False), ("bpd", True)):
        p = sub.add_parser(name, help="enumerate %s diagrams"
                           % ("bumpless pipe dream" if bumpless else "pipe dream"))
        p.add_argument("input", help="one-line permutation or word")
        p.add_argument("--k", type=int, default=None,
                       help="alphabet size (forces word interpretation)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--all", action="store_true",
                           help="include non-reduced (K-theoretic) diagrams")
        group.add_argument("--reduced", action="store_true",
                           help="reduced diagrams only (default)")
        p.add_argument("--render", action="store_true", help="ASCII pictures")
        add_format(p)
        p.set_defaults(handler=lambda a, b=bumpless: _cmd_diagrams(a, b))

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="suite", required=True)
    pr = vsub.add_parser("rings", help="quotient-ring verification")
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--k", type=int, default=None)
    pr.add_argument("--force", action="store_true",
                    help="lift the n <= %d cap" % VERIFY_N_CAP)
    add_format(pr)
    pr.set_defaults(handler=_cmd_verify_rings)
    pi = vsub.add_parser("identities", help="generating-function identities")
    pi.add_argument("--n", type=int, default=4)
    pi.add_argument("--force", action="store_true",
                    help="lift the n <= %d cap" % VERIFY_N_CAP)
    add_format(pi)
    pi.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("pattern-matrix", help="pattern matrix of a word")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=_cmd_pattern_matrix)

    p = sub.add_parser("reduce", help="matrix reduction to canonical form")
    p.add_argument("matrix", nargs="?", default=None,
                   help="path to a JSON matrix of 'num/den' strings, or -")
    p.add_argument("--field", default="q", help="'q' (rationals) or 'p=P'")
    p.add_argument("--random", type=int, nargs=2, metavar=("N", "K"),
                   help="reduce a random k x n integer matrix instead")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --random")
    add_format(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("cell-report", help="cell-dimension bookkeeping of a word")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--prime", type=int, default=1009)
    p.add_argument("--samples", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(handler=_cmd_cell_report)

    p = sub.add_parser("fubini", help="enumerate or count Fubini words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print the count only")
    add_format(p)
    p.set_defaults(handler=_cmd_fubini)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DeskScaleError, ReductionError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
