"""Per-layer tracing from outside the package.

``install()`` replaces each layer-boundary function of ``pipedreams`` with a
wrapper that records a span: its duration and its self time (the duration
minus the spans it encloses). A function imported into several modules is
replaced in every ``pipedreams`` namespace that holds it, so a call through
``rings.grothendieck`` is seen as well as one through ``poly.grothendieck``.

Per-term and per-row functions (``Poly.__mul__``, ``Permutation()``,
``HnfAccumulator.add_row``) are not wrapped: they run millions of times and
the wrapper would swamp what it measures.

Every span's self time goes to exactly one ``*_s`` metric in ``SELF_METRIC``,
so those metrics plus ``trace.unwrapped_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method) -> metric that takes its self time
SELF_METRIC = {
    ("pipedreams.poly", "schubert"): "poly.recursion_s",
    ("pipedreams.poly", "grothendieck"): "poly.recursion_s",
    ("pipedreams.poly", "schubert_double"): "poly.recursion_s",
    ("pipedreams.poly", "grothendieck_double"): "poly.recursion_s",
    ("pipedreams.poly", "schubert_of_word"): "poly.word_s",
    ("pipedreams.poly", "grothendieck_of_word"): "poly.word_s",
    ("pipedreams.pipedream", "enumerate_reduced"): "pipedream.enum_s",
    ("pipedreams.pipedream", "enumerate_all"): "pipedream.enum_s",
    ("pipedreams.pipedream", "enumerate_word_pds"): "pipedream.enum_s",
    ("pipedreams.pipedream", "pd_schubert"): "pipedream.sum_s",
    ("pipedreams.pipedream", "pd_grothendieck"): "pipedream.sum_s",
    ("pipedreams.pipedream", "word_pd_schubert"): "pipedream.sum_s",
    ("pipedreams.pipedream", "word_pd_grothendieck"): "pipedream.sum_s",
    ("pipedreams.bpd", "enumerate_reduced_bpd"): "bpd.enum_s",
    ("pipedreams.bpd", "enumerate_all_bpd"): "bpd.enum_s",
    ("pipedreams.bpd", "enumerate_word_bpds"): "bpd.enum_s",
    ("pipedreams.bpd", "bpd_schubert"): "bpd.sum_s",
    ("pipedreams.bpd", "bpd_grothendieck"): "bpd.sum_s",
    ("pipedreams.bpd", "word_bpd_schubert"): "bpd.sum_s",
    ("pipedreams.bpd", "word_bpd_grothendieck"): "bpd.sum_s",
    ("pipedreams.combinat", "Word.convexify"): "combinat.word_s",
    ("pipedreams.combinat", "Word.standardize"): "combinat.word_s",
    ("pipedreams.combinat", "Word.associated_permutation"): "combinat.word_s",
    ("pipedreams.rings", "verify_rings"): "rings.bundle_s",
    ("pipedreams.rings", "rnk_rank"): "rings.bundle_s",
    ("pipedreams.rings", "ideals_equal"): "rings.bundle_s",
    ("pipedreams.rings", "verify_grothendieck_basis"): "rings.bundle_s",
    ("pipedreams.rings", "coinvariant_ideal_lattice"): "rings.rowgen_s",
    ("pipedreams.rings", "elementary_ideal_generators"): "rings.classes_s",
    ("pipedreams.rings", "grothendieck_ideal_generators"): "rings.classes_s",
    ("pipedreams.rings", "k0_class_of_word"): "rings.classes_s",
    ("pipedreams.rings", "chow_class_of_word"): "rings.classes_s",
    ("pipedreams.rings", "IntegerLattice.__init__"): "lattice.build_s",
    ("pipedreams.rings", "IntegerLattice.contains_row"): "lattice.member_s",
    ("pipedreams.rings", "IntegerLattice.is_torsion_free"): "lattice.torsion_s",
}

# metric -> span whose whole duration (children included) it sums
TOTAL_METRIC = {
    "rings.rank_s": "rings.rnk_rank",
    "rings.ideal_equal_s": "rings.ideals_equal",
    "rings.basis_s": "rings.verify_grothendieck_basis",
}

# counters that the hooks below fill
COUNTERS = (
    "poly.calls", "poly.result_terms", "pipedream.diagrams", "bpd.diagrams",
    "rings.ideal_lattices", "rings.rows", "lattice.builds",
    "lattice.member_calls", "lattice.rank_sum", "lattice.fallbacks",
)


def span_name(module, attr):
    return "%s.%s" % (module.rsplit(".", 1)[1], attr)


class Tracer:
    """Span and counter totals of one traced pass."""

    def __init__(self, compiled_kernel):
        self.compiled_kernel = compiled_kernel
        self.stack = []                 # child time of each open span
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.counts = Counter()
        self.words = set()

    def wrap(self, fn, name, before=None, after=None):
        stack, self_s, total_s, max_s = (self.stack, self.self_s,
                                         self.total_s, self.max_s)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = before(args) if before else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                self_s[name] += dt - children
                total_s[name] += dt
                if dt > max_s[name]:
                    max_s[name] = dt
            if after:
                after(args, result, state)
            return result

        return span

    # -- counters at the boundaries ----------------------------------------

    def _poly_result(self, args, result, state):
        self.counts["poly.calls"] += 1
        self.counts["poly.result_terms"] += len(result.terms)

    def _pd_diagrams(self, args, result, state):
        self.counts["pipedream.diagrams"] += len(result)

    def _bpd_diagrams(self, args, result, state):
        self.counts["bpd.diagrams"] += len(result)

    def _word(self, args, result, state):
        self.words.add((args[0].letters, args[0].k))

    def _ideal_lattice(self, args, result, state):
        self.counts["rings.ideal_lattices"] += 1

    def _kernel_of(self, args):
        return args[0].kernel_name

    def _fell_back(self, lattice, before):
        """A fallback is a lattice that the compiled kernel could not keep:
        built on it and ended on the pure one."""
        if (self.compiled_kernel and before != "pure"
                and lattice.kernel_name == "pure"):
            self.counts["lattice.fallbacks"] += 1

    def _built(self, args, result, state):
        lattice, rows = args[0], args[2]
        self.counts["lattice.builds"] += 1
        self.counts["rings.rows"] += len(rows)
        self.counts["lattice.rank_sum"] += lattice.rank
        self._fell_back(lattice, None)

    def _member(self, args, result, state):
        self.counts["lattice.member_calls"] += 1
        self._fell_back(args[0], state)

    def _torsion(self, args, result, state):
        self._fell_back(args[0], state)

    def hooks(self, module, attr):
        """(before, after) counters for one wrapped function."""
        if module == "pipedreams.poly":
            return None, self._poly_result
        if module == "pipedreams.combinat":
            return None, self._word
        if attr in ("IntegerLattice.contains_row",
                    "IntegerLattice.is_torsion_free"):
            before = self._kernel_of
        else:
            before = None
        return before, {
            "enumerate_reduced": self._pd_diagrams,
            "enumerate_all": self._pd_diagrams,
            "enumerate_reduced_bpd": self._bpd_diagrams,
            "enumerate_all_bpd": self._bpd_diagrams,
            "coinvariant_ideal_lattice": self._ideal_lattice,
            "IntegerLattice.__init__": self._built,
            "IntegerLattice.contains_row": self._member,
            "IntegerLattice.is_torsion_free": self._torsion,
        }.get(attr)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s, cache):
        """Every per-layer metric of the pass, by name."""
        out = {m: 0.0 for m in SELF_METRIC.values()}
        for key, metric in SELF_METRIC.items():
            out[metric] += self.self_s.get(span_name(*key), 0.0)
        for metric, span in TOTAL_METRIC.items():
            out[metric] = self.total_s.get(span, 0.0)
        out["rings.pair_max_s"] = self.max_s.get("rings.verify_rings", 0.0)
        out.update({m: self.counts[m] for m in COUNTERS})
        out["combinat.words"] = len(self.words)
        out["poly.cache_entries"] = len(cache)
        out["poly.cache_terms"] = sum(len(p.terms) for p in cache.values())
        out["lattice.compiled"] = int(self.compiled_kernel)
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - sum(self.self_s.values())
        return out


def _rebind(old, new):
    """Replace `old` by `new` in every pipedreams module namespace."""
    for modname, mod in list(sys.modules.items()):
        if modname == "pipedreams" or modname.startswith("pipedreams."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer):
    """Wrap every function in SELF_METRIC; call once per process."""
    for (module, attr) in SELF_METRIC:
        before, after = tracer.hooks(module, attr)
        name = span_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, meth, tracer.wrap(vars(cls)[meth], name, before, after))
        else:
            fn = getattr(sys.modules[module], attr)
            _rebind(fn, tracer.wrap(fn, name, before, after))
