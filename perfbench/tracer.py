"""Per-layer tracer installed from outside the program.

``Tracer.install()`` wraps every public module-level function of each looppres
module, plus the four arithmetic kernels in METHODS and the two reduction cores
in PRIVATE, and rebinds every ``looppres.*`` module attribute that *is* one of
the wrapped functions, so aliases made by ``from .pcalg import evaluate`` and
recursion through a module global (``rewrite_chat``) are traced too.  Nothing
under ``src/`` changes.

Each traced function keeps aggregate counters: calls and self time (inclusive
time minus the time of traced callees).  Only the functions in
SPANNED -- stage entry points called at most a few thousand times per run --
also keep one span per call; kernels called 10^4..10^6 times keep aggregates
only.  A few functions feed extra counters (EXTRA below) computed from their
arguments or results.
"""

import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "simplicial", "exactlin", "freealg", "pcalg",
           "presentation", "torbar", "homotopy")

# (module, class, method) -> traced name
METHODS = {
    ("freealg", "FreePolynomial", "__add__"): "freealg.add",
    ("freealg", "FreePolynomial", "__mul__"): "freealg.mul",
    ("pcalg", "PCAlgebra", "normalize"): "pcalg.normalize",
    ("pcalg", "PCElement", "__mul__"): "pcalg.mul",
}

# private functions traced under a public name: the Smith core behind every
# integer reduction (the public smith_normal_form is a thin wrapper that the
# CLI never calls, so it is left unwrapped), and Gauss elimination over fields
PRIVATE = {
    ("exactlin", "_snf_with_inverses"): "exactlin.smith_normal_form",
    ("exactlin", "_field_diagonalize"): "exactlin.field_diagonalize",
}

SPANNED = frozenset({
    "cli.main", "cli.load_complex", "cli.cmd_analyze", "cli.cmd_presentation",
    "cli.cmd_homotopy", "cli.cmd_hilbert", "cli.cmd_verify",
    "presentation.build_presentation", "presentation.verify_presentation",
    "presentation.gptw_generators", "presentation.presentation_to_dict",
    "pcalg.graded_dimensions", "homotopy.multiplicity_report",
})


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


def _ring_label(ring):
    return "Fp" if ring.kind == "Fp" else ring.kind


class Tracer:
    def __init__(self):
        self.stats = {}          # traced name -> Stat
        self.counters = {}       # extra counter name -> number
        self.sets = {}           # distinct-key counters: name -> set
        self.spans = []          # (name, op, start, end, parent index)
        self.rebinds = 0
        self.op = None           # index of the op being run, set by the worker
        self._stack = []         # per active call: [child time, span index]

    # -- counters fed by EXTRA -------------------------------------------------
    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def distinct(self, name, key):
        self.sets.setdefault(name, set()).add((self.op, key))

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name, fn):
        split = SPLIT.get(name)
        stat = None if split else self.stats.setdefault(name, Stat())
        stats = self.stats
        stack = self._stack
        spans = self.spans if name in SPANNED else None
        extra = EXTRA.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = None
            if spans is not None:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                span = len(spans)
                spans.append([name, tracer.op, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                st = stat or stats.setdefault(
                    "%s.%s" % (name, split(args, kwargs)), Stat())
                st.calls += 1
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span is not None:
                    spans[span][2:4] = [t0, t1]
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap and rebind; returns the number of traced functions."""
        import looppres  # noqa: F401  (loads every submodule)
        originals = {}   # id(original) -> (original, wrapper)
        taken = set(PRIVATE.values())
        for short in MODULES:
            mod = importlib.import_module("looppres." + short)
            for attr, obj in sorted(vars(mod).items()):
                name = "%s.%s" % (short, attr)
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in taken):
                    continue
                originals[id(obj)] = (obj, self._wrap(name, obj))
        for (short, attr), name in PRIVATE.items():
            obj = getattr(importlib.import_module("looppres." + short), attr)
            originals[id(obj)] = (obj, self._wrap(name, obj))
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module("looppres." + short),
                          cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "looppres"
                                   or mod_name.startswith("looppres.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.rebinds += 1
        return len(originals) + len(METHODS)

    # -- report ----------------------------------------------------------------
    def snapshot(self):
        """Plain-data view: per-function stats plus the extra counters."""
        return {"functions": {n: {"calls": s.calls, "self_s": s.self_s}
                              for n, s in sorted(self.stats.items())
                              if s.calls},
                "counters": dict(self.counters),
                "distinct": {n: len(s) for n, s in self.sets.items()},
                "rebinds": self.rebinds}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# extra counters: traced name -> fn(tracer, args, kwargs, result)
# ---------------------------------------------------------------------------

def _add(tr, args, kwargs, result):
    tr.count("freealg.add.terms_out", len(result.terms))


def _rewrite(tr, args, kwargs, result):
    k, j_set, i = args[:3]
    tr.distinct("presentation.rewrite_chat.distinct", (frozenset(j_set), i))


def _build(tr, args, kwargs, result):
    tr.count("presentation.relation_terms",
             sum(len(rel.poly.terms) for rel in result.relations))


def _normalize(tr, args, kwargs, result):
    tr.distinct("pcalg.normalize.distinct_words", tuple(args[1]))
    if result is None:
        tr.count("pcalg.normalize.zero")


def _graded(tr, args, kwargs, result):
    tr.count("pcalg.graded_dimensions.words", sum(result))


def _boundary(tr, args, kwargs, result):
    tr.count("simplicial.boundary_matrix.entries", result.rows * result.cols)


def _subsets(tr, args, kwargs, result):
    tr.count("simplicial.all_subsets.subsets", len(result))


def _entries(name):
    def count(tr, args, kwargs, result):
        tr.count(name, args[0].rows * args[0].cols)
    return count


def _bar(tr, args, kwargs, result):
    tr.count("torbar.bar_cycle.terms", len(result.terms))


EXTRA = {
    "freealg.add": _add,
    "presentation.rewrite_chat": _rewrite,
    "presentation.build_presentation": _build,
    "pcalg.normalize": _normalize,
    "pcalg.graded_dimensions": _graded,
    "simplicial.boundary_matrix": _boundary,
    "simplicial.all_subsets": _subsets,
    "exactlin.smith_normal_form": _entries("exactlin.smith_normal_form.entries"),
    "exactlin.field_diagonalize":
        _entries("exactlin.field_diagonalize.entries"),
    "torbar.bar_cycle": _bar,
}


def _homology_ring(args, kwargs):
    ring = kwargs.get("ring") or (args[2] if len(args) > 2 else None)
    return _ring_label(ring or args[0].ring)


# traced name -> fn(args, kwargs) giving a suffix; each suffix has its own Stat
SPLIT = {"exactlin.homology_with_representatives": _homology_ring}
