"""Per-layer tracing by wrapping polyabc's public functions from outside.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (calls, total and self time) and rebinds every polyabc module-level name
that refers to the original, because modules such as ``abcengine`` and
``cli`` import these functions by name.  ``Coeff`` arithmetic is only
counted, by field kind.  Nothing inside polyabc changes, and a traced run
prints byte-identical reports.

Conventions:
  * self time is a span's duration minus the durations of its traced children;
  * total time counts only the outermost span of a function, so recursion
    (higher_radical, poly_gcd) is not counted twice;
  * a poly_gcd call counts only when its nearest traced caller is not
    poly_gcd (the content recursion is part of one gcd);
  * distinct-input ratios are distinct (function, arguments) pairs divided
    by calls, within one operation.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("fields", "mvpoly", "hasse", "nevanlinna", "radicals", "wronskian",
           "abcengine", "instances", "cli", "oracle")

# module -> functions wrapped with spans ("Class.method" for methods)
SPANS = {
    "instances": ("generate_corpus",),
    "abcengine": ("split_vanishing_subsums", "bm_partition", "detect_k", "analyze_block",
                  "verify_basic_abc", "verify_abc_first", "verify_abc_second",
                  "verify_corollaries"),
    "wronskian": ("field_rank", "poly_matrix_rank", "find_certificate", "bareiss_det",
                  "collection_independence_index"),
    "radicals": ("radical", "higher_radical", "square_free_part", "trunc_gcd",
                 "sigma_radical_gcd", "radical_chain"),
    "mvpoly": ("poly_gcd", "exact_div", "MvPoly.__mul__", "MvPoly.__add__"),
    "hasse": ("hasse_derivative", "poly_pth_root"),
    "nevanlinna": ("counting", "norm_profile"),
    "cli": ("main",),
}
VERIFY = ("verify_basic_abc", "verify_abc_first", "verify_abc_second", "verify_corollaries")
COEFF_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse")
FIELD_KINDS = ("rational_p_adic", "prime_field", "ratfunc_t_adic")
DISTINCT = {"radicals": SPANS["radicals"], "mvpoly": ("poly_gcd",)}


def _arg_key(x):
    return (x.spec, x.m, frozenset(x.terms.items())) if hasattr(x, "terms") else x


class Stat:
    __slots__ = ("calls", "total", "self_s", "active")

    def __init__(self):
        self.calls, self.total, self.self_s, self.active = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self):
        self.stats = {}          # "module.function" -> Stat
        self.stack = []          # [key, start, child time]
        self.coeff_ops = dict.fromkeys(FIELD_KINDS, 0)
        self.subset_sums = 0
        self.corpus_gcds = 0
        self.distinct = {mod: [0, 0] for mod in DISTINCT}   # [distinct pairs, calls]
        self.setup = {}
        self._seen = set()
        self._undo = []

    def end_setup(self):
        """Keep the set-up figures apart and start the operation counts at 0."""
        corpus = self.stats.get("instances.generate_corpus", Stat())
        self.setup = {"total_s": corpus.total, "gcd_calls": self.corpus_gcds}
        for stat in self.stats.values():
            stat.calls, stat.total, stat.self_s = 0, 0.0, 0.0
        self.coeff_ops.update(dict.fromkeys(FIELD_KINDS, 0))  # the counters hold this dict
        self.subset_sums = 0
        self.distinct = {mod: [0, 0] for mod in DISTINCT}
        self._seen.clear()

    # -- per-operation scope for distinct-input ratios ---------------------

    def end_op(self):
        self._seen.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, key, fn):
        stats = self.stats.setdefault(key, Stat())
        stack = self.stack
        mod, name = key.split(".", 1)
        is_gcd = key == "mvpoly.poly_gcd"
        is_add = key == "mvpoly.MvPoly.__add__"
        corpus = self.stats.setdefault("instances.generate_corpus", Stat())
        distinct = mod if name in DISTINCT.get(mod, ()) else None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if not (is_gcd and parent == key):
                stats.calls += 1
                if is_gcd and corpus.active:
                    tracer.corpus_gcds += 1
                if distinct:
                    pair = (key, tuple(_arg_key(a) for a in args))
                    counts = tracer.distinct[distinct]
                    counts[1] += 1
                    if pair not in tracer._seen:
                        tracer._seen.add(pair)
                        counts[0] += 1
            if is_add and parent and parent.startswith("abcengine."):
                tracer.subset_sums += 1
            frame = [key, perf_counter(), 0.0]
            stack.append(frame)
            stats.active += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                stats.active -= 1
                stats.self_s += dur - frame[2]
                if not stats.active:
                    stats.total += dur
                if stack:
                    stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        counts = self.coeff_ops

        def wrapper(self_, *args):
            counts[self_.spec.kind] += 1
            return fn(self_, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {name: importlib.import_module(f"polyabc.{name}") for name in MODULES}
        for mod_name, names in SPANS.items():
            mod = mods[mod_name]
            for name in names:
                key = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._span(key, getattr(cls, meth)))
                    continue
                orig = getattr(mod, name)
                wrapped = self._span(key, orig)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, attr, wrapped)
        coeff = mods["fields"].Coeff
        for meth in COEFF_OPS:
            self._set(coeff, meth, self._counter(getattr(coeff, meth)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures: setup work once, operation work per round."""
        def st(key):
            return self.stats.get(key, Stat())

        per = 1.0 / rounds
        out = {
            "instances.generate_corpus.total_s": (self.setup["total_s"], "s/setup"),
            "instances.generate_corpus.gcd_calls": (self.setup["gcd_calls"], "calls/setup"),
        }
        for name in ("split_vanishing_subsums", "bm_partition", "detect_k", "analyze_block"):
            out[f"abcengine.{name}.total_s"] = (st(f"abcengine.{name}").total * per, "s/round")
        out["abcengine.verify.self_s"] = (
            sum(st(f"abcengine.{name}").self_s for name in VERIFY) * per, "s/round")
        out["abcengine.subset_sums"] = (self.subset_sums * per, "calls/round")
        wr = "wronskian."
        out[wr + "field_rank.calls"] = (st(wr + "field_rank").calls * per, "calls/round")
        out[wr + "field_rank.self_s"] = (st(wr + "field_rank").self_s * per, "s/round")
        out[wr + "poly_matrix_rank.calls"] = (st(wr + "poly_matrix_rank").calls * per, "calls/round")
        out[wr + "find_certificate.total_s"] = (st(wr + "find_certificate").total * per, "s/round")
        out[wr + "bareiss_det.self_s"] = (st(wr + "bareiss_det").self_s * per, "s/round")
        out[wr + "collection_independence_index.total_s"] = (
            st(wr + "collection_independence_index").total * per, "s/round")
        for name in SPANS["radicals"]:
            out[f"radicals.{name}.calls"] = (st(f"radicals.{name}").calls * per, "calls/round")
            out[f"radicals.{name}.total_s"] = (st(f"radicals.{name}").total * per, "s/round")
        out["radicals.distinct_input_ratio"] = (_ratio(self.distinct["radicals"]), "ratio")
        mv = "mvpoly."
        out[mv + "poly_gcd.calls"] = (st(mv + "poly_gcd").calls * per, "calls/round")
        out[mv + "poly_gcd.total_s"] = (st(mv + "poly_gcd").total * per, "s/round")
        out[mv + "poly_gcd.distinct_input_ratio"] = (_ratio(self.distinct["mvpoly"]), "ratio")
        for name in ("exact_div", "MvPoly.__mul__", "MvPoly.__add__"):
            out[f"{mv}{name}.calls"] = (st(mv + name).calls * per, "calls/round")
            out[f"{mv}{name}.self_s"] = (st(mv + name).self_s * per, "s/round")
        out["hasse.hasse_derivative.calls"] = (st("hasse.hasse_derivative").calls * per, "calls/round")
        out["hasse.hasse_derivative.self_s"] = (st("hasse.hasse_derivative").self_s * per, "s/round")
        out["hasse.poly_pth_root.calls"] = (st("hasse.poly_pth_root").calls * per, "calls/round")
        out["nevanlinna.counting.total_s"] = (st("nevanlinna.counting").total * per, "s/round")
        out["nevanlinna.norm_profile.total_s"] = (st("nevanlinna.norm_profile").total * per, "s/round")
        for kind in FIELD_KINDS:
            out[f"fields.coeff_ops.{kind}"] = (self.coeff_ops[kind] * per, "calls/round")
        out["cli.main.self_s"] = (st("cli.main").self_s * per, "s/round")
        return out


def _ratio(counts) -> float:
    distinct, calls = counts
    return distinct / calls if calls else 1.0
